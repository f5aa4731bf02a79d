"""Layered benchmark for monopart.

Run from the repository root:

    python3 perfbench/run.py --workload random-large --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --workload random-large --seed 1 --seconds 18 --trace 1

The workload's corpus is built from ``--seed``; the package under ``./src``
receives only the generated inputs.  One thread and one caller run a closed
loop: an instance starts only after the previous one has been checked.
Whole passes over the corpus repeat until ``--seconds`` have passed.

Each instance is also run, right before or after the program, by a frozen
copy of monopart kept under ``perfbench/reference``.  A time metric is the
program's time divided by the reference's, measured side by side, times the
reference's time on the machine the benchmark was calibrated on
(``REFERENCE_S``): seconds at a fixed machine speed, so that a shared core
that runs fast in one minute and slow in the next moves both alike.

``--trace 0`` prints the end-to-end metrics named in ``BENCHMARK.json``;
``--trace 1`` first times untraced passes, then instruments every public
function of the package and prints the per-layer metrics.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

WORKLOADS = ("random-large", "adversarial", "tiny-exhaustive", "cli-files")

REFERENCE_DIR = os.path.join("perfbench", "reference")  # relative to the checkout

# Pairs of fresh processes, one for the program and one for the reference,
# that import the package and build the corpus: the samples of setup_s.
SETUP_PAIRS = 2

# CPU seconds the reference takes per workload: set-up, and each family's
# part of one pass.  Medians over seeds 1-5 on the machine the benchmark was
# calibrated on, a 2-core Intel Xeon VM shared with other tenants.  Each
# run prints the reference's seconds next to the program's.
REFERENCE_S = {
    "random-large": {"setup_s": 1.26, "h3_s": 3.06, "bnn2_s": 0.537, "kn3_s": 0.646,
                     "bnn3_s": 0.677, "rxn_s": 1.01},
    "adversarial": {"setup_s": 0.277, "h3_s": 0.208, "bnn2_s": 1.64, "kn3_s": 0.161,
                    "bnn3_s": 0.294, "rxn_s": 0.172},
    "tiny-exhaustive": {"setup_s": 0.345, "h3_s": 0.503, "bnn2_s": 12.3, "kn3_s": 0.363,
                        "bnn3_s": 0.424, "rxn_s": 0.380},
    "cli-files": {"setup_s": 0.394, "h3_s": 4.06, "bnn2_s": 1.15, "kn3_s": 0.415,
                  "bnn3_s": 0.279, "rxn_s": 0.995},
}

# Share of a traced run's seconds spent on untraced passes, the base of
# trace.overhead_frac.
UNTRACED_SHARE = 0.4

# Scaling slices: the corpus group whose instances each slice entry times.
SLICE_GROUPS = {
    "tightpaths.span": "h3-random",
    "bipartite.balanced_c4": "bnn2-off-edge",
    "bipartite.partition": "bnn2-random",
}

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def _set_up(workload: str, seed: int, tiny: bool, name: str = "monopart"):
    """Import package ``name`` and build the corpus for it; (workloads module,
    corpus, CPU seconds)."""
    t0 = time.process_time()
    pkg = importlib.import_module(name)
    import workloads

    corpus = workloads.build(workload, seed, tiny, workloads.package(name))
    elapsed = time.process_time() - t0
    home = os.path.join(os.getcwd(), "src" if name == workloads.PROGRAM else REFERENCE_DIR)
    home = os.path.realpath(home)
    if not os.path.realpath(pkg.__file__).startswith(home + os.sep):
        corpus.close()
        raise ImportError(f"{name} imported from {pkg.__file__}, not from {home}")
    return workloads, corpus, elapsed


def _setup_pairs(args) -> list[tuple[float, float]]:
    """(program, reference) set-up CPU seconds, one pair of fresh processes
    each; the order within a pair alternates."""
    import workloads

    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed)] + (["--tiny"] if args.tiny else []) + ["--setup-only"]
    pairs = []
    for k in range(SETUP_PAIRS):
        names = (workloads.PROGRAM, workloads.REFERENCE)[:: 1 if k % 2 == 0 else -1]
        t = {}
        for name in names:
            proc = subprocess.run(cmd + [name], capture_output=True, text=True, timeout=120)
            if proc.returncode != 0:
                raise RuntimeError(f"set-up process failed: {proc.stderr.strip()[-500:]}")
            t[name] = json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]
        pairs.append((t[workloads.PROGRAM], t[workloads.REFERENCE]))
    return pairs


def _passes(workloads, corpus, budget: float, tracer=None, reference=None) -> list:
    """Closed-loop passes until the budget has been spent."""
    results = []
    t_start = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        if tracer is not None:
            tracer.pass_no = len(results)
        span = tracer.span if tracer is not None else None
        results.append(workloads.run_pass(corpus, span, tracer, reference, len(results)))
        now = time.perf_counter()
        results[-1].wall_s = now - t_pass
        if now - t_start >= budget:
            return results


def _medians(corpus, results) -> dict[str, float]:
    """Pass and family times, each instance at its median over the passes.

    Taking each instance's median before summing keeps a burst of load
    from other processes, which slows a few seconds of one pass, out of
    the figures.
    """
    times: dict[str, float] = {}
    for i, inst in enumerate(corpus.instances):
        key = f"{inst.family}_s"
        t = statistics.median(r.instance_s[i] for r in results)
        times[key] = times.get(key, 0.0) + t
    times["total_s"] = sum(times.values())
    return times


def _family_ratios(corpus, results) -> dict[str, float]:
    """Each family's program ÷ reference time: the ratio of the two sums
    over the family's instances in a pass, median over the passes."""
    ratios: dict[str, list[float]] = {}
    for r in results:
        prog: dict[str, float] = {}
        ref: dict[str, float] = {}
        for inst, tp, tr in zip(corpus.instances, r.instance_s, r.reference_s):
            key = f"{inst.family}_s"
            prog[key] = prog.get(key, 0.0) + tp
            ref[key] = ref.get(key, 0.0) + tr
        for key in prog:
            ratios.setdefault(key, []).append(prog[key] / ref[key])
    return {key: statistics.median(v) for key, v in ratios.items()}


def _end_to_end(spec, workload, corpus, results, setup: list[tuple[float, float]]) -> dict[str, float]:
    nominal = REFERENCE_S[workload]
    values = {k: ratio * nominal[k] for k, ratio in _family_ratios(corpus, results).items()}
    values["total_s"] = sum(values.values())
    values["setup_s"] = statistics.median(p / r for p, r in setup) * nominal["setup_s"]
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {m["name"]: values[m["name"]] for m in spec["end_to_end"]}


def _layer_value(name: str, tables, slice_keys) -> float:
    """One per-layer metric: the set-up build plus the median traced pass,
    or for peak_mb the largest peak of the set-up build and the peak pass."""
    setup = tables.get(-1, {})
    passes = [t for p, t in tables.items() if p >= 0]

    def stat(key: str) -> float:
        return setup.get(key, 0) + statistics.median(t.get(key, 0) for t in passes)

    base, _, last = name.rpartition(".")
    if last == "fail":
        return stat(f"{base}.raised") + stat(f"{base}.failed")
    if last == "hit_ratio":
        calls = stat(f"{base}.calls")
        return stat(f"{base}.hits") / calls if calls else 0.0
    if last == "peak_mb":
        return max([t.get(name, 0.0) for t in tables.values()] + [0.0])
    if last == "slope":
        sizes = sorted(slice_keys[base])[-2:]
        t_lo, t_hi = (_slice(base, n, tables, slice_keys) for n in sizes)
        if t_lo <= 0 or t_hi <= 0:
            return 0.0
        return math.log(t_hi / t_lo) / math.log(sizes[1] / sizes[0])
    entry, _, size = base.rpartition(".")
    if last == "s" and entry in SLICE_GROUPS and size.startswith("n") and size[1:].isdigit():
        return _slice(entry, int(size[1:]), tables, slice_keys)
    return stat(name)


def _slice(entry: str, n: int, tables, slice_keys) -> float:
    """Median-pass time of an entry per instance of its slice group at n."""
    count = slice_keys[entry].get(n, 0)
    if not count:
        return 0.0
    key = f"{entry}.@{SLICE_GROUPS[entry]}/{n}.s"
    return statistics.median(t.get(key, 0.0) for p, t in tables.items() if p >= 0) / count


def _per_layer(spec, corpus, untraced, traced, tables) -> dict[str, float]:
    slice_keys: dict[str, dict[int, int]] = {e: {} for e in SLICE_GROUPS}
    for inst in corpus.instances:
        for entry, group in SLICE_GROUPS.items():
            if inst.group == group:
                slice_keys[entry][inst.n] = slice_keys[entry].get(inst.n, 0) + 1
    for entry in SLICE_GROUPS:  # slice names fix the sizes a slope spans
        for m in spec["per_layer"]:
            head, _, tail = m["name"].rpartition(".")
            if head.startswith(entry + ".n") and tail == "s":
                slice_keys[entry].setdefault(int(head[len(entry) + 2:]), 0)
    traced_total = _medians(corpus, traced)["total_s"]
    attempted = sum(r.attempted for r in untraced + traced)
    failed = sum(r.failed for r in untraced + traced)
    special = {
        "trace.total_s": traced_total,
        "trace.untraced_total_s": _medians(corpus, untraced)["total_s"],
        "trace.outside_s": statistics.median(
            sum(r.instance_s) - tables[p]["trace.spanned_s"] for p, r in enumerate(traced)),
        "failed_frac": failed / attempted,
    }
    special["trace.overhead_frac"] = traced_total / special["trace.untraced_total_s"] - 1
    return {
        m["name"]: special[m["name"]] if m["name"] in special
        else _layer_value(m["name"], tables, slice_keys)
        for m in spec["per_layer"]
    }


def _print_layer_table(tables) -> None:
    passes = [t for p, t in tables.items() if p >= 0]
    names = sorted({k[: -len(".calls")] for t in passes for k in t if k.endswith(".calls")})
    print(f"{'layer':36s} {'calls':>9s} {'s':>10s} {'self_s':>10s}   (median traced pass)")
    self_sum = 0.0
    for name in names:
        row = [statistics.median(t.get(f"{name}.{s}", 0) for t in passes)
               for s in ("calls", "s", "self_s")]
        self_sum += row[2]
        print(f"{name:36s} {row[0]:9.0f} {row[1]:10.4f} {row[2]:10.4f}")
    print(f"{'sum of self_s':36s} {'':9s} {'':10s} {self_sum:10.4f}")


def _print_raw(corpus, results, setup: list[tuple[float, float]]) -> None:
    """The unscaled CPU seconds behind the metrics: program and reference,
    each family at its median pass.  REFERENCE_S is calibrated from the
    reference's figures."""
    for who, field in (("program", "instance_s"), ("reference", "reference_s")):
        sums = [{} for _ in results]
        for r, fam in zip(results, sums):
            for inst, t in zip(corpus.instances, getattr(r, field)):
                fam[inst.family] = fam.get(inst.family, 0.0) + t
        print(f"{who} CPU s per pass: " + " ".join(
            f"{k}_s {statistics.median(f[k] for f in sums):.4f}" for k in sums[0]))
    print("set-up CPU s (program, reference): " + " ".join(f"({p:.4f}, {r:.4f})" for p, r in setup))


def _report(args, spec, results, metrics: dict[str, float], kind: str) -> None:
    digests = sorted({r.digest for r in results})
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    correct = len(digests) == 1 and not any(r.incorrect for r in results)
    units = {m["name"]: m["unit"] for m in spec[kind]}
    print(f"workload {args.workload} seed {args.seed}: {len(results)} passes, "
          f"{attempted} operations, {failed} failed (failed_frac {failed / attempted:.6g})")
    walls = [r.wall_s for r in results]
    print(f"pass wall s: min {min(walls):.3f} median {statistics.median(walls):.3f} max {max(walls):.3f}")
    for d in digests:
        print(f"certificate digest sha256 {d}")
    seen = set()
    for r in results:
        for line in r.failures:
            if line not in seen and len(seen) < 20:
                seen.add(line)
                print(f"failed: {line}")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:14.6f} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="perfbench")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=18.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny sizes, for the self-test")
    ap.add_argument("--setup-only", metavar="PACKAGE", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "monopart", "__init__.py")):
        return _fail("no monopart sources under ./src; run from the repository root")
    sys.path.insert(0, os.path.join(root, "src"))
    sys.path.insert(1, os.path.join(root, REFERENCE_DIR))
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        return _fail(f"cannot read BENCHMARK.json: {exc}")

    if args.setup_only:
        _, corpus, elapsed = _set_up(args.workload, args.seed, args.tiny, args.setup_only)
        corpus.close()
        print(json.dumps({"setup_s": elapsed}))
        return 0

    if not args.trace:
        setup = _setup_pairs(args)
        workloads, corpus, _ = _set_up(args.workload, args.seed, args.tiny)
        reference = None
        try:
            _, reference, _ = _set_up(args.workload, args.seed, args.tiny, workloads.REFERENCE)
            if [(i.group, i.n) for i in reference.instances] != [(i.group, i.n) for i in corpus.instances]:
                return _fail("the reference corpus does not match the program's")
            # the corpora are the benchmark's data: keep them out of the
            # collections the program's own allocations trigger
            gc.collect()
            gc.freeze()
            results = _passes(workloads, corpus, args.seconds, reference=reference)
            metrics = _end_to_end(spec, args.workload, corpus, results, setup)
            _print_raw(corpus, results, setup)
            _report(args, spec, results, metrics, "end_to_end")
            return 0
        finally:
            corpus.close()
            if reference is not None:
                reference.close()

    workloads, corpus, _ = _set_up(args.workload, args.seed, args.tiny)
    try:
        untraced = _passes(workloads, corpus, UNTRACED_SHARE * args.seconds)
    finally:
        corpus.close()

    import tracing

    corpus = None
    tracer = tracing.Tracer()
    tracer.install()
    try:
        corpus = workloads.build(args.workload, args.seed, args.tiny)  # traced as pass -1
        traced = _passes(workloads, corpus, (1 - UNTRACED_SHARE) * args.seconds, tracer)
        tracer.pass_no = -2  # untimed, for the allocation peaks
        workloads.run_pass(corpus, tracer.span, tracer)
    finally:
        tracer.uninstall()
        if corpus is not None:
            corpus.close()
    tables = tracing.pass_tables(tracer, [f"{i.group}/{i.n}" for i in corpus.instances])
    _print_layer_table(tables)
    out = os.path.join(root, workloads.OUT_DIR, f"spans-{args.workload}-seed{args.seed}.npz")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    tracer.save(out)
    print(f"spans written to {os.path.relpath(out, root)}")
    metrics = _per_layer(spec, corpus, untraced, traced, tables)
    _report(args, spec, untraced + traced, metrics, "per_layer")
    return 0


if __name__ == "__main__":
    sys.exit(main())
