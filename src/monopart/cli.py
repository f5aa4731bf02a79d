"""Command-line surface: gen | solve | verify | enumerate | bench.

Exit codes: 0 success, 1 usage or I/O error (a bad command line included,
or no solver for the host, or out of memory, or standard output closed by
its reader), 2 split colouring detected, 3 certificate violation or solver
failure (or enumeration failures).
"""

from __future__ import annotations

import argparse
import functools
import os
import random
import sys
import time

from .certificates import PartitionCertificate, check_certificate
from .colourings import (
    HyperSplitSizes,
    TransversalColouring,
    parse_colouring,
    serialize_colouring,
)
from .generators import (
    gen_random,
    gen_recoloured_split,
    gen_split_bipartite,
    gen_three_colour_split,
    gen_v_colouring,
)
from .multipartite import (
    SAMPLE_WORK_CAP,
    ExceedsCap,
    check_side_consistency,
    random_mono_tight_path,
    verify_counting,
)
from .oracles import SUITES, enumerate_all
from .solve import solve

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SPLIT = 2
EXIT_VIOLATION = 3


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line on one stderr line, exit EXIT_USAGE."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _count(text: str) -> int:
    """A count option's value: a non-negative integer."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"not a non-negative integer: {text!r}")
    return int(text)


def _jobs(text: str) -> int:
    """A worker count's value: a positive integer no larger than the CPU
    count, so that no value asks for more processes than can run at once."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"not a positive integer: {text!r}")
    cpus = os.cpu_count() or 1
    if int(text) > cpus:
        raise argparse.ArgumentTypeError(f"more workers than the {cpus} CPUs: {text}")
    return int(text)


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(t) for t in text.replace("/", ",").split(",") if t != "")


# structured-host options of `gen`: at most one, each for kind bnn only
# (--split for rxn too), and none with --palette or --seed
_STRUCTURED = ("--split", "--v-cut", "--recolour", "--three-split")


def _gen_colouring(args):
    """The colouring `gen` was asked for; ValueError on bad arguments,
    including an option the requested host would not use."""
    kind = args.kind
    given = [f for f in _STRUCTURED if getattr(args, f[2:].replace("-", "_")) is not None]
    if len(given) > 1:
        raise ValueError(f"{given[0]} and {given[1]} cannot be combined")
    if kind == "rxn" and args.r is None:
        raise ValueError("kind rxn needs --r")
    if kind != "rxn" and args.r is not None:
        raise ValueError("--r needs kind rxn")
    if given and kind != "bnn" and given != ["--split"]:
        raise ValueError(f"{given[0]} needs kind bnn")
    for flag, value in (("--palette", args.palette), ("--seed", args.seed)):
        if given and value is not None:
            raise ValueError(f"{flag} is not used with {given[0]}")
    if args.recolour_base is not None and args.recolour is None:
        raise ValueError("--recolour-base needs --recolour")
    if args.split is not None:
        if kind == "bnn":
            a1, b1 = _ints(args.split)
            return gen_split_bipartite(args.n, a1, b1)[0]
        if kind == "rxn":
            sizes = HyperSplitSizes(args.r, args.n, _ints(args.split))
            return TransversalColouring(args.r, args.n, rule=sizes)
        raise ValueError("--split needs kind bnn or rxn")
    if args.v_cut is not None:
        return gen_v_colouring(args.n, args.v_cut)
    if args.recolour is not None:
        a1, b1 = _ints(args.recolour_base or "1,1")
        a, b = _ints(args.recolour)
        return gen_recoloured_split(args.n, a1, b1, (a, b))
    if args.three_split is not None:
        left, right = args.three_split.split("/")
        if sum(_ints(left)) != args.n:
            raise ValueError(f"--three-split blocks {left} do not sum to --n {args.n}")
        return gen_three_colour_split(_ints(left), _ints(right))
    return gen_random(kind, args.n, args.palette or 2, args.seed or 0, r=args.r)


def _cmd_gen(args) -> int:
    try:
        _write(serialize_colouring(_gen_colouring(args)), args.out)
    except (OSError, ValueError) as exc:
        print(f"cannot generate colouring: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


def _write(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_certificate(cert: PartitionCertificate, out: str | None) -> bool:
    """Write the certificate's text to `out`, or standard output; False,
    after one stderr line, when the file cannot be written."""
    try:
        _write(cert.to_text() + "\n", out)
    except OSError as exc:
        print(f"cannot write certificate: {exc}", file=sys.stderr)
        return False
    return True


def _solver_error(exc: Exception) -> int:
    """Report a `solve` error on one stderr line; its exit code."""
    if isinstance(exc, RuntimeError):
        print(f"solver failed: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    print(str(exc), file=sys.stderr)
    return EXIT_USAGE


def _solve_rxn(col: TransversalColouring, args) -> int:
    r, n = col.r, col.n
    lines = []
    if col.rule is not None:
        report = verify_counting(r, n)
        lines.append(
            f"counting: hypotheses_met={report.hypotheses_met} all_hold={report.all_hold}"
        )
        for iq in report.inequalities:
            lines.append(f"  {iq.label}: {iq.lhs} vs {iq.rhs} holds={iq.holds} slack={iq.slack}")
        rng = random.Random(0)
        samples = args.samples
        reads = r * n + r  # half-table reads of one sample
        if samples * reads > SAMPLE_WORK_CAP:
            fit = SAMPLE_WORK_CAP // reads
            done = f"reduced to {fit}" if fit else "skipped"
            lines.append(f"side-consistency: sampling {done}: {samples} samples of {reads} "
                         f"half-table reads exceed SAMPLE_WORK_CAP = {SAMPLE_WORK_CAP}")
            samples = fit
        consistent = 0
        for _ in range(samples):
            path, _colour = random_mono_tight_path(col.rule, rng)
            if check_side_consistency(col.rule, path):
                consistent += 1
        lines.append(f"side-consistency: {consistent}/{samples} sampled paths consistent")
    try:
        cert, _ = solve(col)
    except ExceedsCap:
        lines.append("min-cover: exceeds search cap")
    except RuntimeError as exc:
        return _solver_error(exc)
    else:
        if args.out and not _write_certificate(cert, args.out):
            return EXIT_USAGE
        lines.append(f"min-cover: {len(cert.pieces)} pieces")
        lines.extend(f"  {p.colour.letter} path {list(p.vertices)}" for p in cert.pieces)
    print("\n".join(lines))
    return EXIT_OK


def _cmd_solve(args) -> int:
    try:
        with open(args.colouring, "rb") as fh:
            col = parse_colouring(fh.read())
    except (OSError, ValueError) as exc:
        print(f"cannot read colouring: {exc}", file=sys.stderr)
        return EXIT_USAGE
    variant = "red-path" if args.force_red_path else "two-paths" if args.two_paths else "path-cycle"
    if variant != "path-cycle" and (col.kind, col.palette) != ("bnn", 2):
        print("--two-paths and --force-red-path need a 2-coloured bnn host", file=sys.stderr)
        return EXIT_USAGE
    if isinstance(col, TransversalColouring):
        return _solve_rxn(col, args)
    try:
        cert, split = solve(col, variant)
    except (ValueError, RuntimeError) as exc:
        return _solver_error(exc)
    if (split is None or args.out) and not _write_certificate(cert, args.out):
        return EXIT_USAGE
    if split is not None:
        print(f"split colouring: {split}", file=sys.stderr)
        return EXIT_SPLIT
    return EXIT_OK


def _cmd_verify(args) -> int:
    try:
        with open(args.colouring, "rb") as fh:
            col = parse_colouring(fh.read())
        with open(args.certificate) as fh:
            cert = PartitionCertificate.from_text(fh.read())
    except (OSError, ValueError) as exc:
        print(f"cannot read inputs: {exc}", file=sys.stderr)
        return EXIT_USAGE
    res = check_certificate(col, cert)
    if res.ok:
        print("ok")
        return EXIT_OK
    print(f"violation: {res.reason} piece={res.piece_index} detail={res.detail}")
    return EXIT_VIOLATION


def _cmd_enumerate(args) -> int:
    try:
        report = enumerate_all(args.suite, args.n, jobs=args.jobs)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    print(report.summary())
    for idx, reason in report.failures[:20]:
        print(f"  instance {idx}: {reason}")
    return EXIT_OK if report.ok else EXIT_VIOLATION


def _cmd_bench(args) -> int:
    t_total = 0.0
    for i in range(args.count):
        try:
            col = gen_random(args.kind, args.n, args.palette, seed=args.seed + i)
            t0 = time.perf_counter()
            solve(col)
        except (ValueError, RuntimeError) as exc:
            return _solver_error(exc)
        t_total += time.perf_counter() - t0
    rate = args.count / t_total if t_total else float("inf")
    print(f"{args.count} solves in {t_total:.3f}s ({rate:.1f}/s)")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing keeps no
    state in it, so every `main` call shares the one tree."""
    ap = _Parser(prog="monopart")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="write a colouring file")
    g.add_argument("--kind", required=True, choices=["h3", "kn", "bnn", "rxn"])
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--r", type=int, default=None, help="uniformity for rxn")
    # None marks an option not given, which `_gen_colouring` tells apart
    # from one given and refused
    g.add_argument("--palette", type=int, default=None, choices=[2, 3], help="default 2")
    g.add_argument("--seed", type=int, default=None, help="default 0")
    g.add_argument("--split", help="a1,b1 (bnn) or s_1,...,s_r (rxn)")
    g.add_argument("--v-cut", type=int, dest="v_cut")
    g.add_argument("--recolour", help="a,b red edge to flip blue")
    g.add_argument("--recolour-base", help="a1,b1 of the base split (default 1,1)")
    g.add_argument("--three-split", help="l1,l2,l3/m1,m2,m3 block sizes")
    g.add_argument("--out")
    g.set_defaults(fn=_cmd_gen)

    s = sub.add_parser("solve", help="partition a colouring, write a certificate")
    s.add_argument("colouring")
    s.add_argument("--out")
    variant = s.add_mutually_exclusive_group()
    variant.add_argument("--two-paths", action="store_true")
    variant.add_argument("--force-red-path", action="store_true")
    s.add_argument("--samples", type=_count, default=1000, help="rxn property samples")
    s.set_defaults(fn=_cmd_solve)

    v = sub.add_parser("verify", help="check a certificate against a colouring")
    v.add_argument("colouring")
    v.add_argument("certificate")
    v.set_defaults(fn=_cmd_verify)

    e = sub.add_parser("enumerate", help="run an exhaustive suite")
    e.add_argument("--suite", required=True, choices=sorted(SUITES))
    e.add_argument("--n", type=int, required=True)
    e.add_argument("--jobs", type=_jobs, default=1)
    e.set_defaults(fn=_cmd_enumerate)

    b = sub.add_parser("bench", help="time solves over a seeded corpus")
    b.add_argument("--kind", required=True, choices=["h3", "bnn", "kn"])
    b.add_argument("--n", type=int, required=True)
    b.add_argument("--palette", type=int, default=2, choices=[2, 3])
    b.add_argument("--count", type=_count, default=10)
    b.add_argument("--seed", type=int, default=0)
    b.set_defaults(fn=_cmd_bench)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except MemoryError:
        print(f"{args.command}: out of memory", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # the reader is gone: send what is still buffered, and the flush at
        # interpreter exit, to the null device
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"{args.command}: output closed before it was written", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
