"""Workload corpora and the checked operation run on each instance.

A workload is a list of instances built from the workload seed.  Each
instance belongs to one host family and runs one closed-loop operation:
solve, then check the output independently with ``check_certificate`` and
the shape the pipeline promises.  The operation returns the certificate
text (fed to the byte-identity digest) and the problems its checks found.

Every builder takes ``m``, the namespace of the package under test (see
``package``): the program under ``src`` or the frozen reference copy under
``perfbench/reference``.  Solver calls go through module attributes
(``m.tp.spanning_bicoloured_path``) so that the tracer's rebound wrappers see
them.
"""

from __future__ import annotations

import ast
import functools
import hashlib
import importlib
import io
import os
import random
import re
import shutil
import tempfile
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable

import numpy as np

FAMILIES = ("h3", "bnn2", "kn3", "bnn3", "rxn")

# Piece-count limits (paths, cycles) promised by the 3-colour pipelines.
SHAPE_LIMITS = {"kn3": ((2, 1), (1, 3)), "bnn3": ((3, 2), (2, 4))}

OUT_DIR = os.path.join("perfbench", "out")  # run outputs, relative to the checkout

# Timings are CPU seconds of the one thread that runs the corpus.  On a
# shared machine, wall time also counts the time other tenants hold the
# core.
CLOCK = time.thread_time

RXN_SAMPLES = 1000  # side-consistency samples, as `monopart solve` takes

# The exhaustive bnn n=4 enumeration runs in chunks of 1,024 colourings:
# one 14 s call per side could not be paired with the reference's (a 5-seed
# trial read its ratio 0.82-1.42).
ENUMERATION_CHUNKS = 64

PROGRAM = "monopart"  # the package under ./src
REFERENCE = "monopart_ref"  # its frozen copy under perfbench/reference


def package(name: str = PROGRAM) -> SimpleNamespace:
    """The modules of a monopart package, under the short names the
    builders use."""
    mod = {k: importlib.import_module(f"{name}.{v}") for k, v in (
        ("bp", "bipartite"), ("ce", "certificates"), ("cli", "cli"),
        ("co", "colourings"), ("gen", "generators"), ("mp", "multipartite"),
        ("orc", "oracles"), ("tc", "threecolour"), ("tp", "tightpaths"))}
    return SimpleNamespace(name=name, **mod)


@dataclass
class Instance:
    family: str
    group: str  # corpus family within the workload, e.g. "h3-random"
    n: int
    op: Callable  # op(span) -> (certificate text, list of problems)
    ops: int = 1  # operations this instance counts as
    note: str = ""


@dataclass
class Corpus:
    instances: list[Instance]
    workdir: str | None = None

    def close(self) -> None:
        if self.workdir:
            shutil.rmtree(self.workdir, ignore_errors=True)
            self.workdir = None


@dataclass
class PassResult:
    instance_s: list[float]  # CPU seconds per instance, in corpus order
    attempted: int
    failed: int
    incorrect: int
    digest: str
    failures: list[str] = field(default_factory=list)
    reference_s: list[float] = field(default_factory=list)  # the reference's, when it runs
    wall_s: float = 0.0



def _seed(*parts: int) -> int:
    """Independent 63-bit seed for one instance of a seeded corpus."""
    state = np.random.SeedSequence([int(p) for p in parts]).generate_state(2, np.uint32)
    return (int(state[0]) << 31) ^ int(state[1])


# ---------------------------------------------------------------------------
# independent checks


def _shape_problems(family: str, pieces, verdict: str) -> list[str]:
    paths = sum(1 for p in pieces if p.kind == "path" and p.vertices)
    cycles = sum(1 for p in pieces if p.kind == "cycle" and p.vertices)
    if family == "h3":
        if len(pieces) != 2 or any(p.kind != "path" for p in pieces):
            return [f"h3 certificate is not two paths: {[p.kind for p in pieces]}"]
        if pieces[0].colour == pieces[1].colour:
            return ["h3 paths share a colour"]
        if sum(len(p.vertices) for p in pieces) >= 6:
            if any(len(p.vertices) in (1, 2) for p in pieces):
                return ["h3 non-empty part without an edge"]
        return []
    if family == "bnn2":
        if verdict == "split":
            if len(pieces) > 3 or any(p.kind != "path" for p in pieces):
                return ["split fallback is not at most three paths"]
            return []
        kinds = [p.kind for p in pieces]
        if kinds != ["path", "cycle"]:
            return [f"bnn2 certificate is not a path and a cycle: {kinds}"]
        if pieces[0].colour == pieces[1].colour:
            return ["bnn2 path and cycle share a colour"]
        return []
    if family in SHAPE_LIMITS:
        if not any(paths <= lp and cycles <= lc for lp, lc in SHAPE_LIMITS[family]):
            return [f"{family} shape ({paths},{cycles}) outside {SHAPE_LIMITS[family]}"]
        return []
    if any(p.kind != "path" for p in pieces):
        return ["rxn cover has a non-path piece"]
    return []


def _check(m, col, cert, family: str, verdict: str = "partition") -> list[str]:
    res = m.ce.check_certificate(col, cert)
    problems = [] if res.ok else [f"check_certificate: {res.reason} piece={res.piece_index}"]
    return problems + _shape_problems(family, cert.pieces, verdict)


# ---------------------------------------------------------------------------
# in-memory operations


def _h3_op(m, col):
    def op(span):
        path = m.tp.spanning_bicoloured_path(col)
        p1, c1, p2, c2 = m.tp.split_into_two_mono(col, path)
        cert = m.ce.PartitionCertificate.for_colouring(
            col, [m.ce.Piece("path", c1, p1), m.ce.Piece("path", c2, p2)]
        )
        return cert.to_text(), _check(m, col, cert, "h3")

    return op


def _bnn2_op(m, col, expect: str):
    def op(span):
        res = m.bp.partition_path_cycle(col)
        if isinstance(res, m.bp.SplitDetected):
            problems = [] if expect == "split" else ["unexpected split verdict"]
            if not res.structure.verify(col):
                problems.append("split structure fails verification")
                return "", problems
            pieces = m.bp.split_three_paths(col, res.structure)
            cert = m.ce.PartitionCertificate.for_colouring(col, pieces)
            return cert.to_text(), problems + _check(m, col, cert, "bnn2", "split")
        cert = m.ce.PartitionCertificate.for_colouring(col, res)
        problems = [] if expect == "partition" else ["missed split verdict"]
        return cert.to_text(), problems + _check(m, col, cert, "bnn2")

    return op


def _three_op(m, col, family: str):
    solve = m.tc.partition3_complete if family == "kn3" else m.tc.partition3_bipartite

    def op(span):
        cert = solve(col)
        return cert.to_text(), _check(m, col, cert, family)

    return op


def _rxn_op(m, col, sample_seed: int = 0, samples: int = RXN_SAMPLES, counting: bool = True):
    """The report `monopart solve` prints for an rxn host: counting and
    side-consistency sampling for rule-backed hosts, then the exact minimum
    cover when the host is within the search cap.  ``samples`` and
    ``counting`` cut a report into parts."""
    def op(span):
        problems = []
        lines = []
        if col.rule is not None:
            if counting:
                report = m.mp.verify_counting(col.r, col.n)
                lines.append(f"counting all_hold={report.all_hold}")
            rng = random.Random(sample_seed)
            for _ in range(samples):
                path, _colour = m.mp.random_mono_tight_path(col.rule, rng)
                if not m.mp.check_side_consistency(col.rule, path):
                    problems.append("sampled monochromatic path is not side-consistent")
                    break
        if col.r * col.n > m.mp.DEFAULT_COVER_CAP:
            return "\n".join(lines), problems
        k, witness = m.mp.min_cover_exact(col)
        pieces = [m.ce.Piece("path", colour, tuple(seq)) for seq, colour in witness]
        cert = m.ce.PartitionCertificate.for_colouring(col, pieces)
        if len(pieces) != k:
            problems.append(f"min cover claims {k} pieces, witness has {len(pieces)}")
        lines.append(cert.to_text())
        return "\n".join(lines), problems + _check(m, col, cert, "rxn")

    return op


def _enumerate_op(m, suite: str, n: int, lo: int, hi: int):
    """Colourings lo..hi-1 of an exhaustive suite, through the suite's
    public checker: the loop ``enumerate_all(suite, n, jobs=1)`` runs over
    every index, cut into chunks that each pair with the reference's."""
    def op(span):
        _kind, check = m.orc.SUITES[suite]
        with span("oracles.enumerate"):
            failures = [(idx, why) for idx in range(lo, hi) if (why := check(n, idx)) is not None]
        problems = [f"instance {idx}: {why}" for idx, why in failures]
        return f"{suite} n={n} [{lo}, {hi}) failures {len(failures)}", problems

    return op


# ---------------------------------------------------------------------------
# CLI operations: gen -> file -> solve -> certificate -> verify, in-process


def _cli(m, argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = m.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


_STRUCT_PART = re.compile(r"(a1|a2|b1|b2)=(\([^)]*\))")
_COVER_HEAD = re.compile(r"^min-cover: (\d+) pieces$", re.M)
_COVER_PIECE = re.compile(r"^  (red|blue) path (\[[^\]]*\])$", re.M)


def _split_from_stderr(m, err: str):
    parts = {k: ast.literal_eval(v) for k, v in _STRUCT_PART.findall(err)}
    return m.co.SplitStructure(**parts) if len(parts) == 4 else None


def _cli_op(m, workdir: str, name: str, gen_args, col, family: str, expect_exit: int):
    col_path = os.path.join(workdir, f"{name}.txt")
    cert_path = os.path.join(workdir, f"{name}.cert.json")

    def op(span):
        with span("cli.gen"):
            code, _, _ = _cli(m, ["gen", *gen_args, "--out", col_path])
        if code != m.cli.EXIT_OK:
            return "", [f"gen exited {code}"]
        if os.path.exists(cert_path):
            os.remove(cert_path)
        if family == "rxn":
            with span("cli.solve"):
                code, out, _ = _cli(m, ["solve", col_path])
            if code != expect_exit:
                return out, [f"solve exited {code}, expected {expect_exit}"]
            return out, _rxn_report_problems(m, col, out)
        with span("cli.solve"):
            code, _, err = _cli(m, ["solve", col_path, "--out", cert_path])
        problems = [] if code == expect_exit else [f"solve exited {code}, expected {expect_exit}"]
        verdict = "partition"
        if code == m.cli.EXIT_SPLIT:
            verdict = "split"
            structure = _split_from_stderr(m, err)
            if structure is None or not structure.verify(col):
                problems.append("split verdict without a verified structure")
        if not os.path.exists(cert_path):
            return "", problems + ["no certificate written"]
        with open(cert_path) as fh:
            text = fh.read()
        cert = m.ce.PartitionCertificate.from_text(text)
        problems += _check(m, col, cert, family, verdict)
        with span("cli.verify"):
            code, out, _ = _cli(m, ["verify", col_path, cert_path])
        if code != m.cli.EXIT_OK or out.strip() != "ok":
            problems.append(f"verify exited {code}: {out.strip()}")
        return text, problems

    return op


def _rxn_report_problems(m, col, out: str) -> list[str]:
    head = _COVER_HEAD.search(out)
    if head is None:
        return ["rxn report has no min-cover line"]
    pieces = [
        m.ce.Piece("path", m.co.colour_from_name(c), tuple(ast.literal_eval(vs)))
        for c, vs in _COVER_PIECE.findall(out)
    ]
    problems = []
    if len(pieces) != int(head.group(1)):
        problems.append(f"min-cover reports {head.group(1)} pieces, lists {len(pieces)}")
    return problems + _check(m, col, m.ce.PartitionCertificate.for_colouring(col, pieces), "rxn")


# ---------------------------------------------------------------------------
# host builders the generators module does not offer


@functools.lru_cache(maxsize=4)
def _random_h3_bits(n: int, seed: int) -> bytes:
    """A numpy bit stream of one bit per triple.  Cached, so that the
    program's and the reference's hosts share one buffer."""
    edges = n * (n - 1) * (n - 2) // 6
    buf = bytearray(np.random.default_rng(seed).bytes((edges + 7) // 8))
    if edges % 8:
        buf[-1] &= (1 << (edges % 8)) - 1
    return bytes(buf)


def _random_h3(m, n: int, seed: int):
    """Seeded random h3 host from a numpy bit stream."""
    return m.co.TripleColouring(n, _random_h3_bits(n, seed))


def _near_mono_h3(m, n: int, seed: int):
    """All red except one seeded blue triple."""
    edges = n * (n - 1) * (n - 2) // 6
    i = int(np.random.default_rng(seed).integers(edges))
    buf = bytearray((edges + 7) // 8)
    buf[i >> 3] |= 1 << (i & 7)
    return m.co.TripleColouring(n, bytes(buf))


def _parity_h3(m, n: int, s: int):
    """Triple is red iff it has an even number of vertices below s."""
    inside = (np.arange(n) < s).astype(np.uint8)
    b = np.repeat(np.arange(n), np.arange(n))
    a = np.concatenate([np.arange(k) for k in range(n)])
    pair = inside[a] + inside[b]  # colex order of pairs {a < b}
    chunks = [(pair[: c * (c - 1) // 2] + inside[c]) & 1 for c in range(2, n)]
    bits = np.packbits(np.concatenate(chunks).astype(np.uint8), bitorder="little")
    return m.co.TripleColouring(n, bits.tobytes())


def _off_edge_bnn(m, n: int):
    """All red except the edge (0, n)."""
    entries = bytearray(n * n)
    entries[0] = 1
    return m.co.PairColouring("bnn", n, 2, bytes(entries))


def _clique_kn3(m, n: int, blocks: int):
    """Red cliques on `blocks` vertex blocks; edges across blocks are blue or
    green by the parity of the block pair."""
    block = [v * blocks // n for v in range(n)]

    def colour(u, v):
        if block[u] == block[v]:
            return 0
        return 1 + (block[u] + block[v]) % 2

    return m.co.PairColouring.from_function("kn", n, 3, colour)


# ---------------------------------------------------------------------------
# corpora
#
# A family figure is the program's time over the reference's on the same
# hosts, so a host whose solve time varies with its seed (the carved-path
# search above the greedy threshold, exact rxn covers) moves both alike.


def _random_hosts(m, seed: int, family: str, kind: str, palette: int, sizes) -> list[Instance]:
    out = []
    for n, count in sizes:
        for j in range(count):
            col = m.gen.gen_random(kind, n, palette, seed=_seed(seed, FAMILIES.index(family), n, j))
            op = _bnn2_op(m, col, "partition") if family == "bnn2" else _three_op(m, col, family)
            out.append(Instance(family, f"{family}-random", n, op))
    return out


def _random_large(m, seed: int, tiny: bool) -> list[Instance]:
    out = [Instance("h3", "h3-random", n, _h3_op(m, _random_h3(m, n, _seed(seed, 0, n))))
           for n in ((8, 10, 12) if tiny else (500, 1000, 2000))]
    if tiny:
        out += _random_hosts(m, seed, "bnn2", "bnn", 2, [(4, 1), (6, 1)])
        out += _random_hosts(m, seed, "kn3", "kn", 3, [(6, 1), (8, 1)])
        out += _random_hosts(m, seed, "bnn3", "bnn", 3, [(4, 1), (6, 1)])
    else:
        out += _random_hosts(m, seed, "bnn2", "bnn", 2, [(64, 2), (128, 2), (256, 2)])
        # both sides of threecolour.SEARCH_GREEDY_THRESHOLD = 64
        out += _random_hosts(m, seed, "kn3", "kn", 3, [(48, 2), (128, 2), (256, 2)])
        out += _random_hosts(m, seed, "bnn3", "bnn", 3, [(32, 2), (64, 2), (128, 2)])
    # rxn hosts this large are rule-backed: exact covers stop at r*n = 14
    # vertices, so the solve is the counting and side-consistency report,
    # here with seeded samples (the split sizes set the sampling cost), in
    # ten parts that each pair with the reference's
    for n in (6,) if tiny else (20, 24):
        col = m.co.TransversalColouring(2, n, rule=m.co.HyperSplitSizes(2, n, (n // 3, n // 2)))
        for k in range(10):
            op = _rxn_op(m, col, _seed(seed, 4, n, k), RXN_SAMPLES // 10, counting=k == 0)
            out.append(Instance("rxn", "rxn-rule", n, op))
    return out


def _adversarial(m, seed: int, tiny: bool) -> list[Instance]:
    """Canonical structured families; the seed places the off-colour triple
    of the near-monochromatic h3 hosts."""
    out = []

    def add(family, group, n, op):
        out.append(Instance(family, group, n, op))

    for n in (6, 8) if tiny else (300, 500):
        add("h3", "h3-near-mono", n, _h3_op(m, _near_mono_h3(m, n, _seed(seed, 0, n))))
    for n in (7,) if tiny else (300, 400):
        add("h3", "h3-parity", n, _h3_op(m, _parity_h3(m, n, n // 2)))
    for n in (4, 5, 6) if tiny else (24, 32, 40):
        add("bnn2", "bnn2-off-edge", n, _bnn2_op(m, _off_edge_bnn(m, n), "partition"))
    for n in (4, 6) if tiny else (32, 48, 64):
        col = m.gen.gen_recoloured_split(n, n // 2, n // 2, (0, 0))
        add("bnn2", "bnn2-recoloured-split", n, _bnn2_op(m, col, "partition"))
    for n in (4, 6) if tiny else (128, 256):
        col, _ = m.gen.gen_split_bipartite(n, n // 2, n // 3)
        add("bnn2", "bnn2-split", n, _bnn2_op(m, col, "split"))
        add("bnn2", "bnn2-v", n, _bnn2_op(m, m.gen.gen_v_colouring(n, n // 3), "partition"))
    for n in (6,) if tiny else (96, 128):
        for blocks in (2, 3, 5):
            add("kn3", "kn3-cliques", n, _three_op(m, _clique_kn3(m, n, blocks), "kn3"))
    for n in (6,) if tiny else (60, 90):
        for left, right in (((1, 1, 1), (1, 1, 1)), ((1, 2, 2), (2, 2, 1)), ((1, 1, 3), (3, 1, 1))):
            blocks = [tuple(n * x // sum(side) for x in side[:2]) for side in (left, right)]
            blocks = [(a, b, n - a - b) for a, b in blocks]
            add("bnn3", "bnn3-three-split", n,
                _three_op(m, m.gen.gen_three_colour_split(blocks[0], blocks[1]), "bnn3"))
    for n in (3, 4) if tiny else (5, 6):
        rule = m.co.HyperSplitSizes(2, n, (1, 2))
        add("rxn", "rxn-split", n, _rxn_op(m, m.co.TransversalColouring(2, n, rule=rule)))
    return out


def _tiny_exhaustive(m, seed: int, tiny: bool) -> list[Instance]:
    out = []
    n_bnn = 2 if tiny else 4
    total = 1 << (n_bnn * n_bnn)
    step = max(1, total // ENUMERATION_CHUNKS)
    for lo in range(0, total, step):
        hi = min(lo + step, total)
        out.append(Instance("bnn2", "bnn2-exhaustive", n_bnn,
                            _enumerate_op(m, "path-cycle-partition", n_bnn, lo, hi), ops=hi - lo))
    rng = np.random.default_rng(_seed(seed, 3))
    for idx in rng.integers(0, 1 << 20, size=20 if tiny else 4000):
        out.append(Instance("h3", "h3-n6", 6, _h3_op(m, m.co.TripleColouring.from_int(6, int(idx)))))
    for family, kind, reps in (("kn3", "kn", 500), ("bnn3", "bnn", 250)):
        for n in (4, 6, 8):
            for j in range(5 if tiny else reps):
                col = m.gen.gen_random(kind, n, 3, seed=_seed(seed, 4, n, j))
                out.append(Instance(family, f"{family}-tiny", n, _three_op(m, col, family)))
    for n in (2, 3, 4):
        for j in range(5 if tiny else 200):
            col = m.gen.gen_random("rxn", n, 2, seed=_seed(seed, 5, n, j), r=2)
            out.append(Instance("rxn", "rxn-tiny", n, _rxn_op(m, col)))
    return out


def _cli_files(m, seed: int, tiny: bool, workdir: str) -> list[Instance]:
    out = []

    def add(family, group, name, gen_args, col, expect_exit=m.cli.EXIT_OK, r=None):
        n = int(gen_args[gen_args.index("--n") + 1])
        op = _cli_op(m, workdir, name, [str(a) for a in gen_args], col, family, expect_exit)
        out.append(Instance(family, group, n, op, note=f"r={r}" if r else ""))

    for n in (6, 8) if tiny else (100, 150, 200):
        s = _seed(seed, 6, n)
        add("h3", "h3-file", f"h3-{n}", ["--kind", "h3", "--n", n, "--seed", s],
            m.gen.gen_random("h3", n, seed=s))
    n_bnn = 6 if tiny else 256
    for j in range(1 if tiny else 2):
        s = _seed(seed, 7, n_bnn, j)
        add("bnn2", "bnn2-file", f"bnn2-{j}", ["--kind", "bnn", "--n", n_bnn, "--seed", s],
            m.gen.gen_random("bnn", n_bnn, 2, seed=s))
    rng = np.random.default_rng(_seed(seed, 8))
    a1, b1, cut = (int(x) for x in rng.integers(1, n_bnn, size=3))
    add("bnn2", "bnn2-file", "bnn2-split",
        ["--kind", "bnn", "--n", n_bnn, "--split", f"{a1},{b1}"],
        m.gen.gen_split_bipartite(n_bnn, a1, b1)[0], m.cli.EXIT_SPLIT)
    add("bnn2", "bnn2-file", "bnn2-v", ["--kind", "bnn", "--n", n_bnn, "--v-cut", cut],
        m.gen.gen_v_colouring(n_bnn, cut))
    for fam, kind, n, reps in (("kn3", "kn", 8 if tiny else 128, 1 if tiny else 6),
                               ("bnn3", "bnn", 6 if tiny else 64, 1 if tiny else 6)):
        for j in range(reps):
            s = _seed(seed, 9, n, j)
            add(fam, f"{fam}-file", f"{fam}-{j}",
                ["--kind", kind, "--n", n, "--palette", 3, "--seed", s],
                m.gen.gen_random(kind, n, 3, seed=s))
    # rxn split files; r >= 3 rule-backed hosts hit the known min-cover
    # defect (a non-transversal window) and are kept so that it shows
    rxn_files = ((2, 3, (1, 2)), (3, 4, (1, 2, 2))) if tiny else (
        (2, 6, (1, 2)), (2, 7, (1, 2)), (3, 4, (1, 2, 2)))
    for r, n, split in rxn_files:
        col = m.co.TransversalColouring(r, n, rule=m.co.HyperSplitSizes(r, n, split))
        add("rxn", "rxn-file", f"rxn-{r}-{n}",
            ["--kind", "rxn", "--n", n, "--r", r, "--split", ",".join(map(str, split))],
            col, r=r)
    return out


def _spread_families(instances: list[Instance]) -> list[Instance]:
    """Order instances so that each family's are spread evenly through the
    pass: a drift in machine speed then touches every family alike."""
    rank, count = [], {}
    for inst in instances:
        rank.append(count.get(inst.family, 0))
        count[inst.family] = rank[-1] + 1
    order = sorted(range(len(instances)),
                   key=lambda i: ((rank[i] + 0.5) / count[instances[i].family], i))
    return [instances[i] for i in order]


def build(workload: str, seed: int, tiny: bool = False, m: SimpleNamespace | None = None) -> Corpus:
    """Build a workload's corpus from its seed, for package ``m`` (by
    default the program)."""
    m = m or package()
    workdir = None
    if workload == "random-large":
        instances = _random_large(m, seed, tiny)
    elif workload == "adversarial":
        instances = _adversarial(m, seed, tiny)
    elif workload == "tiny-exhaustive":
        instances = _tiny_exhaustive(m, seed, tiny)
    elif workload == "cli-files":
        out = os.path.join(os.getcwd(), OUT_DIR)
        os.makedirs(out, exist_ok=True)
        workdir = tempfile.mkdtemp(prefix=f"cli-files-{m.name}-", dir=out)
        instances = _cli_files(m, seed, tiny, workdir)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return Corpus(_spread_families(instances), workdir)


# ---------------------------------------------------------------------------
# one closed-loop pass


def _time_reference(inst: Instance) -> float:
    t0 = CLOCK()
    try:
        inst.op(lambda name: nullcontext())
    except Exception:  # the reference shares the program's known defects
        pass
    return CLOCK() - t0


def run_pass(corpus: Corpus, span=None, tracer=None, reference: Corpus | None = None,
             pass_no: int = 0) -> PassResult:
    """Run every instance once, in corpus order, each checked before the
    next starts.  A raise, an unexpected exit code or verdict, or a failed
    check counts as a failed operation; the pass itself never raises.

    With a ``reference`` corpus (the same instances, built for the frozen
    reference package), each instance is also run by the reference right
    before or right after the program, alternating by instance and pass, so
    that both see the same machine speed.  Its outputs are not checked."""
    span = span or (lambda name: nullcontext())
    instance_s, reference_s = [], []
    digest = hashlib.sha256()
    attempted = failed = incorrect = 0
    failures: list[str] = []
    for i, inst in enumerate(corpus.instances):
        if tracer is not None:
            tracer.instance = i
        reference_first = reference is not None and (i + pass_no) % 2 == 0
        if reference_first:
            reference_s.append(_time_reference(reference.instances[i]))
        t0 = CLOCK()
        try:
            text, problems = inst.op(span)
        except Exception as exc:  # a raising step is a failed operation
            text, problems = f"#{i} raised {type(exc).__name__}", None
            failures.append(f"#{i} {inst.group} n={inst.n} {inst.note} raised {type(exc).__name__}: {exc}")
        instance_s.append(CLOCK() - t0)
        if reference is not None and not reference_first:
            reference_s.append(_time_reference(reference.instances[i]))
        attempted += inst.ops
        if problems is None:
            failed += inst.ops
        elif problems:
            failed += min(len(problems), inst.ops)
            incorrect += 1
            failures.extend(f"#{i} {inst.group} n={inst.n}: {p}" for p in problems[:3])
        digest.update(text.encode())
        digest.update(b"\n")
    if tracer is not None:
        tracer.instance = -1
    return PassResult(instance_s, attempted, failed, incorrect, digest.hexdigest(),
                      failures, reference_s=reference_s)
