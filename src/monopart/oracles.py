"""Brute-force oracles and the exhaustive enumeration harness.

Oracles are independent of the solvers they validate: spanning bicoloured
tight paths are sought by pruned permutation search, partition shapes by
exhaustive search over piece assignments, and good 4-cycles by the quartic
scan `find_good_c4`, the brute-force reference for `classify_bipartite`'s
witness.  Every partition piece comes from one monochromatic-path search:
a cycle is a path from its least vertex, of at least three vertices (an
even number on bnn), whose second vertex is below its last and whose
closing edge has its colour.  The enumeration harness
iterates all colourings of a host (indices decode to bitstrings), shards
index ranges across worker processes and merges reports deterministically;
failures carry the reconstructible colouring index.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass

from .bipartite import _require_bnn2, classify_bipartite, find_balanced_c4, is_good_cycle
from .colourings import RED, Colour, PairColouring, TripleColouring, _n_edges
from .solve import solve
from .tightpaths import classify_tight_path

__all__ = [
    "find_good_c4",
    "oracle_spanning_bipath_exists",
    "ShapeSpec",
    "oracle_partition_exists",
    "oracle_min_pieces",
    "OracleReport",
    "enumerate_all",
    "SUITES",
]

PERMUTATION_LIMIT = 9
PARTITION_VERTEX_LIMIT = 14
ENUMERATION_GUARD = 1 << 32


def find_good_c4(col: PairColouring):
    """Lexicographically first good C4 by full scan, or None.

    A 4-cycle is good exactly when one colour appears on precisely one of
    its four edges (two runs of odd length).
    """
    _require_bnn2(col)
    n = col.n
    cbit = col.colour_bit
    for a in range(n):
        for b in range(n, 2 * n):
            for a2 in range(a + 1, n):
                for b2 in range(b + 1, 2 * n):
                    reds = (
                        (cbit(a, b) == 0)
                        + (cbit(a2, b) == 0)
                        + (cbit(a, b2) == 0)
                        + (cbit(a2, b2) == 0)
                    )
                    if reds in (1, 3):
                        return (a, b, a2, b2)
    return None


def oracle_spanning_bipath_exists(col: TripleColouring):
    """Scan vertex permutations (pruning above two colour runs, one
    representative per reversal class) for a spanning bicoloured tight
    path.  Returns (exists, witness)."""
    if not isinstance(col, TripleColouring):
        raise ValueError("the permutation oracle serves h3 hosts")
    n = col.n
    if n > PERMUTATION_LIMIT:
        raise ValueError(f"n={n} beyond the permutation oracle limit {PERMUTATION_LIMIT}")
    cbit = col.colour_bit

    used = [False] * n
    seq: list[int] = []

    def dfs(runs: int, last: int) -> list[int] | None:
        if len(seq) == n:
            if n >= 2 and seq[0] > seq[-1]:
                return None
            return list(seq)
        for w in range(n):
            if used[w]:
                continue
            nruns, nlast = runs, last
            if len(seq) >= 2:
                c = cbit(seq[-2], seq[-1], w)
                if c != last:
                    nruns, nlast = runs + 1, c
                    if nruns > 2:
                        continue
                elif last < 0:
                    nlast = c
            used[w] = True
            seq.append(w)
            out = dfs(nruns, nlast)
            if out is not None:
                return out
            seq.pop()
            used[w] = False
        return None

    witness = dfs(1, -1)
    return witness is not None, witness


@dataclass(frozen=True)
class ShapeSpec:
    """Piece shapes for partition queries: (kind, required colour or None)
    per piece; pieces may come out empty.  With distinct_colours the
    non-empty, non-degenerate pieces must use pairwise distinct colours."""

    pieces: tuple[tuple[str, Colour | None], ...]
    distinct_colours: bool = False

    def __post_init__(self):
        for kind, _ in self.pieces:
            if kind not in ("path", "cycle"):
                raise ValueError(f"unknown piece kind {kind!r}")


def _mono_paths(col, allowed: list[int], start: int):
    """Every monochromatic path from `start` through `allowed`, depth first,
    as (seq, mask, colour); colour is None for the one-vertex path.  `seq`
    is shared between yields.  Pair hosts only."""
    cbit = col.colour_bit
    bip = col.kind == "bnn"
    seq = [start]

    def dfs(mask, colour):
        yield seq, mask, colour
        last = seq[-1]
        for w in allowed:
            if (mask >> w) & 1 or (bip and col.side(last) == col.side(w)):
                continue
            c = cbit(last, w)
            if colour is not None and c != colour:
                continue
            seq.append(w)
            yield from dfs(mask | (1 << w), c)
            seq.pop()

    return dfs(1 << start, None)


def _piece_candidates(col, allowed: list[int], kind: str):
    """(mask, colour) options for one piece within `allowed`; colour None
    marks a wildcard (degenerate piece compatible with any colour)."""
    if kind == "path":
        paths = (path for v in allowed for path in _mono_paths(col, allowed, v))
        yield from {(mask, colour) for _, mask, colour in paths}
        return
    # cycles: degenerate forms first
    bip = col.kind == "bnn"
    for v in allowed:
        yield (1 << v, None)
    for i, u in enumerate(allowed):
        for w in allowed[i + 1 :]:
            if bip and col.side(u) == col.side(w):
                continue
            yield (1 << u) | (1 << w), None
    # then closed paths from their least vertex, in one direction each
    seen = set()
    for v in allowed:
        for seq, mask, colour in _mono_paths(col, [w for w in allowed if w > v], v):
            closes = len(seq) >= 3 and not (bip and len(seq) % 2) and seq[1] < seq[-1]
            if closes and col.colour_bit(seq[-1], v) == colour and (mask, colour) not in seen:
                seen.add((mask, colour))
                yield mask, colour


def oracle_partition_exists(col, shape: ShapeSpec):
    """Exhaustive search for a partition matching the shape; returns
    (exists, witness pieces or None)."""
    if not isinstance(col, PairColouring):
        raise ValueError("partition oracle serves pair hosts")
    vertices = list(range(col.n_vertices))
    if len(vertices) > PARTITION_VERTEX_LIMIT:
        raise ValueError("host too large for the partition oracle")
    full = (1 << len(vertices)) - 1

    n_pieces = len(shape.pieces)
    failed: set = set()

    def colour_key(used):
        return frozenset(used) if shape.distinct_colours else None

    def dfs(mask, idx, used_colours, acc):
        if mask == full and idx <= n_pieces:
            return list(acc)
        if idx == n_pieces:
            return None
        key = (mask, idx, colour_key(used_colours))
        if key in failed:
            return None
        kind, want = shape.pieces[idx]
        # the piece may be empty
        out = dfs(mask, idx + 1, used_colours, acc)
        if out is not None:
            return out
        allowed = [v for v in vertices if not (mask >> v) & 1]
        for pmask, colour in _piece_candidates(col, allowed, kind):
            if colour is not None:
                if want is not None and colour != want:
                    continue
                if shape.distinct_colours and colour in used_colours:
                    continue
                nused = used_colours | {colour} if shape.distinct_colours else used_colours
            else:
                nused = used_colours
            acc.append((kind, colour if colour is not None else want, pmask))
            out = dfs(mask | pmask, idx + 1, nused, acc)
            if out is not None:
                return out
            acc.pop()
        failed.add(key)
        return None

    witness = dfs(0, 0, frozenset(), [])
    return witness is not None, witness


def oracle_min_pieces(col):
    """Exact minimum number of monochromatic paths/cycles (degenerate forms
    allowed) partitioning the host's vertices.  Only paths are searched: a
    monochromatic cycle's vertex set is a path's (open it at any edge), and
    a degenerate cycle's is a path on one or two vertices."""
    if not isinstance(col, PairColouring):
        raise ValueError("partition oracle serves pair hosts")
    vertices = list(range(col.n_vertices))
    total = len(vertices)
    if total > PARTITION_VERTEX_LIMIT:
        raise ValueError("host too large for the partition oracle")
    full = (1 << total) - 1

    def feasible(k: int) -> bool:
        failed: set = set()

        def dfs(mask, left):
            if mask == full:
                return True
            if left == 0:
                return False
            key = (mask, left)
            if key in failed:
                return False
            anchor = next(v for v in vertices if not (mask >> v) & 1)
            allowed = [v for v in vertices if not (mask >> v) & 1]
            options = {pmask for pmask, _ in _piece_candidates(col, allowed, "path")}
            for pmask in sorted(p for p in options if (p >> anchor) & 1):
                if dfs(mask | pmask, left - 1):
                    return True
            failed.add(key)
            return False

        return dfs(0, k)

    for k in range(1, total + 1):
        if feasible(k):
            return k
    raise AssertionError("unreachable: singletons always cover")


# ---------------------------------------------------------------------------
# exhaustive enumeration harness


@dataclass(frozen=True)
class OracleReport:
    suite: str
    kind: str
    n: int
    instances_checked: int
    failures: tuple[tuple[int, str], ...]

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        return f"{self.suite} ({self.kind} n={self.n}): {self.instances_checked} checked, {len(self.failures)} failures"


def _check_spanning_total(n: int, idx: int) -> str | None:
    col = TripleColouring.from_int(n, idx)
    p1, p2 = solve(col)[0].pieces
    if p1.colour == p2.colour:
        return "parts share a colour"
    if n >= 6:
        for part in (p1, p2):
            if len(part.vertices) in (1, 2):
                return "non-empty part without an edge"
    return None


def _check_spanning_oracle(n: int, idx: int) -> str | None:
    col = TripleColouring.from_int(n, idx)
    p1, p2 = solve(col)[0].pieces
    if classify_tight_path(col, p1.vertices + p2.vertices).kind == "invalid":
        return "solver path invalid"
    exists, witness = oracle_spanning_bipath_exists(col)
    if not exists:
        return "oracle found no spanning bicoloured path"
    if classify_tight_path(col, witness).kind == "invalid":
        return "oracle witness invalid"
    return None


def _check_classify_goodc4(n: int, idx: int) -> str | None:
    col = PairColouring.from_int("bnn", n, idx)
    verdict = classify_bipartite(col)
    witness = find_good_c4(col)
    if verdict.good_c4 != witness:
        return f"{verdict.kind} witness {verdict.good_c4} is not the first good C4 {witness}"
    if verdict.kind == "split" and not verdict.split.verify(col):
        return "split structure fails verification"
    if verdict.kind == "vcol" and not verdict.vcol.verify(col):
        return "V structure fails verification"
    if verdict.kind == "other" and not is_good_cycle(col, verdict.good_c4):
        return "classification witness is not a good C4"
    return None


def _check_near_mono_equiv(n: int, idx: int) -> str | None:
    col = PairColouring.from_int("bnn", n, idx)
    quad = find_balanced_c4(col, range(n), range(n, 2 * n))
    reds = col.entries.count(RED)
    near_mono = min(reds, n * n - reds) <= 1
    if (quad is None) != near_mono:
        return "balanced-C4 freeness disagrees with near-monochromatic count"
    return None


def _check_path_cycle(n: int, idx: int) -> str | None:
    col = PairColouring.from_int("bnn", n, idx)
    cert, split = solve(col)
    if split is not None:
        if classify_bipartite(col).kind != "split":
            return "split detected on a non-split colouring"
        if len(cert.pieces) > 3:
            return "split fallback used more than three pieces"
        return None
    path_p, cyc_p = cert.pieces
    if path_p.colour == cyc_p.colour:
        return "path and cycle share a colour"
    return None


SUITES = {
    "spanning-path-total": ("h3", _check_spanning_total),
    "spanning-path-oracle": ("h3", _check_spanning_oracle),
    "classify-goodc4-equiv": ("bnn", _check_classify_goodc4),
    "near-mono-equiv": ("bnn", _check_near_mono_equiv),
    "path-cycle-partition": ("bnn", _check_path_cycle),
}

# smallest n whose host has an edge to colour
_MIN_N = {"h3": 3, "bnn": 1}


def _run_chunk(args):
    suite, n, lo, hi = args
    _, fn = SUITES[suite]
    failures = []
    for idx in range(lo, hi):
        try:
            reason = fn(n, idx)
        except Exception as exc:  # a raising check fails this colouring, not the run
            reason = f"raised {type(exc).__name__}: {exc}"
        if reason is not None:
            failures.append((idx, reason))
    return hi - lo, failures


def enumerate_all(suite: str, n: int, jobs: int = 1) -> OracleReport:
    """Evaluate a named property over every colouring of the host,
    sharding the index range across `jobs` workers."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; known: {sorted(SUITES)}")
    kind, _ = SUITES[suite]
    if n < _MIN_N[kind]:
        raise ValueError(f"suite {suite!r} needs n >= {_MIN_N[kind]}, got {n}")
    total = 1 << _n_edges(kind, n)
    if total > ENUMERATION_GUARD:
        raise ValueError(f"{total} colourings exceed the enumeration guard")

    if jobs <= 1:
        checked, failures = _run_chunk((suite, n, 0, total))
        return OracleReport(suite, kind, n, checked, tuple(failures))

    chunk = max(1, total // (jobs * 8))
    ranges = [(suite, n, lo, min(lo + chunk, total)) for lo in range(0, total, chunk)]
    with multiprocessing.Pool(processes=jobs) as pool:
        results = pool.map(_run_chunk, ranges)
    checked = sum(c for c, _ in results)
    failures: list = []
    for _, fl in results:
        failures.extend(fl)
    return OracleReport(suite, kind, n, checked, tuple(failures))
