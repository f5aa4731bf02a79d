"""2-coloured complete bipartite hosts: classification and partitions.

Colourings of bnn hosts fall into four classes: monochromatic, split
(each colour induces two vertex-disjoint complete bipartite blocks),
V-coloured (each colour spans a single complete bipartite graph), or
everything else -- and the last case is exactly the colourings containing
a *good* 4-cycle, one whose two colour runs meet at vertices in distinct
partition classes.  `classify_bipartite` reads the class from the class-0
rows (a good C4 exists iff some row is neither row 0 nor its complement),
and its witness, the lexicographically first good C4, starts the growth.

Non-split colourings admit a spanning cycle that is monochromatic or
bicoloured, which is then exchanged into a partition into one
monochromatic path and one monochromatic cycle of distinct colours.
Split colourings are detected and served by explicit three-piece
fallbacks.  `solve` checks every construction's pieces with
`certificates.certify` before returning them.

The solvers read colours through the unchecked view `PairColouring.rows`.
Each cycle the attach and exchange loops build is read once, and its frame
is handed on to the next step.  The growth loop reads no whole cycle: a
growth step derives the new frame from its re-routing, reading O(1)
colours (its probes and the junction edges), doing O(1) Python-level work
and a few C-level list copies, and the loop counts its sorted remainder
lists once per step and updates them from the vertices the step took and
dropped.  The growth and V steps go through their public entries,
`extend_good_cycle` and `v_two_cycles`.
`classify_bipartite` and the structure witnesses' `verify` methods compare
rows of the validated `entries` instead.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass, field
from itertools import chain, combinations

from .certificates import Piece
from .colourings import BLUE, RED, Colour, PairColouring, SplitStructure, _red_blocks, other_colour

__all__ = [
    "VColStructure",
    "Classification",
    "SplitDetected",
    "BalancedC4Present",
    "classify_bipartite",
    "find_balanced_c4",
    "near_mono_spanning_path",
    "extend_good_cycle",
    "SpanningCycle",
    "spanning_bicoloured_or_mono_cycle",
    "partition_path_cycle",
    "partition_path_cycle_coloured",
    "two_paths",
    "split_three_paths",
    "v_two_cycles",
]


@dataclass(frozen=True)
class VColStructure:
    """Witness of a V-colouring: every vertex of `bichro_class` is red to
    red_arm and blue to blue_arm; the opposite class is monochromatic."""

    bichro_class: int
    red_arm: tuple[int, ...]
    blue_arm: tuple[int, ...]

    def verify(self, col: PairColouring) -> bool:
        # the split block pattern with one part empty: the red edges are
        # class 0 x red arm on class 0, and red arm x class 1 on class 1
        n, side, arms = col.n, self.bichro_class, sorted(self.red_arm + self.blue_arm)
        if not self.red_arm or not self.blue_arm or side not in (0, 1):
            return False
        if side == 0:
            return arms == list(range(n, 2 * n)) and _red_blocks(col, range(n), self.red_arm)
        return arms == list(range(n)) and _red_blocks(col, self.red_arm, range(n, 2 * n))


@dataclass(frozen=True)
class Classification:
    kind: str  # "mono" | "split" | "vcol" | "other"
    colour: Colour | None = None
    split: SplitStructure | None = None
    vcol: VColStructure | None = None
    good_c4: tuple[int, int, int, int] | None = None


@dataclass(frozen=True)
class SplitDetected:
    """Verdict: the colouring is split; no path+cycle partition exists."""

    structure: SplitStructure


class BalancedC4Present(ValueError):
    """Raised when a balanced-C4-free precondition fails; carries a witness."""

    def __init__(self, witness):
        super().__init__(f"balanced C4 present: {witness}")
        self.witness = witness


def _require_bnn2(col: PairColouring):
    if col.kind != "bnn" or col.palette != 2:
        raise ValueError("operation needs a 2-coloured bnn host")


def _require_alternating(col: PairColouring, cyc):
    """Raises ValueError unless `col` is a 2-coloured bnn host and `cyc`
    lists distinct vertices of the host and, if it has three or more, has
    even length and alternates between the two classes; reads no colour."""
    _require_bnn2(col)
    if len(set(cyc)) != len(cyc):
        raise ValueError("cycle repeats a vertex")
    if cyc and not (0 <= min(cyc) and max(cyc) < 2 * col.n):
        raise ValueError("cycle vertex out of range")
    if len(cyc) > 2:
        n, even, odd = col.n, cyc[::2], cyc[1::2]
        if max(even) >= n:
            even, odd = odd, even
        if len(cyc) % 2 or not max(even) < n <= min(odd):
            raise ValueError("cycle does not alternate between the classes")


def classify_bipartite(col: PairColouring) -> Classification:
    """Mono / Split / VCol verdict with its structure, or Other with a good
    C4 witness.

    Read by class-0 rows R_a: the C4 (a, b, a2, b2) is good iff R_a xor
    R_a2 differs at b and b2, so a good C4 exists iff some row is neither
    R_0 nor its complement.  The witness is then the lexicographically
    first good C4, (0, n, a2, b2) with a2 the first such row and b2 the
    first column where R_0 xor R_a2 differs from its value at column 0.
    Otherwise whether R_0 is constant and whether its complement occurs
    tell mono, V on class 1, V on class 0 and split apart.  The split and V
    structures hold by construction, since every row is R_0 or its
    complement; `split_three_paths` and `v_two_cycles` verify a structure
    before they use one, and `certify` checks the pieces built from either.
    """
    _require_bnn2(col)
    n, entries = col.n, col.entries
    r0 = entries[:n]
    flip = bytes(1 - c for c in r0)
    like, anti = [], []
    for a in range(n):
        row = entries[a * n : (a + 1) * n]
        if row == r0:
            like.append(a)
        elif row == flip:
            anti.append(a)
        else:
            b2 = next(b for b in range(1, n) if r0[b] ^ row[b] != r0[0] ^ row[0])
            return Classification("other", good_c4=(0, n, a, n + b2))

    like, anti = tuple(like), tuple(anti)
    red = tuple(n + b for b in range(n) if r0[b] == RED)
    blue = tuple(n + b for b in range(n) if r0[b] == BLUE)
    if red and blue and anti:
        return Classification("split", split=SplitStructure(like, anti, red, blue))
    if red and blue:
        vcol = VColStructure(0, red, blue)
    elif anti:
        vcol = VColStructure(1, *((like, anti) if red else (anti, like)))
    else:
        return Classification("mono", colour=Colour(r0[0]))
    return Classification("vcol", vcol=vcol)


def _check_subsets(n: int, s0, s1) -> None:
    """ValueError unless the sorted lists s0 and s1 hold distinct vertices
    of class 0 and class 1: the class test reads only the lists' ends."""
    if s0 and not (0 <= s0[0] and s0[-1] < n <= s1[0] and s1[-1] < 2 * n):
        raise ValueError("subset0 must lie in class 0 and subset1 in class 1")
    if len(set(s0)) != len(s0) or len(set(s1)) != len(s1):
        raise ValueError("a subset repeats a vertex")


def find_balanced_c4(col: PairColouring, subset0, subset1):
    """First C4 inside the subset with exactly two edges of each colour.

    A subset has a balanced C4 exactly when each colour has at least two
    of its edges, so the edges are counted first, row by row until both
    colours reach two, and the lexicographic scan only runs when a witness
    exists.
    """
    _require_bnn2(col)
    if len(subset0) != len(subset1):
        raise ValueError("subset classes must have equal sizes")
    s0, s1 = sorted(subset0), sorted(subset1)
    _check_subsets(col.n, s0, s1)
    rows = col.rows
    if _near_mono(rows, s0, s1) is not None:
        return None
    return _first_hit(rows, s0, s1)


def _first_hit(rows, s0, s1):
    """The first C4 (a, b, a2, b2) of the sorted lists s0 x s1 with exactly
    two red edges, in lexicographic order of the class pairs, read from
    the raw view `rows`; None when there is none."""
    for a, a2 in combinations(s0, 2):
        ra, ra2 = rows[a], rows[a2]
        for b, b2 in combinations(s1, 2):
            if ra[b] + ra2[b] + ra[b2] + ra2[b2] == 2:  # two blue edges, two red
                return (a, b, a2, b2)
    return None


def _near_mono(rows, s0, s1):
    """None when both colours have at least two edges of s0 x s1, read row
    by row from the raw view `rows` and stopped as soon as they do;
    otherwise (majority colour, first edge of the other colour, or None
    when it has no edge)."""
    reds = blues = 0
    red = blue = None
    for a in s0:
        row = rows[a]
        for b in s1:
            if row[b]:
                if not blues:
                    blue = (a, b)
                blues += 1
            else:
                if not reds:
                    red = (a, b)
                reds += 1
            if reds > 1 and blues > 1:
                return None
    return (RED, blue) if reds >= blues else (BLUE, red)


def near_mono_spanning_path(col: PairColouring, subset0, subset1):
    """Spanning path of a balanced-C4-free induced subgraph.

    With no balanced C4 some colour appears on at most one induced edge;
    the zig-zag spanning path avoids that edge and is monochromatic in the
    majority colour.  For a single pair the lone edge itself is returned
    with its own colour.  Raises BalancedC4Present, carrying the first
    balanced C4, when the subgraph has one.
    """
    _require_bnn2(col)
    s0, s1 = sorted(subset0), sorted(subset1)
    if len(s0) != len(s1) or not s0:
        raise ValueError("need equal non-empty class subsets")
    _check_subsets(col.n, s0, s1)
    rows = col.rows
    near = _near_mono(rows, s0, s1)
    if near is None:
        raise BalancedC4Present(_first_hit(rows, s0, s1))
    majority, lone = near
    if lone is not None:
        x, y = lone
        s0 = [x] + [a for a in s0 if a != x]
        s1 = [b for b in s1 if b != y] + [y]
    return _interleave(s0, s1), Colour(majority)


# ---------------------------------------------------------------------------
# cycle machinery


def _cycle_colours(col: PairColouring, cyc) -> list[int]:
    """Colours of the edges cyc[i] cyc[i + 1], the last one closing the
    cycle.  The attach and exchange loops call this once per cycle they
    build and hand the frame on; growth reads only the good C4 with it."""
    rows = col.rows
    return [rows[u][v] for u, v in zip(cyc, cyc[1:] + cyc[:1])]


def _check_progress(col: PairColouring, before: int, new, colour, step: str, lead):
    """The frame of cycle `new` led by `lead`, from one read of its
    colours; raises unless it has more than `before` edges of `colour`.

    This check and the growth check of `_splice` are what stop the
    growth, attach and exchange loops: every growth step strictly
    lengthens the cycle, which has even length, so growth from the good C4
    takes at most n - 2 steps; every attach or exchange step strictly
    raises the number of its edges of one colour, at most 2n.
    """
    cols = _cycle_colours(col, new)
    if cols.count(colour) <= before:
        raise RuntimeError(f"{step} did not progress")
    return _frame_of(new, cols, lead)


def _red_exchange(col: PairColouring, seq, ell):
    """The red-led frame of the cycle that reverses the run after v_ell of
    the red-led frame (seq, ell); it must carry more red edges than the
    frame's ell - 1."""
    new_cyc = seq[:ell] + seq[ell:][::-1]
    return _check_progress(col, ell - 1, new_cyc, RED, "red-exchange", RED)


def cycle_profile(col: PairColouring, cyc):
    """(kind, turning points) of a cycle: 'mono', 'bicoloured' or 'poly'.

    A bicoloured cycle's turning points are the two ends of the leading
    run of its red-led frame; the other kinds have none.  Cycles on at
    most two vertices count as mono and are not read.  Raises ValueError,
    before any colour is read, unless the host is a 2-coloured bnn host,
    the vertices are distinct and in range, and a longer cycle alternates
    between the classes.
    """
    _require_alternating(col, cyc)
    if len(cyc) <= 2:
        return "mono", ()
    cols = _cycle_colours(col, cyc)
    if cols.count(cols[0]) == len(cols):
        return "mono", ()
    try:
        seq, ell = _frame_of(cyc, cols, RED)
    except ValueError:
        return "poly", ()
    return "bicoloured", (seq[0], seq[ell - 1])


def is_good_cycle(col: PairColouring, cyc) -> bool:
    """Whether `cyc` has two colour runs whose turning points lie in
    distinct classes.  Raises ValueError, before any colour is read, on
    the input that `cycle_profile` refuses."""
    kind, turns = cycle_profile(col, cyc)
    # the turning points, in order, are the two-vertex frame (turns, 2)
    return kind == "bicoloured" and _is_good(col, turns, 2)


def _is_good(col: PairColouring, seq, ell) -> bool:
    """Whether the turning points seq[0] and v_ell = seq[ell - 1] of the
    frame (seq, ell) lie in distinct partition classes."""
    return col.side(seq[0]) != col.side(seq[ell - 1])


def _frame_of(cyc, cols, lead):
    """The forward frame (seq, ell) of a bicoloured cycle with edge colours
    `cols`, led by colour `lead`.

    `seq` is `cyc` rotated to start at a turning point, so that its edges
    form a `lead` run to v_ell = seq[ell - 1] (1-based), the other turning
    point, followed by the other colour's run.  Raises ValueError unless
    the cycle has exactly two colour runs.
    """
    # two runs: the edges not of colour cols[0] are one interval [i, j),
    # and every edge is of one of the two colours
    k = len(cols)
    first = cols[0]
    other = 1 - first
    n_other = cols.count(other)
    i = cols.index(other) if n_other else 0
    j = i + n_other
    if not n_other or cols.count(first) + n_other != k or first in cols[i:j]:
        raise ValueError("cycle is not bicoloured")
    p, q = (j % k, i) if first == lead else (i, j % k)
    return cyc[p:] + cyc[:p], (q - p) % k + 1


def _frame(col: PairColouring, cyc, lead):
    """The frame of cycle `cyc` led by `lead` (see `_frame_of`), reading
    its colours."""
    return _frame_of(cyc, _cycle_colours(col, cyc), lead)


def _other_lead(seq, ell):
    """The forward frame of the same cycle led by the other colour."""
    return seq[ell - 1 :] + seq[: ell - 1], len(seq) - ell + 2


class ExtensionError(RuntimeError):
    pass


class _Grown(tuple):
    """A red-led frame (seq, ell) grown by `extend_good_cycle`, or the good
    C4 it starts from.  Its one attribute, `change` = (taken, dropped,
    mask), says what the step changed: the quad vertices on the new cycle,
    the old-cycle vertices off it, and the new cycle's vertex bitmask (bit
    v set iff v is on it)."""


def _splice(col: PairColouring, work, blocks, qbits: int, mask: int) -> _Grown:
    """The `_Grown` red-led frame of the cycle spliced from `blocks` of the
    working frame `work` of an old cycle with vertex bitmask `mask` and a
    quad with vertex bitmask `qbits`.

    `work` = (w, ell, lead) is the old cycle listed in working order: its
    edge from w[i] to w[i + 1] has colour `lead` for i < ell - 1 and the
    other colour after (the run invariant).  A block is a quad vertex (an
    int) or a pair (a, z) of indices in 0..k: the slice w[a:z] when
    a < z, read backwards as w[z:a][::-1] when a > z.  An edge inside a
    block keeps its invariant colour, so only the junction edges are read.
    Raises ExtensionError unless the splice is a good cycle on more than k
    distinct vertices of the old cycle and the quad.
    """
    w, ell, lead = work
    k = len(w)
    rows = col.rows
    runs = []  # (colour, index of its first edge) of the new cycle's runs
    out = []  # the new cycle in block order
    taken = []
    cover = tbits = 0  # cover: bitmask of the indices of w the pairs take
    c = None  # the colour of the last edge so far
    for b in blocks:
        if b.__class__ is int:
            bit = 1 << b
            if tbits & bit or not qbits & bit:
                raise ExtensionError("extension repeats a quad vertex or leaves the quad")
            tbits |= bit
            taken.append(b)
            part = (b,)
        else:
            a, z = b
            if a == z:
                continue
            lo, hi = (a, z) if a < z else (z, a)
            bits = (1 << hi) - (1 << lo)
            if cover & bits or lo < 0 or hi > k:
                raise ExtensionError("extension repeats or leaves the old cycle's vertices")
            cover |= bits
            part = w[a:z] if a < z else w[z:a][::-1]
        size = len(out)
        if size:  # the junction edge into the block, read
            junction = rows[out[-1]][part[0]]
            if junction != c:
                c = junction
                runs.append((c, size - 1))
        m = len(part)
        if m > 1:  # the block's own edges: edges lo..ell-2 of w lead
            nl = (hi if hi < ell else ell) - 1 - lo
            nl = nl if nl > 0 else 0
            c1, n1, c2 = (lead, nl, 1 - lead) if a < z else (1 - lead, m - 1 - nl, lead)
            if n1 and c1 != c:
                c = c1
                runs.append((c, size))
            if n1 < m - 1 and c2 != c:
                c = c2
                runs.append((c, size + n1))
        out += part
    size = len(out)
    if rows[out[-1]][out[0]] != c:  # the closing edge
        runs.append((rows[out[-1]][out[0]], size - 1))
    if size <= k:
        raise ExtensionError("extension did not grow the cycle")
    dropped = []
    gaps = cover ^ ((1 << k) - 1)
    while gaps:  # at most three indices, as the cycle grew
        u = w[(gaps & -gaps).bit_length() - 1]
        dropped.append(u)
        mask ^= 1 << u
        gaps &= gaps - 1

    # two runs, red and blue, when a third linear run continues the first;
    # the red one runs from edge p to edge q - 1, round the cycle
    if not (len(runs) == 2 or len(runs) == 3 and runs[2][0] == runs[0][0]) or (
        runs[0][0] + runs[1][0] != 1
    ):
        raise ExtensionError("extension is not a bicoloured cycle")
    third = runs[2][1] if len(runs) == 3 else 0
    p, q = (third, runs[1][1]) if runs[0][0] == RED else (runs[1][1], third)
    ell = (q - p) % size + 1
    out = out[p:] + out[:p]
    if not _is_good(col, out, ell):
        raise ExtensionError(f"extension is not a good cycle: {out}")
    grown = _Grown((out, ell))
    grown.change = (taken, dropped, mask | tbits)
    return grown


def _working_frame(col: PairColouring, seq, ell, q0, q1):
    """(work, x1, y1, x2, y2): the first of the good cycle's four frames,
    with its quad labelling, in which the case tree's probe edges are
    defined.

    `work` = (w, ell', lead) lists the stored red-led frame (seq, ell) in
    working order (see `_splice`): forwards and backwards led by red, then
    forwards and backwards led by blue, whose leading run has k - ell + 2
    vertices.  Only the chosen frame is copied, as two joined slices.
    """
    rows = col.rows
    k = len(seq)
    blue = k - ell + 2
    for o, d, fell, lead in (
        (0, 1, ell, RED),
        (ell - 1, -1, ell, RED),
        (ell - 1, 1, blue, BLUE),
        (0, -1, blue, BLUE),
    ):
        head = seq[o]
        own, opp = (q0, q1) if col.side(head) == 0 else (q1, q0)
        for x1, y1 in (own, own[::-1]):
            for x2, y2 in (opp, opp[::-1]):
                if (
                    rows[x1][x2] == lead
                    and rows[y1][x2] != lead
                    and ((rows[x1][y2] == lead) != (rows[y1][y2] == lead))
                    and rows[head][x2] == lead
                ):
                    w = seq[o:] + seq[:o] if d > 0 else seq[o::-1] + seq[:o:-1]
                    return (w, fell, lead), x1, y1, x2, y2
    raise ExtensionError("no admissible working frame")


def extend_good_cycle(col: PairColouring, frame, quad):
    """The red-led frame of a strictly longer good cycle, from the red-led
    frame (seq, ell) of a good cycle and a disjoint balanced C4, using only
    their vertices.

    A `_Grown` frame is trusted, not read again: its runs give the colour
    of every old-cycle edge; any other frame must list distinct vertices
    of alternating classes, and is read once and must be its cycle's
    red-led frame.  The cycle and quad are brought into a working
    frame (choice of leading turning point, colour-role swap and quad
    labelling) in which the probe edges of the case tree are defined;
    each branch ends in an explicit re-routing, written as blocks of the
    working frame and the quad vertices it takes (see `_splice`), that is
    verified before its frame is returned.

    Cost: O(1) colour reads and O(1) Python-level work per call, and a
    few C-level list copies: the working frame is the old list rotated or
    reversed by one slice, each block is a slice of it, and the joined
    blocks are rotated once to the new red-led turning point.  An edge
    inside a block keeps its known colour.  Disjointness is tested on the
    frame's vertex bitmask, which the returned frame carries on (a
    hand-built frame's is built from its vertices as it is read).

    The new cycle need not keep every old-cycle vertex: the re-routing
    `(0, k - 1), y2, x1, x2`, for one, drops v(k), which goes back to the
    remainder.  So the returned frame is a `_Grown` (seq, ell) whose
    `change` also reports the quad vertices it took and the old-cycle
    vertices it dropped, from which a caller updates its remainder.
    """
    _require_bnn2(col)
    seq, ell = frame
    n = col.n
    if isinstance(frame, _Grown):
        mask = frame.change[2]
    else:  # a hand-built frame: check its vertices, read it once, build its bitmask
        mask, k = 0, len(seq)
        if k and 0 <= min(seq) and max(seq) < 2 * n:  # bounds the bitmask's size
            for u in seq:
                mask |= 1 << u
        if k < 4 or k % 2 or mask.bit_count() != k or any(
            (u < n) == (w < n) for u, w in zip(seq, seq[1:])
        ):
            raise ValueError("frame is not a cycle of distinct vertices alternating the classes")
        if _frame(col, list(seq), RED) != (list(seq), ell):
            raise ValueError("frame is not its cycle's red-led frame")
    if not _is_good(col, seq, ell):
        raise ValueError("input cycle is not good")
    quad = sorted(quad)
    if len(set(quad)) != 4 or not (0 <= quad[0] and quad[1] < n <= quad[2] and quad[3] < 2 * n):
        raise ValueError("quad is not a C4 vertex set")
    q0, q1 = quad[:2], quad[2:]
    qbits = 1 << quad[0] | 1 << quad[1] | 1 << quad[2] | 1 << quad[3]
    if mask & qbits:
        raise ValueError("cycle and quad are not disjoint")
    rows = col.rows
    r0, r1 = rows[q0[0]], rows[q0[1]]
    if r0[q1[0]] + r0[q1[1]] + r1[q1[0]] + r1[q1[1]] != 2:  # two blue edges, two red
        raise ValueError("quad is not balanced")
    k = len(seq)
    work, x1, y1, x2, y2 = _working_frame(col, seq, ell, q0, q1)
    w, ell, eff_red = work

    def R(u, v):
        return rows[u][v] == eff_red

    def v(i):
        return w[(i - 1) % k]

    def done(*blocks):
        return _splice(col, work, blocks, qbits, mask)

    # probe the quad's red corner against the cycle ends
    if not R(x1, v(k)):
        return done((0, 1), x2, x1, (k, 1))
    if R(x1, v(2)):
        return done((0, 1), x2, x1, (1, k))

    if R(y1, y2):  # the quad's second red edge sits at y1y2
        if R(v(1), y2):
            if not R(y1, v(k)):
                return done((0, 1), y2, y1, (k, 1))
            if ell == k:
                return done((0, k), x1, y2)
            if R(y2, v(k - 1)):
                return done((0, k - 1), y2, y1, (k - 1, k), x1, x2)
            return done((0, k - 1), y2, x1, x2)
        if R(y1, v(ell)):
            if not R(y2, v(ell + 1)):
                return done((0, ell), y1, y2, (ell, k))
            return done((0, ell), y1, y2, (ell, k), x1, x2)
        if R(x2, v(ell - 1)):
            return done((0, ell - 1), x2, y1, (ell - 1, k))
        return done((0, 1), y2, x1, (1, ell - 1), x2, y1, (ell - 1, k))

    # here the quad's second red edge sits at x1y2
    if not R(y1, v(ell)):
        if R(y2, v(ell - 1)):
            return done((0, ell - 1), y2, y1, (ell - 1, k))
        return done((0, ell - 1), y2, y1, (ell - 1, k), x1, x2)
    if ell == k:
        return done((0, k), y1, x2)
    if not R(y2, v(ell + 1)):
        return done((0, ell), y1, y2, (ell, k), x1, x2)
    if R(y1, v(k)):
        return done((0, 1), x2, x1, y2, (ell, k), y1, (ell, 1))
    if R(y2, v(ell - 1)):
        return done((0, ell - 1), y2, (ell, k), x1, x2)
    if ell == 2:
        # the generic re-routings below need a red run of length >= 3
        if not R(x2, v(3)):
            return done(y1, (2, 0), x2, (2, k))
        return done((2, k), y1, y2, x1, x2)
    if not R(x1, v(ell)):
        return done((1, 2), x1, (ell - 1, k), y1, y2, (ell - 1, 2))
    return done((0, ell), x1, y2, (ell, k), y1, x2)


@dataclass(frozen=True)
class SpanningCycle:
    """Spanning cycle that is monochromatic or bicoloured."""

    vertices: tuple[int, ...]
    kind: str  # "mono" | "bicoloured"
    colour: Colour | None = None  # mono cycles only
    good: bool | None = None
    # bicoloured cycles only: the red-led frame (seq, ell) read when the
    # cycle was built, which the exchange loop starts from
    frame: tuple | None = field(default=None, compare=False, repr=False)


def _interleave(left, right) -> list[int]:
    return list(chain.from_iterable(zip(left, right)))


def _wrap_spanning(col: PairColouring, cyc, frame=None) -> SpanningCycle:
    """The spanning cycle `cyc`, mono or bicoloured.  `frame` is its
    red-led frame when the caller has read its colours already."""
    if sorted(cyc) != list(range(2 * col.n)):
        raise ValueError("cycle is not spanning")
    if frame is None:
        cols = _cycle_colours(col, cyc)
        if cols.count(cols[0]) == len(cols):
            return SpanningCycle(tuple(cyc), "mono", colour=Colour(cols[0]))
        frame = _frame_of(cyc, cols, RED)
    return SpanningCycle(tuple(cyc), "bicoloured", good=_is_good(col, *frame), frame=frame)


def spanning_bicoloured_or_mono_cycle(col: PairColouring):
    """Spanning bicoloured or monochromatic cycle, or SplitDetected.

    Monochromatic and V-colourings take direct constructions.  Otherwise a
    good 4-cycle is grown while the complement holds a balanced C4; the
    near-monochromatic remainder's spanning path is then attached at a
    turning point, re-routing through a cycle with strictly more
    off-colour edges whenever both attachment edges refuse.  Raises
    RuntimeError if a step fails to progress or the attachment's frame is
    not good, which no input should cause.
    """
    n = col.n
    verdict = classify_bipartite(col)  # raises unless col is a 2-coloured bnn host
    if verdict.kind == "mono":
        return _wrap_spanning(col, _interleave(range(n), range(n, 2 * n)))
    if verdict.kind == "split":
        return SplitDetected(verdict.split)
    if verdict.kind == "vcol":
        red, blue = v_two_cycles(col, verdict.vcol)
        return _wrap_spanning(col, list(red.vertices + blue.vertices))

    # the good C4 is read once, into a frame carrying its vertex bitmask;
    # each growth step derives the next frame from its re-routing and
    # reports the vertices that leave and rejoin the sorted remainder lists
    a, b, a2, b2 = verdict.good_c4
    frame = _Grown(_frame(col, [a, b, a2, b2], RED))
    frame.change = ((), (), 1 << a | 1 << b | 1 << a2 | 1 << b2)
    rest0 = [u for u in range(n) if u not in frame[0]]
    rest1 = [u for u in range(n, 2 * n) if u not in frame[0]]
    while True:
        if not rest0 and not rest1:
            return _wrap_spanning(col, frame[0], frame)
        try:
            path, pcol = near_mono_spanning_path(col, rest0, rest1)
            break
        except BalancedC4Present as exc:
            frame = extend_good_cycle(col, frame, exc.witness)
        taken, dropped, _ = frame.change
        for u in taken:
            rest = rest0 if u < n else rest1
            del rest[bisect_left(rest, u)]
        for u in dropped:
            insort(rest0 if u < n else rest1, u)

    # the attachment works in the frame led by the path's colour
    seq, ell = frame if pcol == RED else _other_lead(*frame)
    rows = col.rows
    while True:
        if not _is_good(col, seq, ell):
            raise RuntimeError("attachment frame is not good")
        if col.side(path[0]) != col.side(seq[0]):
            path = path[::-1]
        x1, xh = path[0], path[-1]
        if rows[seq[ell - 1]][x1] == pcol:
            return _wrap_spanning(col, seq[:ell] + path + seq[ell:])
        if rows[seq[0]][xh] == pcol:
            return _wrap_spanning(col, seq + path)
        # both attachment edges refuse: trade the leading run for the path
        new_cyc = [seq[0]] + path[::-1] + seq[ell - 1 :]
        path = seq[1 : ell - 1]
        before = len(seq) - ell + 1
        seq, ell = _check_progress(
            col, before, new_cyc, other_colour(pcol), "attachment re-routing", pcol
        )
        if not path:
            red_led = (seq, ell) if pcol == RED else _other_lead(seq, ell)
            return _wrap_spanning(col, new_cyc, red_led)


# ---------------------------------------------------------------------------
# partitions


def _pieces_result(path, path_colour, cycle, cycle_colour):
    return (
        Piece("path", path_colour, tuple(path)),
        Piece("cycle", cycle_colour, tuple(cycle)),
    )


def partition_path_cycle(col: PairColouring):
    """Partition into a monochromatic path and a monochromatic cycle of
    distinct colours, or SplitDetected.

    A spanning bicoloured cycle is exchanged towards more red edges until
    either its turning points sit in distinct classes (split along the
    chord between them) or the chord past the turning point closes the
    off-run into a cycle.
    """
    res = spanning_bicoloured_or_mono_cycle(col)
    if isinstance(res, SplitDetected):
        return res
    if res.kind == "mono":
        return _pieces_result((), other_colour(res.colour), res.vertices, res.colour)

    seq, ell = res.frame
    rows = col.rows
    while True:
        if _is_good(col, seq, ell):
            if rows[seq[0]][seq[ell - 1]] == RED:
                return _pieces_result(seq[ell:], BLUE, seq[:ell], RED)
            return _pieces_result(seq[1 : ell - 1], RED, [seq[0]] + seq[ell - 1 :], BLUE)
        if rows[seq[0]][seq[ell]] != RED:
            return _pieces_result(seq[1:ell], RED, [seq[0]] + seq[ell:], BLUE)
        seq, ell = _red_exchange(col, seq, ell)


def partition_path_cycle_coloured(col: PairColouring, cycle):
    """Partition into
    a red path and a blue cycle, given a spanning bicoloured cycle whose
    turning points share a class.  Raises RuntimeError if a red exchange
    fails to progress or makes the cycle good, which no input should
    cause."""
    cyc = list(cycle)
    _require_alternating(col, cyc)
    if len(cyc) != 2 * col.n:
        raise ValueError("cycle is not spanning")
    seq, ell = _frame(col, cyc, RED)
    if _is_good(col, seq, ell):
        raise ValueError("cycle must not be good")

    rows = col.rows
    while True:
        if rows[seq[0]][seq[ell]] == BLUE:
            return _pieces_result(seq[1:ell], RED, [seq[0]] + seq[ell:], BLUE)
        if rows[seq[ell - 1]][seq[-1]] == BLUE:
            return _pieces_result(seq[: ell - 1], RED, [seq[ell - 1]] + seq[ell:][::-1], BLUE)
        seq, ell = _red_exchange(col, seq, ell)
        if _is_good(col, seq, ell):
            raise RuntimeError("red exchange made the cycle good")


def two_paths(col: PairColouring):
    """Partition into two monochromatic paths of distinct colours (open the
    cycle of the path+cycle partition), or SplitDetected."""
    res = partition_path_cycle(col)
    if isinstance(res, SplitDetected):
        return res
    path_piece, cycle_piece = res
    return (
        path_piece,
        Piece("path", cycle_piece.colour, cycle_piece.vertices),
    )


# ---------------------------------------------------------------------------
# split-colouring fallbacks


def split_three_paths(col: PairColouring, structure: SplitStructure):
    """At most three monochromatic paths partitioning a split colouring:
    red zig-zags through both red blocks, blue zig-zag through the
    leftovers (which always land in one blue block)."""
    if not isinstance(structure, SplitStructure) or not structure.verify(col):
        raise ValueError("split structure fails verification against the colouring")
    a1, a2, b1, b2 = (sorted(p) for p in (structure.a1, structure.a2, structure.b1, structure.b2))
    t1 = min(len(a1), len(b1))
    t2 = min(len(a2), len(b2))
    # the verified parts of each class sum to n, so rem0 and rem1 have
    # equal sizes and the blue zig-zag takes both whole
    rem0 = a1[t1:] + a2[t2:]
    rem1 = b1[t1:] + b2[t2:]
    pieces = []
    if t1:
        pieces.append(Piece("path", RED, tuple(_interleave(a1[:t1], b1[:t1]))))
    if t2:
        pieces.append(Piece("path", RED, tuple(_interleave(a2[:t2], b2[:t2]))))
    if rem0:
        pieces.append(Piece("path", BLUE, tuple(_interleave(rem0, rem1))))
    return tuple(pieces)


def v_two_cycles(col: PairColouring, structure: VColStructure | None):
    """Two monochromatic vertex-disjoint cycles of distinct colours covering
    a V-coloured host (degenerate cycles allowed), given the structure
    `classify_bipartite(col).vcol`: the red and blue zig-zags of the
    bichromatic class in order, first against the red arm, then the blue.
    Raises ValueError unless the structure verifies against `col`."""
    if not isinstance(structure, VColStructure) or not structure.verify(col):
        raise ValueError("colouring is not a V-colouring")
    own = list(col.class_vertices(structure.bichro_class))
    p = len(structure.red_arm)
    return (
        Piece("cycle", RED, tuple(_interleave(own[:p], structure.red_arm))),
        Piece("cycle", BLUE, tuple(_interleave(own[p:], structure.blue_arm))),
    )
