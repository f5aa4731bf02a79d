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
fallbacks.  All constructions are verified before being returned.

The solvers read colours through the unchecked view `PairColouring.rows`,
and each cycle the growth, attach and exchange loops build is read once:
its frame is handed on to the next step.  The growth and V steps go
through their public entries, `extend_good_cycle` and `v_two_cycles`.
`classify_bipartite` and the structure witnesses' `verify` methods compare
rows of the validated `entries` instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .certificates import Piece
from .colourings import BLUE, RED, Colour, PairColouring, SplitStructure, other_colour

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
        if col.kind != "bnn" or col.palette != 2:
            return False
        if not self.red_arm or not self.blue_arm or self.bichro_class not in (0, 1):
            return False
        n = col.n
        opp = list(col.class_vertices(1 - self.bichro_class))
        if sorted(self.red_arm + self.blue_arm) != opp:
            return False
        # every vertex of the bichromatic class has the same row (class 0)
        # or column (class 1) of entries: red towards the red arm, blue
        # towards the blue arm
        red_arm = set(self.red_arm)
        want = bytes(RED if w in red_arm else BLUE for w in opp)
        entries = col.entries
        if self.bichro_class == 0:
            return all(entries[a * n : (a + 1) * n] == want for a in range(n))
        return all(entries[b::n] == want for b in range(n))


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


def classify_bipartite(col: PairColouring) -> Classification:
    """Mono / Split / VCol verdict with verified structure, or Other with a
    good C4 witness.

    Read by class-0 rows R_a: the C4 (a, b, a2, b2) is good iff R_a xor
    R_a2 differs at b and b2, so a good C4 exists iff some row is neither
    R_0 nor its complement.  The witness is then the lexicographically
    first good C4, (0, n, a2, b2) with a2 the first such row and b2 the
    first column where R_0 xor R_a2 differs from its value at column 0.
    Otherwise whether R_0 is constant and whether its complement occurs
    tell mono, V on class 1, V on class 0 and split apart.
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
        structure = SplitStructure(like, anti, red, blue)
        assert structure.verify(col)
        return Classification("split", split=structure)
    if red and blue:
        vcol = VColStructure(0, red, blue)
    elif anti:
        vcol = VColStructure(1, *((like, anti) if red else (anti, like)))
    else:
        return Classification("mono", colour=Colour(r0[0]))
    assert vcol.verify(col)
    return Classification("vcol", vcol=vcol)


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
    s0 = sorted(subset0)
    s1 = sorted(subset1)
    rows = col.rows
    if _near_mono(rows, s0, s1) is not None:
        return None
    for i, a in enumerate(s0):
        for a2 in s0[i + 1 :]:
            for j, b in enumerate(s1):
                for b2 in s1[j + 1 :]:
                    reds = (
                        (rows[a][b] == 0)
                        + (rows[a2][b] == 0)
                        + (rows[a][b2] == 0)
                        + (rows[a2][b2] == 0)
                    )
                    if reds == 2:
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
    s0 = sorted(subset0)
    s1 = sorted(subset1)
    if len(s0) != len(s1) or not s0:
        raise ValueError("need equal non-empty class subsets")
    near = _near_mono(col.rows, s0, s1)
    if near is None:
        raise BalancedC4Present(find_balanced_c4(col, s0, s1))
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
    cycle.  The growth, attach and exchange loops call this once per cycle
    they build and hand the frame on."""
    rows = col.rows
    return [rows[u][v] for u, v in zip(cyc, cyc[1:] + cyc[:1])]


def _check_progress(col: PairColouring, before: int, new, colour, step: str, lead):
    """The frame of cycle `new` led by `lead`, from one read of its
    colours; raises unless it has more than `before` edges of `colour`.

    This check and `_checked_extension` are what stop the growth, attach
    and exchange loops: every growth step strictly lengthens the cycle,
    and every attach or exchange step strictly raises the number of its
    edges of one colour.  Both counts are at most the host's 2n vertices,
    so each loop runs at most 2n times.
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
    most two vertices count as mono and are not read.
    """
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
    distinct classes."""
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


def _reversed_frame(seq, ell):
    """The frame led by the same colour, traversing the cycle backwards."""
    return seq[ell - 1 :: -1] + seq[: ell - 1 : -1], ell


class ExtensionError(RuntimeError):
    pass


def _checked_extension(col, cand, old_len, allowed):
    """The red-led frame of `cand`, from one read of its colours; raises
    ExtensionError unless `cand` is a good cycle on more than `old_len`
    distinct vertices of `allowed`."""
    vertices = set(cand)
    if len(vertices) != len(cand):
        raise ExtensionError(f"repeated vertex in {cand}")
    if not vertices <= allowed:
        raise ExtensionError("extension left the allowed vertex set")
    if len(cand) <= old_len:
        raise ExtensionError("extension did not grow the cycle")
    try:
        frame = _frame(col, cand, RED)
    except ValueError:  # not bicoloured
        frame = None
    if frame is None or not _is_good(col, *frame):
        raise ExtensionError(f"extension is not a good cycle: {cand}")
    return frame


def _working_frame(col: PairColouring, seq, ell, q0, q1):
    """(eff_red, seq, ell, x1, y1, x2, y2): the first of the good cycle's
    four frames, with its quad labelling, in which the case tree's probe
    edges are defined.

    From the forward red-led frame (seq, ell) the others are index
    arithmetic: the reversed red-led frame, then the forward and reversed
    blue-led ones.
    """
    rows = col.rows
    blue_led = _other_lead(seq, ell)
    frames = ((seq, ell), _reversed_frame(seq, ell), blue_led, _reversed_frame(*blue_led))
    for eff_red, (fseq, fell) in zip((RED, RED, BLUE, BLUE), frames):
        own, opp = (q0, q1) if col.side(fseq[0]) == 0 else (q1, q0)
        for x1, y1 in ((own[0], own[1]), (own[1], own[0])):
            for x2, y2 in ((opp[0], opp[1]), (opp[1], opp[0])):
                if (
                    rows[x1][x2] == eff_red
                    and rows[y1][x2] != eff_red
                    and ((rows[x1][y2] == eff_red) != (rows[y1][y2] == eff_red))
                    and rows[fseq[0]][x2] == eff_red
                ):
                    return eff_red, fseq, fell, x1, y1, x2, y2
    raise ExtensionError("no admissible working frame")


def extend_good_cycle(col: PairColouring, frame, quad):
    """The red-led frame of a strictly longer good cycle, from the red-led
    frame (seq, ell) of a good cycle and a disjoint balanced C4, using only
    their vertices.

    The frame is not read again.  The cycle and quad are brought into a
    working frame (choice of leading turning point, colour-role swap and
    quad labelling) in which the probe edges of the case tree are defined;
    each branch ends in an explicit re-routing that is verified before its
    frame is returned.

    The new cycle need not keep every old-cycle vertex: the re-routing
    `seq[: k - 1] + [y2, x1, x2]`, for one, drops v(k), which goes back to
    the remainder.  So a caller cannot get the new remainder by taking the
    quad's four vertices off the old one; it has to read it off the cycle.
    """
    _require_bnn2(col)
    seq, ell = frame
    if not _is_good(col, seq, ell):
        raise ValueError("input cycle is not good")
    quad = list(quad)
    on = set(seq)
    if on & set(quad):
        raise ValueError("cycle and quad are not disjoint")
    q0 = sorted(u for u in quad if col.side(u) == 0)
    q1 = sorted(u for u in quad if col.side(u) == 1)
    if len(q0) != 2 or len(q1) != 2:
        raise ValueError("quad is not a C4 vertex set")
    rows = col.rows
    reds = sum(1 for a in q0 for b in q1 if rows[a][b] == RED)
    if reds != 2:
        raise ValueError("quad is not balanced")
    allowed = on | set(quad)
    k = len(seq)
    eff_red, seq, ell, x1, y1, x2, y2 = _working_frame(col, seq, ell, q0, q1)

    def R(u, v):
        return rows[u][v] == eff_red

    def v(i):
        return seq[i - 1]

    def done(cand):
        return _checked_extension(col, cand, k, allowed)

    # probe the quad's red corner against the cycle ends
    if not R(x1, v(k)):
        return done([v(1), x2, x1] + seq[:0:-1])
    if R(x1, v(2)):
        return done([v(1), x2, x1] + seq[1:])

    if R(y1, y2):  # the quad's second red edge sits at y1y2
        if R(v(1), y2):
            if not R(y1, v(k)):
                return done([v(1), y2, y1] + seq[:0:-1])
            if ell == k:
                return done(seq + [x1, y2])
            if R(y2, v(k - 1)):
                return done(seq[: k - 1] + [y2, y1, v(k), x1, x2])
            return done(seq[: k - 1] + [y2, x1, x2])
        if R(y1, v(ell)):
            if not R(y2, seq[ell % k]):
                return done(seq[:ell] + [y1, y2] + seq[ell:])
            return done(seq[:ell] + [y1, y2] + seq[ell:] + [x1, x2])
        if R(x2, v(ell - 1)):
            return done(seq[: ell - 1] + [x2, y1] + seq[ell - 1 :])
        return done([v(1), y2, x1] + seq[1 : ell - 1] + [x2, y1] + seq[ell - 1 :])

    # here the quad's second red edge sits at x1y2
    if not R(y1, v(ell)):
        if R(y2, v(ell - 1)):
            return done(seq[: ell - 1] + [y2, y1] + seq[ell - 1 :])
        return done(seq[: ell - 1] + [y2, y1] + seq[ell - 1 :] + [x1, x2])
    if ell == k:
        return done(seq + [y1, x2])
    if not R(y2, seq[ell]):
        return done(seq[:ell] + [y1, y2] + seq[ell:] + [x1, x2])
    if R(y1, v(k)):
        return done([v(1), x2, x1, y2] + seq[ell:] + [y1] + seq[1:ell][::-1])
    if R(y2, v(ell - 1)):
        return done(seq[: ell - 1] + [y2] + seq[ell:] + [x1, x2])
    if ell == 2:
        # the generic re-routings below need a red run of length >= 3
        if not R(x2, v(3)):
            return done([y1, v(2), v(1), x2] + seq[2:])
        return done(seq[2:] + [y1, y2, x1, x2])
    if not R(x1, v(ell)):
        return done([v(2), x1] + seq[ell - 1 :] + [y1, y2] + seq[2 : ell - 1][::-1])
    return done(seq[:ell] + [x1, y2] + seq[ell:] + [y1, x2])


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
    out: list[int] = []
    for a, b in zip(left, right):
        out.append(a)
        out.append(b)
    return out


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
    off-colour edges whenever both attachment edges refuse.
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

    # each cycle is read once, as it is built; its red-led frame goes on
    frame = _frame(col, list(verdict.good_c4), RED)
    while True:
        on = set(frame[0])
        rest0 = [u for u in range(n) if u not in on]
        rest1 = [u for u in range(n, 2 * n) if u not in on]
        if not rest0 and not rest1:
            return _wrap_spanning(col, frame[0], frame)
        try:
            path, pcol = near_mono_spanning_path(col, rest0, rest1)
            break
        except BalancedC4Present as exc:
            frame = extend_good_cycle(col, frame, exc.witness)

    # the attachment works in the frame led by the path's colour
    seq, ell = frame if pcol == RED else _other_lead(*frame)
    rows = col.rows
    while True:
        assert _is_good(col, seq, ell)
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
    turning points share a class."""
    _require_bnn2(col)
    cyc = list(cycle)
    if sorted(cyc) != list(range(2 * col.n)):
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
        assert not _is_good(col, seq, ell)


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
    if not structure.verify(col):
        raise ValueError("split structure fails verification against the colouring")
    a1, a2, b1, b2 = (sorted(p) for p in (structure.a1, structure.a2, structure.b1, structure.b2))
    t1 = min(len(a1), len(b1))
    t2 = min(len(a2), len(b2))
    rem0 = a1[t1:] + a2[t2:]
    rem1 = b1[t1:] + b2[t2:]
    assert len(rem0) == len(rem1)
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
    Raises ValueError when the structure is None (not a V-colouring)."""
    if structure is None:
        raise ValueError("colouring is not a V-colouring")
    own = list(col.class_vertices(structure.bichro_class))
    p = len(structure.red_arm)
    return (
        Piece("cycle", RED, tuple(_interleave(own[:p], structure.red_arm))),
        Piece("cycle", BLUE, tuple(_interleave(own[p:], structure.blue_arm))),
    )
