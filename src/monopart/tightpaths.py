"""Bicoloured tight paths in 2-coloured complete 3-uniform hosts.

A tight path visits distinct vertices; every three consecutive vertices
form an edge.  A path is *bicoloured* when its edge-colour sequence has at
most two constant runs; the vertex where the runs meet is the turning
point.  The augmentation step below grows any bicoloured tight path by one
uncovered vertex, which makes the spanning construction total: every
2-colouring of every complete 3-uniform host admits a spanning bicoloured
tight path, found here in exactly n-1 augmentations.

Each augmentation makes O(1) colour lookups, an O(1) membership test on
the path's vertex bitmask, and O(1) Python-level steps; only the C-level
copy of the new vertex tuple grows with the path, so the spanning path's
Python-level work is linear in n and its copying quadratic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .colourings import Colour, TripleColouring, other_colour

__all__ = [
    "TightPathClass",
    "BicolouredTightPath",
    "classify_tight_path",
    "augment",
    "spanning_bicoloured_path",
    "split_into_two_mono",
]


@dataclass(frozen=True)
class TightPathClass:
    """Classification of a vertex sequence: invalid, mono or bicoloured.

    For monochromatic sequences `colour` is the single edge colour (None
    when there are no edges).  For bicoloured sequences `turn` is the
    1-based index of the last vertex of the first colour run.
    """

    kind: str  # "invalid" | "mono" | "bicoloured"
    colour: Colour | None = None
    turn: int | None = None
    reason: str | None = None


@dataclass(frozen=True, init=False)
class BicolouredTightPath:
    """A valid bicoloured tight path with canonical turning point.

    `turn` follows the 1-based convention: edges up to the turn carry the
    first colour, later edges the other.  Monochromatic paths store
    turn = k-1 so that the canonical cut leaves an empty second part;
    paths with fewer than two vertices have no turn.
    """

    vertices: tuple[int, ...]
    turn: int | None
    # bit v set iff v is a vertex; not compared, hashed or shown.  0 on a
    # hand-built path, whose mask `augment` rebuilds from `vertices`
    mask: int = field(default=0, compare=False, repr=False)

    def __init__(self, vertices: tuple[int, ...], turn: int | None, mask: int = 0):
        # fills the instance dict directly: the generated frozen __init__
        # makes one object.__setattr__ call per field, most of the cost of
        # a short `augment` step
        d = self.__dict__
        d["vertices"] = vertices
        d["turn"] = turn
        d["mask"] = mask

    def __len__(self):
        return len(self.vertices)

    @property
    def is_mono(self) -> bool:
        k = len(self.vertices)
        return k <= 1 or self.turn == 1 or self.turn == k - 1


def _require_h3(col) -> None:
    if not isinstance(col, TripleColouring):
        raise ValueError("operation needs an h3 colouring")


def classify_tight_path(col: TripleColouring, seq) -> TightPathClass:
    """Classify a vertex sequence per the tight-path colour-run rule.

    Returns bicoloured with the smallest valid turning index when the edge
    colours form exactly two runs, mono for at most one run, and invalid
    for more than two runs or a malformed sequence.  Raises ValueError
    unless `col` is an h3 colouring.
    """
    _require_h3(col)
    seq = list(seq)
    k = len(seq)
    n = col.n
    seen = set()
    for v in seq:
        if not 0 <= v < n:
            return TightPathClass("invalid", reason=f"vertex {v} out of range")
        if v in seen:
            return TightPathClass("invalid", reason=f"repeated vertex {v}")
        seen.add(v)
    if k <= 2:
        return TightPathClass("mono", colour=None)
    cbit = col.colour_bit
    first = cbit(seq[0], seq[1], seq[2])
    boundary = -1
    prev = first
    for i in range(2, k - 1):
        cur = cbit(seq[i - 1], seq[i], seq[i + 1])
        if cur != prev:
            if boundary >= 0:
                return TightPathClass("invalid", reason="more than two colour runs")
            boundary = i  # 1-based index of the last vertex of the first run
            prev = cur
    if boundary < 0:
        return TightPathClass("mono", colour=Colour(first))
    return TightPathClass("bicoloured", colour=Colour(first), turn=boundary)


def augment(col: TripleColouring, path: BicolouredTightPath, w: int) -> BicolouredTightPath:
    """Extend a bicoloured tight path by the uncovered vertex w.

    Total on complete hosts: the result is always a valid bicoloured tight
    path on V(path) + {w}.  A hand-built path (mask 0) is classified once,
    and refused unless it is valid with, from three vertices up, the turn
    `classify_tight_path` gives (k - 1 or 1 when monochromatic); past that
    the turn is trusted (the `BicolouredTightPath` invariant), so the new
    turn is derived rather than found by reclassifying the path.  Short
    or monochromatic paths take w at the end, and the one new triple
    decides the turn.  Otherwise the path is read in a working frame,
    forwards or backwards (backwards swaps the roles of the two colour
    runs), so that the triple (turn, turn+1, w) has the first-run colour,
    and one of five explicit re-routings applies.  Each re-routing splices
    w between at most four blocks of the old path, kept or reversed; a
    triple inside a block keeps its known run colour, so only the triples
    across a junction are looked up, and a profile of more than two runs
    raises ValueError.

    Cost, past the read of a hand-built path: O(1) colour lookups and O(1)
    Python-level work per call.  The membership test reads the path's
    vertex bitmask, the working frame maps its indices onto the stored
    tuple instead of reversing it, and the new tuple is concatenated from
    at most four direct (reversed) slices of the old one, so the only work
    linear in the path's length is C-level copying.
    """
    _require_h3(col)
    if not 0 <= w < col.n:
        raise ValueError(f"vertex {w} out of range")
    seq, mask = path.vertices, path.mask
    if not mask:  # a hand-built path: `augment` results carry their mask
        seq = tuple(seq)
        cls, k = classify_tight_path(col, seq), len(seq)
        turns = (cls.turn,) if cls.kind == "bicoloured" else (1, k - 1)
        if cls.kind == "invalid" or k > 2 and path.turn not in turns:
            raise ValueError("path is not a bicoloured tight path with its canonical turn")
        for v in seq:
            mask |= 1 << v
    if mask >> w & 1:
        raise ValueError(f"vertex {w} already on the path")
    mask |= 1 << w

    k = len(seq)
    cbit = col.colour_bit
    if k <= 2 or path.is_mono:
        if k == 0:
            return BicolouredTightPath((w,), None, mask)
        same = k <= 2 or cbit(seq[-2], seq[-1], w) == cbit(seq[0], seq[1], seq[2])
        return BicolouredTightPath(seq + (w,), k if same else k - 1, mask)

    ell = path.turn
    first = cbit(seq[0], seq[1], seq[2])
    # frame index i is seq[i], or seq[k - 1 - i] when the frame reads the
    # path backwards; v1, vk, u, x are the frame's 1-based vertices 1, k,
    # ell + 1 and ell + 2
    if cbit(seq[ell - 1], seq[ell], w) == first:
        flip = False
        v1, vk, u, x = seq[0], seq[-1], seq[ell], seq[ell + 1]
    else:
        flip = True
        ell = k - ell
        first = 1 - first
        v1, vk, u, x = seq[-1], seq[0], seq[k - ell - 1], seq[k - ell - 2]
    second = 1 - first

    # Blocks are 0-based index pairs (i, j) of the working frame, read from
    # i to j (reversed when i > j); None stands for w.
    if cbit(u, w, x) == first:
        blocks = ((0, ell), None, (ell + 1, k - 1))
    elif cbit(v1, w, u) == second:
        blocks = ((ell - 1, 0), None, (ell, k - 1))
    elif cbit(u, w, vk) == first:
        blocks = ((0, ell), None, (k - 1, ell + 1))
    elif cbit(v1, w, vk) == first:
        blocks = ((1, ell), None, (0, 0), (k - 1, ell + 1))
    else:
        blocks = ((ell - 1, 0), (k - 1, k - 1), None, (ell, k - 2))
    new = ()
    for b in blocks:
        if b is None:
            new += (w,)
            continue
        i, j = b
        if flip:
            i, j = k - 1 - i, k - 1 - j
        # the tuple's own slice from index i to index j, both included
        new += seq[i : j + 1] if i <= j else seq[i : j - 1 : -1] if j else seq[i::-1]
    return BicolouredTightPath(new, _spliced_turn(cbit, new, blocks, ell, first), mask)


def _spliced_turn(cbit, new: tuple[int, ...], blocks, ell: int, first: int) -> int:
    """Turn of `new`, spliced from `blocks` of a bicoloured working-frame
    path whose triples with 0-based middle below `ell` have colour `first`
    and the rest the other colour.

    Builds the run-length profile of `new`'s edge colours: a triple inside
    a block keeps its old colour, and a triple across a junction is looked
    up.  Raises ValueError when there are more than two runs.
    """
    runs: list[list[int]] = []  # [colour, count], adjacent colours distinct

    def add(colour: int, count: int) -> None:
        if count > 0:
            if runs and runs[-1][0] == colour:
                runs[-1][1] += count
            else:
                runs.append([colour, count])

    last = len(new) - 2  # middles of new's triples run from 1 to last
    s = 0
    for b in blocks:
        e = s + (1 if b is None else abs(b[1] - b[0]) + 1)
        if 0 < s <= last:  # the triple centred on the block's first vertex
            add(cbit(new[s - 1], new[s], new[s + 1]), 1)
        if e - s >= 3:  # old middles lo+1 .. hi-1, read in block order
            lo, hi = min(b), max(b)
            n_first = max(0, min(hi, ell) - lo - 1)
            n_second = max(0, hi - max(lo + 1, ell))
            if b[0] < b[1]:
                add(first, n_first)
                add(1 - first, n_second)
            else:
                add(1 - first, n_second)
                add(first, n_first)
        if s < e - 1 <= last:  # the triple centred on the block's last vertex
            add(cbit(new[e - 2], new[e - 1], new[e]), 1)
        s = e
    if len(runs) > 2:
        raise ValueError("not a bicoloured tight path: more than two colour runs")
    return runs[0][1] + 1


def spanning_bicoloured_path(col: TripleColouring) -> BicolouredTightPath:
    """Spanning bicoloured tight path, grown from vertex 0 by repeatedly
    augmenting with the smallest uncovered vertex (n-1 augment calls).
    The path starts with its vertex bitmask, which each call passes on.
    Raises ValueError unless `col` is a 3-uniform (h3) colouring."""
    _require_h3(col)
    path = BicolouredTightPath((0,), None, 1)
    for w in range(1, col.n):
        path = augment(col, path, w)
    return path


def split_into_two_mono(
    col: TripleColouring, path: BicolouredTightPath
) -> tuple[tuple[int, ...], Colour, tuple[int, ...], Colour]:
    """Cut a spanning bicoloured tight path into two monochromatic tight
    paths of distinct colours that together cover all vertices.

    The cut falls just after the turning point; when the path has at least
    six vertices and is not monochromatic the cut position is clamped to
    [3, k-3] so that each non-empty part keeps at least one edge.  The
    parts are not read again here: `solve` checks them with `certify`.
    Raises ValueError unless `path` is a `BicolouredTightPath`.
    """
    if not isinstance(path, BicolouredTightPath):
        raise ValueError("path is not a BicolouredTightPath")
    seq = list(path.vertices)
    k = len(seq)
    if k != col.n:
        raise ValueError("path is not spanning")
    cls = classify_tight_path(col, seq)
    if cls.kind == "invalid":
        raise ValueError(f"input path invalid: {cls.reason}")

    c1 = cls.colour if cls.colour is not None else Colour.RED
    c2 = other_colour(c1)
    if cls.kind == "mono":
        return tuple(seq), c1, (), c2

    p = cls.turn + 1
    if k >= 6:
        p = min(max(p, 3), k - 3)
    part1, part2 = seq[:p], seq[p:]
    return tuple(part1), c1, tuple(part2), c2
