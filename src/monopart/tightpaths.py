"""Bicoloured tight paths in 2-coloured complete 3-uniform hosts.

A tight path visits distinct vertices; every three consecutive vertices
form an edge.  A path is *bicoloured* when its edge-colour sequence has at
most two constant runs; the vertex where the runs meet is the turning
point.  The augmentation step below grows any bicoloured tight path by one
uncovered vertex, which makes the spanning construction total: every
2-colouring of every complete 3-uniform host admits a spanning bicoloured
tight path, found here in exactly n-1 augmentations.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class BicolouredTightPath:
    """A valid bicoloured tight path with canonical turning point.

    `turn` follows the 1-based convention: edges up to the turn carry the
    first colour, later edges the other.  Monochromatic paths store
    turn = k-1 so that the canonical cut leaves an empty second part;
    paths with fewer than two vertices have no turn.
    """

    vertices: tuple[int, ...]
    turn: int | None

    def __len__(self):
        return len(self.vertices)

    @property
    def is_mono(self) -> bool:
        k = len(self.vertices)
        return k <= 1 or self.turn == 1 or self.turn == k - 1


def classify_tight_path(col: TripleColouring, seq) -> TightPathClass:
    """Classify a vertex sequence per the tight-path colour-run rule.

    Returns bicoloured with the smallest valid turning index when the edge
    colours form exactly two runs, mono for at most one run, and invalid
    for more than two runs or a malformed sequence.
    """
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


def _profile(col: TripleColouring, seq: list[int]) -> BicolouredTightPath:
    """Wrap a sequence as a BicolouredTightPath, raising if invalid."""
    cls = classify_tight_path(col, seq)
    if cls.kind == "invalid":
        raise ValueError(f"not a bicoloured tight path: {cls.reason}")
    k = len(seq)
    if cls.kind == "mono":
        turn = k - 1 if k >= 2 else None
    else:
        turn = cls.turn
    return BicolouredTightPath(tuple(seq), turn)


def augment(col: TripleColouring, path: BicolouredTightPath, w: int) -> BicolouredTightPath:
    """Extend a bicoloured tight path by the uncovered vertex w.

    Total on complete hosts: the result is always a valid bicoloured tight
    path on V(path) + {w}.  Short or monochromatic paths take w at the end;
    otherwise the path is put in a working frame (reversing it swaps the
    roles of the two colour runs) so that the triple (turn, turn+1, w) has
    the first-run colour, and one of five explicit re-routings applies.
    """
    seq = list(path.vertices)
    k = len(seq)
    if not 0 <= w < col.n:
        raise ValueError(f"vertex {w} out of range")
    if w in set(seq):
        raise ValueError(f"vertex {w} already on the path")

    if k <= 2 or path.is_mono:
        return _profile(col, seq + [w])

    cbit = col.colour_bit
    ell = path.turn
    first = cbit(seq[0], seq[1], seq[2])
    if cbit(seq[ell - 1], seq[ell], w) != first:
        seq = seq[::-1]
        ell = k - ell
        first = cbit(seq[0], seq[1], seq[2])
    second = 1 - first

    def v(i: int) -> int:  # 1-based access, matching the turn convention
        return seq[i - 1]

    if cbit(v(ell + 1), w, v(ell + 2)) == first:
        new = seq[: ell + 1] + [w] + seq[ell + 1 :]
    elif cbit(v(1), w, v(ell + 1)) == second:
        new = seq[:ell][::-1] + [w] + seq[ell:]
    elif cbit(v(ell + 1), w, v(k)) == first:
        new = seq[: ell + 1] + [w, v(k)] + seq[ell + 1 : k - 1][::-1]
    elif cbit(v(1), w, v(k)) == first:
        new = seq[1 : ell + 1] + [w, v(1), v(k)] + seq[ell + 1 : k - 1][::-1]
    else:
        new = seq[:ell][::-1] + [v(k), w] + seq[ell : k - 1]
    out = _profile(col, new)
    assert len(out.vertices) == k + 1
    return out


def spanning_bicoloured_path(col: TripleColouring) -> BicolouredTightPath:
    """Spanning bicoloured tight path, grown from vertex 0 by repeatedly
    augmenting with the smallest uncovered vertex (n-1 augment calls)."""
    path = BicolouredTightPath((0,), None)
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
    [3, k-3] so that each non-empty part keeps at least one edge.
    """
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
    assert classify_tight_path(col, part1).kind == "mono"
    assert classify_tight_path(col, part2).kind == "mono"
    return tuple(part1), c1, tuple(part2), c2
