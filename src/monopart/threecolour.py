"""Partitions of 3-coloured complete and complete bipartite hosts.

The pipelines merge blue and green, carve off a red path together with
balanced all-merged complete bipartite blocks, then re-split the merged
colours inside each block and hand the block to the 2-colour path+cycle
engine once (or to the split fallbacks when it reports a split).
Resulting certificates have at most two paths and one cycle, or one path
and three cycles, on complete hosts; on bipartite hosts at most three
paths and two cycles, or two paths and four cycles.

The carved-path search works on bitsets held as Python ints: each
vertex's red neighbours (n^2/8 bytes in all), the remainder, its
components and the path's vertices, so a search step is a few big-int
operations and keeps no set of vertices.  The balanced split of the
remainder is one subset sum over its components on such a bitset.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, compress, islice

import numpy as np

from .bipartite import (
    SplitDetected,
    classify_bipartite,
    partition_path_cycle,
    split_three_paths,
    v_two_cycles,
    _interleave,
)
from .certificates import PartitionCertificate, Piece, certify
from .colourings import BLUE, GREEN, RED, Colour, PairColouring, _bits

__all__ = [
    "BalancedBipBlock",
    "path_and_balanced_block",
    "path_and_two_balanced_blocks",
    "partition3_complete",
    "partition3_bipartite",
]

# (paths, cycles) shapes the pipelines promise; a certificate fits one.
COMPLETE_LIMITS = [(2, 1), (1, 3)]
BIPARTITE_LIMITS = [(3, 2), (2, 4)]


@dataclass(frozen=True)
class BalancedBipBlock:
    """Two equal-size vertex sets whose cross edges avoid the carved colour."""

    side1: tuple[int, ...]
    side2: tuple[int, ...]

    def __post_init__(self):
        if len(self.side1) != len(self.side2):
            raise ValueError("block sides must have equal sizes")

    def __bool__(self):
        return bool(self.side1)


# ---------------------------------------------------------------------------
# remainder feasibility


_IS_RED = bytes(c == RED for c in range(256))  # translate table: red -> 1
_CHUNK = 1 << 24  # row bytes masked per pass, bounding the transient copies


def _red_neighbours(col: PairColouring) -> list[int]:
    """Each vertex's red neighbours as a bitset: bit v of entry u is set iff
    uv is red.  Rows of one width are masked to their red bytes and packed
    into bits in C, many rows per pass, so the adjacency takes n^2/8 bytes
    and Python touches each row once."""
    rows, n = col.rows, col.n
    # bnn class-0 rows have 2n bytes and class-1 rows n
    groups = [(0, n)] if col.kind == "kn" else [(0, n), (n, 2 * n)]
    out: list[int] = []
    for lo, hi in groups:
        width = len(rows[lo])
        step = max(1, _CHUNK // width)
        for a in range(lo, hi, step):
            b = min(a + step, hi)
            bits = np.frombuffer(b"".join(rows[a:b]).translate(_IS_RED), dtype=np.uint8)
            packed = np.packbits(bits.reshape(b - a, width), axis=1, bitorder="little")
            out.extend(int.from_bytes(row.tobytes(), "little") for row in packed)
    return out


def _red_components(fresh: int, red):
    """Connected components of the carved-colour graph on the vertex mask
    `fresh`, with `red` from _red_neighbours, as masks in increasing order
    of their lowest vertex; None as soon as one component holds more than
    half of `fresh`.

    Neither caller can place such a component, so the scan stops there:
    _half_split puts each component inside a half of |fresh|/2, and
    _two_block_split puts a component (c0, c1) across two blocks, so that
    |c0| + |c1| <= |A1| + |B1| = |fresh|/2.
    """
    half = fresh.bit_count() // 2
    comps = []
    while fresh:
        comp = todo = fresh & -fresh
        fresh ^= comp
        while todo:
            v = todo.bit_length() - 1
            todo ^= 1 << v
            nb = red[v] & fresh
            fresh ^= nb
            comp |= nb
            todo |= nb
            if comp.bit_count() > half:
                return None
        comps.append(comp)
    return comps


def _reach(steps) -> list[int]:
    """Suffix subset sums of `steps`, (take, leave) bit offsets, as
    bitsets: bit t of entry i is set iff taking or leaving each of
    steps[i:] can add up to t.  One shift pair and one or per step."""
    reach = [1]
    for take, leave in reversed(steps):
        reach.append(reach[-1] << take | reach[-1] << leave)
    reach.reverse()
    return reach


def _choose(steps, reach, target: int) -> list[bool]:
    """Which of `steps` to take (True) or leave for a sum of `target`,
    which reach[0] holds: the first such choice list in take-before-leave
    order, walked greedily on the suffix sums."""
    choice = []
    for (take, leave), after in zip(steps, reach[1:]):
        choice.append(target >= take and after >> (target - take) & 1 == 1)
        target -= take if choice[-1] else leave
    return choice


def _half_split(rest: int, red):
    """Equal halves of the vertex mask `rest` with no carved-colour edge
    between them, as sorted lists, or None.  Components must not straddle
    the halves, so a component larger than a half rules the split out
    before the scan ends.  The first half is the first choice of
    components, in take-first order, whose sizes sum to |rest|/2."""
    total = rest.bit_count()
    if total % 2:
        return None
    target = total // 2
    comps = _red_components(rest, red)
    if comps is None:
        return None
    steps = [(c.bit_count(), 0) for c in comps]
    reach = _reach(steps)
    if not reach[0] >> target & 1:
        return None
    x = sum(compress(comps, _choose(steps, reach, target)))
    return list(_bits(x)), list(_bits(rest ^ x))


def _two_block_split(r0: int, r1: int, red):
    """Blocks (A1,A2), (B1,B2) with A1,B1 from the class-0 mask r0 and A2,B2
    from the class-1 mask r1, as sorted lists, with equal block sides, no
    carved-colour edge inside either block, and |A| <= |B|; None when
    impossible.  |A1| = max(s, u) is least; flipping every take/leave choice gives max <= |B1|.

    Every carved-colour component must put its class-0 vertices in one
    block and its class-1 vertices in the other.  A component (c0, c1)
    with c0 in A1 and c1 in B2 has |c0| + |c1| <= |A1| + |B1| = |r0| (and
    alike the other way round), so one larger than |r0| rules the split
    out before the scan ends.
    """
    if r0.bit_count() != r1.bit_count():
        return None
    whole = _red_components(r0 | r1, red)
    if whole is None:
        return None
    # components with an edge, split by class, and the isolated vertices
    comps, iso = [], 0
    for c in whole:
        if c & (c - 1):
            comps.append((c & r0, c & r1))
        else:
            iso |= c
    f0, f1 = (iso & r0).bit_count(), (iso & r1).bit_count()
    # subset sum over components: taking one puts its class-0 part in A,
    # leaving it puts its class-1 part there; bit s * w + u of the sums
    # stands for |A1| = s and |A2| = u, counting component vertices (u < w)
    w = r1.bit_count() + 1
    steps = [(c0.bit_count() * w, c1.bit_count()) for c0, c1 in comps]
    reach = _reach(steps)
    # isolated vertices balance A when -f0 <= s - u <= f1; the smallest
    # max(s, u) wins, then the smallest s - u.  Difference d's cells are
    # every (w + 1)-th bit (`diag`, a geometric series) by rising max(s, u);
    # past u = w - 1 they meet only cells with s > |r0| - f0, never reached
    diag = ((1 << w * (w + 1)) - 1) // ((1 << w + 1) - 1)
    hits = []
    for d in range(-f0, f1 + 1):
        on = reach[0] >> max(0, d) * (w + 1) - d & diag
        if on:
            hits.append(((on & -on).bit_length() // (w + 1) + abs(d), d))
    if not hits:
        return None
    side, d = min(hits)
    s, u = side + min(0, d), side - max(0, d)
    # block A: each taken component's class-0 part, each other one's
    # class-1 part, and the lowest isolated vertices that balance it
    a = sum(c0 if took else c1 for (c0, c1), took in zip(comps, _choose(steps, reach, s * w + u)))
    for v in chain(islice(_bits(iso & r0), max(0, u - s)), islice(_bits(iso & r1), max(0, s - u))):
        a |= 1 << v
    a1, a2, b1, b2 = (list(_bits(m)) for m in (a & r0, a & r1, r0 & ~a, r1 & ~a))
    return (a1, a2), (b1, b2)


# ---------------------------------------------------------------------------
# carved-path searches


def _search_path(candidates_start, red, feasible):
    """Depth-first search over carved-colour paths, shortest-first, in
    canonical order: a path goes on from u to the unused vertices of the
    bitset `red[u]` in increasing order.

    `feasible(used, seq)` gets the path's vertex mask and returns the block
    payload when the remainder splits; the first hit wins.  States are
    memoized on (last vertex, covered mask).  The stack is explicit, so
    path length is not bounded by the recursion limit.  A frame lists its
    candidates once, as `red[u]` less the covered mask, because that mask
    is the same whenever the frame resumes.

    On random hosts the first descent walks a path through almost every
    vertex, so the search makes about one feasibility check per vertex; a
    check is a few big-int operations of n/64 words per vertex its
    component scan reaches, and the scan stops at the first component
    larger than half of the remainder, after two or three vertices, so
    the search is O(n^2/64) word operations.  Structured hosts can
    backtrack far more (two disjoint red cliques make it exponential).
    """
    used = 0
    seq: list = []
    hit = feasible(used, seq)
    if hit is not None:
        return [], hit
    dead: set = set()
    stack = [iter(candidates_start)]
    while stack:
        for w in stack[-1]:
            if (w, used | 1 << w) in dead:
                continue
            used |= 1 << w
            seq.append(w)
            payload = feasible(used, seq)
            if payload is not None:
                return seq, payload
            stack.append(_bits(red[w] & ~used))
            break
        else:
            stack.pop()
            if seq:
                dead.add((seq[-1], used))
                used ^= 1 << seq.pop()
    return None


def path_and_balanced_block(col: PairColouring):
    """Partition of a complete host into a red path and a balanced block
    with no red edge across it.

    Existence is guaranteed; realized by canonical-order backtracking.
    """
    if col.kind != "kn":
        raise ValueError("needs a complete host")
    red = _red_neighbours(col)
    full = (1 << col.n) - 1

    def feasible(used, seq):
        return _half_split(full ^ used, red)

    out = _search_path(range(col.n), red, feasible)
    if out is None:
        raise RuntimeError("carved-path search failed; host is not complete?")
    seq, (x, y) = out
    return seq, BalancedBipBlock(tuple(x), tuple(y))


def path_and_two_balanced_blocks(col: PairColouring):
    """Partition of a bipartite host into a red path and two balanced
    blocks, each block pairing opposite classes with no red edge inside,
    the first block no larger than the second."""
    if col.kind != "bnn":
        raise ValueError("needs a bipartite host")
    n = col.n
    red = _red_neighbours(col)
    full0 = (1 << n) - 1
    full1 = full0 << n

    def feasible(used, seq):
        if len(seq) % 2:
            return None
        return _two_block_split(full0 & ~used, full1 & ~used, red)

    out = _search_path(range(2 * n), red, feasible)
    if out is None:
        raise RuntimeError("carved-path search failed; host is not complete bipartite?")
    seq, ((a1, a2), (b1, b2)) = out
    return (
        seq,
        BalancedBipBlock(tuple(a1), tuple(a2)),
        BalancedBipBlock(tuple(b1), tuple(b2)),
    )


# ---------------------------------------------------------------------------
# merged-palette plumbing

_LOCAL_TO_REAL = {RED: BLUE, BLUE: GREEN}
# translate table of the inverse map: host blue/green -> local red/blue
_TO_LOCAL = bytes.maketrans(bytes(_LOCAL_TO_REAL.values()), bytes(_LOCAL_TO_REAL))


def _induced_block(col: PairColouring, left, right) -> PairColouring:
    """2-coloured view of the block's cross edges, blue as local red and
    green as local blue."""
    rows, right = col.rows, sorted(right)
    block = b"".join(bytes(map(rows[u].__getitem__, right)) for u in sorted(left))
    if RED in block:
        raise ValueError("block contains a carved-colour edge")
    return PairColouring("bnn", len(right), 2, block.translate(_TO_LOCAL))


def _lift_piece(piece: Piece, left, right) -> Piece:
    left, right = sorted(left), sorted(right)
    m = len(left)
    verts = tuple(left[v] if v < m else right[v - m] for v in piece.vertices)
    return Piece(piece.kind, _LOCAL_TO_REAL[piece.colour], verts)


def _split_cycles(local: PairColouring, structure, blue_path_first: bool = False) -> list[Piece]:
    """The split fallback's paths with the red ones closed into cycles.  The
    blue path is closed too, or kept as a path and put first when
    `blue_path_first`; the vertex sequences are the paths' own."""
    pieces = split_three_paths(local, structure)
    red = [Piece("cycle", RED, p.vertices) for p in pieces if p.colour == RED]
    blue = [p for p in pieces if p.colour == BLUE]
    if blue_path_first:
        return blue + red
    return red + [Piece("cycle", BLUE, p.vertices) for p in blue]


def _solve_block(col: PairColouring, left, right):
    """A merged block's local 2-colouring with its path+cycle partition, or
    with SplitDetected when that colouring is split; None when empty."""
    if not left:
        return None
    local = _induced_block(col, left, right)
    return local, partition_path_cycle(local)


def _block_pieces(left, right, solved, blue_path_first: bool = False) -> list[Piece]:
    """A solved block's pieces lifted to the host: path+cycle, or the split
    fallback as cycles."""
    if solved is None:
        return []
    local, pieces = solved
    if isinstance(pieces, SplitDetected):
        pieces = _split_cycles(local, pieces.structure, blue_path_first)
    return [_lift_piece(p, left, right) for p in pieces if p.vertices]


def _finish(col: PairColouring, pieces, limits) -> PartitionCertificate:
    """Certificate of the non-empty pieces, verified and within one of the
    (paths, cycles) limits."""
    cert = certify(col, [p for p in pieces if p.vertices])
    np_, nc = cert.nonempty_shape()
    if not any(np_ <= lp and nc <= lc for lp, lc in limits):
        raise RuntimeError(f"unexpected piece shape {(np_, nc)}")
    return cert


def partition3_complete(col: PairColouring) -> PartitionCertificate:
    """Partition of a 3-coloured complete host into at most two
    monochromatic paths and one cycle, or one path and three cycles."""
    if col.kind != "kn" or col.palette != 3:
        raise ValueError("needs a 3-coloured complete host")
    seq, block = path_and_balanced_block(col)
    pieces = [Piece("path", RED, tuple(seq))]
    x, y = block.side1, block.side2
    pieces.extend(_block_pieces(x, y, _solve_block(col, x, y)))
    return _finish(col, pieces, COMPLETE_LIMITS)


def _wipe_path_into(col: PairColouring, part0, part1, anchor, colour, ending: bool):
    """Zig-zag in the anchor's colour quadrant consuming equal counts from
    both quadrant sides and wiping the smaller one; `ending` paths end at
    the anchor, otherwise they start at it.

    part0/part1 are the block's class-0/class-1 parts; the anchor lies in
    part0 for ending paths and in part1 for starting ones.
    """
    rows = col.rows
    if ending:
        q1 = [z for z in part1 if rows[anchor][z] == colour]
        q0 = [x for x in part0 if rows[x][q1[0]] == colour]
        t = min(len(q0), len(q1))
        xs = [x for x in q0 if x != anchor][: t - 1] + [anchor]
        zs = q1[:t]
    else:
        q0 = [x for x in part0 if rows[x][anchor] == colour]
        q1 = [z for z in part1 if rows[q0[0]][z] == colour]
        t = min(len(q0), len(q1))
        zs = [anchor] + [z for z in q1 if z != anchor][: t - 1]
        xs = q0[:t]
    return _interleave(zs, xs), set(xs), set(zs)


def _remainder_cycles(col: PairColouring, left, right) -> list[Piece]:
    """Cover a merged-colour remainder block by at most two cycles; the
    construction leaves it V-coloured or monochromatic."""
    local = _induced_block(col, left, right)
    verdict = classify_bipartite(local)
    if verdict.kind == "mono":
        cyc = _interleave(range(local.n), range(local.n, 2 * local.n))
        piece = Piece("cycle", verdict.colour, tuple(cyc))
        return [_lift_piece(piece, left, right)]
    if verdict.kind == "vcol":
        pieces = v_two_cycles(local, verdict.vcol)
        return [_lift_piece(p, left, right) for p in pieces if p.vertices]
    raise RuntimeError(f"remainder block is not V-coloured or mono: {verdict.kind}")


def partition3_bipartite(col: PairColouring) -> PartitionCertificate:
    """Partition of a 3-coloured bipartite host into at most three
    monochromatic paths and two cycles, or two paths and four cycles."""
    if col.kind != "bnn" or col.palette != 3:
        raise ValueError("needs a 3-coloured bipartite host")
    seq, block_a, block_b = path_and_two_balanced_blocks(col)
    pieces = [Piece("path", RED, tuple(seq))]

    sides = [(block_a.side1, block_a.side2), (block_b.side1, block_b.side2)]
    solved = [_solve_block(col, x, y) for x, y in sides]
    if not all(s is not None and isinstance(s[1], SplitDetected) for s in solved):
        for (x, y), s in zip(sides, solved):
            pieces.extend(_block_pieces(x, y, s))
        return _finish(col, pieces, BIPARTITE_LIMITS)

    cross = _find_non_carved_cross(col, block_a, block_b)
    if cross is not None:
        u, w, c, p_block, q_block = cross
        path_p, used_p0, used_p1 = _wipe_path_into(
            col, p_block.side1, p_block.side2, u, c, ending=True
        )
        path_q, used_q0, used_q1 = _wipe_path_into(
            col, q_block.side1, q_block.side2, w, c, ending=False
        )
        pieces.append(Piece("path", Colour(c), tuple(path_p + path_q)))
        pieces.extend(
            _remainder_cycles(
                col,
                [x for x in p_block.side1 if x not in used_p0],
                [z for z in p_block.side2 if z not in used_p1],
            )
        )
        pieces.extend(
            _remainder_cycles(
                col,
                [x for x in q_block.side1 if x not in used_q0],
                [z for z in q_block.side2 if z not in used_q1],
            )
        )
        return _finish(col, pieces, BIPARTITE_LIMITS)

    # every cross edge carries the carved colour: two carved cycles take all
    # of the small block and matching parts of the big one
    a = len(block_a.side1)
    c1 = _interleave(sorted(block_a.side1), sorted(block_b.side2)[:a])
    c2 = _interleave(sorted(block_b.side1)[:a], sorted(block_a.side2))
    if a == 0:
        raise AssertionError("both-split branch requires non-empty blocks")
    pieces.append(Piece("cycle", RED, tuple(c1)))
    pieces.append(Piece("cycle", RED, tuple(c2)))
    rem0 = sorted(block_b.side1)[a:]
    rem1 = sorted(block_b.side2)[a:]
    pieces.extend(_block_pieces(rem0, rem1, _solve_block(col, rem0, rem1), blue_path_first=True))
    return _finish(col, pieces, BIPARTITE_LIMITS)


def _find_non_carved_cross(col: PairColouring, block_a, block_b):
    """First non-carved edge between one block's class-0 side and the other
    block's class-1 side, with the blocks oriented to it."""
    rows = col.rows
    for p_block, q_block in ((block_a, block_b), (block_b, block_a)):
        for u in sorted(p_block.side1):
            for w in sorted(q_block.side2):
                c = rows[u][w]
                if c != RED:
                    return u, w, c, p_block, q_block
    return None
