"""Deterministic colouring generators.

Random colourings use the splitmix64 finalizer so that any implementation
can reproduce a corpus from (shape, seed) alone: the colour of the edge
with canonical ordinal i is

    z = (seed + (i+1) * 0x9E3779B97F4A7C15) mod 2**64
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9  mod 2**64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB  mod 2**64
    z =  z ^ (z >> 31)
    colour = z mod palette

Structured generators place distinguished parts on the lowest-index
vertices, so outputs are canonical and reproducible, and build their entries
from a block pattern rather than edge by edge: the split is the r = 2 table
of `HyperSplitSizes`, the V-colouring one class-0 row repeated, and the
three-colour split the block-index sum mod 3.
"""

from __future__ import annotations

import numpy as np

# EDGE_CAP is re-exported: the generators and the parser share the cap
from .colourings import (
    EDGE_CAP,
    HyperSplitSizes,
    PairColouring,
    SplitStructure,
    TransversalColouring,
    TripleColouring,
    _check_edge_cap,
    _check_materializable,
    _n_edges,
)

__all__ = [
    "splitmix64_stream",
    "gen_random",
    "gen_split_bipartite",
    "gen_v_colouring",
    "gen_recoloured_split",
    "gen_three_colour_split",
]

_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK = (1 << 64) - 1


def splitmix64(seed: int, i: int) -> int:
    """The i-th 64-bit word of the splitmix64 stream started at seed."""
    z = (seed + (i + 1) * _GAMMA) & _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


# Edges per chunk of the stream: the step table and the two uint64 scratch
# arrays of this length (512 KB each) stay in cache while each chunk's
# words are mixed in place.
_CHUNK = 1 << 16
_U64_GAMMA = np.uint64(_GAMMA)
_U64_MIX1 = np.uint64(_MIX1)
_U64_MIX2 = np.uint64(_MIX2)


def splitmix64_stream(seed: int, count: int, palette: int) -> bytes:
    """Colours of edges 0..count-1, one byte each: the splitmix64 words
    reduced mod `palette`, computed a cache-sized chunk at a time.  The
    chunking does not change the stream."""
    if not 1 <= palette <= 256:
        raise ValueError(f"palette must be 1 to 256 colours, got {palette}")
    if count < 0:
        raise ValueError(f"negative edge count {count}")
    out = np.empty(count, np.uint8)
    size = min(count, _CHUNK)
    # steps[k] = (k+1) * GAMMA, so a chunk starting at edge `start` has
    # words seed + start * GAMMA + steps, mod 2**64
    steps = np.arange(1, size + 1, dtype=np.uint64)
    np.multiply(steps, _U64_GAMMA, out=steps)
    words, scratch = np.empty(size, np.uint64), np.empty(size, np.uint64)
    div = np.uint64(palette)
    for start in range(0, count, _CHUNK):
        k = min(_CHUNK, count - start)
        z, t = words[:k], scratch[:k]
        np.add(steps[:k], np.uint64((seed + start * _GAMMA) & _MASK), out=z)
        for shift, mix in ((30, _U64_MIX1), (27, _U64_MIX2)):
            np.right_shift(z, shift, out=t)
            np.bitwise_xor(z, t, out=z)
            np.multiply(z, mix, out=z)
        np.right_shift(z, 31, out=t)
        np.bitwise_xor(z, t, out=z)
        if palette == 2:
            np.bitwise_and(z, 1, out=t)
        else:
            # z - (z // p) * p: numpy's division by a scalar is several
            # times faster than its remainder
            np.floor_divide(z, div, out=t)
            np.multiply(t, div, out=t)
            np.subtract(z, t, out=t)
        out[start : start + k] = t
    return out.tobytes()


def gen_random(kind: str, n: int, palette: int = 2, seed: int = 0, r: int | None = None):
    """Seeded random colouring of the given host."""
    if kind == "rxn":
        _check_materializable(n, r)
    else:
        _check_edge_cap(kind, n)
    m = _n_edges(kind, n, r)
    if palette not in (2, 3):
        raise ValueError(f"palette must be 2 or 3, got {palette}")
    if kind in ("h3", "rxn") and palette != 2:
        raise ValueError(f"{kind} hosts are 2-coloured")
    values = splitmix64_stream(seed, m, palette)
    if kind == "h3":
        return TripleColouring.from_digits(n, np.frombuffer(values, np.uint8))
    if kind == "rxn":
        return TransversalColouring(r, n, entries=values)
    return PairColouring(kind, n, palette, values)


def gen_split_bipartite(n: int, a1: int, b1: int) -> tuple[PairColouring, SplitStructure]:
    """Split colouring of bnn: edge (a, b) red iff the number of its
    endpoints inside the distinguished halves is even.

    The halves are the a1 lowest class-0 and b1 lowest class-1 vertices,
    so the entries are the r = 2 split rule's table in row-major order.
    The structure is checked against the table independently; raises
    AssertionError, also under ``python -O``, if they disagree.
    """
    if not (1 <= a1 <= n - 1 and 1 <= b1 <= n - 1):
        raise ValueError("split parts must leave both halves non-empty")
    _check_edge_cap("bnn", n)
    col = PairColouring("bnn", n, 2, HyperSplitSizes(2, n, (a1, b1)).table())
    structure = SplitStructure(
        a1=tuple(range(a1)),
        a2=tuple(range(a1, n)),
        b1=tuple(range(n, n + b1)),
        b2=tuple(range(n + b1, 2 * n)),
    )
    if not structure.verify(col):
        raise AssertionError("split table disagrees with its structure")
    return col, structure


def gen_v_colouring(n: int, cut: int) -> PairColouring:
    """Each colour spans a complete bipartite graph: class-1 vertices below
    the cut are red to all of class 0, the rest blue."""
    if not 1 <= cut <= n - 1:
        raise ValueError("cut out of range")
    _check_edge_cap("bnn", n)
    return PairColouring("bnn", n, 2, (bytes(cut) + b"\x01" * (n - cut)) * n)


def gen_recoloured_split(n: int, a1: int, b1: int, which: tuple[int, int]) -> PairColouring:
    """Split colouring with one red edge recoloured blue.

    `which` is the edge as (class-0 local id, class-1 local id); it must be
    red in the base split.
    """
    base, _ = gen_split_bipartite(n, a1, b1)
    a, b = which
    if not (0 <= a < n and 0 <= b < n):
        raise ValueError("recoloured edge out of range")
    ordinal = a * n + b
    if base.entries[ordinal] != 0:
        raise ValueError(f"edge ({a},{b}) is not red in the base split")
    entries = bytearray(base.entries)
    entries[ordinal] = 1
    return PairColouring("bnn", n, 2, bytes(entries))


def gen_three_colour_split(
    class0_blocks: tuple[int, int, int], class1_blocks: tuple[int, int, int]
) -> PairColouring:
    """Blow-up of a proper 3-edge-colouring of the 3x3 complete bipartite
    pattern: edges between class-0 block i and class-1 block j are coloured
    (i + j) mod 3, so every colour spans three vertex-disjoint complete
    bipartite blocks."""
    if len(class0_blocks) != 3 or len(class1_blocks) != 3:
        raise ValueError("need three block sizes per side")
    if any(s < 1 for s in class0_blocks + class1_blocks):
        raise ValueError("zero block")
    n = sum(class0_blocks)
    if sum(class1_blocks) != n:
        raise ValueError("sides must sum to the same n")
    _check_edge_cap("bnn", n)
    i = np.repeat(np.arange(3, dtype=np.uint8), class0_blocks)
    j = np.repeat(np.arange(3, dtype=np.uint8), class1_blocks)
    return PairColouring("bnn", n, 3, ((i[:, None] + j) % 3).tobytes())
