"""Split colourings of balanced multipartite uniform hypergraphs.

The rule colours a transversal edge red when it meets the distinguished
class halves in an even number of vertices.  Monochromatic tight paths in
such colourings stay on one side of every class (side consistency), which
is what drives the lower bounds on tight-path cover numbers; the counting
inequalities behind those bounds are checked with exact integers, and
small instances get an exact minimum-cover search.

Vertices are global ids with class i occupying [i*n, (i+1)*n).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import cycle

from .colourings import Colour, HyperSplitSizes, TransversalColouring, _bits

__all__ = [
    "ExceedsCap",
    "validate_transversal_tight_path",
    "check_side_consistency",
    "CountingReport",
    "verify_counting",
    "min_cover_exact",
    "random_mono_tight_path",
]

DEFAULT_COVER_CAP = 14
# Work one side-consistency report may spend on sampling, counted as
# half-table reads: a sample counts r*n + r, the length of its candidate
# lists plus its colour (see random_mono_tight_path), and samples past
# this many are dropped.  On a 2-core Xeon VM that is 0.1-0.2 s for n up
# to 5,000; a step's list deletion moves up to n ids, so at
# r = 2, n = 10**5 it is 0.9 s, and the one sample at r = 1, n = 2**20 - 1
# takes 17 s.
SAMPLE_WORK_CAP = 1 << 20
_COLOURS = (Colour.RED, Colour.BLUE)  # a split colour bit as a Colour


class ExceedsCap(RuntimeError):
    """The instance is beyond the configured exhaustive-search bound."""


def validate_transversal_tight_path(r: int, n: int, seq) -> bool:
    """True iff the global-id sequence has distinct vertices and every
    window of r consecutive vertices hits each class exactly once.

    Window i+1 is window i without classes[i] and with classes[i+r], so
    every window does iff the first one does and the classes have period
    r.  A sequence shorter than r has no window.  Any iterable is taken;
    a list is read without a copy."""
    if not isinstance(seq, list):
        seq = list(seq)
    if len(set(seq)) != len(seq):
        return False
    if seq and not (0 <= min(seq) and max(seq) < r * n):
        return False
    classes = [u // n for u in seq]
    return len(seq) < r or (sorted(classes[:r]) == list(range(r)) and classes[r:] == classes[:-r])


def check_side_consistency(sizes: HyperSplitSizes, path) -> bool:
    """True iff the path avoids one half of every class.

    The path must be a monochromatic tight path of the split rule; every
    such path satisfies the property, which this operation computes rather
    than assumes.  It reads the half table once per vertex, as h: window
    i+1's colour is window i's xor h[i] xor h[i+r], so the path is
    monochromatic iff h has period r.  A transversal path of r or more
    vertices holds class path[j] // n at positions j, j + r, ..., where
    that period makes h constant, so a monochromatic one is consistent.
    """
    path = list(path)
    r, n = sizes.r, sizes.n
    if not validate_transversal_tight_path(r, n, path):
        raise ValueError("not a transversal tight path")
    h = bytes(map(sizes.half.__getitem__, path))
    if h[r:] != h[:-r]:
        raise ValueError("path is not monochromatic")
    if len(path) < r:  # no window, so a class may repeat
        return len({(u // n, b) for u, b in zip(path, h)}) == len({u // n for u in path})
    return True


@dataclass(frozen=True)
class Inequality:
    label: str
    lhs: int
    rhs: int
    holds: bool
    slack: int


@dataclass(frozen=True)
class CountingReport:
    r: int
    n: int
    hypotheses_met: bool
    inequalities: tuple[Inequality, ...]

    @property
    def all_hold(self) -> bool:
        return all(iq.holds for iq in self.inequalities)


def verify_counting(r: int, n: int) -> CountingReport:
    """Exact-integer check of the growth inequalities behind the cover
    lower bound, with distinguished half sizes s_i = 3**i.

    Per class: 3**i exceeds the total reach of the earlier halves; overall
    the halves plus one vertex per piece still miss the last class's big
    half when n >= 3**(r+2).
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    hypotheses_met = n >= 3 ** (r + 2)
    rows = []
    prefix = 0
    for i in range(1, r + 1):
        lhs = 3**i
        rhs = prefix + i - 1
        rows.append(Inequality(f"class-{i}-growth", lhs, rhs, lhs > rhs, lhs - rhs))
        prefix += 3**i
    lhs = prefix + r
    rhs = n - 3**r - 1
    rows.append(Inequality("final-class-deficit", lhs, rhs, lhs <= rhs, rhs - lhs))
    return CountingReport(r, n, hypotheses_met, tuple(rows))


def min_cover_exact(col: TransversalColouring):
    """Exact minimum number of disjoint monochromatic tight paths covering
    all vertices, with a witness.

    Pieces shorter than r carry no edges and count as degenerate tight
    paths.  The search is a DFS over piece sequences in a fixed order, so
    results are deterministic; it returns the first cover that order meets
    with the fewest pieces.  Vertex sets are bitmasks: a piece grows by the
    uncovered vertices off it, minus the classes of its last r - 1 vertices
    once it has r - 1, taken in increasing order.  Three rules cut the
    search down without changing that cover:

    - Each piece holds the lowest vertex not yet covered, checked before
      recursing.  The pieces of any cover, taken in order of their lowest
      vertex, meet it, so the rule drops only reorderings.
    - `failed` maps a covered set (mask) to the largest budget proven too
      small for the rest; any smaller budget is too small as well, so one
      memo serves every k.  A state enters it only when its whole search
      found no cover, never for breaking the rule above, so no cover is
      lost to it.
    - For r = 2, the last piece must take every uncovered vertex.  So with
      budget 1, a piece that has its colour c is dropped, and not extended,
      unless every vertex left is reached from its end along colour-c
      edges through vertices left.  No cover extends a dropped piece, and
      an equal (covered, tail, colour) state is dropped the same way.  For
      r >= 3 the rule is not applied.

    For r = 2 every edge is read once, into `adj[c][u]`: the vertices w of
    the other class whose window (u, w) has colour c.  A piece of known
    colour then grows by one mask intersection, and the prune's reach is a
    breadth-first search over those masks.  For r = 1 and r >= 3 each
    window a grown piece meets is read once, when first met.  Raises
    ValueError unless `col` is an rxn host.
    """
    if not isinstance(col, TransversalColouring):
        raise ValueError("minimum cover needs an rxn host")
    r, n = col.r, col.n
    total = r * n
    if total > DEFAULT_COVER_CAP:
        raise ExceedsCap(f"{total} vertices exceed the search cap {DEFAULT_COVER_CAP}")
    full = (1 << total) - 1
    class_mask = [((1 << n) - 1) << (u // n * n) for u in range(total)]

    # each distinct ordered window goes through the validated lookup once
    colours: dict[tuple[int, ...], int] = {}

    def window_colour(window: tuple[int, ...]) -> int:
        c = colours.get(window)
        if c is None:
            c = colours[window] = col.colour_bit(window)
        return c

    adj = ([0] * total, [0] * total)
    if r == 2:
        # an edge's colour does not depend on the order of its vertices
        for u in range(n):
            for w in range(n, total):
                c = window_colour((u, w))
                adj[c][u] |= 1 << w
                adj[c][w] |= 1 << u

    def reaches_rest(covered: int, end: int, colour: int) -> bool:
        """r = 2: every vertex outside `covered` is reached from `end`
        along `colour` edges through vertices outside `covered`."""
        row = adj[colour]
        frontier = 1 << end
        while frontier:
            reach = 0
            for u in _bits(frontier):
                reach |= row[u]
            frontier = reach & ~covered
            covered |= frontier
        return covered == full

    failed: dict[int, int] = {}

    def search(mask: int, budget: int):
        if mask == full:
            return []
        if budget <= failed.get(mask, 0):
            return None
        left = full ^ mask
        lowest = left & -left
        last_piece = budget == 1 and r == 2

        # piece DFS over states (covered, tail window, colour): sequences
        # sharing a state are interchangeable for extension and recursion
        seen_states: set = set()
        stack = []
        for start in reversed(list(_bits(left))):  # for r = 1 a vertex is a window
            stack.append(([start], 1 << start, window_colour((start,)) if r == 1 else None))
        while stack:
            seq, pmask, colour = stack.pop()
            if pmask & lowest:
                sub = search(mask | pmask, budget - 1)
                if sub is not None:
                    piece_colour = _COLOURS[colour] if colour is not None else Colour.RED
                    return [(tuple(seq), piece_colour)] + sub
            tail = tuple(seq[-(r - 1) :]) if r > 1 else ()
            grows = left & ~pmask
            closes = len(seq) + 1 >= r  # the grown piece ends in a full window
            if r == 2:
                # the other class, or the part of it that keeps the colour
                last = seq[-1]
                grows &= (adj[0][last] | adj[1][last]) if colour is None else adj[colour][last]
            elif closes:
                for u in tail:
                    grows &= ~class_mask[u]
            for w in _bits(grows):
                ncolour = colour
                grown = tail + (w,)
                if closes and ncolour is None:
                    ncolour = (adj[1][last] >> w & 1) if r == 2 else window_colour(grown)
                elif closes and r != 2 and window_colour(grown) != ncolour:
                    continue
                nmask = pmask | (1 << w)
                window = grown[-(r - 1) :] if r > 1 else ()
                state = (nmask, window, ncolour)
                if state in seen_states:
                    continue
                seen_states.add(state)
                if last_piece and ncolour is not None and not reaches_rest(mask | nmask, w, ncolour):
                    continue
                stack.append((seq + [w], nmask, ncolour))
        failed[mask] = budget
        return None

    for k in range(1, total + 1):
        witness = search(0, k)
        if witness is not None:
            return k, witness
    raise AssertionError("unreachable: singleton pieces always cover")


def random_mono_tight_path(sizes: HyperSplitSizes, rng: random.Random):
    """Random monochromatic tight path of the split rule.

    It starts with one vertex of each class in random order, so it has at
    least one edge (length >= r) and its colour is determined; it then grows
    towards a random target length until no vertex extends it.  Used by
    property sweeps.  `rng` must be a `random.Random`: each step draws its
    index with `getrandbits` and the rejection loop of `Random.choice`, so
    the draws, and the paths, are those of `rng.choice(free)`.  A sample
    reads the half table r times (its colour), builds r candidate lists of
    about n ids each from ranges, and makes O(1) Python-level steps per
    vertex it adds.
    """
    r, n = sizes.r, sizes.n
    order = list(range(r))
    rng.shuffle(order)
    path = [cls_ * n + rng.randrange(n) for cls_ in order]
    colour = sizes.colour_bit(path)
    target = rng.randint(r, r * n)
    # the last window has `colour`, so the new window keeps it iff the new
    # vertex lies on the same side of its class as path[-r], the vertex it
    # replaces; so every vertex of a class keeps its start vertex's side,
    # and the candidates are the unused vertices of that side, ascending.
    # Classes have period r, so step j extends with the class of path[j % r]
    lists = []
    for v in path:
        side = sizes.side(v)
        free = list(side)
        del free[v - side.start]
        lists.append(free)
    getrandbits, append = rng.getrandbits, path.append
    for free, _ in zip(cycle(lists), range(target - r)):
        m = len(free)
        if not m:
            break
        k = m.bit_length()
        i = getrandbits(k)
        while i >= m:
            i = getrandbits(k)
        append(free.pop(i))
    return path, _COLOURS[colour]
