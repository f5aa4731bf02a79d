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

from dataclasses import dataclass

from .colourings import Colour, HyperSplitSizes, TransversalColouring

__all__ = [
    "ExceedsCap",
    "edge_colour_split",
    "validate_transversal_tight_path",
    "check_side_consistency",
    "CountingReport",
    "verify_counting",
    "min_cover_exact",
    "random_mono_tight_path",
]

DEFAULT_COVER_CAP = 14


class ExceedsCap(RuntimeError):
    """The instance is beyond the configured exhaustive-search bound."""


def edge_colour_split(sizes: HyperSplitSizes, edge_locals) -> Colour:
    """Colour of a transversal edge given local ids per class: red iff an
    even number of its vertices lie in the distinguished halves."""
    if len(edge_locals) != sizes.r:
        raise ValueError(f"edge must have {sizes.r} vertices, one per class")
    for v in edge_locals:
        if not 0 <= v < sizes.n:
            raise ValueError(f"local id {v} out of range")
    return Colour(sizes.colour_bit([i * sizes.n + v for i, v in enumerate(edge_locals)]))


def validate_transversal_tight_path(r: int, n: int, seq) -> bool:
    """True iff the global-id sequence has distinct vertices and every
    window of r consecutive vertices hits each class exactly once."""
    seq = list(seq)
    if len(set(seq)) != len(seq):
        return False
    for u in seq:
        if not 0 <= u < r * n:
            return False
    classes = [u // n for u in seq]
    for i in range(len(seq) - r + 1):
        if sorted(classes[i : i + r]) != list(range(r)):
            return False
    return True


def check_side_consistency(sizes: HyperSplitSizes, path) -> bool:
    """True iff the path avoids one half of every class.

    The path must be a monochromatic tight path of the split rule; every
    such path satisfies the property, which this operation computes rather
    than assumes.
    """
    path = list(path)
    r, n = sizes.r, sizes.n
    if not validate_transversal_tight_path(r, n, path):
        raise ValueError("not a transversal tight path")
    colours = {sizes.colour_bit(path[i : i + r]) for i in range(len(path) - r + 1)}
    if len(colours) > 1:
        raise ValueError("path is not monochromatic")
    for i in range(r):
        sides = {(u % n) < sizes.s[i] for u in path if u // n == i}
        if len(sides) > 1:
            return False
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

    Exhaustive search over piece sequences with memoized infeasible
    (covered-set, budget) states; pieces are enumerated with increasing
    minima and a fixed orientation, so results are deterministic.  Pieces
    shorter than r carry no edges and count as degenerate tight paths.
    """
    r, n = col.r, col.n
    total = r * n
    if total > DEFAULT_COVER_CAP:
        raise ExceedsCap(f"{total} vertices exceed the search cap {DEFAULT_COVER_CAP}")
    full = (1 << total) - 1
    classes = [u // n for u in range(total)]

    # each distinct ordered window goes through the validated lookup once
    colours: dict[tuple[int, ...], int] = {}

    def window_colour(window: tuple[int, ...]) -> int:
        c = colours.get(window)
        if c is None:
            c = colours[window] = col.colour_bit(window)
        return c

    def search(mask: int, budget: int, last_min: int, failed: set):
        if mask == full:
            return []
        if budget == 0:
            return None
        key = (mask, budget)
        if key in failed:
            return None
        uncovered = [u for u in range(total) if not (mask >> u) & 1]
        if uncovered[0] < last_min:
            failed.add(key)
            return None

        # piece DFS over states (covered, tail window, colour): sequences
        # sharing a state are interchangeable for extension and recursion
        seen_states: set = set()
        stack = []
        for start in reversed(uncovered):
            stack.append(([start], 1 << start, None))
        while stack:
            seq, pmask, colour = stack.pop()
            sub = search(mask | pmask, budget - 1, min(seq), failed)
            if sub is not None:
                piece_colour = Colour(colour) if colour is not None else Colour.RED
                return [(tuple(seq), piece_colour)] + sub
            tail = tuple(seq[-(r - 1) :]) if r > 1 else ()
            tail_classes = {classes[u] for u in tail}
            for w in uncovered:
                if (pmask >> w) & 1:
                    continue
                ncolour = colour
                grown = tail + (w,)
                if len(seq) + 1 >= r:
                    if classes[w] in tail_classes:
                        continue
                    c = window_colour(grown)
                    if ncolour is None:
                        ncolour = c
                    elif ncolour != c:
                        continue
                nmask = pmask | (1 << w)
                window = grown[-(r - 1) :] if r > 1 else ()
                state = (nmask, window, ncolour)
                if state in seen_states:
                    continue
                seen_states.add(state)
                stack.append((seq + [w], nmask, ncolour))
        failed.add(key)
        return None

    for k in range(1, total + 1):
        witness = search(0, k, -1, set())
        if witness is not None:
            return k, witness
    raise AssertionError("unreachable: singleton pieces always cover")


def random_mono_tight_path(sizes: HyperSplitSizes, rng):
    """Random monochromatic tight path of the split rule.

    It starts with one vertex of each class in random order, so it has at
    least one edge (length >= r) and its colour is determined; it then grows
    towards a random target length until no vertex extends it.  Used by
    property sweeps.
    """
    r, n = sizes.r, sizes.n
    order = list(range(r))
    rng.shuffle(order)
    path = []
    used = set()
    for cls_ in order:
        v = cls_ * n + rng.randrange(n)
        path.append(v)
        used.add(v)
    colour = sizes.colour_bit(path)
    half = sizes.half
    target = rng.randint(r, r * n)
    while len(path) < target:
        # the last window has `colour`, so the new window keeps it iff the
        # new vertex lies on the same side of its class as path[-r], the
        # vertex it replaces
        first = path[-r] // n * n
        want = half[path[-r]]
        options = [v for v in range(first, first + n) if v not in used and half[v] == want]
        if not options:
            break
        v = rng.choice(options)
        path.append(v)
        used.add(v)
    return path, Colour(colour)
