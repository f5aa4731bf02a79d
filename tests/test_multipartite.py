import bisect
import functools
import hashlib
import itertools
import json
import random

import pytest
from hypothesis import given, strategies as st

from monopart.certificates import PartitionCertificate, Piece, certify, check_certificate
from monopart.colourings import (
    BLUE,
    RED,
    Colour,
    HyperSplitSizes,
    PairColouring,
    TransversalColouring,
    parse_colouring,
    serialize_colouring,
)
from monopart.generators import gen_random, gen_split_bipartite
from monopart.multipartite import (
    ExceedsCap,
    check_side_consistency,
    min_cover_exact,
    random_mono_tight_path,
    validate_transversal_tight_path,
    verify_counting,
)
from monopart.oracles import oracle_min_pieces


def test_edge_colour_parity():
    # edges as global ids: class i holds [i*n, (i+1)*n)
    assert HyperSplitSizes(2, 2, (1, 1)).colour_bit((0, 2)) == RED
    sizes = HyperSplitSizes(3, 2, (1, 1, 1))
    assert sizes.colour_bit((0, 2, 5)) == RED  # two inside: even
    assert sizes.colour_bit((0, 3, 5)) == BLUE  # one inside: odd
    with pytest.raises(ValueError):
        TransversalColouring(3, 2, rule=sizes).colour_bit((0, 3))


def test_rule_agrees_with_bipartite_generator():
    for n in range(2, 6):
        for a1 in range(1, n):
            for b1 in range(1, n):
                col, _ = gen_split_bipartite(n, a1, b1)
                sizes = HyperSplitSizes(2, n, (a1, b1))
                for a in range(n):
                    for b in range(n, 2 * n):
                        assert col.colour_bit(a, b) == sizes.colour_bit((a, b))


def test_validate_windows():
    assert validate_transversal_tight_path(3, 3, [0, 3, 6, 1, 4, 7])
    assert not validate_transversal_tight_path(3, 3, [0, 3, 3])
    assert not validate_transversal_tight_path(3, 3, [0, 3, 4])
    assert validate_transversal_tight_path(3, 3, [0, 5])  # short: vacuously fine
    assert not validate_transversal_tight_path(3, 3, [0, 99])


def test_rotation_path_spans_mono_host():
    r, n = 3, 3
    seq = [c * n + j for j in range(n) for c in range(r)]
    assert validate_transversal_tight_path(r, n, seq)
    mono = TransversalColouring(r, n, entries=bytes(n**r))
    cert = PartitionCertificate.for_colouring(mono, [Piece("path", RED, tuple(seq))])
    assert check_certificate(mono, cert).ok


def test_side_consistency_trivial_cases():
    sizes = HyperSplitSizes(2, 3, (1, 1))
    assert check_side_consistency(sizes, [0])
    assert check_side_consistency(sizes, [0, 3])  # inside both first halves: red
    with pytest.raises(ValueError):
        check_side_consistency(sizes, [0, 3, 1, 4])  # mixes colours
    with pytest.raises(ValueError):
        check_side_consistency(sizes, [0, 1])  # not transversal


def test_side_consistency_random_paths(rng):
    for _ in range(3000):
        r = rng.choice([2, 3])
        n = rng.randint(2, 9)
        sizes = HyperSplitSizes(r, n, tuple(rng.randint(1, n - 1) for _ in range(r)))
        path, _colour = random_mono_tight_path(sizes, rng)
        assert check_side_consistency(sizes, path)


def test_short_path_with_a_repeated_class_is_not_consistent():
    # no window, so the class halves are read directly: 3 and 5 are both
    # in class 1, on different sides
    assert not check_side_consistency(HyperSplitSizes(3, 3, (1, 1, 1)), [3, 5])
    assert check_side_consistency(HyperSplitSizes(3, 3, (1, 1, 1)), [4, 5])


def _validate_per_window(r, n, seq):
    # reference: sort every window against range(r)
    seq = list(seq)
    if len(set(seq)) != len(seq) or any(not 0 <= u < r * n for u in seq):
        return False
    classes = [u // n for u in seq]
    return all(sorted(classes[i : i + r]) == list(range(r)) for i in range(len(seq) - r + 1))


def _side_consistency_per_window(sizes, path):
    # reference: one colour read per window, one scan of the path per class
    path = list(path)
    r, n = sizes.r, sizes.n
    if not _validate_per_window(r, n, path):
        raise ValueError("not a transversal tight path")
    if len({sizes.colour_bit(path[i : i + r]) for i in range(len(path) - r + 1)}) > 1:
        raise ValueError("path is not monochromatic")
    return all(len({u % n < sizes.s[i] for u in path if u // n == i}) <= 1 for i in range(r))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


def _assert_linear_checks_match(sizes, seq):
    r, n = sizes.r, sizes.n
    assert validate_transversal_tight_path(r, n, seq) == _validate_per_window(r, n, seq), seq
    got = _outcome(check_side_consistency, sizes, seq)
    assert got == _outcome(_side_consistency_per_window, sizes, seq), seq
    return got


def _periodic(r, n, order, length, locs):
    # classes repeat with period r; locals as given (repeats allowed)
    return [order[i % r] * n + locs[i] % n for i in range(length)]


def _near_tight_paths(sizes, rng):
    r, n = sizes.r, sizes.n
    path, _colour = random_mono_tight_path(sizes, rng)
    yield path
    yield path[: rng.randint(0, len(path))]
    order = rng.sample(range(r), r)
    k = rng.randint(0, 3 * r)
    per_class = [rng.sample(range(n), n) for _ in range(r)]
    yield [order[i % r] * n + per_class[order[i % r]][(i // r) % n] for i in range(k)]  # mixed
    yield _periodic(r, n, order, k, [rng.randrange(n) for _ in range(k)])  # may repeat
    for _ in range(3):
        bad = list(path)
        i = rng.randrange(len(bad))
        how = rng.randrange(3)
        if how == 0:
            bad[i] = rng.randrange(-1, r * n + 1)  # any id, out of range included
        elif how == 1:
            j = rng.randrange(len(bad))
            bad[i], bad[j] = bad[j], bad[i]  # a class repeat inside a window
        else:
            bad.insert(i, bad[rng.randrange(len(bad))])  # a repeated vertex
        yield bad
    yield [rng.randrange(r * n) for _ in range(rng.randint(0, r))]  # short, classes may repeat
    yield [rng.randrange(-1, r * n + 1) for _ in range(rng.randint(0, 3 * r))]


def test_linear_checks_match_per_window_definitions():
    rng = random.Random(15)
    seen = {}
    for trial in range(4000):
        r = 1 + trial % 4
        n = rng.randint(2, 6)
        sizes = HyperSplitSizes(r, n, tuple(rng.randint(1, n - 1) for _ in range(r)))
        for seq in _near_tight_paths(sizes, rng):
            got = _assert_linear_checks_match(sizes, seq)
            seen.setdefault(r, set()).add(got)
    every = {True, "ValueError: not a transversal tight path", "ValueError: path is not monochromatic"}
    for r in (1, 2, 3, 4):
        assert every <= seen[r], (r, seen[r])
    for r in (3, 4):
        assert False in seen[r]  # a path shorter than r with a class on both sides


@st.composite
def _split_and_sequence(draw):
    r = draw(st.integers(1, 4))
    n = draw(st.integers(2, 5))
    sizes = HyperSplitSizes(r, n, tuple(draw(st.integers(1, n - 1)) for _ in range(r)))
    locs = st.lists(st.integers(0, n - 1), max_size=3 * r + 2)
    seq = draw(st.one_of(
        st.lists(st.integers(-1, r * n), max_size=3 * r + 2),
        st.builds(lambda order, ls: _periodic(r, n, order, len(ls), ls), st.permutations(range(r)), locs),
    ))
    return sizes, seq


@given(_split_and_sequence())
def test_linear_checks_match_per_window_definitions_property(case):
    _assert_linear_checks_match(*case)


def test_counting_report_values():
    rep = verify_counting(2, 81)
    assert rep.hypotheses_met and rep.all_hold
    by_label = {iq.label: iq for iq in rep.inequalities}
    assert by_label["class-2-growth"].lhs == 9
    assert by_label["class-2-growth"].rhs == 4  # 3 + 1

    rep = verify_counting(1, 27)
    assert rep.hypotheses_met and rep.all_hold
    assert rep.inequalities[0].lhs == 3 and rep.inequalities[0].rhs == 0

    rep = verify_counting(10, 3**12)
    assert rep.hypotheses_met and rep.all_hold


def test_counting_below_threshold_reports_unmet():
    rep = verify_counting(2, 80)
    assert not rep.hypotheses_met


def test_min_cover_mono_rotation():
    mono = TransversalColouring(3, 2, entries=bytes(8))
    k, witness = min_cover_exact(mono)
    assert k == 1
    (seq, colour), = witness
    assert validate_transversal_tight_path(3, 2, seq) and len(seq) == 6


def test_min_cover_small_split_values():
    # frozen values from the exhaustive search itself; the narrow blocks of
    # s=(1,2) at n=4 still admit two spanning block paths
    col = TransversalColouring(2, 4, rule=HyperSplitSizes(2, 4, (1, 2)))
    k, witness = min_cover_exact(col)
    assert k == 2
    cert = PartitionCertificate.for_colouring(
        col.materialize(), [Piece("path", c, tuple(s)) for s, c in witness]
    )
    assert check_certificate(col.materialize(), cert).ok

    k, _ = min_cover_exact(TransversalColouring(2, 2, rule=HyperSplitSizes(2, 2, (1, 1))))
    assert k == 2


def test_min_cover_deterministic():
    col = TransversalColouring(2, 2, rule=HyperSplitSizes(2, 2, (1, 1)))
    assert min_cover_exact(col) == min_cover_exact(col)


def _two_block_paths_feasible(n, a, b):
    # analytic two-piece criterion: both monochromatic block pairs must be
    # coverable by single spanning paths, which needs near-square blocks
    return abs(a - b) <= 1 or abs(a + b - n) <= 1


@functools.cache
def _block_covers():
    """`min_cover_exact` on every rule-backed r = 2 host with n <= 7, keyed
    by (n, a, b); shared by the block analysis and the witness pins."""
    return {
        (n, a, b): min_cover_exact(TransversalColouring(2, n, rule=HyperSplitSizes(2, n, (a, b))))
        for n in range(2, 8) for a in range(1, n) for b in range(1, n)
    }


def test_min_cover_matches_block_analysis():
    for (n, a, b), (k, witness) in _block_covers().items():
        assert k >= 2
        assert (k == 2) == _two_block_paths_feasible(n, a, b), (n, a, b, k)
        masks = [frozenset(seq) for seq, _ in witness]
        assert sum(len(m) for m in masks) == 2 * n


def test_min_cover_matches_the_partition_oracle():
    # an r = 2 host is a 2-coloured bipartite host with entry (a, b) the
    # colour of the window (a, n + b); a monochromatic cycle opens into a
    # path, so the oracle's minimum over paths and cycles is the cover's
    for n in range(1, 6):
        for seed in range(40):
            col = gen_random("rxn", n, 2, seed=seed, r=2)
            bnn = PairColouring.from_function("bnn", n, 2, lambda u, v: col.colour_bit((u, v)))
            assert min_cover_exact(col)[0] == oracle_min_pieces(bnn), (n, seed)


def test_min_cover_cap():
    col = TransversalColouring(2, 8, rule=HyperSplitSizes(2, 8, (1, 1)))
    with pytest.raises(ExceedsCap):
        min_cover_exact(col)


def test_random_mono_tight_path_samples_pinned():
    # the first 20 samples for one seed over r in {1, 2, 3}, as computed
    # before the sampler lost its never-taken retry loop
    rng = random.Random(2024)
    samples = []
    for _ in range(20):
        r = rng.choice([1, 2, 3])
        n = rng.randint(2, 6)
        sizes = HyperSplitSizes(r, n, tuple(rng.randint(1, n - 1) for _ in range(r)))
        path, colour = random_mono_tight_path(sizes, rng)
        samples.append([r, n, list(sizes.s), path, int(colour)])
    assert samples[:2] == [[2, 3, [2, 1], [2, 4], 0], [1, 5, [3], [3, 4], 0]]
    digest = hashlib.sha256(json.dumps(samples).encode()).hexdigest()
    assert digest == "9b92b22c14626cf49f8b2a1703961e1496536897ef85a8b5816e9ad163712d33"


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


def _cover_record(col):
    try:
        k, witness = min_cover_exact(col)
    except ValueError as exc:
        return f"error: {exc}"
    return [k, [[list(seq), int(colour)] for seq, colour in witness]]


def test_min_cover_witnesses_pinned():
    # every rule-backed r = 2 host with n <= 7, and seeded materialised hosts
    # with r in (2, 3) and r * n <= 12; r = 3 hosts that reach a window
    # repeating a class pin its error (the known r >= 3 defect).  The r = 1
    # hosts are checked against their colour count below.
    rule = [[n, a, b, k, [[list(seq), int(c)] for seq, c in witness]]
            for (n, a, b), (k, witness) in _block_covers().items()]
    assert _digest(rule) == "8203002ae71698958cf521438f7645c8dafe6c260c783365ce093e977ef0db86"
    materialised = [[r, n, seed, _cover_record(gen_random("rxn", n, 2, seed=seed, r=r))]
                    for r in (2, 3) for n in range(1, 12 // r + 1) for seed in range(4)]
    assert _digest(materialised) == "1d7771484ce7194a89a793171ae3ec476c1c1419b34806793c96bd54e66081ff"


def test_min_cover_r1_is_one_piece_per_colour():
    # with r = 1 every vertex is an edge: a piece is any run of vertices of
    # one colour, so the minimum is the number of colours present
    for n in range(1, 13):
        for seed in range(8):
            col = gen_random("rxn", n, 2, seed=seed, r=1)
            k, witness = min_cover_exact(col)
            assert k == len(set(col.entries)), (n, seed)
            certify(col, [Piece("path", c, seq) for seq, c in witness])


def test_random_mono_tight_path_pinned_at_bench_sizes():
    # 200 samples on each of the benchmark's rule-backed split hosts and on
    # one r = 3 host
    samples = []
    for sizes in (HyperSplitSizes(2, 20, (6, 10)), HyperSplitSizes(2, 24, (8, 12)),
                  HyperSplitSizes(3, 9, (2, 4, 7))):
        rng = random.Random(sizes.n)
        for _ in range(200):
            path, colour = random_mono_tight_path(sizes, rng)
            samples.append([path, int(colour)])
    assert _digest(samples) == "fac98d4665ad98da55e0b59819102ca442c88cf54282e39b0aec151853995338"


def _count_lookups(monkeypatch, cls) -> list[int]:
    """Count `cls.colour_bit` calls in the returned one-item list."""
    calls = [0]
    lookup = cls.colour_bit

    def counting(self, edge):
        calls[0] += 1
        return lookup(self, edge)

    monkeypatch.setattr(cls, "colour_bit", counting)
    return calls


def test_min_cover_reads_each_window_once(monkeypatch):
    n = 7
    col = TransversalColouring(2, n, rule=HyperSplitSizes(2, n, (2, 3)))
    calls = _count_lookups(monkeypatch, TransversalColouring)
    min_cover_exact(col)
    assert calls[0] <= 2 * n * n  # the ordered windows (u, w) of two classes


def test_random_mono_tight_path_reads_colours_from_the_table(monkeypatch):
    sizes = HyperSplitSizes(2, 24, (8, 12))
    calls = _count_lookups(monkeypatch, HyperSplitSizes)
    path, _colour = random_mono_tight_path(sizes, random.Random(3))
    assert len(path) > 2 * sizes.r
    assert calls[0] <= sizes.r + 1


class _CountingTable:
    """A half table that counts its reads."""

    def __init__(self, table: bytes):
        self.table = table
        self.reads = 0

    def __getitem__(self, u: int) -> int:
        self.reads += 1
        return self.table[u]


def test_random_mono_tight_path_reads_each_table_entry_once(monkeypatch):
    sizes = HyperSplitSizes(2, 60, (20, 30))
    table = _CountingTable(sizes.half)
    monkeypatch.setattr(HyperSplitSizes, "half", property(lambda self: table))
    rng = random.Random(5)
    longest = 0
    for _ in range(20):
        table.reads = 0
        path, _colour = random_mono_tight_path(sizes, rng)
        longest = max(longest, len(path))
        # one read per vertex of the host and per vertex of the path; a
        # scan of the next class at each step makes O(n) per step
        assert table.reads <= sizes.r * sizes.n + len(path)
    assert longest > sizes.n


def _reference_random_mono_tight_path(sizes, rng):
    # the sampler before its draws went inline: one `rng.choice` per step,
    # and candidate lists from a scan of the half table
    r, n = sizes.r, sizes.n
    order = list(range(r))
    rng.shuffle(order)
    path = [cls_ * n + rng.randrange(n) for cls_ in order]
    colour = sizes.colour_bit(path)
    half = sizes.half
    target = rng.randint(r, r * n)
    options = {}
    for v in path:
        first, side = v // n * n, half[v]
        options[v // n] = [u for u in range(first, first + n) if u != v and half[u] == side]
    while len(path) < target:
        free = options[path[-r] // n]
        if not free:
            break
        v = rng.choice(free)
        del free[bisect.bisect_left(free, v)]
        path.append(v)
    return path, Colour(colour)


def test_random_mono_tight_path_matches_the_choice_sampler():
    # same paths, colours and generator state after every sample
    for r in (1, 2, 3, 4):
        for n in range(2, 31):
            seed = r * 100 + n
            splits = random.Random(seed)
            sizes = HyperSplitSizes(r, n, tuple(splits.randint(1, n - 1) for _ in range(r)))
            rng, ref = random.Random(seed), random.Random(seed)
            for _ in range(6):
                path, colour = random_mono_tight_path(sizes, rng)
                assert (path, colour) == _reference_random_mono_tight_path(sizes, ref), sizes
                assert type(colour) is Colour
                assert rng.getstate() == ref.getstate(), sizes


def test_random_mono_tight_path_reads_the_half_table_per_class(monkeypatch):
    # start vertices and colour only: building the candidate lists from the
    # half table would read it r * n more times
    sizes = HyperSplitSizes(3, 30, (10, 15, 20))
    table = _CountingTable(sizes.half)
    monkeypatch.setattr(HyperSplitSizes, "half", property(lambda self: table))
    rng = random.Random(5)
    longest = 0
    for _ in range(20):
        table.reads = 0
        path, _colour = random_mono_tight_path(sizes, rng)
        longest = max(longest, len(path))
        assert table.reads <= 2 * sizes.r
    assert longest > sizes.n


def test_side_range_matches_the_half_table():
    for r in (1, 2, 3):
        for n in range(2, 9):
            for s in itertools.product(range(1, n), repeat=r):
                sizes = HyperSplitSizes(r, n, s)
                half = sizes.half
                for v in range(r * n):
                    want = [u for u in range(v // n * n, (v // n + 1) * n) if half[u] == half[v]]
                    assert list(sizes.side(v)) == want, (s, v)


def test_side_consistency_reads_each_vertex_once(monkeypatch):
    sizes = HyperSplitSizes(3, 40, (10, 20, 30))
    rng = random.Random(9)
    paths = [random_mono_tight_path(sizes, rng)[0] for _ in range(10)]
    paths.append(paths[0][:2] + paths[1][2:])  # not monochromatic in general
    table = _CountingTable(sizes.half)
    monkeypatch.setattr(HyperSplitSizes, "half", property(lambda self: table))
    calls = _count_lookups(monkeypatch, HyperSplitSizes)
    for path in paths:
        table.reads = 0
        _outcome(check_side_consistency, sizes, path)
        assert table.reads <= len(path)
    assert calls[0] == 0  # one colour read per window would make len(path) - r + 1


def test_split_colour_bit_matches_definition():
    for r in (1, 2, 3):
        for n in range(2, 6):
            for s in itertools.product(range(1, n), repeat=r):
                sizes = HyperSplitSizes(r, n, s)
                for locs in itertools.product(range(n), repeat=r):
                    edge = [i * n + v for i, v in enumerate(locs)]
                    assert sizes.colour_bit(edge) == sum(u % n < s[u // n] for u in edge) & 1


def test_split_table_leaves_identity_and_text_unchanged():
    sizes = HyperSplitSizes(2, 4, (1, 2))
    col = TransversalColouring(2, 4, rule=sizes)
    min_cover_exact(col)  # reads colours through the table
    assert sizes == HyperSplitSizes(2, 4, (1, 2)) and sizes != HyperSplitSizes(2, 4, (2, 1))
    assert hash(sizes) == hash((2, 4, (1, 2)))
    assert repr(sizes) == "HyperSplitSizes(r=2, n=4, s=(1, 2))"
    assert serialize_colouring(col) == "rxn 4 2\nsplit 1 2\n"
    # a rule-backed host is read and written without building its table
    text = "rxn 1000000000000 2\nsplit 1 1\n"
    assert serialize_colouring(parse_colouring(text)) == text


def _reference_min_cover(col):
    """`min_cover_exact` as it was before its search moved to vertex
    bitmasks: vertex lists, a per-state scan of every uncovered vertex and
    a per-vertex reach search.  The mask search must meet the same first
    cover, or raise the same error."""
    r, n = col.r, col.n
    total = r * n
    full = (1 << total) - 1
    classes = [u // n for u in range(total)]
    colours = {}

    def window_colour(window):
        c = colours.get(window)
        if c is None:
            c = colours[window] = col.colour_bit(window)
        return c

    def reaches_rest(mask, end, colour):
        todo = [end]
        while todo:
            u = todo.pop()
            first = (1 - classes[u]) * n
            for w in range(first, first + n):
                if not (mask >> w) & 1 and window_colour((u, w)) == colour:
                    mask |= 1 << w
                    todo.append(w)
        return mask == full

    failed = {}

    def search(mask, budget):
        if mask == full:
            return []
        if budget <= failed.get(mask, 0):
            return None
        uncovered = [u for u in range(total) if not (mask >> u) & 1]
        lowest = 1 << uncovered[0]
        last_piece = budget == 1 and r == 2
        seen_states = set()
        stack = []
        for start in reversed(uncovered):
            stack.append(([start], 1 << start, window_colour((start,)) if r == 1 else None))
        while stack:
            seq, pmask, colour = stack.pop()
            if pmask & lowest:
                sub = search(mask | pmask, budget - 1)
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
                if last_piece and ncolour is not None and not reaches_rest(mask | nmask, w, ncolour):
                    continue
                stack.append((seq + [w], nmask, ncolour))
        failed[mask] = budget
        return None

    for k in range(1, total + 1):
        witness = search(0, k)
        if witness is not None:
            return k, witness


def _cover_sweep():
    """Seeded hosts with r = 1-4 and r * n <= 12: random materialised ones,
    rule-backed splits and the same splits materialised."""
    rng = random.Random(25)
    hosts = []
    for r in (1, 2, 3, 4):
        for n in range(1, 12 // r + 1):
            hosts += [gen_random("rxn", n, 2, seed=seed, r=r) for seed in range(4)]
            for _ in range(3 if n >= 2 else 0):
                sizes = HyperSplitSizes(r, n, tuple(rng.randint(1, n - 1) for _ in range(r)))
                rule = TransversalColouring(r, n, rule=sizes)
                hosts += [rule, rule.materialize()]
    return hosts


def test_min_cover_matches_the_list_search():
    hosts = _cover_sweep()
    errors = 0
    for col in hosts:
        expected = _outcome(_reference_min_cover, col)
        assert _outcome(min_cover_exact, col) == expected, col
        errors += isinstance(expected, str)
    assert 0 < errors < len(hosts)  # the sweep reaches the r >= 3 window error


def test_min_cover_reads_each_distinct_window_once(monkeypatch):
    windows = []
    lookup = TransversalColouring.colour_bit

    def recording(self, edge):
        windows.append(tuple(edge))
        return lookup(self, edge)

    monkeypatch.setattr(TransversalColouring, "colour_bit", recording)
    for col in _cover_sweep():
        windows.clear()
        _outcome(min_cover_exact, col)
        assert len(windows) == len(set(windows)), col
