import hashlib
import inspect
import itertools
import random
import sys

import pytest

import monopart.bipartite as bp
from monopart.bipartite import (
    BalancedC4Present,
    SplitDetected,
    VColStructure,
    classify_bipartite,
    extend_good_cycle,
    find_balanced_c4,
    is_good_cycle,
    near_mono_spanning_path,
    partition_path_cycle,
    partition_path_cycle_coloured,
    spanning_bicoloured_or_mono_cycle,
    split_three_paths,
    two_paths,
    v_two_cycles,
)
from monopart.certificates import PartitionCertificate, Piece, check_certificate
from monopart.colourings import BLUE, RED, PairColouring, SplitStructure
from monopart.generators import (
    gen_random,
    gen_recoloured_split,
    gen_split_bipartite,
    gen_v_colouring,
)
from monopart.oracles import find_good_c4
from monopart.solve import solve
from monopart.threecolour import _split_cycles
from tests.conftest import all_bnn_colourings


def verified(col, pieces):
    cert = PartitionCertificate.for_colouring(col, pieces)
    res = check_certificate(col, cert)
    assert res.ok, res
    return cert


# -- classification ----------------------------------------------------


def test_classify_generators():
    col, _ = gen_split_bipartite(3, 1, 1)
    assert classify_bipartite(col).kind == "split"
    assert classify_bipartite(gen_v_colouring(3, 1)).kind == "vcol"
    v = classify_bipartite(gen_recoloured_split(3, 1, 1, (0, 0)))
    assert v.kind == "other" and is_good_cycle(col, v.good_c4) is not None


def test_classify_rejects_palette3():
    col = PairColouring.constant("bnn", 2, 3, 2)
    with pytest.raises(ValueError):
        classify_bipartite(col)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_classify_matches_scan_exhaustive(n):
    for idx, col in all_bnn_colourings(n):
        verdict = classify_bipartite(col)
        witness = find_good_c4(col)
        assert (verdict.kind == "other") == (witness is not None), idx
        if witness is not None:
            assert is_good_cycle(col, witness)
            assert is_good_cycle(col, verdict.good_c4)
        if verdict.kind == "split":
            assert verdict.split.verify(col)
        if verdict.kind == "vcol":
            assert verdict.vcol.verify(col)


def _relabelled(col, p0, p1):
    """`col` with class-0 local id a renamed p0[a] and class-1 local id b
    renamed p1[b]."""
    n, e = col.n, col.entries
    out = bytearray(n * n)
    for a in range(n):
        for b in range(n):
            out[p0[a] * n + p1[b]] = e[a * n + b]
    return PairColouring("bnn", n, 2, bytes(out))


def _shuffled(col, rng):
    """`col` with the ids inside each class shuffled by `rng`."""
    n = col.n
    return _relabelled(col, rng.sample(range(n), n), rng.sample(range(n), n))


def _transposed(col):
    """`col` with its two classes swapped."""
    n = col.n
    return PairColouring("bnn", n, 2, b"".join(col.entries[b::n] for b in range(n)))


def _classify_hosts():
    """Every bnn colouring with n <= 3, then for each n up to 24 seeded
    mono, split, V (on both classes), recoloured-split and random hosts,
    the structured ones with shuffled vertex ids."""
    rng = random.Random(24)
    for n in (1, 2, 3):
        for _, col in all_bnn_colourings(n):
            yield col
    for n in range(2, 25):
        a1, b1 = rng.randrange(1, n), rng.randrange(1, n)
        yield PairColouring.constant("bnn", n, 2, rng.randrange(2))
        yield _shuffled(gen_split_bipartite(n, a1, b1)[0], rng)
        v = gen_v_colouring(n, rng.randrange(1, n))
        yield _shuffled(v, rng)
        yield _shuffled(_transposed(v), rng)
        which = (rng.randrange(a1), rng.randrange(b1))
        yield _shuffled(gen_recoloured_split(n, a1, b1, which), rng)
        yield gen_random("bnn", n, 2, seed=n)


def _verdict_digest(cols):
    """sha256 over (kind, colour, split, vcol) of each verdict, one line
    each."""
    h = hashlib.sha256()
    for col in cols:
        v = classify_bipartite(col)
        colour = None if v.colour is None else int(v.colour)
        split = None if v.split is None else (v.split.a1, v.split.a2, v.split.b1, v.split.b2)
        vcol = None if v.vcol is None else (v.vcol.bichro_class, v.vcol.red_arm, v.vcol.blue_arm)
        h.update(f"{v.kind} {colour} {split} {vcol}\n".encode())
    return h.hexdigest()


def test_classify_verdicts_pinned():
    # a rewrite of classify_bipartite keeps every kind and structure
    assert _verdict_digest(_classify_hosts()) == (
        "f35c00b47d03c7eacd9985aff3f8b663a68a3a1c788ce3b84236023279ad947c"
    )


def _perturbed_class1_v():
    """Every one-bit change of every class-1 V colouring with n <= 6."""
    for n in range(2, 7):
        for cut in range(1, n):
            base = _transposed(gen_v_colouring(n, cut)).entries
            for i in range(n * n):
                flipped = bytearray(base)
                flipped[i] ^= 1
                yield PairColouring("bnn", n, 2, bytes(flipped))


def test_classify_witness_is_the_first_good_c4():
    for col in itertools.chain(_classify_hosts(), _perturbed_class1_v()):
        assert classify_bipartite(col).good_c4 == find_good_c4(col), col.entries


def _split_holds(col, s):
    """Per edge: the parts partition the classes, and an edge is red
    exactly when it joins a1 to b1 or a2 to b2."""
    n = col.n
    if sorted(s.a1 + s.a2) != list(range(n)) or sorted(s.b1 + s.b2) != list(range(n, 2 * n)):
        return False
    return all(
        (col.colour_bit(a, b) == RED) == ((a in s.a1) == (b in s.b1))
        for a in range(n)
        for b in range(n, 2 * n)
    )


def _vcol_holds(col, v):
    """Per edge: the arms partition the other class, and each vertex of the
    bichromatic class is red to the red arm and blue to the blue arm."""
    if v.bichro_class not in (0, 1) or not v.red_arm or not v.blue_arm:
        return False
    opp = list(col.class_vertices(1 - v.bichro_class))
    if sorted(v.red_arm + v.blue_arm) != opp:
        return False
    return all(
        col.colour_bit(u, w) == (RED if w in v.red_arm else BLUE)
        for u in col.class_vertices(v.bichro_class)
        for w in opp
    )


def _proper_subsets(vertices):
    return [c for m in range(1, len(vertices)) for c in itertools.combinations(vertices, m)]


def _moved(parts):
    """`parts` with one vertex moved to another part, each way."""
    for i, part in enumerate(parts):
        for x in part:
            for j in range(len(parts)):
                if j != i:
                    new = [list(p) for p in parts]
                    new[i].remove(x)
                    new[j].append(x)
                    yield tuple(tuple(sorted(p)) for p in new)


def _split_candidates(col, verdict):
    n = col.n
    zero, one = range(n), range(n, 2 * n)
    out = [(a1, tuple(a for a in zero if a not in a1), b1, tuple(b for b in one if b not in b1))
           for a1 in _proper_subsets(zero) for b1 in _proper_subsets(one)]
    if verdict.kind == "split":
        s = verdict.split
        out += _moved((s.a1, s.a2, s.b1, s.b2))
    return [SplitStructure(*parts) for parts in out if all(parts)]


def _vcol_candidates(col, verdict):
    out = []
    for side in (0, 1):
        opp = col.class_vertices(1 - side)
        # every split of the other class into arms, an empty arm included
        out += [(side, red, tuple(w for w in opp if w not in red))
                for m in range(len(opp) + 1) for red in itertools.combinations(opp, m)]
    if verdict.kind == "vcol":
        v = verdict.vcol
        own = list(col.class_vertices(v.bichro_class))
        out.append((1 - v.bichro_class, v.red_arm, v.blue_arm))
        out += [(v.bichro_class, red, blue) for red, blue in _moved((v.red_arm, v.blue_arm))]
        # one arm vertex swapped for a vertex of the bichromatic class
        for i in range(len(v.red_arm)):
            out += [(v.bichro_class, v.red_arm[:i] + (u,) + v.red_arm[i + 1 :], v.blue_arm)
                    for u in own]
    return [VColStructure(*parts) for parts in out]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_structure_witnesses_match_the_per_edge_rule(n):
    checked = 0
    for idx, col in all_bnn_colourings(n):
        verdict = classify_bipartite(col)
        for s in _split_candidates(col, verdict):
            assert s.verify(col) == _split_holds(col, s), (idx, s)
            checked += 1
        for v in _vcol_candidates(col, verdict):
            assert v.verify(col) == _vcol_holds(col, v), (idx, v)
            checked += 1
    assert checked > 1 << (n * n)


def test_good_c4_none_for_structured():
    assert find_good_c4(PairColouring.constant("bnn", 3, 2, 0)) is None
    col, _ = gen_split_bipartite(4, 2, 1)
    assert find_good_c4(col) is None
    assert find_good_c4(gen_v_colouring(4, 2)) is None


# -- balanced C4 and the near-monochromatic remainder -------------------


def test_balanced_c4_counts():
    allred = PairColouring.constant("bnn", 2, 2, 0)
    assert find_balanced_c4(allred, [0, 1], [2, 3]) is None
    # two edges of each colour in either arrangement is balanced
    rrbb = PairColouring("bnn", 2, 2, bytes([0, 0, 1, 1]))
    assert find_balanced_c4(rrbb, [0, 1], [2, 3]) is not None
    rbrb = PairColouring("bnn", 2, 2, bytes([0, 1, 0, 1]))
    assert find_balanced_c4(rbrb, [0, 1], [2, 3]) is not None


def test_balanced_c4_rejects_unbalanced_subset():
    col = PairColouring.constant("bnn", 2, 2, 0)
    with pytest.raises(ValueError):
        find_balanced_c4(col, [0, 1], [2])


@pytest.mark.parametrize("n", [2, 3])
def test_near_mono_equivalence_exhaustive(n):
    for idx, col in all_bnn_colourings(n):
        quad = find_balanced_c4(col, range(n), range(n, 2 * n))
        reds = sum(1 for e in col.entries if e == RED)
        assert (quad is None) == (min(reds, n * n - reds) <= 1), idx


def _first_balanced_c4(col, s0, s1):
    """Brute force: the first (a, b, a2, b2) in lexicographic order of the
    class pairs whose four edges carry two reds."""
    for a, a2 in itertools.combinations(sorted(s0), 2):
        for b, b2 in itertools.combinations(sorted(s1), 2):
            if [col.colour_bit(x, y) for x in (a, a2) for y in (b, b2)].count(RED) == 2:
                return (a, b, a2, b2)
    return None


@pytest.mark.parametrize("n", [1, 2, 3])
def test_balanced_c4_matches_first_hit_scan(n):
    pairs = [
        (s0, s1)
        for m in range(n + 1)
        for s0 in itertools.combinations(range(n), m)
        for s1 in itertools.combinations(range(n, 2 * n), m)
    ]
    for idx, col in all_bnn_colourings(n):
        for s0, s1 in pairs:
            want = _first_balanced_c4(col, s0, s1)
            assert find_balanced_c4(col, s0, s1) == want, (idx, s0, s1)
            if want is not None:
                # the spanning-path search raises the same witness
                with pytest.raises(BalancedC4Present) as exc:
                    near_mono_spanning_path(col, s0, s1)
                assert exc.value.witness == want, (idx, s0, s1)


def _off_edge(n):
    """All red but the edge (0, n): one blue edge, so no balanced C4."""
    entries = bytearray(n * n)
    entries[0] = 1
    return PairColouring("bnn", n, 2, bytes(entries))


class _CountingRow:
    """A row of the raw colour view that counts its reads."""

    def __init__(self, row, calls):
        self.row = row
        self.calls = calls

    def __getitem__(self, v):
        self.calls[0] += 1
        return self.row[v]


def _count_lookups(monkeypatch) -> list[int]:
    """Count colour reads of `PairColouring` hosts in the returned one-item
    list: reads through the raw view `rows` and validated `colour_bit`
    calls alike."""
    calls = [0]
    lookup = PairColouring.colour_bit
    view = PairColouring.rows.fget

    def counting(self, u, v):
        calls[0] += 1
        return lookup(self, u, v)

    def counting_rows(self):
        return [_CountingRow(row, calls) for row in view(self)]

    monkeypatch.setattr(PairColouring, "colour_bit", counting)
    monkeypatch.setattr(PairColouring, "rows", property(counting_rows))
    return calls


def test_balanced_c4_free_host_is_answered_by_counting(monkeypatch):
    n = 64
    col = _off_edge(n)
    calls = _count_lookups(monkeypatch)
    assert find_balanced_c4(col, range(n), range(n, 2 * n)) is None
    assert calls[0] <= 2 * n * n


def test_near_mono_path_all_red():
    col = PairColouring.constant("bnn", 3, 2, 0)
    path, colour = near_mono_spanning_path(col, range(3), range(3, 6))
    assert colour == RED and len(path) == 6
    assert verified(col, [Piece("path", colour, tuple(path))])


def test_near_mono_path_avoids_lone_edge():
    n = 2
    for pos in range(4):
        entries = bytearray([0, 0, 0, 0])
        entries[pos] = 1
        col = PairColouring("bnn", n, 2, bytes(entries))
        path, colour = near_mono_spanning_path(col, range(n), range(n, 2 * n))
        assert colour == RED and len(path) == 4
        cert = verified(col, [Piece("path", colour, tuple(path))])
        assert cert


def test_near_mono_path_single_pair():
    col = PairColouring("bnn", 1, 2, bytes([1]))
    path, colour = near_mono_spanning_path(col, [0], [1])
    assert path == [0, 1] and colour == BLUE


def test_near_mono_raises_on_balanced_c4():
    rrbb = PairColouring("bnn", 2, 2, bytes([0, 1, 1, 0]))
    with pytest.raises(BalancedC4Present):
        near_mono_spanning_path(rrbb, [0, 1], [2, 3])


# -- cycle machinery ----------------------------------------------------


def test_extension_stays_inside_and_grows(rng):
    for trial in range(400):
        n = rng.randint(4, 6)
        col = gen_random("bnn", n, 2, seed=trial)
        goods = []
        quads = []
        for a, a2 in itertools.combinations(range(n), 2):
            for b, b2 in itertools.combinations(range(n, 2 * n), 2):
                cyc = (a, b, a2, b2)
                if is_good_cycle(col, cyc):
                    goods.append(cyc)
                reds = sum(col.colour_bit(u, w) == RED for u in (a, a2) for w in (b, b2))
                if reds == 2:
                    quads.append(cyc)
        for g in goods[:3]:
            for q in quads:
                if set(g) & set(q):
                    continue
                seq, ell = extend_good_cycle(col, bp._frame(col, list(g), RED), set(q))
                assert is_good_cycle(col, seq)
                assert (seq, ell) == bp._frame(col, seq, RED)
                assert len(seq) > len(g)
                assert set(seq) <= set(g) | set(q)


def test_extension_rejects_a_frame_with_a_wrong_ell():
    # a hand-built frame is read once: the good C4's frame with its other
    # even ell still passes as good, but its runs contradict the colours
    cases = 0
    for seed in itertools.count():
        col = gen_random("bnn", 6, 2, seed=seed)
        c4 = classify_bipartite(col).good_c4
        if c4 is None:
            continue
        rest = [u for u in range(12) if u not in c4]
        quad = find_balanced_c4(col, rest[:4], rest[4:])
        if quad is None:
            continue
        seq, ell = bp._frame(col, list(c4), RED)
        assert bp._is_good(col, seq, 6 - ell)
        with pytest.raises(ValueError, match="not its cycle's red-led frame"):
            extend_good_cycle(col, (seq, 6 - ell), quad)
        assert is_good_cycle(col, extend_good_cycle(col, (seq, ell), quad)[0])
        cases += 1
        if cases == 200:
            break


def test_extension_rejects_a_frame_with_two_class_1_vertices_adjacent():
    # a hand-built frame needs four or more distinct in-range vertices of
    # alternating classes; the first passes the turning-point test but
    # steps from class 1 to class 1, where the colour view has no edge
    col = gen_random("bnn", 4, 2, seed=1)
    for frame in (([0, 4, 5, 1], 2), ([0, 4, 1, 4], 2), ([0, 4, 1, 8], 2), ([0, 4], 2)):
        with pytest.raises(ValueError, match="alternating the classes"):
            extend_good_cycle(col, frame, [2, 3, 6, 7])


def test_subset_searches_refuse_subsets_outside_their_class():
    col = gen_random("bnn", 4, 2, seed=3)
    for s0, s1 in (([0, 1], [0, 1]), ([4, 5], [6, 7]), ([0, 4], [5, 6]), ([0, 1], [6, 8]), ([-1, 0], [4, 5])):
        with pytest.raises(ValueError, match="must lie in class 0"):
            near_mono_spanning_path(col, s0, s1)
        with pytest.raises(ValueError, match="must lie in class 0"):
            find_balanced_c4(col, s0, s1)


def test_spanning_cycle_mono():
    col = PairColouring.constant("bnn", 3, 2, 0)
    res = spanning_bicoloured_or_mono_cycle(col)
    assert res.kind == "mono" and len(res.vertices) == 6


def test_spanning_cycle_split_detected():
    col, _ = gen_split_bipartite(4, 1, 2)
    res = spanning_bicoloured_or_mono_cycle(col)
    assert isinstance(res, SplitDetected)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_spanning_cycle_exhaustive(n):
    for idx, col in all_bnn_colourings(n):
        res = spanning_bicoloured_or_mono_cycle(col)
        if isinstance(res, SplitDetected):
            assert classify_bipartite(col).kind == "split"
            continue
        assert sorted(res.vertices) == list(range(2 * n))
        assert res.kind in ("mono", "bicoloured")


def test_red_exchange_raises_without_progress():
    # vertex 2 is red to the other class, 0 and 1 are blue to it: the
    # exchange swaps 0 and 1 and the cycle keeps its two red edges
    col = PairColouring.from_int("bnn", 3, 63)
    assert bp._frame(col, [0, 3, 1, 4, 2, 5], RED) == ([4, 2, 5, 0, 3, 1], 3)
    with pytest.raises(RuntimeError, match="red-exchange did not progress"):
        bp._red_exchange(col, [4, 2, 5, 0, 3, 1], 3)


# -- partitions ----------------------------------------------------------


def test_partition_mono_host():
    col = PairColouring.constant("bnn", 3, 2, 0)
    path_p, cyc_p = partition_path_cycle(col)
    assert cyc_p.colour == RED and len(cyc_p.vertices) == 6
    assert path_p.vertices == () and path_p.colour == BLUE


@pytest.mark.parametrize("n", [1, 2, 3])
def test_partition_exhaustive(n):
    for idx, col in all_bnn_colourings(n):
        res = partition_path_cycle(col)
        if isinstance(res, SplitDetected):
            pieces = split_three_paths(col, res.structure)
            assert len(pieces) <= 3
            verified(col, pieces)
            continue
        path_p, cyc_p = res
        assert path_p.colour != cyc_p.colour
        verified(col, res)
        tp = two_paths(col)
        assert all(p.kind == "path" for p in tp)
        verified(col, tp)


def test_recoloured_split_paths_are_blue():
    for n, a1, b1 in [(3, 1, 2), (4, 1, 2), (4, 1, 3), (4, 3, 2)]:
        base, _ = gen_split_bipartite(n, a1, b1)
        for a in range(n):
            for b in range(n):
                if base.colour_bit(a, n + b) != RED:
                    continue
                col = gen_recoloured_split(n, a1, b1, (a, b))
                res = partition_path_cycle(col)
                path_p, _ = res
                assert path_p.colour == BLUE
                verified(col, res)


def test_force_red_path_on_not_good_cycle(rng):
    hits = 0
    for trial in range(400):
        n = rng.randint(2, 5)
        col = gen_random("bnn", n, 2, seed=10_000 + trial)
        res = spanning_bicoloured_or_mono_cycle(col)
        if isinstance(res, SplitDetected) or res.kind != "bicoloured" or res.good:
            continue
        hits += 1
        path_p, cyc_p = partition_path_cycle_coloured(col, list(res.vertices))
        assert path_p.colour == RED and cyc_p.colour == BLUE
        verified(col, [path_p, cyc_p])
    assert hits > 20


def _spanning_interleavings(n):
    import itertools

    for p0 in itertools.permutations(range(n)):
        for p1 in itertools.permutations(range(n, 2 * n)):
            yield [v for pair in zip(p0, p1) for v in pair]


def test_force_red_path_on_searched_not_good_cycle():
    # explicit not-good spanning bicoloured cycles at n=3, found by search
    from monopart.bipartite import cycle_profile

    hits = 0
    for idx in range(0, 1 << 9, 5):
        col = PairColouring.from_int("bnn", 3, idx)
        for cyc in _spanning_interleavings(3):
            kind, turns = cycle_profile(col, cyc)
            if kind == "bicoloured" and col.side(turns[0]) == col.side(turns[1]):
                path_p, cyc_p = partition_path_cycle_coloured(col, cyc)
                assert path_p.colour == RED and cyc_p.colour == BLUE
                verified(col, [path_p, cyc_p])
                hits += 1
                break
        if hits >= 12:
            break
    assert hits >= 12


def test_recoloured_splits_have_only_good_spanning_cycles():
    # computed truth: every spanning bicoloured cycle of a recoloured split
    # is good (the blue arc would need two crossings between the blue
    # blocks, but only the recoloured edge crosses them)
    from monopart.bipartite import cycle_profile

    for n, a1, b1 in [(3, 1, 2), (3, 1, 1), (3, 2, 1)]:
        col = gen_recoloured_split(n, a1, b1, (0, 0))
        for cyc in _spanning_interleavings(n):
            kind, turns = cycle_profile(col, cyc)
            if kind == "bicoloured":
                assert col.side(turns[0]) != col.side(turns[1])


def test_force_red_path_rejects_good_cycle():
    col = gen_recoloured_split(2, 1, 1, (0, 0))
    # the unique bicoloured spanning cycles here are good; build one directly
    cyc = [0, 2, 1, 3]
    if not is_good_cycle(col, cyc):
        cyc = [0, 3, 1, 2]
    assert is_good_cycle(col, cyc)
    with pytest.raises(ValueError):
        partition_path_cycle_coloured(col, cyc)


def _solve_digest(cols, variant):
    """sha256 over the `solve` certificates of `cols`, one line each; a
    colouring the variant cannot serve adds the line "ValueError"."""
    h = hashlib.sha256()
    for col in cols:
        try:
            h.update(solve(col, variant)[0].to_text().encode())
        except ValueError:
            h.update(b"ValueError")
        h.update(b"\n")
    return h.hexdigest()


_PINNED_HOSTS = {
    "all-n4": lambda: (col for _, col in all_bnn_colourings(4)),
    "all-n<=3": lambda: (col for n in (1, 2, 3) for _, col in all_bnn_colourings(n)),
    "random-64": lambda: [gen_random("bnn", 64, 2, seed=64)],
    "random-128": lambda: [gen_random("bnn", 128, 2, seed=128)],
    "random-256": lambda: [gen_random("bnn", 256, 2, seed=256)],
    "off-edge-64": lambda: [_off_edge(64)],
    "recoloured-split-64": lambda: [gen_recoloured_split(64, 32, 32, (0, 0))],
    "v-256": lambda: [gen_v_colouring(256, 85)],
    "random-512": lambda: [gen_random("bnn", 512, 2, seed=512)],
    "recoloured-split-128": lambda: [gen_recoloured_split(128, 64, 64, (0, 0))],
}


# sha256 of the `solve` certificates; a refactor of the bnn2 engine keeps
# them byte-identical
_PINNED_DIGESTS = {
    ("all-n4", "path-cycle"): "250869b3819e63fb54c0d6857aa8314ddfdd0827ecb937ebacf7fc7596a20413",
    ("all-n<=3", "path-cycle"): "98666483e9c7a9118277f51591c76902938efaeae2e95cf33301abcd13431d9e",
    ("all-n<=3", "two-paths"): "32af343880fd133ed0786439b11668a38234c1808fd215d474588b29f25f173f",
    ("all-n<=3", "red-path"): "137cb4a2c559bc504b78a88c8c5d73f818855dbe29b6bd3fbdd8d2cf51b8c6d1",
    ("random-64", "path-cycle"): "79dab56b53f5f5521e2d386aa30f80e1a04635f60a74ffab396b1a897a83bd5f",
    ("random-128", "path-cycle"): "ecbae3e0d0c9682554778b1b0c996d7ec262ac6c096184add68a0865c377a0de",
    ("random-256", "path-cycle"): "4f600ee61de31238ecfe78a8ed7044c03e58ad688e09ac8616a5a1cfecb41a4d",
    ("off-edge-64", "path-cycle"): "551fb0b167e6a9159953cfa6947cdf81a5609d326563f30f4593bc31a281ac8c",
    ("recoloured-split-64", "path-cycle"): "d001c43cd9886a6250ec845377574df40851483b6f503c04de89932f947934d9",
    ("v-256", "path-cycle"): "8560a267aa249020d7c5e0b089373849178068518774e532f584cf17894a7e0c",
    ("random-512", "path-cycle"): "69051f93745ecdced2f5f425ea63fa8b56345743698c5c1566d11758b8203973",
    ("recoloured-split-128", "path-cycle"): "20d297b54c5ec4e77ccbc563cd14d274812fdce3819e638173d58a6598e95bb6",
}


@pytest.mark.parametrize("hosts, variant", list(_PINNED_DIGESTS))
def test_bnn2_certificates_pinned(hosts, variant):
    assert _solve_digest(_PINNED_HOSTS[hosts](), variant) == _PINNED_DIGESTS[hosts, variant]


@pytest.mark.parametrize("hosts, bound", [("random-256", 1.1), ("off-edge-64", 1.5)])
def test_bnn2_solve_lookups(monkeypatch, hosts, bound):
    # one colour read per cycle and per remainder: each cycle's colours are
    # read once, as it is built, and a balanced-C4-free remainder is
    # counted once (random-256 reads 1.01 n^2 colours)
    (col,) = _PINNED_HOSTS[hosts]()
    calls = _count_lookups(monkeypatch)
    solve(col)
    assert calls[0] <= bound * col.n**2


@pytest.mark.parametrize("hosts", ["random-256", "random-512"])
def test_bnn2_solve_reads_linearly_many_colours(monkeypatch, hosts):
    # a growth step reads O(1) colours (its probes and the junction edges
    # of its re-routing), so a random host's solve reads about 40 n
    # colours at n = 256 and 512, where reading every grown cycle took
    # about n^2
    (col,) = _PINNED_HOSTS[hosts]()
    calls = _count_lookups(monkeypatch)
    solve(col)
    assert calls[0] <= 100 * col.n


def _spy_on_growth(monkeypatch):
    """Check every growth step while the returned counts grow: no
    extension reads a whole cycle, each extension's derived frame equals a
    full read of its cycle, and each remainder the growth loop hands to
    `near_mono_spanning_path` is the sorted complement of the current
    cycle, counted once whether or not it holds a balanced C4."""
    counts = {"extensions": 0, "remainders": 0, "counted": 0}
    cycle = [None]  # the current cycle of the growth loop; None: the good C4
    growing = [False]
    spanning, extend, near_mono, cycle_colours, count = (
        spanning_bicoloured_or_mono_cycle,
        extend_good_cycle,
        near_mono_spanning_path,
        bp._cycle_colours,
        bp._near_mono,
    )

    def starting(col):
        cycle[0] = None
        return spanning(col)

    def reading(col, cyc):
        assert not growing[0], "a growth step read a whole cycle"
        return cycle_colours(col, cyc)

    def extending(col, frame, quad):
        growing[0] = True
        try:
            out = extend(col, frame, quad)
        finally:
            growing[0] = False
        old, (seq, ell) = frame[0], out
        assert (seq, ell) == bp._frame(col, seq, RED)
        assert is_good_cycle(col, seq)
        assert len(seq) > len(old) and len(set(seq)) == len(seq)
        assert set(seq) <= set(old) | set(quad)
        taken, dropped, _ = out.change
        assert sorted(taken) == sorted(set(seq) & set(quad))
        assert sorted(dropped) == sorted(set(old) - set(seq))
        cycle[0] = seq
        counts["extensions"] += 1
        return out

    def remainder(col, rest0, rest1):
        if sys._getframe(1).f_code is spanning.__code__:
            on = set(cycle[0] or classify_bipartite(col).good_c4)
            assert rest0 == [u for u in range(col.n) if u not in on]
            assert rest1 == [u for u in range(col.n, 2 * col.n) if u not in on]
            counts["remainders"] += 1
        counted = counts["counted"]
        try:
            return near_mono(col, rest0, rest1)
        finally:
            assert counts["counted"] == counted + 1

    def counting(rows, s0, s1):
        counts["counted"] += 1
        return count(rows, s0, s1)

    monkeypatch.setattr(bp, "spanning_bicoloured_or_mono_cycle", starting)
    monkeypatch.setattr(bp, "extend_good_cycle", extending)
    monkeypatch.setattr(bp, "near_mono_spanning_path", remainder)
    monkeypatch.setattr(bp, "_cycle_colours", reading)
    monkeypatch.setattr(bp, "_near_mono", counting)
    return counts


def test_long_cycle_extensions_match_a_full_read(monkeypatch):
    # the frame each growth step derives from its blocks is the frame a full
    # read of the new cycle gives, and the remainder kept by insertions and
    # deletions is the complement of the cycle, on long cycles of random
    # and recoloured-split hosts and inside the blocks of a bnn3 solve
    from monopart.threecolour import partition3_bipartite

    counts = _spy_on_growth(monkeypatch)
    for n in (64, 128, 256):
        for seed in (1, 2, 3):
            col = gen_random("bnn", n, 2, seed=seed)
            before = counts["extensions"]
            verified(col, list(partition_path_cycle(col)))
            # a step adds at most the quad's four vertices
            assert counts["extensions"] - before >= (2 * n - 4) // 4
    before = dict(counts)
    col = gen_recoloured_split(64, 32, 32, (0, 0))
    verified(col, list(partition_path_cycle(col)))
    assert counts["extensions"] > before["extensions"]
    before = dict(counts)
    # a blue/green host with one red edge: the carved red path is short, so
    # the 2-colour engine grows long cycles inside the blocks it leaves
    entries = bytearray(c + 1 for c in gen_random("bnn", 64, 2, seed=1).entries)
    entries[0] = RED
    col = PairColouring("bnn", 64, 3, bytes(entries))
    assert check_certificate(col, partition3_bipartite(col)).ok
    assert counts["extensions"] > before["extensions"]
    assert counts["remainders"] > before["remainders"]


def test_growth_loop_hands_on_its_remainder_unchecked(monkeypatch):
    # the growth loop keeps its remainder lists sorted and distinct, so a
    # step neither sorts nor checks them again; a direct call with plain
    # lists is still sorted and checked, and refused on a bad subset
    from monopart.threecolour import partition3_bipartite

    checks, sorts, steps = [], [], [0]
    check, near = bp._check_subsets, near_mono_spanning_path

    def checking(n, s0, s1):
        checks.append((s0, s1))
        return check(n, s0, s1)

    def sorting(xs):
        if sys._getframe(1).f_code is near.__code__:
            sorts.append(xs)
        return sorted(xs)

    def step(col, rest0, rest1):
        steps[0] += 1
        return near(col, rest0, rest1)

    monkeypatch.setattr(bp, "_check_subsets", checking)
    monkeypatch.setattr(bp, "sorted", sorting, raising=False)
    monkeypatch.setattr(bp, "near_mono_spanning_path", step)
    for n in (64, 256):
        col = gen_random("bnn", n, 2, seed=1)
        before = steps[0]
        verified(col, list(partition_path_cycle(col)))
        assert steps[0] - before >= (2 * n - 4) // 4
    # a blue/green host with one red edge: its blocks grow long cycles
    entries = bytearray(c + 1 for c in gen_random("bnn", 64, 2, seed=1).entries)
    entries[0] = RED
    col = PairColouring("bnn", 64, 3, bytes(entries))
    before = steps[0]
    assert check_certificate(col, partition3_bipartite(col)).ok
    assert steps[0] - before > 1
    assert checks == [] and sorts == []

    col = gen_random("bnn", 4, 2, seed=1)
    for s0, s1, match in (([0, 0], [4, 5], "repeats a vertex"), ([0, 1], [5, 5], "repeats a vertex"),
                          ([0, 4], [5, 6], "class 0"), ([4, 5], [0, 1], "class 0")):
        for call in (near, find_balanced_c4):
            with pytest.raises(ValueError, match=match):
                call(col, s0, s1)
    assert len(checks) == 8 and len(sorts) == 8
    # a subclass of the remainder's list type is checked too
    Rest = type("Rest", (bp._Rest,), {})
    with pytest.raises(ValueError, match="repeats a vertex"):
        near(col, Rest([0, 0]), Rest([4, 5]))
    assert len(checks) == 9


_GROWTH_HOSTS = {
    **{
        f"random-{n}-{seed}": (lambda n=n, seed=seed: gen_random("bnn", n, 2, seed=seed))
        for n in (64, 128, 256)
        for seed in (0, 1)
    },
    **{
        f"recoloured-split-{n}": (lambda n=n: gen_recoloured_split(n, n // 2, n // 2, (0, 0)))
        for n in (64, 128)
    },
    "off-edge-64": lambda: _off_edge(64),
}


@pytest.mark.parametrize("host", sorted(_GROWTH_HOSTS))
def test_extension_steps_stay_within_their_bound(monkeypatch, host):
    # cycles have even length and each step adds at least two vertices, so
    # growth from the good C4 to at most 2n vertices takes at most n - 2
    # steps (random hosts take about 0.8 of that)
    col = _GROWTH_HOSTS[host]()
    counts = _spy_on_growth(monkeypatch)
    verified(col, list(partition_path_cycle(col)))
    assert counts["extensions"] <= col.n - 2


def test_extension_may_drop_an_old_cycle_vertex(monkeypatch):
    # a re-routing such as seq[:k-1] + [y2, x1, x2] leaves v(k) out of the
    # grown cycle; the vertex goes back to the remainder, and the partition
    # still covers it
    dropped = []

    def recording(col, frame, quad):
        out = extend_good_cycle(col, frame, quad)
        dropped.extend(set(frame[0]) - set(out[0]))
        return out

    monkeypatch.setattr(bp, "extend_good_cycle", recording)
    for n in (8, 16, 32):
        for seed in range(40):
            col = gen_random("bnn", n, 2, seed=seed)
            pieces = partition_path_cycle(col)
            if dropped:
                verified(col, list(pieces))
                return
    pytest.fail("no extension dropped an old-cycle vertex")


def test_each_built_cycle_is_read_once(monkeypatch):
    # the growth, attach and exchange loops hand each cycle's frame on, so
    # no cycle's colours are read a second time, in any rotation or
    # direction; growth derives its frames and reads no whole cycle
    reads = {}
    cycle_colours = bp._cycle_colours
    extensions = [0]

    def recording(col, cyc):
        edges = frozenset(frozenset(e) for e in zip(cyc, cyc[1:] + cyc[:1]))
        reads[edges] = reads.get(edges, 0) + 1
        return cycle_colours(col, cyc)

    def extending(col, frame, quad):
        extensions[0] += 1
        return extend_good_cycle(col, frame, quad)

    monkeypatch.setattr(bp, "_cycle_colours", recording)
    monkeypatch.setattr(bp, "extend_good_cycle", extending)
    col = gen_random("bnn", 128, 2, seed=128)
    path_p, cyc_p = partition_path_cycle(col)
    verified(col, [path_p, cyc_p])
    # an extension adds at most the quad's four vertices
    assert extensions[0] >= (2 * col.n - 4) // 4
    assert all(count == 1 for count in reads.values())


def test_growth_and_v_steps_go_through_public_entries(monkeypatch):
    # a tracer rebinds the public names in every module that holds them, so
    # the solvers must call the growth and V steps by those names
    import monopart.threecolour as tc
    from monopart.generators import gen_three_colour_split
    from monopart.threecolour import partition3_bipartite

    calls = {"extend_good_cycle": 0, "v_two_cycles": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module in (bp, tc):
        for name in calls:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))

    partition_path_cycle(gen_random("bnn", 64, 2, seed=64))
    assert calls["extend_good_cycle"] >= 1
    partition_path_cycle(gen_v_colouring(8, 3))
    assert calls["v_two_cycles"] == 1
    partition3_bipartite(gen_three_colour_split((1, 2, 2), (2, 2, 1)))
    assert calls["v_two_cycles"] == 2


def _brute_runs(col, cyc):
    """(number of run starts, turning vertices) of the cyclic colour
    sequence of `cyc`, read edge by edge through the validated lookup."""
    cols = [col.colour_bit(u, v) for u, v in zip(cyc, cyc[1:] + cyc[:1])]
    turns = [cyc[i] for i in range(len(cols)) if cols[i] != cols[i - 1]]
    return len(turns), turns


def test_cycle_profile_matches_a_run_count():
    # the frame is the only two-run detector: its kind and goodness must
    # agree with counting the runs of the colour sequence directly
    seen = {"mono": 0, "bicoloured": 0, "poly": 0}
    for _, col in all_bnn_colourings(3):
        for cyc in _spanning_interleavings(3):
            starts, turns = _brute_runs(col, cyc)
            kind, got = bp.cycle_profile(col, cyc)
            want = "mono" if starts == 0 else "bicoloured" if starts == 2 else "poly"
            assert kind == want
            seen[kind] += 1
            if kind == "bicoloured":
                assert set(got) == set(turns)
            good = starts == 2 and col.side(turns[0]) != col.side(turns[1])
            assert is_good_cycle(col, cyc) == good
        # cycles on one or two vertices are not read: a one-vertex class-1
        # cycle, or two class-1 vertices, would index past a raw-view row
        for cyc in [[u] for u in range(6)] + [list(p) for p in itertools.permutations(range(6), 2)]:
            assert bp.cycle_profile(col, cyc) == ("mono", ())
            assert not is_good_cycle(col, cyc)
    assert min(seen.values()) > 0


# -- split fallbacks and V constructions --------------------------------


@pytest.mark.parametrize("n,a1,b1", [(2, 1, 1), (3, 1, 1), (4, 1, 3), (4, 2, 2), (5, 2, 3)])
def test_split_fallbacks(n, a1, b1):
    col, structure = gen_split_bipartite(n, a1, b1)
    assert isinstance(two_paths(col), SplitDetected)
    paths = split_three_paths(col, structure)
    assert len(paths) <= 3 and all(p.kind == "path" for p in paths)
    verified(col, paths)
    # the cycle fallbacks are the same vertex sequences relabelled
    mixed = _split_cycles(col, structure, blue_path_first=True)
    assert sum(1 for p in mixed if p.kind == "path") <= 1
    assert sum(1 for p in mixed if p.kind == "cycle") <= 2
    verified(col, mixed)
    cycles = _split_cycles(col, structure)
    assert len(cycles) <= 3 and all(p.kind == "cycle" for p in cycles)
    verified(col, cycles)


def test_split_fallback_rejects_wrong_structure():
    col, _ = gen_split_bipartite(4, 1, 3)
    _, other = gen_split_bipartite(4, 2, 2)
    with pytest.raises(ValueError):
        split_three_paths(col, other)


def test_unbalanced_split_needs_three_paths():
    from monopart.oracles import ShapeSpec, oracle_partition_exists

    for n in (3, 4):
        col, structure = gen_split_bipartite(n, 1, n - 1)
        two = ShapeSpec((("path", None), ("path", None)), distinct_colours=True)
        assert not oracle_partition_exists(col, two)[0]
        assert len(split_three_paths(col, structure)) == 3


def test_convert_two_path_outputs(rng):
    for trial in range(300):
        n = rng.randint(1, 5)
        col = gen_random("bnn", n, 2, seed=20_000 + trial)
        res = two_paths(col)
        if isinstance(res, SplitDetected):
            continue
        p1, p2 = res
        assert p1.kind == p2.kind == "path" and p1.colour != p2.colour
        verified(col, [p1, p2])


def _v_pieces(col):
    return v_two_cycles(col, classify_bipartite(col).vcol)


def test_v_two_cycles():
    pieces = _v_pieces(gen_v_colouring(2, 1))
    assert {p.vertices for p in pieces} == {(0, 2), (1, 3)}
    col = gen_v_colouring(4, 2)
    pieces = _v_pieces(col)
    verified(col, pieces)
    for cut in (1, 2, 3):
        col = gen_v_colouring(4, cut)
        verified(col, _v_pieces(col))


def test_v_two_cycles_rejects_non_v():
    with pytest.raises(ValueError):
        _v_pieces(PairColouring.constant("bnn", 3, 2, 0))


def test_every_extension_exit_fires(monkeypatch):
    # each `return done(...)` line of extend_good_cycle is one re-routing of
    # the case tree; the spy records the line that handed over a candidate
    lines, start = inspect.getsourcelines(extend_good_cycle)
    sites = {start + i for i, line in enumerate(lines) if "return done(" in line}
    code = extend_good_cycle.__code__
    fired = set()
    splice = bp._splice

    def spy(*args):
        frame = sys._getframe(1)
        while frame.f_code is not code:
            frame = frame.f_back
        fired.add(frame.f_lineno)
        return splice(*args)

    monkeypatch.setattr(bp, "_splice", spy)
    for i in range(1000):
        partition_path_cycle(gen_random("bnn", 5 + i % 8, 2, seed=i))
    assert fired == sites, sorted(sites - fired)


def test_every_working_frame_is_chosen(monkeypatch):
    # on the hosts above, each of the four working frames (led by red or
    # blue, read forwards or backwards) is chosen, and each lists the old
    # cycle with its leading run first and the other colour's run after
    chosen = {}
    working_frame = bp._working_frame

    def spy(col, seq, ell, q0, q1):
        out = working_frame(col, seq, ell, q0, q1)
        w, fell, lead = out[0]
        k = len(seq)
        assert bp._cycle_colours(col, w) == [lead] * (fell - 1) + [1 - lead] * (k - fell + 1)
        o = seq.index(w[0])
        forwards = w[1] == seq[(o + 1) % k]
        assert w == [seq[(o + (i if forwards else -i)) % k] for i in range(k)]
        chosen[lead, forwards] = chosen.get((lead, forwards), 0) + 1
        return out

    monkeypatch.setattr(bp, "_working_frame", spy)
    for i in range(1000):
        partition_path_cycle(gen_random("bnn", 5 + i % 8, 2, seed=i))
    assert chosen == {(RED, True): 1969, (RED, False): 1437, (BLUE, True): 462, (BLUE, False): 403}


def test_growth_step_does_constant_python_work(monkeypatch):
    # a growth step runs O(1) bytecodes whatever the cycle length: opcode
    # events counted on this process's own frames over each extension of a
    # random n = 128 solve (about 1,300 a step, under 1,900 at most), from
    # the good C4 up to cycles of 2n - 6 vertices
    ops = [0]
    steps = []  # (old cycle length, opcode events) of each extension

    def tracer(frame, event, arg):
        frame.f_trace_opcodes = True
        if event == "opcode":
            ops[0] += 1
        return tracer

    def extending(col, frame, quad):
        ops[0] = 0
        before = sys.gettrace()
        sys.settrace(tracer)
        try:
            return extend_good_cycle(col, frame, quad)
        finally:
            sys.settrace(before)
            steps.append((len(frame[0]), ops[0]))

    monkeypatch.setattr(bp, "extend_good_cycle", extending)
    col = gen_random("bnn", 128, 2, seed=128)
    verified(col, list(partition_path_cycle(col)))
    steps.sort()
    assert steps[0][0] == 4 and steps[-1][0] >= 2 * col.n - 6
    assert max(count for _, count in steps) <= 3000, steps
    # and the longest cycles' steps cost about what the shortest ones do
    q = len(steps) // 4
    short, long_ = (sum(count for _, count in part) for part in (steps[:q], steps[-q:]))
    assert long_ <= 1.25 * short, steps


def _return_sites(fn, marker, after=None):
    """Line numbers of the `marker` lines of fn's source, past the first
    line containing `after` when given."""
    lines, start = inspect.getsourcelines(fn)
    first = next(i for i, line in enumerate(lines) if after in line) if after else 0
    return {start + i for i, line in enumerate(lines) if i > first and marker in line}


def test_every_exchange_and_attachment_exit_fires(monkeypatch):
    # each return of the exchange loops and of the attachment loop is one
    # case of the exchange steps; the spies record the line that returned
    sites = {
        partition_path_cycle.__code__: _return_sites(partition_path_cycle, "return _pieces_result("),
        partition_path_cycle_coloured.__code__: _return_sites(
            partition_path_cycle_coloured, "return _pieces_result("
        ),
        spanning_bicoloured_or_mono_cycle.__code__: _return_sites(
            spanning_bicoloured_or_mono_cycle, "return _wrap_spanning(", "# the attachment works"
        ),
    }
    fired = {code: set() for code in sites}

    def spying(real):
        def spy(*args):
            frame = sys._getframe(1)
            fired.get(frame.f_code, set()).add(frame.f_lineno)
            return real(*args)

        return spy

    monkeypatch.setattr(bp, "_pieces_result", spying(bp._pieces_result))
    monkeypatch.setattr(bp, "_wrap_spanning", spying(bp._wrap_spanning))
    hosts = [gen_random("bnn", 3 + i % 10, 2, seed=i) for i in range(400)]
    hosts += [PairColouring.constant("bnn", n, 2, c) for n in (1, 4) for c in (RED, BLUE)]
    for col in hosts:
        res = partition_path_cycle(col)
        if not isinstance(res, SplitDetected):
            verified(col, res)
        cyc = spanning_bicoloured_or_mono_cycle(col)
        if not isinstance(cyc, SplitDetected) and cyc.kind == "bicoloured" and not cyc.good:
            verified(col, partition_path_cycle_coloured(col, list(cyc.vertices)))
    for code, lines in sites.items():
        assert lines and lines <= fired[code], (code.co_name, sorted(lines - fired[code]))


def test_is_good_cycle_refuses_bad_vertices_before_reading_colours(monkeypatch):
    col = gen_random("bnn", 4, 2, seed=1)
    monkeypatch.setattr(PairColouring, "rows", property(lambda self: pytest.fail("rows read")))
    for cyc, reason in (([0, 4, 1, 99], "out of range"), ([0, 4, 1, 8], "out of range"),
                        ([-1, 4, 1, 5], "out of range"), ([0, 4, 1, 4], "repeats"),
                        ((0, 4, 0, 5), "repeats")):
        with pytest.raises(ValueError, match=reason):
            is_good_cycle(col, cyc)


@pytest.mark.parametrize("cyc", [[0, 1, 4, 5], [4, 0, 5, 6], [4, 5, 0, 1], [0, 4, 5, 1], [0, 4, 1],
                                 (4, 0, 5, 1, 6)])
def test_cycles_that_do_not_alternate_classes_are_refused_before_reading_colours(monkeypatch, cyc):
    # a class-1 row of the raw view is n bytes long: two class-1 vertices
    # side by side used to index past it (IndexError)
    col = gen_random("bnn", 4, 2, seed=1)
    monkeypatch.setattr(PairColouring, "rows", property(lambda self: pytest.fail("rows read")))
    for check in (is_good_cycle, bp.cycle_profile):
        with pytest.raises(ValueError, match="does not alternate"):
            check(col, cyc)


def test_coloured_partition_refuses_a_spanning_cycle_that_does_not_alternate(monkeypatch):
    col = gen_random("bnn", 4, 2, seed=1)
    monkeypatch.setattr(PairColouring, "rows", property(lambda self: pytest.fail("rows read")))
    for cyc in (range(8), [0, 4, 1, 5, 2, 3, 6, 7]):
        with pytest.raises(ValueError, match="does not alternate"):
            partition_path_cycle_coloured(col, cyc)


@pytest.mark.parametrize("col", [gen_random("kn", 4, 2, seed=1), gen_random("bnn", 4, 3, seed=1)],
                         ids=["kn", "bnn3"])
def test_cycle_checks_need_a_two_coloured_bnn_host(col):
    for check in (is_good_cycle, bp.cycle_profile, partition_path_cycle_coloured):
        with pytest.raises(ValueError, match="2-coloured bnn host"):
            check(col, [0, 2, 1, 3])
