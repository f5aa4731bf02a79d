import pytest

from monopart.bipartite import classify_bipartite, is_good_cycle
from monopart.colourings import BLUE, GREEN, RED
from monopart.generators import (
    EDGE_CAP,
    gen_random,
    gen_recoloured_split,
    gen_split_bipartite,
    gen_three_colour_split,
    gen_v_colouring,
    splitmix64,
    splitmix64_stream,
)
from monopart.oracles import find_good_c4


def test_random_deterministic():
    a = gen_random("bnn", 3, 2, seed=7)
    b = gen_random("bnn", 3, 2, seed=7)
    assert a == b
    assert gen_random("bnn", 3, 2, seed=8) != a


def test_random_passes_length_invariant():
    col = gen_random("h3", 6, 2, seed=1)
    assert col.n_edges == 20


def test_stream_matches_scalar_reference():
    # the vectorized generator must agree with the documented recurrence
    stream = splitmix64_stream(12345, 1000, 2)
    for i in (0, 1, 17, 999):
        assert stream[i] == splitmix64(12345, i) % 2
    stream3 = splitmix64_stream(99, 500, 3)
    for i in (0, 3, 499):
        assert stream3[i] == splitmix64(99, i) % 3


def test_red_fraction_balanced():
    stream = splitmix64_stream(42, 100_000, 2)
    frac = stream.count(0) / len(stream)
    assert 0.49 <= frac <= 0.51


def test_split_bipartite_rule():
    col, structure = gen_split_bipartite(2, 1, 1)
    reds = {(a, b) for a in range(2) for b in range(2, 4) if col.colour_bit(a, b) == RED}
    assert reds == {(0, 2), (1, 3)}
    assert structure.verify(col)


def test_split_bipartite_no_mono_vertex():
    col, _ = gen_split_bipartite(4, 1, 2)
    n = col.n
    for u in range(2 * n):
        opp = col.class_vertices(1 - col.side(u))
        assert {col.colour_bit(u, w) for w in opp} == {0, 1}


def test_split_classified_as_split():
    col, _ = gen_split_bipartite(3, 1, 1)
    assert classify_bipartite(col).kind == "split"


def test_v_colouring():
    col = gen_v_colouring(2, 1)
    assert col.colour_bit(0, 2) == RED and col.colour_bit(1, 2) == RED
    assert col.colour_bit(0, 3) == BLUE and col.colour_bit(1, 3) == BLUE
    for n, cut in [(3, 1), (4, 2), (5, 4)]:
        col = gen_v_colouring(n, cut)
        assert find_good_c4(col) is None
        assert classify_bipartite(col).kind == "vcol"


def test_recoloured_split():
    col = gen_recoloured_split(2, 1, 1, (0, 0))
    assert sum(1 for e in col.entries if e == RED) == 1
    verdict = classify_bipartite(col)
    assert verdict.kind == "other"
    witness = find_good_c4(col)
    assert witness is not None and is_good_cycle(col, witness)


def test_recoloured_split_rejects_blue_edge():
    with pytest.raises(ValueError):
        gen_recoloured_split(2, 1, 1, (0, 1))


def test_three_colour_split_blocks():
    col = gen_three_colour_split((1, 1, 1), (1, 1, 1))
    # every colour is a perfect matching of blocks at unit sizes
    for colour in (RED, BLUE, GREEN):
        edges = [
            (a, b)
            for a in range(3)
            for b in range(3, 6)
            if col.colour_bit(a, b) == colour
        ]
        assert len(edges) == 3
        assert len({a for a, _ in edges}) == 3 and len({b for _, b in edges}) == 3

    col = gen_three_colour_split((2, 1, 1), (1, 2, 1))
    # each colour class decomposes into complete bipartite blocks: any two
    # vertices with a common colour neighbour agree on that colour everywhere
    n = col.n
    for colour in (RED, BLUE, GREEN):
        for a in range(n):
            for a2 in range(a + 1, n):
                nb = {b for b in range(n, 2 * n) if col.colour_bit(a, b) == colour}
                nb2 = {b for b in range(n, 2 * n) if col.colour_bit(a2, b) == colour}
                assert nb == nb2 or not (nb & nb2)


def test_three_colour_split_rejects_zero_block():
    with pytest.raises(ValueError):
        gen_three_colour_split((0, 2, 1), (1, 1, 1))
    with pytest.raises(ValueError):
        gen_three_colour_split((1, 1, 1), (1, 1, 2))


def test_rxn_over_the_cap_is_refused_before_generating(monkeypatch):
    import monopart.generators as generators
    from monopart.colourings import MATERIALIZE_CAP

    def fail(seed, count, palette):
        raise AssertionError(f"asked to generate {count} colours")

    monkeypatch.setattr(generators, "splitmix64_stream", fail)
    assert 2**25 > MATERIALIZE_CAP
    with pytest.raises(ValueError, match="cap"):
        gen_random("rxn", 2, 2, seed=0, r=25)


class _StreamReached(Exception):
    pass


def test_edge_cap_is_checked_before_the_stream(monkeypatch):
    import monopart.generators as gen

    def stream(seed, m, palette):
        raise _StreamReached(m)

    monkeypatch.setattr(gen, "splitmix64_stream", stream)
    for kind, largest in (("h3", 1173), ("kn", 23170), ("bnn", 16384)):
        with pytest.raises(ValueError, match="edge cap"):
            gen_random(kind, largest + 1)
        with pytest.raises(_StreamReached) as reached:
            gen_random(kind, largest)
        assert reached.value.args[0] <= EDGE_CAP
