import hashlib
import itertools

import pytest

from monopart.bipartite import classify_bipartite, is_good_cycle
from monopart.colourings import BLUE, GREEN, RED, HyperSplitSizes, TransversalColouring
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


def test_stream_matches_the_scalar_words_across_chunk_boundaries():
    from monopart.generators import _CHUNK

    seed = 2**64 - 7
    counts = (_CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 5)
    words = [splitmix64(seed, i) for i in range(max(counts))]
    for palette in (2, 3):
        want = bytes(w % palette for w in words)
        for count in counts:
            assert splitmix64_stream(seed, count, palette) == want[:count]


# sha256 of one stream over several chunks, per palette
@pytest.mark.parametrize("palette, digest", [
    (2, "fb2d45abd3ab3781828a248279b375f4fcfb5783a192ce9ca309de1da2ff16c4"),
    (3, "b3512dd81e1eac3803238d53166b43e7881e1b62f4b092bfe6010701a6393822"),
])
def test_stream_digest_pinned(palette, digest):
    assert hashlib.sha256(splitmix64_stream(2024, 200_003, palette)).hexdigest() == digest


def test_stream_palettes_and_counts():
    assert splitmix64_stream(5, 0, 2) == b""
    assert splitmix64_stream(5, 40, 1) == bytes(40)
    assert list(splitmix64_stream(5, 40, 256)) == [splitmix64(5, i) & 255 for i in range(40)]
    for palette in (0, -2, 257, 300):
        with pytest.raises(ValueError, match="palette"):
            splitmix64_stream(5, 10, palette)
    with pytest.raises(ValueError, match="negative"):
        splitmix64_stream(5, -1, 2)


def test_bad_palette_is_refused_before_generating(monkeypatch):
    import monopart.generators as generators

    def fail(seed, count, palette):
        raise AssertionError(f"asked to generate {count} colours")

    monkeypatch.setattr(generators, "splitmix64_stream", fail)
    for kind in ("kn", "bnn"):
        for palette in (0, 1, 4, 5):
            with pytest.raises(ValueError, match="palette must be 2 or 3"):
                gen_random(kind, 6, palette=palette)
    with pytest.raises(ValueError, match="2-coloured"):
        gen_random("h3", 6, palette=3)


# -- the block-pattern generators against per-edge definitions ---------------


def _compositions3(n):
    """Every (l1, l2, l3) of positive block sizes summing to n."""
    return [(a, b, n - a - b) for a in range(1, n - 1) for b in range(1, n - a)]


def _rxn_size_tuples(r, n):
    """Every split size tuple for r <= 3; for r = 4 each class takes 1,
    n // 2 or n - 1, which keeps the per-edge reference under a second."""
    choices = range(1, n) if r <= 3 else sorted({1, n // 2, n - 1})
    return itertools.product(choices, repeat=r)


def test_structured_generators_match_per_edge_definitions():
    shapes = 0
    for n in range(2, 9):
        edges = [(a, b) for a in range(n) for b in range(n)]  # local ids, row-major
        for a1 in range(1, n):
            for b1 in range(1, n):
                split = bytes(0 if (a < a1) == (b < b1) else 1 for a, b in edges)
                assert gen_split_bipartite(n, a1, b1)[0].entries == split
                for which in edges:
                    if split[which[0] * n + which[1]] == 0:
                        want = bytes(1 if e == which else c for e, c in zip(edges, split))
                        assert gen_recoloured_split(n, a1, b1, which).entries == want
                        shapes += 1
                shapes += 1
        for cut in range(1, n):
            v = bytes(0 if b < cut else 1 for _, b in edges)
            assert gen_v_colouring(n, cut).entries == v
            shapes += 1
        for left in _compositions3(n):
            for right in _compositions3(n):
                block0 = [i for i, s in enumerate(left) for _ in range(s)]
                block1 = [j for j, s in enumerate(right) for _ in range(s)]
                three = bytes((block0[a] + block1[b]) % 3 for a, b in edges)
                col = gen_three_colour_split(left, right)
                assert (col.n, col.palette, col.entries) == (n, 3, three)
                shapes += 1
    for r in range(1, 5):
        for n in range(2, 9):
            for sizes in _rxn_size_tuples(r, n):
                rule = HyperSplitSizes(r, n, sizes)
                want = bytes(
                    sum(v < s for v, s in zip(locals_, sizes)) % 2
                    for locals_ in itertools.product(range(n), repeat=r)
                )
                col = TransversalColouring(r, n, rule=rule).materialize()
                assert (col.r, col.n, col.rule, col.entries) == (r, n, None, want)
                assert rule.table() == want
                shapes += 1
    assert shapes > 5000


def test_split_hosts_are_built_from_the_one_rule_table(monkeypatch):
    calls = []
    real = HyperSplitSizes.table

    def table(self):
        calls.append((self.r, self.n, self.s))
        return real(self)

    monkeypatch.setattr(HyperSplitSizes, "table", table)
    gen_split_bipartite(5, 2, 3)
    assert calls == [(2, 5, (2, 3))]
    TransversalColouring(3, 4, rule=HyperSplitSizes(3, 4, (1, 2, 3))).materialize()
    assert calls[1:] == [(3, 4, (1, 2, 3))]
    gen_recoloured_split(4, 1, 1, (0, 0))
    assert calls[2:] == [(2, 4, (1, 1))]

    # with the table patched to a wrong rule both hosts change, so neither
    # keeps a copy of its own
    monkeypatch.setattr(HyperSplitSizes, "table", lambda self: bytes(self.n**self.r))
    with pytest.raises(AssertionError):  # the independent structure check
        gen_split_bipartite(4, 1, 1)
    col = TransversalColouring(2, 3, rule=HyperSplitSizes(2, 3, (1, 1))).materialize()
    assert col.entries == bytes(9)
