import hashlib
import itertools

import pytest

import monopart.bipartite as bp
import monopart.threecolour as tc
from monopart.colourings import BLUE, GREEN, RED, PairColouring
from monopart.generators import gen_random, gen_three_colour_split
from monopart.threecolour import (
    _search_path,
    partition3_bipartite,
    partition3_complete,
    path_and_balanced_block,
    path_and_two_balanced_blocks,
)
from tests.conftest import all_bnn_colourings


def test_carve_all_red_complete():
    col = PairColouring.constant("kn", 5, 2, 0)
    seq, block = path_and_balanced_block(col)
    assert seq == [0, 1, 2, 3, 4] and not block


def test_carve_all_blue_complete():
    col = PairColouring.constant("kn", 5, 2, 1)
    seq, block = path_and_balanced_block(col)
    assert len(seq) == 1 and len(block.side1) == 2


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_carve_complete_exhaustive(n):
    for idx in range(1 << (n * (n - 1) // 2)):
        col = PairColouring.from_int("kn", n, idx)
        seq, block = path_and_balanced_block(col)
        assert len(seq) + 2 * len(block.side1) == n
        assert len(set(seq) | set(block.side1) | set(block.side2)) == n
        for i in range(len(seq) - 1):
            assert col.colour_bit(seq[i], seq[i + 1]) == RED
        for u in block.side1:
            for w in block.side2:
                assert col.colour_bit(u, w) == BLUE


def test_carve_all_blue_bipartite():
    col = PairColouring.constant("bnn", 3, 2, 1)
    seq, a, b = path_and_two_balanced_blocks(col)
    assert seq == [] and len(a.side1) + len(b.side1) == 3


def test_carve_all_red_bipartite():
    col = PairColouring.constant("bnn", 3, 2, 0)
    seq, a, b = path_and_two_balanced_blocks(col)
    assert len(seq) == 6 and not a and not b


@pytest.mark.parametrize("n", [1, 2, 3])
def test_carve_bipartite_exhaustive(n):
    for idx, col in all_bnn_colourings(n):
        seq, a, b = path_and_two_balanced_blocks(col)
        assert len(seq) % 2 == 0
        assert len(seq) + 2 * len(a.side1) + 2 * len(b.side1) == 2 * n
        assert len(a.side1) <= len(b.side1)
        for block in (a, b):
            assert all(u < n for u in block.side1)
            assert all(u >= n for u in block.side2)
            for u in block.side1:
                for w in block.side2:
                    assert col.colour_bit(u, w) == BLUE
        for i in range(len(seq) - 1):
            assert col.colour_bit(seq[i], seq[i + 1]) == RED


def test_partition3_complete_shapes(rng):
    for seed in range(1000):
        n = 3 + seed % 10
        cert = partition3_complete(gen_random("kn", n, 3, seed=seed))
        np_, nc = cert.nonempty_shape()
        assert (np_ <= 2 and nc <= 1) or (np_ <= 1 and nc <= 3), (seed, np_, nc)


def test_partition3_complete_mono_hosts():
    cert = partition3_complete(PairColouring.constant("kn", 6, 3, 2))
    np_, nc = cert.nonempty_shape()
    assert np_ + nc == 1  # one green piece covers everything
    cert = partition3_complete(PairColouring.constant("kn", 7, 3, 0))
    assert cert.nonempty_shape() == (1, 0)


def test_partition3_bipartite_shapes():
    for seed in range(1000):
        n = 1 + seed % 8
        cert = partition3_bipartite(gen_random("bnn", n, 3, seed=seed))
        np_, nc = cert.nonempty_shape()
        assert (np_ <= 3 and nc <= 2) or (np_ <= 2 and nc <= 4), (seed, np_, nc)


def test_partition3_bipartite_never_exceeds_six_pieces():
    for seed in range(300):
        n = 2 + seed % 8
        cert = partition3_bipartite(gen_random("bnn", n, 3, seed=7_000 + seed))
        assert len([p for p in cert.pieces if p.vertices]) <= 6
        cert = partition3_complete(gen_random("kn", 3 + seed % 9, 3, seed=9_000 + seed))
        assert len([p for p in cert.pieces if p.vertices]) <= 4


def test_partition3_split_instances():
    for s0 in itertools.product(range(1, 4), repeat=3):
        for s1 in itertools.product(range(1, 4), repeat=3):
            if sum(s0) != sum(s1):
                continue
            col = gen_three_colour_split(s0, s1)
            cert = partition3_bipartite(col)
            np_, nc = cert.nonempty_shape()
            assert (np_ <= 3 and nc <= 2) or (np_ <= 2 and nc <= 4)


def test_all_red_cross_fixture():
    # blocks carry blue/green splits while every cross edge is red, forcing
    # the two-red-cycles fallback
    def fn(u, w):
        b = w - 4
        if (u < 2) == (b < 2):
            return BLUE if (u % 2) == (w % 2) else GREEN
        return RED

    col = PairColouring.from_function("bnn", 4, 3, fn)
    cert = partition3_bipartite(col)
    assert cert.nonempty_shape() == (0, 2)
    assert all(p.colour == RED for p in cert.pieces if p.kind == "cycle")


def test_partition3_rejects_wrong_palette():
    with pytest.raises(ValueError):
        partition3_complete(PairColouring.constant("kn", 4, 2, 0))
    with pytest.raises(ValueError):
        partition3_bipartite(PairColouring.constant("bnn", 4, 2, 0))


def test_search_path_has_no_depth_limit():
    # the only hit is the whole 5,000-vertex chain, far past the recursion limit
    n = 5000
    red = [{w for w in (u - 1, u + 1) if 0 <= w < n} for u in range(n)]

    def feasible(used, seq):
        return "whole" if len(seq) == n else None

    seq, payload = _search_path(range(n), red, feasible)
    assert seq == list(range(n)) and payload == "whole"


@pytest.mark.parametrize("solve, kind, seed, digest", [
    (partition3_complete, "kn", 0, "574f1f9e98294e351e9dc393257f1b329e0b4cfdc0defa711847468639b62f38"),
    (partition3_complete, "kn", 1, "659fb3d518972adfd3cacee3a72729fdf16206835691e1a0a31891fd9b3c6922"),
    (partition3_bipartite, "bnn", 0, "479e9374d6826f31ad95435f98f6517012658289a446c1249d8fa6a957f20597"),
    (partition3_bipartite, "bnn", 1, "98fc34d1a797fce94818c4a60a21ba6b7a61676a3e3bf547caf751f592555998"),
], ids=["kn-0", "kn-1", "bnn-0", "bnn-1"])
def test_partition3_certificates_pinned_at_n128(solve, kind, seed, digest):
    # hosts where the carved path needs backtracking past its first descent
    # (all but bnn-1), at a size where the search once took a separate route
    cert = solve(gen_random(kind, 128, 3, seed=seed))
    assert hashlib.sha256(cert.to_text().encode()).hexdigest() == digest


def test_partition3_bipartite_classifies_each_block_once(monkeypatch):
    calls = []
    real = bp.classify_bipartite

    def counted(col):
        calls.append(col)
        return real(col)

    monkeypatch.setattr(bp, "classify_bipartite", counted)
    monkeypatch.setattr(tc, "classify_bipartite", counted)
    for seed in range(20):
        col = gen_random("bnn", 16, 3, seed=seed)
        _seq, a, b = path_and_two_balanced_blocks(col)
        calls.clear()
        partition3_bipartite(col)
        assert len(calls) == bool(a) + bool(b), seed


@pytest.mark.parametrize("kind, n", [("kn", 9), ("bnn", 6)])
def test_red_neighbours_match_colour_lookups(kind, n):
    col = gen_random(kind, n, 3, seed=3)
    red = tc._red_neighbours(col)
    for u in range(col.n_vertices):
        others = range(col.n_vertices) if kind == "kn" else col.class_vertices(1 - col.side(u))
        assert red[u] == {w for w in others if w != u and col.colour_bit(u, w) == RED}, u
