import itertools

import pytest

from monopart.certificates import PartitionCertificate, Piece, check_certificate
from monopart.colourings import BLUE, RED, Colour, PairColouring, TripleColouring, _n_edges
from monopart.generators import (
    gen_random,
    gen_recoloured_split,
    gen_split_bipartite,
    gen_three_colour_split,
)
from monopart.oracles import (
    ShapeSpec,
    enumerate_all,
    oracle_min_pieces,
    oracle_partition_exists,
    oracle_spanning_bipath_exists,
)
from monopart.tightpaths import classify_tight_path


def test_spanning_oracle_all_red():
    exists, witness = oracle_spanning_bipath_exists(TripleColouring.constant(4, 0))
    assert exists and sorted(witness) == [0, 1, 2, 3]


def test_spanning_oracle_witness_classifies(rng):
    for _ in range(60):
        col = gen_random("h3", 6, 2, seed=rng.getrandbits(32))
        exists, witness = oracle_spanning_bipath_exists(col)
        assert exists
        assert classify_tight_path(col, witness).kind != "invalid"


def test_spanning_oracle_respects_limit():
    with pytest.raises(ValueError):
        oracle_spanning_bipath_exists(TripleColouring.constant(10, 0))


def test_partition_shapes_on_splits():
    col, _ = gen_split_bipartite(3, 1, 1)
    two = ShapeSpec((("path", None), ("path", None)), distinct_colours=True)
    three = ShapeSpec((("path", None), ("path", None), ("path", None)))
    assert not oracle_partition_exists(col, two)[0]
    assert oracle_partition_exists(col, three)[0]


def test_partition_path_cycle_on_mono():
    col = PairColouring.constant("bnn", 2, 2, 0)
    shape = ShapeSpec((("path", None), ("cycle", None)), distinct_colours=True)
    exists, witness = oracle_partition_exists(col, shape)
    assert exists


def test_forced_red_path_query():
    col = gen_recoloured_split(3, 1, 2, (0, 0))
    red_shape = ShapeSpec((("path", RED), ("cycle", BLUE)))
    assert not oracle_partition_exists(col, red_shape)[0]
    any_shape = ShapeSpec((("path", None), ("cycle", None)), distinct_colours=True)
    assert oracle_partition_exists(col, any_shape)[0]


def test_shape_spec_refuses_an_unknown_piece_kind():
    # a "walk" piece used to be searched as a cycle: (True, [('walk', 0, 15)])
    with pytest.raises(ValueError, match="unknown piece kind 'walk'"):
        ShapeSpec((("walk", None),))


def test_partition_finds_cycles_whose_third_vertex_is_below_both_neighbours_of_the_least():
    # the cycles 0-2-1-3 (bnn n = 2) and 0-3-1-2 (kn n = 4) were missed in
    # both directions, so these queries read False
    assert oracle_partition_exists(PairColouring.constant("bnn", 2, 2, 0), ShapeSpec((("cycle", None),)))[0]
    red = ({0, 3}, {3, 1}, {1, 2}, {2, 0})
    col = PairColouring.from_function("kn", 4, 2, lambda u, v: RED if {u, v} in red else BLUE)
    assert oracle_partition_exists(col, ShapeSpec((("cycle", RED),))) == (True, [("cycle", RED, 15)])


def _brute_partition_exists(col, shape: ShapeSpec) -> bool:
    """Second oracle: every assignment of vertices to the shape's pieces,
    every vertex order and colour of each piece, each candidate checked by
    `check_certificate`, with no memo.  Pieces without a coloured edge (one
    vertex, or a cycle on at most two) are free of the distinct-colour rule."""
    vertices = range(col.n_vertices)
    for owner in itertools.product(range(len(shape.pieces)), repeat=col.n_vertices):
        options = []
        for i, (kind, want) in enumerate(shape.pieces):
            group = [v for v in vertices if owner[v] == i]
            colours = range(col.palette) if want is None else [want]
            options.append([Piece(kind, Colour(c), seq) for seq in itertools.permutations(group) for c in colours])
        for pieces in itertools.product(*options):
            coloured = [p.colour for p in pieces if len(p.vertices) > (2 if p.kind == "cycle" else 1)]
            if shape.distinct_colours and len(set(coloured)) < len(coloured):
                continue
            if check_certificate(col, PartitionCertificate.for_colouring(col, pieces)).ok:
                return True
    return False


def test_partition_oracle_agrees_with_brute_force_on_every_small_host():
    shapes = [
        ShapeSpec((("cycle", None),)),
        ShapeSpec((("path", None), ("cycle", None)), distinct_colours=True),
        ShapeSpec((("path", RED), ("cycle", BLUE))),
        ShapeSpec((("cycle", None), ("cycle", None)), distinct_colours=True),
        ShapeSpec((("path", None),) * 3),
    ]
    hosts = [("bnn", n) for n in (1, 2)] + [("kn", n) for n in (1, 2, 3, 4)]
    checked = 0
    for kind, n in hosts:
        for idx in range(1 << _n_edges(kind, n)):
            col = PairColouring.from_int(kind, n, idx)
            for shape in shapes:
                assert oracle_partition_exists(col, shape)[0] == _brute_partition_exists(col, shape), (
                    kind, n, idx, shape)
                checked += 1
            least = next(k for k in itertools.count(1)
                         if _brute_partition_exists(col, ShapeSpec((("path", None),) * k)))
            assert oracle_min_pieces(col) == least, (kind, n, idx)
    assert checked == 5 * (2 + 16 + 1 + 2 + 8 + 64)


def test_min_pieces_three_colour_splits():
    # frozen from the exhaustive search: a transversal of the blown-up
    # proper colouring covers everything with three monochromatic pieces
    assert oracle_min_pieces(gen_three_colour_split((1, 1, 1), (1, 1, 1))) == 3
    assert oracle_min_pieces(gen_three_colour_split((2, 2, 2), (2, 2, 2))) == 3


def test_min_pieces_mono():
    assert oracle_min_pieces(PairColouring.constant("bnn", 3, 2, 0)) == 1
    assert oracle_min_pieces(PairColouring.constant("kn", 4, 2, 1)) == 1


def test_enumerate_small_suites():
    rep = enumerate_all("classify-goodc4-equiv", 2)
    assert rep.instances_checked == 16 and rep.ok
    rep = enumerate_all("near-mono-equiv", 3)
    assert rep.instances_checked == 512 and rep.ok
    rep = enumerate_all("path-cycle-partition", 2)
    assert rep.instances_checked == 16 and rep.ok  # 2^(n*n)


def test_enumerate_parallel_matches_serial():
    serial = enumerate_all("spanning-path-total", 4)
    parallel = enumerate_all("spanning-path-total", 4, jobs=2)
    assert serial.instances_checked == parallel.instances_checked == 16
    assert serial.failures == parallel.failures == ()


def test_enumerate_unknown_suite():
    with pytest.raises(ValueError):
        enumerate_all("no-such-suite", 3)


def test_report_summary_format():
    rep = enumerate_all("near-mono-equiv", 2)
    assert rep.summary() == "near-mono-equiv (bnn n=2): 16 checked, 0 failures"


def test_raising_check_becomes_a_failure_row(monkeypatch):
    from monopart import oracles

    def check(n, idx):
        if idx == 5:
            raise RuntimeError("exchange cap")
        return None

    monkeypatch.setitem(oracles.SUITES, "path-cycle-partition", ("bnn", check))
    rep = enumerate_all("path-cycle-partition", 2)
    assert rep.instances_checked == 16
    assert rep.failures == ((5, "raised RuntimeError: exchange cap"),)
