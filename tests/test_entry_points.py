"""Public entry points given bad input.

Every callable in the `__all__` of `bipartite`, `tightpaths`,
`multipartite`, `threecolour` and `oracles` is called on every host kind
with bad arguments: empty, single, repeated, out-of-range and negative
vertices, same-class neighbours, structures taken from other hosts, and
hand-built paths and frames with bad turns.  Each call returns or raises ValueError
(or a subclass); TypeError, IndexError, KeyError, AttributeError or any
other exception fails the sweep.  The rxn hosts stay under the exact
cover search's cap, so `min_cover_exact` never raises `ExceedsCap`, and
`enumerate_all` runs in this process on hosts of at most 16 colourings.
Named cases below pin the refusals one by one.
"""

import itertools
import random
import tracemalloc

import pytest

import monopart.bipartite as bp
import monopart.multipartite as mp
import monopart.oracles as orc
import monopart.threecolour as tc
import monopart.tightpaths as tp
from monopart.certificates import PartitionCertificate, Piece, check_certificate
from monopart.colourings import (
    BLUE,
    RED,
    Colour,
    HyperSplitSizes,
    SplitStructure,
    TransversalColouring,
    TripleColouring,
)
from monopart.generators import gen_random, gen_split_bipartite, gen_v_colouring

MODULES = (bp, tp, mp, tc, orc)

HOSTS = {
    "h3": gen_random("h3", 6, 2, seed=1),
    "kn2": gen_random("kn", 5, 2, seed=1),
    "kn3": gen_random("kn", 5, 3, seed=1),
    "bnn2": gen_random("bnn", 4, 2, seed=1),
    "bnn2-split": gen_split_bipartite(4, 2, 1)[0],
    "bnn2-v": gen_v_colouring(4, 1),
    "bnn3": gen_random("bnn", 4, 3, seed=1),
    "rxn": gen_random("rxn", 3, 2, seed=1, r=2),
    "rxn-rule": TransversalColouring(2, 3, rule=HyperSplitSizes(2, 3, (1, 2))),
    "rxn3-rule": TransversalColouring(3, 2, rule=HyperSplitSizes(3, 2, (1, 1, 1))),
}
BNN2 = [col for col in HOSTS.values() if col.kind == "bnn" and col.palette == 2]
SIZES = [col.rule for col in HOSTS.values() if getattr(col, "rule", None) is not None]
TURNS = (None, -1, 0, 1, 2, 3, 7)
SHAPES = [(), (("path", None),), (("path", RED), ("cycle", BLUE)), (("cycle", None), ("path", None)),
          (("walk", None),)]


def _sequences(col):
    """Vertex lists for `col`: empty, single, repeated, out of range,
    negative, same-class neighbours (bnn), and some valid ones."""
    m, n = col.n_vertices, col.n
    zigzag = [v for pair in zip(range(n), range(n, 2 * n)) for v in pair]
    return [
        [], [0], [0, 0], [m], [-1], [0, m], [0, 1, 0, 1], [-1, 0, 1, 2], [0, 1, 2, 3],
        [1, 0, 2], [0, n, 1, n + 1], [0, n, 0, n], [0, 1, n, n + 1], [n, 0, n + 1, 1, n + 2],
        list(range(m)), list(range(m))[::-1], zigzag, zigzag[1:] + zigzag[:1],
    ]


def _structures():
    """Split and V structures of the bnn2 hosts, and hand-built ones."""
    out = [SplitStructure((0,), (1, 2, 3), (4,), (5, 6, 7)), SplitStructure((0, 9), (1,), (4,), (5,))]
    for side, red, blue in ((0, (4,), (5, 6, 7)), (1, (0, 1), (2, 3)), (2, (4,), (5, 6, 7)),
                            (0, (), (4, 5, 6, 7)), (0, (4, 99), (5, 6, 7)), (1, (-1, 0), (1, 2, 3))):
        out.append(bp.VColStructure(side, red, blue))
    for col in BNN2:
        verdict = bp.classify_bipartite(col)
        out += [s for s in (verdict.split, verdict.vcol) if s is not None]
    return out


def _paths(col):
    """Hand-built tight paths with every turn, and paths `augment` grew."""
    out = [tp.BicolouredTightPath(tuple(seq), turn) for seq in _sequences(col) for turn in TURNS]
    if isinstance(col, TripleColouring):
        grown = tp.BicolouredTightPath((0,), None, 1)
        for w in range(1, col.n):
            grown = tp.augment(col, grown, w)
            out.append(grown)
    return out


def _frames(col):
    frames = [(seq, ell) for seq in _sequences(col) for ell in (None, 0, 2, 3, 99)]
    for c4 in BNN2:
        witness = bp.classify_bipartite(c4).good_c4
        if witness is not None:
            frames.append(bp._frame(c4, list(witness), RED))
    return frames + [([0, 4, 1, 5],), ([0, 4, 1, 5], 2, 0)]


# name -> the argument tuples it is called with on one host
CASES = {
    "bipartite.VColStructure": lambda col: [
        (s.bichro_class, s.red_arm, s.blue_arm) for s in _structures() if isinstance(s, bp.VColStructure)
    ],
    "bipartite.Classification": lambda col: [("other",), ("mono", RED)],
    "bipartite.SplitDetected": lambda col: [(s,) for s in _structures()],
    "bipartite.BalancedC4Present": lambda col: [((0, 4, 1, 5),)],
    "bipartite.SpanningCycle": lambda col: [(tuple(seq), "mono") for seq in _sequences(col)],
    "bipartite.classify_bipartite": lambda col: [(col,)],
    "bipartite.find_balanced_c4": lambda col: [
        (col, s0, s1) for s0, s1 in itertools.product(_sequences(col)[:12], repeat=2)
    ],
    "bipartite.near_mono_spanning_path": lambda col: [
        (col, s0, s1) for s0, s1 in itertools.product(_sequences(col)[:12], repeat=2)
    ],
    "bipartite.extend_good_cycle": lambda col: [
        (col, frame, quad) for frame in _frames(col) for quad in _sequences(col)[:14]
    ],
    "bipartite.spanning_bicoloured_or_mono_cycle": lambda col: [(col,)],
    "bipartite.partition_path_cycle": lambda col: [(col,)],
    "bipartite.partition_path_cycle_coloured": lambda col: [(col, seq) for seq in _sequences(col)],
    "bipartite.two_paths": lambda col: [(col,)],
    "bipartite.split_three_paths": lambda col: [(col, s) for s in _structures() + [None]],
    "bipartite.v_two_cycles": lambda col: [(col, s) for s in _structures() + [None]],
    "tightpaths.TightPathClass": lambda col: [("invalid",), ("mono", RED)],
    "tightpaths.BicolouredTightPath": lambda col: [
        (tuple(seq), turn) for seq in _sequences(col) for turn in TURNS
    ],
    "tightpaths.classify_tight_path": lambda col: [(col, seq) for seq in _sequences(col)],
    "tightpaths.augment": lambda col: [
        (col, path, w) for path in _paths(col) for w in (-1, 0, 1, 5, col.n_vertices)
    ],
    "tightpaths.spanning_bicoloured_path": lambda col: [(col,)],
    "tightpaths.split_into_two_mono": lambda col: [(col, p) for p in _paths(col)]
    + [(col, seq) for seq in _sequences(col)],
    "multipartite.ExceedsCap": lambda col: [("over the cap",)],
    "multipartite.validate_transversal_tight_path": lambda col: [
        (getattr(col, "r", 2), col.n, seq) for seq in _sequences(col)
    ],
    "multipartite.check_side_consistency": lambda col: [
        (sizes, seq) for sizes in SIZES for seq in _sequences(col)
    ],
    "multipartite.CountingReport": lambda col: [(2, col.n, False, ())],
    "multipartite.verify_counting": lambda col: [(r, col.n) for r in (-1, 0, 1, getattr(col, "r", 2))],
    "multipartite.min_cover_exact": lambda col: [(col,)],
    "multipartite.random_mono_tight_path": lambda col: [(sizes, random.Random(1)) for sizes in SIZES],
    "threecolour.BalancedBipBlock": lambda col: [
        (tuple(s0), tuple(s1)) for s0, s1 in itertools.product(_sequences(col)[:6], repeat=2)
    ],
    "threecolour.path_and_balanced_block": lambda col: [(col,)],
    "threecolour.path_and_two_balanced_blocks": lambda col: [(col,)],
    "threecolour.partition3_complete": lambda col: [(col,)],
    "threecolour.partition3_bipartite": lambda col: [(col,)],
    "oracles.find_good_c4": lambda col: [(col,)],
    "oracles.oracle_spanning_bipath_exists": lambda col: [(col,)],
    "oracles.ShapeSpec": lambda col: [(pieces, distinct) for pieces in SHAPES for distinct in (False, True)],
    "oracles.oracle_partition_exists": lambda col: [  # ShapeSpec refuses the "walk" shape
        (col, orc.ShapeSpec(pieces, distinct)) for pieces in SHAPES[:-1] for distinct in (False, True)
    ],
    "oracles.oracle_min_pieces": lambda col: [(col,)],
    "oracles.OracleReport": lambda col: [("none", "bnn", -1, 0, ((0, "failed"),))],
    "oracles.enumerate_all": lambda col: [
        (suite, n) for suite in [*orc.SUITES, "unknown"] for n in (-1, 0, 1, 2, 7)
    ],
    # not exported, but entry points of the cycle guard
    "bipartite.is_good_cycle": lambda col: [(col, seq) for seq in _sequences(col)],
    "bipartite.cycle_profile": lambda col: [(col, seq) for seq in _sequences(col)],
}


def _entry(name):
    module, attr = name.split(".")
    f = getattr(next(m for m in MODULES if m.__name__ == "monopart." + module), attr)
    if name == "bipartite.VColStructure":  # a structure is only checked by `verify`
        return lambda *args: [f(*args).verify(col) for col in HOSTS.values()]
    return f


def test_the_sweep_covers_every_exported_callable():
    exported = {
        f"{m.__name__.split('.')[-1]}.{name}" for m in MODULES for name in m.__all__
        if callable(getattr(m, name))
    }
    assert exported <= set(CASES), sorted(exported - set(CASES))


@pytest.mark.parametrize("name", sorted(CASES))
def test_entry_point_returns_or_raises_value_error(name):
    f = _entry(name)
    calls = 0
    for col in HOSTS.values():
        for args in CASES[name](col):
            try:
                f(*args)
            except ValueError:
                pass
            calls += 1
    assert calls >= len(HOSTS)


# ---------------------------------------------------------------------------
# named cases


H3 = gen_random("h3", 6, 2, seed=1)
BNN = gen_random("bnn", 4, 2, seed=1)
NOT_H3 = [HOSTS[k] for k in ("kn2", "bnn2", "bnn3", "rxn", "rxn-rule")]


@pytest.mark.parametrize("turn", [0, None, 7])
def test_augment_refuses_a_hand_built_path_with_a_wrong_turn(turn):
    # (0, 4, 1, 5) is monochromatic on this host: its turn is 1 or 3
    assert tp.classify_tight_path(H3, (0, 4, 1, 5)).kind == "mono"
    with pytest.raises(ValueError, match="canonical turn"):
        tp.augment(H3, tp.BicolouredTightPath((0, 4, 1, 5), turn), 2)
    for ok in (1, 3):
        assert len(tp.augment(H3, tp.BicolouredTightPath((0, 4, 1, 5), ok), 2)) == 5


def test_augment_refuses_an_invalid_hand_built_path():
    for seq in ((0, 0, 1), (0, 1, 6), (-1, 0, 1)):
        with pytest.raises(ValueError, match="canonical turn"):
            tp.augment(H3, tp.BicolouredTightPath(seq, 2), 3)


@pytest.mark.parametrize("col", NOT_H3, ids=lambda c: repr(c))
def test_tight_path_entry_points_refuse_a_host_that_is_not_h3(col):
    path = tp.BicolouredTightPath(tuple(range(col.n)), col.n - 1)
    for call in (lambda: tp.classify_tight_path(col, [0, 1, 2]), lambda: tp.split_into_two_mono(col, path),
                 lambda: tp.augment(col, tp.BicolouredTightPath((0, 1, 2), 2), 3),
                 lambda: tp.augment(col, tp.BicolouredTightPath((0,), None, 1), 1)):
        with pytest.raises(ValueError, match="h3 colouring"):
            call()


@pytest.mark.parametrize("col", [H3, BNN, HOSTS["kn3"]], ids=["h3", "bnn", "kn"])
def test_min_cover_refuses_a_host_that_is_not_rxn(col):
    with pytest.raises(ValueError, match="rxn host"):
        mp.min_cover_exact(col)


@pytest.mark.parametrize("col", [BNN, H3, HOSTS["rxn"], HOSTS["kn2"], HOSTS["bnn3"]],
                         ids=["bnn2", "h3", "rxn", "kn2", "bnn3"])
def test_v_two_cycles_refuses_a_structure_that_does_not_verify(col):
    # the V structure of another host: on BNN its blue cycle has a red edge
    structure = bp.classify_bipartite(gen_v_colouring(4, 1)).vcol
    with pytest.raises(ValueError, match="not a V-colouring"):
        bp.v_two_cycles(col, structure)


def test_v_structure_verifies_through_the_split_row_check(monkeypatch):
    # one row check serves both witnesses; a V-colouring is the split block
    # pattern with one part empty
    seen = []
    check = bp._red_blocks
    monkeypatch.setattr(bp, "_red_blocks", lambda col, a1, b1: seen.append((list(a1), list(b1)))
                        or check(col, a1, b1))
    for cut in (1, 2, 3):
        col = gen_v_colouring(4, cut)
        vcol = bp.classify_bipartite(col).vcol
        assert vcol.verify(col)
        assert not bp.VColStructure(vcol.bichro_class, vcol.blue_arm, vcol.red_arm).verify(col)
    assert len(seen) == 6


def test_cycle_profile_refuses_a_repeated_vertex():
    # it used to read the one edge (0, 4) four times and answer ('mono', ())
    for cyc in ([0, 4, 0, 4], [0, 0]):
        with pytest.raises(ValueError, match="repeats"):
            bp.cycle_profile(BNN, cyc)


@pytest.mark.parametrize("call", [
    lambda: bp.find_balanced_c4(BNN, [0, 0], [5, 6]),
    lambda: bp.near_mono_spanning_path(BNN, [0, 0], [4, 5]),
    lambda: bp.near_mono_spanning_path(BNN, [0, 1], [5, 5]),
], ids=["balanced-c4", "near-mono-class-0", "near-mono-class-1"])
def test_subset_entry_points_refuse_a_repeated_vertex(call):
    # they used to answer (0, 5, 0, 6) and the "path" [0, 4, 0, 5]
    with pytest.raises(ValueError, match="repeats a vertex"):
        call()


def test_extension_bounds_a_hand_built_frame_before_building_its_bitmask():
    # the frame's bitmask used to be built first: 1 << 10**8 alone is 12.5 MB
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="alternating the classes"):
            bp.extend_good_cycle(BNN, ([0, 4, 1, 10**8], 2), (2, 3, 6, 7))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def _good_frame_and_quads(col):
    """The red-led frame of the host's first good C4 and the 4-sets of the
    other vertices, two from each class."""
    c4 = list(bp.classify_bipartite(col).good_c4)
    frame = bp._frame(col, c4, RED)
    n = col.n
    rest0 = [u for u in range(n) if u not in c4]
    rest1 = [u for u in range(n, 2 * n) if u not in c4]
    quads = [list(a) + list(b) for a in itertools.combinations(rest0, 2)
             for b in itertools.combinations(rest1, 2)]
    return frame, quads


def _balanced(col, quad):
    rows = col.rows
    return sum(rows[a][b] for a in quad[:2] for b in quad[2:]) == 2


def test_extension_refuses_a_cycle_that_is_not_good():
    for seed in range(50):
        col = gen_random("bnn", 4, 2, seed=seed)
        for a, a2, b, b2 in itertools.product(range(4), range(4), range(4, 8), range(4, 8)):
            if a < a2 and b < b2:
                cyc = [a, b, a2, b2]
                if bp.cycle_profile(col, cyc)[0] == "bicoloured" and not bp.is_good_cycle(col, cyc):
                    rest = sorted(set(range(8)) - set(cyc))
                    with pytest.raises(ValueError, match="input cycle is not good"):
                        bp.extend_good_cycle(col, bp._frame(col, cyc, RED), rest)
                    return
    pytest.fail("no bicoloured C4 that is not good")


def test_extension_refuses_a_bad_quad():
    col = gen_random("bnn", 6, 2, seed=2)
    frame, quads = _good_frame_and_quads(col)
    c4 = frame[0]
    for quad in ([0, 1, 2, 6], [0, 6, 7, 8], [0, 1, 6, 12], [-1, 0, 6, 7], [0, 0, 6, 7]):
        with pytest.raises(ValueError, match="not a C4 vertex set"):
            bp.extend_good_cycle(col, frame, quad)
    overlap = [c4[0], c4[2]] if c4[0] < 6 else [c4[1], c4[3]]
    with pytest.raises(ValueError, match="not disjoint"):
        bp.extend_good_cycle(col, frame, overlap + [q for q in quads[0] if q >= 6])
    unbalanced = [q for q in quads if not _balanced(col, q)]
    assert unbalanced
    with pytest.raises(ValueError, match="not balanced"):
        bp.extend_good_cycle(col, frame, unbalanced[0])
    balanced = [q for q in quads if _balanced(col, q)]
    assert balanced and bp.is_good_cycle(col, bp.extend_good_cycle(col, frame, balanced[0])[0])


def test_coloured_partition_refuses_a_cycle_that_is_not_spanning():
    with pytest.raises(ValueError, match="not spanning"):
        bp.partition_path_cycle_coloured(BNN, [0, 4, 1, 5])


def test_split_into_two_mono_refuses_an_invalid_spanning_path():
    # red, blue, red runs along the six vertices
    red = {(0, 1, 2), (2, 3, 4)}
    col = TripleColouring.from_digits(6, [RED if (a, b, c) in red else BLUE
                                          for c in range(6) for b in range(c) for a in range(b)])
    with pytest.raises(ValueError, match="input path invalid"):
        tp.split_into_two_mono(col, tp.BicolouredTightPath(tuple(range(6)), 2))


def test_checker_names_a_window_that_is_not_transversal():
    col = gen_random("rxn", 2, 2, seed=1, r=2)
    for vertices in ((0, 1, 2, 3), (0, 2, 3, 1)):
        colour = Colour(col.colour_bit(vertices[:2])) if vertices[1] == 2 else RED
        cert = PartitionCertificate.for_colouring(col, [Piece("path", colour, vertices)])
        res = check_certificate(col, cert)
        assert (res.ok, res.reason, res.piece_index) == (False, "not-transversal-window", 0)


@pytest.mark.parametrize("col", [HOSTS[k] for k in ("kn2", "bnn2", "rxn", "rxn-rule")] + [
    gen_random("rxn", 2, 2, seed=1, r=2)], ids=["kn2", "bnn2", "rxn", "rxn-rule", "rxn-2-2"])
def test_permutation_oracle_refuses_a_host_that_is_not_h3(col):
    # kn raised TypeError from colour_bit, and the rxn 2 x 2 host answered
    # (True, [0, 1])
    with pytest.raises(ValueError, match="serves h3 hosts"):
        orc.oracle_spanning_bipath_exists(col)


@pytest.mark.parametrize("col", [H3] + [HOSTS[k] for k in ("rxn", "rxn-rule", "rxn3-rule")],
                         ids=["h3", "rxn", "rxn-rule", "rxn3-rule"])
def test_partition_oracles_refuse_a_host_that_is_not_a_pair_host(col):
    # both raised TypeError on rxn hosts, and oracle_min_pieces on h3 too
    with pytest.raises(ValueError, match="serves pair hosts"):
        orc.oracle_min_pieces(col)
    with pytest.raises(ValueError, match="serves pair hosts"):
        orc.oracle_partition_exists(col, orc.ShapeSpec((("path", None), ("cycle", None)), True))
