import json
import random

import pytest
from hypothesis import given, strategies as st

from monopart.certificates import CheckResult, PartitionCertificate, Piece, check_certificate
from monopart.colourings import (
    BLUE,
    GREEN,
    RED,
    Colour,
    HyperSplitSizes,
    PairColouring,
    TransversalColouring,
    TripleColouring,
)
from monopart.generators import gen_random, gen_split_bipartite


def ok(col, pieces):
    return check_certificate(col, PartitionCertificate.for_colouring(col, pieces))


def test_accepts_spanning_red_tight_path():
    col = TripleColouring.constant(5, 0)
    res = ok(col, [Piece("path", RED, (0, 1, 2, 3, 4))])
    assert res.ok


def test_rejects_overlap_and_gap():
    col = TripleColouring.constant(5, 0)
    res = ok(col, [Piece("path", RED, (0, 1, 2)), Piece("path", BLUE, (2, 3, 4))])
    assert not res.ok and res.reason == "disjointness"
    res = ok(col, [Piece("path", RED, (0, 1, 2))])
    assert not res.ok and res.reason == "coverage"


def test_rejects_off_colour_edge():
    col = TripleColouring.constant(5, 0)
    res = ok(col, [Piece("path", BLUE, (0, 1, 2, 3, 4))])
    assert not res.ok and res.reason == "monochromaticity"


def test_bipartite_structure_checks():
    col = PairColouring.constant("bnn", 3, 2, 0)
    assert ok(col, [Piece("cycle", RED, (0, 3, 1, 4, 2, 5))]).ok
    # odd cycle cannot close in a bipartite host
    res = ok(col, [Piece("cycle", RED, (0, 3, 1, 4, 2)), Piece("path", BLUE, (5,))])
    assert not res.ok
    # consecutive vertices in one class
    res = ok(col, [Piece("path", RED, (0, 1, 3, 4, 2, 5))])
    assert not res.ok and res.reason == "edge-within-class"


def test_degenerate_cycle_is_colour_free():
    col, _ = gen_split_bipartite(2, 1, 1)
    # (0,3) is blue; declared red as a two-vertex cycle it still passes
    pieces = [Piece("cycle", RED, (0, 3)), Piece("path", BLUE, (1, 2))]
    assert ok(col, pieces).ok
    # but as a path the declared colour must match
    pieces = [Piece("path", RED, (0, 3)), Piece("path", BLUE, (1, 2))]
    assert not ok(col, pieces).ok


def test_host_mismatch():
    col = TripleColouring.constant(5, 0)
    other = TripleColouring.constant(6, 0)
    cert = PartitionCertificate.for_colouring(other, [Piece("path", RED, tuple(range(6)))])
    assert not check_certificate(col, cert).ok


def test_text_roundtrip():
    col = PairColouring.constant("bnn", 2, 3, 2)
    cert = PartitionCertificate.for_colouring(
        col, [Piece("cycle", GREEN, (0, 2, 1, 3)), Piece("path", RED, ())]
    )
    back = PartitionCertificate.from_text(cert.to_text())
    assert back == cert


def test_from_text_rejects_deep_nesting():
    with pytest.raises(ValueError, match="nested too deeply"):
        PartitionCertificate.from_text("[" * 200_000)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=20,
)
_PIECE_LIKE = st.fixed_dictionaries({
    "kind": st.sampled_from(["path", "cycle", "loop"]) | _JSON,
    "colour": st.sampled_from(["red", "Blue", "green", "r"]) | _JSON,
    "vertices": st.lists(st.integers(-2, 9), max_size=6) | _JSON,
})
_CERTIFICATE_LIKE = st.fixed_dictionaries({
    "host": st.fixed_dictionaries({"kind": st.sampled_from(["h3", "bnn"]), "n": st.integers()}) | _JSON,
    "pieces": st.lists(_PIECE_LIKE | _JSON, max_size=3) | _JSON,
})


@given(st.one_of(st.text(), _JSON.map(json.dumps), _CERTIFICATE_LIKE.map(json.dumps)))
def test_from_text_raises_value_error_or_returns_a_certificate(text):
    try:
        cert = PartitionCertificate.from_text(text)
    except ValueError:
        return
    assert isinstance(cert, PartitionCertificate)


_HOSTS = (
    gen_random("h3", 5, seed=1),
    gen_random("kn", 5, 2, seed=1),
    gen_random("kn", 4, 3, seed=1),
    gen_random("bnn", 3, 2, seed=1),
    gen_random("bnn", 3, 3, seed=1),
    gen_random("rxn", 3, seed=1, r=2),
    TransversalColouring(3, 3, rule=HyperSplitSizes(3, 3, (1, 1, 2))),
)


@st.composite
def _checked_certificates(draw):
    """(host, certificate): pieces of either kind and any colour, whose
    vertices may repeat or leave the host's range, usually declared for
    the host itself and sometimes for another one."""
    col = draw(st.sampled_from(_HOSTS))
    n = col.n_vertices
    vertices = st.lists(st.integers(-1, n), max_size=n + 1) | st.lists(
        st.integers(0, n - 1), unique=True, max_size=n
    )
    piece = st.builds(Piece, st.sampled_from(["path", "cycle"]), st.sampled_from(list(Colour)),
                      vertices.map(tuple))
    declared = draw(st.sampled_from(_HOSTS) | st.just(col))
    return col, PartitionCertificate.for_colouring(declared, draw(st.lists(piece, max_size=3)))


@given(_checked_certificates())
def test_check_certificate_returns_a_result_and_text_round_trips(case):
    col, cert = case
    assert isinstance(check_certificate(col, cert), CheckResult)
    assert PartitionCertificate.from_text(cert.to_text()) == cert


def _corrupt(cert, rnd):
    """(certificate, guaranteed_invalid) or None when no mutation applies."""
    pieces = [Piece(p.kind, p.colour, tuple(p.vertices)) for p in cert.pieces]
    mode = rnd.choice(["swap", "flip", "drop", "dupe"])
    idx = rnd.randrange(len(pieces))
    p = pieces[idx]
    if mode == "swap":
        if len(p.vertices) < 2:
            return None
        vs = list(p.vertices)
        i, j = rnd.sample(range(len(vs)), 2)
        vs[i], vs[j] = vs[j], vs[i]
        pieces[idx] = Piece(p.kind, p.colour, tuple(vs))
        guaranteed = False  # the swapped piece may still be a valid piece
    elif mode == "flip":
        pieces[idx] = Piece(p.kind, Colour((p.colour + 1) % 2), p.vertices)
        # flips break pieces that actually carry checked edges
        guaranteed = (p.kind == "path" and len(p.vertices) >= 2) or (
            p.kind == "cycle" and len(p.vertices) >= 3
        )
    elif mode == "drop":
        pieces.pop(idx)
        guaranteed = bool(p.vertices)  # coverage breaks
    else:
        vs = list(p.vertices)
        if not vs:
            return None
        vs.append(vs[0])
        pieces[idx] = Piece(p.kind, p.colour, tuple(vs))
        guaranteed = True  # repeated vertex
    return PartitionCertificate(cert.host, tuple(pieces)), guaranteed


def test_checker_rejects_corruptions():
    """Fuzz: single-field corruptions of valid certificates are rejected
    whenever they break the partition; mutations that happen to produce
    another true certificate may legitimately pass."""
    from monopart.bipartite import SplitDetected, partition_path_cycle

    rnd = random.Random(31337)
    rejected = 0
    attempts = 0
    for trial in range(300):
        n = rnd.randint(2, 5)
        col = gen_random("bnn", n, 2, seed=trial)
        res = partition_path_cycle(col)
        if isinstance(res, SplitDetected):
            continue
        cert = PartitionCertificate.for_colouring(col, [p for p in res if p.vertices])
        assert check_certificate(col, cert).ok
        for _ in range(8):
            out = _corrupt(cert, rnd)
            if out is None or out[0] == cert:
                continue
            bad, guaranteed = out
            attempts += 1
            res2 = check_certificate(col, bad)
            if guaranteed:
                assert not res2.ok, (trial, bad)
            if not res2.ok:
                rejected += 1
    assert attempts > 300
    assert rejected / attempts > 0.7  # deterministic given the seed


def test_checker_rejects_all_structural_corruptions():
    col = TripleColouring.constant(6, 1)
    base = PartitionCertificate.for_colouring(col, [Piece("path", BLUE, tuple(range(6)))])
    assert check_certificate(col, base).ok
    # piece deletion
    assert not check_certificate(col, PartitionCertificate(base.host, ())).ok
    # colour flip
    flipped = PartitionCertificate(base.host, (Piece("path", RED, tuple(range(6))),))
    assert not check_certificate(col, flipped).ok


@pytest.mark.parametrize("vertex", [0.0, True, "0", None], ids=["float", "bool", "str", "none"])
def test_checker_returns_a_vertex_that_is_not_an_int(vertex):
    # a hand-built piece's float vertex used to raise TypeError deep in the
    # edge read; every host kind now returns the violation
    hosts = [gen_random("kn", 4, 2, seed=1), gen_random("bnn", 2, 2, seed=1),
             TripleColouring.constant(4, 0), gen_random("rxn", 2, 2, seed=1, r=2)]
    for col in hosts:
        for vertices in ((vertex, 1, 2, 3), (1, 2, 3, vertex)):
            res = ok(col, [Piece("path", RED, vertices)])
            assert (res.ok, res.reason, res.piece_index, res.detail) == (False, "vertex-not-int", 0, (vertex,))


@pytest.mark.parametrize("colour", ["red", 0.0, True, None], ids=["str", "float", "bool", "none"])
def test_checker_returns_a_colour_that_is_not_an_int(colour):
    # a hand-built piece's string colour used to raise TypeError, and a
    # float 0.0 passed as red; the verdict does not depend on the length
    hosts = [gen_random("kn", 4, 2, seed=1), gen_random("bnn", 2, 2, seed=1),
             TripleColouring.constant(4, 0), gen_random("rxn", 2, 2, seed=1, r=2)]
    for col in hosts:
        for vertices in ((0,), (0, 1, 2, 3)):
            rest = [Piece("path", RED, (v,)) for v in range(col.n_vertices) if v not in vertices]
            res = ok(col, [Piece("path", colour, vertices)] + rest)
            assert (res.ok, res.reason, res.piece_index, res.detail) == (False, "colour-not-int", 0, (colour,))


def test_checker_takes_an_int_or_a_colour_inside_the_palette():
    col = PairColouring.constant("kn", 3, 2, 1)
    assert ok(col, [Piece("path", 1, (0, 1, 2))]).ok
    assert ok(col, [Piece("path", BLUE, (0, 1, 2))]).ok
    # a negative colour on an edgeless piece used to pass
    for colour in (-1, 2):
        res = ok(col, [Piece("path", colour, (0,)), Piece("path", BLUE, (1, 2))])
        assert (res.ok, res.reason, res.piece_index) == (False, "colour-outside-palette", 0)
