import hashlib
import itertools

import pytest
from hypothesis import given, strategies as st

from monopart.colourings import (
    BLUE,
    GREEN,
    NO_EDGE,
    RED,
    Colour,
    HyperSplitSizes,
    PairColouring,
    TransversalColouring,
    TripleColouring,
    pair_index,
    parse_colouring,
    serialize_colouring,
    transversal_index,
    triple_index,
)
from monopart.generators import gen_random


def test_triple_index_colex():
    assert triple_index(0, 1, 2) == 0
    assert triple_index(2, 3, 4) == 9  # last of C(5,3)
    assert triple_index(2, 0, 1) == 0  # order-insensitive
    # colex enumerates every rank exactly once
    import itertools

    ranks = sorted(triple_index(*t) for t in itertools.combinations(range(6), 3))
    assert ranks == list(range(20))


def test_pair_and_bipartite_index():
    assert pair_index(0, 1) == 0
    bnn = PairColouring.constant("bnn", 3, 2, 0)
    assert bnn.edge_ordinal(2, 3 + 1) == bnn.edge_ordinal(3 + 1, 2) == 7
    assert transversal_index(3, 2, (2, 1)) == 7
    with pytest.raises(ValueError):
        triple_index(1, 1, 2)
    with pytest.raises(ValueError):
        bnn.edge_ordinal(3, 3)


@pytest.mark.parametrize(
    "kind, n", [("bnn", n) for n in (1, 2, 3, 4)] + [("kn", n) for n in range(1, 7)]
)
def test_from_int_matches_the_per_bit_definition(kind, n):
    # bit i of the index is the colour of edge i, for every index of the host
    m = PairColouring.constant(kind, n, 2, RED).n_edges
    for value in range(1 << m):
        col = PairColouring.from_int(kind, n, value)
        assert col.entries == bytes((value >> i) & 1 for i in range(m))
        assert (col.kind, col.n, col.palette) == (kind, n, 2)


@pytest.mark.parametrize("kind, n", [("bnn", 1), ("bnn", 4), ("kn", 1), ("kn", 6)])
def test_from_int_refuses_an_index_out_of_range(kind, n):
    m = PairColouring.constant(kind, n, 2, RED).n_edges
    for value in (-1, 1 << m, (1 << m) + 1, -(1 << m)):
        with pytest.raises(ValueError, match="colouring index out of range"):
            PairColouring.from_int(kind, n, value)


def test_parse_examples():
    col = parse_colouring("h3 5\n0011001100")
    assert isinstance(col, TripleColouring)
    assert [i for i, d in enumerate(col.digits()) if d == 1] == [2, 3, 6, 7]

    allred = PairColouring.constant("bnn", 2, 2, 0)
    assert serialize_colouring(allred) == "bnn 2\n0000\n"
    # short-form header alias is accepted on parse
    assert parse_colouring("b2 2\n0000") == allred


@pytest.mark.parametrize(
    "text",
    [
        "b2 2\n00X0",  # character outside palette
        "bnn 2\n000",  # length mismatch
        "h3 5\n00110011001",  # length mismatch
        "kn 3\n012",  # palette-2 body with a 2
        "zz 4\n0000",  # unknown kind
        "bnn 1\n\u0661",  # ARABIC-INDIC DIGIT ONE is not an ASCII digit
        "bnn 1\n\uff11",  # FULLWIDTH DIGIT ONE is not an ASCII digit
        "rxn 0 -1\n",  # uniformity below 1
        "rxn -1 2\n0",  # no vertices
    ],
)
def test_parse_rejects(text):
    with pytest.raises(ValueError):
        parse_colouring(text)


@pytest.mark.parametrize("text", ["rxn 3 30000000\n0", "rxn 2 25\n0", "rxn -2 30000000\n0"])
def test_parse_refuses_oversized_rxn_header_before_counting(monkeypatch, text):
    import monopart.colourings as colourings

    count = colourings._n_edges

    def bounded(kind, n, r=None):
        assert r is None or r < 64, f"computed {n}**{r}"
        return count(kind, n, r)

    monkeypatch.setattr(colourings, "_n_edges", bounded)
    with pytest.raises(ValueError, match="materialization cap"):
        parse_colouring(text)


@given(st.integers(3, 8), st.integers(0, 2**20 - 1))
def test_roundtrip_h3(n, seed):
    col = gen_random("h3", n, 2, seed)
    assert parse_colouring(serialize_colouring(col)) == col


@given(
    st.sampled_from(["kn", "bnn"]),
    st.integers(1, 7),
    st.sampled_from([2, 3]),
    st.integers(0, 2**20 - 1),
)
def test_roundtrip_pairs(kind, n, palette, seed):
    col = gen_random(kind, n, palette, seed)
    assert parse_colouring(serialize_colouring(col)) == col


@given(st.integers(1, 3), st.integers(2, 4), st.integers(0, 2**16))
def test_roundtrip_rxn_materialized(r, n, seed):
    col = gen_random("rxn", n, 2, seed, r=r)
    back = parse_colouring(serialize_colouring(col))
    assert back.entries == col.entries
    assert back == col and hash(back) == hash(col)


def test_roundtrip_rxn_rule():
    col = TransversalColouring(3, 9, rule=HyperSplitSizes(3, 9, (1, 4, 8)))
    back = parse_colouring(serialize_colouring(col))
    assert back.rule == col.rule
    assert back == col and hash(back) == hash(col)
    assert col != col.materialize()


def test_rule_matches_materialized():
    rule = TransversalColouring(3, 3, rule=HyperSplitSizes(3, 3, (1, 2, 1)))
    mat = rule.materialize()
    for e0 in range(3):
        for e1 in range(3):
            for e2 in range(3):
                edge = (e0, 3 + e1, 6 + e2)
                assert rule.colour_bit(edge) == mat.colour_bit(edge)


# the fields that `==` and `hash` read, per host class
_FIELDS = {
    TripleColouring: lambda c: (c.n, c.bits),
    PairColouring: lambda c: (c.kind, c.n, c.palette, c.entries),
    TransversalColouring: lambda c: (c.r, c.n, c.rule, c.entries),
}


def _value_hosts():
    """(host, repr) pairs: per class a base host, a copy of it built from
    other argument types, and hosts that differ from it in one field where
    the class allows that (kn and bnn never have equal edge counts at one
    n, so `kind` changes with `n`)."""
    split = HyperSplitSizes(2, 3, (1, 1))
    return [
        (TripleColouring(4, b"\x05"), "TripleColouring(n=4)"),
        (TripleColouring(4, bytearray(b"\x05")), "TripleColouring(n=4)"),
        (TripleColouring(3, b"\x05"), "TripleColouring(n=3)"),
        (TripleColouring(4, b"\x06"), "TripleColouring(n=4)"),
        (PairColouring("kn", 3, 2, b"\x00\x01\x00"), "PairColouring(kn, n=3, palette=2)"),
        (PairColouring("kn", 3, 2, [0, 1, 0]), "PairColouring(kn, n=3, palette=2)"),
        (PairColouring("kn", 3, 3, b"\x00\x01\x00"), "PairColouring(kn, n=3, palette=3)"),
        (PairColouring("kn", 3, 2, b"\x01\x01\x00"), "PairColouring(kn, n=3, palette=2)"),
        (PairColouring("bnn", 2, 2, b"\x00\x01\x00\x00"), "PairColouring(bnn, n=2, palette=2)"),
        (PairColouring("bnn", 1, 2, b"\x00"), "PairColouring(bnn, n=1, palette=2)"),
        (PairColouring("kn", 2, 2, b"\x00"), "PairColouring(kn, n=2, palette=2)"),
        (TransversalColouring(2, 3, rule=split), "TransversalColouring(r=2, n=3, rule)"),
        (TransversalColouring(2, 3, rule=HyperSplitSizes(2, 3, (1, 1))),
         "TransversalColouring(r=2, n=3, rule)"),
        (TransversalColouring(2, 3, rule=HyperSplitSizes(2, 3, (1, 2))),
         "TransversalColouring(r=2, n=3, rule)"),
        (TransversalColouring(2, 3, entries=split.table()), "TransversalColouring(r=2, n=3, materialized)"),
        (TransversalColouring(2, 3, entries=list(split.table())),
         "TransversalColouring(r=2, n=3, materialized)"),
        (TransversalColouring(2, 3, entries=bytes(9)), "TransversalColouring(r=2, n=3, materialized)"),
        (TransversalColouring(2, 4, rule=HyperSplitSizes(2, 4, (1, 1))),
         "TransversalColouring(r=2, n=4, rule)"),
        (TransversalColouring(3, 2, entries=bytes(8)), "TransversalColouring(r=3, n=2, materialized)"),
        (TransversalColouring(1, 8, entries=bytes(8)), "TransversalColouring(r=1, n=8, materialized)"),
    ]


def test_host_equality_and_hash_follow_exactly_the_fields():
    hosts = _value_hosts()
    for (a, _), (b, _) in itertools.product(hosts, repeat=2):
        same = type(a) is type(b) and _FIELDS[type(a)](a) == _FIELDS[type(b)](b)
        assert (a == b, a != b) == (same, not same), (a, b)
    for host, text in hosts:
        assert repr(host) == text
        # dict and set keys rely on the hash of the field tuple
        assert hash(host) == hash(_FIELDS[type(host)](host))
    index = {host: i for i, (host, _) in enumerate(hosts)}
    assert len(index) == len({(type(h), _FIELDS[type(h)](h)) for h, _ in hosts}) == len(hosts) - 4
    assert index[TripleColouring(4, b"\x05")] == 1
    assert index[TransversalColouring(2, 3, rule=HyperSplitSizes(2, 3, (1, 1)))] == 12


def test_building_the_raw_view_changes_neither_equality_nor_hash():
    for kind, n in (("kn", 5), ("bnn", 3)):
        col, fresh = gen_random(kind, n, 3, seed=2), gen_random(kind, n, 3, seed=2)
        before = hash(col)
        assert col.rows is col.rows
        assert col == fresh and fresh == col and hash(col) == before == hash(fresh)
        assert {fresh: 1}[col] == 1


def test_transversal_colouring_takes_rule_and_entries_by_keyword_only():
    sizes = HyperSplitSizes(2, 3, (1, 1))
    with pytest.raises(TypeError):
        TransversalColouring(2, 3, sizes)
    with pytest.raises(TypeError):
        TransversalColouring(2, 3, None, sizes.table())


def test_two_colour_context_rejects_green():
    with pytest.raises(ValueError):
        PairColouring("bnn", 2, 2, bytes([0, 1, 2, 0]))
    with pytest.raises(ValueError):
        TripleColouring.constant(4, 2)


def test_colour_order():
    assert RED < BLUE < GREEN
    assert Colour.RED.letter == "red"


def test_palette_header_roundtrip():
    col = gen_random("kn", 5, 3, 11)
    text = serialize_colouring(col)
    assert text.startswith("kn 5 3\n")
    assert parse_colouring(text) == col



def test_parse_names_the_first_bad_character_before_the_length():
    with pytest.raises(ValueError, match="'\u0661' outside palette 2"):
        parse_colouring("bnn 2\n0\u0661X")
    with pytest.raises(ValueError, match="'3' outside palette 3"):
        parse_colouring("kn 3 3\n0232")
    with pytest.raises(ValueError, match="body length 3 != 4 edges"):
        parse_colouring("bnn 2\n010")


def test_from_digits_checks_count_and_palette():
    assert TripleColouring.from_digits(4, [1, 0, 0, 1]).bits == bytes([0b1001])
    with pytest.raises(ValueError):
        TripleColouring.from_digits(4, [0, 1, 0])
    with pytest.raises(ValueError):
        TripleColouring.from_digits(4, [0, 1, 2, 0])
    assert list(TripleColouring.constant(5, 1).digits()) == [1] * 10


# sha256 of serialize_colouring for one seeded host of each kind
_PINNED_HOSTS = {
    "h3": (lambda: gen_random("h3", 12, 2, seed=3),
           "fe5700de01fb847c0089d98bdc650ab1f99df05e97f9d1da0362d24458c9ef6a"),
    "kn2": (lambda: gen_random("kn", 12, 2, seed=3),
            "046a50b9a8fd1f23dcb62091ea95909a9814ca77644a0d3ee24c0fa2d92b96d4"),
    "kn3": (lambda: gen_random("kn", 12, 3, seed=3),
            "0dc5c90cc32370d22e637b54e7eae59e726fd21204b618e1e51a3bcb8ae5bc38"),
    "bnn2": (lambda: gen_random("bnn", 9, 2, seed=3),
             "cf9b66ae3b4bfb9ba4dca7d9fa5c489588c781bb887a222af9c19d26fa36632b"),
    "bnn3": (lambda: gen_random("bnn", 9, 3, seed=3),
             "967b5f0f1dc9f14c4c687d147beea70cdd5ec11cb6d1fc721b1801ff00ba7039"),
    "rxn": (lambda: gen_random("rxn", 5, 2, seed=3, r=3),
            "16c815b0bc95c2231a7da83771aec8f9d576c44d538af433e35eb966d5857b5c"),
    "rxn-rule": (lambda: TransversalColouring(3, 9, rule=HyperSplitSizes(3, 9, (1, 4, 8))),
                 "1ee0cd95a510679dbcf6e161e7b9b22eda86ad5f4009f86e609d58b434247dc8"),
}


@pytest.mark.parametrize("name", sorted(_PINNED_HOSTS))
def test_serialize_digest_pinned(name):
    make, digest = _PINNED_HOSTS[name]
    text = serialize_colouring(make())
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# canonical headers and their edge counts
_HEADERS = {"h3 4": 4, "h3 5": 10, "kn 3": 3, "kn 4 3": 6, "bnn 2": 4, "bnn 2 3": 4,
            "rxn 2 2": 4, "rxn 2 3": 8}
_BODY_CHARS = "01\u0661\uff112\u00b23x"


def _canonical_text(head):
    m = _HEADERS[head]
    body = st.text(alphabet=_BODY_CHARS, min_size=m - 1, max_size=m + 1)
    return body.map(lambda b: f"{head}\n{b}\n")


@given(st.one_of(
    st.text(),
    st.builds("{}\n{}".format, st.sampled_from(sorted(_HEADERS) + ["b2 2", "kn 3 2", "rxn 1 0"]),
              st.text(alphabet=_BODY_CHARS + " \t\r\n\x0b\x85\u2028\u3000", max_size=10)),
))
def test_parse_arbitrary_text_raises_or_round_trips(text):
    try:
        col = parse_colouring(text)
    except ValueError:
        return
    out = serialize_colouring(col)
    assert serialize_colouring(parse_colouring(out)) == out


@given(st.sampled_from(sorted(_HEADERS)).flatmap(_canonical_text))
def test_parse_canonical_text_raises_or_serialises_to_itself(text):
    try:
        col = parse_colouring(text)
    except ValueError:
        return
    assert serialize_colouring(col) == text


def _outcome(data):
    try:
        return parse_colouring(data)
    except ValueError as exc:
        return ("ValueError", str(exc))


@given(st.one_of(
    st.text(),
    st.builds("{}\n{}".format, st.sampled_from(sorted(_HEADERS) + ["b2 2", "kn 3 2", "rxn 1 0"]),
              st.text(alphabet=_BODY_CHARS + " \t\r\n\x0b\x85\u2028\u3000", max_size=10)),
    st.sampled_from(sorted(_HEADERS)).flatmap(_canonical_text),
))
def test_parse_text_and_its_utf8_bytes_agree(text):
    assert _outcome(text) == _outcome(text.encode())


def test_parse_names_a_non_ascii_character_of_a_byte_body():
    with pytest.raises(ValueError, match="'\u0661' outside palette 2"):
        parse_colouring("bnn 2\n0\u0661X".encode())
    with pytest.raises(ValueError, match="'\U0001d7d9' outside palette 3"):
        parse_colouring("kn 3 3\n0\U0001d7d92\u00b2".encode())


# -- header checks -------------------------------------------------------


@pytest.mark.parametrize("text, message", [
    ("bnn -1\n", "n must be positive"),
    ("kn 0\n", "n must be positive"),
    ("h3 2\n", "n >= 3"),
    ("bnn 100000\n0", "exceeds the edge cap 268435456"),
    ("kn 23171 3\n0", "exceeds the edge cap"),
    ("h3 1174\n0", "exceeds the edge cap"),
])
def test_parse_checks_the_header_before_the_body(monkeypatch, text, message):
    import monopart.colourings as colourings

    def unread(*args):
        raise AssertionError("the body was decoded")

    monkeypatch.setattr(colourings, "_parse_digits", unread)
    with pytest.raises(ValueError, match=message):
        parse_colouring(text)


def test_edge_cap_is_shared_by_the_parser_and_the_generators():
    import monopart.colourings as colourings
    import monopart.generators as generators

    assert generators.EDGE_CAP == colourings.EDGE_CAP == 1 << 28
    # the largest bnn host under the cap parses up to its body
    with pytest.raises(ValueError, match="body length 1 != 268435456 edges"):
        parse_colouring("bnn 16384\n0")


# -- the raw colour view --------------------------------------------------


def _pair_hosts(kind, n, palette):
    """Every colouring of the host when there are at most 2^16 of them,
    otherwise 200 seeded random ones."""
    m = n * (n - 1) // 2 if kind == "kn" else n * n
    if palette**m <= 1 << 16:
        for values in itertools.product(range(palette), repeat=m):
            yield PairColouring(kind, n, palette, bytes(values))
    else:
        for seed in range(200):
            yield gen_random(kind, n, palette, seed)


@pytest.mark.parametrize("kind", ["kn", "bnn"])
@pytest.mark.parametrize("palette", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_raw_view_agrees_with_colour_bit(kind, palette, n):
    if kind == "kn":
        edges = list(itertools.combinations(range(n), 2))
        non_edges = [(u, u) for u in range(n)]
        lengths, size = [n] * n, n * n
    else:
        edges = [(a, b) for a in range(n) for b in range(n, 2 * n)]
        non_edges = list(itertools.product(range(n), repeat=2))
        lengths, size = [2 * n] * n + [n] * n, 3 * n * n
    for col in _pair_hosts(kind, n, palette):
        rows = col.rows
        assert [len(row) for row in rows] == lengths and sum(lengths) == size
        want = [col.colour_bit(u, v) for u, v in edges]
        assert [rows[u][v] for u, v in edges] == want
        assert [rows[v][u] for u, v in edges] == want
        assert all(rows[u][v] == NO_EDGE for u, v in non_edges)


def test_raw_view_is_built_only_by_a_solver(monkeypatch):
    from monopart.bipartite import classify_bipartite
    from monopart.certificates import PartitionCertificate, check_certificate
    from monopart.generators import gen_split_bipartite, gen_v_colouring
    from monopart.oracles import find_good_c4
    from monopart.solve import solve

    solvable = [gen_random(kind, 6, palette, seed=7)
                for kind, palette in (("kn", 3), ("bnn", 2), ("bnn", 3))]
    solved = [(serialize_colouring(col), solve(col)[0].to_text()) for col in solvable]
    split_col, split = gen_split_bipartite(6, 2, 3)
    v_col = gen_v_colouring(6, 2)
    witnesses = [(serialize_colouring(split_col), split),
                 (serialize_colouring(v_col), classify_bipartite(v_col).vcol)]

    def unbuilt(self):
        raise AssertionError("the raw view was built")

    monkeypatch.setattr(PairColouring, "_build_rows", unbuilt)
    for kind in ("kn", "bnn"):
        for palette in (2, 3):
            col = gen_random(kind, 6, palette, seed=7)
            assert parse_colouring(serialize_colouring(col)) == col
    for text, cert in solved:
        assert check_certificate(parse_colouring(text), PartitionCertificate.from_text(cert)).ok
    for text, structure in witnesses:
        assert structure.verify(parse_colouring(text))
    # the oracle, on the random bnn2 host and the V-coloured one
    assert find_good_c4(parse_colouring(solved[1][0])) is not None
    assert find_good_c4(parse_colouring(witnesses[1][0])) is None


@pytest.mark.parametrize("kind, palette", [("bnn", 2), ("bnn", 3), ("kn", 3)])
def test_certificate_check_ignores_a_lying_view(monkeypatch, kind, palette):
    from monopart.certificates import PartitionCertificate, Piece, check_certificate
    from monopart.solve import solve

    col = gen_random(kind, 8, palette, seed=5)
    cert = solve(col)[0]
    piece = next(p for p in cert.pieces if len(p.vertices) >= 3)
    # the wrong piece carries the colour the lying view below reports
    wrong = PartitionCertificate(cert.host, tuple(
        Piece(p.kind, Colour((p.colour + 1) % palette), p.vertices) if p is piece else p
        for p in cert.pieces
    ))
    # every colour of the view moves to the next one
    shift = bytes((c + 1) % palette if c < palette else c for c in range(256))
    truth = PairColouring.rows.fget
    monkeypatch.setattr(PairColouring, "rows",
                        property(lambda self: [row.translate(shift) for row in truth(self)]))
    assert col.rows[0] != truth(col)[0]
    assert check_certificate(col, cert).ok
    res = check_certificate(col, wrong)
    assert not res.ok and res.reason == "monochromaticity"


# (host, palette, size, refusal): kn and bnn at both palettes, and
# materialised rxn
_PALETTE_HOSTS = [
    (lambda e: PairColouring("kn", 5, 2, e), 2, 10, "entry outside palette"),
    (lambda e: PairColouring("kn", 5, 3, e), 3, 10, "entry outside palette"),
    (lambda e: PairColouring("bnn", 3, 2, e), 2, 9, "entry outside palette"),
    (lambda e: PairColouring("bnn", 3, 3, e), 3, 9, "entry outside palette"),
    (lambda e: TransversalColouring(3, 2, entries=e), 2, 8, "entry outside 2-palette"),
]


@pytest.mark.parametrize("make, palette, size, refusal", _PALETTE_HOSTS)
def test_palette_check_refuses_exactly_the_bytes_outside_it(make, palette, size, refusal):
    # every byte value at the first, a middle and the last entry, from
    # bytes, a bytearray and a list: refused iff at or above the palette
    for value in range(256):
        for at in (0, size // 2, size - 1):
            values = [palette - 1] * size
            values[at] = value
            for entries in (bytes(values), bytearray(values), values):
                if value < palette:
                    assert make(entries).entries == bytes(values)
                else:
                    with pytest.raises(ValueError) as err:
                        make(entries)
                    assert str(err.value) == refusal


@pytest.mark.parametrize("make, palette, size, refusal", _PALETTE_HOSTS)
def test_palette_check_refuses_ints_past_a_byte(make, palette, size, refusal):
    for value in (256, 1000, -1):
        with pytest.raises(ValueError):
            make([0] * (size - 1) + [value])


def test_palette_check_finds_the_last_entry_of_a_large_host():
    n = 4096
    entries = bytearray(n * (n - 1) // 2)
    entries[-1] = 3
    with pytest.raises(ValueError, match="entry outside palette"):
        PairColouring("kn", n, 3, entries)
    entries[-1] = 2
    assert PairColouring("kn", n, 3, entries).colour_bit(n - 2, n - 1) == GREEN
