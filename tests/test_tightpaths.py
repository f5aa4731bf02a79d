import hashlib
import inspect
import itertools
import random
import sys

import numpy as np
import pytest

from monopart.colourings import BLUE, RED, TripleColouring
from monopart.generators import gen_random
from monopart.oracles import oracle_spanning_bipath_exists
from monopart.solve import solve
from monopart.tightpaths import (
    BicolouredTightPath,
    augment,
    classify_tight_path,
    spanning_bicoloured_path,
    split_into_two_mono,
)
from tests.conftest import all_triple_colourings


def colouring_by_rule(n, red_triples):
    red = {frozenset(t) for t in red_triples}
    digits = []
    for c in range(n):
        for b in range(c):
            for a in range(b):
                digits.append(0 if frozenset((a, b, c)) in red else 1)
    return TripleColouring.from_digits(n, digits)


def test_classify_examples():
    col = colouring_by_rule(4, [(0, 1, 2)])  # {1,2,3} blue
    res = classify_tight_path(col, [0, 1, 2, 3])
    assert res.kind == "bicoloured" and res.turn == 2

    allred = TripleColouring.constant(5, 0)
    res = classify_tight_path(allred, range(5))
    assert res.kind == "mono" and res.colour == RED

    # red, blue, red runs along six vertices
    col = colouring_by_rule(6, [(0, 1, 2), (2, 3, 4)])
    assert classify_tight_path(col, [0, 1, 2, 3, 4, 5]).kind == "invalid"


def test_classify_rejects_bad_sequences():
    col = TripleColouring.constant(5, 0)
    assert classify_tight_path(col, [0, 1, 1]).kind == "invalid"
    assert classify_tight_path(col, [0, 9, 2]).kind == "invalid"
    assert classify_tight_path(col, [0]).kind == "mono"
    assert classify_tight_path(col, []).kind == "mono"


def test_augment_mono_case():
    col = TripleColouring.constant(4, 0)
    path = BicolouredTightPath((0, 1, 2), 2)
    out = augment(col, path, 3)
    assert len(out.vertices) == 4
    assert classify_tight_path(col, out.vertices).kind != "invalid"


def test_augment_rejects_covered_vertex():
    col = TripleColouring.constant(4, 0)
    with pytest.raises(ValueError):
        augment(col, BicolouredTightPath((0, 1, 2), 2), 2)


def test_vertex_mask_keeps_the_membership_check():
    # a hand-built path has no mask and augment rebuilds it; a path that
    # augment returned carries one.  Either way a covered vertex is refused.
    col = gen_random("h3", 12, 2, seed=3)
    span = spanning_bicoloured_path(col).vertices
    hand = _canonical(col, span[3:9])
    assert hand.mask == 0
    for w in span[4:8] + (span[3], span[8]):  # interior vertices, then endpoints
        with pytest.raises(ValueError, match="already on the path"):
            augment(col, hand, w)
    path = BicolouredTightPath((0,), None, 1)
    for w in range(1, 8):
        path = augment(col, path, w)
    assert path.mask == (1 << 8) - 1
    for w in path.vertices:
        with pytest.raises(ValueError, match="already on the path"):
            augment(col, path, w)
    with pytest.raises(ValueError, match="out of range"):
        augment(col, path, 12)
    assert augment(col, path, 8).mask == (1 << 9) - 1


def test_vertex_mask_is_not_part_of_the_value():
    col = gen_random("h3", 30, 2, seed=5)
    grown = spanning_bicoloured_path(col)
    hand = BicolouredTightPath(grown.vertices, grown.turn)
    assert grown.mask == (1 << 30) - 1 and hand.mask == 0
    assert grown == hand and hash(grown) == hash(hand) and repr(grown) == repr(hand)
    assert repr(hand) == f"BicolouredTightPath(vertices={grown.vertices!r}, turn={grown.turn!r})"
    with pytest.raises(AttributeError):
        grown.mask = 0


def _canonical(col, seq):
    """`seq` as a BicolouredTightPath with its canonical turn; None if invalid."""
    cls = classify_tight_path(col, seq)
    if cls.kind == "invalid":
        return None
    k = len(seq)
    turn = cls.turn if cls.kind == "bicoloured" else (k - 1 if k >= 2 else None)
    return BicolouredTightPath(tuple(seq), turn)


def _valid_paths(col, n, max_len=None):
    """Every valid bicoloured tight path over [n] as a BicolouredTightPath."""
    max_len = max_len or n
    for k in range(1, max_len + 1):
        for seq in itertools.permutations(range(n), k):
            path = _canonical(col, seq)
            if path is not None:
                yield path


def test_augment_exhaustive_n4():
    # every colouring, every valid path, every uncovered vertex
    for _, col in all_triple_colourings(4):
        for path in _valid_paths(col, 4):
            covered = set(path.vertices)
            for w in range(4):
                if w in covered:
                    continue
                out = augment(col, path, w)
                assert len(out.vertices) == len(path.vertices) + 1
                assert classify_tight_path(col, out.vertices).kind != "invalid"
                assert out == _canonical(col, out.vertices)


def test_augment_exhaustive_n5():
    # all 2^10 colourings x all valid paths x all uncovered vertices
    for _, col in all_triple_colourings(5):
        for path in _valid_paths(col, 5):
            for w in range(5):
                if w in path.vertices:
                    continue
                out = augment(col, path, w)
                assert len(out.vertices) == len(path.vertices) + 1
                assert classify_tight_path(col, out.vertices).kind != "invalid"
                assert out == _canonical(col, out.vertices)


def test_spanning_path_lookups_are_linear(monkeypatch):
    # each augment looks up O(1) triples: the junctions of its re-routing
    n = 1000
    col = TripleColouring(n, random.Random(2026).randbytes((n * (n - 1) * (n - 2) // 6 + 7) // 8))
    calls = 0
    lookup = TripleColouring.colour_bit

    def counting(self, a, b, c):
        nonlocal calls
        calls += 1
        return lookup(self, a, b, c)

    monkeypatch.setattr(TripleColouring, "colour_bit", counting)
    path = spanning_bicoloured_path(col)
    monkeypatch.undo()
    assert sorted(path.vertices) == list(range(n))
    assert path == _canonical(col, path.vertices)
    assert calls <= 16 * n


def test_spanning_path_is_pinned_at_n1000():
    # the host of the lookup test above; (vertices, turn) is pinned, not
    # only its certificate, so a change inside augment cannot move the path
    n = 1000
    col = TripleColouring(n, random.Random(2026).randbytes((n * (n - 1) * (n - 2) // 6 + 7) // 8))
    path = spanning_bicoloured_path(col)
    digest = hashlib.sha256(repr((path.vertices, path.turn)).encode()).hexdigest()
    assert digest == "e6a9f8956a5126d74feb72670ddce2f5ac1a00526517b0e0a49f276f45945497"


def _h3_random(n, seed):
    return gen_random("h3", n, 2, seed=seed)


def _h3_near_mono(n, seed):
    """All red except one seeded blue triple."""
    m = n * (n - 1) * (n - 2) // 6
    i = random.Random(seed).randrange(m)
    bits = bytearray((m + 7) // 8)
    bits[i >> 3] |= 1 << (i & 7)
    return TripleColouring(n, bytes(bits))


def _h3_parity(n, s):
    """Triple is blue iff an odd number of its vertices lie below s."""
    inside = (np.arange(n) < s).astype(np.uint8)
    digits = [(inside[:b] + inside[b] + inside[c]) & 1 for c in range(n) for b in range(c)]
    return TripleColouring.from_digits(n, np.concatenate(digits))


@pytest.mark.parametrize("build, arg, digest", [
    (_h3_random, 7, "0942d38f02f6cf08392c59c25f4320381853d20d173bb8f1b11885648dbe6ea6"),
    (_h3_near_mono, 7, "b1edc00bcd26b99823071b37ebbbdb2b1a4f4097374abc7ab5397e7097da98f2"),
    (_h3_parity, 150, "7d57040883aa275954241195a55fedcddeed869d1a0ac9d163990ac78adafeab"),
], ids=["random", "near-mono", "parity"])
def test_h3_certificates_pinned_at_n300(build, arg, digest):
    cert, split = solve(build(300, arg))
    assert split is None
    assert hashlib.sha256(cert.to_text().encode()).hexdigest() == digest


def test_spanning_path_all_red():
    col = TripleColouring.constant(5, 0)
    path = spanning_bicoloured_path(col)
    assert path.vertices == (0, 1, 2, 3, 4)
    assert classify_tight_path(col, path.vertices).kind == "mono"


@pytest.mark.parametrize("n", [3, 4, 5])
def test_spanning_path_exhaustive_small(n):
    for _, col in all_triple_colourings(n):
        path = spanning_bicoloured_path(col)
        assert sorted(path.vertices) == list(range(n))
        assert classify_tight_path(col, path.vertices).kind != "invalid"


def test_spanning_path_random_larger(rng):
    for n in range(7, 41, 3):
        for _ in range(40):
            col = gen_random("h3", n, 2, seed=rng.getrandbits(32))
            path = spanning_bicoloured_path(col)
            assert sorted(path.vertices) == list(range(n))
            assert classify_tight_path(col, path.vertices).kind != "invalid"


def test_oracle_agrees_n4():
    for _, col in all_triple_colourings(4):
        exists, witness = oracle_spanning_bipath_exists(col)
        assert exists
        assert classify_tight_path(col, witness).kind != "invalid"


def test_split_mono_input():
    col = TripleColouring.constant(5, 0)
    p1, c1, p2, c2 = split_into_two_mono(col, spanning_bicoloured_path(col))
    assert p1 == (0, 1, 2, 3, 4) and c1 == RED
    assert p2 == () and c2 == BLUE


def test_split_cut_rule_small():
    col = colouring_by_rule(4, [(0, 1, 2)])
    path = BicolouredTightPath((0, 1, 2, 3), 2)
    p1, c1, p2, c2 = split_into_two_mono(col, path)
    assert p1 == (0, 1, 2) and c1 == RED
    assert p2 == (3,) and c2 == BLUE


@pytest.mark.parametrize("n", [6, 7])
def test_split_parts_keep_edges(rng, n):
    for _ in range(300):
        col = gen_random("h3", n, 2, seed=rng.getrandbits(32))
        path = spanning_bicoloured_path(col)
        p1, c1, p2, c2 = split_into_two_mono(col, path)
        assert c1 != c2
        assert sorted(p1 + p2) == list(range(n))
        for part in (p1, p2):
            assert len(part) == 0 or len(part) >= 3
            assert classify_tight_path(col, part).kind == "mono"


def test_split_rejects_non_spanning():
    col = TripleColouring.constant(5, 0)
    with pytest.raises(ValueError):
        split_into_two_mono(col, BicolouredTightPath((0, 1, 2), 2))


def test_spanning_path_refuses_a_pair_host():
    # a kn host has no triples: refused at entry, not by a colour read
    for kind in ("kn", "bnn"):
        with pytest.raises(ValueError, match="h3 colouring"):
            spanning_bicoloured_path(gen_random(kind, 5, 2, seed=1))


def test_split_refuses_a_plain_vertex_list():
    col = gen_random("h3", 5, 2, seed=1)
    for path in ([0, 1, 2], (0, 1, 2, 3, 4)):
        with pytest.raises(ValueError, match="BicolouredTightPath"):
            split_into_two_mono(col, path)


def test_every_augment_rerouting_fires():
    # each `blocks = (` line of augment is one of its five re-routings; a
    # line tracer confined to augment's frames records which ones run
    lines, start = inspect.getsourcelines(augment)
    sites = {start + i for i, line in enumerate(lines) if "blocks = (" in line}
    code = augment.__code__
    fired = set()

    def trace_lines(frame, event, arg):
        if event == "line":
            fired.add(frame.f_lineno)
        return trace_lines

    def trace_calls(frame, event, arg):
        return trace_lines if frame.f_code is code else None

    previous = sys.gettrace()
    sys.settrace(trace_calls)
    try:
        for i in range(300):
            spanning_bicoloured_path(gen_random("h3", 6 + i % 7, 2, seed=i))
    finally:
        sys.settrace(previous)
    assert len(sites) == 5
    assert sites <= fired, sorted(sites - fired)


def test_augment_at_long_paths():
    # prefixes of spanning paths on seeded hosts, each augmented with every
    # uncovered vertex; a line tracer records which of the five `blocks = (`
    # re-routings runs in which frame orientation (forwards or backwards
    # over the stored tuple)
    lines, start = inspect.getsourcelines(augment)
    sites = {start + i for i, line in enumerate(lines) if "blocks = (" in line}
    code = augment.__code__
    fired = set()

    def trace_lines(frame, event, arg):
        if event == "line" and frame.f_lineno in sites:
            fired.add((frame.f_lineno, frame.f_locals["flip"]))
        return trace_lines

    def trace_calls(frame, event, arg):
        return trace_lines if frame.f_code is code else None

    for n, seed in ((40, 1), (80, 2), (120, 3), (200, 4)):
        col = gen_random("h3", n, 2, seed=seed)
        span = spanning_bicoloured_path(col).vertices
        for k in (n // 4, n // 2, 3 * n // 4, n - 2):
            path = _canonical(col, span[:k])
            covered = set(path.vertices)
            previous = sys.gettrace()
            sys.settrace(trace_calls)
            try:
                outs = [(w, augment(col, path, w)) for w in range(n) if w not in covered]
            finally:
                sys.settrace(previous)
            for w, out in outs:
                assert sorted(out.vertices) == sorted(covered | {w})
                assert out == _canonical(col, out.vertices)
    assert len(sites) == 5
    missing = {(site, flip) for site in sites for flip in (False, True)} - fired
    assert not missing, sorted(missing)
