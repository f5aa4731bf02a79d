"""Exhaustive certification gate: every colouring of the smallest hosts goes
through `solve`, and its certificate through `check_certificate` and the
piece-shape bound its pipeline promises."""

import itertools

import pytest

from monopart.certificates import check_certificate
from monopart.colourings import PairColouring, TripleColouring, _n_edges
from monopart.solve import solve
from monopart.threecolour import BIPARTITE_LIMITS, COMPLETE_LIMITS


@pytest.mark.parametrize("kind,n", [("kn", n) for n in range(1, 6)] + [("bnn", n) for n in range(1, 4)])
def test_every_3_coloured_pair_host_certifies(kind, n):
    limits = COMPLETE_LIMITS if kind == "kn" else BIPARTITE_LIMITS
    checked = 0
    for entries in itertools.product(b"\0\1\2", repeat=_n_edges(kind, n)):
        col = PairColouring(kind, n, 3, bytes(entries))
        cert, split = solve(col)
        res = check_certificate(col, cert)
        assert split is None and res.ok, (entries, res)
        paths, cycles = cert.nonempty_shape()
        assert any(paths <= lp and cycles <= lc for lp, lc in limits), (entries, paths, cycles)
        checked += 1
    assert checked == 3 ** _n_edges(kind, n)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_every_h3_host_certifies(n):
    for idx in range(1 << _n_edges("h3", n)):
        col = TripleColouring.from_int(n, idx)
        cert, split = solve(col)
        res = check_certificate(col, cert)
        assert split is None and res.ok, (idx, res)
        first, second = cert.pieces
        assert first.kind == second.kind == "path" and first.colour != second.colour, idx
