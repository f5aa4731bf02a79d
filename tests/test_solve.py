import importlib
import pkgutil

import pytest

import monopart
from monopart.certificates import check_certificate
from monopart.colourings import BLUE, RED, PairColouring
from monopart.generators import gen_random, gen_recoloured_split, gen_split_bipartite
from monopart.solve import solve


def kinds(cert):
    return [p.kind for p in cert.pieces]


def test_h3_two_paths_of_distinct_colours():
    col = gen_random("h3", 7, seed=1)
    cert, split = solve(col)
    assert split is None and check_certificate(col, cert).ok
    assert kinds(cert) == ["path", "path"]
    assert cert.pieces[0].colour != cert.pieces[1].colour


def test_bnn2_variants():
    col = gen_random("bnn", 4, 2, seed=1)  # its spanning cycle is not good
    shapes = {"path-cycle": ["path", "cycle"], "two-paths": ["path", "path"],
              "red-path": ["path", "cycle"]}
    for variant, shape in shapes.items():
        cert, split = solve(col, variant)
        assert split is None and check_certificate(col, cert).ok
        assert kinds(cert) == shape
        assert cert.pieces[0].colour != cert.pieces[1].colour
    red_path = solve(col, "red-path")[0]
    assert [p.colour for p in red_path.pieces] == [RED, BLUE]


def test_red_path_needs_a_cycle_that_is_not_good():
    with pytest.raises(ValueError):
        solve(gen_recoloured_split(3, 1, 2, (0, 0)), "red-path")


@pytest.mark.parametrize("variant", ["path-cycle", "two-paths", "red-path"])
def test_split_host_gets_three_paths_and_its_structure(variant):
    col, structure = gen_split_bipartite(4, 1, 3)
    cert, split = solve(col, variant)
    assert split == structure and split.verify(col)
    assert len(cert.pieces) <= 3 and set(kinds(cert)) == {"path"}
    assert check_certificate(col, cert).ok


@pytest.mark.parametrize("kind,limits", [("kn", [(2, 1), (1, 3)]), ("bnn", [(3, 2), (2, 4)])])
def test_three_colour_hosts(kind, limits):
    col = gen_random(kind, 6, 3, seed=2)
    cert, split = solve(col)
    assert split is None and check_certificate(col, cert).ok
    paths, cycles = cert.nonempty_shape()
    assert any(paths <= lp and cycles <= lc for lp, lc in limits)


def test_two_coloured_complete_host_has_no_solver():
    with pytest.raises(ValueError):
        solve(PairColouring.constant("kn", 4, 2, 0))


def test_unknown_variant():
    with pytest.raises(ValueError):
        solve(gen_random("bnn", 3, 2, seed=0), "cycles")


def test_every_exported_name_exists():
    # a tracer that wraps each exported function looks every name up
    for info in pkgutil.iter_modules(monopart.__path__):
        mod = importlib.import_module(f"monopart.{info.name}")
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"monopart.{info.name}.__all__ lists missing {name}"
