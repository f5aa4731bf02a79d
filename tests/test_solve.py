import ast
import importlib
import inspect
import pkgutil

import pytest

import monopart
from monopart.certificates import check_certificate
from monopart.colourings import BLUE, RED, HyperSplitSizes, PairColouring, TransversalColouring
from monopart.generators import gen_random, gen_recoloured_split, gen_split_bipartite
from monopart.multipartite import ExceedsCap, min_cover_exact
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


def test_rxn_hosts_get_a_verified_minimum_cover():
    for n in range(2, 7):
        for a in range(1, n):
            for b in range(1, n):
                col = TransversalColouring(2, n, rule=HyperSplitSizes(2, n, (a, b)))
                cert, split = solve(col)
                assert split is None and check_certificate(col, cert).ok
                k, witness = min_cover_exact(col)
                assert [(p.vertices, p.colour) for p in cert.pieces] == witness
                assert len(cert.pieces) == k and set(kinds(cert)) == {"path"}


def test_rxn_host_past_the_search_cap_raises():
    col = TransversalColouring(2, 8, rule=HyperSplitSizes(2, 8, (3, 4)))  # r * n = 16 > 14
    with pytest.raises(ExceedsCap):
        solve(col)


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


def _callers(name: str) -> set[str]:
    """`module.function` for every function of the package whose body calls
    `name`, as a bare name or as an attribute."""
    found = set()

    class Calls(ast.NodeVisitor):
        def __init__(self, module):
            self.scope = [module]

        def visit_FunctionDef(self, node):
            self.scope.append(node.name)
            self.generic_visit(node)
            self.scope.pop()

        def visit_Call(self, node):
            if name in (getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                found.add(".".join(self.scope))
            self.generic_visit(node)

    for info in pkgutil.iter_modules(monopart.__path__):
        mod = importlib.import_module(f"monopart.{info.name}")
        Calls(info.name).visit(ast.parse(inspect.getsource(mod)))
    return found


def test_one_check_step():
    # solvers' pieces are checked in one place; `verify` checks a given file
    assert _callers("check_certificate") == {"certificates.certify", "cli._cmd_verify"}
    assert _callers("for_colouring") == {"certificates.certify"}
