"""The single solve entry point for h3, kn, bnn and rxn hosts: pick the
solver, assemble its certificate and verify it with `certificates.certify`.
An rxn host past the exact cover search's cap raises `ExceedsCap`.

Solvers are called through their modules (``tp.spanning_bicoloured_path``)
rather than imported by name, so that a function rebound on its module,
as a tracer does, is the one that runs.
"""

from __future__ import annotations

from . import bipartite as bp
from . import certificates as ce
from . import multipartite as mp
from . import threecolour as tc
from . import tightpaths as tp
from .colourings import PairColouring, SplitStructure, TransversalColouring, TripleColouring

__all__ = ["VARIANTS", "solve"]

VARIANTS = ("path-cycle", "two-paths", "red-path")


def solve(
    col, variant: str = "path-cycle"
) -> tuple[ce.PartitionCertificate, SplitStructure | None]:
    """Verified certificate for a colouring, with the split structure when
    a 2-coloured bnn host is split (the certificate then holds the
    three-path fallback) and None otherwise.

    h3 hosts get two monochromatic tight paths of distinct colours, and
    3-coloured kn and bnn hosts the 3-colour partitions, which verify their
    own output.  2-coloured bnn hosts get, by `variant`, a path and a cycle
    ("path-cycle"), two paths ("two-paths"), or a red path and a blue cycle
    from a spanning bicoloured cycle that is not good ("red-path").  rxn
    hosts get a minimum cover by monochromatic tight paths.

    Raises ValueError when no solver serves the host or the variant's
    precondition fails, and RuntimeError (ExceedsCap past the rxn search
    cap) when a solver fails or its certificate does not verify.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; known: {list(VARIANTS)}")
    split = None
    if isinstance(col, TripleColouring):
        path = tp.spanning_bicoloured_path(col)
        p1, c1, p2, c2 = tp.split_into_two_mono(col, path)
        pieces = [ce.Piece("path", c1, p1), ce.Piece("path", c2, p2)]
    elif isinstance(col, PairColouring) and col.palette == 3:
        return (tc.partition3_complete if col.kind == "kn" else tc.partition3_bipartite)(col), None
    elif isinstance(col, PairColouring) and col.kind == "bnn":
        pieces = _bnn2_pieces(col, variant)
        if isinstance(pieces, bp.SplitDetected):
            split = pieces.structure
            pieces = bp.split_three_paths(col, split)
    elif isinstance(col, TransversalColouring):
        pieces = [ce.Piece("path", c, seq) for seq, c in mp.min_cover_exact(col)[1]]
    elif isinstance(col, PairColouring):
        raise ValueError("2-coloured complete hosts have no solver surface")
    else:
        raise ValueError(f"no solver for {col!r}")
    return ce.certify(col, pieces), split


def _bnn2_pieces(col: PairColouring, variant: str):
    if variant == "path-cycle":
        return bp.partition_path_cycle(col)
    if variant == "two-paths":
        return bp.two_paths(col)
    cyc = bp.spanning_bicoloured_or_mono_cycle(col)
    if isinstance(cyc, bp.SplitDetected):
        return cyc
    if cyc.kind != "bicoloured" or cyc.good:
        raise ValueError("no not-good spanning bicoloured cycle available")
    return bp.partition_path_cycle_coloured(col, list(cyc.vertices))
