"""Monochromatic partition algorithms with certificates and oracles."""

from .certificates import CheckResult, PartitionCertificate, Piece, check_certificate
from .colourings import (
    BLUE,
    GREEN,
    RED,
    Colour,
    HyperSplitSizes,
    PairColouring,
    SplitStructure,
    TransversalColouring,
    TripleColouring,
    parse_colouring,
    serialize_colouring,
)
from .bipartite import (
    SplitDetected,
    classify_bipartite,
    partition_path_cycle,
    spanning_bicoloured_or_mono_cycle,
    two_paths,
)
from .generators import (
    gen_random,
    gen_recoloured_split,
    gen_split_bipartite,
    gen_three_colour_split,
    gen_v_colouring,
)
from .multipartite import min_cover_exact, verify_counting
from .threecolour import partition3_bipartite, partition3_complete
from .tightpaths import spanning_bicoloured_path, split_into_two_mono

__version__ = "0.1.0"
