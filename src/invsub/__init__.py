"""invsub: exact enumeration and counting of invariant subspaces of R^n.

Two entry points: :func:`attainable_counts` computes the set of every
possible invariant-subspace count in a given dimension, and
:func:`count_invariant_subspaces` analyzes a concrete rational matrix in
exact arithmetic.  See the ``invsub`` command-line tool for the same
functionality from a shell.
"""

from .analyzer import (
    SubspaceCount,
    count_invariant_subspaces,
    real_jordan_block,
    realize_config,
    standard_jordan_block,
)
from .combinatorics import (
    Multipartition,
    derived_composition,
    is_composition,
    is_partition,
    partition_count,
    partitions_of,
)
from .exactalg import (
    RationalMatrix,
    RationalPolynomial,
    char_poly,
    count_real_roots,
    evaluate_at_matrix,
    min_poly,
)
from .spectrum import (
    BlockConfig,
    SpectrumSet,
    attainable_counts,
    attainable_counts_bruteforce,
    count_for_config,
    dimension_profile,
    enumerate_configs,
)

__version__ = "0.5.0"

__all__ = [
    "BlockConfig",
    "Multipartition",
    "RationalMatrix",
    "RationalPolynomial",
    "SpectrumSet",
    "SubspaceCount",
    "attainable_counts",
    "attainable_counts_bruteforce",
    "char_poly",
    "count_for_config",
    "count_invariant_subspaces",
    "count_real_roots",
    "derived_composition",
    "dimension_profile",
    "enumerate_configs",
    "evaluate_at_matrix",
    "is_composition",
    "is_partition",
    "min_poly",
    "partition_count",
    "partitions_of",
    "real_jordan_block",
    "realize_config",
    "standard_jordan_block",
    "__version__",
]
