"""invsub: exact enumeration and counting of invariant subspaces of R^n.

Two entry points: :func:`attainable_counts` computes the set of every
possible invariant-subspace count in a given dimension, and
:func:`count_invariant_subspaces` analyzes a concrete rational matrix in
exact arithmetic.  See the ``invsub`` command-line tool for the same
functionality from a shell.

``_OWNERS`` names each export once, with the submodule that defines it,
and ``__all__`` is built from it.  ``import invsub`` loads no submodule:
a name is imported from its owner on first access, through the module
``__getattr__`` (PEP 562), and kept here afterwards.  So a process that
only counts the spectrum never compiles the exact matrix algebra.
"""

__version__ = "0.5.0"

_OWNERS = {
    "BlockConfig": "spectrum",
    "Multipartition": "combinatorics",
    "RationalMatrix": "exactalg",
    "RationalPolynomial": "exactalg",
    "SpectrumSet": "spectrum",
    "SubspaceCount": "analyzer",
    "attainable_counts": "spectrum",
    "attainable_counts_bruteforce": "spectrum",
    "char_poly": "exactalg",
    "count_for_config": "spectrum",
    "count_invariant_subspaces": "analyzer",
    "count_real_roots": "exactalg",
    "derived_composition": "combinatorics",
    "dimension_profile": "spectrum",
    "enumerate_configs": "spectrum",
    "evaluate_at_matrix": "exactalg",
    "is_composition": "combinatorics",
    "is_partition": "combinatorics",
    "min_poly": "exactalg",
    "partition_count": "combinatorics",
    "partitions_of": "combinatorics",
    "real_jordan_block": "analyzer",
    "realize_config": "analyzer",
    "standard_jordan_block": "analyzer",
}

__all__ = [*_OWNERS, "__version__"]


def __getattr__(name: str):
    try:
        owner = _OWNERS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    # __import__ rather than importlib, which python -S has not loaded
    value = getattr(__import__(owner, globals(), None, [name], 1), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
