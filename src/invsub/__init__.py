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
only counts the spectrum never compiles the exact matrix algebra:
``combinatorics`` and ``spectrum`` import none of it (``exactalg`` and
``analyzer``).  Every value type derives from :class:`FrozenValue`,
defined here.
"""

__version__ = "0.6.0"


class FrozenValue:
    """Immutable value compared, hashed and printed by the fields named
    in its class's ``__match_args__``, each stored once by its
    ``__init__`` through ``object.__setattr__``; instances keep a
    ``__dict__``, so pickle and copy restore them without ``__init__``."""

    __match_args__: tuple[str, ...] = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is frozen")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is frozen")

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__match_args__
        )
        return f"{type(self).__qualname__}({fields})"


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
    "dimension_profile": "analyzer",
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
