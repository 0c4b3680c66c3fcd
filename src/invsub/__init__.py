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

The root also holds what ``exactalg`` and ``cli`` share of the grammar
of a matrix document, as ``cli`` reads ``n`` and ``--max-n`` without
loading ``exactalg``: the integer token, a plain string that each of
them compiles, so the root imports no ``re``; ``_quoted``, by which
every message about a refused value quotes it; and ``_too_many_digits``,
the one wording of an integer past the interpreter's int-string limit.
And it holds ``_check_dimension``, the one check of a size, which
``combinatorics`` and ``spectrum`` apply to n and ``exactalg`` to the
size of a Jordan block.  So ``exactalg`` imports only the root, and
reading :func:`standard_jordan_block` or :func:`real_jordan_block`,
which it lays out, loads ``exactalg`` alone.
"""

import sys

__version__ = "0.6.4"

# the integer token of the matrix grammar, also the numerator of p/q
_INTEGER = r"[+-]?[0-9]+"
# error messages quote at most this many characters of a value
QUOTE_CHARS = 40


def _quoted(token: str, quote=repr) -> str:
    if len(token) <= QUOTE_CHARS:
        return quote(token)
    return f"{quote(token[:QUOTE_CHARS])}... ({len(token)} characters)"


def _too_many_digits() -> str:
    # int() of a longer string raises ValueError
    return f"integer with more than {sys.get_int_max_str_digits()} digits"


def _check_dimension(n: int, least: int) -> None:
    """Reject a size that is not an int (``bool`` is not) or is below
    ``least``: 0 for partitions, 1 for dimensions and block sizes."""
    if type(n) is not int or n < least:
        sign = "positive" if least else "nonnegative"
        raise ValueError(f"dimension must be a {sign} int: {n!r}")


class FrozenValue:
    """Immutable value compared, hashed and printed by the fields named
    in its class's ``__match_args__``, which only ``_store`` writes: a
    checking ``__init__`` validates and then stores, and ``_of``, which
    skips ``__init__``, stores only what its caller proved canonical.
    Instances keep a ``__dict__``, so pickle and copy need no ``__init__``."""

    __match_args__: tuple[str, ...] = ()

    def _store(self, *fields):
        """Store ``fields`` in ``__match_args__`` order; returns self."""
        self.__dict__.update(zip(self.__match_args__, fields, strict=True))
        return self

    @classmethod
    def _of(cls, *fields):
        """The instance with ``fields``, in ``__match_args__`` order, as given."""
        return object.__new__(cls)._store(*fields)

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
    "real_jordan_block": "exactalg",
    "realize_config": "analyzer",
    "standard_jordan_block": "exactalg",
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
