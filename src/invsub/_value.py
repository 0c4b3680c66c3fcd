"""The one base of the package's frozen value types.

A value type names its fields in ``__match_args__`` and stores each of
them once, in its own ``__init__``, through ``object.__setattr__``.
The base compares, hashes and prints instances by those fields, and
refuses to set or delete attributes afterwards.  Instances keep a
``__dict__``, so pickle and copy restore them without calling
``__init__``.
"""


class FrozenValue:
    """Immutable value compared, hashed and printed by the fields named
    in its class's ``__match_args__``."""

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
