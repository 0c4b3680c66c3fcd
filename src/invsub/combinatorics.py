"""Integer partitions, compositions and multipartitions.

Partitions encode Jordan block-size configurations elsewhere in the
package; this module only knows about the combinatorial objects
themselves.  Partitions and compositions are plain tuples of ints, kept
lightweight on purpose.  The zero partition is canonically the empty
tuple, and derived compositions never contain zero parts (a size-0
block does not exist; presentation layers may re-insert a 0 for
display).
"""

from collections.abc import Iterator, Sequence
from itertools import chain

from . import FrozenValue


def is_partition(parts: Sequence[int]) -> bool:
    """True if ``parts`` is a weakly decreasing tuple of positive ints
    (``bool`` is not an int part)."""
    return all(type(p) is int and p >= 1 for p in parts) and all(
        parts[i] >= parts[i + 1] for i in range(len(parts) - 1)
    )


def is_composition(parts: Sequence[int]) -> bool:
    """True if ``parts`` is a tuple of nonnegative ints with at most one 0
    (``bool`` is not an int part)."""
    if not all(type(p) is int and p >= 0 for p in parts):
        return False
    return sum(1 for p in parts if p == 0) <= 1


def _check_dimension(n: int, least: int) -> None:
    """Reject a size that is not an int (``bool`` is not) or is below
    ``least``: 0 for partitions, 1 for dimensions and block sizes."""
    if type(n) is not int or n < least:
        sign = "positive" if least else "nonnegative"
        raise ValueError(f"dimension must be a {sign} int: {n!r}")


def partitions_of(n: int) -> Iterator[tuple[int, ...]]:
    """Yield every partition of ``n`` exactly once, reverse-lexicographically.

    The first partition is ``(n,)`` and the last is ``(1,) * n``; the
    partition of 0 is the empty tuple.  The order is deterministic, so
    repeated calls yield identical sequences.  ``n`` is checked at the
    call.
    """
    _check_dimension(n, 0)
    return _partitions_capped(n, n)


def _partitions_capped(n: int, cap: int) -> Iterator[tuple[int, ...]]:
    if n == 0:
        yield ()
        return
    for first in range(min(cap, n), 0, -1):
        for rest in _partitions_capped(n - first, first):
            yield (first,) + rest


def partition_count(n: int) -> int:
    """Return p(n), the number of partitions of ``n``.

    Computed by Euler's pentagonal-number recurrence

        p(n) = sum_{k>=1} (-1)^(k+1) [p(n - k(3k-1)/2) + p(n - k(3k+1)/2)]

    which shares no code with :func:`partitions_of` and therefore serves
    as an independent counting oracle for it.
    """
    _check_dimension(n, 0)
    table = [1] + [0] * n
    for m in range(1, n + 1):
        total = 0
        k = 1
        while True:
            g = k * (3 * k - 1) // 2
            if g > m:
                break
            sign = 1 if k % 2 == 1 else -1
            total += sign * table[m - g]
            g = k * (3 * k + 1) // 2
            if g <= m:
                total += sign * table[m - g]
            k += 1
        table[m] = total
    return table[n]


class Multipartition(FrozenValue):
    """An ordered tuple of partitions, one per part of a composition.

    ``partitions[i]`` must be a partition of ``composition[i]``; a part
    equal to 0 corresponds to the empty partition.  Invalid combinations
    are rejected at construction time.
    """

    composition: tuple[int, ...]
    partitions: tuple[tuple[int, ...], ...]
    __match_args__ = ("composition", "partitions")

    def __init__(self, composition, partitions) -> None:
        composition = tuple(composition)
        partitions = tuple(map(tuple, partitions))
        if not is_composition(composition):
            raise ValueError(f"not a composition: {composition}")
        if len(partitions) != len(composition):
            raise ValueError(
                f"expected {len(composition)} partitions, got {len(partitions)}"
            )
        for part, theta in zip(composition, partitions):
            if not is_partition(theta):
                raise ValueError(f"not a partition: {theta}")
            if sum(theta) != part:
                raise ValueError(f"{theta} is not a partition of {part}")
        self._store(composition, partitions)

    @property
    def n(self) -> int:
        return sum(self.composition)


def derived_composition(m: Multipartition) -> tuple[int, ...]:
    """Flatten a multipartition into a single composition.

    Concatenates the partitions in order; zero parts never appear
    because the zero partition is the empty tuple.  The result sums to
    ``m.n`` and contains only positive parts.
    """
    return tuple(chain.from_iterable(m.partitions))
