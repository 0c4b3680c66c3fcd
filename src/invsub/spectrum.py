"""Attainable invariant-subspace counts for operators on R^n.

A linear operator whose real Jordan form has exactly one block per
distinct root keeps only finitely many invariant subspaces: each block
of size k (or 2k for a conjugate-pair block) contributes a chain of
k + 1 nested subspaces, and every invariant subspace is a direct sum of
one choice per block.  The total count is therefore a product of
(part + 1) factors over a pair of partitions.

The spectrum M_n of all such products in dimension n is computed level
by level as a set of values, without visiting the configurations
themselves: one part less leaves a smaller dimension and a count
divided by (part + 1).  :func:`enumerate_configs` still lists the
configurations for per-configuration views and cross-checks.
"""

from bisect import bisect_left
from collections.abc import Iterator
from dataclasses import dataclass
from math import prod

from .combinatorics import is_partition, partitions_of


@dataclass(frozen=True)
class BlockConfig:
    """Block-size configuration of an operator with finitely many
    invariant subspaces.

    ``complex_blocks`` holds one part k per conjugate-pair Jordan block
    of size 2k; ``real_blocks`` one part k per single-eigenvalue Jordan
    block of size k.  Each distinct block is assumed to carry its own
    root.  Parts are canonicalized to weakly decreasing order, so block
    order never matters.
    """

    complex_blocks: tuple[int, ...]
    real_blocks: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "complex_blocks", tuple(sorted(self.complex_blocks, reverse=True))
        )
        object.__setattr__(
            self, "real_blocks", tuple(sorted(self.real_blocks, reverse=True))
        )
        if not is_partition(self.complex_blocks):
            raise ValueError(f"invalid block sizes: {self.complex_blocks}")
        if not is_partition(self.real_blocks):
            raise ValueError(f"invalid block sizes: {self.real_blocks}")
        if self.n < 1:
            raise ValueError("a configuration needs at least one block")

    @property
    def n(self) -> int:
        """Dimension of the underlying space."""
        return 2 * sum(self.complex_blocks) + sum(self.real_blocks)


@dataclass(frozen=True)
class SpectrumSet:
    """Sorted set of attainable invariant-subspace counts for dimension n."""

    n: int
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"dimension must be positive: {self.n}")
        if not self.values:
            raise ValueError("a spectrum is never empty")
        if any(a >= b for a, b in zip(self.values, self.values[1:])):
            raise ValueError("values must be strictly increasing")

    def __contains__(self, value: int) -> bool:
        i = bisect_left(self.values, value)
        return i < len(self.values) and self.values[i] == value

    def __iter__(self) -> Iterator[int]:
        return iter(self.values)

    def __len__(self) -> int:
        return len(self.values)


def count_for_config(config: BlockConfig) -> int:
    """Total number of invariant subspaces for ``config``.

    Each block contributes an independent chain of part + 1 nested
    subspaces, so the count is the product of (part + 1) over all parts
    of both partitions.
    """
    return prod(k + 1 for k in config.complex_blocks) * prod(
        k + 1 for k in config.real_blocks
    )


def dimension_profile(config: BlockConfig) -> tuple[int, ...]:
    """Count invariant subspaces of ``config`` by dimension.

    Entry d of the result is the number of invariant subspaces of
    dimension d.  A real block of size k offers subspace dimensions
    0..k, a conjugate-pair block with part k the even dimensions
    0..2k; the profile is the coefficient list of the product of the
    corresponding generating polynomials and always has length n + 1.
    """
    profile = (1,)
    for k in config.real_blocks:
        profile = _poly_mul(profile, (1,) * (k + 1))
    for k in config.complex_blocks:
        profile = _poly_mul(profile, tuple(1 - i % 2 for i in range(2 * k + 1)))
    return profile


def _poly_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def enumerate_configs(n: int) -> Iterator[BlockConfig]:
    """Yield every block configuration of dimension ``n`` exactly once.

    For each r = 0..n//2 (total size claimed by conjugate-pair blocks,
    in pairs), pairs every partition of r with every partition of
    n - 2r.  Configurations are streamed, not materialized.
    """
    if n < 1:
        raise ValueError(f"dimension must be positive: {n}")
    for r in range(n // 2 + 1):
        for complex_blocks in partitions_of(r):
            for real_blocks in partitions_of(n - 2 * r):
                yield BlockConfig(complex_blocks, real_blocks)


def attainable_counts(n: int) -> SpectrumSet:
    """The exact set M_n of integers m for which some operator on R^n
    has exactly m invariant subspaces.

    Computed as B_n by the recurrence B_0 = {1} and, for k >= 1,

        B_k = union over j = 1..k of (j + 1) * B_{k-j}
              union over j = 1..k//2 of (j + 1) * B_{k-2j}

    Every configuration of dimension k >= 1 has a real part j (leaving
    dimension k - j) or a conjugate-pair part j (leaving k - 2j), and
    removing it divides the count by j + 1; conversely adding such a
    part to any configuration of the smaller dimension multiplies its
    count by j + 1.  Each level is a set, so the work grows with the
    number of distinct counts, not with the number of configurations.
    Values are returned in ascending order.
    """
    if n < 1:
        raise ValueError(f"dimension must be positive: {n}")
    # finished levels are only iterated, and a tuple holds them in about
    # half the memory of a set
    levels: list[tuple[int, ...]] = [(1,)]
    for k in range(1, n + 1):
        level: set[int] = set()
        for j in range(1, k + 1):
            level.update((j + 1) * v for v in levels[k - j])
        for j in range(1, k // 2 + 1):
            level.update((j + 1) * v for v in levels[k - 2 * j])
        levels.append(tuple(level))
    return SpectrumSet(n, tuple(sorted(levels[n])))


def attainable_counts_bruteforce(n: int) -> SpectrumSet:
    """Independent recomputation of :func:`attainable_counts`.

    Recursively enumerates all multisets {a_1, ...} of real block sizes
    and {b_1, ...} of conjugate-pair block parts with sum(a) + 2 sum(b)
    equal to n, accumulating the product of (part + 1) factors along the
    way.  Shares no code with the partition machinery, which makes it a
    genuine cross-check.
    """
    if n < 1:
        raise ValueError(f"dimension must be positive: {n}")
    found: set[int] = set()
    _extend_complex(n, n // 2, 1, found)
    return SpectrumSet(n, tuple(sorted(found)))


def _extend_complex(remaining: int, cap: int, acc: int, found: set[int]) -> None:
    # place conjugate-pair parts in weakly decreasing order, then switch
    # to real block sizes for whatever is left
    for b in range(min(cap, remaining // 2), 0, -1):
        _extend_complex(remaining - 2 * b, b, acc * (b + 1), found)
    _extend_real(remaining, remaining, acc, found)


def _extend_real(remaining: int, cap: int, acc: int, found: set[int]) -> None:
    if remaining == 0:
        found.add(acc)
        return
    for a in range(min(cap, remaining), 0, -1):
        _extend_real(remaining - a, a, acc * (a + 1), found)
