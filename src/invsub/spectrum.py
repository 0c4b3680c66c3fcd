"""Attainable invariant-subspace counts for operators on R^n.

A linear operator whose real Jordan form has exactly one block per
distinct root keeps only finitely many invariant subspaces: a real root
of multiplicity k owns one block of size k, a conjugate pair of
multiplicity k one block of size 2k, each block contributes a chain of
k + 1 nested subspaces, and every invariant subspace is a direct sum of
one choice per block.  The total count is therefore a product of
(part + 1) factors over the pair of multiplicity partitions held by a
:class:`BlockConfig`, the one type for that pair in this package.

The spectrum M_n of all such products in dimension n is computed as a
set of values, without visiting the configurations themselves.  Two
trades that keep dimension and count reduce every configuration to
units of even dimension plus at most one real 1-block, so only the
levels of half-dimension 0..n//2 are built, in one pass per
half-dimension that lets its units repeat any number of times.  A level
keeps, for each part of its counts prime to 6, one bitmask of the
exponents of 2 and 3 that occur with it.  The units of half-dimension 1
(factors 2, 3 and 4) keep that part, so the closing pass over them
makes one bitmask update per key.  :func:`enumerate_configs`
still lists the configurations for per-configuration views and
cross-checks.
"""

from bisect import bisect_left
from collections.abc import Iterator
from dataclasses import dataclass
from math import prod
from operator import lt

from .combinatorics import is_partition, partitions_of
from .exactalg import _mul


@dataclass(frozen=True)
class BlockConfig:
    """Root-multiplicity configuration of an operator with finitely many
    invariant subspaces.

    ``complex_pair_multiplicities`` holds one part k per conjugate pair
    of roots of multiplicity k, ``real_multiplicities`` one part k per
    real root of multiplicity k.  Every root owns exactly one Jordan
    block, so a multiplicity is that root's block size: a conjugate
    pair of multiplicity k has a real Jordan block of size 2k.  Parts
    are canonicalized to weakly decreasing order, so root order never
    matters.

    :func:`invsub.analyzer.count_invariant_subspaces` returns one as the
    signature of every matrix with finitely many invariant subspaces.
    """

    complex_pair_multiplicities: tuple[int, ...]
    real_multiplicities: tuple[int, ...]

    def __post_init__(self) -> None:
        for name in ("complex_pair_multiplicities", "real_multiplicities"):
            parts = tuple(sorted(getattr(self, name), reverse=True))
            if not is_partition(parts):
                raise ValueError(f"invalid multiplicities: {parts}")
            object.__setattr__(self, name, parts)
        if self.n < 1:
            raise ValueError("a configuration needs at least one root")

    @property
    def n(self) -> int:
        """Dimension of the underlying space."""
        return 2 * sum(self.complex_pair_multiplicities) + sum(
            self.real_multiplicities
        )


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
        if not all(map(lt, self.values, self.values[1:])):
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
    return prod(k + 1 for k in config.complex_pair_multiplicities) * prod(
        k + 1 for k in config.real_multiplicities
    )


def dimension_profile(config: BlockConfig) -> tuple[int, ...]:
    """Count invariant subspaces of ``config`` by dimension.

    Entry d of the result is the number of invariant subspaces of
    dimension d.  A real root of multiplicity k offers subspace
    dimensions 0..k, a conjugate pair of multiplicity k the even
    dimensions 0..2k; the profile is the coefficient list of the
    product of the corresponding generating polynomials and always has
    length n + 1.
    """
    profile = [1]
    for k in config.real_multiplicities:
        profile = _mul(profile, [1] * (k + 1))
    for k in config.complex_pair_multiplicities:
        profile = _mul(profile, [1 - i % 2 for i in range(2 * k + 1)])
    return tuple(profile)


def enumerate_configs(n: int) -> Iterator[BlockConfig]:
    """Yield every block configuration of dimension ``n`` exactly once.

    For each r = 0..n//2 (total size claimed by conjugate-pair blocks,
    in pairs), pairs every partition of r with every partition of
    n - 2r.  Configurations are streamed, not materialized.
    """
    if n < 1:
        raise ValueError(f"dimension must be positive: {n}")
    for r in range(n // 2 + 1):
        for pairs in partitions_of(r):
            for reals in partitions_of(n - 2 * r):
                yield BlockConfig(pairs, reals)


def attainable_counts(n: int) -> SpectrumSet:
    """The exact set M_n of integers m for which some operator on R^n
    has exactly m invariant subspaces.

    Computed as M_n = 2^(n mod 2) * E_{n//2}, where E_m is the set of
    counts of multisets of units of total half-dimension m.  A unit of
    half-dimension h is a conjugate-pair part h (factor h + 1), a real
    part 2h (factor 2h + 1) or, for h = 1 only, two real 1-blocks
    (factor 4):

        F(1) = {2, 3, 4},  F(h) = {h + 1, 2h + 1} for h >= 2.

    The levels E_0..E_{n//2} are built as an unbounded knapsack: start
    from E_0 = {1} and empty E_1..E_{n//2}, then make one pass per
    half-dimension h, largest first, which for m = h..n//2 in ascending
    order adds f * E_{m-h} to E_m for every f in F(h).  By induction on
    the passes, after those over h' > h the level E_m holds exactly the
    counts of multisets of units of those half-dimensions with total m.
    The pass over h keeps what the earlier passes built, and because m
    ascends it reads E_{m-h} after extending it: so by a second
    induction on m, a multiset that holds j >= 1 units of F(h) reaches
    E_m as f times one that holds j - 1 of them, for the f it drops, and
    every value added is such a count.

    A level is stored by the part of each count prime to 6.  By unique
    factorization each count is 2^a * 3^b * u for exactly one (a, b, u)
    with u prime to 6, and E_m maps u to one integer whose bit
    a + b * stride is set exactly when 2^a * 3^b * u lies in E_m, with
    stride = 2 * (n//2) + 1.  Every unit f of half-dimension h has
    2-adic valuation at most 2h and 3-adic valuation at most h, so a
    count in E_m has a <= 2m < stride and b <= m: the rows never
    overlap.  Splitting f = 2^x * 3^y * w, w prime to 6, once per pass,
    multiplying a whole row family by f is one shift,
    ``E_m[u * w] |= mask << (x + y * stride)``.  The closing pass over
    h = 1 has w = 1 for all three factors, so it keeps every key and
    makes one update per key of E_{m-1}, the three shifts (by 1, 2 and
    stride) joined:
    ``E_m[u] |= mask << 1 | mask << 2 | mask << stride``.  The counts
    come out by walking the set bits of E_{n//2}, 3^b * u shifted left
    by a + n mod 2.

    Proof that M_n = 2^(n mod 2) * E_{n//2}.  A configuration made of
    units, plus one real 1-block when n is odd, has dimension n and
    count 2^(n mod 2) times the product of its unit factors, so
    2^(n mod 2) * E_{n//2} lies in M_n.  Conversely, take any
    configuration of dimension n and apply two trades, each keeping
    dimension and count.  First, an odd real part a >= 3 becomes a real
    1-block plus a conjugate-pair part (a - 1)/2: dimension
    1 + (a - 1) = a, factor 2 * (a + 1)/2 = a + 1.  Now every real part
    is 1 or even.  Second, pair up the real 1-blocks; each pair is a
    unit of dimension 2 and factor 4.  What is left is a multiset of
    units and at most one unpaired 1-block, present exactly when n is
    odd since every unit has even dimension.  So M_n lies in
    2^(n mod 2) * E_{n//2}.

    The work grows with the number of distinct parts prime to 6 of the
    counts, not with the number of configurations.  Values are returned
    in ascending order.
    """
    if n < 1:
        raise ValueError(f"dimension must be positive: {n}")
    half = n // 2
    stride = 2 * half + 1
    levels: list[dict[int, int]] = [{1: 1}] + [{} for _ in range(half)]
    for h in range(half, 1, -1):
        steps = []
        for f in (h + 1, 2 * h + 1):
            x = (f & -f).bit_length() - 1
            f >>= x
            while f % 3 == 0:
                f //= 3
                x += stride
            steps.append((f, x))
        for m in range(h, half + 1):
            level = levels[m]
            for u, mask in levels[m - h].items():
                for w, shift in steps:
                    level[u * w] = level.get(u * w, 0) | mask << shift
    for m in range(1, half + 1):
        level = levels[m]
        for u, mask in levels[m - 1].items():
            level[u] = level.get(u, 0) | mask << 1 | mask << 2 | mask << stride
    values = []
    row_bits = (1 << stride) - 1
    for u, mask in levels[half].items():
        count = u << (n % 2)
        while mask:
            row = mask & row_bits
            while row:
                low = row & -row
                values.append(count << (low.bit_length() - 1))
                row ^= low
            mask >>= stride
            count *= 3
    values.sort()
    return SpectrumSet(n, tuple(values))


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
