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
exponents of 2 and 3 that occur with it.  :func:`enumerate_configs`
lists the configurations for per-configuration views and for
:func:`attainable_counts_bruteforce`, M_n by its definition.  None of
it needs the matrix algebra.
"""

from bisect import bisect_left
from collections.abc import Iterator
from math import prod
from operator import lt

from . import FrozenValue
from .combinatorics import _check_dimension, partitions_of


class BlockConfig(FrozenValue):
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
    __match_args__ = ("complex_pair_multiplicities", "real_multiplicities")

    def __init__(self, complex_pair_multiplicities, real_multiplicities) -> None:
        for name, parts in (
            ("complex_pair_multiplicities", complex_pair_multiplicities),
            ("real_multiplicities", real_multiplicities),
        ):
            parts = tuple(parts)
            if not all(type(k) is int and k >= 1 for k in parts):
                raise ValueError(f"invalid multiplicities: {parts}")
            object.__setattr__(self, name, tuple(sorted(parts, reverse=True)))
        if self.n < 1:
            raise ValueError("a configuration needs at least one root")

    @property
    def n(self) -> int:
        """Dimension of the underlying space."""
        return 2 * sum(self.complex_pair_multiplicities) + sum(
            self.real_multiplicities
        )


class SpectrumSet(FrozenValue):
    """Sorted set of attainable invariant-subspace counts for dimension n."""

    n: int
    values: tuple[int, ...]
    __match_args__ = ("n", "values")

    def __init__(self, n: int, values) -> None:
        values = tuple(values)
        _check_dimension(n, 1)
        if not values:
            raise ValueError("a spectrum is never empty")
        if not all(map(lt, values, values[1:])):
            raise ValueError("values must be strictly increasing")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "values", values)

    def __contains__(self, value) -> bool:
        try:
            i = bisect_left(self.values, value)
        except TypeError:
            # a value that does not order against ints ("a", None, [1],
            # 4 + 0j) is a member only if it equals one, as in a frozenset
            return value in self.values
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


def enumerate_configs(n: int) -> Iterator[BlockConfig]:
    """Yield every block configuration of dimension ``n`` exactly once.

    For each r = 0..n//2 (total size claimed by conjugate-pair blocks,
    in pairs), pairs every partition of r with every partition of
    n - 2r.  Configurations are streamed, not materialized; ``n`` is
    checked at the call.
    """
    _check_dimension(n, 1)
    return (
        BlockConfig(pairs, reals)
        for r in range(n // 2 + 1)
        for pairs in partitions_of(r)
        for reals in partitions_of(n - 2 * r)
    )


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
    half-dimension h, h = 1 first and the rest largest first, which for
    m = h..n//2 in ascending order adds f * E_{m-h} to E_m for every f
    in F(h).  By induction on the passes, after each one the level E_m
    holds exactly the counts of multisets of units of the half-dimensions
    passed so far with total m.  The pass over h keeps what the earlier
    passes built, and because m ascends it reads E_{m-h} after extending
    it: so by a second induction on m, a multiset that holds j >= 1
    units of F(h) reaches E_m as f times one that holds j - 1 of them,
    for the f it drops, and every value added is such a count.

    A level is stored by the part of each count prime to 6.  By unique
    factorization each count is 2^a * 3^b * u for exactly one (a, b, u)
    with u prime to 6, and E_m maps u to one integer whose bit
    a + b * stride is set exactly when 2^a * 3^b * u lies in E_m, with
    stride = 2 * (n//2) + 1.  Every unit f of half-dimension h has
    2-adic valuation at most 2h and 3-adic valuation at most h, so a
    count in E_m has a <= 2m < stride and b <= m: the rows never
    overlap.  Splitting f = 2^x * 3^y * w, w prime to 6, once per pass,
    multiplying a whole row family by f is one shift,
    ``E_m[u * w] |= mask << (x + y * stride)``.  The counts
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
    _check_dimension(n, 1)
    half = n // 2
    stride = 2 * half + 1
    levels: list[dict[int, int]] = [{1: 1}] + [{} for _ in range(half)]
    # Run first, the pass over h = 1 sees only E_0 = {1: 1}: its factors
    # 2, 3 and 4 keep the key 1, so it makes 3 * (n//2) updates in all.
    # Run last, it makes three per key of every level: at n = 32 the build
    # takes 2,124 bitmask updates that way and 1,426 this way.  The rest
    # run largest first; smallest first takes 1,490.
    for h in (1, *range(half, 1, -1)):
        steps = []
        for f in (2, 3, 4) if h == 1 else (h + 1, 2 * h + 1):
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
    """M_n by its definition: the set of :func:`count_for_config` over
    every configuration of :func:`enumerate_configs`.

    Shares nothing with the units, the trades or the bitmask levels of
    :func:`attainable_counts`, so it is an independent reference for
    it.  Visits every configuration, sum_r p(r) p(n - 2r) of them.
    """
    return SpectrumSet(n, sorted({count_for_config(c) for c in enumerate_configs(n)}))
