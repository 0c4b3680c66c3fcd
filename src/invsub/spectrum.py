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
keeps, for each part of its counts prime to 30, one bitmask of the
exponents of 2, 3 and 5 that occur with it.  :func:`enumerate_configs`
lists the configurations for per-configuration views and for
:func:`attainable_counts_bruteforce`, M_n by its definition.  None of
it needs the matrix algebra.
"""

from bisect import bisect_left
from collections.abc import Iterator
from math import prod
from operator import lt

from . import FrozenValue, _check_dimension
from .combinatorics import partitions_of


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
        fields = []
        for parts in (complex_pair_multiplicities, real_multiplicities):
            parts = tuple(parts)
            if not all(type(k) is int and k >= 1 for k in parts):
                raise ValueError(f"invalid multiplicities: {parts}")
            fields.append(tuple(sorted(parts, reverse=True)))
        if not any(fields):
            raise ValueError("a configuration needs at least one root")
        self._store(*fields)

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
        for value in values:
            if type(value) is not int:
                raise ValueError(f"invalid values: {value!r} is not an int")
        if not all(map(lt, values, values[1:])):
            raise ValueError("values must be strictly increasing")
        self._store(n, values)

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
    checked at the call, and ``partitions_of`` yields canonical parts,
    so no ``BlockConfig`` check runs.
    """
    _check_dimension(n, 1)
    return (
        BlockConfig._of(pairs, reals)
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
    half-dimension h = 1..n//2, in any order, which for m = h..n//2 in
    ascending order adds f * E_{m-h} to E_m for every f in F(h).  By
    induction on the passes, after each one the level E_m holds exactly
    the counts of multisets of units of the half-dimensions passed so
    far with total m.  The pass over h keeps what the earlier passes
    built, and because m ascends it reads E_{m-h} after extending it:
    so by a second induction on m, a multiset that holds j >= 1 units
    of F(h) reaches E_m as f times one that holds j - 1 of them, for the
    f it drops, and every value added is such a count.

    A level is stored by the part of each count prime to 30.  By unique
    factorization each count is 2^a * 3^b * 5^c * u for exactly one
    (a, b, c, u) with u prime to 30, and E_m maps u to one integer whose
    bit a + stride * (b + rows * c) is set exactly when 2^a * 3^b * 5^c * u
    lies in E_m, with stride = 2 * (n//2) + 1 and rows = n//2 + 1: the
    bits of one c form a plane of rows rows, each stride bits wide.  Every
    unit f of half-dimension h has 2-adic valuation at most 2h, 3-adic
    valuation at most h and 5-adic valuation at most h/2, since 5^k
    dividing f <= 2h + 1 gives 2h + 1 >= 5^k >= 4k + 1, so h >= 2k.  So
    a count in E_m has a <= 2m < stride, b <= m < rows and c <= m/2: the
    rows never overlap and neither do the planes.  Splitting
    f = 2^x * 3^y * 5^z * w, w prime to 30, once per pass, multiplying a
    whole family by f is one shift, ``E_m[u * w] |= mask << shift`` with
    shift = x + stride * (y + rows * z), because the product lies in E_m
    and so stays within its row and plane.  The counts come out by
    walking the set bits of E_{n//2} plane by plane, then row by row:
    bit a of row b of plane c of key u is 5^c * 3^b * u shifted left by
    a + n mod 2.  Each count owns one bit, so they are distinct, and
    once sorted they make the :class:`SpectrumSet` without its checks.

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

    The work grows with the number of distinct parts prime to 30 of the
    counts, not with the number of configurations.  Values are returned
    in ascending order.
    """
    _check_dimension(n, 1)
    half = n // 2
    stride = 2 * half + 1
    plane = stride * (half + 1)
    passes = []
    for h in range(half, 0, -1):
        steps = []
        for f in (2, 3, 4) if h == 1 else (h + 1, 2 * h + 1):
            x = (f & -f).bit_length() - 1
            f >>= x
            while f % 3 == 0:
                f //= 3
                x += stride
            while f % 5 == 0:
                f //= 5
                x += plane
            steps.append((f, x))
        passes.append((h, steps))
    # A pass whose factors only shift (h = 1, 2, 4 and 7) adds no key, so
    # these run first, largest first, and see only the key 1 of the levels
    # the passes before them filled.  The rest run largest first too.  At
    # n = 32 the build takes 526 bitmask updates this way, 886 with h = 1
    # first and the rest largest first, and 650 smallest first.
    passes.sort(key=lambda p: any(w > 1 for w, _ in p[1]))
    levels: list[dict[int, int]] = [{1: 1}] + [{} for _ in range(half)]
    for h, steps in passes:
        for m in range(h, half + 1):
            level = levels[m]
            for u, mask in levels[m - h].items():
                for w, shift in steps:
                    level[u * w] = level.get(u * w, 0) | mask << shift
    top = levels[half]
    del levels  # no lower level is read again: free them before the values
    values = []
    row_bits = (1 << stride) - 1
    plane_bits = (1 << plane) - 1
    for u, mask in top.items():
        plane_count = u << (n % 2)
        while mask:
            rows, count = mask & plane_bits, plane_count
            while rows:
                row = rows & row_bits
                while row:
                    low = row & -row
                    values.append(count << (low.bit_length() - 1))
                    row ^= low
                rows >>= stride
                count *= 3
            mask >>= plane
            plane_count *= 5
    values.sort()
    return SpectrumSet._of(n, tuple(values))


def attainable_counts_bruteforce(n: int) -> SpectrumSet:
    """M_n by its definition: the set of :func:`count_for_config` over
    every configuration of :func:`enumerate_configs`.

    Shares nothing with the units, the trades or the bitmask levels of
    :func:`attainable_counts`, so it is an independent reference for
    it.  Visits every configuration, sum_r p(r) p(n - 2r) of them.
    """
    return SpectrumSet(n, sorted({count_for_config(c) for c in enumerate_configs(n)}))
