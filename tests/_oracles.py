"""Independent reference implementations used only by the tests.

Each oracle recomputes a quantity by a different route than the library
(cofactor expansion and the Faddeev-LeVerrier recurrence instead of
integer Krylov elimination, flattened matrix powers instead of vector
Krylov chains, direct enumeration instead of polynomial convolution, a
DP table instead of the pentagonal recurrence, a recurrence over every
dimension instead of over half-dimensions, nested partition loops
instead of grouping the configuration stream) so that agreement is
evidence, not tautology.
"""

from collections import Counter
from fractions import Fraction
from itertools import product
from math import prod

from invsub.combinatorics import partitions_of
from invsub.exactalg import RationalMatrix, RationalPolynomial
from invsub.spectrum import BlockConfig


def char_poly_cofactor(a: RationalMatrix) -> RationalPolynomial:
    """det(x*I - A) by Laplace expansion along the first column.

    Exponential in n; keep n <= 5.
    """
    x = RationalPolynomial.x()
    cells = [[RationalPolynomial((-entry,)) for entry in row] for row in a.entries]
    for i in range(a.n):
        cells[i][i] = cells[i][i] + x
    return _poly_det(cells)


def char_poly_faddeev_leverrier(a: RationalMatrix) -> RationalPolynomial:
    """det(x*I - A) by the Faddeev-LeVerrier recurrence

        M_1 = I,   c_{n-k} = -tr(A M_k) / k,   M_{k+1} = A M_k + c_{n-k} I

    in Fraction arithmetic.
    """
    n = a.n
    coefficients = [Fraction(0)] * n + [Fraction(1)]
    m = RationalMatrix.identity(n)
    for k in range(1, n + 1):
        am = a * m
        c = -am.trace() / k
        coefficients[n - k] = c
        m = am + RationalMatrix.identity(n).scaled(c)
    return RationalPolynomial(coefficients)


def min_poly_flattened_powers(a: RationalMatrix) -> RationalPolynomial:
    """Minimal polynomial as the first linear dependence among I, A,
    A^2, ..., flattened to vectors of length n^2.

    Keeps a reduced echelon basis with combination tracking in Fraction
    arithmetic; Cayley-Hamilton bounds the search at degree n.
    """
    n = a.n
    rows: list[tuple[int, list[Fraction], list[Fraction]]] = []
    power = RationalMatrix.identity(n)
    degree = 0
    while True:
        vec = [entry for row in power.entries for entry in row]
        combo = [Fraction(0)] * degree + [Fraction(1)]
        for pivot, rvec, rcombo in rows:
            c = vec[pivot]
            if c != 0:
                for i, x in enumerate(rvec):
                    if x != 0:
                        vec[i] -= c * x
                for i, x in enumerate(rcombo):
                    combo[i] -= c * x
        pivot = next((i for i, x in enumerate(vec) if x != 0), None)
        if pivot is None:
            return RationalPolynomial(combo)
        if degree == n:
            raise AssertionError("no dependence by degree n; broken arithmetic")
        scale = vec[pivot]
        rows.append(
            (pivot, [x / scale for x in vec], [x / scale for x in combo])
        )
        power = power * a
        degree += 1


def _poly_det(cells: list[list[RationalPolynomial]]) -> RationalPolynomial:
    n = len(cells)
    if n == 1:
        return cells[0][0]
    total = RationalPolynomial.zero()
    for i in range(n):
        minor = [row[1:] for k, row in enumerate(cells) if k != i]
        term = cells[i][0] * _poly_det(minor)
        total = total + (-term if i % 2 else term)
    return total


def brute_force_profile(config: BlockConfig) -> tuple[int, ...]:
    """Dimension profile by enumerating one subspace choice per block.

    A real block of size k admits chain members of dimension 0..k; a
    complex block with part k admits dimensions 0, 2, ..., 2k.  Every
    invariant subspace is a direct sum of one choice per block, so the
    profile is the histogram of total dimensions.
    """
    choices = [range(k + 1) for k in config.real_multiplicities]
    choices += [
        range(0, 2 * k + 1, 2) for k in config.complex_pair_multiplicities
    ]
    histogram = Counter(sum(dims) for dims in product(*choices))
    return tuple(histogram.get(d, 0) for d in range(config.n + 1))


def attainable_counts_by_dimension(max_n: int) -> list[tuple[int, ...]]:
    """M_0 = {1}, M_1, ..., M_max_n, each sorted, by the recurrence

        M_k = union over j = 1..k of (j + 1) * M_{k-j}
              union over j = 1..k//2 of (j + 1) * M_{k-2j}

    Every configuration of dimension k >= 1 has a real part j (leaving
    dimension k - j) or a conjugate-pair part j (leaving k - 2j), and
    removing it divides the count by j + 1.  Builds every level,
    odd ones included, with every part size.
    """
    levels: list[set[int]] = [{1}]
    for k in range(1, max_n + 1):
        level: set[int] = set()
        for j in range(1, k + 1):
            level.update((j + 1) * v for v in levels[k - j])
        for j in range(1, k // 2 + 1):
            level.update((j + 1) * v for v in levels[k - 2 * j])
        levels.append(level)
    return [tuple(sorted(level)) for level in levels]


def table_rows(n: int) -> list[tuple[int, int, list[tuple[tuple[int, ...], int]]]]:
    """The ``table`` breakdown of dimension n as (r, s, rows) groups.

    For r = 0..n//2 and s = n - 2r, each row pairs a partition of r
    (conjugate-pair parts) with a partition of s (real parts), in
    :func:`partitions_of` order, shown as the pair parts then the real
    parts with a 0 for an empty side, next to the product of
    (part + 1) over both.
    """
    groups = []
    for r in range(n // 2 + 1):
        s = n - 2 * r
        rows = []
        for pairs in partitions_of(r):
            for reals in partitions_of(s):
                shown = (pairs or (0,)) + (reals or (0,))
                rows.append((shown, prod(k + 1 for k in pairs + reals)))
        groups.append((r, s, rows))
    return groups


def naive_partition_count(n: int) -> int:
    """p(n) by the textbook DP over largest allowed part."""
    table = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            table[total] += table[total - part]
    return table[n]


def real_divisor_count(decomposition, count_real_roots) -> int:
    """Number of monic divisors over the reals of the decomposed
    polynomial: each squarefree factor g of multiplicity m splits over
    the reals into count_real_roots(g) linear and (deg g - that)/2
    quadratic irreducibles, each contributing a factor (m + 1)."""
    total = 1
    for factor, multiplicity in decomposition.factors:
        real = count_real_roots(factor)
        pairs = (factor.degree - real) // 2
        total *= (multiplicity + 1) ** (real + pairs)
    return total


def random_fraction(rng, max_abs_num: int = 9, max_den: int = 4) -> Fraction:
    return Fraction(rng.randint(-max_abs_num, max_abs_num), rng.randint(1, max_den))


def random_rational_matrix(rng, n: int) -> RationalMatrix:
    return RationalMatrix(
        [[random_fraction(rng) for _ in range(n)] for _ in range(n)]
    )


def random_invertible_matrix(rng, n: int, bound: int = 5) -> RationalMatrix:
    """Random integer-entry matrix, resampled until invertible."""
    while True:
        candidate = RationalMatrix(
            [
                [Fraction(rng.randint(-bound, bound)) for _ in range(n)]
                for _ in range(n)
            ]
        )
        try:
            candidate.inverse()
        except ValueError:
            continue
        return candidate


def companion_matrix(p: RationalPolynomial) -> RationalMatrix:
    """Companion matrix of a monic polynomial of degree >= 1."""
    if not p.is_monic() or p.degree < 1:
        raise ValueError("companion matrix needs a monic polynomial of degree >= 1")
    n = p.degree
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(1, n):
        rows[i][i - 1] = Fraction(1)
    for i in range(n):
        rows[i][n - 1] = -p.coefficients[i]
    return RationalMatrix(rows)
