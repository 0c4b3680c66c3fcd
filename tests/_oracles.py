"""Independent reference implementations used only by the tests.

Each oracle recomputes a quantity by a different route than the library
(cofactor expansion and the Faddeev-LeVerrier recurrence instead of
integer Krylov elimination, flattened matrix powers instead of vector
Krylov chains, direct enumeration instead of polynomial convolution, a
DP table instead of the pentagonal recurrence, a recurrence over every
dimension instead of over half-dimensions, nested partition loops
instead of grouping the configuration stream, Euclid's gcd and Yun's
loop over Q instead of the integer pseudo-remainder sequence) so that
agreement is evidence, not tautology.

The algebra oracles run on plain ``Fraction`` rows and coefficient
lists, read from ``RationalMatrix.entries`` and
``RationalPolynomial.coefficients``, with this module's own product,
difference and long division; they build a value type only for the
result they return, so they share no arithmetic with ``invsub``.
A coefficient list is indexed by degree and has no trailing zeros; the
zero polynomial is the empty list.
"""

from collections import Counter
from fractions import Fraction
from itertools import product as cartesian_product
from math import prod

from invsub.combinatorics import partitions_of
from invsub.exactalg import RationalMatrix, RationalPolynomial
from invsub.spectrum import BlockConfig

# ---- Fraction coefficient lists and rows -----------------------------------


def _trimmed(p: list[Fraction]) -> list[Fraction]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_add(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    width = max(len(a), len(b))
    a = a + [Fraction(0)] * (width - len(a))
    b = b + [Fraction(0)] * (width - len(b))
    return _trimmed([x + y for x, y in zip(a, b)])


def _poly_sub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    return _poly_add(a, [-y for y in b])


def _poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _identity(n: int) -> list[list[Fraction]]:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def _matrix_mul(a: list[list[Fraction]], b: list[list[Fraction]]) -> list[list[Fraction]]:
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def product(*polys: RationalPolynomial) -> RationalPolynomial:
    """The product of polynomials (1 for none), on Fraction lists."""
    out = [Fraction(1)]
    for p in polys:
        out = _poly_mul(out, p.coefficients)
    return RationalPolynomial(out)


def power(p: RationalPolynomial, k: int) -> RationalPolynomial:
    """p^k by repeated multiplication."""
    return product(*(p,) * k)


def char_poly_cofactor(a: RationalMatrix) -> RationalPolynomial:
    """det(x*I - A) by Laplace expansion along the first column.

    Exponential in n; keep n <= 5.
    """
    cells = [
        [[-entry, Fraction(1)] if i == j else [-entry] if entry else []
         for j, entry in enumerate(row)]
        for i, row in enumerate(a.entries)
    ]
    return RationalPolynomial(_poly_det(cells))


def _poly_det(cells: list[list[list[Fraction]]]) -> list[Fraction]:
    if len(cells) == 1:
        return cells[0][0]
    total: list[Fraction] = []
    for i, row in enumerate(cells):
        minor = [other[1:] for k, other in enumerate(cells) if k != i]
        term = _poly_mul(row[0], _poly_det(minor))
        total = (_poly_sub if i % 2 else _poly_add)(total, term)
    return total


def char_poly_faddeev_leverrier(a: RationalMatrix) -> RationalPolynomial:
    """det(x*I - A) by the Faddeev-LeVerrier recurrence

        M_1 = I,   c_{n-k} = -tr(A M_k) / k,   M_{k+1} = A M_k + c_{n-k} I

    in Fraction arithmetic.
    """
    n, rows = a.n, a.entries
    coefficients = [Fraction(0)] * n + [Fraction(1)]
    m = _identity(n)
    for k in range(1, n + 1):
        am = _matrix_mul(rows, m)
        c = -sum(am[i][i] for i in range(n)) / k
        coefficients[n - k] = c
        for i in range(n):
            am[i][i] += c
        m = am
    return RationalPolynomial(coefficients)


def min_poly_flattened_powers(a: RationalMatrix) -> RationalPolynomial:
    """Minimal polynomial as the first linear dependence among I, A,
    A^2, ..., flattened to vectors of length n^2.

    Keeps a reduced echelon basis with combination tracking in Fraction
    arithmetic; Cayley-Hamilton bounds the search at degree n.
    """
    n, entries = a.n, a.entries
    rows: list[tuple[int, list[Fraction], list[Fraction]]] = []
    power = _identity(n)
    degree = 0
    while True:
        vec = [entry for row in power for entry in row]
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
        power = _matrix_mul(power, entries)
        degree += 1


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
    histogram = Counter(sum(dims) for dims in cartesian_product(*choices))
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


def real_divisor_count(p: RationalPolynomial, count_real_roots) -> int:
    """Number of monic divisors of p over the reals: each squarefree
    factor g of multiplicity m splits over the reals into
    count_real_roots(g) linear and (deg g - that)/2 quadratic
    irreducibles, each contributing a factor (m + 1)."""
    total = 1
    for factor, multiplicity in squarefree_factors(p):
        real = count_real_roots(factor)
        pairs = (factor.degree - real) // 2
        total *= (multiplicity + 1) ** (real + pairs)
    return total


def _long_division(
    a: list[Fraction], b: list[Fraction]
) -> tuple[list[Fraction], list[Fraction]]:
    """(q, r) with a = q b + r and deg r < deg b, by schoolbook long
    division of Fraction coefficient lists indexed by degree (b nonzero,
    its last coefficient nonzero); r has no trailing zeros."""
    r = list(a)
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    for shift in reversed(range(len(q))):
        c = r[shift + len(b) - 1] / b[-1]
        q[shift] = c
        for i, x in enumerate(b):
            r[shift + i] -= c * x
    return q, _trimmed(r)


def _monic(p: list[Fraction]) -> list[Fraction]:
    return [c / p[-1] for c in p]


def _gcd(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    """Monic gcd by Euclid's algorithm (a and b not both zero)."""
    while b:
        a, b = b, _long_division(a, b)[1]
    return _monic(a)


def _derivative(p: list[Fraction]) -> list[Fraction]:
    return [i * c for i, c in enumerate(p) if i]


def _exact_quotient(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    """a / b, where b divides a."""
    q, r = _long_division(a, b)
    if r:
        raise AssertionError(f"{b} does not divide {a}")
    return q


def polynomial_gcd(a: RationalPolynomial, b: RationalPolynomial) -> RationalPolynomial:
    """Monic gcd by Euclid's algorithm over Q (a and b not both zero),
    on the oracle's own long division."""
    return RationalPolynomial(_gcd(list(a.coefficients), list(b.coefficients)))


def squarefree_factors(
    p: RationalPolynomial,
) -> tuple[tuple[RationalPolynomial, int], ...]:
    """Yun's squarefree decomposition of a nonconstant p over Q, with
    every gcd and quotient on ``_long_division``: (g, m) pairs with
    monic, squarefree, pairwise coprime g, by increasing multiplicity m,
    whose product of g^m is p divided by its leading coefficient.

        a_0 = gcd(f, f'),  b_1 = f / a_0,  d_1 = f' / a_0 - b_1',
        a_i = gcd(b_i, d_i),  b_(i+1) = b_i / a_i,
        d_(i+1) = d_i / a_i - b_(i+1)'

    until b_i = 1; a nonconstant a_i is the factor of multiplicity i.
    """
    if p.degree < 1:
        raise ValueError(f"needs a nonconstant polynomial, got {p}")
    f = _monic(list(p.coefficients))
    df = _derivative(f)
    g = _gcd(f, df)
    b = _exact_quotient(f, g)
    d = _poly_sub(_exact_quotient(df, g), _derivative(b))
    factors = []
    multiplicity = 1
    while len(b) > 1:
        a = _gcd(b, d)
        if len(a) > 1:
            factors.append((RationalPolynomial(a), multiplicity))
        b = _exact_quotient(b, a)
        d = _poly_sub(_exact_quotient(d, a), _derivative(b))
        multiplicity += 1
    return tuple(factors)


def squarefree_part(p: RationalPolynomial) -> RationalPolynomial:
    """p / gcd(p, p'): the product of the squarefree factors of a
    nonconstant p, times its leading coefficient."""
    lead = RationalPolynomial((p.coefficients[-1],))
    return product(lead, *(g for g, _ in squarefree_factors(p)))


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
    if p.degree < 1 or p.coefficients[-1] != 1:
        raise ValueError("companion matrix needs a monic polynomial of degree >= 1")
    n = p.degree
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(1, n):
        rows[i][i - 1] = Fraction(1)
    coefficients = p.coefficients
    for i in range(n):
        rows[i][n - 1] = -coefficients[i]
    return RationalMatrix(rows)
