"""Independent reference implementations used only by the tests.

Each oracle recomputes a quantity by a different route than the library
(cofactor expansion and the Faddeev-LeVerrier recurrence instead of
Krylov chains modulo a prime, flattened matrix powers instead of vector
Krylov chains, a fraction-free elimination over Z instead of an LU mod
p with p-adic lifting, direct enumeration instead of polynomial convolution, a
DP table instead of the pentagonal recurrence, a recurrence over every
dimension instead of over half-dimensions, nested partition loops
instead of grouping the configuration stream, Euclid's gcd and Yun's
loop over Q instead of the integer pseudo-remainder sequence) so that
agreement is evidence, not tautology.

The algebra oracles run on plain ``Fraction`` rows and coefficient
lists, read from ``RationalMatrix.entries`` and
``RationalPolynomial.coefficients``, or on integer rows made from them,
with this module's own product, difference, long division and
elimination; they build a value type only for the
result they return, so they share no arithmetic with ``invsub``.
A coefficient list is indexed by degree and has no trailing zeros; the
zero polynomial is the empty list.
"""

import re
from collections import Counter
from fractions import Fraction
from itertools import product as cartesian_product
from math import lcm, prod

from invsub.analyzer import realize_config
from invsub.combinatorics import partitions_of
from invsub.exactalg import RationalMatrix, RationalPolynomial
from invsub.spectrum import BlockConfig, enumerate_configs

# Tokens outside the matrix-document grammar, shared by the tests of the
# command line and of the library, which both refuse each.  int() accepts
# the first three (underscores, Arabic-Indic and fullwidth digits), and
# Fraction() those and "1e3", so a reader checks the grammar before it
# converts.
OFF_GRAMMAR_TOKENS = [
    "1_0", "\u0663", "\uff11", "+-1", "--1", "+", "-", "0x1", "1e3",
    "1/+2", "1//2", "/2", "2/",
]

# the matrix-document grammar by an ASCII pattern of its own
_GRAMMAR = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?", re.ASCII)


def read_token(token: str) -> tuple[int, int] | str:
    """(p, q) with the token = p / q, by ``_GRAMMAR`` and int() alone, or
    the reason a reader of the grammar refuses it, worded from the
    library's message templates.  The token is quoted whole, so it must
    be too short to be cut, and too short for the int-string limit."""
    match = _GRAMMAR.fullmatch(token)
    if not match:
        return f"invalid rational token {token!r} (expected an integer or p/q)"
    p, q = int(match[1]), int(match[2] or 1)
    return (p, q) if q else f"zero denominator in {token!r}"


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


# ---- fraction-free Krylov elimination over Z --------------------------------
#
# The route exactalg took before its modular one: integer lists of the
# oracle's own, made from the Fraction entries.


def _integer_rows(a: RationalMatrix) -> tuple[int, list[list[int]]]:
    """(d, the rows of dA), d the lcm of the entries' denominators."""
    entries = a.entries
    d = lcm(*(x.denominator for row in entries for x in row))
    return d, [[int(x * d) for x in row] for row in entries]


def _int_poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _monic_of_scaled(q: list[int], d: int) -> RationalPolynomial:
    """The monic polynomial of A from an integer polynomial q of dA."""
    return RationalPolynomial(
        [Fraction(c * d**k, q[-1] * d ** (len(q) - 1)) for k, c in enumerate(q)]
    )


def _bareiss_chain(b: list[list[int]], v: list[int], order: list[int], columns: list[list[int]]) -> list[int]:
    """The Krylov chain v, Bv, ... modulo the span of ``columns``, a
    column-wise fraction-free (Bareiss) elimination whose pivot of step
    j sits in row j of the rows permuted by ``order``.

    Each vector passes through the steps as a new column: step j fixes
    entry j and updates rows j+1.. by (p_j y - f m) / p_(j-1), exactly,
    so every entry is a minor.  While some live entry is nonzero, the
    column becomes a step with that entry's row swapped into place.  The
    first vector with no live entry left, B^k v, gives by back
    substitution through the fixed entries of the chain's columns its
    integer coefficients on the chain, and q = x^k - sum_i y_i x^i is
    returned, the chain left in ``columns``.
    """
    start = len(columns)
    x = v
    while True:
        c = [x[i] for i in order]
        previous = 1
        for j, column in enumerate(columns):
            p, f = column[j], c[j]
            c[j + 1:] = [(p * y - f * m) // previous for y, m in zip(c[j + 1:], column[j + 1:])]
            previous = p
        k = len(columns)
        pivot = next((i for i in range(k, len(c)) if c[i]), None)
        if pivot is None:
            break
        columns.append(c)
        for column in columns:
            column[k], column[pivot] = column[pivot], column[k]
        order[k], order[pivot] = order[pivot], order[k]
        x = [sum(r * t for r, t in zip(row, x)) for row in b]
    y = [0] * (k - start)
    for i in range(k - 1, start - 1, -1):
        rest = c[i] - sum(columns[j][i] * y[j - start] for j in range(i + 1, k))
        y[i - start] = rest // columns[i][i]
    return [-t for t in y] + [1]


def _bareiss_chains(b: list[list[int]]):
    """(v, q) for each start vector (1, ..., n), e_1, ..., e_n outside
    the span of the earlier chains, q its chain's polynomial modulo that
    span; stops once the span is full.

    The oracle keeps (1, ..., n) first on purpose: ``exactalg`` begins
    its walk with two dense pseudorandom vectors, so the two walks cross
    different chains, and their agreement does not rest on a shared
    choice of start vectors."""
    n = len(b)
    order: list[int] = list(range(n))
    columns: list[list[int]] = []
    starts = [list(range(1, n + 1))] + [[int(i == j) for j in range(n)] for i in range(n)]
    for v in starts:
        before = len(columns)
        q = _bareiss_chain(b, v, order, columns)
        if len(columns) > before:
            yield v, q
        if len(columns) == n:
            return


def char_poly_bareiss(a: RationalMatrix) -> RationalPolynomial:
    """det(x*I - A) as the product of the chains' polynomials
    (Keller-Gehrig) in one fraction-free elimination over Z."""
    d, b = _integer_rows(a)
    poly = [1]
    for _, q in _bareiss_chains(b):
        poly = _int_poly_mul(poly, q)
    return _monic_of_scaled(poly, d)


def min_poly_bareiss(a: RationalMatrix) -> RationalPolynomial:
    """The lcm of the start vectors' minimal polynomials: a later vector
    v adds the chain of mu(B) v on a fresh elimination."""
    d, b = _integer_rows(a)
    n = len(b)
    mu = [1]
    for i, (v, q) in enumerate(_bareiss_chains(b)):
        if i:
            w = [0] * n
            for c in reversed(mu):
                w = [sum(r * t for r, t in zip(row, w)) + c * x for row, x in zip(b, v)]
            q = _bareiss_chain(b, w, list(range(n)), [])
        mu = _int_poly_mul(mu, q)
        if len(mu) > n:
            break
    return _monic_of_scaled(mu, d)


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


def _unit_lower(rng, n: int) -> list[list[int]]:
    """Ones on the diagonal and zeros above it; below it, each entry is
    -1 or 1 with probability 0.3, else 0."""
    return [
        [int(i == j) if j >= i else rng.choice((-1, 1)) * (rng.random() < 0.3) for j in range(n)]
        for i in range(n)
    ]


def _inverse_unit_lower(m: list[list[int]]) -> list[list[int]]:
    """Row i of the inverse is e_i minus the earlier rows weighted by row i of m."""
    inverse: list[list[int]] = []
    for i, row in enumerate(m):
        inverse.append([int(i == j) - sum(row[k] * inverse[k][j] for k in range(i)) for j in range(len(m))])
    return inverse


def unimodular_conjugate(rng, a: RationalMatrix) -> RationalMatrix:
    """P^-1 A P for a seeded unimodular integer P = L M^T, L and M unit
    lower triangular with their other entries in {-1, 0, 1}, mostly 0.
    P^-1 = (M^-1)^T L^-1 comes by forward substitution, so a dense
    integer A stays integer, and the products are this module's own."""
    lower, other = _unit_lower(rng, a.n), _unit_lower(rng, a.n)
    p = _matrix_mul(lower, [list(col) for col in zip(*other)])
    p_inverse = _matrix_mul([list(col) for col in zip(*_inverse_unit_lower(other))], _inverse_unit_lower(lower))
    return RationalMatrix(_matrix_mul(_matrix_mul(p_inverse, [list(row) for row in a.entries]), p))


def conjugated_realizations(rng, n: int):
    """``realize_config`` of each block configuration of dimension n,
    conjugated by ``unimodular_conjugate``: nonderogatory, as every root
    owns one block."""
    for config in enumerate_configs(n):
        yield unimodular_conjugate(rng, realize_config(config))


def conjugated_two_factor_sums(rng, n: int):
    """For each block configuration of dimension n - 1 with a real part,
    its ``realize_config`` plus a 1 x 1 block for the real root 1, which
    the realization gives its largest real part, conjugated by
    ``unimodular_conjugate``.  The root 1 owns two blocks, so the sum is
    derogatory, with the two invariant factors x - 1 and the
    characteristic polynomial of the realization."""
    one = RationalMatrix([[1]])
    for config in enumerate_configs(n - 1):
        if config.real_multiplicities:
            yield unimodular_conjugate(rng, RationalMatrix.block_diagonal([realize_config(config), one]))


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
