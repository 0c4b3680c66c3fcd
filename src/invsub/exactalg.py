"""Exact rational polynomial and matrix algebra.

Deciding whether a matrix keeps finitely many invariant subspaces hinges
on exact eigenvalue collisions, which floating point cannot witness, so
everything here is exact and floats are rejected at the boundary rather
than converted.  ``RationalMatrix`` and ``RationalPolynomial`` store a
value v in one integer form, made by ``_integer_form``: the lcm d of
its reduced denominators and the integers dv, the rows of dA or the
coefficients of dp.  ``entries`` and ``coefficients`` build
``Fraction`` values on demand.  The operations run on plain Python
ints; a polynomial of dA rescales to the one of A coefficient by
coefficient, c_k(A) = c_k(dA) / d^(deg - k).

Each operation has one implementation:

* Polynomials: ``_mul``, ``_derivative`` and ``_divide``, the one
  pseudo-division, shared by ``divmod`` and the remainder sequence
  ``_signed_prs``; one helper, ``_polynomial``, builds every result,
  and ``_rescaled`` turns an integer polynomial of dA into the monic
  one of A.  The value types carry only the arithmetic that the
  library's two questions and their checks use: ``divmod`` and ``%``
  of polynomials, and ``*``, ``inverse`` and ``identity`` of matrices.
* Krylov chains v, Av, A^2 v, ... run through one column-wise
  fraction-free (Bareiss) elimination: each vector enters as a new
  column, passes through the earlier elimination steps and becomes a
  step of its own while it is independent.  Back substitution through
  the fixed entries of the chain's columns turns the first dependent
  vector into the chain's monic integer polynomial.
* One loop, ``_chains``, runs the chains of the start vectors
  (1, 2, ..., n), e_1, ..., e_n, each modulo the span of the earlier
  ones; it skips a vector inside that span and stops when the span is
  full.  ``char_poly`` is the product of their polynomials
  (Keller-Gehrig).  ``min_poly`` is the lcm of the minimal polynomials
  of those vectors: after the first, a vector v extends the lcm mu by
  the chain of mu(A) v, and the search stops once the degree reaches n.
* ``_horner`` is the one Horner loop: ``min_poly`` applies it to a
  vector and ``evaluate_at_matrix`` to each unit vector.
  ``RationalMatrix.inverse`` has no elimination of its own: writing
  det(xI - A) = x q(x) + c, Cayley-Hamilton gives A^-1 = -q(A) / c.
* One core, ``squarefree_root_counts``, walks the gcd tower g_0 = f,
  g_(i+1) = gcd(g_i, g_i'): the signed pseudo-remainder sequence of g_i
  and g_i' is a Sturm chain of g_i that counts its distinct real roots
  and ends in g_(i+1), so one sequence per multiplicity level gives
  every factor's degree and real roots.  ``count_real_roots`` is a view
  of it.  ``_signed_prs`` is the one remainder sequence.

``tests/_oracles.py`` holds independent routes that the tests compare
against: cofactor expansion and the Faddeev-LeVerrier recurrence for
the characteristic polynomial, the first dependence among flattened
matrix powers for the minimal polynomial, and Euclid's gcd with Yun's
loop over Q for the squarefree factors.  They run on ``Fraction`` rows
and coefficient lists of their own, so none of them shares this
module's arithmetic.
"""

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul


def _integer_form(values: Iterable) -> tuple[int, list[int]]:
    """(d, [d v for v in values]) with d the lcm of the reduced
    denominators.  Ints and Fractions are taken as they are, strings
    like ``"3/4"`` and other rationals are coerced, floats are rejected."""
    xs = []
    for x in values:
        if type(x) is not int and type(x) is not Fraction:
            if isinstance(x, float):
                raise TypeError(f"refusing float {x!r}: exact rational input required")
            x = Fraction(x)
        xs.append(x)
    d = lcm(*(x.denominator for x in xs))
    return d, [x.numerator * (d // x.denominator) for x in xs]


@dataclass(frozen=True)
class RationalPolynomial:
    """Dense polynomial with exact rational coefficients, stored as integers.

    A polynomial p is kept as ``RationalMatrix`` keeps a matrix: its
    ``denominator`` d and ``integer_coefficients``, those of dp by
    degree without trailing zeros (none for the zero polynomial, of
    degree -1).  A frozen dataclass over this canonical form, so
    equality and hashing compare it, and pickle and copy work; the
    constructor takes the coefficients themselves.  ``coefficients``
    builds ``Fraction`` values on demand.
    """

    denominator: int
    integer_coefficients: tuple[int, ...]

    def __init__(self, coefficients: Iterable) -> None:
        d, ints = _integer_form(coefficients)
        object.__setattr__(self, "denominator", d)
        object.__setattr__(self, "integer_coefficients", tuple(_strip(ints)))

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        """The coefficients as ``Fraction`` values, indexed by degree."""
        d = self.denominator
        return tuple(Fraction(c, d) for c in self.integer_coefficients)

    @property
    def degree(self) -> int:
        return len(self.integer_coefficients) - 1

    def is_zero(self) -> bool:
        return not self.integer_coefficients

    def __divmod__(self, other) -> tuple["RationalPolynomial", "RationalPolynomial"]:
        """Division of A = a / d_A by B = b / d_B through the
        pseudo-division s a = q b + r of ``_divide``: the quotient is
        q d_B / (s d_A) and the remainder r / (s d_A)."""
        if not isinstance(other, RationalPolynomial):
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        s, q, r = _divide(self.integer_coefficients, other.integer_coefficients)
        d = s * self.denominator
        return _polynomial([c * other.denominator for c in q], d), _polynomial(r, d)

    def __mod__(self, other) -> "RationalPolynomial":
        return divmod(self, other)[1]

    def __repr__(self) -> str:
        return f"RationalPolynomial({self})"

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        coefficients = self.coefficients
        terms = []
        for power in range(self.degree, -1, -1):
            c = coefficients[power]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if power == 0:
                body = str(mag)
            else:
                var = "x" if power == 1 else f"x^{power}"
                body = var if mag == 1 else f"{mag}*{var}"
            terms.append((sign, body))
        first_sign, first_body = terms[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in terms[1:]:
            text += f" {sign} {body}"
        return text


def _polynomial(p: list[int], d: int) -> RationalPolynomial:
    """The polynomial p / d of an integer polynomial p and a nonzero int d."""
    return RationalPolynomial(p if d == 1 else (Fraction(c, d) for c in p))


@dataclass(frozen=True)
class RationalMatrix:
    """Square matrix of exact rationals, stored as integers.

    A matrix A is kept as its ``denominator`` d, the lcm of the reduced
    denominators of its entries, and ``integer_rows``, the rows of the
    integer matrix dA.  A frozen dataclass over this canonical form, so
    equality and hashing compare it, and pickle and copy work; the
    constructor takes the rows themselves.  ``entries`` builds the
    ``Fraction`` rows on demand.  Entries are read by ``_integer_form``,
    which rejects floats.
    """

    denominator: int
    integer_rows: tuple[tuple[int, ...], ...]

    def __init__(self, rows: Iterable[Iterable]) -> None:
        rows = [list(row) for row in rows]
        d, ints = _integer_form(x for row in rows for x in row)
        if not rows:
            raise ValueError("matrix document contains no rows")
        n = len(rows)
        for i, row in enumerate(rows):
            if len(row) != n:
                raise ValueError(
                    f"matrix is not square: row {i + 1} has {len(row)} entries, "
                    f"expected {n}"
                )
        object.__setattr__(self, "denominator", d)
        rows = tuple(tuple(ints[i:i + n]) for i in range(0, n * n, n))
        object.__setattr__(self, "integer_rows", rows)

    @property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        """The rows as ``Fraction`` values."""
        d = self.denominator
        return tuple(tuple(Fraction(x, d) for x in row) for row in self.integer_rows)

    @property
    def n(self) -> int:
        return len(self.integer_rows)

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls(tuple(int(i == j) for j in range(n)) for i in range(n))

    @classmethod
    def block_diagonal(cls, blocks: Sequence["RationalMatrix"]) -> "RationalMatrix":
        """Assemble square blocks along the diagonal, zeros elsewhere."""
        if not blocks:
            raise ValueError("need at least one block")
        n = sum(b.n for b in blocks)
        rows = [[0] * n for _ in range(n)]
        offset = 0
        for block in blocks:
            for i, row in enumerate(block.entries):
                rows[offset + i][offset:offset + block.n] = row
            offset += block.n
        return cls(rows)

    def __mul__(self, other) -> "RationalMatrix":
        if not isinstance(other, RationalMatrix) or self.n != other.n:
            return NotImplemented
        d = self.denominator * other.denominator
        cols = tuple(zip(*other.integer_rows))
        return RationalMatrix(
            [Fraction(sum(map(mul, row, col)), d) for col in cols]
            for row in self.integer_rows
        )

    def is_zero(self) -> bool:
        return not any(map(any, self.integer_rows))

    def inverse(self) -> "RationalMatrix":
        """Exact inverse by Cayley-Hamilton.

        Write det(xI - A) = x q(x) + c.  Then A q(A) = -cI, so A is
        singular exactly when c = 0 and otherwise A^-1 = -q(A) / c, in
        which the denominator of the polynomial cancels.  Raises
        ValueError on a singular matrix.
        """
        c, *q = char_poly(self).integer_coefficients
        if c == 0:
            raise ValueError("matrix is singular")
        return evaluate_at_matrix(_polynomial([-x for x in q], c), self)

    def __repr__(self) -> str:
        rows = ", ".join(
            "[" + ", ".join(str(x) for x in row) + "]" for row in self.entries
        )
        return f"RationalMatrix([{rows}])"


def evaluate_at_matrix(p: RationalPolynomial, a: RationalMatrix) -> RationalMatrix:
    """Evaluate p = P / D of degree m at A = B / d: column j is q(B) e_j
    with q_k = P_k d^(m-k), over D d^m."""
    n, d = a.n, a.denominator
    m = max(p.degree, 0)
    q = [c * d ** (m - k) for k, c in enumerate(p.integer_coefficients)]
    units = ([int(i == j) for i in range(n)] for j in range(n))
    cols = [_horner(q, a.integer_rows, e) for e in units]
    divisor = p.denominator * d**m
    return RationalMatrix([Fraction(x, divisor) for x in row] for row in zip(*cols))


# ---- integer polynomials ---------------------------------------------------
#
# Lists of ints indexed by degree, without trailing zeros; the zero
# polynomial is the empty list.


def _strip(p: list[int]) -> list[int]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _primitive(p: list[int]) -> list[int]:
    """p divided by its content, a positive number: signs are kept."""
    g = gcd(*p)
    return [c // g for c in p] if g > 1 else p


def _derivative(p: list[int]) -> list[int]:
    return [i * c for i, c in enumerate(p) if i]


def _mul(a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _divide(a: list[int], b: list[int]) -> tuple[int, list[int], list[int]]:
    """Pseudo-division (Knuth, TAOCP 2, 4.6.1) of integer polynomials:
    (s, q, r) with s a = q b + r, deg r < deg b and
    s = |lc(b)|^(deg a - deg b + 1), a positive number that makes every
    step of the long division of s a by b exact.  Raises
    ArithmeticError when a step does not divide exactly."""
    quotient = [0] * max(len(a) - len(b) + 1, 0)
    s = abs(b[-1]) ** len(quotient)
    r = [s * c for c in a]
    for shift in range(len(quotient) - 1, -1, -1):
        c = r[shift + len(b) - 1]
        if c:
            q, rest = divmod(c, b[-1])
            if rest:
                raise ArithmeticError("inexact integer polynomial division")
            quotient[shift] = q
            for i, x in enumerate(b):
                r[shift + i] -= q * x
    return s, _strip(quotient), _strip(r)


def _signed_prs(a: list[int], b: list[int]) -> list[list[int]]:
    """The signed primitive pseudo-remainder sequence a, b, r_2, r_3, ...

    Each r_(i+1) is the primitive part of the pseudo-remainder of
    r_(i-1) by r_i from ``_divide``, negated: s is positive, so r_(i+1)
    is a negative multiple of the true remainder.
    The sequence ends before the first zero remainder, so its last
    element is a multiple of gcd(a, b).  From f and f' it is a Sturm
    chain of f, squarefree or not.
    """
    sequence = [a]
    while b:
        sequence.append(b)
        a, b = b, [-c for c in _primitive(_divide(a, b)[2])]
    return sequence


def _real_root_count(sturm: list[list[int]]) -> int:
    """Distinct real roots of the first element of a Sturm chain: the
    drop in sign variations from -infinity to +infinity.  The sign of a
    polynomial at +-infinity is read off its leading coefficient and
    degree parity, so no root bounds are needed."""

    def variations(signs: list[int]) -> int:
        return sum(a != b for a, b in zip(signs, signs[1:]))

    at_pos = [1 if q[-1] > 0 else -1 for q in sturm]
    at_neg = [s if len(q) % 2 else -s for s, q in zip(at_pos, sturm)]
    return variations(at_neg) - variations(at_pos)


# ---- Krylov elimination ----------------------------------------------------


def _rescaled(q: list[int], d: int) -> RationalPolynomial:
    """The monic polynomial of A from an integer polynomial q of dA:
    q_k / (lc(q) d^(deg - k)) = q_k d^k / (lc(q) d^deg)."""
    return _polynomial([c * d**k for k, c in enumerate(q)], q[-1] * d ** (len(q) - 1))


class _Basis:
    """A column-wise fraction-free (Bareiss) elimination of independent
    integer vectors, ready to take one more.

    Rows are permuted by ``order`` so that the pivot of step j sits in
    row j.  ``columns[j]`` is the j-th vector entered, reduced by steps
    0..j-1: entries 0..j-1 were fixed by those steps, entry j is the
    pivot of step j and entries j+1.. are its multipliers on the rows
    still live at step j.
    """

    __slots__ = ("order", "columns")

    def __init__(self, n: int) -> None:
        self.order = list(range(n))
        self.columns: list[list[int]] = []


def _reduce(x: list[int], basis: _Basis) -> list[int]:
    """Pass a new column x through the Bareiss steps of ``basis``.

    Step j fixes the entry in its pivot row j and updates only the live
    rows j+1.., multiplying by the pivot p_j and dividing exactly by
    the previous pivot, so every entry stays a minor of the input
    vectors.  A zero entry in the pivot row leaves nothing to subtract,
    but the live rows are still rescaled by p_j / p_{j-1}.  Returns the
    reduced column: entries 0..k-1 fixed, k.. live, where k is the
    number of columns of ``basis``; x lies in their span exactly when
    the live entries are all zero.
    """
    c = [x[i] for i in basis.order]
    previous = 1
    for j, column in enumerate(basis.columns):
        p, f = column[j], c[j]
        if f:
            c[j + 1:] = [
                (p * y - f * m) // previous for y, m in zip(c[j + 1:], column[j + 1:])
            ]
        elif p != previous:
            c[j + 1:] = [p * y // previous for y in c[j + 1:]]
        previous = p
    return c


def _krylov(b: list[list[int]], v: list[int], basis: _Basis) -> list[int]:
    """Krylov elimination of v, Bv, B^2 v, ... modulo the span of ``basis``.

    Each vector continues the elimination of ``basis`` as a new column
    and, while independent, joins it as a new step with its pivot
    swapped into row k.  The first dependent vector B^k v has all live
    entries zero; back substitution through the fixed entries of the
    chain's columns gives its coefficients y_i on the chain vectors
    B^i v.  Returns q = x^k - sum_i y_i x^i, the least-degree monic q
    with q(B) v in span(basis), and leaves the chain in ``basis``.

    The back substitution divides exactly.  ``basis`` holds whole
    Krylov chains, so its span is B-invariant and q divides the minimal
    polynomial of the integer matrix B, which is monic in Z[x]; by
    Gauss's lemma the y_i are integers.
    """
    start = len(basis.columns)
    x = v
    while True:
        c = _reduce(x, basis)
        k = len(basis.columns)
        pivot = next((i for i in range(k, len(c)) if c[i]), None)
        if pivot is None:
            break
        basis.columns.append(c)
        if pivot != k:
            for column in basis.columns:
                column[k], column[pivot] = column[pivot], column[k]
            basis.order[k], basis.order[pivot] = basis.order[pivot], basis.order[k]
        x = [sum(map(mul, row, x)) for row in b]
    columns = basis.columns
    y = [0] * (k - start)
    for i in range(k - 1, start - 1, -1):
        rest = c[i] - sum(columns[j][i] * y[j - start] for j in range(i + 1, k))
        y[i - start] = rest // columns[i][i]
    return [-t for t in y] + [1]


def _horner(p: list[int], b: list[list[int]], v: list[int]) -> list[int]:
    """p(B) v for an integer polynomial p and integer matrix B, by
    Horner's rule: one matrix-vector product per coefficient."""
    acc = [0] * len(v)
    for c in reversed(p):
        acc = [sum(map(mul, row, acc)) + c * x for row, x in zip(b, v)]
    return acc


def _start_vectors(n: int) -> list[list[int]]:
    """(1, 2, ..., n), then e_1, ..., e_n.

    The unit vectors span the space, so the Krylov spaces of the list do
    too.  The dense first vector generates the whole space for most
    nonderogatory matrices, among them real Jordan forms, whose unit
    vectors lie in small invariant subspaces; then one Krylov chain
    decides the matrix.
    """
    units = [[int(i == j) for j in range(n)] for i in range(n)]
    return [list(range(1, n + 1))] + units


def _chains(a: RationalMatrix) -> Iterator[tuple[list[int], list[int]]]:
    """Krylov chains of the start vectors, each modulo the earlier ones.

    Yields (v, q) for each start vector v outside the span of the
    earlier chains, q being its polynomial modulo that span, and stops
    once the span is the whole space.
    """
    n = a.n
    basis = _Basis(n)
    for v in _start_vectors(n):
        before = len(basis.columns)
        q = _krylov(a.integer_rows, v, basis)
        if len(basis.columns) > before:
            yield v, q
        if len(basis.columns) == n:
            return


def char_poly(a: RationalMatrix) -> RationalPolynomial:
    """Characteristic polynomial det(xI - A), monic of degree n.

    Krylov chains from the start vectors, each reduced against the
    earlier ones, put A in block triangular form with companion blocks;
    the characteristic polynomial is the product of the chains' quotient
    polynomials (Keller-Gehrig).
    """
    poly = [1]
    for _, q in _chains(a):
        poly = _mul(poly, q)
    return _rescaled(poly, a.denominator)


def min_poly(a: RationalMatrix) -> RationalPolynomial:
    """Minimal polynomial: the monic annihilator of least degree.

    The lcm of the minimal polynomials of the start vectors.  A vector
    in the span of the earlier Krylov spaces is skipped: that span is
    A-invariant, so the vector's minimal polynomial already divides the
    lcm.  The first chain's polynomial is its vector's minimal
    polynomial.  For a later vector v and the lcm mu so far,
    lcm(mu, mu_v) = mu times the minimal polynomial of mu(A) v, so one
    Krylov chain of mu(A) v on its own covers the new part of the lcm;
    it ends at once when mu(A) v = 0.  The search ends once the degree
    reaches n, which certifies that A is nonderogatory, or once the
    Krylov spaces fill the whole space.
    """
    b = a.integer_rows
    mu = [1]
    for i, (v, q) in enumerate(_chains(a)):
        if i:
            q = _krylov(b, _horner(mu, b, v), _Basis(a.n))
        mu = _mul(mu, q)
        if len(mu) > a.n:
            break
    return _rescaled(mu, a.denominator)


def squarefree_root_counts(p: RationalPolynomial) -> tuple[tuple[int, int, int], ...]:
    """(multiplicity, degree, distinct real roots) of each squarefree
    factor of p, by increasing multiplicity.

    Walks the gcd tower g_0 = f, the primitive integer multiple of p,
    and g_(i+1) = gcd(g_i, g_i'), the last element of the signed
    pseudo-remainder sequence of g_i and g_i'.  That sequence is a
    Sturm chain of g_i, squarefree or not, so level i gives the
    distinct roots deg g_i - deg g_(i+1) and the distinct real roots of
    g_i: those of multiplicity above i.  The factor of multiplicity m is
    level m-1 minus level m, and a level with no drop has none.  A
    squarefree f costs one sequence.  Rejects constant and zero
    polynomials.
    """
    if p.degree < 1:
        raise ValueError(f"needs a nonconstant polynomial, got {p}")
    levels = []
    g = _primitive(list(p.integer_coefficients))
    while len(g) > 1:
        sequence = _signed_prs(g, _derivative(g))
        g = sequence[-1]
        levels.append((len(sequence[0]) - len(g), _real_root_count(sequence)))
    levels.append((0, 0))
    return tuple(
        (m, roots - deeper_roots, real - deeper_real)
        for m, ((roots, real), (deeper_roots, deeper_real)) in enumerate(
            zip(levels, levels[1:]), 1
        )
        if roots > deeper_roots
    )


def count_real_roots(p: RationalPolynomial) -> int:
    """Number of distinct real roots of a squarefree polynomial: the one
    factor of ``squarefree_root_counts``.  Rejects input that is not
    squarefree, and constant and zero polynomials."""
    (m, _, roots), *rest = squarefree_root_counts(p)
    if m > 1 or rest:
        raise ValueError("polynomial is not squarefree; decompose it first")
    return roots
