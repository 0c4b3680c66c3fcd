"""Exact rational polynomial and matrix algebra.

Deciding whether a matrix keeps finitely many invariant subspaces hinges
on exact eigenvalue collisions, which floating point cannot witness, so
everything here is exact and floats are rejected at the boundary rather
than converted.  ``RationalPolynomial`` holds ``fractions.Fraction``
coefficients.  ``RationalMatrix`` holds a matrix A as the lcm d of its
entry denominators and the integer rows of dA; its ``entries`` are
built as ``Fraction`` values on demand.

The operations below run on plain Python ints.  A polynomial of dA
rescales to the one of A coefficient by coefficient:
c_k(A) = c_k(dA) / d^(deg - k).  A rational polynomial is cleared to a
primitive integer polynomial the same way.

Krylov chains v, Av, A^2 v, ... run through one column-wise
fraction-free (Bareiss) elimination: each vector enters as a new column,
passes through the earlier elimination steps and becomes a step of its
own while it is independent.  Back substitution through the fixed
entries of the chain's columns turns the first dependent vector into
the chain's monic integer polynomial.

* ``min_poly``: the lcm of the minimal polynomials of the start vectors
  (1, 2, ..., n), e_1, ..., e_n, each from the Krylov chain of the
  vector on its own.  A vector inside the span of the earlier Krylov
  spaces is skipped (that span is A-invariant, so its minimal
  polynomial already divides the lcm), and the search stops as soon as
  the degree reaches n.
* ``char_poly``: the product of the polynomials of successive Krylov
  chains, each chain continuing the elimination of the earlier ones, so
  that it yields the quotient polynomial modulo their span
  (Keller-Gehrig).
* ``squarefree_decompose``: Yun's algorithm, with gcds taken by the
  signed pseudo-remainder sequence and exact integer division.
* ``count_real_roots``: the sign variations at +-infinity of the signed
  pseudo-remainder sequence of f and f', a Sturm chain.
* ``squarefree_root_counts``: both at once from one such sequence; Yun's
  loop continues from its gcd only when f is not squarefree.

One routine, ``_signed_prs``, runs every pseudo-remainder sequence.

``tests/_oracles.py`` holds independent routes that the tests compare
against: cofactor expansion and the Faddeev-LeVerrier recurrence for
the characteristic polynomial, and the first dependence among flattened
matrix powers for the minimal polynomial.
"""

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul


def _to_fraction(value) -> Fraction:
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise TypeError(
            f"refusing float {value!r}: exact rational input required"
        )
    return Fraction(value)


class RationalPolynomial:
    """Dense polynomial with exact rational coefficients.

    Coefficients are indexed by degree and trailing zeros are stripped;
    the zero polynomial has an empty coefficient tuple and degree -1.
    Instances are immutable and hashable.
    """

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: Iterable) -> None:
        coeffs = [_to_fraction(c) for c in coefficients]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coefficients", tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def zero(cls) -> "RationalPolynomial":
        return cls(())

    @classmethod
    def one(cls) -> "RationalPolynomial":
        return cls((1,))

    @classmethod
    def x(cls) -> "RationalPolynomial":
        return cls((0, 1))

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def is_zero(self) -> bool:
        return not self.coefficients

    def leading_coefficient(self) -> Fraction:
        if self.is_zero():
            raise ValueError("the zero polynomial has no leading coefficient")
        return self.coefficients[-1]

    def is_monic(self) -> bool:
        return not self.is_zero() and self.coefficients[-1] == 1

    def monic(self) -> "RationalPolynomial":
        lc = self.leading_coefficient()
        return RationalPolynomial(c / lc for c in self.coefficients)

    def derivative(self) -> "RationalPolynomial":
        return RationalPolynomial(
            i * c for i, c in enumerate(self.coefficients) if i > 0
        )

    def __call__(self, value) -> Fraction:
        """Evaluate at a rational point by Horner's rule."""
        x = _to_fraction(value)
        acc = Fraction(0)
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalPolynomial):
            return NotImplemented
        return self.coefficients == other.coefficients

    def __hash__(self) -> int:
        return hash(self.coefficients)

    def __neg__(self) -> "RationalPolynomial":
        return RationalPolynomial(-c for c in self.coefficients)

    def __add__(self, other) -> "RationalPolynomial":
        if not isinstance(other, RationalPolynomial):
            return NotImplemented
        a, b = self.coefficients, other.coefficients
        if len(a) < len(b):
            a, b = b, a
        return RationalPolynomial(
            [x + y for x, y in zip(a, b)] + list(a[len(b):])
        )

    def __sub__(self, other) -> "RationalPolynomial":
        if not isinstance(other, RationalPolynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "RationalPolynomial":
        if isinstance(other, (int, Fraction)):
            return RationalPolynomial(c * other for c in self.coefficients)
        if not isinstance(other, RationalPolynomial):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return RationalPolynomial.zero()
        out = [Fraction(0)] * (len(self.coefficients) + len(other.coefficients) - 1)
        for i, x in enumerate(self.coefficients):
            for j, y in enumerate(other.coefficients):
                out[i + j] += x * y
        return RationalPolynomial(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "RationalPolynomial":
        if exponent < 0:
            raise ValueError("negative powers are not polynomials")
        result = RationalPolynomial.one()
        for _ in range(exponent):
            result = result * self
        return result

    def __divmod__(self, other) -> tuple["RationalPolynomial", "RationalPolynomial"]:
        if not isinstance(other, RationalPolynomial):
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        quotient = [Fraction(0)] * max(len(self.coefficients) - other.degree, 0)
        remainder = list(self.coefficients)
        lc = other.leading_coefficient()
        for shift in range(len(remainder) - other.degree - 1, -1, -1):
            factor = remainder[shift + other.degree] / lc
            if factor == 0:
                continue
            quotient[shift] = factor
            for i, c in enumerate(other.coefficients):
                remainder[shift + i] -= factor * c
        return RationalPolynomial(quotient), RationalPolynomial(remainder)

    def __floordiv__(self, other) -> "RationalPolynomial":
        return divmod(self, other)[0]

    def __mod__(self, other) -> "RationalPolynomial":
        return divmod(self, other)[1]

    def gcd(self, other: "RationalPolynomial") -> "RationalPolynomial":
        """Monic greatest common divisor (zero if both inputs are zero)."""
        g = _gcd(_integer_poly(self), _integer_poly(other))
        return _monic(g) if g else RationalPolynomial.zero()

    def __repr__(self) -> str:
        return f"RationalPolynomial({self})"

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        terms = []
        for power in range(self.degree, -1, -1):
            c = self.coefficients[power]
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


class RationalMatrix:
    """Square matrix of exact rationals, stored as integers.

    A matrix A is kept as its ``denominator`` d, the lcm of the reduced
    denominators of its entries, and ``integer_rows``, the rows of the
    integer matrix dA.  This form is canonical, so equality and hashing
    compare it directly; ``entries`` builds the ``Fraction`` rows on
    demand.  Instances are immutable.  Entries given as ints are taken
    as they are, strings like ``"3/4"`` and other rationals are coerced,
    floats are rejected.
    """

    __slots__ = ("denominator", "integer_rows")

    def __init__(self, rows: Iterable[Iterable]) -> None:
        entries = [
            [x if type(x) is int else _to_fraction(x) for x in row] for row in rows
        ]
        if not entries:
            raise ValueError("matrix must have at least one row")
        n = len(entries)
        for i, row in enumerate(entries):
            if len(row) != n:
                raise ValueError(
                    f"row {i + 1} has {len(row)} entries, expected {n}"
                )
        d = lcm(*(x.denominator for row in entries for x in row))
        object.__setattr__(self, "denominator", d)
        object.__setattr__(
            self,
            "integer_rows",
            tuple(
                tuple(x.numerator * (d // x.denominator) for x in row)
                for row in entries
            ),
        )

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

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

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return (
            self.denominator == other.denominator
            and self.integer_rows == other.integer_rows
        )

    def __hash__(self) -> int:
        return hash((self.denominator, self.integer_rows))

    @classmethod
    def _from_integers(cls, d: int, rows: Iterable[Iterable[int]]) -> "RationalMatrix":
        """The matrix with integer rows ``rows`` divided by d > 0, brought
        to lowest terms."""
        rows = [list(row) for row in rows]
        g = gcd(d, *(x for row in rows for x in row))
        matrix = object.__new__(cls)
        object.__setattr__(matrix, "denominator", d // g)
        object.__setattr__(
            matrix, "integer_rows", tuple(tuple(x // g for x in row) for row in rows)
        )
        return matrix

    def __add__(self, other) -> "RationalMatrix":
        if not isinstance(other, RationalMatrix) or self.n != other.n:
            return NotImplemented
        d = lcm(self.denominator, other.denominator)
        s, t = d // self.denominator, d // other.denominator
        return RationalMatrix._from_integers(
            d,
            (
                [s * x + t * y for x, y in zip(r, q)]
                for r, q in zip(self.integer_rows, other.integer_rows)
            ),
        )

    def __sub__(self, other) -> "RationalMatrix":
        if not isinstance(other, RationalMatrix) or self.n != other.n:
            return NotImplemented
        return self + other.scaled(-1)

    def __mul__(self, other) -> "RationalMatrix":
        if not isinstance(other, RationalMatrix) or self.n != other.n:
            return NotImplemented
        cols = tuple(zip(*other.integer_rows))
        return RationalMatrix._from_integers(
            self.denominator * other.denominator,
            ([sum(map(mul, row, col)) for col in cols] for row in self.integer_rows),
        )

    def scaled(self, factor) -> "RationalMatrix":
        c = _to_fraction(factor)
        return RationalMatrix._from_integers(
            self.denominator * c.denominator,
            ([c.numerator * x for x in row] for row in self.integer_rows),
        )

    def trace(self) -> Fraction:
        diagonal = (row[i] for i, row in enumerate(self.integer_rows))
        return Fraction(sum(diagonal), self.denominator)

    def is_zero(self) -> bool:
        return not any(map(any, self.integer_rows))

    def inverse(self) -> "RationalMatrix":
        """Exact inverse by Gauss-Jordan elimination.

        Raises ValueError on a singular matrix.
        """
        n = self.n
        aug = [
            list(row) + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(self.entries)
        ]
        for col in range(n):
            pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
            if pivot is None:
                raise ValueError("matrix is singular")
            aug[col], aug[pivot] = aug[pivot], aug[col]
            scale = aug[col][col]
            aug[col] = [x / scale for x in aug[col]]
            for r in range(n):
                if r != col and aug[r][col] != 0:
                    c = aug[r][col]
                    aug[r] = [x - c * y for x, y in zip(aug[r], aug[col])]
        return RationalMatrix(tuple(row[n:]) for row in aug)

    def __repr__(self) -> str:
        rows = ", ".join(
            "[" + ", ".join(str(x) for x in row) + "]" for row in self.entries
        )
        return f"RationalMatrix([{rows}])"


def evaluate_at_matrix(p: RationalPolynomial, a: RationalMatrix) -> RationalMatrix:
    """Evaluate the polynomial at a square matrix (Horner's rule)."""
    acc = RationalMatrix.identity(a.n).scaled(0)
    for c in reversed(p.coefficients):
        acc = acc * a + RationalMatrix.identity(a.n).scaled(c)
    return acc


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


def _integer_poly(p: RationalPolynomial) -> list[int]:
    """The primitive integer polynomial that is a positive multiple of p."""
    d = lcm(*(c.denominator for c in p.coefficients))
    return _primitive([c.numerator * (d // c.denominator) for c in p.coefficients])


def _monic(p: list[int]) -> RationalPolynomial:
    return RationalPolynomial(Fraction(c, p[-1]) for c in p)


def _derivative(p: list[int]) -> list[int]:
    return [i * c for i, c in enumerate(p) if i]


def _sub(a: list[int], b: list[int]) -> list[int]:
    if len(a) < len(b):
        a = a + [0] * (len(b) - len(a))
    return _strip([x - y for x, y in zip(a, b)] + a[len(b):])


def _mul(a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _prem(a: list[int], b: list[int]) -> list[int]:
    """A positive multiple of the remainder of a by b (b nonzero).

    Each step multiplies the running remainder by |lc(b)| before
    subtracting a multiple of b, so no step divides and none flips a
    sign.
    """
    r = list(a)
    scale = abs(b[-1])
    sign = 1 if b[-1] > 0 else -1
    while len(r) >= len(b):
        shift = len(r) - len(b)
        factor = sign * r[-1]
        r = [scale * c for c in r]
        for i, c in enumerate(b):
            r[shift + i] -= factor * c
        r.pop()  # the leading term cancels exactly
        _strip(r)
    return r


def _divexact(a: list[int], b: list[int]) -> list[int]:
    """a / b for integer polynomials when b divides a over the integers."""
    quotient = [0] * max(len(a) - len(b) + 1, 0)
    r = list(a)
    for shift in range(len(quotient) - 1, -1, -1):
        c = r[shift + len(b) - 1]
        if c:
            q, rest = divmod(c, b[-1])
            if rest:
                raise ArithmeticError("inexact integer polynomial division")
            quotient[shift] = q
            for i, x in enumerate(b):
                r[shift + i] -= q * x
    return _strip(quotient)


def _signed_prs(a: list[int], b: list[int]) -> list[list[int]]:
    """The signed primitive pseudo-remainder sequence a, b, r_2, r_3, ...

    Each r_(i+1) is the primitive part of the pseudo-remainder of
    r_(i-1) by r_i, negated: a negative multiple of the true remainder.
    The sequence ends before the first zero remainder, so its last
    element is a multiple of gcd(a, b).  From a squarefree f and f' it
    is a Sturm chain of f.
    """
    sequence = [a]
    while b:
        sequence.append(b)
        a, b = b, [-c for c in _primitive(_prem(a, b))]
    return sequence


def _normalized(p: list[int]) -> list[int]:
    """The primitive part of p with a positive leading coefficient."""
    p = _primitive(p)
    return [-c for c in p] if p and p[-1] < 0 else p


def _gcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd with a positive leading coefficient, by the signed
    pseudo-remainder sequence; zero if both inputs are zero."""
    return _normalized(_signed_prs(_primitive(a), _primitive(b))[-1])


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


def _yun(f: list[int], df: list[int], g: list[int]) -> list[tuple[list[int], int]]:
    """Yun's squarefree factors of f, given f' and g = gcd(f, f').

    Returns (factor, multiplicity) pairs with primitive factors of
    positive leading coefficient and strictly increasing
    multiplicities; every gcd is primitive and every division exact.
    """
    b = _divexact(f, g)
    d = _sub(_divexact(df, g), _derivative(b))
    factors = []
    multiplicity = 1
    while len(b) > 1:
        a = _gcd(b, d)
        if len(a) > 1:
            factors.append((a, multiplicity))
        b = _divexact(b, a)
        d = _sub(_divexact(d, a), _derivative(b))
        multiplicity += 1
    return factors


# ---- Krylov elimination ----------------------------------------------------


def _rescaled(q: list[int], d: int) -> RationalPolynomial:
    """The monic polynomial of A from an integer polynomial q of dA."""
    degree = len(q) - 1
    return RationalPolynomial(
        Fraction(c, q[-1] * d ** (degree - k)) for k, c in enumerate(q)
    )


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


def char_poly(a: RationalMatrix) -> RationalPolynomial:
    """Characteristic polynomial det(xI - A), monic of degree n.

    Krylov chains from the start vectors, each reduced against the
    earlier ones, put A in block triangular form with companion blocks;
    the characteristic polynomial is the product of the chains' quotient
    polynomials (Keller-Gehrig).
    """
    n = a.n
    d, b = a.denominator, a.integer_rows
    poly = [1]
    basis = _Basis(n)
    for v in _start_vectors(n):
        if len(basis.columns) == n:
            break
        poly = _mul(poly, _krylov(b, v, basis))
    return _rescaled(poly, d)


def min_poly(a: RationalMatrix) -> RationalPolynomial:
    """Minimal polynomial: the monic annihilator of least degree.

    The lcm of the minimal polynomials of the start vectors.  A vector
    in the span of the earlier Krylov spaces is skipped: that span is
    A-invariant, so the vector's minimal polynomial already divides the
    lcm.  The search ends once the degree reaches n, which certifies
    that A is nonderogatory, or once the Krylov spaces fill the whole
    space.
    """
    n = a.n
    d, b = a.denominator, a.integer_rows
    mu = [1]
    span = _Basis(n)
    for v in _start_vectors(n):
        before = len(span.columns)
        q = _krylov(b, v, span)
        if len(span.columns) == before:
            continue
        if before:
            # q is only the part of v's minimal polynomial outside span
            q = _krylov(b, v, _Basis(n))
        mu = _mul(mu, _divexact(q, _gcd(mu, q)))
        if len(mu) > n or len(span.columns) == n:
            break
    return _rescaled(mu, d)


@dataclass(frozen=True)
class SquarefreeDecomposition:
    """Factorization p = constant * prod g_i^(m_i) with the g_i monic,
    squarefree, pairwise coprime and nonconstant."""

    constant: Fraction
    factors: tuple[tuple[RationalPolynomial, int], ...]

    def __post_init__(self) -> None:
        for g, multiplicity in self.factors:
            if g.degree < 1:
                raise ValueError(f"constant factor in decomposition: {g}")
            if multiplicity < 1:
                raise ValueError(f"invalid multiplicity {multiplicity}")

    def reconstruct(self) -> RationalPolynomial:
        """Multiply the decomposition back out (exact)."""
        result = RationalPolynomial((self.constant,))
        for g, multiplicity in self.factors:
            result = result * g**multiplicity
        return result


def squarefree_decompose(p: RationalPolynomial) -> SquarefreeDecomposition:
    """Squarefree decomposition by Yun's algorithm.

    Runs on the primitive integer multiple of p; every gcd is primitive
    and every division exact.  Multiplicities come out strictly
    increasing.  Rejects constant and zero polynomials.
    """
    if p.degree < 1:
        raise ValueError("squarefree decomposition needs degree >= 1")
    f = _integer_poly(p)
    df = _derivative(f)
    factors = _yun(f, df, _gcd(f, df))
    return SquarefreeDecomposition(
        p.leading_coefficient(), tuple((_monic(a), m) for a, m in factors)
    )


def count_real_roots(p: RationalPolynomial) -> int:
    """Number of distinct real roots of a squarefree polynomial.

    Reads the sign variations of the signed pseudo-remainder sequence of
    the primitive integer multiple f of p and f', which is a Sturm
    chain of f.  The last chain element is gcd(f, f'), so a nonconstant
    one rejects input that is not squarefree.
    """
    if p.degree < 1:
        raise ValueError("real-root counting needs a nonconstant polynomial")
    f = _integer_poly(p)
    sturm = _signed_prs(f, _derivative(f))
    if len(sturm[-1]) > 1:
        raise ValueError("polynomial is not squarefree; decompose it first")
    return _real_root_count(sturm)


def squarefree_root_counts(p: RationalPolynomial) -> tuple[tuple[int, int, int], ...]:
    """(multiplicity, degree, distinct real roots) of each squarefree
    factor of p, by increasing multiplicity.

    One signed pseudo-remainder sequence of f and f', f the primitive
    integer multiple of p, answers both questions when it ends in a
    constant: f is squarefree and the sequence is its Sturm chain.
    Otherwise its last element is gcd(f, f'), from which Yun's loop
    continues, and each factor gets a Sturm chain of its own.  Rejects
    constant and zero polynomials.
    """
    if p.degree < 1:
        raise ValueError("root counting needs a nonconstant polynomial")
    f = _integer_poly(p)
    df = _derivative(f)
    sequence = _signed_prs(f, df)
    if len(sequence[-1]) == 1:
        return ((1, p.degree, _real_root_count(sequence)),)
    return tuple(
        (m, len(g) - 1, _real_root_count(_signed_prs(g, _derivative(g))))
        for g, m in _yun(f, df, _normalized(sequence[-1]))
    )
