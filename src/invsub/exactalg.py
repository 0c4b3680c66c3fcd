"""Exact rational polynomial and matrix algebra.

The public types hold ``fractions.Fraction`` values: deciding whether a
matrix keeps finitely many invariant subspaces hinges on exact
eigenvalue collisions, which floating point cannot witness.  Floats are
rejected at the boundary rather than converted.

The four public operations run on plain Python ints after one change of
scale at the boundary.  A matrix A is multiplied by the lcm d of its
denominators, and a polynomial of dA rescales to the one of A
coefficient by coefficient: c_k(A) = c_k(dA) / d^(deg - k).  A
polynomial is cleared to a primitive integer polynomial the same way.

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
  primitive pseudo-remainder sequence and exact integer division.
* ``count_real_roots``: a Sturm chain of primitive pseudo-remainders,
  each scaled by a positive factor so that signs are kept, read at
  +-infinity.

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
    """Square matrix of exact rationals.

    Rows are stored as a tuple of tuples of ``Fraction``; instances are
    immutable.  Entries given as ints or strings like ``"3/4"`` are
    coerced, floats are rejected.
    """

    __slots__ = ("entries",)

    def __init__(self, rows: Iterable[Iterable]) -> None:
        entries = tuple(tuple(_to_fraction(x) for x in row) for row in rows)
        if not entries:
            raise ValueError("matrix must have at least one row")
        n = len(entries)
        for i, row in enumerate(entries):
            if len(row) != n:
                raise ValueError(
                    f"row {i + 1} has {len(row)} entries, expected {n}"
                )
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def n(self) -> int:
        return len(self.entries)

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls(
            tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)
        )

    @classmethod
    def block_diagonal(cls, blocks: Sequence["RationalMatrix"]) -> "RationalMatrix":
        """Assemble square blocks along the diagonal, zeros elsewhere."""
        if not blocks:
            raise ValueError("need at least one block")
        n = sum(b.n for b in blocks)
        rows = [[Fraction(0)] * n for _ in range(n)]
        offset = 0
        for block in blocks:
            for i, row in enumerate(block.entries):
                rows[offset + i][offset:offset + block.n] = row
            offset += block.n
        return cls(rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __add__(self, other) -> "RationalMatrix":
        if not isinstance(other, RationalMatrix) or self.n != other.n:
            return NotImplemented
        return RationalMatrix(
            tuple(x + y for x, y in zip(r, s))
            for r, s in zip(self.entries, other.entries)
        )

    def __sub__(self, other) -> "RationalMatrix":
        if not isinstance(other, RationalMatrix) or self.n != other.n:
            return NotImplemented
        return RationalMatrix(
            tuple(x - y for x, y in zip(r, s))
            for r, s in zip(self.entries, other.entries)
        )

    def __mul__(self, other) -> "RationalMatrix":
        if not isinstance(other, RationalMatrix) or self.n != other.n:
            return NotImplemented
        cols = tuple(zip(*other.entries))
        return RationalMatrix(
            tuple(sum(x * y for x, y in zip(row, col)) for col in cols)
            for row in self.entries
        )

    def scaled(self, factor) -> "RationalMatrix":
        c = _to_fraction(factor)
        return RationalMatrix(tuple(c * x for x in row) for row in self.entries)

    def trace(self) -> Fraction:
        return sum(row[i] for i, row in enumerate(self.entries))

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.entries for x in row)

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


def _gcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd with a positive leading coefficient, by the
    primitive pseudo-remainder sequence; zero if both inputs are zero."""
    a, b = _primitive(a), _primitive(b)
    while b:
        a, b = b, _primitive(_prem(a, b))
    return [-c for c in a] if a and a[-1] < 0 else a


# ---- Krylov elimination ----------------------------------------------------


def _integer_matrix(a: RationalMatrix) -> tuple[int, list[list[int]]]:
    """(d, dA) with d the lcm of the entry denominators of A."""
    d = lcm(*(x.denominator for row in a.entries for x in row))
    return d, [[x.numerator * (d // x.denominator) for x in row] for row in a.entries]


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
    d, b = _integer_matrix(a)
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
    d, b = _integer_matrix(a)
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
    g = _gcd(f, df)
    b = _divexact(f, g)
    d = _sub(_divexact(df, g), _derivative(b))
    factors = []
    multiplicity = 1
    while len(b) > 1:
        a = _gcd(b, d)
        if len(a) > 1:
            factors.append((_monic(a), multiplicity))
        b = _divexact(b, a)
        d = _sub(_divexact(d, a), _derivative(b))
        multiplicity += 1
    return SquarefreeDecomposition(p.leading_coefficient(), tuple(factors))


def count_real_roots(p: RationalPolynomial) -> int:
    """Number of distinct real roots of a squarefree polynomial.

    Builds the Sturm chain p, p', -rem(...), ... from primitive integer
    pseudo-remainders, each a positive multiple of the true remainder,
    and returns the drop in sign variations from -infinity to +infinity,
    where the sign of a polynomial at +-infinity is read off its leading
    coefficient and degree parity (no root bounds needed).  The last
    chain element is gcd(p, p'), so a nonconstant one rejects input that
    is not squarefree.
    """
    if p.degree < 1:
        raise ValueError("real-root counting needs a nonconstant polynomial")
    f = _integer_poly(p)
    chain = [f, _derivative(f)]
    while True:
        remainder = _primitive(_prem(chain[-2], chain[-1]))
        if not remainder:
            break
        chain.append([-c for c in remainder])
    if len(chain[-1]) > 1:
        raise ValueError("polynomial is not squarefree; decompose it first")

    def variations(signs: list[int]) -> int:
        return sum(a != b for a, b in zip(signs, signs[1:]))

    at_pos = [1 if q[-1] > 0 else -1 for q in chain]
    at_neg = [s if len(q) % 2 else -s for s, q in zip(at_pos, chain)]
    return variations(at_neg) - variations(at_pos)
