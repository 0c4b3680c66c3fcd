"""Exact rational polynomial and matrix algebra.

Deciding whether a matrix keeps finitely many invariant subspaces hinges
on exact eigenvalue collisions, which floating point cannot witness, so
everything here is exact and floats are rejected at the boundary rather
than converted.  ``RationalMatrix`` and ``RationalPolynomial`` store a
value v in one integer form, made by ``_integer_form``: the lcm d of
its reduced denominators and the integers dv, the rows of dA or the
coefficients of dp.  ``entries`` and ``coefficients`` build
``Fraction`` values on demand, and ``fractions`` (with ``decimal`` and
``numbers``) loads only where such a value crosses the API: there, in
``_integer_form`` for a value that is not an int, in ``_polynomial``
for d other than 1, in ``RationalMatrix.__mul__`` and in
``evaluate_at_matrix``; an integer matrix and its minimal polynomial
build none.  The operations run on plain Python ints; a polynomial of
dA rescales to the one of A coefficient by coefficient,
c_k(A) = c_k(dA) / d^(deg - k).

Each operation has one implementation:

* Polynomials: ``_mul``, ``_derivative`` and ``_divide``, the one
  pseudo-division, shared by ``divmod`` and the remainder sequence
  that ``_sturm`` walks; one helper, ``_polynomial``, builds every
  result, and ``_rescaled`` turns an integer polynomial of dA into the
  monic one of A.  The value types carry only the arithmetic that the
  library's two questions and their checks use: ``divmod`` and ``%``
  of polynomials, and ``*``, ``inverse`` and ``identity`` of matrices.
* Krylov chains v, Bv, B^2 v, ... of B = dA run through one
  elimination modulo a prime p < 2^30, ``_Elimination``: an LU of the
  vectors entered so far, built one vector at a time, in which each row
  of a vector is reduced once, by one sum of products mod p.
  ``_krylov`` enters a chain until a vector depends on the earlier ones.
  The primes come from ``_primes``, in a fixed order.
* ``_span`` is the one walk over the start vectors, two fixed dense
  vectors with entries in 1..4096 and then e_1, ..., e_n: their chains
  enter one such elimination, each after the earlier ones, until it is
  full.  The first dense chain alone fills it for almost every
  nonderogatory matrix, and the unit vectors guarantee that it fills.
  ``char_poly`` walks it mod p and multiplies the chains' quotient
  polynomials (Keller-Gehrig over F_p), combining primes by the CRT up
  to a Hadamard bound.  ``min_poly`` walks it exactly and takes the lcm
  of the minimal polynomials of the start vectors: the first chain's
  from the walk's own LU, and after it a vector v extends the lcm mu
  by the chain of mu(A) v, on an elimination of its own.
  ``_lifted`` lifts each chain's polynomial from its LU mod p to Z
  p-adically (Dixon) and accepts it only on an exact zero residual, so
  the answer is certified; a prime that fails restarts the search with
  the next one.
* ``_horner`` is the one Horner loop: ``min_poly`` applies it to a
  vector and ``evaluate_at_matrix`` to each unit vector.
  ``RationalMatrix.inverse`` has no elimination of its own: writing
  the minimal polynomial mu(x) = x q(x) + c, mu(A) = 0 gives
  A^-1 = -q(A) / c.
* One core, ``squarefree_root_counts``, walks the gcd tower g_0 = f,
  g_(i+1) = gcd(g_i, g_i'): the signed pseudo-remainder sequence of g_i
  and g_i' is a Sturm chain of g_i that counts its distinct real roots
  and ends in g_(i+1), so one sequence per multiplicity level gives
  every factor's degree and real roots.  ``count_real_roots`` is a view
  of it.  ``_sturm`` is the one remainder sequence: it counts sign
  variations as it walks the chain and keeps only the last element.

``tests/_oracles.py`` holds independent routes that the tests compare
against: cofactor expansion and the Faddeev-LeVerrier recurrence for
the characteristic polynomial, the first dependence among flattened
matrix powers for the minimal polynomial, a fraction-free (Bareiss)
Krylov elimination over Z for both, and Euclid's gcd with Yun's loop
over Q for the squarefree factors.  They run on ``Fraction`` rows,
integer lists and coefficient lists of their own, so none of them
shares this module's arithmetic.
"""

from collections.abc import Callable, Iterable, Iterator, Sequence
from itertools import chain
from math import gcd, isqrt, lcm, prod
from operator import mul

from . import FrozenValue


def _integer_form(values: Iterable) -> tuple[int, list[int]]:
    """(d, [d v for v in values]) with d the lcm of the reduced
    denominators.  Ints and Fractions are taken as they are, strings
    like ``"3/4"`` and other rationals are coerced, floats are rejected.
    Values that are all plain ints (not bools) are their own form, d = 1;
    any other value loads ``fractions``."""
    values = list(values)
    if set(map(type, values)) <= {int}:
        return 1, values
    from fractions import Fraction
    xs = []
    for x in values:
        if type(x) is not int and type(x) is not Fraction:
            if isinstance(x, float):
                raise TypeError(f"refusing float {x!r}: exact rational input required")
            x = Fraction(x)
        xs.append(x)
    d = lcm(*(x.denominator for x in xs))
    return d, [x.numerator * (d // x.denominator) for x in xs]


class RationalPolynomial(FrozenValue):
    """Dense polynomial with exact rational coefficients, stored as integers.

    A polynomial p is kept as ``RationalMatrix`` keeps a matrix: its
    ``denominator`` d and ``integer_coefficients``, those of dp by
    degree without trailing zeros (none for the zero polynomial, of
    degree -1).  Like the package's other frozen value types on one
    base, it compares, hashes, pickles and copies by its fields, this
    canonical form; the constructor takes the coefficients themselves.
    ``coefficients`` builds ``Fraction`` values on demand.
    """

    denominator: int
    integer_coefficients: tuple[int, ...]
    __match_args__ = ("denominator", "integer_coefficients")

    def __init__(self, coefficients: Iterable) -> None:
        d, ints = _integer_form(coefficients)
        object.__setattr__(self, "denominator", d)
        object.__setattr__(self, "integer_coefficients", tuple(_strip(ints)))

    @property
    def coefficients(self) -> "tuple[Fraction, ...]":
        """The coefficients as ``Fraction`` values, indexed by degree;
        this loads ``fractions``."""
        from fractions import Fraction
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
    if d == 1:
        return RationalPolynomial(p)
    from fractions import Fraction
    return RationalPolynomial(Fraction(c, d) for c in p)


class RationalMatrix(FrozenValue):
    """Square matrix of exact rationals, stored as integers.

    A matrix A is kept as its ``denominator`` d, the lcm of the reduced
    denominators of its entries, and ``integer_rows``, the rows of the
    integer matrix dA.  Like the package's other frozen value types on
    one base, it compares, hashes, pickles and copies by its fields,
    this canonical form; the constructor takes the rows themselves.
    ``entries`` builds the ``Fraction`` rows on demand.  Entries are
    read by ``_integer_form``, which rejects floats.
    """

    denominator: int
    integer_rows: tuple[tuple[int, ...], ...]
    __match_args__ = ("denominator", "integer_rows")

    def __init__(self, rows: Iterable[Iterable]) -> None:
        rows = [list(row) for row in rows]
        d, ints = _integer_form(chain.from_iterable(rows))
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
    def entries(self) -> "tuple[tuple[Fraction, ...], ...]":
        """The rows as ``Fraction`` values; this loads ``fractions``."""
        from fractions import Fraction
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
            for i, row in enumerate(block.integer_rows if block.denominator == 1 else block.entries):
                rows[offset + i][offset:offset + block.n] = row
            offset += block.n
        return cls(rows)

    def __mul__(self, other) -> "RationalMatrix":
        if not isinstance(other, RationalMatrix) or self.n != other.n:
            return NotImplemented
        from fractions import Fraction
        d = self.denominator * other.denominator
        cols = tuple(zip(*other.integer_rows))
        return RationalMatrix(
            [Fraction(sum(map(mul, row, col)), d) for col in cols]
            for row in self.integer_rows
        )

    def is_zero(self) -> bool:
        return not any(map(any, self.integer_rows))

    def inverse(self) -> "RationalMatrix":
        """Exact inverse from the minimal polynomial.

        Write mu(x) = x q(x) + c.  Then A q(A) = -cI, as mu(A) = 0, and
        mu(0) = 0 exactly when 0 is an eigenvalue, so A is singular
        exactly when c = 0 and otherwise A^-1 = -q(A) / c, in which the
        denominator of the polynomial cancels.  Raises ValueError on a
        singular matrix.
        """
        c, *q = min_poly(self).integer_coefficients
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
    from fractions import Fraction
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
    step of the long division of s a by b exact: before the step that
    takes the quotient term of x^k, the working remainder is still a
    multiple of |lc(b)|^(k + 1)."""
    quotient = [0] * max(len(a) - len(b) + 1, 0)
    s = abs(b[-1]) ** len(quotient)
    r = [s * c for c in a]
    for shift in range(len(quotient) - 1, -1, -1):
        c = r[shift + len(b) - 1]
        if c:
            q = c // b[-1]
            quotient[shift] = q
            for i, x in enumerate(b):
                r[shift + i] -= q * x
    return s, _strip(quotient), _strip(r)


def _sturm(f: list[int]) -> tuple[list[int], int]:
    """Walk the signed primitive pseudo-remainder sequence f, f', r_2,
    r_3, ... and return its last element, a multiple of gcd(f, f'), and
    the distinct real roots of f.

    Each r_(i+1) is the primitive part of the pseudo-remainder of
    r_(i-1) by r_i from ``_divide``, negated: s is positive, so r_(i+1)
    is a negative multiple of the true remainder, and the sequence is a
    Sturm chain of f, squarefree or not.  The roots are the drop in
    sign variations from -infinity to +infinity, read off leading
    coefficients and degrees, so no root bounds are needed.  Neighbours
    differ in sign at -infinity exactly when they differ at +infinity
    or their degrees differ in parity, not both.
    """
    a, b = f, _derivative(f)
    roots = 0
    while b:
        at_pos = (a[-1] > 0) != (b[-1] > 0)
        at_neg = at_pos != (len(a) - len(b)) % 2
        roots += at_neg - at_pos
        a, b = b, [-c for c in _primitive(_divide(a, b)[2])]
    return a, roots


# ---- Krylov chains modulo a prime ------------------------------------------


def _rescaled(q: list[int], d: int) -> RationalPolynomial:
    """The monic polynomial of A from an integer polynomial q of dA:
    q_k / (lc(q) d^(deg - k)) = q_k d^k / (lc(q) d^deg)."""
    return _polynomial([c * d**k for k, c in enumerate(q)], q[-1] * d ** (len(q) - 1))


def _primes() -> Iterator[int]:
    """The primes below 2^30, largest first.  The first is a constant;
    the rest are found on demand by Miller-Rabin to the bases 2, 3, 5
    and 7, which decide every odd number below 3,215,031,751."""
    m = 1073741789  # 2^30 - 35
    yield m
    while True:
        m -= 2
        s = ((m - 1) & (1 - m)).bit_length() - 1
        for a in (2, 3, 5, 7):
            x = pow(a, (m - 1) >> s, m)
            if x == 1:
                continue
            for _ in range(s):
                if x == m - 1:
                    break
                x = x * x % m
            else:
                break
        else:
            yield m


class _Elimination:
    """An LU factorization modulo a prime p of the independent vectors
    entered so far, ready to take one more.

    The vectors are the columns of an n x k matrix X = LU.  Column j
    has its pivot in row ``pivots[j]``.  ``lower[r]`` is row r of L
    without its unit entry: j multipliers for the pivot row of column j,
    k for a row not yet a pivot row (those are listed in ``free``).
    ``upper[j]`` holds the entries of row j of U right of the diagonal,
    and ``inverses[j]`` the inverse of its diagonal entry.  Vectors are
    integer lists of any size: each row is reduced once, as one sum of
    products taken mod p.
    """

    __slots__ = ("p", "lower", "free", "pivots", "upper", "inverses")

    def __init__(self, n: int, p: int) -> None:
        self.p = p
        self.lower: list[list[int]] = [[] for _ in range(n)]
        self.free = list(range(n))
        self.pivots: list[int] = []
        self.upper: list[list[int]] = []
        self.inverses: list[int] = []

    def _forward(self, x: list[int]) -> list[int]:
        """c with L c = x on the pivot rows, mod p."""
        p, lower = self.p, self.lower
        c: list[int] = []
        for r in self.pivots:
            c.append((x[r] - sum(map(mul, lower[r], c))) % p)
        return c

    def _back(self, c: list[int]) -> list[int]:
        """y with U y = c, mod p."""
        p, upper, inverses = self.p, self.upper, self.inverses
        y = [0] * len(c)
        for j in range(len(c) - 1, -1, -1):
            y[j] = (c[j] - sum(map(mul, upper[j], y[j + 1:]))) * inverses[j] % p
        return y

    def solve(self, x: list[int]) -> list[int]:
        """The coefficients mod p on the vectors entered of the vector
        in their span that agrees with x on the pivot rows."""
        return self._back(self._forward(x))

    def enter(self, x: list[int]) -> list[int] | None:
        """Enter x if it is independent mod p of the vectors entered and
        return None; otherwise return its coefficients on them."""
        p, lower, free = self.p, self.lower, self.free
        c = self._forward(x)
        rest = [(x[r] - sum(map(mul, lower[r], c))) % p for r in free]
        i = next((i for i, e in enumerate(rest) if e), None)
        if i is None:
            return self._back(c)
        inverse = pow(rest.pop(i), -1, p)
        self.pivots.append(free.pop(i))
        for r, e in zip(free, rest):
            lower[r].append(e * inverse % p)
        for row, u in zip(self.upper, c):
            row.append(u)
        self.upper.append([])
        self.inverses.append(inverse)
        return None


def _modular(b: list[list[int]], p: int) -> Callable:
    """x -> Bx mod p for the integer matrix B."""
    bp = [[x % p for x in row] for row in b]
    return lambda x: [sum(map(mul, row, x)) % p for row in bp]


def _krylov(step: Callable, x: list[int], lu: _Elimination) -> tuple[list[list[int]], list[int]]:
    """Enter x, step(x), step(step(x)), ... into ``lu`` until one
    depends mod p on the vectors entered.  Returns the chain, with that
    vector last, and its coefficients on the vectors entered."""
    chain = [x]
    while (y := lu.enter(x)) is None:
        x = step(x)
        chain.append(x)
    return chain, y


def _lifted(b: list[list[int]], chain: list[list[int]], y: list[int], lu: _Elimination) -> list[int] | None:
    """The minimal polynomial of the integer vector w under B from its
    Krylov chain w, Bw, ..., B^k w, or None when the prime p of ``lu``
    is unlucky for w.

    ``lu`` holds the first k vectors of the chain, independent mod p,
    and y the coefficients mod p of B^k w on them.  y is lifted
    p-adically (Dixon): each balanced digit solves the residual mod p
    through the same LU, and the exact integer residual
    B^k w - sum_i y_i B^i w is divided by p.  A zero residual proves the
    relation over Z.  The coefficients of a relation of degree k are
    those of a monic factor of the minimal polynomial of B, whose roots
    are eigenvalues of B, at most R = max_i sum_j |b_ij| in absolute
    value; so they are at most (1 + R)^k.  A residual not divisible by
    p, or one still nonzero once p^m exceeds twice that bound, proves
    that there is no relation of degree k: p is unlucky.
    """
    p = lu.p
    *vectors, x = chain
    rows = list(zip(*vectors)) if vectors else [()] * len(x)
    limit = 2 * (1 + max(sum(map(abs, row)) for row in b)) ** len(vectors)
    total, scale = [0] * len(y), 1
    while True:
        digits = [c - p if 2 * c > p else c for c in y]
        x = [t - sum(map(mul, row, digits)) for t, row in zip(x, rows)]
        total = [t + scale * c for t, c in zip(total, digits)]
        scale *= p
        if not any(x):
            return [-t for t in total] + [1]
        if scale > limit or any(t % p for t in x):
            return None
        x = [t // p for t in x]
        y = lu.solve(x)


def _horner(p: list[int], b: list[list[int]], v: list[int]) -> list[int]:
    """p(B) v for an integer polynomial p and integer matrix B, by
    Horner's rule: one matrix-vector product per coefficient."""
    acc = [0] * len(v)
    for c in reversed(p):
        acc = [sum(map(mul, row, acc)) + c * x for row, x in zip(b, v)]
    return acc


def _span(n: int, p: int, step: Callable) -> Iterator[tuple[_Elimination, list[list[int]], list[int]]]:
    """The one walk over the start vectors: two dense vectors, then
    e_1, ..., e_n.

    The Krylov chain of each start vector under ``step`` enters one
    elimination mod p, after the earlier chains.  For each chain that
    extends the span, yields the elimination, the chain and the
    quotient coefficients: those mod p of the vector that ends the chain
    on the chain's own vectors.  Stops once the span is full, which the
    unit vectors guarantee.

    The dense vectors come first because a vector with no structure of
    its own is cyclic for almost every nonderogatory matrix, so that
    one chain decides it, and the second fills what the first chain
    leaves of the span of a matrix with two invariant factors.  A unit
    vector lies in a small invariant subspace of a Jordan form, and a
    vector with a pattern, such as (1, 2, ..., n), lies in a proper one
    of a conjugated Jordan form P^-1 J P whenever a short sum of its
    entries with the small coefficients of a row of P vanishes.  The 2n
    entries are 1 plus the top 12 bits of a linear congruential sequence
    mod 2^32 (the constants of Numerical Recipes), so they lie in
    1..4096 for every n: wide enough that such sums rarely vanish, and
    narrow enough that the exact chains stay small, since every vector
    of a chain carries the bits of its start vector.
    """
    span = _Elimination(n, p)
    x, dense = 0, []
    for _ in range(2 * n):
        x = (1664525 * x + 1013904223) % 2**32
        dense.append((x >> 20) + 1)
    units = ([int(i == j) for j in range(n)] for i in range(n))
    for v in chain((dense[:n], dense[n:]), units):
        start = len(span.pivots)
        vectors, y = _krylov(step, v, span)
        if len(span.pivots) > start:
            yield span, vectors, y[start:]
            if len(span.pivots) == n:
                return


def char_poly(a: RationalMatrix) -> RationalPolynomial:
    """Characteristic polynomial det(xI - A), monic of degree n.

    Modulo a prime p, the Krylov chains of the start vectors that
    ``_span`` enters into one elimination put B = dA in block
    triangular form with companion blocks: det(xI - B) is the product
    of the chains' quotient polynomials, x^k minus the
    coefficients of the vector that ends a chain on the chain's own
    vectors (Keller-Gehrig).  That holds over F_p for every p, so no
    prime is unlucky.  The residues combine by the CRT until the
    product of the primes exceeds 2 prod_i (||row_i|| + 1), which bounds
    every coefficient of det(xI - B): the coefficient of x^k sums the
    principal minors of order n - k, and Hadamard's inequality bounds
    each by the product of its rows' norms.
    """
    b, n = a.integer_rows, a.n
    bound = 2 * prod(isqrt(sum(x * x for x in row)) + 2 for row in b)
    poly, modulus = [0] * (n + 1), 1
    for p in _primes():
        residues = [1]
        for _, _, y in _span(n, p, _modular(b, p)):
            residues = [c % p for c in _mul(residues, [-c for c in y] + [1])]
        inverse = pow(modulus, -1, p)
        poly = [c + modulus * ((r - c) * inverse % p) for c, r in zip(poly, residues)]
        modulus *= p
        if modulus > bound:
            poly = [c - modulus if 2 * c > modulus else c for c in poly]
            return _rescaled(poly, a.denominator)


def _minimal(b: list[list[int]], p: int) -> list[int] | None:
    """The minimal polynomial of the integer matrix B from the exact
    Krylov chains of ``_span`` and their lifts mod p, or None when p is
    unlucky."""
    n = len(b)
    step = lambda x: [sum(map(mul, row, x)) for row in b]
    mu = [1]
    for lu, vectors, y in _span(n, p, step):
        if len(mu) > 1:  # after the first chain: that of mu(B) v
            lu = _Elimination(n, p)
            vectors, y = _krylov(step, _horner(mu, b, vectors[0]), lu)
        q = _lifted(b, vectors, y, lu)
        if q is None:
            return None
        mu = _mul(mu, q)
    return mu


def min_poly(a: RationalMatrix) -> RationalPolynomial:
    """Minimal polynomial: the monic annihilator of least degree.

    The lcm of the minimal polynomials of the start vectors.  For a
    later vector v and the lcm mu so far, lcm(mu, mu_v) = mu times the
    minimal polynomial of mu(A) v, so one Krylov chain of mu(A) v, on an
    elimination of its own, covers the new part of the lcm; it ends at
    once when mu(A) v = 0.  ``_span`` walks the exact chains of the
    start vectors themselves, and its elimination, their span, also
    lifts the first one.  Each chain's polynomial is lifted from a prime
    p by ``_lifted``, and the answer is certified:

    1. Vectors independent mod p are independent over Q, since a minor
       that is nonzero mod p is nonzero.
    2. So a chain w, Bw, ..., B^(k-1) w independent mod p whose exact
       residual B^k w - sum_i y_i B^i w is zero has exactly the minimal
       polynomial x^k - sum_i y_i x^i of w.
    3. A full span mod p means, by 1, that the chains processed span
       Q^n.  The lcm annihilates their start vectors, so it annihilates
       B, and as an lcm of factors of the minimal polynomial it is the
       minimal polynomial.  So the walk stops there, and skipping a
       start vector that lies in the span mod p is safe.

    A prime for which a lift fails is unlucky, and the search starts
    again with the next prime from ``_primes``.
    """
    mu = next(filter(None, (_minimal(a.integer_rows, p) for p in _primes())))
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
        deeper, real = _sturm(g)
        levels.append((len(g) - len(deeper), real))
        g = deeper
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
