"""Exact rational polynomial and matrix algebra.

Deciding whether a matrix keeps finitely many invariant subspaces hinges
on exact eigenvalue collisions, which floating point cannot witness, so
everything here is exact and floats are rejected at the boundary rather
than converted.  ``RationalMatrix`` and ``RationalPolynomial`` store a
value v in one integer form, made by ``_integer_form``: the lcm d of
its reduced denominators and the integers dv, the rows of dA or the
coefficients of dp.  The constructors take values from outside; a
result the library computes, integers over a common denominator,
reaches the same form by one gcd in ``_integer_form`` and is stored by
``_matrix`` or ``_polynomial`` through ``FrozenValue._of``, with no
``Fraction`` in between.  A value from outside is read by ``_ratio``
straight into two ints: a rational number by its ``numerator`` and
``denominator``, a string by the grammar of a matrix document (an
optional sign and ASCII digits, then an optional ``/`` and ASCII
digits).  ``_ratio`` is the one reader of that grammar and words each
refused string once; the CLI hands it every cell of a document and
adds only the cell's row and column.  Ints and integer strings, the
cells of an integer document, skip it: ``_integer_form`` converts them
by one match and one ``int`` pass.  ``_format`` writes c/d in lowest
terms for the printers of both types.  So ``fractions`` (with
``decimal`` and ``numbers``) loads only in ``entries`` and
``coefficients``, which build ``Fraction`` values on demand.  The
operations run on plain Python ints; a polynomial of dA rescales to
the one of A coefficient by coefficient, c_k(A) = c_k(dA) / d^(deg - k).

Each operation has one implementation:

* Polynomials: ``_mul``, ``_derivative`` and ``_divide``, the one
  pseudo-division, shared by ``divmod`` and the remainder sequence
  that ``_sturm`` walks; one helper, ``_polynomial``, builds every
  result, and ``_rescaled`` turns an integer polynomial of dA into the
  monic one of A.  The value types carry only the arithmetic that the
  library's two questions and their checks use: ``divmod`` and ``%``
  of polynomials, and ``*``, ``inverse`` and ``identity`` of matrices.
* Krylov chains v, Bv, B^2 v, ... of the integer matrix B = dA are
  exact, and ``_product`` is the one matrix-vector product: it steps the
  chains and serves ``_horner``, ``_lifted``'s residual and the product
  of matrices.  The chains run through one elimination modulo a prime
  p < 2^30, ``_Elimination``: an LU of the vectors entered so far,
  built one vector at a time, in which each row of a vector is reduced
  once, by one sum of products mod p.  ``_krylov`` enters a chain of B
  until a vector depends on the earlier ones.  The primes come from
  ``_primes``, in a fixed order.
* ``_span(b, p)`` is the one walk over the start vectors, two fixed
  dense vectors with entries in 1..4096 and then e_1, ..., e_n: their
  chains enter one such elimination, each after the earlier ones, until
  it is full.  The first dense chain alone fills it for almost every
  nonderogatory matrix, and the unit vectors guarantee that it fills.
  ``min_poly`` takes the lcm of the minimal polynomials of the start
  vectors: the first chain's from the walk's own LU, and after it a
  vector v extends the lcm mu by the chain of mu(A) v, on an
  elimination of its own.  ``_lifted`` lifts each chain's polynomial
  from its LU mod p to Z p-adically (Dixon) and accepts it only on an
  exact zero residual, so the answer is certified; a prime that fails
  restarts the search with the next one.
* ``char_poly`` is mu r: mu from ``min_poly``'s walk, and the
  n - deg mu lower coefficients of r by the CRT, each prime's residues
  from the product of the walk's quotient polynomials (Keller-Gehrig
  over F_p) divided by mu.  ``_bound(b, k)`` = 2 (1 + R)^k, R the
  largest absolute row sum of B, is the one coefficient bound: it ends
  both the lift of a chain of length k and the CRT for r.  A
  nonderogatory matrix needs no CRT prime.
* ``_horner`` is the one Horner loop: ``min_poly`` applies it to a
  vector and ``evaluate_at_matrix`` to each unit vector.  ``_units``
  makes every identity row: these, the last start vectors of ``_span``,
  ``identity`` and the identity cells of the analyzer's Jordan blocks.
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

import re
from collections.abc import Iterable, Iterator, Sequence
from itertools import chain
from math import gcd, lcm
from operator import index, mul

from . import _INTEGER, FrozenValue, _quoted, _too_many_digits

# a value's string: an integer token, then an optional / and ASCII digits
_TOKEN = re.compile(rf"({_INTEGER})(?:/([0-9]+))?")
# integer tokens joined by single spaces
_INTEGER_ROW = re.compile(rf"{_INTEGER}(?: {_INTEGER})*")


def _integer_form(values: Iterable, d: int = 1) -> tuple[int, list[int]]:
    """(e, [e v / d for v in values]) with e > 0 the lcm of the reduced
    denominators of the v / d, for a nonzero int d.  Input from outside
    comes with d = 1.  Values that are all ints and integer strings,
    the cells of an integer matrix document, convert in one pass: one
    match of the line they join into, then one ``int`` each.  Every
    other value but a plain int, and every value that pass refuses, is
    read by ``_ratio``, which words the error.  The library's own
    results come as integers over d and reach lowest terms by one gcd."""
    values = list(values)
    types = set(map(type, values))
    if str in types and types <= {int, str}:
        # the grammar first, as int() also takes "1_0", " 2" and
        # non-ASCII digits; and a string holding a space would pass as
        # two tokens
        try:
            line = " ".join(map(str, values) if int in types else values)
            if _INTEGER_ROW.fullmatch(line) and line.count(" ") == len(values) - 1:
                values, types = list(map(int, values)), {int}
        except ValueError:
            pass  # past the int-string digit limit
    if not types <= {int}:
        ratios = list(map(_ratio, values))
        e = lcm(*(q for _, q in ratios))
        values = [p * (e // q) for p, q in ratios]
        d *= e
    g = gcd(d, *values) if d > 0 else -gcd(d, *values)
    return d // g, values if g == 1 else [v // g for v in values]


def _ratio(x) -> tuple[int, int]:
    """(p, q) with x = p / q, for one value from outside.

    An int, a bool or a ``Fraction`` is read by its ``numerator`` and
    ``denominator``, taken as Python ints, so a fixed-width integer
    such as numpy's cannot wrap around later.  A string is read by the
    grammar of a matrix document, ``_TOKEN``, so ``"-3/4"`` and
    ``"007"`` are values but ``"1.5"``, ``"1e3"``, ``" 3/4"``, ``"1_0"``
    and non-ASCII digits are not.  The one wording of each refused
    string, which quotes at most ``QUOTE_CHARS`` characters of it:
    ValueError ``invalid rational token '1e3' (expected an integer or
    p/q)``, ValueError ``integer with more than 4300 digits`` past the
    interpreter's int-string limit, and ZeroDivisionError ``zero
    denominator in '1/0'``.  Floats are refused rather than converted,
    and any other type (``Decimal``, complex, None) raises TypeError."""
    if isinstance(x, str):
        match = _TOKEN.fullmatch(x)
        if not match:
            raise ValueError(f"invalid rational token {_quoted(x)} (expected an integer or p/q)")
        p, q = match.groups()
        try:
            p, q = int(p), int(q or 1)
        except ValueError:
            raise ValueError(_too_many_digits()) from None
        if not q:
            raise ZeroDivisionError(f"zero denominator in {_quoted(x)}")
        return p, q
    if isinstance(x, float):
        raise TypeError(f"refusing float {x!r}: exact rational input required")
    try:
        return index(x.numerator), index(x.denominator)
    except AttributeError:
        raise TypeError(f"not an exact rational: {x!r} ({type(x).__name__})") from None


def _format(c: int, d: int) -> str:
    """c / d in lowest terms for d > 0, written as ``str`` writes the
    ``Fraction`` c/d."""
    g = gcd(c, d)
    return str(c // g) if g == d else f"{c // g}/{d // g}"


def _units(n: int) -> Iterator[list[int]]:
    """The rows e_1, ..., e_n of the n x n identity matrix, as new lists."""
    return ([int(i == j) for j in range(n)] for i in range(n))


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
        self._store(d, tuple(_strip(ints)))

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
        text = ""
        for k in range(self.degree, -1, -1):
            if c := self.integer_coefficients[k]:
                mag = _format(abs(c), self.denominator)
                power = "x" if k == 1 else f"x^{k}"
                term = mag if k == 0 else power if mag == "1" else f"{mag}*{power}"
                text += f" {'-' if c < 0 else '+'} {term}"
        # the leading term keeps a minus sign, without the spaces
        return text[1:2].strip("+") + text[3:] or "0"


def _polynomial(p: list[int], d: int) -> RationalPolynomial:
    """The polynomial p / d of an integer polynomial p and a nonzero int d."""
    d, ints = _integer_form(p, d)
    return RationalPolynomial._of(d, tuple(ints))


class RationalMatrix(FrozenValue):
    """Square matrix of exact rationals, stored as integers.

    A matrix A is kept as its ``denominator`` d, the lcm of the reduced
    denominators of its entries, and ``integer_rows``, the rows of the
    integer matrix dA.  Like the package's other frozen value types on
    one base, it compares, hashes, pickles and copies by its fields,
    this canonical form; the constructor takes the rows themselves.
    ``entries`` builds the ``Fraction`` rows on demand.  Entries are
    read by ``_ratio``, which rejects floats.
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
        self._store(d, tuple(zip(*[iter(ints)] * n)))

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
        return cls(_units(n))

    @classmethod
    def block_diagonal(cls, blocks: Sequence["RationalMatrix"]) -> "RationalMatrix":
        """Assemble square blocks along the diagonal, zeros elsewhere."""
        if not blocks:
            raise ValueError("need at least one block")
        n = sum(b.n for b in blocks)
        d = lcm(*(b.denominator for b in blocks))
        rows = [[0] * n for _ in range(n)]
        offset = 0
        for block in blocks:
            scale = d // block.denominator
            for i, row in enumerate(block.integer_rows):
                rows[offset + i][offset:offset + block.n] = [scale * x for x in row]
            offset += block.n
        return _matrix(rows, d)

    def __mul__(self, other) -> "RationalMatrix":
        if not isinstance(other, RationalMatrix) or self.n != other.n:
            return NotImplemented
        cols = tuple(zip(*other.integer_rows))
        rows = (_product(cols, row) for row in self.integer_rows)
        return _matrix(rows, self.denominator * other.denominator)

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
        d = self.denominator
        rows = ("[" + ", ".join(_format(x, d) for x in row) + "]" for row in self.integer_rows)
        return f"RationalMatrix([{', '.join(rows)}])"


def _matrix(rows: Iterable[Iterable[int]], d: int) -> RationalMatrix:
    """The matrix B / d of the rows of an integer matrix B and a nonzero int d."""
    rows = list(rows)
    d, ints = _integer_form(chain.from_iterable(rows), d)
    return RationalMatrix._of(d, tuple(zip(*[iter(ints)] * len(rows))))


def evaluate_at_matrix(p: RationalPolynomial, a: RationalMatrix) -> RationalMatrix:
    """Evaluate p = P / D of degree m at A = B / d: column j is q(B) e_j
    with q_k = P_k d^(m-k), over D d^m."""
    n, d = a.n, a.denominator
    m = max(p.degree, 0)
    q = [c * d ** (m - k) for k, c in enumerate(p.integer_coefficients)]
    cols = [_horner(q, a.integer_rows, e) for e in _units(n)]
    return _matrix(zip(*cols), p.denominator * d**m)


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


def _product(b: Sequence[Sequence[int]], x: Sequence[int]) -> list[int]:
    """Bx for an integer matrix B and integer vector x: the one
    matrix-vector product."""
    return [sum(map(mul, row, x)) for row in b]


def _bound(b: list[list[int]], k: int) -> int:
    """2 (1 + R)^k, R = max_i sum_j |b_ij|: twice a bound on every
    coefficient of a monic integer polynomial of degree k whose roots are
    eigenvalues of B, since each eigenvalue is at most R in absolute
    value and the coefficient of x^i is at most C(k, i) R^(k-i)."""
    return 2 * (1 + max(sum(map(abs, row)) for row in b)) ** k


def _krylov(b: list[list[int]], x: list[int], lu: _Elimination) -> tuple[list[list[int]], list[int]]:
    """Enter x, Bx, B^2 x, ... into ``lu`` until one depends mod p on
    the vectors entered.  Returns the exact chain, with that vector last,
    and its coefficients mod p on the vectors entered."""
    chain = [x]
    while (y := lu.enter(x)) is None:
        x = _product(b, x)
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
    B^k w - sum_i y_i B^i w, taken by ``_product`` on the matrix whose
    columns are the chain's first k vectors, is divided by p.  A zero
    residual proves the relation over Z.  A relation of degree k is a
    monic factor of the minimal polynomial of B, so its coefficients are
    at most half of ``_bound(b, k)``.  A residual not divisible by p, or
    one still nonzero once p^m exceeds that bound, proves that there is
    no relation of degree k: p is unlucky.
    """
    p, limit = lu.p, _bound(b, len(chain) - 1)
    *vectors, x = chain
    rows = list(zip(*vectors)) if vectors else [()] * len(x)
    total, scale = [0] * len(y), 1
    while True:
        digits = [c - p if 2 * c > p else c for c in y]
        x = [t - s for t, s in zip(x, _product(rows, digits))]
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
    Horner's rule: one ``_product`` per coefficient."""
    acc = [0] * len(v)
    for c in reversed(p):
        acc = [s + c * x for s, x in zip(_product(b, acc), v)]
    return acc


def _span(b: list[list[int]], p: int) -> Iterator[tuple[_Elimination, list[list[int]], list[int]]]:
    """The one walk over the start vectors: two dense vectors, then
    e_1, ..., e_n.

    The exact Krylov chain of each start vector under the integer matrix
    B enters one elimination mod p, after the earlier chains.  For each
    chain that extends the span, yields the elimination, the chain and
    the quotient coefficients: those mod p of the vector that ends the
    chain on the chain's own vectors.  Stops once the span is full,
    which the unit vectors guarantee.

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
    n = len(b)
    span = _Elimination(n, p)
    x, dense = 0, []
    for _ in range(2 * n):
        x = (1664525 * x + 1013904223) % 2**32
        dense.append((x >> 20) + 1)
    for v in chain((dense[:n], dense[n:]), _units(n)):
        start = len(span.pivots)
        vectors, y = _krylov(b, v, span)
        if len(span.pivots) > start:
            yield span, vectors, y[start:]
            if len(span.pivots) == n:
                return


def _minimal(b: list[list[int]], p: int) -> list[int] | None:
    """The minimal polynomial of the integer matrix B from the exact
    Krylov chains of ``_span`` and their lifts mod p, or None when p is
    unlucky."""
    mu = [1]
    for lu, vectors, y in _span(b, p):
        if len(mu) > 1:  # after the first chain: that of mu(B) v
            lu = _Elimination(len(b), p)
            vectors, y = _krylov(b, _horner(mu, b, vectors[0]), lu)
        q = _lifted(b, vectors, y, lu)
        if q is None:
            return None
        mu = _mul(mu, q)
    return mu


def _mu(b: list[list[int]]) -> list[int]:
    """The minimal polynomial of the integer matrix B, monic, from the
    first prime in the order of ``_primes`` that is lucky for it."""
    return next(filter(None, (_minimal(b, p) for p in _primes())))


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
    return _rescaled(_mu(a.integer_rows), a.denominator)


def char_poly(a: RationalMatrix) -> RationalPolynomial:
    """Characteristic polynomial det(xI - A), monic of degree n.

    chi = mu r for the minimal polynomial mu of B = dA.  mu is monic and
    divides chi in Z[x], so r is a monic integer polynomial of degree
    m = n - deg mu, and its roots are eigenvalues of B, each at most R in
    absolute value; so its lower coefficients are at most half of
    ``_bound(b, m)``, and the CRT finds them once the product of the
    primes exceeds that bound.  A nonderogatory matrix has m = 0, r = 1,
    and needs no prime.  Modulo a prime p, the chains that ``_span``
    enters into one elimination put B in block triangular form with
    companion blocks: chi mod p is the product of the chains' quotient
    polynomials, x^k minus the coefficients of the vector that ends a
    chain on the chain's own vectors (Keller-Gehrig).  That holds over
    F_p for every p, so no prime is unlucky, and dividing it by the
    monic mu with ``_divide`` leaves r mod p.
    """
    b = a.integer_rows
    mu = _mu(b)
    m = a.n + 1 - len(mu)
    r, modulus, primes = [0] * m, 1, _primes()
    while m and modulus <= _bound(b, m):
        p = next(primes)
        chi = [1]
        for _, _, y in _span(b, p):
            chi = [c % p for c in _mul(chi, [-c for c in y] + [1])]
        inverse = pow(modulus, -1, p)
        r = [c + modulus * ((t - c) * inverse % p) for c, t in zip(r, _divide(chi, mu)[1])]
        modulus *= p
    r = [c - modulus if 2 * c > modulus else c for c in r]
    return _rescaled(_mul(mu, r + [1]), a.denominator)


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
