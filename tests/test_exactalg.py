import json
import random
import sys
import time
from decimal import Decimal
from fractions import Fraction
from itertools import chain, islice
from math import gcd, isqrt

import pytest
from hypothesis import example, given, settings, strategies as st

from invsub import QUOTE_CHARS, exactalg
from invsub.exactalg import (
    RationalMatrix,
    RationalPolynomial,
    char_poly,
    count_real_roots,
    evaluate_at_matrix,
    min_poly,
    squarefree_root_counts,
)

from invsub.analyzer import real_jordan_block, realize_config, standard_jordan_block
from invsub.cli import parse_matrix_document
from invsub.spectrum import enumerate_configs

from _oracles import (
    OFF_GRAMMAR_TOKENS,
    char_poly_bareiss,
    char_poly_cofactor,
    char_poly_faddeev_leverrier,
    companion_matrix,
    conjugated_realizations,
    conjugated_two_factor_sums,
    min_poly_bareiss,
    min_poly_flattened_powers,
    _long_division,
    polynomial_gcd,
    power,
    product,
    random_fraction,
    random_invertible_matrix,
    random_rational_matrix,
    read_token,
    squarefree_factors,
    squarefree_part,
    unimodular_conjugate,
)

rationals = st.fractions(min_value=-8, max_value=8, max_denominator=6)
polynomials = st.lists(rationals, max_size=6).map(RationalPolynomial)
nonzero_polynomials = polynomials.filter(lambda p: not p.is_zero())


@st.composite
def monic_polynomials(draw, max_degree: int = 6) -> RationalPolynomial:
    degree = draw(st.integers(1, max_degree))
    low = [draw(rationals) for _ in range(degree)]
    return RationalPolynomial(low + [Fraction(1)])


@st.composite
def square_matrices(draw, max_n: int = 4) -> RationalMatrix:
    n = draw(st.integers(1, max_n))
    return RationalMatrix(
        [[draw(rationals) for _ in range(n)] for _ in range(n)]
    )


def poly(*coefficients) -> RationalPolynomial:
    return RationalPolynomial(coefficients)


def scalar_matrix(n: int, c) -> RationalMatrix:
    return RationalMatrix([[c if i == j else 0 for j in range(n)] for i in range(n)])


def dense_start_vectors(n: int) -> tuple[list[int], list[int]]:
    # the two dense start vectors of exactalg._span, written out again:
    # 1 + the top 12 bits of x -> 1664525 x + 1013904223 mod 2^32 from 0
    x, entries = 0, []
    for _ in range(2 * n):
        x = (1664525 * x + 1013904223) % 2**32
        entries.append(1 + x // 2**20)
    return entries[:n], entries[n:]


def jordan(value, size: int) -> RationalMatrix:
    return RationalMatrix(
        [[value if j == i else int(j == i + 1) for j in range(size)] for i in range(size)]
    )


def derogatory_matrices(n: int):
    """Seeded derogatory n x n matrices, on which char_poly = mu r finds
    the n - deg mu lower coefficients of r by the CRT: cI (deg mu = 1),
    cI + uv^T and, for n even, conjugated C(p) + C(p); and for n <= 8,
    I_2 + realize_config(c) for each configuration c of dimension n - 2
    and ``conjugated_two_factor_sums``."""
    rng = random.Random(n)
    c = random_fraction(rng)
    u, v = ([random_fraction(rng) for _ in range(n)] for _ in range(2))
    yield scalar_matrix(n, c)
    yield RationalMatrix([[c * (i == j) + u[i] * v[j] for j in range(n)] for i in range(n)])
    if n % 2 == 0:
        p = RationalPolynomial([random_fraction(rng) for _ in range(n // 2)] + [1])
        yield unimodular_conjugate(rng, RationalMatrix.block_diagonal([companion_matrix(p)] * 2))
    if n <= 8:
        for config in enumerate_configs(n - 2):
            yield RationalMatrix.block_diagonal([RationalMatrix.identity(2), realize_config(config)])
        yield from conjugated_two_factor_sums(rng, n)


def moved_to_dense_start_vectors(m: RationalMatrix, k: int) -> RationalMatrix:
    # S m S^-1 for S the identity with its first k columns replaced by
    # the first k dense start vectors, so S e_i is the i-th one
    dense = dense_start_vectors(m.n)[:k]
    s = RationalMatrix(
        [[dense[j][i] if j < k else int(i == j) for j in range(m.n)] for i in range(m.n)]
    )
    return s * m * s.inverse()


class TestRationalPolynomial:
    def test_trailing_zeros_stripped(self):
        assert poly(1, 2, 0, 0) == poly(1, 2)
        assert poly(0, 0).is_zero()

    def test_zero_degree_is_minus_one(self):
        assert poly().degree == -1
        assert poly(1).degree == 0

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            poly(1.5)

    def test_str(self):
        assert str(poly(2, -3, 1)) == "x^2 - 3*x + 2"
        assert str(poly()) == "0"
        assert str(poly(0, 1)) == "x"
        assert str(poly(Fraction(1, 2), -1)) == "-x + 1/2"
        assert str(poly(0, 0, Fraction(-2, 3))) == "-2/3*x^2"

    @given(st.integers(), st.integers(min_value=1))
    @example(0, 5)
    @example(-12, 8)
    def test_format_matches_str_of_fraction(self, c, d):
        assert exactalg._format(c, d) == str(Fraction(c, d))

    @given(polynomials, nonzero_polynomials)
    @example(poly(1, "2/3", -5, 0, 4), poly(3, 0, "-2/7"))  # negative leading coefficient
    def test_division_identity(self, a, b):
        # against the oracle's schoolbook division of Fraction lists
        q, r = divmod(a, b)
        expected = _long_division(list(a.coefficients), list(b.coefficients))
        assert (q, r) == tuple(map(RationalPolynomial, expected))
        assert r.degree < b.degree

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            divmod(poly(1, 1), poly())

    @given(nonzero_polynomials, nonzero_polynomials)
    def test_gcd_divides_both_and_is_monic(self, a, b):
        # Euclid's algorithm through % gives a common divisor
        g = polynomial_gcd(a, b)
        assert g.coefficients[-1] == 1
        assert (a % g).is_zero()
        assert (b % g).is_zero()

    def test_gcd_of_known_factors(self):
        a = product(poly(-1, 1), poly(2, 1))
        b = product(poly(-1, 1), poly(3, 1))
        assert polynomial_gcd(a, b) == poly(-1, 1)


class TestRationalMatrix:
    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="row 2 has 1 entries, expected 2"):
            RationalMatrix([[1, 2], [3]])

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            RationalMatrix([[1.5]])

    def test_block_diagonal(self):
        a = RationalMatrix([[1]])
        b = RationalMatrix([[2, 3], [4, 5]])
        combined = RationalMatrix.block_diagonal([a, b])
        assert combined == RationalMatrix(
            [[1, 0, 0], [0, 2, 3], [0, 4, 5]]
        )

    def test_block_diagonal_of_integer_and_rational_blocks(self):
        blocks = [
            RationalMatrix([["1/2"]]),
            RationalMatrix([[2, 3], [4, 5]]),
            RationalMatrix([["2/3", 0], [1, "-1/4"]]),
        ]
        combined = RationalMatrix.block_diagonal(blocks)
        assert combined.denominator == 12
        assert combined == RationalMatrix(
            [
                [Fraction(1, 2), 0, 0, 0, 0],
                [0, 2, 3, 0, 0],
                [0, 4, 5, 0, 0],
                [0, 0, 0, Fraction(2, 3), 0],
                [0, 0, 0, 1, Fraction(-1, 4)],
            ]
        )

    def test_singular_inverse_rejected(self):
        with pytest.raises(ValueError, match="singular"):
            RationalMatrix([[1, 2], [2, 4]]).inverse()

    def test_inverse_round_trip_random(self):
        rng = random.Random(7)
        matrices = [random_invertible_matrix(rng, rng.randint(1, 8)) for _ in range(25)]
        # min_poly runs several Krylov chains on these
        matrices += [
            scalar_matrix(5, 3),
            standard_jordan_block(Fraction(2, 3), 6),
            RationalMatrix.block_diagonal(
                [standard_jordan_block(5, 2), standard_jordan_block(5, 3)]
            ),
        ]
        for m in matrices:
            assert m * m.inverse() == RationalMatrix.identity(m.n)
            assert m.inverse() * m == RationalMatrix.identity(m.n)
        # singular derogatory inputs too, whose minimal polynomial is a
        # proper divisor of the characteristic one
        singular = [
            standard_jordan_block(0, 4),
            RationalMatrix([[0] * 3] * 3),
            RationalMatrix([[0, 0, 0], [0, 0, 0], [0, 0, 1]]),
            RationalMatrix.block_diagonal(
                [standard_jordan_block(0, 2), RationalMatrix([[0]])]
            ),
        ]
        for m in singular:
            with pytest.raises(ValueError, match="singular"):
                m.inverse()


class TestRationalMatrixStorage:
    """A matrix is stored as its denominator d, the lcm of the reduced
    entry denominators, and the integer rows of dA."""

    def test_equal_rationals_store_and_hash_alike(self):
        forms = [
            RationalMatrix([["1/2"]]),
            RationalMatrix([["2/4"]]),
            RationalMatrix([[Fraction(1, 2)]]),
            RationalMatrix([[Fraction(3, 6)]]),
        ]
        for m in forms:
            assert (m.denominator, m.integer_rows) == (2, ((1,),))
            assert m == forms[0]
            assert hash(m) == hash(forms[0])
        assert RationalMatrix([["1/2"]]) != RationalMatrix([["1/3"]])
        assert RationalMatrix([[1, 0], [0, 1]]) != RationalMatrix([[1, 0], [0, 2]])

    def test_denominator_is_lcm_of_reduced_denominators(self):
        m = RationalMatrix([[Fraction(1, 6), "3/4"], [2, Fraction(10, 4)]])
        assert m.denominator == 12
        assert m.integer_rows == ((2, 9), (24, 30))

    def test_integer_entries_keep_denominator_one(self):
        m = RationalMatrix([[3, -1], [0, Fraction(8, 4)]])
        assert m.denominator == 1
        assert m.integer_rows == ((3, -1), (0, 2))
        assert all(type(x) is int for row in m.integer_rows for x in row)

    def test_negative_denominators_normalize(self):
        m = RationalMatrix([[Fraction(3, -4), Fraction(-1, -2)], ["-5/4", 0]])
        assert m.denominator == 4
        assert m.integer_rows == ((-3, 2), (-5, 0))
        assert m == RationalMatrix([["-3/4", "1/2"], [Fraction(-5, 4), 0]])

    def test_entries_are_fractions(self):
        m = RationalMatrix([[1, "2/3"], [Fraction(-5, 2), True]])
        assert all(type(x) is Fraction for row in m.entries for x in row)
        assert m.entries == (
            (Fraction(1), Fraction(2, 3)),
            (Fraction(-5, 2), Fraction(1)),
        )

    @given(square_matrices())
    def test_round_trips_through_entries(self, a):
        assert RationalMatrix(a.entries) == a
        assert gcd(a.denominator, *(x for row in a.integer_rows for x in row)) == 1

    @pytest.mark.parametrize("name", ["denominator", "integer_rows", "entries", "other"])
    def test_immutable(self, name):
        m = RationalMatrix([[1, "1/2"], [0, 1]])
        with pytest.raises(AttributeError):
            setattr(m, name, 1)
        assert m == RationalMatrix([[1, Fraction(1, 2)], [0, 1]])

    def test_inverse_evaluate_and_repr_on_mixed_entries(self):
        m = RationalMatrix([[1, Fraction(1, 2), 0], ["-2/3", 3, Fraction(5, 4)], [0, -1, "7/6"]])
        assert repr(m) == "RationalMatrix([[1, 1/2, 0], [-2/3, 3, 5/4], [0, -1, 7/6]])"
        assert repr(m.inverse()) == (
            "RationalMatrix([[171/185, -21/185, 9/74], "
            "[28/185, 42/185, -9/37], [24/185, 36/185, 24/37]])"
        )
        assert repr(evaluate_at_matrix(poly(3, Fraction(-1, 2), 1), m)) == (
            "RationalMatrix([[19/6, 7/4, 5/8], [-7/3, 107/12, 55/12], "
            "[2/3, -11/3, 91/36]])"
        )
        assert m * m.inverse() == RationalMatrix.identity(3)
        assert repr(RationalMatrix([[2, 0], [0, 1]]).inverse()) == (
            "RationalMatrix([[1/2, 0], [0, 1]])"
        )

    @given(square_matrices(max_n=3), square_matrices(max_n=3))
    def test_arithmetic_matches_entrywise_fractions(self, a, b):
        if a.n != b.n:
            return
        ea, eb = a.entries, b.entries
        assert (a * b).entries == tuple(
            tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*eb)) for row in ea
        )
        assert a.is_zero() == all(x == 0 for row in ea for x in row)
        # the product is stored in lowest terms, as if built from its entries
        built = RationalMatrix((a * b).entries)
        assert (a * b).denominator == built.denominator
        assert (a * b).integer_rows == built.integer_rows

    @pytest.mark.parametrize(
        "compute, form",
        [
            # mu = x^2 - 5x - 2: the constant term, the divisor, is negative
            (
                lambda: RationalMatrix([[1, 2], [3, 4]]).inverse(),
                (2, ((-4, 2), (3, -1))),
            ),
            # 1/2 and 1/3 over 6, but every entry cancels to 0
            (
                lambda: RationalMatrix([[1, "1/2"], [2, 1]])
                * RationalMatrix([["1/3", 1], ["-2/3", -2]]),
                (1, ((0, 0), (0, 0))),
            ),
            (
                lambda: RationalMatrix.block_diagonal(
                    [
                        RationalMatrix([["1/2"]]),
                        RationalMatrix([["1/3", 1], [0, "2/3"]]),
                        RationalMatrix([[5]]),
                    ]
                ),
                (6, ((3, 0, 0, 0), (0, 2, 6, 0), (0, 0, 4, 0), (0, 0, 0, 30))),
            ),
        ],
        ids=["inverse-negative-constant", "zero-product", "block-diagonal-2-3-1"],
    )
    def test_computed_results_are_in_lowest_terms(self, compute, form):
        result = compute()
        assert (result.denominator, result.integer_rows) == form
        built = RationalMatrix(result.entries)
        assert (built.denominator, built.integer_rows) == form
        assert result == built and hash(result) == hash(built)


class TestRationalPolynomialStorage:
    """A polynomial p is stored as its denominator d, the lcm of the
    reduced coefficient denominators, and the integer coefficients of dp."""

    def test_equal_rationals_store_and_hash_alike(self):
        forms = [
            poly("1/2", 1),
            poly("2/4", "3/3"),
            poly(Fraction(1, 2), Fraction(2, 2)),
            poly(Fraction(3, 6), 1, 0, Fraction(0, 5)),
        ]
        for p in forms:
            assert (p.denominator, p.integer_coefficients) == (2, (1, 2))
            assert p == forms[0]
            assert hash(p) == hash(forms[0])
        assert poly("1/2", 1) != poly("1/3", 1)
        assert poly(1, 2) != poly(Fraction(1, 2), 1)

    def test_denominator_is_lcm_of_reduced_denominators(self):
        p = poly(Fraction(1, 6), "3/4", 2, Fraction(10, 4))
        assert p.denominator == 12
        assert p.integer_coefficients == (2, 9, 24, 30)

    def test_integer_coefficients_keep_denominator_one(self):
        p = poly(3, -1, Fraction(8, 4), 0)
        assert p.denominator == 1
        assert p.integer_coefficients == (3, -1, 2)
        assert all(type(c) is int for c in p.integer_coefficients)

    def test_negative_denominators_normalize(self):
        p = poly(Fraction(3, -4), Fraction(-1, -2), "-5/4")
        assert (p.denominator, p.integer_coefficients) == (4, (-3, 2, -5))

    def test_zero_polynomial(self):
        for p in (poly(), poly(0, Fraction(0, 3), "0/7")):
            assert (p.denominator, p.integer_coefficients) == (1, ())
            assert p.coefficients == ()

    def test_coefficients_are_fractions(self):
        p = poly(1, "2/3", Fraction(-5, 2), True)
        assert all(type(c) is Fraction for c in p.coefficients)
        assert p.coefficients == (
            Fraction(1), Fraction(2, 3), Fraction(-5, 2), Fraction(1)
        )

    @given(polynomials)
    def test_round_trips_through_coefficients(self, p):
        assert RationalPolynomial(p.coefficients) == p
        assert gcd(p.denominator, *p.integer_coefficients) == 1

    @pytest.mark.parametrize(
        "name", ["denominator", "integer_coefficients", "coefficients", "other"]
    )
    def test_immutable(self, name):
        p = poly(1, "1/2")
        with pytest.raises(AttributeError):
            setattr(p, name, 1)
        assert p == poly(1, Fraction(1, 2))

    @given(polynomials, nonzero_polynomials)
    def test_arithmetic_matches_coefficientwise_fractions(self, a, b):
        assert a.is_zero() == all(x == 0 for x in a.coefficients)
        # results are stored in lowest terms, as if built from their coefficients
        for result in divmod(a, b):
            built = RationalPolynomial(result.coefficients)
            assert result.denominator == built.denominator
            assert result.integer_coefficients == built.integer_coefficients

    def test_divmod_goldens(self):
        # 2x^3 - x + 1/2 by 3x^2 + 1: the pseudo-division scales by 3^2
        q, r = divmod(poly("1/2", -1, 0, 2), poly(1, 0, 3))
        assert (q, r) == (poly(0, Fraction(2, 3)), poly(Fraction(1, 2), Fraction(-5, 3)))
        q, r = divmod(poly(1, 2, 1), poly("-1/2", "3/4"))
        assert (q, r) == (poly(Fraction(32, 9), Fraction(4, 3)), poly(Fraction(25, 9)))
        assert divmod(poly(1, 2), poly(0, 0, -7)) == (poly(), poly(1, 2))


class TestIntegerCanonicalForm:
    """Integer values reach one stored form, d = 1 and plain int
    entries, whether they come as ints, Fractions, strings or bools, and
    whether or not the all-int route of the constructors takes them."""

    FORMS = [lambda k: k, lambda k: Fraction(k, 1), str, bool]

    @pytest.mark.parametrize(
        "values, forms",
        [
            # the bool form can only spell 0 and 1
            ([[0, 1, 1], [1, 0, 0], [0, 0, 1]], FORMS),
            ([[-7, 0, 3], [10**30, 1, -1], [2, -(10**25), 5]], FORMS[:3]),
        ],
        ids=["zero-one", "wide"],
    )
    def test_every_form_stores_alike(self, values, forms):
        flat = tuple(chain.from_iterable(values))
        built = []
        for form in forms:
            rows = [[form(k) for k in row] for row in values]
            m = RationalMatrix(rows)
            p = RationalPolynomial(chain.from_iterable(rows))
            assert (m.denominator, m.integer_rows) == (1, tuple(map(tuple, values)))
            assert (p.denominator, p.integer_coefficients) == (1, flat)
            assert all(type(x) is int for row in m.integer_rows for x in row)
            assert all(type(c) is int for c in p.integer_coefficients)
            built.append((m, p))
        for m, p in built:
            assert (m, p) == built[0]
            assert (hash(m), hash(p)) == (hash(built[0][0]), hash(built[0][1]))

    def test_mixed_forms_store_alike(self):
        m = RationalMatrix([[True, Fraction(-4, 2)], ["3", 5]])
        assert (m.denominator, m.integer_rows) == (1, ((1, -2), (3, 5)))
        assert all(type(x) is int for row in m.integer_rows for x in row)
        assert m == RationalMatrix([[1, -2], [3, 5]])
        assert hash(m) == hash(RationalMatrix([[1, -2], [3, 5]]))

    @pytest.mark.parametrize(
        "text",
        ["3 -1 0\n007 +2 5\n-0 4 1\n", '[[3, "-1", 0], ["007", 2, "+5"], ["-0", 4, 1]]'],
        ids=["text", "json"],
    )
    def test_parsed_integer_document_has_denominator_one(self, text):
        m = parse_matrix_document(text)
        assert (m.denominator, m.integer_rows) == (1, ((3, -1, 0), (7, 2, 5), (0, 4, 1)))
        assert all(type(x) is int for row in m.integer_rows for x in row)

    def test_parsed_fraction_document_has_lcm_denominator(self):
        # 2/4 reduces to 1/2, so d is the lcm of 2, 3 and 5
        m = parse_matrix_document("2/4 1/3 7\n0 -4/5 1\n1 1 1\n")
        assert m.denominator == 30
        assert m.integer_rows == ((15, 10, 210), (0, -24, 30), (30, 30, 30))
        assert all(type(x) is int for row in m.integer_rows for x in row)


class TestOneGrammar:
    """The library reads a string by the grammar of a matrix document,
    which ``_oracles.read_token`` reads by a pattern of its own, and
    refuses what that refuses, in the same words."""

    READERS = {
        "matrix": lambda x: RationalMatrix([[x]]),
        "polynomial": lambda x: RationalPolynomial([x]),
        "real Jordan block": lambda x: real_jordan_block(0, x, 1),
    }

    LIMIT = sys.get_int_max_str_digits()  # 4300 unless configured otherwise
    # each refused string's one wording, which quotes at most QUOTE_CHARS
    # characters of it
    WORDINGS = {
        "long": (
            "x" * 10**6,
            ValueError,
            f"invalid rational token {'x' * QUOTE_CHARS!r}... (1000000 characters) "
            "(expected an integer or p/q)",
        ),
        "zero denominator": ("1/0", ZeroDivisionError, "zero denominator in '1/0'"),
        "digit limit": ("7" * (LIMIT + 1), ValueError, f"integer with more than {LIMIT} digits"),
    }

    @pytest.mark.parametrize("reader", READERS)
    @pytest.mark.parametrize(
        "token", OFF_GRAMMAR_TOKENS + [" 3/4", "3/4 ", "1.5", "1e4000000", "1 2"]
    )
    def test_off_grammar_token_is_refused(self, reader, token):
        with pytest.raises(ValueError, match="invalid rational"):
            self.READERS[reader](token)

    @pytest.mark.parametrize("reader", READERS)
    @pytest.mark.parametrize("case", WORDINGS)
    def test_refused_token_is_worded_briefly(self, reader, case):
        if case == "digit limit" and not self.LIMIT:
            pytest.skip("the interpreter has no int-string digit limit")
        token, error, message = self.WORDINGS[case]
        with pytest.raises(error) as info:
            self.READERS[reader](token)
        assert str(info.value) == message
        assert len(message) < 200

    @pytest.mark.parametrize(
        "rows", [[["3", "-1"], ["+0", "002"]], [[3, "-1"], ["-0", 2]]], ids=["strings", "mixed"]
    )
    def test_integer_strings_convert_in_one_pass(self, monkeypatch, rows):
        # integer strings, alone or among ints, never reach the reader of
        # one value; the document's own reader finds the same matrix
        def refuse(x):
            raise AssertionError(f"{x!r} was read alone")

        monkeypatch.setattr(exactalg, "_ratio", refuse)
        m = RationalMatrix(rows)
        assert (m.denominator, m.integer_rows) == (1, ((3, -1), (0, 2)))
        assert all(type(x) is int for row in m.integer_rows for x in row)
        assert m == RationalMatrix([[3, -1], [0, 2]])
        assert parse_matrix_document(json.dumps(rows)) == m

    def test_an_exponent_is_refused_before_its_integer_is_built(self):
        # int() or Fraction() of this builds a 13-million-bit integer
        start = time.perf_counter()
        with pytest.raises(ValueError, match="invalid rational"):
            RationalMatrix([["1e4000000"]])
        elapsed = time.perf_counter() - start
        assert elapsed < 0.1, f"took {elapsed:.3f} s"

    @pytest.mark.parametrize("token", ["+7", "-0", "12/8", "007/010", "-3/4"])
    def test_token_reads_as_the_document_reads_it(self, token):
        p, q = read_token(token)
        assert RationalMatrix([[token]]).entries == ((Fraction(p, q),),)

    @pytest.mark.parametrize("reader", READERS)
    @pytest.mark.parametrize("value", [Decimal("1.5"), 1 + 0j, None], ids=repr)
    def test_other_types_are_refused_by_name(self, reader, value):
        with pytest.raises(TypeError, match=type(value).__name__):
            self.READERS[reader](value)

    def test_a_fixed_width_integer_is_read_as_a_python_int(self):
        # an int64 numerator kept as given wraps when scaled by the lcm 2
        np = pytest.importorskip("numpy")
        m = RationalMatrix([[np.int64(2**62), "1/2"], [0, 1]])
        assert m.integer_rows == ((2**63, 1), (0, 2))
        assert all(type(x) is int for row in m.integer_rows for x in row)

    @given(st.text("0123456789+-/_ .ex\u0661\uff11", min_size=1, max_size=6))
    @example("1/0")
    @example("1_0")
    @example("-12/8")
    def test_library_accepts_exactly_what_the_document_accepts(self, token):
        # the value read, or the message of the refusal
        reading = read_token(token)
        try:
            ((value,),) = RationalMatrix([[token]]).entries
        except (ValueError, ZeroDivisionError) as exc:
            value = str(exc)
        assert value == (reading if isinstance(reading, str) else Fraction(*reading))


@given(st.lists(rationals, max_size=5).map(RationalPolynomial), square_matrices())
@example(poly(), RationalMatrix([["1/2", 3], [0, "-2/3"]]))
@example(poly("5/3"), RationalMatrix([["1/2", 3], [0, "-2/3"]]))
@example(poly(1, "-1/2", 0, "2/5", 3), RationalMatrix([["1/2", 3], ["1/3", "-2/3"]]))
def test_evaluate_at_matrix_matches_sum_of_powers(p, a):
    # the sum of c_k A^k on Fraction rows
    entries = a.entries
    expected = [[Fraction(0)] * a.n for _ in range(a.n)]
    power = RationalMatrix.identity(a.n).entries
    for c in p.coefficients:
        expected = [[x + c * y for x, y in zip(r, s)] for r, s in zip(expected, power)]
        power = [[sum(x * y for x, y in zip(row, col)) for col in zip(*entries)] for row in power]
    assert evaluate_at_matrix(p, a) == RationalMatrix(expected)


class TestCharPoly:
    def test_rotation(self):
        a = RationalMatrix([[0, -1], [1, 0]])
        assert char_poly(a) == poly(1, 0, 1)

    def test_one_by_one(self):
        assert char_poly(RationalMatrix([[2]])) == poly(-2, 1)

    def test_companion_matrix_refuses_non_monic(self):
        with pytest.raises(ValueError, match="monic"):
            companion_matrix(poly(1, 2))

    def test_companion_of_cubic(self):
        p = poly(5, -2, 0, 1)
        assert char_poly(companion_matrix(p)) == p

    @given(monic_polynomials())
    def test_companion_matrices_recover_their_polynomial(self, p):
        assert char_poly(companion_matrix(p)) == p

    @given(square_matrices())
    def test_monic_of_degree_n(self, a):
        c = char_poly(a)
        assert c.coefficients[-1] == 1
        assert c.degree == a.n

    @given(square_matrices(max_n=4))
    def test_matches_cofactor_oracle(self, a):
        assert char_poly(a) == char_poly_cofactor(a)

    def test_matches_cofactor_oracle_n5(self):
        rng = random.Random(11)
        for _ in range(10):
            a = random_rational_matrix(rng, 5)
            assert char_poly(a) == char_poly_cofactor(a)

    @given(square_matrices())
    def test_cayley_hamilton(self, a):
        assert evaluate_at_matrix(char_poly(a), a).is_zero()


class TestMinPoly:
    def test_identity(self):
        assert min_poly(RationalMatrix.identity(2)) == poly(-1, 1)

    def test_nilpotent(self):
        a = RationalMatrix([[0, 1], [0, 0]])
        assert min_poly(a) == poly(0, 0, 1)

    def test_distinct_diagonal(self):
        a = RationalMatrix([[1, 0], [0, 2]])
        assert min_poly(a) == poly(2, -3, 1)

    def test_repeated_diagonal_drops_degree(self):
        a = RationalMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 2]])
        assert min_poly(a) == poly(2, -3, 1)

    @given(square_matrices())
    def test_divides_char_poly_and_annihilates(self, a):
        m = min_poly(a)
        assert m.coefficients[-1] == 1
        assert (char_poly(a) % m).is_zero()
        assert evaluate_at_matrix(m, a).is_zero()

    @given(monic_polynomials())
    def test_companion_matrix_is_nonderogatory(self, p):
        # a companion matrix is cyclic, so its minimal polynomial is
        # exactly its defining polynomial even with repeated factors
        assert min_poly(companion_matrix(p)) == p

    @given(monic_polynomials(max_degree=3), monic_polynomials(max_degree=3))
    def test_direct_sum_takes_lcm(self, p, q):
        a = RationalMatrix.block_diagonal(
            [companion_matrix(p), companion_matrix(q)]
        )
        lcm, rest = divmod(product(p, q), polynomial_gcd(p, q))
        assert rest.is_zero()
        assert min_poly(a) == lcm


class TestAgainstFractionOracles:
    """char_poly and min_poly against Faddeev-LeVerrier and flattened
    matrix powers, both in Fraction arithmetic, for n <= 12."""

    @staticmethod
    def assert_agrees(a):
        assert char_poly(a) == char_poly_faddeev_leverrier(a)
        assert min_poly(a) == min_poly_flattened_powers(a)

    def test_oracles_run_no_library_arithmetic(self, monkeypatch):
        # the oracles must not share the arithmetic they are checked against
        def refuse(*args):
            raise AssertionError("an oracle ran invsub arithmetic")

        for owner, name in [
            (exactalg, "_mul"),
            (exactalg, "_divide"),
            (exactalg, "_horner"),
            (exactalg, "_Elimination"),
            (exactalg, "_krylov"),
            (exactalg, "_lifted"),
            (exactalg, "_primes"),
            (exactalg, "_rescaled"),
            (exactalg, "_span"),
            (exactalg, "_product"),
            (exactalg, "_bound"),
            (exactalg, "_mu"),
            (RationalMatrix, "__mul__"),
            (RationalPolynomial, "__divmod__"),
            (RationalPolynomial, "__mod__"),
        ]:
            monkeypatch.setattr(owner, name, refuse)
        a = RationalMatrix([["1/2", 3, 0], [-1, "2/3", 1], [0, 1, "-5/4"]])
        p = product(power(poly(-1, 1), 2), poly(1, 0, 1))
        results = (
            char_poly_cofactor(a),
            char_poly_faddeev_leverrier(a),
            min_poly_flattened_powers(a),
            squarefree_factors(p),
            squarefree_part(p),
            polynomial_gcd(p, poly(-1, 1)),
            char_poly_bareiss(a),
            min_poly_bareiss(a),
        )
        monkeypatch.undo()
        assert results == (
            char_poly(a),
            char_poly(a),
            min_poly(a),
            ((poly(1, 0, 1), 1), (poly(-1, 1), 2)),
            product(poly(-1, 1), poly(1, 0, 1)),
            poly(-1, 1),
            char_poly(a),
            min_poly(a),
        )

    def test_dense_rational_matrices(self):
        rng = random.Random(31)
        for n in range(1, 11):
            for _ in range(3):
                a = random_rational_matrix(rng, n)
                if n > 1:
                    assert any(x.denominator > 1 for row in a.entries for x in row)
                self.assert_agrees(a)

    def test_large_denominators(self):
        rng = random.Random(37)
        for n in (2, 5, 8):
            a = RationalMatrix(
                [
                    [Fraction(rng.randint(-50, 50), rng.randint(1, 97)) for _ in range(n)]
                    for _ in range(n)
                ]
            )
            self.assert_agrees(a)

    def test_derogatory_direct_sums_of_companions(self):
        rng = random.Random(41)
        cases = [
            (poly(-2, 1), poly(-2, 1)),
            (poly(1, 0, 1), poly(1, 0, 1), poly(3, 1)),
            (power(poly(-1, 1), 2), poly(-1, 1)),
            (poly(2, -3, 1), product(poly(2, -3, 1), poly(Fraction(1, 2), 1))),
            (power(poly(1, 0, 1), 2), poly(1, 0, 1), power(poly(Fraction(-5, 3), 1), 3)),
        ]
        for factors in cases:
            a = RationalMatrix.block_diagonal([companion_matrix(p) for p in factors])
            p = random_invertible_matrix(rng, a.n)
            for matrix in (a, p.inverse() * a * p):
                self.assert_agrees(matrix)
                assert min_poly(matrix).degree < matrix.n

    def test_derogatory_sums_that_need_three_or_more_chains(self):
        # every Krylov space of C(p)+C(p)+C(p) has dimension at most
        # deg p, so the elimination runs at least three chains, and each
        # chain after the first back-substitutes against a nonempty basis
        rng = random.Random(47)
        quadratic, cubic = poly(1, 0, 1), product(power(poly(-2, 1), 2), poly(Fraction(1, 3), 1))
        cases = [
            (quadratic,) * 3,
            (cubic,) * 3,
            (poly(5, 1),) * 4 + (quadratic,),
            (quadratic, cubic, quadratic, cubic),
            (cubic, product(cubic, poly(-1, 1)), cubic),
            (power(poly(1, 1, 1), 2),) * 3,
        ]
        for factors in cases:
            a = RationalMatrix.block_diagonal([companion_matrix(p) for p in factors])
            p = random_invertible_matrix(rng, a.n)
            for matrix in (a, p.inverse() * a * p):
                self.assert_agrees(matrix)

    def test_sparse_matrices(self):
        # mostly zero entries leave zeros in pivot rows, where a Bareiss
        # step subtracts nothing and only rescales the live rows
        rng = random.Random(43)
        for n in range(2, 11):
            for density in (0.1, 0.25):
                for _ in range(3):
                    a = RationalMatrix(
                        [
                            [random_fraction(rng) if rng.random() < density else 0 for _ in range(n)]
                            for _ in range(n)
                        ]
                    )
                    self.assert_agrees(a)

    def test_unconjugated_real_jordan_forms(self):
        for n in range(1, 7):
            for config in enumerate_configs(n):
                self.assert_agrees(realize_config(config))
        # shared roots: derogatory real Jordan forms
        for blocks in (
            [standard_jordan_block(2, 3), standard_jordan_block(2, 1), standard_jordan_block(2, 2)],
            [real_jordan_block(1, 2, 2), real_jordan_block(1, 2, 1), standard_jordan_block(0, 2)],
            [real_jordan_block(0, 1, 1)] * 3 + [standard_jordan_block(Fraction(1, 2), 1)] * 2,
        ):
            self.assert_agrees(RationalMatrix.block_diagonal(blocks))

    def test_permutation_matrices(self):
        rng = random.Random(53)
        for n in range(1, 11):
            for _ in range(4):
                image = list(range(n))
                rng.shuffle(image)
                self.assert_agrees(
                    RationalMatrix([[int(image[i] == j) for j in range(n)] for i in range(n)])
                )

    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_first_start_vector_is_an_eigenvector(self, n):
        # the first dense start vector spans an eigenline, so only the
        # later start vectors reveal the rest
        for m in (jordan(2, n), RationalMatrix.block_diagonal([jordan(5, 1), jordan(5, n - 1)])):
            self.assert_agrees(moved_to_dense_start_vectors(m, 1))

    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_both_dense_start_vectors_in_one_invariant_plane(self, n):
        # e_1 and e_2 span an invariant plane of each m, so the dense
        # start vectors span one of the conjugate, and only the unit
        # vectors that end the walk reveal the rest
        for m in (
            jordan(2, n),
            RationalMatrix.block_diagonal([jordan(5, 2), jordan(-1, n - 2)]),
            RationalMatrix.block_diagonal([jordan(5, 1), jordan(5, 1), jordan(5, n - 2)]),
        ):
            self.assert_agrees(moved_to_dense_start_vectors(m, 2))

    @pytest.mark.parametrize("n", [1, 2, *range(4, 13)])
    @pytest.mark.parametrize("c", [Fraction(0), Fraction(3), Fraction(-7, 4)])
    def test_scalar_matrices(self, n, c):
        a = scalar_matrix(n, c)
        self.assert_agrees(a)
        assert char_poly(a) == power(poly(-c, 1), n)
        assert min_poly(a) == poly(-c, 1)

    @pytest.mark.parametrize("n", range(4, 13))
    def test_derogatory_families(self, n):
        # the cofactor r of char_poly = mu r comes from the CRT; the
        # fraction-free Krylov elimination is a third route
        for a in derogatory_matrices(n):
            assert min_poly(a).degree < n
            self.assert_agrees(a)
            assert char_poly(a) == char_poly_bareiss(a)

    @pytest.mark.parametrize("n", range(4, 9))
    def test_derogatory_families_against_sympy(self, sympy, n):
        for a in derogatory_matrices(n):
            m = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in a.entries])
            coefficients = reversed(m.charpoly().all_coeffs())
            assert char_poly(a) == RationalPolynomial(Fraction(int(c.p), int(c.q)) for c in coefficients)

    @pytest.mark.parametrize("entry", [0, 5, -3, Fraction(2, 9), Fraction(-11, 6)])
    def test_one_by_one(self, entry):
        a = RationalMatrix([[entry]])
        self.assert_agrees(a)
        assert min_poly(a) == char_poly(a) == poly(-entry, 1)


SMALL_PRIMES = (2, 3, 5, 7, 11, 13)


def start_at_small_primes(monkeypatch):
    # small primes divide minors of these inputs often, so the lifts
    # meet unlucky primes and must move on to the next one
    primes = exactalg._primes
    monkeypatch.setattr(exactalg, "_primes", lambda: chain(SMALL_PRIMES, primes()))


class TestAgainstFractionOraclesAtSmallPrimes(TestAgainstFractionOracles):
    """Every family above again, with the primes starting at 2, 3, 5,
    7, 11 and 13."""

    @pytest.fixture(autouse=True)
    def small_primes(self, monkeypatch):
        start_at_small_primes(monkeypatch)


class TestUnluckyPrimes:
    # the chain of the first dense start vector v ends mod 3 after four
    # vectors, at B^4 v = B v + B^3 v mod 3, while the minimal polynomial
    # of v has degree 5: the residual of that relation is zero mod 3 but
    # not over Z, so its lift fails.  Every prime up to 13 is unlucky
    # for this chain, and 17 is the first lucky one
    B = RationalMatrix(
        [
            [9, -20, 19, 12, -21, 0],
            [0, 0, 0, -2, 0, 0],
            [0, 20, -10, -12, 21, 0],
            [0, 1, 0, 2, 0, 0],
            [0, 11, 0, 2, 11, 0],
            [0, 0, 0, 0, 0, 9],
        ]
    )
    MU = poly(1980, -2182, 1172, -79, -12, 1)

    def test_pinned_minimal_polynomial(self, monkeypatch):
        assert min_poly(self.B) == self.MU == min_poly_flattened_powers(self.B)
        start_at_small_primes(monkeypatch)
        assert min_poly(self.B) == self.MU
        assert char_poly(self.B) == char_poly_faddeev_leverrier(self.B)

    def test_zero_mod_p_is_not_zero(self):
        rows = self.B.integer_rows
        assert exactalg._minimal(rows, 3) is None
        assert exactalg._rescaled(exactalg._minimal(rows, 17), 1) == self.MU

    def test_a_later_vector_zero_mod_p_is_not_zero(self, monkeypatch):
        # B = 2I + 3 e_1 w^T with w = (-18, 27, -4) orthogonal to the
        # first dense start vector v = (967, 1142, 3357): B v = 2v, so
        # the first chain lifts mod 3 to mu = x - 2, and for the second,
        # u = (2736, 1574, 2547), mu(B) u = 3 (w . u) e_1 = (-50814, 0, 0)
        # is zero mod 3, so its chain is empty mod 3, but not zero over Z
        v, u = dense_start_vectors(3)
        assert sum(x * y for x, y in zip([-18, 27, -4], v)) == 0
        rows = [[-52, 81, -12], [0, 2, 0], [0, 0, 2]]
        assert exactalg._horner([-2, 1], rows, u) == [-50814, 0, 0]
        assert exactalg._minimal(rows, 3) is None
        b, mu = RationalMatrix(rows), poly(-104, 50, 1)
        assert min_poly(b) == mu == min_poly_flattened_powers(b)
        start_at_small_primes(monkeypatch)
        assert min_poly(b) == mu

    def test_first_prime_unlucky(self):
        # B = diag(0, p) is 0 mod the first prime p, so the chain of the
        # first dense start vector stops after one vector there, while
        # its minimal polynomial over Q is x (x - p)
        p = next(exactalg._primes())
        b = RationalMatrix([[0, 0], [0, p]])
        assert exactalg._minimal([[0, 0], [0, p]], p) is None
        assert min_poly(b) == char_poly(b) == poly(0, -p, 1)


class TestKrylovWork:
    """The walk over the start vectors enters no chain once the span is
    full: the chains and Horner passes that min_poly and char_poly run,
    counted through the module bindings.  char_poly = mu r runs
    min_poly's walk first, then one walk per CRT prime for r."""

    @staticmethod
    def work(monkeypatch, compute, a):
        # (prime, start vector) of every Krylov chain, and the Horner passes
        chains, passes = [], []
        krylov, horner = exactalg._krylov, exactalg._horner
        monkeypatch.setattr(
            exactalg, "_krylov", lambda b, x, lu: chains.append((lu.p, x)) or krylov(b, x, lu)
        )
        monkeypatch.setattr(exactalg, "_horner", lambda *args: passes.append(args) or horner(*args))
        compute(a)
        monkeypatch.undo()
        return chains, len(passes)

    @classmethod
    def crt_chains(cls, monkeypatch, a):
        # char_poly's chains after min_poly's, which it must begin with,
        # chain for chain and pass for pass, and add no Horner pass
        minimal = cls.work(monkeypatch, min_poly, a)
        chains, passes = cls.work(monkeypatch, char_poly, a)
        assert (chains[: len(minimal[0])], passes) == minimal
        return chains[len(minimal[0]):]

    @pytest.mark.parametrize(
        "a",
        [companion_matrix(poly(5, -1, 0, 3, 2, 1)), random_rational_matrix(random.Random(12), 12)],
        ids=["companion", "dense"],
    )
    def test_a_cyclic_first_vector_takes_one_chain(self, monkeypatch, a):
        # a nonderogatory matrix: char_poly adds nothing to min_poly's walk
        first, _ = dense_start_vectors(a.n)
        assert self.work(monkeypatch, min_poly, a) == ([(next(exactalg._primes()), first)], 0)
        assert self.crt_chains(monkeypatch, a) == []

    @pytest.mark.parametrize(
        "a, starts",
        [
            (RationalMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 2]]), [*dense_start_vectors(3)]),
            (scalar_matrix(3, 3), [*dense_start_vectors(3), [1, 0, 0]]),
            (
                RationalMatrix.block_diagonal([companion_matrix(poly(1, 1, 1))] * 2),
                [*dense_start_vectors(4)],
            ),
            (moved_to_dense_start_vectors(jordan(2, 4), 2), [*dense_start_vectors(4), [1, 0, 0, 0]]),
        ],
        ids=["diag(1,1,2)", "3I", "derogatory sum", "both dense in a plane"],
    )
    def test_no_start_vector_after_the_span_is_full(self, monkeypatch, a, starts):
        # min_poly: one span chain per start vector that extends the
        # span, and one Horner pass and chain of mu(B) v after the first.
        # char_poly then: one chain per such start vector and CRT prime,
        # starting at the start vector itself, and none for the Jordan
        # block, which is nonderogatory
        chains, passes = self.work(monkeypatch, min_poly, a)
        assert [x for _, x in chains[:1] + chains[1::2]] == starts
        assert len(chains) == 2 * len(starts) - 1 and passes == len(starts) - 1
        crt = self.crt_chains(monkeypatch, a)
        primes = list(dict.fromkeys(p for p, _ in crt))
        assert crt == [(p, x) for p in primes for x in starts]
        assert bool(primes) == (min_poly(a).degree < a.n)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_conjugated_realizations_take_one_chain_two_factor_sums_three(self, monkeypatch, n):
        # min_poly: one chain for a nonderogatory matrix; for two
        # invariant factors, the chain of the first dense vector, that of
        # the second, and one Horner pass and chain of mu(B) v.  char_poly
        # adds nothing to the first, and for the second, both dense
        # vectors' chains per CRT prime
        rng = random.Random(n)
        dense = [*dense_start_vectors(n)]
        for family, count in ((conjugated_realizations, 1), (conjugated_two_factor_sums, 2)):
            for a in family(rng, n):
                chains, passes = self.work(monkeypatch, min_poly, a)
                assert (len(chains), passes) == (2 * count - 1, count - 1)
                crt = self.crt_chains(monkeypatch, a)
                primes = list(dict.fromkeys(p for p, _ in crt))
                assert crt == [(p, x) for p in primes for x in dense]
                assert bool(primes) == (count == 2)


def test_primes_descend_through_every_prime_below_2_to_the_30():
    def is_prime(m):
        return all(m % d for d in range(3, isqrt(m) + 1, 2))

    primes = list(islice(exactalg._primes(), 40))
    assert primes[0] == 2**30 - 35
    assert not any(is_prime(m) for m in range(2**30 - 33, 2**30, 2))
    odd = range(primes[-1], primes[0] + 1, 2)
    assert primes == [m for m in reversed(odd) if is_prime(m)]


class TestAgainstBareissOracle:
    """char_poly and min_poly against the fraction-free Krylov
    elimination over Z, at sizes the Fraction oracles cannot reach."""

    @staticmethod
    def assert_agrees(a):
        assert char_poly(a) == char_poly_bareiss(a)
        assert min_poly(a) == min_poly_bareiss(a)

    def test_seeded_dense_matrices(self):
        for n in range(12, 33):
            self.assert_agrees(random_rational_matrix(random.Random(n), n))

    def test_conjugated_derogatory_sums_with_three_or_more_chains(self):
        rng = random.Random(59)
        quadratic, cubic = poly(1, 0, 1), product(power(poly(-2, 1), 2), poly(Fraction(1, 3), 1))
        quartic = product(poly(3, 1), poly(-2, 0, 1), poly(Fraction(-1, 2), 1))
        cases = [
            (cubic,) * 4,
            (quadratic, cubic, quadratic, cubic, quartic),
            (quartic,) * 3 + (poly(-3, 1),) * 4,
            (product(cubic, quadratic), cubic, quadratic, quartic, quartic),
            (power(poly(1, 1, 1), 2),) * 6,
        ]
        for factors in cases:
            a = RationalMatrix.block_diagonal([companion_matrix(p) for p in factors])
            assert 12 <= a.n <= 24
            p = random_invertible_matrix(rng, a.n)
            matrix = p.inverse() * a * p
            self.assert_agrees(matrix)
            assert min_poly(matrix).degree < matrix.n

    def test_dense_n48(self):
        self.assert_agrees(random_rational_matrix(random.Random(48), 48))


class TestMetamorphic:
    """Relations the polynomials of A keep under the transpose, scaling,
    similarity and shifts, on dense and derogatory inputs."""

    @staticmethod
    def inputs():
        rng = random.Random(61)
        yield from (random_rational_matrix(rng, n) for n in (3, 7, 12))
        quadratic = poly(Fraction(1, 2), 0, 1)
        for factors in ((quadratic,) * 3, (quadratic, product(quadratic, poly(2, 1)), poly(2, 1))):
            a = RationalMatrix.block_diagonal([companion_matrix(p) for p in factors])
            p = random_invertible_matrix(rng, a.n)
            yield p.inverse() * a * p

    def test_transpose(self):
        for a in self.inputs():
            t = RationalMatrix(zip(*a.entries))
            assert (min_poly(t), char_poly(t)) == (min_poly(a), char_poly(a))

    @pytest.mark.parametrize("k", [Fraction(3), Fraction(-2, 5)])
    def test_scaling(self, k):
        # the polynomial of kA is k^deg p(x / k)
        for a in self.inputs():
            ka = RationalMatrix([[k * x for x in row] for row in a.entries])
            for f in (min_poly, char_poly):
                p = f(a)
                assert f(ka) == RationalPolynomial(
                    c * k ** (p.degree - i) for i, c in enumerate(p.coefficients)
                )

    def test_similarity(self):
        rng = random.Random(67)
        for a in self.inputs():
            p = random_invertible_matrix(rng, a.n)
            b = p.inverse() * a * p
            assert (min_poly(b), char_poly(b)) == (min_poly(a), char_poly(a))

    @pytest.mark.parametrize("c", [Fraction(4), Fraction(-7, 3)])
    def test_shift(self, c):
        # the polynomial of A + cI is p(x - c)
        for a in self.inputs():
            shifted = RationalMatrix(
                [[x + c * (i == j) for j, x in enumerate(row)] for i, row in enumerate(a.entries)]
            )
            for f in (min_poly, char_poly):
                assert f(shifted) == substitute(f(a), poly(-c, 1))


def test_min_poly_dense_n64_within_budget():
    # Bareiss took about 3 s here, the modular route well under 1 s:
    # bit growth like n^4 again would miss the budget
    a = random_rational_matrix(random.Random(64), 64)
    start = time.perf_counter()
    m = min_poly(a)
    elapsed = time.perf_counter() - start
    assert m.degree == 64
    assert elapsed < 3.0, f"took {elapsed:.2f} s"


def rebuilt(lead: Fraction, factors) -> RationalPolynomial:
    """lead * prod g^m over the (g, m) pairs of a decomposition."""
    return product(poly(lead), *(power(g, multiplicity) for g, multiplicity in factors))


class TestSquarefreeDecompose:
    """The Fraction Yun oracle that squarefree_root_counts is checked
    against: monic, squarefree, pairwise coprime factors by increasing
    multiplicity that multiply back to p."""

    def test_double_root(self):
        p = product(power(poly(-1, 1), 2), poly(2, 1))
        assert squarefree_factors(p) == ((poly(2, 1), 1), (poly(-1, 1), 2))

    def test_already_squarefree(self):
        assert squarefree_factors(poly(1, 0, 1)) == ((poly(1, 0, 1), 1),)

    def test_squared_quadratic(self):
        assert squarefree_factors(power(poly(1, 0, 1), 2)) == ((poly(1, 0, 1), 2),)

    def test_rejects_constants(self):
        for p in (poly(1), poly()):
            with pytest.raises(ValueError):
                squarefree_factors(p)

    def test_runs_no_production_division(self, monkeypatch):
        # the oracle must not share the pseudo-division it is checked against
        def refuse(*args):
            raise AssertionError("the oracle ran exactalg._divide")

        monkeypatch.setattr(exactalg, "_divide", refuse)
        p = product(power(poly(-1, 1), 2), poly(1, 0, 1))
        assert squarefree_factors(p) == ((poly(1, 0, 1), 1), (poly(-1, 1), 2))

    @given(nonzero_polynomials.filter(lambda p: p.degree >= 1))
    def test_reconstruction(self, p):
        assert rebuilt(p.coefficients[-1], squarefree_factors(p)) == p

    @given(
        st.lists(
            st.tuples(monic_polynomials(max_degree=2), st.integers(1, 3)),
            min_size=1,
            max_size=3,
        )
    )
    @settings(max_examples=40)
    def test_structure_on_built_products(self, pieces):
        p = rebuilt(Fraction(1), pieces)
        factors = squarefree_factors(p)
        assert rebuilt(Fraction(1), factors) == p
        multiplicities = [m for _, m in factors]
        assert multiplicities == sorted(multiplicities)
        assert len(set(multiplicities)) == len(multiplicities)
        for factor, _ in factors:
            assert squarefree_factors(factor) == ((factor, 1),)
        for i, (f, _) in enumerate(factors):
            for g, _ in factors[i + 1 :]:
                assert polynomial_gcd(f, g).degree == 0


class TestCountRealRoots:
    @pytest.mark.parametrize(
        "coefficients, expected",
        [
            ((1, 0, 1), 0),
            ((-2, 0, 1), 2),
            ((0, -1, 0, 1), 3),
            ((-1, 1), 1),
            ((0, 1), 1),
            ((1, 3), 1),
            # remainder sequences that skip degrees: 4, 3, 0; 5, 4, 1, 0;
            # and 12, 11, 8, 7, 4, 3, 0
            ((1, 0, 0, 0, 1), 0),
            ((0, -1, 0, 0, 0, 1), 3),
            ((1,) + (0,) * 7 + (-1, 0, 0, 0, 1), 0),
        ],
    )
    def test_goldens(self, coefficients, expected):
        assert count_real_roots(poly(*coefficients)) == expected

    def test_rejects_repeated_roots(self):
        with pytest.raises(ValueError):
            count_real_roots(power(poly(-1, 1), 2))

    def test_rejects_constants(self):
        with pytest.raises(ValueError):
            count_real_roots(poly(1))

    @given(nonzero_polynomials.filter(lambda p: p.degree >= 1))
    def test_parity_and_range_on_squarefree_part(self, p):
        squarefree = squarefree_part(p)
        roots = count_real_roots(squarefree)
        assert 0 <= roots <= squarefree.degree
        assert roots % 2 == squarefree.degree % 2


integer_polynomials = (
    st.lists(st.integers(-6, 6), min_size=2, max_size=4)
    .map(RationalPolynomial)
    .filter(lambda g: g.degree >= 1)
)


@st.composite
def factored_products(draw) -> RationalPolynomial:
    """prod g_i^(m_i) over random squarefree integer factors g_i."""
    pieces = draw(
        st.lists(st.tuples(integer_polynomials, st.integers(1, 5)), min_size=1, max_size=4)
    )
    return product(*(power(squarefree_part(g), multiplicity) for g, multiplicity in pieces))


def composed_root_counts(p: RationalPolynomial) -> tuple:
    """squarefree_root_counts through the Fraction Yun oracle and
    count_real_roots, one Sturm chain per factor."""
    return tuple((m, g.degree, count_real_roots(g)) for g, m in squarefree_factors(p))


def substitute(p: RationalPolynomial, q: RationalPolynomial) -> RationalPolynomial:
    """p(q(x)) by Horner's rule."""
    out = poly()
    for c in reversed(p.coefficients):
        low, *high = product(out, q).coefficients or (Fraction(0),)
        out = poly(low + c, *high)
    return out


class TestSquarefreeRootCounts:
    """The remainder sequences of the gcd tower f, gcd(f, f'), ...
    against Yun and Sturm run one after the other, against sympy, and
    under substitutions that keep root multiplicities and real roots."""

    @pytest.mark.parametrize(
        "p, expected",
        [
            (poly(-2, 1), ((1, 1, 1),)),
            (poly(1, 0, 1), ((1, 2, 0),)),
            (product(poly(-2, 0, 1), poly(1, 0, 1), poly(5, 1)), ((1, 5, 3),)),
            (power(poly(-1, 1), 2), ((2, 1, 1),)),
            (
                product(power(poly(-1, 1), 2), power(poly(1, 0, 1), 3), poly(-2, 1), poly(5, 1)),
                ((1, 2, 2), (2, 1, 1), (3, 2, 0)),
            ),
            (product(power(poly(1, 0, 1), 2), power(poly(-3, 0, 1), 2)), ((2, 4, 2),)),
            (poly(0, 0, 0, 7), ((3, 1, 1),)),
            # a multiplicity gap: levels 1 to 3 of the gcd tower are alike
            (product(poly(-1, 1), power(poly(1, 0, 1), 4)), ((1, 1, 1), (4, 2, 0))),
            # real and complex roots leaving at one level
            (
                product(power(poly(-2, 1), 3), power(poly(2, 0, 1), 3), poly(1, 1)),
                ((1, 1, 1), (3, 3, 1)),
            ),
            (
                product(poly(-6), power(poly(-1, 1), 2), power(poly(3, 1), 5)),
                ((2, 1, 1), (5, 1, 1)),
            ),
        ],
    )
    def test_goldens(self, p, expected):
        assert squarefree_root_counts(p) == expected
        assert composed_root_counts(p) == expected

    def test_rejects_constants(self):
        with pytest.raises(ValueError):
            squarefree_root_counts(poly(1))
        with pytest.raises(ValueError):
            squarefree_root_counts(poly())

    @given(factored_products())
    @settings(max_examples=150)
    def test_matches_yun_then_sturm(self, p):
        if p.degree < 1:
            return
        counts = squarefree_root_counts(p)
        assert counts == composed_root_counts(p)
        assert sum(m * degree for m, degree, _ in counts) == p.degree
        if len(counts) == 1 and counts[0][0] == 1:
            assert count_real_roots(p) == counts[0][2]
        else:
            with pytest.raises(ValueError, match="not squarefree; decompose it first"):
                count_real_roots(p)

    @given(factored_products())
    @settings(max_examples=60)
    def test_matches_sympy(self, sympy, p):
        if p.degree < 1:
            return
        x = sympy.Symbol("x")
        f = sympy.Poly(
            [sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coefficients)],
            x,
            domain="QQ",
        )
        _, factors = f.sqf_list()
        expected = sorted((m, g.degree(), g.count_roots()) for g, m in factors)
        assert list(squarefree_root_counts(p)) == expected

    @given(factored_products(), rationals, st.fractions(min_value=Fraction(1, 7), max_value=9))
    @settings(max_examples=80)
    def test_invariant_under_reflection_shift_and_scaling(self, p, c, k):
        if p.degree < 1:
            return
        counts = squarefree_root_counts(p)
        assert squarefree_root_counts(substitute(p, poly(0, -1))) == counts
        assert squarefree_root_counts(substitute(p, poly(c, 1))) == counts
        assert squarefree_root_counts(product(p, poly(k))) == counts
        assert squarefree_root_counts(product(p, poly(-k))) == counts


class TestSimilarityOfPolynomials:
    def test_char_and_min_poly_are_similarity_invariant(self):
        rng = random.Random(23)
        for _ in range(30):
            n = rng.randint(1, 4)
            a = random_rational_matrix(rng, n)
            p = random_invertible_matrix(rng, n)
            conjugate = p.inverse() * a * p
            assert char_poly(conjugate) == char_poly(a)
            assert min_poly(conjugate) == min_poly(a)
