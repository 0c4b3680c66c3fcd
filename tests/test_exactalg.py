import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from invsub import exactalg
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
from invsub.spectrum import enumerate_configs

from _oracles import (
    char_poly_cofactor,
    char_poly_faddeev_leverrier,
    companion_matrix,
    min_poly_flattened_powers,
    _long_division,
    polynomial_gcd,
    power,
    product,
    random_fraction,
    random_invertible_matrix,
    random_rational_matrix,
    squarefree_factors,
    squarefree_part,
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

    def test_singular_inverse_rejected(self):
        with pytest.raises(ValueError, match="singular"):
            RationalMatrix([[1, 2], [2, 4]]).inverse()

    def test_inverse_round_trip_random(self):
        rng = random.Random(7)
        matrices = [random_invertible_matrix(rng, rng.randint(1, 8)) for _ in range(25)]
        # char_poly runs several Krylov chains on these
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
        with pytest.raises(ValueError, match="singular"):
            standard_jordan_block(0, 4).inverse()


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
    matrix powers, both in Fraction arithmetic, for n <= 10."""

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
        )
        monkeypatch.undo()
        assert results == (
            char_poly(a),
            char_poly(a),
            min_poly(a),
            ((poly(1, 0, 1), 1), (poly(-1, 1), 2)),
            product(poly(-1, 1), poly(1, 0, 1)),
            poly(-1, 1),
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
        # S e_1 = (1, 2, ..., n), so the dense start vector spans an
        # eigenline and only the later unit vectors reveal the rest
        s = RationalMatrix(
            [[i + 1 if j == 0 else int(i == j) for j in range(n)] for i in range(n)]
        )

        def jordan(value, size):
            return RationalMatrix(
                [[value if j == i else int(j == i + 1) for j in range(size)] for i in range(size)]
            )

        for m in (jordan(2, n), RationalMatrix.block_diagonal([jordan(5, 1), jordan(5, n - 1)])):
            self.assert_agrees(s * m * s.inverse())

    @pytest.mark.parametrize("n", [1, 2, 5, 10])
    @pytest.mark.parametrize("c", [Fraction(0), Fraction(3), Fraction(-7, 4)])
    def test_scalar_matrices(self, n, c):
        a = scalar_matrix(n, c)
        self.assert_agrees(a)
        assert char_poly(a) == power(poly(-c, 1), n)
        assert min_poly(a) == poly(-c, 1)

    @pytest.mark.parametrize("entry", [0, 5, -3, Fraction(2, 9), Fraction(-11, 6)])
    def test_one_by_one(self, entry):
        a = RationalMatrix([[entry]])
        self.assert_agrees(a)
        assert min_poly(a) == char_poly(a) == poly(-entry, 1)


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
