import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from invsub import analyzer
from invsub.analyzer import (
    SubspaceCount,
    count_invariant_subspaces,
    dimension_profile,
    real_jordan_block,
    realize_config,
    standard_jordan_block,
)
from invsub.exactalg import (
    RationalMatrix,
    RationalPolynomial,
    char_poly,
    count_real_roots,
    min_poly,
    squarefree_root_counts,
)
from invsub.spectrum import (
    BlockConfig,
    attainable_counts,
    count_for_config,
    enumerate_configs,
)

from _oracles import (
    companion_matrix,
    power,
    product,
    random_invertible_matrix,
    random_rational_matrix,
    real_divisor_count,
    squarefree_factors,
    squarefree_part,
)


def poly(*coefficients) -> RationalPolynomial:
    return RationalPolynomial(coefficients)


class TestJordanSignature:
    """A signature is a :class:`BlockConfig`: conjugate-pair
    multiplicities first, then real ones."""

    def test_sorts_multiplicities(self):
        sig = BlockConfig((2, 1), (1, 3, 2))
        assert sig.real_multiplicities == (3, 2, 1)
        assert sig.complex_pair_multiplicities == (2, 1)

    def test_dimension(self):
        assert BlockConfig((2, 1), (3, 2, 1)).n == 12

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            BlockConfig((), (0,))

    def test_block_config_mapping(self):
        config = BlockConfig((1,), (2, 1))
        assert count_invariant_subspaces(realize_config(config)).signature == config


class TestSubspaceCount:
    """The signature is the one stored field; count and profile are
    derived from it."""

    def test_infinite_carries_nothing(self):
        outcome = SubspaceCount()
        assert not outcome.is_finite
        assert outcome.count is None
        assert outcome.signature is None
        assert outcome.profile is None

    def test_count_and_profile_follow_the_signature_through_n8(self):
        total = 0
        for n in range(1, 9):
            for config in enumerate_configs(n):
                total += 1
                outcome = SubspaceCount(config)
                assert outcome.is_finite
                assert outcome.profile == dimension_profile(config)
                assert outcome.count == count_for_config(config) == sum(outcome.profile)
                assert count_invariant_subspaces(realize_config(config)) == outcome
        assert total == 137

    @pytest.mark.parametrize(
        "arguments", [(7,), ((1,), (1, 1)), (((), (1,)),)], ids=["int", "two tuples", "pair"]
    )
    def test_rejects_a_signature_that_is_not_a_block_config(self, arguments):
        with pytest.raises(TypeError):
            SubspaceCount(*arguments)


class TestJordanBlocks:
    def test_standard_block_entries(self):
        block = standard_jordan_block(Fraction(1), 2)
        assert block == RationalMatrix([[1, 1], [0, 1]])

    def test_standard_block_size_one(self):
        assert standard_jordan_block(Fraction(-2), 1) == RationalMatrix([[-2]])

    def test_real_block_smallest(self):
        block = real_jordan_block(Fraction(0), Fraction(1), 1)
        assert block == RationalMatrix([[0, -1], [1, 0]])

    def test_real_block_size_two_structure(self):
        block = real_jordan_block(Fraction(2), Fraction(3), 2)
        assert block == RationalMatrix(
            [
                [2, -3, 1, 0],
                [3, 2, 0, 1],
                [0, 0, 2, -3],
                [0, 0, 3, 2],
            ]
        )

    def test_real_block_needs_nonzero_imaginary_part(self):
        with pytest.raises(ValueError):
            real_jordan_block(Fraction(1), Fraction(0), 1)

    @pytest.mark.parametrize("size", [True, 2.0, "3", 0])
    def test_rejects_a_size_that_is_not_a_positive_int(self, size):
        with pytest.raises(ValueError, match="dimension must be a positive int"):
            standard_jordan_block(Fraction(1), size)
        with pytest.raises(ValueError, match="dimension must be a positive int"):
            real_jordan_block(Fraction(0), Fraction(1), size)


class TestRealizeConfig:
    def test_single_real_block(self):
        assert realize_config(BlockConfig((), (2,))) == RationalMatrix(
            [[1, 1], [0, 1]]
        )

    def test_single_complex_block(self):
        assert realize_config(BlockConfig((1,), ())) == RationalMatrix(
            [[0, -1], [1, 0]]
        )

    def test_two_real_singletons(self):
        assert realize_config(BlockConfig((), (1, 1))) == RationalMatrix(
            [[1, 0], [0, 2]]
        )

    @given(st.integers(1, 6))
    def test_dimension_and_nonderogatory(self, n):
        for config in enumerate_configs(n):
            matrix = realize_config(config)
            assert matrix.n == n
            assert count_invariant_subspaces(matrix).is_finite


class TestJordanSignatureOfMatrix:
    def test_three_distinct_real_roots(self):
        a = RationalMatrix([[1, 0, 0], [0, 2, 0], [0, 0, 3]])
        sig = count_invariant_subspaces(a).signature
        assert sig.real_multiplicities == (1, 1, 1)
        assert sig.complex_pair_multiplicities == ()

    def test_rotation(self):
        sig = count_invariant_subspaces(RationalMatrix([[0, -1], [1, 0]])).signature
        assert sig.real_multiplicities == ()
        assert sig.complex_pair_multiplicities == (1,)

    def test_mixed_repeated_pair(self):
        # char poly (x^2+1)^2 (x-3): one real root of multiplicity 1,
        # one conjugate pair of multiplicity 2
        p = product(power(poly(1, 0, 1), 2), poly(-3, 1))
        sig = count_invariant_subspaces(companion_matrix(p)).signature
        assert sig.real_multiplicities == (1,)
        assert sig.complex_pair_multiplicities == (2,)

    def test_repeated_real_root(self):
        sig = count_invariant_subspaces(standard_jordan_block(Fraction(5), 3)).signature
        assert sig.real_multiplicities == (3,)
        assert sig.complex_pair_multiplicities == ()

    @given(
        st.lists(
            st.tuples(
                st.lists(st.integers(-5, 5), min_size=1, max_size=2),
                st.integers(1, 3),
            ),
            min_size=1,
            max_size=3,
        )
    )
    @settings(max_examples=60)
    def test_matches_yun_then_sturm(self, pieces):
        # companion matrix of prod g_i^(m_i), g_i monic and made squarefree
        p = product(
            *(power(squarefree_part(poly(*low, 1)), multiplicity) for low, multiplicity in pieces)
        )
        if p.degree < 1:
            return
        real, pairs = [], []
        for g, m in squarefree_factors(p):
            roots = count_real_roots(g)
            real += [m] * roots
            pairs += [m] * ((g.degree - roots) // 2)
        expected = BlockConfig(tuple(pairs), tuple(real))
        assert count_invariant_subspaces(companion_matrix(p)).signature == expected


class TestJordanSignatureAgainstSympy:
    """The analyzer's signature, and on derogatory matrices the root
    counts of the characteristic polynomial, against sympy's charpoly,
    sqf_list and count_roots on each squarefree factor."""

    @staticmethod
    def root_counts(sympy, a: RationalMatrix) -> list[tuple[int, int, int]]:
        """(multiplicity, degree, real roots) per squarefree factor."""
        m = sympy.Matrix(
            [[sympy.Rational(x.numerator, x.denominator) for x in row] for row in a.entries]
        )
        _, factors = m.charpoly().sqf_list()
        return sorted((k, g.degree(), g.count_roots()) for g, k in factors)

    @classmethod
    def expected(cls, sympy, a: RationalMatrix) -> BlockConfig:
        real, pairs = [], []
        for multiplicity, degree, roots in cls.root_counts(sympy, a):
            real += [multiplicity] * roots
            pairs += [multiplicity] * ((degree - roots) // 2)
        return BlockConfig(tuple(pairs), tuple(real))

    def test_random_rational_matrices(self, sympy):
        rng = random.Random(23)
        for _ in range(40):
            a = random_rational_matrix(rng, rng.randint(1, 5))
            assert count_invariant_subspaces(a).signature == self.expected(sympy, a)

    def test_conjugated_realizations(self, sympy):
        rng = random.Random(29)
        for n in range(1, 7):
            for config in enumerate_configs(n):
                p = random_invertible_matrix(rng, n, bound=2)
                a = p.inverse() * realize_config(config) * p
                assert count_invariant_subspaces(a).signature == config
                assert config == self.expected(sympy, a)

    def test_derogatory_block_sums(self, sympy):
        rng = random.Random(31)
        sums = [
            [standard_jordan_block(2, 2), standard_jordan_block(2, 1)],
            [standard_jordan_block(Fraction(-1, 3), 1)] * 3,
            [real_jordan_block(1, 2, 1), real_jordan_block(1, 2, 2)],
            [real_jordan_block(0, 1, 1)] * 2 + [standard_jordan_block(0, 2)],
        ]
        for blocks in sums:
            a = RationalMatrix.block_diagonal(blocks)
            p = random_invertible_matrix(rng, a.n, bound=2)
            for matrix in (a, p.inverse() * a * p):
                assert not count_invariant_subspaces(matrix).is_finite
                counts = squarefree_root_counts(char_poly(matrix))
                assert list(counts) == self.root_counts(sympy, matrix)


class TestIsCountFinite:
    def test_identity_is_derogatory(self):
        assert not count_invariant_subspaces(RationalMatrix.identity(2)).is_finite

    def test_single_jordan_block(self):
        assert count_invariant_subspaces(standard_jordan_block(Fraction(5), 3)).is_finite

    def test_distinct_diagonal(self):
        assert count_invariant_subspaces(RationalMatrix([[1, 0], [0, 2]])).is_finite

    def test_repeated_eigenvalue_across_blocks(self):
        a = RationalMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 2]])
        assert not count_invariant_subspaces(a).is_finite

    @given(st.integers(1, 5))
    def test_agrees_with_min_poly_degree(self, n):
        rng = random.Random(n)
        for _ in range(5):
            a = random_rational_matrix(rng, n)
            assert count_invariant_subspaces(a).is_finite == (min_poly(a).degree == n)


class TestCountInvariantSubspaces:
    def test_identity_infinite(self):
        assert not count_invariant_subspaces(RationalMatrix.identity(2)).is_finite

    def test_single_jordan_block_chain(self):
        outcome = count_invariant_subspaces(standard_jordan_block(Fraction(5), 3))
        assert outcome.count == 4
        assert outcome.profile == (1, 1, 1, 1)

    def test_rotation(self):
        outcome = count_invariant_subspaces(RationalMatrix([[0, -1], [1, 0]]))
        assert outcome.count == 2
        assert outcome.profile == (1, 0, 1)

    def test_shear_plus_identity(self):
        outcome = count_invariant_subspaces(RationalMatrix([[1, 1], [0, 1]]))
        assert outcome.count == 3
        assert outcome.signature.real_multiplicities == (2,)

    def test_calls_min_poly_through_its_module_binding(self, monkeypatch):
        # the benchmark tracer (benchmarks/tracing.py) times min_poly by
        # replacing it in invsub.analyzer, and skips a name that is gone
        # there; so the analysis must look it up in its own module
        calls = []
        original = analyzer.min_poly

        def recording(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(analyzer, "min_poly", recording)
        a = RationalMatrix([[0, -1], [1, 0]])
        assert count_invariant_subspaces(a).count == 2
        assert calls == [(a,)]

    def test_one_by_one(self):
        outcome = count_invariant_subspaces(RationalMatrix([[7]]))
        assert outcome.count == 2
        assert outcome.profile == (1, 1)

    def test_fractional_entries(self):
        a = RationalMatrix(
            [[Fraction(1, 2), Fraction(1, 3)], [Fraction(0), Fraction(3, 4)]]
        )
        outcome = count_invariant_subspaces(a)
        assert outcome.count == 4

    @given(st.integers(1, 6))
    def test_round_trip_matches_config_count(self, n):
        for config in enumerate_configs(n):
            outcome = count_invariant_subspaces(realize_config(config))
            assert outcome.is_finite
            assert outcome.count == count_for_config(config)
            assert outcome.profile == dimension_profile(config)
            assert outcome.signature == config

    def test_finite_count_lies_in_spectrum(self):
        rng = random.Random(42)
        for _ in range(40):
            n = rng.randint(1, 4)
            a = random_rational_matrix(rng, n)
            outcome = count_invariant_subspaces(a)
            if outcome.is_finite:
                assert outcome.count in attainable_counts(n)

    def test_count_matches_real_divisor_oracle(self):
        rng = random.Random(9)
        checked = 0
        for _ in range(60):
            n = rng.randint(1, 5)
            a = random_rational_matrix(rng, n)
            outcome = count_invariant_subspaces(a)
            if not outcome.is_finite:
                continue
            assert outcome.count == real_divisor_count(char_poly(a), count_real_roots)
            checked += 1
        assert checked >= 30

    def test_similarity_invariance_sample(self):
        rng = random.Random(17)
        for _ in range(25):
            n = rng.randint(1, 4)
            a = random_rational_matrix(rng, n)
            p = random_invertible_matrix(rng, n)
            conjugate = p.inverse() * a * p
            base = count_invariant_subspaces(a)
            moved = count_invariant_subspaces(conjugate)
            assert base.is_finite == moved.is_finite
            assert base.count == moved.count
            assert base.signature == moved.signature
            assert base.profile == moved.profile


@st.composite
def analyzable_matrices(draw) -> RationalMatrix:
    """Realized block configurations conjugated to dense form, matrices
    where one root owns two blocks, and random rational matrices."""
    n = draw(st.integers(1, 5))
    rng = random.Random(draw(st.integers(0, 2**32)))
    kind = draw(st.sampled_from(["config", "derogatory", "random"]))
    if kind == "random":
        return random_rational_matrix(rng, n)
    if kind == "config":
        a = realize_config(draw(st.sampled_from(list(enumerate_configs(n)))))
    else:
        root = Fraction(rng.randint(-3, 3))
        a = RationalMatrix.block_diagonal(
            [standard_jordan_block(root, k) for k in (1, rng.randint(1, 3))]
        )
    p = random_invertible_matrix(rng, a.n, bound=2)
    return p.inverse() * a * p


shifts = st.fractions(min_value=-5, max_value=5, max_denominator=7)
nonzero_rationals = shifts.filter(lambda q: q != 0)


def analysis(a: RationalMatrix):
    outcome = count_invariant_subspaces(a)
    return outcome.is_finite, outcome.count, outcome.signature, outcome.profile


class TestMetamorphic:
    """Invariant subspaces of A are those of dA + cI (d != 0), and
    transposition and permutation similarity keep the count, the
    signature and the profile."""

    @given(analyzable_matrices(), nonzero_rationals, shifts)
    @settings(max_examples=60)
    def test_scale_and_shift(self, a, d, c):
        moved = RationalMatrix(
            [d * x + (c if i == j else 0) for j, x in enumerate(row)]
            for i, row in enumerate(a.entries)
        )
        assert analysis(moved) == analysis(a)

    @given(analyzable_matrices())
    @settings(max_examples=60)
    def test_transpose(self, a):
        assert analysis(RationalMatrix(zip(*a.entries))) == analysis(a)

    @given(analyzable_matrices(), st.randoms(use_true_random=False))
    @settings(max_examples=60)
    def test_permutation_similarity(self, a, rng):
        order = list(range(a.n))
        rng.shuffle(order)
        entries = a.entries
        permuted = RationalMatrix([[entries[i][j] for j in order] for i in order])
        assert analysis(permuted) == analysis(a)
