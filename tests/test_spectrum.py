import hashlib
import random
from decimal import Decimal
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, strategies as st

from invsub import spectrum
from invsub.analyzer import dimension_profile
from invsub.combinatorics import partition_count
from invsub.spectrum import (
    BlockConfig,
    SpectrumSet,
    attainable_counts,
    attainable_counts_bruteforce,
    count_for_config,
    enumerate_configs,
)

from _oracles import attainable_counts_by_dimension, brute_force_profile


@st.composite
def block_configs(draw, max_n: int = 10) -> BlockConfig:
    n = draw(st.integers(1, max_n))
    r = draw(st.integers(0, n // 2))
    s = n - 2 * r
    return BlockConfig(_draw_partition(draw, r), _draw_partition(draw, s))


def _draw_partition(draw, n: int) -> tuple[int, ...]:
    parts = []
    remaining = n
    cap = n
    while remaining > 0:
        part = draw(st.integers(1, min(cap, remaining)))
        parts.append(part)
        cap = part
        remaining -= part
    return tuple(parts)


class TestBlockConfig:
    def test_canonicalizes_part_order(self):
        a = BlockConfig((1, 2), (3, 1, 2))
        b = BlockConfig((2, 1), (1, 2, 3))
        assert a == b
        assert a.complex_pair_multiplicities == (2, 1)
        assert a.real_multiplicities == (3, 2, 1)

    def test_dimension(self):
        assert BlockConfig((2,), (1, 1)).n == 6

    def test_rejects_nonpositive_parts(self):
        with pytest.raises(ValueError):
            BlockConfig((0,), (1,))
        with pytest.raises(ValueError):
            BlockConfig((), (-2,))

    def test_rejects_empty_config(self):
        with pytest.raises(ValueError):
            BlockConfig((), ())

    def test_rejects_bool_parts(self):
        with pytest.raises(ValueError):
            BlockConfig((True,), (2, 1))
        with pytest.raises(ValueError):
            BlockConfig((), (2, True))
        # parts that do not order against ints are refused before sorting
        with pytest.raises(ValueError, match="invalid multiplicities"):
            BlockConfig(("a", 1), ())
        with pytest.raises(ValueError, match="invalid multiplicities"):
            BlockConfig((None, 1), ())

    @given(block_configs(), st.randoms(use_true_random=False))
    def test_count_invariant_under_shuffle(self, config, rng):
        complex_parts = list(config.complex_pair_multiplicities)
        real_parts = list(config.real_multiplicities)
        rng.shuffle(complex_parts)
        rng.shuffle(real_parts)
        shuffled = BlockConfig(tuple(complex_parts), tuple(real_parts))
        assert shuffled == config
        assert count_for_config(shuffled) == count_for_config(config)


class TestCountForConfig:
    @pytest.mark.parametrize(
        "complex_blocks, real_blocks, expected",
        [
            ((), (1, 1, 1, 1), 16),
            ((1,), (2,), 6),
            ((2,), (), 3),
            ((), (4,), 5),
            ((1,), (1, 1), 8),
        ],
    )
    def test_reference_values(self, complex_blocks, real_blocks, expected):
        assert count_for_config(BlockConfig(complex_blocks, real_blocks)) == expected

    @given(block_configs())
    def test_is_product_of_part_plus_one(self, config):
        expected = 1
        parts = config.complex_pair_multiplicities + config.real_multiplicities
        for part in parts:
            expected *= part + 1
        assert count_for_config(config) == expected


class TestDimensionProfile:
    @pytest.mark.parametrize(
        "complex_blocks, real_blocks, expected",
        [
            ((2,), (), (1, 0, 1, 0, 1)),
            ((), (1, 1), (1, 2, 1)),
            ((), (2, 1), (1, 2, 2, 1)),
            ((1,), (), (1, 0, 1)),
        ],
    )
    def test_goldens(self, complex_blocks, real_blocks, expected):
        assert dimension_profile(BlockConfig(complex_blocks, real_blocks)) == expected

    @given(block_configs())
    def test_sums_to_count_and_has_unit_ends(self, config):
        profile = dimension_profile(config)
        assert len(profile) == config.n + 1
        assert sum(profile) == count_for_config(config)
        assert profile[0] == 1
        assert profile[config.n] == 1

    @given(block_configs())
    def test_palindromic(self, config):
        profile = dimension_profile(config)
        assert profile == profile[::-1]

    def test_matches_brute_force_for_all_configs_up_to_7(self):
        for n in range(1, 8):
            for config in enumerate_configs(n):
                assert dimension_profile(config) == brute_force_profile(config)


class TestEnumerateConfigs:
    def test_n4_has_nine(self):
        configs = list(enumerate_configs(4))
        assert len(configs) == 9

    def test_n1(self):
        assert list(enumerate_configs(1)) == [BlockConfig((), (1,))]

    def test_n2_has_three(self):
        assert len(list(enumerate_configs(2))) == 3

    @given(st.integers(1, 10))
    def test_unique_and_consistent(self, n):
        configs = list(enumerate_configs(n))
        assert len(configs) == len(set(configs))
        assert all(config.n == n for config in configs)
        expected = sum(
            partition_count(r) * partition_count(n - 2 * r)
            for r in range(n // 2 + 1)
        )
        assert len(configs) == expected

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            enumerate_configs(0)

    @pytest.mark.parametrize("n", [2.0, True, "3"])
    def test_rejects_a_dimension_that_is_not_an_int(self, n):
        with pytest.raises(ValueError, match="dimension must be a positive int"):
            enumerate_configs(n)


class TestSpectrumSet:
    def test_rejects_unsorted_values(self):
        with pytest.raises(ValueError):
            SpectrumSet(2, (4, 2))

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            SpectrumSet(2, (2, 2, 4))

    def test_rejects_order_violation_in_last_pair(self):
        with pytest.raises(ValueError):
            SpectrumSet(3, (2, 4, 3))
        with pytest.raises(ValueError):
            SpectrumSet(3, (2, 4, 4))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            SpectrumSet(2, ())

    def test_accepts_one_value(self):
        s = SpectrumSet(1, (2,))
        assert s.values == (2,)
        assert 2 in s

    def test_stores_a_list_as_a_tuple(self):
        s = SpectrumSet(4, [3, 4, 5])
        assert s.values == (3, 4, 5)
        assert s == SpectrumSet(4, (3, 4, 5))
        assert hash(s) == hash(SpectrumSet(4, (3, 4, 5)))

    def test_rejects_bool_dimension(self):
        with pytest.raises(ValueError):
            SpectrumSet(True, (2,))

    def test_membership_and_iteration(self):
        s = attainable_counts(4)
        assert 9 in s
        assert 7 not in s
        assert list(s) == [3, 4, 5, 6, 8, 9, 12, 16]
        assert len(s) == 8

    def test_membership_outside_and_between_values(self):
        s = SpectrumSet(5, (4, 6, 8, 10, 12, 16, 18, 24, 32))
        for value in s.values:
            assert value in s
        for value in (-1, 0, 1, 3):
            assert value not in s
        for value in (33, 64, 2**70):
            assert value not in s
        for value in (5, 7, 9, 11, 13, 17, 20, 31):
            assert value not in s

    @given(st.integers(1, 12), st.integers(-5, 5000))
    def test_membership_matches_linear_scan(self, n, value):
        s = attainable_counts(n)
        assert (value in s) == (value in s.values)

    @pytest.mark.parametrize(
        "value",
        ["a", None, [1], (4,), 4 + 0j, 4 + 1j, 4.0, 4.5, float("nan"), True,
         Fraction(4), Fraction(9, 2), Decimal(8)],
        ids=repr,
    )
    def test_membership_of_other_values_agrees_with_a_frozenset(self, value):
        s = attainable_counts(4)
        try:
            expected = value in frozenset(s)
        except TypeError:
            # unhashable: a frozenset refuses to look, and no int equals it
            expected = False
        assert (value in s) is expected


# SHA-256 of ",".join(map(str, attainable_counts(n))), beyond the reach of
# every oracle in the suite
PINNED_DIGESTS = {
    48: "8d533a089fbe0567ea095cf0d86b916bdd38f01cfbcdd0c2e37cdf6c3c51ca66",
    63: "e6cc0183bf520957c73f2af6de22d55bc2c8234687d49f2c5b37515d8bc2644d",
    64: "82eb234d8c1b340ed94bd7d83b7c416452d393eedf9a30de8477731d89256268",
    80: "f6949c415e8f96697147a7d71bec8312cf131b49065bad89043ba93adbeb5e24",
}


class TestAttainableCounts:
    @pytest.mark.parametrize(
        "n, expected",
        [
            (1, (2,)),
            (2, (2, 3, 4)),
            (3, (4, 6, 8)),
            (4, (3, 4, 5, 6, 8, 9, 12, 16)),
        ],
    )
    def test_small_spectra(self, n, expected):
        assert tuple(attainable_counts(n)) == expected
        assert tuple(attainable_counts_bruteforce(n)) == expected

    @given(st.integers(1, 16))
    def test_structural_properties(self, n):
        values = tuple(attainable_counts(n))
        assert values[0] >= 2
        assert values[-1] == 2**n
        assert n + 1 in values

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            attainable_counts(0)
        with pytest.raises(ValueError):
            attainable_counts_bruteforce(0)

    @pytest.mark.parametrize("build", [attainable_counts, attainable_counts_bruteforce])
    @pytest.mark.parametrize("n", [2.0, "3"])
    def test_rejects_a_dimension_that_is_not_an_int(self, build, n):
        with pytest.raises(ValueError, match="dimension must be a positive int"):
            build(n)

    @pytest.mark.parametrize("build", [attainable_counts, attainable_counts_bruteforce])
    def test_rejects_a_bool_before_building(self, build, monkeypatch):
        # True passes n >= 1, so only the type check keeps it from
        # building the spectrum of n = 1
        def no_spectrum(*args):
            raise AssertionError("built a spectrum for a bool dimension")

        monkeypatch.setattr(spectrum, "SpectrumSet", no_spectrum)
        with pytest.raises(ValueError, match="dimension must be a positive int: True"):
            build(True)

    def test_agrees_with_enumerated_configs_up_to_26(self):
        # the reference is M_n by its definition, the counts of every
        # configuration of dimension n
        for n in range(1, 27):
            assert tuple(attainable_counts(n)) == tuple(
                attainable_counts_bruteforce(n)
            )

    def test_agrees_with_full_dimension_recurrence_up_to_46(self):
        oracle = attainable_counts_by_dimension(46)
        for n in range(1, 47):
            assert tuple(attainable_counts(n)) == oracle[n]

    @pytest.mark.parametrize(
        "n, size",
        [
            (24, 1047),
            (25, 1047),
            (26, 1452),
            (27, 1452),
            (28, 1987),
            (29, 1987),
            (30, 2673),
            (31, 2673),
            (32, 3571),
            (40, 10315),
            (48, 26511),
            (63, 113793),
            (64, 137936),
            (80, 574593),
        ],
    )
    def test_pinned_sizes(self, n, size):
        spectrum = attainable_counts(n)
        assert len(spectrum) == size
        if n in PINNED_DIGESTS:
            text = ",".join(map(str, spectrum))
            assert hashlib.sha256(text.encode()).hexdigest() == PINNED_DIGESTS[n]

    @given(st.integers(1, 31), st.data())
    def test_direct_sums_multiply(self, a, data):
        """M_a * M_b lies in M_{a+b}: operators on R^a and R^b can always
        take disjoint roots, and then each invariant subspace of their
        direct sum is the sum of one invariant subspace of each."""
        b = data.draw(st.integers(1, 32 - a))
        spectrum = set(attainable_counts(a + b))
        right = tuple(attainable_counts(b))
        for x in attainable_counts(a):
            assert all(x * y in spectrum for y in right)

    def test_values_are_smooth_up_to_40(self):
        """Every block factor is part + 1 <= n + 1, so every value of M_n
        factors fully over the primes up to n + 1."""
        for n in range(1, 41):
            primes = [p for p in range(2, n + 2) if all(p % q for q in range(2, p))]
            for value in attainable_counts(n):
                for p in primes:
                    while value % p == 0:
                        value //= p
                assert value == 1, n

    def test_largest_powers_of_2_and_3_up_to_40(self):
        """The largest 2-adic valuation in M_n is n (n real 1-blocks) and
        the largest 3-adic valuation is n//2 (n//2 real 2-blocks); the
        builder's bitmask rows rely on both bounds."""

        def valuation(value, p):
            k = 0
            while value % p == 0:
                value //= p
                k += 1
            return k

        for n in range(1, 41):
            values = attainable_counts(n)
            assert max(valuation(v, 2) for v in values) == n
            assert max(valuation(v, 3) for v in values) == n // 2

    @given(st.data())
    def test_adding_a_part_multiplies_by_part_plus_one(self, data):
        n = data.draw(st.integers(2, 24))
        j = data.draw(st.integers(1, n - 1))
        spectrum = attainable_counts(n)
        for m in attainable_counts(n - j):
            assert (j + 1) * m in spectrum
        if 2 * j < n:
            for m in attainable_counts(n - 2 * j):
                assert (j + 1) * m in spectrum

    @given(st.integers(1, 20))
    def test_odd_dimension_doubles_the_even_one(self, k):
        """M_{2k+1} = 2 * M_{2k}.

        Adding a real block of size 1 doubles a count and adds one
        dimension, so 2 * M_{2k} lies in M_{2k+1}.  Conversely, a
        configuration of odd dimension 2k + 1 has odd real total, hence an
        odd real part a.  Replacing a by a real part 1 plus a conjugate
        part (a - 1) / 2 (no conjugate part when a = 1) keeps the
        dimension, 1 + (a - 1) = a, and the factor, 2 * (a + 1) / 2 =
        a + 1.  The new configuration has a real 1-block; dropping it
        leaves dimension 2k and half the count, so M_{2k+1} lies in
        2 * M_{2k}.
        """
        even = tuple(attainable_counts(2 * k))
        odd = tuple(attainable_counts(2 * k + 1))
        assert odd == tuple(2 * m for m in even)

    @given(block_configs(max_n=24))
    def test_trades_reach_units_and_at_most_one_real_one(self, config):
        """Every configuration trades into the shape that
        :func:`attainable_counts` builds, with the same dimension and count.

        An odd real part a >= 3 becomes a real 1-block plus a
        conjugate-pair part (a - 1) / 2; then the real 1-blocks are paired
        into units of dimension 2 and factor 4.
        """
        complex_parts = list(config.complex_pair_multiplicities)
        real_parts = []
        for a in config.real_multiplicities:
            if a % 2 and a >= 3:
                real_parts.append(1)
                complex_parts.append((a - 1) // 2)
            else:
                real_parts.append(a)
        traded = BlockConfig(tuple(complex_parts), tuple(real_parts))
        assert traded.n == config.n
        assert count_for_config(traded) == count_for_config(config)
        assert all(a == 1 or a % 2 == 0 for a in traded.real_multiplicities)

        ones = traded.real_multiplicities.count(1)
        unpaired = ones % 2
        assert unpaired == config.n % 2
        # units as (half-dimension h, factor f in F(h))
        units = [(k, k + 1) for k in traded.complex_pair_multiplicities]
        units += [(a // 2, a + 1) for a in traded.real_multiplicities if a != 1]
        units += [(1, 4)] * (ones // 2)
        for h, f in units:
            assert f in ((2, 3, 4) if h == 1 else (h + 1, 2 * h + 1))
        assert 2 * sum(h for h, _ in units) + unpaired == config.n
        assert 2**unpaired * prod(f for _, f in units) == count_for_config(config)
