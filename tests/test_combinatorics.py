import pytest
from hypothesis import given, strategies as st

from invsub.combinatorics import (
    Multipartition,
    derived_composition,
    is_composition,
    is_partition,
    partition_count,
    partitions_of,
)

from _oracles import naive_partition_count


@st.composite
def partition_parts(draw, n: int) -> tuple[int, ...]:
    parts = []
    remaining = n
    cap = n
    while remaining > 0:
        part = draw(st.integers(1, min(cap, remaining)))
        parts.append(part)
        cap = part
        remaining -= part
    return tuple(parts)


@st.composite
def multipartitions(draw) -> Multipartition:
    length = draw(st.integers(1, 4))
    composition = [draw(st.integers(1, 6)) for _ in range(length)]
    if draw(st.booleans()) and length > 1:
        composition[draw(st.integers(0, length - 1))] = 0
    thetas = tuple(draw(partition_parts(part)) for part in composition)
    return Multipartition(tuple(composition), thetas)


class TestPartitionsOf:
    def test_four(self):
        assert list(partitions_of(4)) == [
            (4,),
            (3, 1),
            (2, 2),
            (2, 1, 1),
            (1, 1, 1, 1),
        ]

    def test_zero_yields_single_empty_partition(self):
        assert list(partitions_of(0)) == [()]

    def test_six_has_eleven(self):
        assert len(list(partitions_of(6))) == 11

    @given(st.integers(0, 18))
    def test_every_partition_is_valid_and_sums_to_n(self, n):
        for parts in partitions_of(n):
            assert is_partition(parts)
            assert sum(parts) == n

    @given(st.integers(0, 18))
    def test_reverse_lexicographic_and_exhaustive(self, n):
        seen = list(partitions_of(n))
        assert seen == sorted(set(seen), reverse=True)
        assert len(seen) == partition_count(n)

    @given(st.integers(1, 18))
    def test_endpoints(self, n):
        seen = list(partitions_of(n))
        assert seen[0] == (n,)
        assert seen[-1] == (1,) * n

    def test_deterministic(self):
        assert list(partitions_of(9)) == list(partitions_of(9))


class TestPartitionCount:
    @pytest.mark.parametrize("n, expected", [(0, 1), (1, 1), (10, 42), (20, 627)])
    def test_goldens(self, n, expected):
        assert partition_count(n) == expected

    def test_matches_dp_oracle_up_to_60(self):
        for n in range(61):
            assert partition_count(n) == naive_partition_count(n)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            partition_count(-1)


class TestValidators:
    def test_partition_predicate(self):
        assert is_partition(())
        assert is_partition((3, 1, 1))
        assert not is_partition((1, 3))
        assert not is_partition((3, 0))
        assert not is_partition((3, -1))
        assert not is_partition((True,))
        assert not is_partition((2, False))

    def test_composition_predicate(self):
        assert is_composition((0, 4))
        assert is_composition((5, 6, 3))
        assert not is_composition((0, 4, 0))
        assert not is_composition((-1, 2))
        assert not is_composition((True, 2))
        assert not is_composition((False,))


class TestMultipartition:
    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            Multipartition((2, 3), ((2,),))

    def test_rejects_theta_not_partitioning_part(self):
        with pytest.raises(ValueError):
            Multipartition((2, 3), ((2,), (2,)))

    def test_rejects_nonpartition_theta(self):
        with pytest.raises(ValueError):
            Multipartition((3,), ((1, 2),))

    def test_rejects_bool_parts(self):
        with pytest.raises(ValueError):
            Multipartition((True,), ((1,),))
        with pytest.raises(ValueError):
            Multipartition((1,), ((True,),))
        with pytest.raises(ValueError):
            Multipartition((False, 1), ((), (1,)))

    def test_rejects_two_zero_parts(self):
        with pytest.raises(ValueError):
            Multipartition((0, 2, 0), ((), (2,), ()))

    def test_zero_part_carries_empty_partition(self):
        m = Multipartition((0, 4), ((), (4,)))
        assert m.n == 4

    @given(multipartitions())
    def test_total_is_composition_sum(self, m):
        assert m.n == sum(m.composition)


class TestDerivedComposition:
    def test_reference_example(self):
        m = Multipartition((5, 6, 3), ((4, 1), (3, 2, 1), (2, 1)))
        assert derived_composition(m) == (4, 1, 3, 2, 1, 2, 1)

    def test_zero_part_is_dropped(self):
        m = Multipartition((0, 4), ((), (4,)))
        assert derived_composition(m) == (4,)

    def test_single_part_identity(self):
        m = Multipartition((7,), ((7,),))
        assert derived_composition(m) == (7,)

    @given(multipartitions())
    def test_sum_preserving_and_positive(self, m):
        d = derived_composition(m)
        assert sum(d) == m.n
        assert all(part > 0 for part in d)

    @given(multipartitions())
    def test_concatenation_order(self, m):
        expected = tuple(part for theta in m.partitions for part in theta)
        assert derived_composition(m) == expected
