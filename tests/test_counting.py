"""Bounded-composition counting: vs brute force and a prefix-sum DP, symmetry, monotonicity, split."""

from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kostka import count_bounded_compositions, split_by_first_part

caps_strategy = st.lists(st.integers(0, 5), max_size=4).map(tuple)


def brute_count(caps, total):
    return sum(1 for vec in product(*(range(c + 1) for c in caps)) if sum(vec) == total)


def prefix_sum_count(caps, total):
    """The same count by dynamic programming over prefixes, one coordinate at a time."""
    if total < 0 or total > sum(caps):
        return 0
    row = [1] + [0] * total
    for cap in caps:
        prefix = [0]
        for count in row:
            prefix.append(prefix[-1] + count)
        row = [prefix[s + 1] - prefix[max(0, s - cap)] for s in range(total + 1)]
    return row[total]


class TestCount:
    def test_empty_caps(self):
        assert count_bounded_compositions((), 0) == 1
        assert count_bounded_compositions((), 1) == 0

    def test_frozen_examples(self):
        assert count_bounded_compositions((2, 1), 1) == 2  # (1,0) and (0,1)
        assert count_bounded_compositions((2, 1), 2) == 2
        assert count_bounded_compositions((2, 1), 3) == 1
        assert count_bounded_compositions((2, 0), 1) == 1

    def test_out_of_range_totals_count_zero(self):
        assert count_bounded_compositions((2, 1), -1) == 0
        assert count_bounded_compositions((2, 1), 4) == 0
        assert count_bounded_compositions((), -5) == 0

    def test_rejects_negative_caps(self):
        with pytest.raises(ValueError):
            count_bounded_compositions((2, -1), 1)

    @given(caps_strategy, st.integers(-1, 21))
    def test_matches_brute_force(self, caps, total):
        assert count_bounded_compositions(caps, total) == brute_count(caps, total)

    @given(caps_strategy)
    def test_symmetry_and_normalization(self, caps):
        m = sum(caps)
        counts = [count_bounded_compositions(caps, a) for a in range(m + 1)]
        assert counts == counts[::-1]
        normalization = 1
        for c in caps:
            normalization *= c + 1
        assert sum(counts) == normalization

    @pytest.mark.parametrize(
        "caps",
        [(1,), (1, 1, 1), (3, 1), (7,), (9,) * 12, (4, 9, 0, 7, 1, 9, 3, 2, 8, 5, 6, 9), (400, 300, 5), (1000, 2)],
        ids=["1", "1^3", "3,1", "7", "9^12", "12-mixed", "400,300,5", "1000,2"],
    )
    def test_matches_prefix_sum_dp(self, caps):
        # the first four have a power of two as prod(cap + 1), the product's coefficient bound
        for total in range(-1, sum(caps) + 2):
            assert count_bounded_compositions(caps, total) == prefix_sum_count(caps, total)

    def test_caps_far_above_the_total(self):
        # y3 in 0..2 and y1 + y2 = 4 - y3: 5 + 4 + 3 vectors
        assert count_bounded_compositions((10**9, 10**9, 2), 4) == 12
        assert count_bounded_compositions((10**9,), 10**9 + 1) == 0

    def test_big_values_are_exact(self):
        # 20 coordinates capped at 9, middle total: way past 64-bit float precision territory
        caps = (9,) * 20
        total = sum(count_bounded_compositions(caps, a) for a in range(sum(caps) + 1))
        assert total == 10**20


class TestSplit:
    def test_frozen_examples(self):
        assert split_by_first_part((2, 1), 1) == (0, 2)
        assert split_by_first_part((1,), 1) == (1, 0)
        assert split_by_first_part((2, 1), 3) == (1, 0)

    def test_requires_positive_first_cap(self):
        with pytest.raises(ValueError):
            split_by_first_part((), 0)
        with pytest.raises(ValueError):
            split_by_first_part((0, 2), 1)

    @given(caps_strategy.filter(lambda c: c and c[0] >= 1), st.integers(-1, 21))
    def test_parts_sum_to_count(self, caps, total):
        saturated, below = split_by_first_part(caps, total)
        assert saturated + below == count_bounded_compositions(caps, total)

    def test_split_meaning_by_brute_force(self):
        for caps in [(2, 1), (3, 3), (1, 2, 3), (4,)]:
            for total in range(-1, sum(caps) + 2):
                saturated, below = split_by_first_part(caps, total)
                vectors = [v for v in product(*(range(c + 1) for c in caps)) if sum(v) == total]
                assert saturated == sum(1 for v in vectors if v[0] == caps[0])
                assert below == sum(1 for v in vectors if v[0] < caps[0])
