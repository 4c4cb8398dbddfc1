"""The counting engine: DP values, matrices, and caching."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kostka import (
    SizeMismatchError,
    SkewShape,
    cache_size,
    clear_cache,
    dominates,
    enumerate_ssyt,
    kostka_matrix,
    kostka_number,
    partitions_of,
)


class TestKostkaNumber:
    def test_frozen_values(self):
        assert kostka_number((2, 1), (1, 1, 1)) == 2
        assert kostka_number((2, 1), (2, 1)) == 1
        assert kostka_number((2, 1, 1), (1, 1, 1, 1)) == 3
        assert kostka_number((3, 1), (2, 2)) == 1

    def test_diagonal_is_one(self):
        for n in range(9):
            for p in partitions_of(n):
                assert kostka_number(p, p) == 1

    def test_single_row_always_one(self):
        for n in range(1, 9):
            for mu in partitions_of(n):
                assert kostka_number((n,), mu) == 1

    def test_skew_values(self):
        shape = SkewShape((3, 2), (1,))
        assert kostka_number(shape, (2, 2)) == 2
        assert kostka_number(shape, (1, 1, 1, 1)) == 5
        assert kostka_number(shape, (2, 1, 1)) == 3
        assert kostka_number(shape, (1, 2, 1)) == 3

    def test_content_composition_not_partition(self):
        assert kostka_number((2, 1), (1, 2)) == 1
        assert kostka_number((2, 1), (0, 2, 1)) == 1
        assert kostka_number((2, 1), (1, 0, 1, 1)) == 2

    def test_empty_shape(self):
        assert kostka_number((), ()) == 1
        assert kostka_number(SkewShape((2, 1), (2, 1)), ()) == 1

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatchError):
            kostka_number((2, 1), (1, 1))

    def test_zero_when_not_dominated(self):
        assert kostka_number((2, 2), (3, 1)) == 0
        assert kostka_number((1, 1), (2,)) == 0

    @settings(deadline=None)
    @given(st.integers(0, 6), st.data())
    def test_matches_enumeration_on_random_pairs(self, m, data):
        parts = partitions_of(m)
        lam = data.draw(st.sampled_from(parts))
        mu = data.draw(st.sampled_from(parts))
        shape = SkewShape(lam)
        assert kostka_number(shape, mu) == len(enumerate_ssyt(shape, mu))


class TestCaching:
    def test_shared_cache_grows_and_clears(self):
        clear_cache()
        assert cache_size() == 0
        kostka_number((3, 2, 1), (1, 1, 1, 1, 1, 1))
        assert cache_size() > 0
        clear_cache()
        assert cache_size() == 0

    def test_isolated_cache_leaves_shared_alone(self):
        clear_cache()
        local = {}
        kostka_number((3, 2, 1), (1, 1, 1, 1, 1, 1), cache=local)
        assert cache_size() == 0
        assert len(local) > 0

    def test_results_independent_of_cache_mode(self):
        rng = random.Random(20260817)
        pool = [(lam, mu) for m in range(9) for lam in partitions_of(m) for mu in partitions_of(m)]
        clear_cache()
        for lam, mu in rng.sample(pool, 60):
            shared = kostka_number(lam, mu)
            isolated = kostka_number(lam, mu, cache={})
            assert shared == isolated


class TestKostkaMatrix:
    def test_n4_frozen(self):
        m = kostka_matrix(4)
        assert m.partitions == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
        assert m.values == (
            (1, 1, 1, 1, 1),
            (0, 1, 1, 2, 3),
            (0, 0, 1, 1, 2),
            (0, 0, 0, 1, 3),
            (0, 0, 0, 0, 1),
        )
        assert m.value((2, 1, 1), (1, 1, 1, 1)) == 3

    def test_n0_and_n1(self):
        assert kostka_matrix(0).values == ((1,),)
        assert kostka_matrix(1).values == ((1,),)

    def test_invariants_up_to_8(self):
        for n in range(9):
            m = kostka_matrix(n)
            for lam in m.partitions:
                for mu in m.partitions:
                    positive = m.value(lam, mu) > 0
                    assert positive == dominates(lam, mu)
                assert m.value(lam, lam) == 1

    def test_csv_frozen(self):
        assert kostka_matrix(3).to_csv() == (
            ',3,"2,1","1,1,1"\n'
            "3,1,1,1\n"
            '"2,1",0,1,2\n'
            '"1,1,1",0,0,1\n'
        )

    def test_json_round_trip(self):
        m = kostka_matrix(5)
        data = json.loads(m.to_json())
        assert data["n"] == 5
        assert len(data["partitions"]) == 7
        values = tuple(tuple(int(v) for v in row) for row in data["matrix"])
        assert values == m.values
