"""The counting engine: walk values, long contents, matrices, and strip memos."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kostka.engine
from kostka import (
    SizeMismatchError,
    SkewShape,
    count_bounded_compositions,
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
        for cache in (None, {}):
            for content in ((), (0,), (0, 0)):
                assert kostka_number((), content, cache=cache) == 1
                assert kostka_number(SkewShape((2, 1), (2, 1)), content, cache=cache) == 1

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


class TestLongContents:
    """Contents far longer than any recursion limit; the walk is iterative.

    Each runs without a memo (one-cell steps inline) and with one (every step
    through the strip enumerator).
    """

    @pytest.mark.parametrize("shape", [(200, 200), (267, 133)])
    def test_two_row_standard_matches_bounded_compositions(self, shape):
        # K((n-k, k), mu) = c_k - c_(k-1), with c_j the compositions of j bounded by mu
        content = (1,) * 400
        k = shape[1]
        expected = count_bounded_compositions(content, k) - count_bounded_compositions(content, k - 1)
        assert kostka_number(shape, content) == expected
        assert kostka_number(shape, content, cache={}) == expected

    def test_single_column_and_single_row(self):
        for cache in (None, {}):
            assert kostka_number((1,) * 1000, (1,) * 1000, cache=cache) == 1
            assert kostka_number((400,), (1,) * 400, cache=cache) == 1


def _shared_and_fresh(shape, content, shared):
    """kostka_number without a memo, with a fresh one and with shared, checked equal."""
    plain = kostka_number(shape, content)
    assert kostka_number(shape, content, cache={}) == plain
    assert kostka_number(shape, content, cache=shared) == plain
    return plain


class TestPackedShapes:
    """The walk packs each shape into one int, outer[0].bit_length() bits a row.

    Every case runs without a memo, with a fresh one, and with one memo shared
    by all outers of every width, against an independent count: enumeration up
    to 8 cells, the two-row formula beyond.
    """

    def test_first_row_on_bit_boundaries(self):
        shared = {}
        for width in (1, 3, 4, 7, 8):
            for m in range(width, 9):
                for lam in partitions_of(m):
                    if lam[0] != width:
                        continue
                    shape = SkewShape(lam)
                    for mu in partitions_of(m):
                        for content in (mu, mu[::-1] + (0,)):
                            assert _shared_and_fresh(shape, content, shared) == len(enumerate_ssyt(shape, content))
        rng = random.Random(20261018)
        for width in (31, 32):
            for k in (0, 1, 5, width // 2, width - 1, width):
                n = width + k
                for parts in (1, 2, 3, 7, n):
                    cuts = sorted(rng.sample(range(1, n), parts - 1))
                    content = [b - a for a, b in zip([0] + cuts, cuts + [n])]
                    content.insert(rng.randint(0, parts), 0)
                    expected = count_bounded_compositions(content, k) - count_bounded_compositions(content, k - 1)
                    assert _shared_and_fresh((width, k), content, shared) == expected

    @pytest.mark.parametrize(
        "outer, inner",
        [((3, 3, 1), (3,)), ((4, 2, 2), (4, 2)), ((7, 7), (7,)), ((8, 5, 2), (8,)), ((4, 4, 4), (4, 4))],
    )
    def test_skew_with_full_inner_row(self, outer, inner):
        shape = SkewShape(outer, inner)
        shared = {}
        for mu in partitions_of(shape.size):
            for content in (mu, (0,) + mu[::-1]):
                assert _shared_and_fresh(shape, content, shared) == len(enumerate_ssyt(shape, content))


class TestCaching:
    def test_results_independent_of_cache_mode(self):
        rng = random.Random(20260817)
        pool = [(lam, mu) for m in range(9) for lam in partitions_of(m) for mu in partitions_of(m)]
        reused = {}
        for lam, mu in rng.sample(pool, 60):
            plain = kostka_number(lam, mu)
            assert kostka_number(lam, mu, cache={}) == plain
            assert kostka_number(lam, mu, cache=reused) == plain
        assert reused

    def test_matrix_without_cache_gives_each_row_its_own_memo(self, monkeypatch):
        calls = []
        real = kostka.engine.kostka_number

        def record(shape, content, cache=None):
            calls.append(cache)
            return real(shape, content, cache=cache)

        monkeypatch.setattr(kostka.engine, "kostka_number", record)
        kostka_matrix(6)
        # rows are shapes: one fresh memo per row, shared along the row
        assert len(calls) == 121
        rows = [calls[k:k + 11] for k in range(0, 121, 11)]
        for row in rows:
            assert row[0] is not None and all(cache is row[0] for cache in row)
        assert len({id(row[0]) for row in rows}) == 11


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
