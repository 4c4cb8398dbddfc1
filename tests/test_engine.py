"""The counting engine: walk values, long contents, matrices, and walk memos."""

import csv
import hashlib
import io
import json
import random
import types
from fractions import Fraction
from math import factorial, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kostka.engine
from kostka import (
    KostkaMatrix,
    SizeMismatchError,
    SkewShape,
    conjugate,
    count_bounded_compositions,
    dominates,
    enumerate_ssyt,
    format_parts,
    kostka_matrix,
    kostka_number,
    partitions_of,
)
from kostka.verify import canonical_box_skew_shapes


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


def _aitken_standard_count(outer, inner):
    """f^(outer/inner), the standard fillings, as N! det[1/(outer_i - inner_j - i + j)!] in exact fractions.

    Aitken's determinant (EC2, Cor. 7.16.3); 1/m! is 0 for m < 0. Eliminates
    column by column, so it shares nothing with the strip walk.
    """
    rows = len(outer)
    inner = tuple(inner) + (0,) * (rows - len(inner))
    m = [[Fraction(1, factorial(outer[i] - inner[j] - i + j)) if outer[i] - inner[j] - i + j >= 0 else Fraction(0)
          for j in range(rows)] for i in range(rows)]
    det = Fraction(1)
    for c in range(rows):
        pivot = next((r for r in range(c, rows) if m[r][c]), None)
        if pivot is None:
            return 0
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, rows):
            factor = m[r][c] / m[c][c]
            for j in range(c, rows):
                m[r][j] -= factor * m[c][j]
    count = det * factorial(sum(outer) - sum(inner))
    assert count.denominator == 1
    return int(count)


class TestTrailingOnes:
    """Runs of 1s on a memo: standard counts against Aitken's determinant, and 1s among larger parts.

    The memo walks a 1 forward like any other part, through the same one-cell
    strip table, and resumes a walk that ended in 1s for a content that goes on
    past them.
    """

    def test_aitken_pins(self):
        assert _aitken_standard_count((3, 2), ()) == 5
        assert _aitken_standard_count((2, 2), (1,)) == 2
        assert _aitken_standard_count((3, 3, 1), (3,)) == 3
        assert _aitken_standard_count((2, 1), (1,)) == 2

    def test_standard_skew_counts_match_aitken(self):
        memo = {}
        shapes = canonical_box_skew_shapes(4, 8)
        assert len(shapes) == 7318
        for shape in shapes:
            expected = _aitken_standard_count(shape.outer, shape.inner)
            assert kostka_number(shape, (1,) * shape.size, cache=memo) == expected

    def test_runs_of_ones_on_alternating_inners_match_no_memo(self):
        # each inner has its own record on this outer, and the calls alternate between them
        outer = (5, 3, 2, 1)
        inners = [(), (2,), (1, 1), (3, 1), (2, 2, 1), (4, 1)]

        def contents(m):
            return [
                (1,) * m,
                (0, 1) * m,
                (1, 0) * (m - 1) + (0, 0, 1),
                (2,) + (1,) * (m - 2),
                (1, 2) + (1,) * (m - 3),
                (2, 1, 0, 1) + (1,) * (m - 4),
                (3, 1, 0, 2) + (0, 1) * (m - 6),
                (1,) * (m - 2) + (2,),
                (m,),
            ]

        shapes = [SkewShape(outer, inner) for inner in inners]
        # each content in turn on every inner, then all of it again backwards
        calls = [(shape, contents(shape.size)[k]) for k in range(9) for shape in shapes]
        memo = {}
        for shape, content in calls + calls[::-1]:
            assert kostka_number(shape, content, cache=memo) == kostka_number(shape, content)

    def test_ones_between_larger_parts_match_no_memo(self):
        # 1s before and after larger parts share the one-cell table, and walks ending in 1s are resumed past them
        contents = [
            (1, 1, 2, 1, 1, 1), (1, 1, 2, 3), (1, 3, 1, 1, 0, 1), (1, 1, 1, 1, 3),
            (2, 1, 1, 1, 1, 1), (2, 1, 1, 3), (2, 1, 1, 2, 1), (1, 2, 1, 2, 0, 1),
        ]
        memo = {}
        for shape in [SkewShape((4, 2, 1)), SkewShape((5, 3, 2), (3,)), SkewShape((4, 4), (1,))]:
            for content in contents + contents[::-1]:
                assert kostka_number(shape, content, cache=memo) == kostka_number(shape, content)


# outers of one size, none holding all the others, and contents walked on each of them
SAME_SIZE_OUTERS = [(2, 2, 2, 1), (3, 2, 1, 1), (3, 3, 1), (4, 2, 1), (5, 1, 1), (7,), (1,) * 7, (4, 3)]
SAME_SIZE_CONTENTS = [
    (1,) * 7, (2, 1, 1, 1, 1, 1), (2, 2, 1, 1, 1), (2, 2, 2, 1), (3, 1, 2, 1), (1, 3, 3), (0, 4, 0, 3),
]


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

    def test_one_memo_resumed_in_any_order_matches_no_memo(self):
        """A memo keeps one walk per inner and outer shape; calls resume from it in any order."""
        shape, other = SkewShape((4, 3, 1), (2,)), SkewShape((4, 3, 1), (1, 1))
        cases = [
            # two inners on one outer, alternating
            (shape, (2, 2, 2)), (other, (2, 2, 2)), (shape, (2, 2, 1, 1)), (other, (2, 1, 2, 1)), (shape, (1, 2, 2, 1)),
            # outers packed at one bit width
            ((3, 1), (2, 1, 1)), ((2, 2), (2, 1, 1)), ((3, 1), (1, 1, 1, 1)), ((2, 2), (1, 1, 2)),
            # interior zeros, a repeat, then contents sharing only a prefix with the last
            ((4, 2, 1), (2, 0, 3, 0, 2)), ((4, 2, 1), (2, 3, 2)), ((4, 2, 1), (2, 0, 3, 1, 1)), ((4, 2, 1), (2, 1, 4)),
            ((200, 200), (1,) * 400),
        ]
        memo = {}
        for skew, content in cases + cases[::-1]:
            assert kostka_number(skew, content, cache=memo) == kostka_number(skew, content)

    @settings(deadline=None)
    @given(st.data())
    def test_drawn_call_sequences_on_one_memo_match_no_memo(self, data):
        shapes = [p for m in range(1, 7) for p in partitions_of(m)]
        outers = data.draw(st.lists(st.sampled_from(shapes), min_size=1, max_size=3))
        memo = {}
        for _ in range(data.draw(st.integers(1, 12))):
            outer = data.draw(st.sampled_from(outers))
            inners = [nu for m in range(sum(outer)) for nu in partitions_of(m) if len(nu) <= len(outer)]
            inner = data.draw(st.sampled_from([nu for nu in inners if all(map(int.__le__, nu, outer))]))
            shape = SkewShape(outer, inner)
            content = data.draw(st.permutations(data.draw(st.sampled_from(partitions_of(shape.size))) + (0,)))
            assert kostka_number(shape, content, cache=memo) == kostka_number(shape, content)

    def test_matrix_walks_each_column_on_one_memo(self, monkeypatch):
        calls, records, walked, corners = [], [], [], []
        real_number, real_walk, real_strips = kostka.engine.kostka_number, kostka.engine._walk, kostka.engine._strips

        def number(shape, content, cache=None):
            calls.append((content, cache))
            return real_number(shape, content, cache=cache)

        def walk(record, steps, bound, w):
            records.append(record)
            walked.append(steps)
            return real_walk(record, steps, bound, w)

        def strips(shape, size, outer, w):
            if size == 1:
                corners.append(shape)
            return real_strips(shape, size, outer, w)

        monkeypatch.setattr(kostka.engine, "kostka_number", number)
        monkeypatch.setattr(kostka.engine, "_walk", walk)
        monkeypatch.setattr(kostka.engine, "_strips", strips)
        kostka_matrix(6)
        # the first column is 11 calls on (6,), one per row, without a memo
        assert calls == [((6,), None)] * 11
        # each later column is walked once, on the sweep's own record, only up to its trailing 1s
        record = records[0]
        assert all(r is record for r in records)
        assert sorted(walked) == sorted(mu[: len(mu) - mu.count(1)] for mu in partitions_of(6)[1:])
        assert all(1 not in steps for steps in walked)
        # one sweep adds every column's 1s, building each one-cell table entry once
        assert corners and len(corners) == len(set(corners)) == len(record[0][1])

    def test_outers_of_one_size_match_no_memo(self):
        """Outers of one size each keep their own record, resumed as calls on the others come and go."""
        memo = {}
        calls = [(outer, content) for outer in SAME_SIZE_OUTERS for content in SAME_SIZE_CONTENTS]
        for outer, content in calls + calls[::-1] + calls:
            assert kostka_number(outer, content, cache=memo) == kostka_number(outer, content)
        assert len(memo) == len(SAME_SIZE_OUTERS)

    def test_memo_work_does_not_depend_on_call_order(self, monkeypatch):
        """The same calls on one memo build the same strips, whichever outer is asked first."""
        real_strips = kostka.engine._strips
        built = []

        def strips(shape, size, outer, w):
            built.append(shape)
            return real_strips(shape, size, outer, w)

        monkeypatch.setattr(kostka.engine, "_strips", strips)
        work = []
        for outers in (SAME_SIZE_OUTERS, sorted(SAME_SIZE_OUTERS, reverse=True)):
            memo = {}
            built.clear()
            counts = {(o, c): kostka_number(o, c, cache=memo) for o in outers for c in SAME_SIZE_CONTENTS}
            work.append((len(built), counts))
        assert work[0] == work[1]

    def test_skew_inners_sharing_a_size_match_no_memo(self):
        # records are per inner and outer: skew shapes on two inners, over outers of two sizes, interleaved
        shapes = [
            SkewShape(outer, inner)
            for inner in [(2,), (1, 1)]
            for outer in [(3, 2, 1), (4, 1, 1), (2, 2, 2), (4, 2), (3, 3), (4, 3, 1), (3, 3, 2), (6, 2)]
        ]
        memo = {}
        for shape in shapes + shapes[::-1]:
            for mu in partitions_of(shape.size):
                for content in (mu, mu[::-1]):
                    assert kostka_number(shape, content, cache=memo) == kostka_number(shape, content)
        assert sorted(memo) == sorted((shape.inner, shape.outer) for shape in shapes)

    @settings(deadline=None)
    @given(st.data())
    def test_drawn_outers_of_one_size_match_no_memo(self, data):
        m = data.draw(st.integers(2, 8))
        outers = data.draw(st.lists(st.sampled_from(partitions_of(m)), min_size=2, max_size=5))
        memo = {}
        for _ in range(data.draw(st.integers(1, 16))):
            outer = data.draw(st.sampled_from(outers))
            inner = data.draw(st.sampled_from([(), (1,), (1, 1), (2,)]))
            if len(inner) > len(outer) or any(map(int.__gt__, inner, outer)):
                inner = ()
            shape = SkewShape(outer, inner)
            content = data.draw(st.permutations(data.draw(st.sampled_from(partitions_of(shape.size))) + (0,)))
            assert kostka_number(shape, content, cache=memo) == kostka_number(shape, content)


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

    def test_entries_match_calls_without_memo(self):
        # later columns come out of one packed one-cell sweep, not per-entry calls
        for n in range(11):
            m = kostka_matrix(n)
            for lam, row in zip(m.partitions, m.values):
                assert row == tuple(kostka_number(lam, mu) for mu in m.partitions)

    def test_one_word_slots_past_20_factorial(self):
        # 20! < 2**64 <= 21!, but a straight shape's counts are at most isqrt(n!): one 64-bit word at n = 20 and 21
        assert factorial(20) < 2**64 <= factorial(21) and isqrt(factorial(21)) < 2**64
        rng = random.Random(2021)
        matrices = {n: kostka_matrix(n) for n in (20, 21)}
        assert hashlib.sha256(matrices[20].to_csv().encode()).hexdigest().startswith("f4025188032ff5de")
        for n, m in matrices.items():
            for lam, row in zip(m.partitions, m.values):
                # the (1^n) column against the hook-length formula
                lam_t = conjugate(lam)
                hooks = 1
                for i, part in enumerate(lam):
                    for j in range(part):
                        hooks *= part - j + lam_t[j] - i - 1
                assert row[-1] == factorial(n) // hooks
                assert max(row) <= isqrt(factorial(n))
                assert m.value(lam, lam) == 1
            for _ in range(200):
                lam, mu = rng.choice(m.partitions), rng.choice(m.partitions)
                assert m.value(lam, mu) == kostka_number(lam, mu)

    def test_two_word_slots_on_a_skew_group(self):
        # 21 cells past the inner shape (1,), so each count's slot is two 64-bit words, as in the matrix at n = 21
        outers = [(21, 1), (11, 11), (8, 7, 7), (6, 6, 5, 5), (12, 6, 3, 1)]
        shapes = [SkewShape(outer, (1,)) for outer in outers]
        contents = partitions_of(21)
        rows = kostka.engine._sweep(shapes, contents)
        assert [len(row) for row in rows] == [len(contents)] * len(shapes)
        columns = random.Random(21).sample(range(len(contents) - 1), 40) + [len(contents) - 1]
        for shape, row in zip(shapes, rows):
            for k in columns:
                assert row[k] == kostka_number(shape, contents[k]), (shape, contents[k])

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

    def test_json_text_is_the_dict_dumped(self):
        # to_json and to_csv render row by row; their bytes must stay those of the dict dumped whole
        # and of csv.writer
        built = [
            KostkaMatrix(0, (), ()),
            KostkaMatrix(2, ((2,), (1, 1)), ((1, 123456), (0, 1))),
            KostkaMatrix(9, ((9,),), ((10**30,),)),
        ]
        for m in [kostka_matrix(n) for n in range(11)] + built:
            assert m.to_json() == json.dumps(m.to_json_dict(), indent=2)
            assert "\n".join(m.json_lines()) == m.to_json()
            buf = io.StringIO()
            writer = csv.writer(buf, lineterminator="\n")
            labels = [format_parts(p) for p in m.partitions]
            writer.writerow(["", *labels])
            writer.writerows([label, *map(str, row)] for label, row in zip(labels, m.values))
            assert m.to_csv() == buf.getvalue()
            assert "\n".join(m.csv_lines()) + "\n" == m.to_csv()
        # one string up to the matrix, one per matrix row, one to close
        assert len(list(kostka_matrix(6).json_lines())) == 11 + 2

    def test_lines_are_built_one_row_at_a_time(self):
        # `kostka matrix` prints each line as it comes, so a row must not be rendered before it is asked for:
        # "%d" rejects NaN, which sits in the last row only
        partitions = ((2,), (1, 1))
        bad = KostkaMatrix(2, partitions, ((1, 1), (0, float("nan"))))
        good = KostkaMatrix(2, partitions, ((1, 1), (0, 1)))
        for method in ("text_lines", "csv_lines", "json_lines"):
            lines = getattr(bad, method)()
            assert isinstance(lines, types.GeneratorType)
            # the header and the first row
            assert [next(lines), next(lines)] == list(getattr(good, method)())[:2]
            with pytest.raises(ValueError):
                next(lines)
