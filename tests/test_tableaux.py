"""Skew shapes, fillings as reading words, semistandardness, and the enumeration oracle."""

import math
from itertools import product, zip_longest

import pytest

from kostka import (
    SizeMismatchError,
    SkewShape,
    canonical_box_skew_shapes,
    count_in_class,
    enumerate_ssyt,
    is_semistandard,
    iter_semistandard,
    kostka_number,
    partitions_of,
    semistandard_words,
    signature_of,
    word_content,
)
from kostka.cli import main


def semistandard_by_definition(shape: SkewShape, word: tuple[int, ...]) -> bool:
    """Rows weakly increase and every column, read top to bottom, strictly increases."""
    grid = dict(zip(shape.cells(), word))
    rows_weak = all(e <= grid[(r, c + 1)] for (r, c), e in grid.items() if (r, c + 1) in grid)
    columns_strict = all(e < grid[(r + 1, c)] for (r, c), e in grid.items() if (r + 1, c) in grid)
    return rows_weak and columns_strict


class TestSkewShape:
    def test_basic_properties(self):
        sh = SkewShape((3, 2), (1,))
        assert sh.n_rows == 2
        assert sh.size == 4
        assert sh.row_span(1) == (2, 3)
        assert sh.row_span(2) == (1, 2)
        assert sh.cells() == [(1, 2), (1, 3), (2, 1), (2, 2)]

    def test_straight_shape(self):
        sh = SkewShape((2, 1))
        assert sh.inner == ()
        assert sh.cells() == [(1, 1), (1, 2), (2, 1)]

    def test_empty_shape(self):
        sh = SkewShape(())
        assert sh.n_rows == 0 and sh.size == 0
        assert sh.cells() == []

    def test_trailing_cell_free_rows_dropped(self):
        assert SkewShape((3, 2, 2), (2, 2, 2)) == SkewShape((3,), (2,))
        assert SkewShape((2, 2), (2, 2)) == SkewShape(())

    def test_leading_cell_free_row_kept(self):
        # row 1 holds no cells but still shifts row 2 downward; the shapes differ
        assert SkewShape((2, 2), (2,)) != SkewShape((2,))
        assert SkewShape((2, 2), (2,)).cells() == [(2, 1), (2, 2)]

    def test_containment_validation(self):
        with pytest.raises(ValueError):
            SkewShape((2, 1), (3,))
        with pytest.raises(ValueError):
            SkewShape((2,), (1, 1))
        with pytest.raises(ValueError):
            SkewShape((2, 1), (0, 2))  # inner not a partition


class TestTableau:
    """A tableau is a shape and a reading word: its entries cell by cell, in the row-major order of cells()."""

    def test_entry_lookup_respects_inner_offset(self):
        # each row's entries start right of the inner shape, which cells() already skips
        shape = SkewShape((3, 2), (1,))
        assert dict(zip(shape.cells(), (1, 2, 1, 3))) == {(1, 2): 1, (1, 3): 2, (2, 1): 1, (2, 2): 3}
        assert is_semistandard(shape, (1, 2, 1, 3))

    def test_row_length_validation(self):
        # one entry per cell: (2, 1) has three; signature_of checks through is_semistandard
        for word in [(1, 2), (1, 1, 2, 2), ()]:
            with pytest.raises(ValueError):
                is_semistandard(SkewShape((2, 1)), word)
            with pytest.raises(ValueError):
                signature_of(SkewShape((2, 1)), word, 1)

    def test_entry_validation(self):
        for bad in [0, -1, True, "x"]:
            with pytest.raises(ValueError):
                is_semistandard(SkewShape((2,)), (1, bad))
            with pytest.raises(ValueError):
                signature_of(SkewShape((2,)), (1, bad), 1)

        # bool is rejected, but other int subclasses are entries
        class Entry(int):
            pass

        assert is_semistandard(SkewShape((2,)), (Entry(1), Entry(2)))


class TestSemistandard:
    def test_valid(self):
        assert is_semistandard(SkewShape((2, 1)), (1, 1, 2))
        assert is_semistandard(SkewShape((2, 2)), (1, 1, 2, 2))

    def test_row_decrease_fails(self):
        assert not is_semistandard(SkewShape((2,)), (2, 1))

    def test_column_equality_fails(self):
        assert not is_semistandard(SkewShape((2, 1)), (1, 1, 1))

    def test_skew_column_overlap_only(self):
        # column 1 of rows 1 and 2 never overlaps: row 1 starts at column 2
        assert is_semistandard(SkewShape((3, 2), (1,)), (1, 1, 1, 2))
        # column 2 overlaps: 1 above 1 breaks strictness
        assert not is_semistandard(SkewShape((3, 2), (1,)), (1, 1, 1, 1))

    def test_every_small_filling_against_the_definition(self):
        # straight shapes up to 5 cells, skew shapes in a 3x4 box, and shapes with a cell-free first row
        shapes = {SkewShape(lam) for m in range(6) for lam in partitions_of(m)}
        shapes |= set(canonical_box_skew_shapes(3, 4))
        shapes |= {SkewShape((2, 2, 1), (2, 1)), SkewShape((3, 3, 1), (3,))}
        fillings = rejected = 0
        for shape in shapes:
            for word in product(range(1, 5), repeat=shape.size):
                expected = semistandard_by_definition(shape, word)
                assert is_semistandard(shape, word) == expected, (shape, word)
                fillings += 1
                rejected += not expected
        assert (fillings, rejected) == (16773, 13331)

    def test_content(self):
        assert word_content((1, 3, 2)) == (1, 1, 1)
        assert word_content((3, 3)) == (0, 0, 2)
        assert word_content(()) == ()


SHAPE_21 = SkewShape((2, 1))
OVERFILL = "content total 4 does not fill 3 cells"


class TestCheckContent:
    def test_returns_the_composition(self):
        assert SHAPE_21.check_content([2, 1, 0]) == (2, 1)
        assert SkewShape((3, 2), (1,)).check_content((2, 0, 2)) == (2, 0, 2)
        with pytest.raises(ValueError, match="non-negative"):
            SkewShape((2,)).check_content((3, -1))

    # every entry point handed a content of total 4 for the 3 cells of (2, 1); the CLI names the flag
    @pytest.mark.parametrize(
        "call, flag",
        [
            (lambda: kostka_number(SHAPE_21, (2, 2)), None),
            (lambda: kostka_number((2, 1), (4,)), None),
            (lambda: enumerate_ssyt(SHAPE_21, (1, 1, 2)), None),
            (lambda: count_in_class(signature_of(SHAPE_21, (1, 1, 2), 1), (2, 2)), None),
            (lambda: main(["compute", "--shape", "2,1", "--content", "2,2"]), "--content"),
            (lambda: main(["classes", "--shape", "2,1", "--mu", "2,2", "--index", "1"]), "--mu"),
        ],
        ids=["kostka_number", "kostka_number_partition", "enumerate_ssyt", "count_in_class", "compute", "classes"],
    )
    def test_one_message_from_every_entry_point(self, call, flag, capsys):
        if flag is None:
            with pytest.raises(SizeMismatchError) as e:
                call()
            assert str(e.value) == OVERFILL
        else:
            assert call() == 2
            assert capsys.readouterr().err == f"error: {flag}: {OVERFILL}\n"


class TestEnumeration:
    def test_frozen_count_and_order(self):
        assert enumerate_ssyt(SkewShape((2, 1)), (1, 1, 1)) == [(1, 2, 3), (1, 3, 2)]

    def test_zero_when_impossible(self):
        assert enumerate_ssyt(SkewShape((1, 1)), (2,)) == []  # two equal entries in a column
        assert enumerate_ssyt(SkewShape((2, 2)), (3, 1)) == []

    def test_interior_zero_content(self):
        assert enumerate_ssyt(SkewShape((2, 1)), (2, 0, 1)) == [(1, 1, 3)]

    def test_empty_shape(self):
        assert len(enumerate_ssyt(SkewShape(()), ())) == 1

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatchError):
            enumerate_ssyt(SkewShape((2, 1)), (1, 1))

    def test_rejects_negative_multiplicities(self):
        with pytest.raises(ValueError):
            enumerate_ssyt(SkewShape((2,)), (3, -1))

    def test_all_results_semistandard_with_exact_content(self):
        shape = SkewShape((3, 2), (1,))
        for content in [(2, 2), (1, 1, 1, 1), (2, 1, 1)]:
            for word in enumerate_ssyt(shape, content):
                assert is_semistandard(shape, word)
                assert word_content(word) == content

    def test_iter_semistandard_matches_content_split(self):
        shape = SkewShape((2, 2))
        every = list(iter_semistandard(shape, 3))
        by_content = {}
        for word in every:
            by_content.setdefault(word_content(word), []).append(word)
        for content, group in by_content.items():
            padded = content + (0,) * (3 - len(content))
            assert len(enumerate_ssyt(shape, padded)) == len(group)
        assert all(is_semistandard(shape, word) for word in every)
        assert len(set(every)) == len(every)

    def test_words_are_the_reading_words_in_lexicographic_order(self):
        shape = SkewShape((3, 2), (1,))
        words = list(semistandard_words(shape, (4,) * 4))
        assert words == list(iter_semistandard(shape, 4))
        assert words == sorted(set(words))
        assert list(semistandard_words(shape, (1, 2, 1))) == enumerate_ssyt(shape, (1, 2, 1))

    def test_words_reject_bad_multiplicities(self):
        shape = SkewShape((2,))
        for caps in [(-1, 3), (True, 1), (1, 1.0)]:
            with pytest.raises(ValueError):
                list(semistandard_words(shape, caps))

    def test_caps_bound_each_entry(self):
        # the words are the semistandard fillings, found by brute force, whose content fits under the caps, in order
        shapes = [SkewShape(lam) for m in range(6) for lam in partitions_of(m)] + canonical_box_skew_shapes(3, 4)
        for shape in shapes:
            m = shape.size
            top = max(3, m + 1)
            uncapped = [w for w in product(range(1, top + 1), repeat=m) if semistandard_by_definition(shape, w)]
            for caps in [*product(range(3), repeat=3), *((m,) * k for k in range(top + 1))]:
                expected = [
                    w for w in uncapped
                    if all(c <= cap for c, cap in zip_longest(word_content(w), caps, fillvalue=0))
                ]
                assert list(semistandard_words(shape, caps)) == expected, (shape, caps)

    def test_iter_semistandard_rejects_a_negative_max_entry(self):
        with pytest.raises(ValueError):
            list(iter_semistandard(SkewShape((2,)), -1))

    def test_bad_bounds_raise_at_the_call(self):
        # neither call is iterated: a caller that builds one and passes it on sees the error where it was built
        shape = SkewShape((2,))
        with pytest.raises(ValueError):
            semistandard_words(shape, (-1,))
        with pytest.raises(ValueError):
            iter_semistandard(shape, -1)

    def test_word_content(self):
        assert word_content((1, 3, 3)) == (1, 0, 2)
        assert word_content(()) == ()


class TestLongShapes:
    """The enumerator loops over cells instead of recursing, so long rows fit."""

    def test_one_long_row(self):
        assert enumerate_ssyt(SkewShape((1000,)), (1000,)) == [(1,) * 1000]

    def test_two_long_rows(self):
        assert enumerate_ssyt(SkewShape((600, 400)), (600, 400)) == [(1,) * 600 + (2,) * 400]

    def test_long_row_two_values(self):
        # one filling per number of 1s
        assert len(list(iter_semistandard(SkewShape((1000,)), 2))) == 1001


class TestTallColumns:
    """A cell with b cells below it in its column takes at most len(caps) - b, so tall columns meet no dead ends."""

    @pytest.mark.parametrize("k", [12, 24])
    def test_two_columns_with_one_entry_to_spare(self, k):
        # each column leaves out one of 1..k+1, a on the left and b on the right,
        # and the rows weakly increase exactly when b <= a
        words = list(semistandard_words(SkewShape((2,) * k), (k,) * (k + 1)))
        assert len(words) == math.comb(k + 2, 2)
        assert words == sorted(words)

    def test_one_column_has_one_filling(self):
        assert list(iter_semistandard(SkewShape((1,) * 30), 30)) == [tuple(range(1, 31))]

    def test_skew_column_against_the_definition(self):
        # a column of four cells beside a column of two, under caps with room to spare and caps that bind
        shape = SkewShape((2, 2, 2, 2), (1, 1))
        uncapped = [w for w in product(range(1, 6), repeat=shape.size) if semistandard_by_definition(shape, w)]
        for caps in [(6,) * 5, (2,) * 4, (1, 2, 1, 2, 1), (0, 2, 2, 2, 2)]:
            expected = [
                w for w in uncapped
                if all(c <= cap for c, cap in zip_longest(word_content(w), caps, fillvalue=0))
            ]
            assert list(semistandard_words(shape, caps)) == expected, caps
