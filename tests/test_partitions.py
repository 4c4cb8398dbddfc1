"""Partitions, compositions, dominance, covers, and chains."""

import gc
import re
import tracemalloc
from enum import IntEnum

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kostka import (
    COLUMN,
    ROW,
    CoverMove,
    NotComparableError,
    SizeMismatchError,
    SkewShape,
    adjacent_transfer_index,
    apply_move,
    composition,
    conjugate,
    count_bounded_compositions,
    cover_chain,
    covers,
    display_parts,
    dominates,
    enumerate_ssyt,
    format_parts,
    full_transfer_chain,
    is_semistandard,
    kostka_number,
    parse_parts,
    part_at,
    partition,
    partitions_of,
)
from kostka.verify import bounded_content_family

partitions_strategy = st.lists(st.integers(1, 6), max_size=5).map(lambda xs: tuple(sorted(xs, reverse=True)))
# every composition of each m <= 5 with at most m+1 parts; their pairs differ in length and in total
SMALL_COMPOSITIONS = [c for m in range(6) for c in bounded_content_family(m)]


def padded(a, b):
    """a and b as lists of one width, zeros appended to the shorter."""
    width = max(len(a), len(b))
    return list(a) + [0] * (width - len(a)), list(b) + [0] * (width - len(b))


class TestConstructors:
    def test_partition_strips_trailing_zeros(self):
        assert partition([3, 1, 0, 0]) == (3, 1)
        assert partition([]) == ()
        assert partition([0, 0]) == ()

    def test_partition_rejects_increases_and_negatives(self):
        with pytest.raises(ValueError):
            partition([1, 2])
        with pytest.raises(ValueError):
            partition([2, -1])
        with pytest.raises(ValueError):
            partition([2, 0, 1])

    def test_composition_allows_interior_zeros(self):
        assert composition([1, 0, 2, 0]) == (1, 0, 2)
        assert composition([]) == ()
        with pytest.raises(ValueError):
            composition([1, -1])

    @pytest.mark.parametrize("bad", [True, -1, 1.0])
    def test_composition_names_the_bad_part(self, bad):
        # plain ints take a fast path; anything else must still meet the exact check
        message = f"composition parts must be non-negative integers, got {bad!r} at position 3"
        with pytest.raises(ValueError, match=re.escape(message)):
            composition((2, 0, bad, 1))

    def test_composition_accepts_int_subclasses(self):
        class Part(IntEnum):
            ZERO = 0
            TWO = 2

        assert composition([Part.TWO, 1, Part.ZERO]) == (2, 1)
        assert type(composition([Part.TWO])[0]) is Part

    # bool is a subclass of int, but True is not a part
    @pytest.mark.parametrize(
        "build",
        [
            lambda: partition([True, True]),
            lambda: composition([1, False, 1]),
            lambda: kostka_number((True,), (True,)),
            lambda: count_bounded_compositions((True, 2), 1),
            lambda: enumerate_ssyt(SkewShape((1,)), (True,)),
            lambda: is_semistandard(SkewShape((1,)), (True,)),
        ],
        ids=["partition", "composition", "kostka_number", "bounded_caps", "ssyt_content", "tableau_entry"],
    )
    def test_bool_parts_rejected(self, build):
        with pytest.raises(ValueError):
            build()

    def test_part_at_is_one_based_and_zero_padded(self):
        assert part_at((3, 1), 1) == 3
        assert part_at((3, 1), 2) == 1
        assert part_at((3, 1), 3) == 0
        assert part_at((3, 1), 99) == 0


class TestDominance:
    def test_examples(self):
        assert dominates((3, 1), (2, 2))
        assert not dominates((2, 2), (3, 1))
        assert dominates((2, 2), (2, 1, 1))
        assert dominates((4,), (1, 1, 1, 1))

    def test_reflexive(self):
        for n in range(7):
            for p in partitions_of(n):
                assert dominates(p, p)

    def test_size_mismatch_raises(self):
        with pytest.raises(SizeMismatchError):
            dominates((3, 1), (3, 1, 1))

    def test_accepts_compositions(self):
        assert dominates((2, 1, 0), (1, 2))
        assert not dominates((1, 2), (2, 1))

    def test_incomparable_pair(self):
        assert not dominates((3, 1, 1, 1), (2, 2, 2))
        assert not dominates((2, 2, 2), (3, 1, 1, 1))

    def test_every_small_pair_against_padded_prefix_sums(self):
        for a in SMALL_COMPOSITIONS:
            for b in SMALL_COMPOSITIONS:
                if sum(a) != sum(b):
                    with pytest.raises(SizeMismatchError):
                        dominates(a, b)
                    continue
                pa, pb = padded(a, b)
                expected = all(sum(pa[:k]) >= sum(pb[:k]) for k in range(1, len(pa) + 1))
                assert dominates(a, b) == dominates(a + (0,), b) == expected, (a, b)


class TestPartitionsOf:
    def test_frozen_small_lists(self):
        assert partitions_of(0) == [()]
        assert partitions_of(1) == [(1,)]
        assert partitions_of(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]

    def test_counts_match_euler_table(self):
        # number of partitions of n for n = 0..10
        expected = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
        assert [len(partitions_of(n)) for n in range(11)] == expected

    def test_reverse_lexicographic_order(self):
        for n in range(9):
            parts = partitions_of(n)
            assert parts == sorted(parts, reverse=True)
            assert len(set(parts)) == len(parts)

    def test_max_part_bound(self):
        assert partitions_of(4, max_part=2) == [(2, 2), (2, 1, 1), (1, 1, 1, 1)]
        assert partitions_of(3, max_part=0) == []
        assert partitions_of(0, max_part=0) == [()]

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            partitions_of(-1)

    def test_matches_recursive_reference(self):
        def reference(n, bound):
            if n == 0:
                return [()]
            return [(first,) + rest for first in range(min(n, bound), 0, -1) for rest in reference(n - first, first)]

        for n in range(21):
            assert partitions_of(n) == reference(n, n)
            for max_part in range(n + 2):
                assert partitions_of(n, max_part) == reference(n, max_part), (n, max_part)

    def test_deep_requests_need_no_stack(self):
        assert partitions_of(1500, max_part=1) == [(1,) * 1500]
        assert len(partitions_of(1200, max_part=2)) == 601

    def test_keeps_nothing_between_calls(self):
        tracemalloc.start()
        try:
            partitions_of(30)
            # a full collection empties the free lists, which hold on to freed small tuples
            gc.collect()
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kept < 64 * 1024


class TestConjugate:
    def test_examples(self):
        assert conjugate((4, 2, 1)) == (3, 2, 1, 1)
        assert conjugate((3,)) == (1, 1, 1)
        assert conjugate(()) == ()

    @given(partitions_strategy)
    def test_involution(self, p):
        assert conjugate(conjugate(p)) == p

    def test_reverses_dominance(self):
        for n in range(7):
            parts = partitions_of(n)
            for a in parts:
                for b in parts:
                    assert dominates(a, b) == dominates(conjugate(b), conjugate(a))


class TestCovers:
    def test_frozen_examples(self):
        assert [(m.describe(), t) for m, t in covers((3, 1))] == [("row-move i=1", (2, 2))]
        assert [(m.describe(), t) for m, t in covers((2, 1))] == [("column-move i=1, j=3", (1, 1, 1))]
        assert [t for _, t in covers((3, 2, 1))] == [(3, 1, 1, 1), (2, 2, 2)]
        assert [t for _, t in covers((2, 2))] == [(2, 1, 1)]
        assert covers((1, 1, 1)) == []
        assert covers(()) == []

    def test_duplicate_column_move_reported_as_row(self):
        # when part i+1 is part i minus 2, the row move and the j=i+1 column
        # move produce the same target; the annotation must be the row move
        moves = dict((t, m) for m, t in covers((4, 2)))
        assert set(moves) == {(4, 1, 1), (3, 3)}
        assert moves[(3, 3)].kind == ROW
        [(move, target)] = covers((3, 1))
        assert target == (2, 2) and move.kind == ROW

    def test_targets_are_reverse_lexicographically_sorted(self):
        for n in range(9):
            for p in partitions_of(n):
                targets = [t for _, t in covers(p)]
                assert targets == sorted(targets, reverse=True)

    def test_every_cover_strictly_dominated(self):
        for n in range(8):
            for p in partitions_of(n):
                for move, target in covers(p):
                    assert apply_move(p, move) == target
                    assert dominates(p, target) and p != target


class TestApplyMove:
    def test_row_move(self):
        assert apply_move((3, 1), CoverMove(ROW, 1, 2)) == (2, 2)
        assert apply_move((2, 2), CoverMove(ROW, 2, 3)) == (2, 1, 1)

    def test_column_move(self):
        assert apply_move((2, 1), CoverMove(COLUMN, 1, 3)) == (1, 1, 1)
        assert apply_move((3, 2, 1), CoverMove(COLUMN, 1, 3)) == (2, 2, 2)

    def test_row_move_precondition(self):
        with pytest.raises(ValueError):
            apply_move((2, 1), CoverMove(ROW, 1, 2))  # needs gap of 2
        with pytest.raises(ValueError):
            apply_move((3, 1), CoverMove(ROW, 1, 3))  # row moves go to the next row

    def test_adjacent_column_move_mirrors_row_move(self):
        # the j=i+1 column move is legal exactly when the gap is 2, and then
        # it coincides with the row move
        assert apply_move((3, 1), CoverMove(COLUMN, 1, 2)) == (2, 2)
        assert apply_move((3, 1), CoverMove(ROW, 1, 2)) == (2, 2)

    def test_column_move_preconditions(self):
        with pytest.raises(ValueError):
            apply_move((3, 2), CoverMove(COLUMN, 1, 2))  # part j must be part i minus 2
        with pytest.raises(ValueError):
            apply_move((3, 3, 1), CoverMove(COLUMN, 1, 3))  # in-between part not part i minus 1
        with pytest.raises(ValueError):
            apply_move((2, 1), CoverMove(COLUMN, 2, 2))  # needs i < j
        with pytest.raises(ValueError):
            apply_move((2, 1), CoverMove("diag", 1, 2))

    def test_accepts_exactly_the_moves_meeting_the_box_move_preconditions(self):
        # the preconditions of a cover move, stated directly: a row move needs a gap of 2 to the next row; a column
        # move needs i < j, part j equal to part i minus 2 and every part between equal to part i minus 1
        def legal(mu, move):
            i, j = move.i, move.j
            if move.kind == ROW:
                return j == i + 1 and i >= 1 and part_at(mu, i) >= part_at(mu, i + 1) + 2
            top = part_at(mu, i)
            return (
                1 <= i < j
                and top >= 2
                and part_at(mu, j) == top - 2
                and all(part_at(mu, k) == top - 1 for k in range(i + 1, j))
            )

        for n in range(9):
            for mu in partitions_of(n):
                for kind in (ROW, COLUMN):
                    for i in range(len(mu) + 2):
                        for j in range(i + 1, len(mu) + 3):
                            move = CoverMove(kind, i, j)
                            if legal(mu, move):
                                # one box leaves row i for row j
                                box = list(mu) + [0] * (j - len(mu))
                                box[i - 1] -= 1
                                box[j - 1] += 1
                                assert full_transfer_chain(mu, move)[-1] == tuple(box)
                                assert apply_move(mu, move) == partition(box)
                            else:
                                with pytest.raises(ValueError, match=re.escape(str(move))):
                                    apply_move(mu, move)


class TestCoverChain:
    def test_frozen_chains(self):
        assert cover_chain((4,), (1, 1, 1, 1)) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
        assert cover_chain((3, 1), (2, 1, 1)) == [(3, 1), (2, 2), (2, 1, 1)]
        assert cover_chain((2, 2), (2, 2)) == [(2, 2)]

    def test_rejects_mismatched_sizes(self):
        with pytest.raises(SizeMismatchError):
            cover_chain((3, 1), (2, 1))

    def test_rejects_incomparable(self):
        with pytest.raises(NotComparableError):
            cover_chain((2, 2, 2), (3, 1, 1, 1))

    def test_every_step_is_a_cover(self):
        for n in range(8):
            parts = partitions_of(n)
            for mu in parts:
                for nu in parts:
                    if not dominates(mu, nu):
                        continue
                    chain = cover_chain(mu, nu)
                    assert chain[0] == mu and chain[-1] == nu
                    for before, after in zip(chain, chain[1:]):
                        assert after in {t for _, t in covers(before)}


class TestTransferChains:
    def test_intermediates(self):
        assert full_transfer_chain((3, 2, 1), CoverMove(COLUMN, 1, 3))[1:-1] == [(2, 3, 1)]
        assert full_transfer_chain((2, 1), CoverMove(COLUMN, 1, 3))[1:-1] == [(1, 2, 0)]
        assert full_transfer_chain((2, 1, 1, 1), CoverMove(COLUMN, 1, 5))[1:-1] == [
            (1, 2, 1, 1, 0),
            (1, 1, 2, 1, 0),
            (1, 1, 1, 2, 0),
        ]

    def test_full_chain_padded(self):
        assert full_transfer_chain((2, 1), CoverMove(COLUMN, 1, 3)) == [(2, 1, 0), (1, 2, 0), (1, 1, 1)]
        assert full_transfer_chain((3, 1), CoverMove(ROW, 1, 2)) == [(3, 1), (2, 2)]

    def test_chain_steps_are_adjacent_transfers(self):
        chain = full_transfer_chain((2, 1, 1, 1), CoverMove(COLUMN, 1, 5))
        indices = [adjacent_transfer_index(a, b) for a, b in zip(chain, chain[1:])]
        assert indices == [1, 2, 3, 4]


class TestAdjacentTransferIndex:
    def test_recognizes_transfers(self):
        assert adjacent_transfer_index((2, 1, 0), (1, 2, 0)) == 1
        assert adjacent_transfer_index((1, 2, 0), (1, 1, 1)) == 2
        assert adjacent_transfer_index((2, 1), (2, 0, 1)) == 2

    def test_rejects_non_transfers(self):
        assert adjacent_transfer_index((2, 1), (2, 1)) is None
        assert adjacent_transfer_index((2, 1), (1, 1, 1)) is None  # two units moved
        assert adjacent_transfer_index((1, 2), (2, 1)) is None  # wrong direction
        assert adjacent_transfer_index((3, 1), (2, 1, 1)) is None  # not adjacent
        assert adjacent_transfer_index((2, 1), (1, 1)) is None  # different totals
        assert adjacent_transfer_index((1, 1), (0, 2)) is None  # source did not exceed target

    def test_every_small_pair_against_padded_differences(self):
        for a in SMALL_COMPOSITIONS:
            for b in SMALL_COMPOSITIONS:
                pa, pb = padded(a, b)
                diff = [y - x for x, y in zip(pa, pb)]
                expected = None
                for r in range(1, len(diff)):
                    if diff == [0] * (r - 1) + [-1, 1] + [0] * (len(diff) - r - 1) and pa[r - 1] > pa[r]:
                        expected = r
                assert adjacent_transfer_index(a, b) == adjacent_transfer_index(a, b + (0,)) == expected, (a, b)


class TestTextFormats:
    def test_parse_examples(self):
        assert parse_parts("3,1") == (3, 1)
        assert parse_parts("") == ()
        assert parse_parts("0") == ()
        assert parse_parts(" 2,2 ") == (2, 2)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_parts("3,x")
        with pytest.raises(ValueError):
            parse_parts("3;1")

    def test_format_examples(self):
        assert format_parts((3, 1)) == "3,1"
        assert format_parts(()) == "0"
        assert display_parts((2, 2)) == "(2,2)"
        assert display_parts(()) == "()"

    @given(st.lists(st.integers(0, 9), max_size=6))
    def test_round_trip(self, xs):
        c = composition(xs)
        assert parse_parts(format_parts(c)) == c
