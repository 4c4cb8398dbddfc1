"""Tableau classes fixed away from an adjacent entry pair, and class-level counting."""

from collections import Counter, defaultdict

import pytest

from kostka import (
    ClassSignature,
    SizeMismatchError,
    SkewShape,
    canonical_box_skew_shapes,
    count_in_class,
    iter_semistandard,
    masked_word,
    partitions_of,
    signature_census,
    signature_of,
    transfer_target,
    word_content,
)


class TestSignatureOf:
    def test_all_cells_available(self):
        sig = signature_of(SkewShape((2, 1)), (1, 1, 2), 1)
        assert sig.skeleton == ()
        assert sig.available == ((1, 1), (1, 2), (2, 1))
        assert sig.paired_columns == 1
        assert sig.row_counts == (1, 0)

    def test_skeleton_extraction(self):
        sig = signature_of(SkewShape((2, 1)), (1, 2, 3), 1)
        assert sig.skeleton == (((2, 1), 3),)
        assert sig.available == ((1, 1), (1, 2))
        assert sig.paired_columns == 0
        assert sig.row_counts == (2, 0)

    def test_index_beyond_entries(self):
        sig = signature_of(SkewShape((2, 1)), (1, 2, 3), 5)
        assert sig.available == ()
        assert sig.paired_columns == 0
        assert sig.row_counts == (0, 0)

    def test_classes_coincide_iff_agreement_off_pair(self):
        shape = SkewShape((2, 2))
        a, b, c = (1, 1, 2, 2), (1, 2, 2, 3), (1, 1, 3, 3)
        assert signature_of(shape, a, 1) == signature_of(shape, a, 1)
        assert signature_of(shape, a, 1) != signature_of(shape, b, 1)  # skeletons differ (3 present in b)
        assert signature_of(shape, a, 1) != signature_of(shape, c, 1)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            signature_of(SkewShape((2,)), (2, 1), 1)
        with pytest.raises(ValueError):
            signature_of(SkewShape((2,)), (1, 2), 0)


class TestCountInClass:
    def test_frozen_example(self):
        sig = signature_of(SkewShape((2, 1)), (1, 2, 3), 1)
        assert count_in_class(sig, (1, 1, 1)) == 1

    def test_skeleton_mismatch_counts_zero(self):
        sig = signature_of(SkewShape((2, 1)), (1, 2, 3), 1)
        assert count_in_class(sig, (2, 1)) == 0  # no 3 in the target
        assert count_in_class(sig, (1, 0, 1, 1)) == 0  # a 4 the skeleton lacks

    def test_empty_available_gives_singleton(self):
        sig = signature_of(SkewShape((2, 1)), (1, 2, 3), 5)
        assert count_in_class(sig, (1, 1, 1)) == 1
        assert count_in_class(sig, (0, 1, 1, 1)) == 0

    def test_size_mismatch_raises(self):
        sig = signature_of(SkewShape((2, 1)), (1, 2, 3), 1)
        with pytest.raises(SizeMismatchError):
            count_in_class(sig, (1, 1))

    def test_infeasible_pair_split_counts_zero(self):
        # class of [1,1],[2]: one paired column, one singleton in row 1;
        # asking for three 1's exceeds what the available cells can hold
        sig = signature_of(SkewShape((2, 1)), (1, 1, 2), 1)
        assert count_in_class(sig, (3, 0)) == 0
        assert count_in_class(sig, (2, 1)) == 1
        assert count_in_class(sig, (1, 2)) == 1
        assert count_in_class(sig, (0, 3)) == 0  # a paired column still needs one 1


class TestTransferTarget:
    def test_examples(self):
        assert transfer_target((2, 1), 1) == (1, 2)
        assert transfer_target((2, 1, 0), 2) == (2, 0, 1)
        assert transfer_target((3,), 1) == (2, 1)

    def test_precondition(self):
        with pytest.raises(ValueError):
            transfer_target((1, 2), 1)
        with pytest.raises(ValueError):
            transfer_target((1, 1), 1)
        with pytest.raises(ValueError):
            transfer_target((2, 1), 0)


class TestMaskedWord:
    def test_examples(self):
        assert masked_word((1, 2, 3, 2), 2) == (1, 0, 0, 0)
        assert masked_word((1, 1, 4), 1) == (0, 0, 4)
        assert masked_word((), 3) == ()
        assert masked_word(bytes((1, 2, 3, 2)), 2) == bytes((1, 0, 0, 0))
        assert masked_word(bytes((1, 1, 4)), 1) == bytes((0, 0, 4))
        assert masked_word(b"", 3) == b""
        # index 255 pairs with 256, which no byte holds; indices beyond never match
        assert masked_word(bytes((254, 255, 1)), 255) == bytes((254, 0, 1))
        assert masked_word(bytes((254, 255, 1)), 254) == bytes((0, 0, 1))
        assert masked_word(bytes((254, 255, 1)), 300) == bytes((254, 255, 1))

    def test_entries_above_255(self):
        assert masked_word((1, 255, 256, 300), 255) == (1, 0, 0, 300)
        assert masked_word((1, 255, 256, 300), 300) == (1, 255, 256, 0)
        sig = signature_of(SkewShape((3, 1)), (1, 256, 300, 257), 256)
        assert sig.skeleton == (((1, 1), 1), ((1, 3), 300))
        assert sig.available == ((1, 2), (2, 1))
        assert (sig.paired_columns, sig.row_counts) == (0, (1, 1))

    def test_same_partition_as_signatures(self):
        # every filling with entries up to m+1 of every straight shape with up to 6
        # cells and of every canonical skew shape in a 3 x 4 box with up to 4 cells,
        # keyed by its tuple word and by its bytes word
        shapes = [SkewShape(lam) for m in range(7) for lam in partitions_of(m)]
        shapes += canonical_box_skew_shapes(3, 4)
        for shape in shapes:
            words = list(iter_semistandard(shape, shape.size + 1))
            for index in range(1, 5):
                signatures = [signature_of(shape, word, index) for word in words]
                by_signature = defaultdict(set)
                for word, sig in zip(words, signatures):
                    by_signature[sig].add(word)
                expected = sorted(map(sorted, by_signature.values()))
                for pack in (tuple, bytes):
                    by_key = defaultdict(set)
                    for word, sig in zip(words, signatures):
                        key = masked_word(pack(word), index)
                        assert ClassSignature.from_key(shape, key, index) == sig
                        by_key[key].add(word)
                    assert sorted(map(sorted, by_key.values())) == expected


def masked(content, index, width):
    padded = content + (0,) * (width - len(content))
    pair_total = padded[index - 1] + padded[index]
    key = padded[: index - 1] + (None, None) + padded[index + 1 :]
    return key, pair_total


def unmask(key, index, split, pair_total):
    padded = key[: index - 1] + (split, pair_total - split) + key[index + 1 :]
    k = len(padded)
    while k and padded[k - 1] == 0:
        k -= 1
    return padded[:k]


class TestClassInvariants:
    """Census-driven checks over every straight shape with up to 6 cells and every index up to 4.

    For each shape and index, all fillings with entries up to max(cells+1, 5) are
    grouped by their content away from the pair (index, index+1). Inside each
    group, the distinct signatures are exactly the classes that can realize those
    contents, so three facts are checkable exhaustively: the per-class predicted
    count matches a direct filtration of the enumeration, the class counts sum to
    the full count for every content, and paired columns always read index above
    index+1.
    """

    MAX_CELLS = 6
    MAX_INDEX = 4

    def collect(self, shape, index, max_entry):
        groups = defaultdict(lambda: (set(), Counter(), Counter()))
        for word in iter_semistandard(shape, max_entry):
            content = word_content(word)
            key, _ = masked(content, index, max_entry)
            sig = signature_of(shape, word, index)
            sigs, by_class, totals = groups[key]
            sigs.add(sig)
            by_class[(sig, content)] += 1
            totals[content] += 1
        return groups

    def test_filtration_partition_and_forced_pairs(self):
        for m in range(self.MAX_CELLS + 1):
            for lam in partitions_of(m):
                shape = SkewShape(lam)
                max_entry = max(m + 1, self.MAX_INDEX + 1)
                for index in range(1, self.MAX_INDEX + 1):
                    groups = self.collect(shape, index, max_entry)
                    for key, (sigs, by_class, totals) in groups.items():
                        pair_totals = {sum(c) - sum(v for v in key if v is not None) for c in totals}
                        assert len(pair_totals) == 1
                        pair_total = pair_totals.pop()
                        for split in range(pair_total + 1):
                            content = unmask(key, index, split, pair_total)
                            expected_total = totals.get(content, 0)
                            class_sum = 0
                            for sig in sigs:
                                predicted = count_in_class(sig, content)
                                observed = by_class.get((sig, content), 0)
                                assert predicted == observed
                                class_sum += predicted
                            assert class_sum == expected_total

    def test_paired_columns_forced(self):
        for m in range(self.MAX_CELLS + 1):
            for lam in partitions_of(m):
                shape = SkewShape(lam)
                for index in (1, 2):
                    for word in iter_semistandard(shape, m + 1):
                        sig = signature_of(shape, word, index)
                        entries = dict(zip(shape.cells(), word))
                        by_column = defaultdict(list)
                        for r, c in sig.available:
                            by_column[c].append(r)
                        for c, rows in by_column.items():
                            if len(rows) == 2:
                                top, bottom = sorted(rows)
                                assert entries[(top, c)] == index
                                assert entries[(bottom, c)] == index + 1


class TestSignatureCensus:
    def test_groups_by_class(self):
        shape = SkewShape((3, 2))
        mu = (2, 2, 1)
        words = [w for w in iter_semistandard(shape, 3) if word_content(w) == mu]
        census = signature_census(shape, words, 1)
        assert sum(census.values()) == len(words) == 2
        assert len(census) == 2
        for sig, count in census.items():
            assert count_in_class(sig, mu) == count

    def test_skew_shape_classes(self):
        shape = SkewShape((3, 2), (1,))
        mu = (2, 2)
        words = [w for w in iter_semistandard(shape, 2) if word_content(w) == mu]
        census = signature_census(shape, words, 1)
        assert sum(census.values()) == 2
        for sig, count in census.items():
            assert count_in_class(sig, mu) == count

    def test_rejects_a_tableau_of_another_shape(self):
        # a word carries no shape, but a filling of (3,) has one entry too many for (2,)
        with pytest.raises(ValueError, match="expected 2 entries, one per cell, got 3"):
            signature_census(SkewShape((2,)), [(1, 2), (1, 1, 2)], 1)
