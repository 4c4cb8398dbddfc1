"""Equivalence classes of semistandard tableaux that agree away from two adjacent entries.

Fix an index i. Two semistandard tableaux of one shape are in the same class when
they agree on every cell whose entry is neither i nor i+1. Within a class, the
cells holding i or i+1 sit in fixed positions: a column containing two of them is
forced to read i above i+1, and the remaining singleton columns of each row may be
filled freely with i's to the left of (i+1)'s. Class sizes therefore reduce to
counting bounded compositions, which is what makes the adjacent-transfer
inequality provable class by class.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from typing import Iterable, Sequence

from .counting import count_bounded_compositions
from .partitions import _Value, composition, part_at
from .tableaux import Cell, SkewShape, is_semistandard, word_content


class ClassSignature(_Value):
    """Everything a class keeps fixed, plus the derived per-row counts.

    skeleton: ((row, col), entry) for every cell whose entry is not i or i+1,
    sorted row-major. available: the remaining cells, row-major. paired_columns:
    how many columns hold two available cells (their filling is forced).
    row_counts[r-1]: how many columns have their only available cell in row r;
    those columns are consecutive within the row.
    """

    __slots__ = _fields = ("shape", "index", "skeleton", "available", "paired_columns", "row_counts")
    shape: SkewShape
    index: int
    skeleton: tuple[tuple[Cell, int], ...]
    available: tuple[Cell, ...]
    paired_columns: int
    row_counts: tuple[int, ...]

    def __init__(
        self,
        shape: SkewShape,
        index: int,
        skeleton: tuple[tuple[Cell, int], ...],
        available: tuple[Cell, ...],
        paired_columns: int,
        row_counts: tuple[int, ...],
    ) -> None:
        self._set(shape, index, skeleton, available, paired_columns, row_counts)

    @classmethod
    def from_key(cls, shape: SkewShape, key: Sequence[int], index: int) -> ClassSignature:
        """The signature of the class whose fillings of shape have the masked reading word key.

        key is masked_word of a semistandard filling's reading word for index, as a
        tuple or bytes. Asserts the structural facts every class of a semistandard
        witness satisfies: at most two available cells per column, and consecutive
        singleton columns within a row.
        """
        cells = shape.cells()
        skeleton = tuple((cell, e) for cell, e in zip(cells, key) if e)
        available = tuple(cell for cell, e in zip(cells, key) if not e)
        per_column = Counter(c for _, c in available)
        assert max(per_column.values(), default=0) <= 2, "a column of a semistandard tableau holds at most two of i, i+1"
        row_counts = [0] * shape.n_rows
        last = 0
        # available is row-major, so each row's singleton columns arrive in increasing order, one row after another
        for r, c in available:
            if per_column[c] == 1:
                assert not row_counts[r - 1] or last == c - 1, "singleton columns of one row must be consecutive"
                row_counts[r - 1] += 1
                last = c
        paired = len(per_column) - sum(row_counts)
        return cls(shape, index, skeleton, available, paired, tuple(row_counts))

    def render_skeleton(self) -> str:
        """Rows of the shape with fixed entries shown, available cells as '*', gaps as '.'."""
        fixed = dict(self.skeleton)
        lines = []
        for r in range(1, self.shape.n_rows + 1):
            first, last = self.shape.row_span(r)
            tokens = ["."] * (first - 1)
            for c in range(first, last + 1):
                tokens.append(str(fixed[(r, c)]) if (r, c) in fixed else "*")
            lines.append(" ".join(tokens))
        return "\n".join(lines)


def signature_of(shape: SkewShape, word: Sequence[int], index: int) -> ClassSignature:
    """The class signature of the semistandard filling of shape with reading word word, for the pair index, index+1.

    Raises ValueError for index < 1 or a word that is not a semistandard filling of shape.
    """
    if index < 1:
        raise ValueError(f"index must be at least 1, got {index}")
    if not is_semistandard(shape, word):
        raise ValueError("signatures are defined for semistandard fillings only")
    return ClassSignature.from_key(shape, masked_word(word, index), index)


def masked_word(word: Sequence[int], index: int) -> tuple[int, ...] | bytes:
    """A reading word with every index and index+1 replaced by 0: the key of its class.

    Two semistandard fillings of one shape have equal signatures exactly when their
    masked words are equal: the masked word is the skeleton read cell by cell, and
    the skeleton fixes the available cells and with them the paired columns and
    row counts. A bytes word is masked by one translate and stays bytes; any other
    word, such as a tuple with entries above 255, gives a tuple.
    """
    if type(word) is bytes:
        return word.translate(_mask_table(index))
    return tuple([0 if v == index or v == index + 1 else v for v in word])


# one 256-byte table per index; an index above 255 masks nothing in a bytes word, so 256 entries suffice
@lru_cache(maxsize=256)
def _mask_table(index: int) -> bytes:
    """The translate table of masked_word for bytes words: every byte value, masked."""
    return bytes(masked_word(range(256), index))


def count_in_class(sig: ClassSignature, target: Sequence[int]) -> int:
    """How many tableaux of the class have the given content.

    Zero unless the target matches the skeleton multiplicities away from the index
    pair; otherwise the paired columns fix one i and one i+1 each, and the free
    choice is how many i's go into each row's singleton run.
    """
    target = sig.shape.check_content(target)
    i = sig.index
    away = composition([0 if v == i or v == i + 1 else p for v, p in enumerate(target, 1)])
    if word_content([e for _, e in sig.skeleton]) != away:
        return 0
    free_i = part_at(target, i) - sig.paired_columns
    # with matching skeletons the half-sum form of the same quantity is an identity
    assert 2 * free_i == part_at(target, i) - part_at(target, i + 1) + sum(sig.row_counts)
    return count_bounded_compositions(sig.row_counts, free_i)


def signature_census(shape: SkewShape, words: Iterable[Sequence[int]], index: int) -> dict[ClassSignature, int]:
    """Group the semistandard fillings of shape with the given reading words by class signature."""
    return dict(Counter(signature_of(shape, word, index) for word in words))
