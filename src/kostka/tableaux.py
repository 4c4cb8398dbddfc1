"""Skew Young diagrams, semistandardness, and exhaustive enumeration.

Cells are (row, column) pairs, both 1-based. A skew shape holds the cells of its
outer partition that are not covered by its inner partition; a straight shape has
an empty inner partition. A filling of a shape is its reading word: the entries
of its cells in row-major order, the order of cells(). Enumeration here is the
slow, obviously-correct oracle; speed lives in the dynamic-programming engine.
One backtracking loop enumerates fillings as reading words.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .partitions import Parts, SizeMismatchError, _Value, composition, partition

Cell = tuple[int, int]


class SkewShape(_Value):
    """Cells between an inner and an outer partition.

    Trailing rows without cells are dropped so shapes with equal cell sets
    compare equal; rows are otherwise kept as given (a leading or interior
    cell-free row still shifts the rows below it).
    """

    __slots__ = ("outer", "inner", "size")
    _fields = ("outer", "inner")
    outer: Parts
    inner: Parts
    size: int  # the cell count, kept so each content check sums only the content

    def __init__(self, outer: Sequence[int], inner: Sequence[int] = ()) -> None:
        outer = list(partition(outer))
        inner = list(partition(inner))
        if len(inner) > len(outer):
            raise ValueError(f"inner shape {tuple(inner)} has more rows than outer {tuple(outer)}")
        if any(inner[r] > outer[r] for r in range(len(inner))):
            raise ValueError(f"inner shape {tuple(inner)} not contained in outer {tuple(outer)}")
        while outer and len(inner) == len(outer) and inner[-1] == outer[-1]:
            outer.pop()
            inner.pop()
        self._set(tuple(outer), tuple(inner))
        object.__setattr__(self, "size", sum(outer) - sum(inner))

    @property
    def n_rows(self) -> int:
        return len(self.outer)

    def check_content(self, content: Sequence[int]) -> Parts:
        """content as a composition, provided its total fills the cells.

        Raises ValueError for a negative or non-integer multiplicity, and
        SizeMismatchError when the total differs from the cell count.
        """
        content = composition(content)
        total = sum(content)
        if total != self.size:
            raise SizeMismatchError(f"content total {total} does not fill {self.size} cells")
        return content

    def inner_at(self, r: int) -> int:
        return self.inner[r - 1] if r <= len(self.inner) else 0

    def row_span(self, r: int) -> tuple[int, int]:
        """Columns of the cells in row r as an inclusive (first, last) pair."""
        return self.inner_at(r) + 1, self.outer[r - 1]

    def cells(self) -> list[Cell]:
        """All cells in row-major order."""
        out = []
        for r in range(1, self.n_rows + 1):
            first, last = self.row_span(r)
            for c in range(first, last + 1):
                out.append((r, c))
        return out


def _neighbours(shape: SkewShape) -> tuple[list[Cell], list[int], list[int]]:
    """The cells in row-major order, with the positions of each cell's left neighbour and of the cell above.

    A missing neighbour is -1: the scans pad their words with a trailing 0, which that index reads.
    """
    cells = shape.cells()
    index_of = {cell: k for k, cell in enumerate(cells)}
    left = [k - 1 if k and cells[k - 1][0] == r else -1 for k, (r, _) in enumerate(cells)]
    up = [index_of.get((r - 1, c), -1) for r, c in cells]
    return cells, left, up


def is_semistandard(shape: SkewShape, word: Sequence[int]) -> bool:
    """Whether word, read into shape's cells row by row, weakly increases along rows and strictly down columns.

    Raises ValueError unless word holds one positive integer per cell.
    """
    if len(word) != shape.size:
        raise ValueError(f"expected {shape.size} entries, one per cell, got {len(word)}")
    for e in word:
        if isinstance(e, bool) or not isinstance(e, int) or e < 1:
            raise ValueError(f"entries must be positive integers, got {e!r}")
    _, left, up = _neighbours(shape)
    # entries are positive, so the padding 0 a missing neighbour reads never breaks a comparison
    word = (*word, 0)
    return all(word[a] <= v and word[b] < v for v, a, b in zip(word, left, up))


def word_content(word: Sequence[int]) -> Parts:
    """Multiplicity vector of a word's entries, indexed 1..max entry; the empty word gives ()."""
    if not word:
        return ()
    return tuple(map(word.count, range(1, max(word) + 1)))


def semistandard_words(shape: SkewShape, caps: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Every semistandard filling in which the entry k appears at most caps[k-1] times, as its reading word.

    The reading word lists the entries row by row, top to bottom, left to right.
    Caps that total the cell count fix the content exactly. Backtracking runs over
    the cells in row-major order with ascending candidates, so the words come out
    in lexicographic order; it is a loop over cell positions, not a recursion, so
    long shapes cannot exhaust the stack. Bad caps raise ValueError at the call.
    """
    return _words(shape, composition(caps))  # composition rejects negative or non-integer caps


def _words(shape: SkewShape, caps: Parts) -> Iterator[tuple[int, ...]]:
    cells, left, up = _neighbours(shape)
    n = len(cells)
    # a cell with b cells below it in its column needs b larger entries there, so it takes at most len(caps) - b
    highest = [len(caps)] * n
    for k in range(n - 1, -1, -1):
        if up[k] >= 0:
            highest[up[k]] = highest[k] - 1
    # copies of each entry still allowed
    remaining = [0, *caps]
    # a missing neighbour (-1) reads the last slot of values, which stays 0
    values = [0] * (n + 1)
    k, v = 0, 1
    while k >= 0:
        if k == n:
            yield tuple(values[:n])
        else:
            top = highest[k]
            while v <= top and not remaining[v]:
                v += 1
            if v <= top:
                values[k] = v
                remaining[v] -= 1
                k += 1
                if k < n:
                    v = max(values[left[k]], values[up[k]] + 1)
                continue
        # step back and try the next value at the previous cell
        k -= 1
        remaining[values[k]] += 1
        v = values[k] + 1


def enumerate_ssyt(shape: SkewShape, content: Sequence[int]) -> list[tuple[int, ...]]:
    """The reading words of all semistandard fillings of shape with the exact content, in lexicographic order.

    content[k] is the required multiplicity of the entry k+1; zero multiplicities
    are allowed. The total must equal the number of cells.
    """
    return list(semistandard_words(shape, shape.check_content(content)))


def iter_semistandard(shape: SkewShape, max_entry: int) -> Iterator[tuple[int, ...]]:
    """The reading word of each semistandard filling with entries in 1..max_entry, lazily; a negative one raises."""
    if max_entry < 0:
        raise ValueError(f"max_entry must be non-negative, got {max_entry}")
    # a cap of the cell count never binds, so these caps bound only which entries appear
    return semistandard_words(shape, (shape.size,) * max_entry)
