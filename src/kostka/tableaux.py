"""Skew Young diagrams, tableaux, semistandardness, and exhaustive enumeration.

Cells are (row, column) pairs, both 1-based. A skew shape holds the cells of its
outer partition that are not covered by its inner partition; a straight shape has
an empty inner partition. Enumeration here is the slow, obviously-correct oracle;
speed lives in the dynamic-programming engine.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Iterator, Sequence

from .partitions import Parts, SizeMismatchError, partition

Cell = tuple[int, int]


@dataclass(frozen=True)
class SkewShape:
    """Cells between an inner and an outer partition.

    Trailing rows without cells are dropped so shapes with equal cell sets
    compare equal; rows are otherwise kept as given (a leading or interior
    cell-free row still shifts the rows below it).
    """

    outer: Parts
    inner: Parts = ()

    def __post_init__(self) -> None:
        outer = list(partition(self.outer))
        inner = list(partition(self.inner))
        if len(inner) > len(outer):
            raise ValueError(f"inner shape {tuple(inner)} has more rows than outer {tuple(outer)}")
        if any(inner[r] > outer[r] for r in range(len(inner))):
            raise ValueError(f"inner shape {tuple(inner)} not contained in outer {tuple(outer)}")
        while outer and len(inner) == len(outer) and inner[-1] == outer[-1]:
            outer.pop()
            inner.pop()
        object.__setattr__(self, "outer", tuple(outer))
        object.__setattr__(self, "inner", tuple(inner))

    @property
    def n_rows(self) -> int:
        return len(self.outer)

    @property
    def size(self) -> int:
        return sum(self.outer) - sum(self.inner)

    @property
    def is_straight(self) -> bool:
        return not self.inner

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

    def __contains__(self, cell: Cell) -> bool:
        r, c = cell
        if not 1 <= r <= self.n_rows:
            return False
        first, last = self.row_span(r)
        return first <= c <= last


@dataclass(frozen=True)
class Tableau:
    """A filling of a skew shape; rows[r-1] lists the entries of row r left to right."""

    shape: SkewShape
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(row) for row in self.rows)
        if len(rows) != self.shape.n_rows:
            raise ValueError(f"expected {self.shape.n_rows} rows, got {len(rows)}")
        for r in range(1, len(rows) + 1):
            first, last = self.shape.row_span(r)
            if len(rows[r - 1]) != last - first + 1:
                raise ValueError(f"row {r} needs {last - first + 1} entries, got {len(rows[r - 1])}")
            for e in rows[r - 1]:
                if isinstance(e, bool) or not isinstance(e, int) or e < 1:
                    raise ValueError(f"entries must be positive integers, got {e!r} in row {r}")
        object.__setattr__(self, "rows", rows)

    def entry(self, r: int, c: int) -> int:
        if (r, c) not in self.shape:
            raise KeyError(f"cell ({r}, {c}) is not in the shape")
        return self.rows[r - 1][c - self.shape.inner_at(r) - 1]

    def reading_word(self) -> tuple[int, ...]:
        """Entries row by row, top to bottom, left to right."""
        return tuple(chain.from_iterable(self.rows))

    def render(self) -> str:
        """One line per row, entries space-separated, cells of the inner shape as dots."""
        lines = []
        for r in range(1, self.shape.n_rows + 1):
            tokens = ["."] * self.shape.inner_at(r) + [str(e) for e in self.rows[r - 1]]
            lines.append(" ".join(tokens))
        return "\n".join(lines)


def is_semistandard(t: Tableau) -> bool:
    """Rows weakly increase and columns strictly increase over the present cells."""
    sh = t.shape
    for r in range(1, sh.n_rows + 1):
        row = t.rows[r - 1]
        if any(row[k] > row[k + 1] for k in range(len(row) - 1)):
            return False
        if r == 1:
            continue
        # the column overlap of rows r-1 and r is the interval inner_{r-1}+1 .. outer_r
        first = sh.inner_at(r - 1) + 1
        last = sh.outer[r - 1]
        for c in range(first, last + 1):
            if t.entry(r - 1, c) >= t.entry(r, c):
                return False
    return True


def content_of(t: Tableau) -> Parts:
    """Multiplicity vector of the entries, indexed 1..max entry; empty shape gives ()."""
    counts = Counter(t.reading_word())
    if not counts:
        return ()
    top = max(counts)
    return tuple(counts.get(v, 0) for v in range(1, top + 1))


def _fillings(shape: SkewShape, n_values: int, remaining: list[int] | None) -> Iterator[Tableau]:
    """Backtracking over cells in row-major order, candidate values ascending.

    remaining, when given, holds how many copies of each value are still unplaced;
    that makes the output exactly the fillings with a prescribed content. The
    row-major order with ascending candidates yields tableaux in lexicographic
    order of their reading words.
    """
    cells = shape.cells()
    above: dict[int, int] = {}
    index_of = {cell: k for k, cell in enumerate(cells)}
    for k, (r, c) in enumerate(cells):
        if (r - 1, c) in index_of:
            above[k] = index_of[(r - 1, c)]
    values = [0] * len(cells)
    row_lengths = [shape.outer[r] - shape.inner_at(r + 1) for r in range(shape.n_rows)]

    def snapshot() -> Tableau:
        rows = []
        k = 0
        for length in row_lengths:
            rows.append(tuple(values[k:k + length]))
            k += length
        return Tableau(shape, tuple(rows))

    def go(k: int) -> Iterator[Tableau]:
        if k == len(cells):
            yield snapshot()
            return
        low = 1
        if k and cells[k - 1][0] == cells[k][0]:
            low = values[k - 1]
        above_k = above.get(k)
        if above_k is not None:
            low = max(low, values[above_k] + 1)
        for v in range(low, n_values + 1):
            if remaining is not None:
                if not remaining[v - 1]:
                    continue
                remaining[v - 1] -= 1
            values[k] = v
            yield from go(k + 1)
            if remaining is not None:
                remaining[v - 1] += 1

    yield from go(0)


def enumerate_ssyt(shape: SkewShape, content: Sequence[int]) -> list[Tableau]:
    """All semistandard fillings of shape with the exact content, deterministically ordered.

    content[k] is the required multiplicity of the entry k+1; zero multiplicities
    are allowed. The total must equal the number of cells. Output is sorted
    lexicographically by reading word.
    """
    content = tuple(content)
    for k, m in enumerate(content):
        if isinstance(m, bool) or not isinstance(m, int) or m < 0:
            raise ValueError(f"content multiplicities must be non-negative, got {m!r} at position {k + 1}")
    if sum(content) != shape.size:
        raise SizeMismatchError(f"content total {sum(content)} does not fill {shape.size} cells")
    return list(_fillings(shape, len(content), list(content)))


def iter_semistandard(shape: SkewShape, max_entry: int) -> Iterator[Tableau]:
    """Lazily enumerate every semistandard filling with entries in 1..max_entry."""
    if max_entry < 0:
        raise ValueError(f"max_entry must be non-negative, got {max_entry}")
    yield from _fillings(shape, max_entry, None)
