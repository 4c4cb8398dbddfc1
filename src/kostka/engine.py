"""Fast Kostka numbers by a forward horizontal-strip walk, plus whole matrices.

In a semistandard filling the cells holding any one entry form a horizontal
strip, so the fillings of outer/inner with a given content are the chains
inner = s_0 <= s_1 <= ... <= s_k = outer in which s_i / s_(i-1) is a horizontal
strip of content_i cells (the Pieri rule). The walk keeps a frontier mapping
each shape to the number of chains that reach it, adds the content's parts in
the order given, and reads the count off at outer. It is iterative, so long
contents cannot exhaust the stack, and purely combinatorial on purpose: it must
not shortcut through the dominance characterization it is later used to
verify, and it never reorders the content, whose symmetry the
permutation-invariance suite checks. Nothing is kept between calls unless the
caller passes a strip memo.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from typing import MutableMapping, Sequence

from .partitions import (
    Parts,
    SizeMismatchError,
    composition,
    format_parts,
    partition,
    partitions_of,
)
from .tableaux import SkewShape

# a strip memo: (shape, strip size, outer) -> the shapes that strip can reach
Strips = MutableMapping[tuple, list]


def _as_shape(shape: SkewShape | Sequence[int]) -> SkewShape:
    if isinstance(shape, SkewShape):
        return shape
    return SkewShape(partition(shape))


def _strips(shape: Parts, size: int, outer: Parts) -> list[Parts]:
    """Every shape within outer that adds a horizontal strip of size cells to shape.

    shape has as many rows as outer. A strip holds at most one cell per column,
    so row r may grow up to the old length of row r-1. The rows with room are
    filled one after another, breadth first; each takes at least what the rows
    below it cannot hold, so every partial strip completes and the last row
    with room takes whatever is left.
    """
    rooms = []
    tail = 0
    above = outer[0]
    for r, row in enumerate(shape):
        cap = outer[r] if outer[r] < above else above
        if cap > row:
            rooms.append((r, cap - row))
            tail += cap - row
        above = row
    if size > tail:
        return []
    grown = [(shape, size)]
    last = rooms.pop()[0]
    for r, room in rooms:
        tail -= room
        partial = []
        for nu, left in grown:
            high = room if room < left else left
            if left > tail:
                low = left - tail
            else:
                partial.append((nu, left))
                low = 1
            row = nu[r]
            head, foot = nu[:r], nu[r + 1:]
            for d in range(low, high + 1):
                partial.append((head + (row + d,) + foot, left - d))
        grown = partial
    return [nu[:last] + (nu[last] + left,) + nu[last + 1:] if left else nu for nu, left in grown]


def _kostka(outer: Parts, inner: Parts, content: Parts, memo: Strips | None) -> int:
    rows = len(outer)
    frontier = {inner + (0,) * (rows - len(inner)): 1}
    for size in content:
        if not size:
            continue
        grown: dict[Parts, int] = {}
        if size == 1 and memo is None:
            # one cell goes to any addable corner; standard contents take
            # thousands of these steps, so they skip the strip enumerator
            for shape, count in frontier.items():
                above = outer[0]
                for r, row in enumerate(shape):
                    if row < above and row < outer[r]:
                        nu = shape[:r] + (row + 1,) + shape[r + 1:]
                        grown[nu] = grown.get(nu, 0) + count
                    if not row:
                        break
                    above = row
        else:
            for shape, count in frontier.items():
                if memo is None:
                    strips = _strips(shape, size, outer)
                else:
                    key = (shape, size, outer)
                    strips = memo.get(key)
                    if strips is None:
                        strips = memo[key] = _strips(shape, size, outer)
                for nu in strips:
                    grown[nu] = grown.get(nu, 0) + count
        frontier = grown
    return frontier.get(outer, 0)


def kostka_number(
    shape: SkewShape | Sequence[int],
    content: Sequence[int],
    cache: Strips | None = None,
) -> int:
    """Count the semistandard fillings of shape with the given content.

    shape may be a SkewShape or a bare partition (meaning a straight shape).
    content is a composition; trailing zeros are irrelevant and stripped. The
    total must equal the cell count. cache, when given, is a strip memo: it
    maps (shape, strip size, outer) to the shapes that strip can reach, so
    calls that share outer shapes can share one mapping.
    """
    shape = _as_shape(shape)
    content = composition(content)
    if sum(content) != shape.size:
        raise SizeMismatchError(f"content total {sum(content)} does not fill {shape.size} cells")
    return _kostka(shape.outer, shape.inner, content, cache)


@dataclass(frozen=True)
class KostkaMatrix:
    """The full table K(lam, mu) over all partitions of n, reverse-lexicographic order."""

    n: int
    partitions: tuple[Parts, ...]
    values: tuple[tuple[int, ...], ...]
    _index: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self) -> None:
        self._index.update({p: k for k, p in enumerate(self.partitions)})

    def value(self, lam: Sequence[int], mu: Sequence[int]) -> int:
        return self.values[self._index[partition(lam)]][self._index[partition(mu)]]

    def to_csv(self) -> str:
        """Header row and column hold the partitions in the comma grammar."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow([""] + [format_parts(p) for p in self.partitions])
        for p, row in zip(self.partitions, self.values):
            writer.writerow([format_parts(p)] + [str(v) for v in row])
        return buf.getvalue()

    def to_json(self) -> str:
        """Counts serialize as decimal strings so arbitrary precision survives parsers."""
        return json.dumps(self.to_json_dict(), indent=2)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "partitions": [format_parts(p) for p in self.partitions],
            "matrix": [[str(v) for v in row] for row in self.values],
        }


def kostka_matrix(n: int) -> KostkaMatrix:
    """K(lam, mu) for all partition pairs of n; rows are shapes, columns contents.

    Every entry is one kostka_number call with a strip memo. Each row gets a
    fresh one, since memo keys hold the row's outer shape and so never repeat
    across rows.
    """
    parts = tuple(partitions_of(n))
    values = []
    for shape in map(SkewShape, parts):
        memo = {}
        values.append(tuple(kostka_number(shape, mu, cache=memo) for mu in parts))
    return KostkaMatrix(n=n, partitions=parts, values=tuple(values))
