"""Fast Kostka numbers by memoized horizontal-strip peeling, plus whole matrices.

The count K(shape, content) is computed by peeling the largest-indexed nonzero
content entry: in any semistandard filling its cells form a horizontal strip along
the outer rim, so the count is the sum over removable strips of that size of the
count for the reduced shape and the content prefix. The recursion is purely
combinatorial on purpose; it must not shortcut through the dominance
characterization it is later used to verify.

The shared module cache is a plain dict; under CPython its per-key reads and
writes are atomic, which is all the recursion needs, and results never depend on
what the cache already holds. Pass a fresh dict to isolate a call.
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

_CACHE: dict[tuple, int] = {}


def clear_cache() -> None:
    _CACHE.clear()


def cache_size() -> int:
    return len(_CACHE)


def _as_shape(shape: SkewShape | Sequence[int]) -> SkewShape:
    if isinstance(shape, SkewShape):
        return shape
    return SkewShape(partition(shape))


def _strip_zeros(parts: tuple[int, ...]) -> tuple[int, ...]:
    k = len(parts)
    while k and parts[k - 1] == 0:
        k -= 1
    return parts[:k]


def _kostka(outer: Parts, inner: Parts, content: Parts, memo: MutableMapping[tuple, int]) -> int:
    content = _strip_zeros(content)
    if not content:
        return 1 if sum(outer) == sum(inner) else 0
    key = (outer, inner, content)
    hit = memo.get(key)
    if hit is not None:
        return hit
    budget = content[-1]
    rest = content[:-1]
    n_rows = len(outer)
    inner_padded = inner + (0,) * (n_rows - len(inner))
    # row r may shrink to max(inner_r, outer_{r+1}) without breaking the diagram
    # or stacking two strip cells in one column
    floors = [max(inner_padded[r], outer[r + 1] if r + 1 < n_rows else 0) for r in range(n_rows)]
    slack = [outer[r] - floors[r] for r in range(n_rows)]
    suffix = [0] * (n_rows + 1)
    for r in range(n_rows - 1, -1, -1):
        suffix[r] = suffix[r + 1] + slack[r]

    total = 0
    reduced = list(outer)

    def peel(r: int, left: int) -> None:
        nonlocal total
        if left == 0:
            total += _kostka(_strip_zeros(tuple(reduced)), inner, rest, memo)
            return
        if r == n_rows or left > suffix[r]:
            return
        keep = reduced[r]
        for d in range(min(slack[r], left), -1, -1):
            reduced[r] = keep - d
            peel(r + 1, left - d)
        reduced[r] = keep

    peel(0, budget)
    memo[key] = total
    return total


def kostka_number(
    shape: SkewShape | Sequence[int],
    content: Sequence[int],
    cache: MutableMapping[tuple, int] | None = None,
) -> int:
    """Count the semistandard fillings of shape with the given content.

    shape may be a SkewShape or a bare partition (meaning a straight shape).
    content is a composition; trailing zeros are irrelevant and stripped. The
    total must equal the cell count. cache=None uses the shared module cache.
    """
    shape = _as_shape(shape)
    content = composition(content)
    if sum(content) != shape.size:
        raise SizeMismatchError(f"content total {sum(content)} does not fill {shape.size} cells")
    memo = _CACHE if cache is None else cache
    return _kostka(shape.outer, shape.inner, content, memo)


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


def kostka_matrix(n: int, cache: MutableMapping[tuple, int] | None = None) -> KostkaMatrix:
    """K(lam, mu) for all partition pairs of n; rows are shapes, columns contents."""
    parts = tuple(partitions_of(n))
    values = tuple(
        tuple(kostka_number(SkewShape(lam), mu, cache=cache) for mu in parts) for lam in parts
    )
    return KostkaMatrix(n=n, partitions=parts, values=values)
