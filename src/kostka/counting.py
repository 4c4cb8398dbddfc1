"""Counting integer vectors with per-coordinate caps and a fixed total.

count_bounded_compositions((x1, ..., xr), a) is the number of integer vectors y
with 0 <= y_k <= x_k and sum(y) = a. Everything is exact bigint arithmetic.
"""

from __future__ import annotations

from typing import Sequence

from .partitions import composition


def count_bounded_compositions(caps: Sequence[int], total: int) -> int:
    """Number of ways to write total as a sum of parts y_k with 0 <= y_k <= caps[k].

    Dynamic programming over prefixes, one coordinate at a time; totals outside
    [0, sum(caps)] count zero, including negative ones.
    """
    caps = composition(caps)
    if total < 0 or total > sum(caps):
        return 0
    row = [0] * (total + 1)
    row[0] = 1
    for cap in caps:
        # new[s] = sum(row[s - d] for d in 0..cap), via prefix sums
        prefix = [0] * (total + 2)
        for s in range(total + 1):
            prefix[s + 1] = prefix[s] + row[s]
        row = [prefix[s + 1] - prefix[max(0, s - cap)] for s in range(total + 1)]
    return row[total]


def split_by_first_part(caps: Sequence[int], total: int) -> tuple[int, int]:
    """Counts split by whether the first part is saturated: (y_1 = caps[0], y_1 < caps[0]).

    The two summands always add up to count_bounded_compositions(caps, total).
    Requires at least one cap and caps[0] >= 1.
    """
    caps = composition(caps)
    if not caps:
        raise ValueError("split needs at least one cap")
    if caps[0] == 0:
        raise ValueError("split needs the first cap to be at least 1")
    saturated = count_bounded_compositions(caps[1:], total - caps[0])
    below = count_bounded_compositions((caps[0] - 1,) + caps[1:], total)
    return saturated, below
