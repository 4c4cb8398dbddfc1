"""Counting integer vectors with per-coordinate caps and a fixed total.

count_bounded_compositions((x1, ..., xr), a) is the number of integer vectors y
with 0 <= y_k <= x_k and sum(y) = a: the coefficient of t^a in the product of
the polynomials 1 + t + ... + t^(x_k). Everything is exact bigint arithmetic.
"""

from __future__ import annotations

from typing import Sequence

from .partitions import composition


def count_bounded_compositions(caps: Sequence[int], total: int) -> int:
    """Number of ways to write total as a sum of parts y_k with 0 <= y_k <= caps[k].

    Reads the coefficient of t^total off the product of 1 + t + ... + t^cap
    evaluated at t = 2**width (Kronecker substitution), one big-int product per
    call. Every coefficient of every partial product is at most bound =
    prod(cap + 1), which is below 2**width for width = bound.bit_length(), so no
    digit carries into the next and the width-bit digit at total is exact. Caps
    above total are cut to total, which leaves that coefficient unchanged and
    keeps the product small. Totals outside [0, sum(caps)] count zero, including
    negative ones.
    """
    caps = composition(caps)
    if total < 0 or total > sum(caps):
        return 0
    caps = [cap if cap < total else total for cap in caps]
    bound = 1
    for cap in caps:
        bound *= cap + 1
    width = bound.bit_length()
    digit = (1 << width) - 1
    product = 1
    for cap in caps:
        # 1 + t + ... + t^cap at t = 2**width is (2**((cap + 1) * width) - 1) / (2**width - 1)
        product *= ((1 << (cap + 1) * width) - 1) // digit
    return (product >> total * width) & digit


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
