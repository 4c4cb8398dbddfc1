"""Workload inputs, made from the seed alone, and the constants the checks rely on.

This module never imports kostka: the child process imports it to build its
inputs and the parent imports it to check the answers.
"""

from __future__ import annotations

import random

WORKLOADS = ("matrix", "verify", "queries")

MATRIX_N = 16
VERIFY_MAX_N = 6
# (suite name, exact checked total) at VERIFY_MAX_N, in run_standard_suites order
VERIFY_SUITES = (
    ("positivity-iff-dominance", 210),
    ("dominance-monotonicity", 47538),
    ("bounded-counts", 108825),
    ("adjacent-transfer", 19385),
    ("covers-vs-hasse", 30),
)

QUERY_COUNT = 1000
QUERY_CELLS = (10, 40)
QUERY_MAX_ROWS = 4
DEEP_COUNT = 20
# The kernel recurses about 3.3 frames per content part and raises RecursionError
# from about 296 parts at the default limit; the slice stays below that, with
# room for the tracer's frames, so that no query fails.
DEEP_CELLS = (40, 240)


def random_composition(rng: random.Random, n: int, parts: int) -> list[int]:
    """n split into exactly parts positive parts, in random order (1 <= parts <= n)."""
    cuts = sorted(rng.sample(range(1, n), parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [n])]


def random_partition(rng: random.Random, n: int, rows: int) -> tuple[int, ...]:
    """A partition of n with exactly rows parts (1 <= rows <= n)."""
    return tuple(sorted(random_composition(rng, n, rows), reverse=True))


def random_skew(rng: random.Random, cells: int, rows: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(outer, inner): outer has rows rows, inner is nonempty with fewer rows, cells cells between."""
    while True:
        covered = rng.randint(1, cells)
        inner = random_partition(rng, covered, rng.randint(1, min(covered, rows - 1)))
        outer = random_partition(rng, cells + covered, rows)
        if all(i <= o for i, o in zip(inner, outer)):
            return outer, inner


def random_content(rng: random.Random, n: int, parts: int) -> tuple[int, ...]:
    """A composition of n with parts nonzero parts, kept in random order, and 1-3 interior zeros."""
    content = random_composition(rng, n, min(parts, n))
    for _ in range(rng.randint(1, 3)):
        content.insert(rng.randint(1, len(content) - 1), 0)
    return tuple(content)


def query_stream(seed: int, rep: int) -> list[tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]]:
    """Distinct (outer, inner, content) queries; inner == () means a straight shape.

    The bulk alternates straight and skew shapes. Cell count, row count and
    number of nonzero content parts run through fixed cycles, so every
    sub-stream has the same mix and only the shapes and contents drawn for it
    differ: 10-40 cells, 1-4 rows (2-4 for skew), 2-8 parts plus interior
    zeros. DEEP_COUNT standard contents (1,)*m on two-row shapes follow, one m
    from each of DEEP_COUNT equal bins of DEEP_CELLS. The stream is shuffled,
    so deep queries meet a cache that the bulk has warmed.
    """
    rng = random.Random(f"queries-{seed}-{rep}")
    low, high = QUERY_CELLS
    span = high - low + 1
    seen: set = set()
    stream = []
    for q in range(QUERY_COUNT):
        cells = low + (q // 2) % span
        cycle = (q // (2 * span)) % QUERY_MAX_ROWS
        while True:
            if q % 2:
                outer, inner = random_skew(rng, cells, 2 + cycle % (QUERY_MAX_ROWS - 1))
            else:
                outer, inner = random_partition(rng, cells, 1 + cycle), ()
            query = (outer, inner, random_content(rng, cells, 2 + q % 7))
            if query not in seen:
                break
        seen.add(query)
        stream.append(query)
    low, high = DEEP_CELLS
    width = (high - low) / DEEP_COUNT
    for k in range(DEEP_COUNT):
        m = rng.randint(low + round(k * width), low + round((k + 1) * width) - 1)
        stream.append(((m - m // 3, m // 3), (), (1,) * m))
    rng.shuffle(stream)
    return stream
