"""Correctness checks on the children's answers, by routes that share no code with kostka.

- Straight shapes with standard content (1,...,1): the hook length formula.
- Every other query: a forward Pieri count, adding one horizontal strip per
  nonzero content entry to a frontier of partitions that starts at the inner
  shape.
- The matrix: the RSK column identity sum_lambda K(lambda, mu) f^lambda =
  n! / prod mu_i!, unitriangularity, and agreement of the CSV and JSON renderings.
- verify: zero violations and the exact checked total of every suite.

Each check returns a list of problems; an empty list means the answer is right.
"""

from __future__ import annotations

import csv
import io
import json
from collections import defaultdict
from math import factorial, prod

import workloads


def partitions(n: int, max_part: int | None = None) -> list[tuple[int, ...]]:
    """All partitions of n, reverse-lexicographic, largest part first."""
    if n == 0:
        return [()]
    top = n if max_part is None else min(n, max_part)
    return [(first,) + rest for first in range(top, 0, -1) for rest in partitions(n - first, first)]


def hook_count(shape: tuple[int, ...]) -> int:
    """f^shape, the number of standard Young tableaux, by the hook length formula."""
    columns = [sum(1 for row in shape if row > c) for c in range(shape[0])] if shape else []
    hooks = prod(shape[r] - c + columns[c] - r - 1 for r in range(len(shape)) for c in range(shape[r]))
    return factorial(sum(shape)) // hooks


def _strips(shape: tuple[int, ...], outer: tuple[int, ...], size: int):
    """Partitions nu within outer with nu / shape a horizontal strip of the given size."""
    # one cell per column: row r may grow up to the old length of row r-1
    room = [(min(outer[r], shape[r - 1]) if r else outer[0]) - shape[r] for r in range(len(outer))]
    tail = [0] * (len(room) + 1)
    for r in range(len(room) - 1, -1, -1):
        tail[r] = tail[r + 1] + room[r]

    def grow(r: int, left: int, grown: tuple[int, ...]):
        if r == len(room):
            yield grown
            return
        for extra in range(max(0, left - tail[r + 1]), min(left, room[r]) + 1):
            yield from grow(r + 1, left - extra, grown + (shape[r] + extra,))

    if size <= tail[0]:
        yield from grow(0, size, ())


def pieri_count(outer: tuple[int, ...], inner: tuple[int, ...], content: tuple[int, ...]) -> int:
    """Semistandard fillings of outer / inner with the content, by the Pieri rule.

    Skew Schur functions are symmetric (Bender-Knuth involutions), so the count
    does not depend on the order of the content; the largest strips go first
    because that keeps the frontier smallest.
    """
    frontier = {inner + (0,) * (len(outer) - len(inner)): 1}
    for size in sorted((c for c in content if c), reverse=True):
        grown: dict[tuple[int, ...], int] = defaultdict(int)
        for shape, count in frontier.items():
            for nu in _strips(shape, outer, size):
                grown[nu] += count
        frontier = grown
    return frontier.get(outer, 0)


def expected_query(outer, inner, content) -> int:
    if not inner and all(c == 1 for c in content):
        return hook_count(outer)
    return pieri_count(outer, inner, content)


def check_queries(seed: int, rep: int, answers: list) -> tuple[int, list[str]]:
    """(number of queries that raised, problems); a raised query is a failure, not a wrong answer."""
    raised = 0
    problems = []
    for (outer, inner, content), answer in zip(workloads.query_stream(seed, rep), answers):
        if isinstance(answer, dict):
            raised += 1
        elif answer != expected_query(outer, inner, content):
            problems.append(f"K({outer}/{inner}, {content}) = {answer}")
    return raised, problems


def check_matrix(answer: dict) -> list[str]:
    n = workloads.MATRIX_N
    labels = partitions(n)
    rows = list(csv.reader(io.StringIO(answer["csv"])))
    doc = json.loads(answer["json"])
    label_text = [",".join(map(str, p)) for p in labels]
    problems = []
    if rows[0] != [""] + label_text or [r[0] for r in rows[1:]] != label_text:
        problems.append("CSV labels are not the partitions of n in reverse-lexicographic order")
    if doc["n"] != n or doc["partitions"] != label_text:
        problems.append("JSON header does not match")
    values = [[int(v) for v in row[1:]] for row in rows[1:]]
    if [[int(v) for v in row] for row in doc["matrix"]] != values:
        problems.append("CSV and JSON disagree")
    if problems:
        return problems
    f = [hook_count(lam) for lam in labels]
    for j, mu in enumerate(labels):
        column = sum(values[i][j] * f[i] for i in range(len(labels)))
        if column != factorial(n) // prod(factorial(m) for m in mu):
            problems.append(f"column {mu} breaks sum K f = n!/prod mu!")
    # rows are shapes and columns contents, both reverse-lexicographic; K(lambda, mu) > 0
    # needs lambda to dominate mu, hence to come first, so the matrix is upper unitriangular
    for i in range(len(labels)):
        if values[i][i] != 1 or any(values[i][j] for j in range(i)):
            problems.append(f"row {labels[i]} is not unitriangular")
    return problems


def check_verify(answer: list) -> list[str]:
    got = [(r["name"], r["checked"]) for r in answer]
    problems = [f"{r['name']}: {r['violations']} violations" for r in answer if r["violations"]]
    if got != list(workloads.VERIFY_SUITES):
        problems.append(f"suites and checked totals {got}, expected {list(workloads.VERIFY_SUITES)}")
    return problems
