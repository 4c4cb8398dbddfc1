"""Exhaustive desk-scale checks, each returning a Report with a violations array.

Every suite checks a claim along two independent routes: the fast path under test
against a brute-force oracle (full poset scans, raw product-space enumeration,
backtracking tableau censuses). The oracles never call the code they check.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from concurrent.futures import ProcessPoolExecutor
from itertools import permutations, product
from typing import Callable, Iterator, Sequence

from .counting import count_bounded_compositions, split_by_first_part
from .engine import kostka_number
from .partitions import (
    COLUMN,
    Parts,
    adjacent_transfer_chain,
    adjacent_transfer_index,
    covers,
    dominates,
    format_parts,
    full_transfer_chain,
    part_at,
    partitions_of,
)
from .reports import Report
from .tableaux import SkewShape, Tableau, content_of, iter_semistandard
from .transfer_classes import signature_census, transfer_target

CountFn = Callable[[SkewShape, Sequence[int]], int]


def verify_positivity(max_n: int, count_fn: CountFn | None = None) -> Report:
    """Check K(lam, mu) > 0 exactly when lam dominates mu, all pairs of each m <= max_n."""
    fn = count_fn or kostka_number
    started = time.perf_counter()
    report = Report(name="positivity-iff-dominance")
    for m in range(max_n + 1):
        parts = partitions_of(m)
        for lam in parts:
            shape = SkewShape(lam)
            for mu in parts:
                report.checked += 1
                positive = fn(shape, mu) > 0
                if positive != dominates(lam, mu):
                    report.violations.append(
                        {
                            "m": m,
                            "lambda": format_parts(lam),
                            "mu": format_parts(mu),
                            "positive": positive,
                            "dominates": dominates(lam, mu),
                        }
                    )
    report.elapsed = time.perf_counter() - started
    return report


def canonical_box_skew_shapes(max_rows: int, max_cols: int, max_cells: int) -> list[SkewShape]:
    """Translation-canonical skew shapes in a max_rows x max_cols box with 1..max_cells cells.

    Canonical means the first row holds a cell and the inner partition is strictly
    shorter than the outer one (so the last row does too and the shape is flush
    left); shapes equal up to shifting the whole cell set are enumerated once.

    With max_cols >= max_cells the family is complete for counting purposes: any
    skew shape with at most max_rows rows and max_cells cells has the same filling
    counts as a member. Translations preserve counts, and when two row blocks
    share no column, sliding the upper block horizontally is a content-preserving
    bijection on fillings; sliding every gap to its minimum leaves each row
    starting at most one column past the previous row's end, so the whole shape
    spans at most max_cells columns.
    """
    shapes = []
    for outer_size in range(1, max_rows * max_cols + 1):
        for outer in partitions_of(outer_size, max_part=max_cols):
            if len(outer) > max_rows:
                continue
            for inner_size in range(max(0, outer_size - max_cells), outer_size):
                for inner in partitions_of(inner_size, max_part=outer[0] - 1):
                    if len(inner) >= len(outer):
                        continue
                    if any(inner[r] > outer[r] for r in range(len(inner))):
                        continue
                    shapes.append(SkewShape(outer, inner))
    return shapes


def verify_monotonicity(max_n: int, include_skew: bool = False, count_fn: CountFn | None = None) -> Report:
    """Check K(shape, mu) <= K(shape, nu) whenever mu dominates nu.

    Straight shapes run over all partitions of each m <= max_n. With include_skew,
    translation-canonical skew shapes with up to max_n cells fitting a 4-row by
    max_n-column box run as well, each on an isolated cache to keep the shared one
    lean.
    """
    started = time.perf_counter()
    report = Report(name="dominance-monotonicity")

    def check(shape: SkewShape, label: str, fn: CountFn) -> None:
        parts = partitions_of(shape.size)
        counts = {mu: fn(shape, mu) for mu in parts}
        for mu in parts:
            for nu in parts:
                if not dominates(mu, nu):
                    continue
                report.checked += 1
                if counts[mu] > counts[nu]:
                    report.violations.append(
                        {
                            "shape": label,
                            "mu": format_parts(mu),
                            "nu": format_parts(nu),
                            "count_mu": counts[mu],
                            "count_nu": counts[nu],
                        }
                    )

    for m in range(max_n + 1):
        for lam in partitions_of(m):
            check(SkewShape(lam), format_parts(lam), count_fn or kostka_number)
    if include_skew:
        for shape in canonical_box_skew_shapes(4, max_n, max_n):
            local: dict[tuple, int] = {}
            fn = count_fn or (lambda sh, mu: kostka_number(sh, mu, cache=local))
            label = f"{format_parts(shape.outer)}/{format_parts(shape.inner)}"
            check(shape, label, fn)
    report.elapsed = time.perf_counter() - started
    return report


def brute_force_covers(n: int) -> dict[Parts, set[Parts]]:
    """Hasse diagram of the dominance order on partitions of n, from the full relation.

    A brute-force oracle: every strictly dominated partition is a cover unless some
    third partition sits strictly between.
    """
    parts = partitions_of(n)
    below = {p: [q for q in parts if p != q and dominates(p, q)] for p in parts}
    out: dict[Parts, set[Parts]] = {}
    for p in parts:
        out[p] = {
            q
            for q in below[p]
            if not any(z != q and dominates(z, q) for z in below[p])
        }
    return out


def verify_covers(max_n: int) -> Report:
    """Compare the constructive cover rules against the brute-force Hasse diagram."""
    started = time.perf_counter()
    report = Report(name="covers-vs-hasse")
    for n in range(max_n + 1):
        expected = brute_force_covers(n)
        for mu in partitions_of(n):
            report.checked += 1
            got = {target for _, target in covers(mu)}
            if got != expected[mu]:
                report.violations.append(
                    {
                        "mu": format_parts(mu),
                        "constructed": sorted(map(format_parts, got)),
                        "hasse": sorted(map(format_parts, expected[mu])),
                    }
                )
    report.elapsed = time.perf_counter() - started
    return report


def _brute_bounded_counts(caps: tuple[int, ...]) -> Counter:
    """Histogram of sums over the raw product space; the oracle for the counting DP."""
    return Counter(sum(vec) for vec in product(*(range(c + 1) for c in caps)))


def verify_bounded_counts(max_len: int = 4, max_entry: int = 4) -> Report:
    """Bounded-count DP vs brute force, plus symmetry, peak monotonicity, and the split.

    Runs every cap vector with up to max_len coordinates, each at most max_entry,
    and every total in [-1, m+1] where m is the cap sum. Monotonicity is the
    farther-from-m/2 comparison, checked for every ordered pair of totals.
    """
    started = time.perf_counter()
    report = Report(name="bounded-counts")
    for r in range(max_len + 1):
        for caps in product(range(max_entry + 1), repeat=r):
            m = sum(caps)
            totals = range(-1, m + 2)
            counts = {a: count_bounded_compositions(caps, a) for a in totals}
            brute = _brute_bounded_counts(caps)
            for a in totals:
                report.checked += 1
                if counts[a] != brute.get(a, 0):
                    report.violations.append(
                        {"caps": caps, "total": a, "kind": "dp", "dp": counts[a], "brute": brute.get(a, 0)}
                    )
                if counts[a] != counts[m - a]:
                    report.violations.append({"caps": caps, "total": a, "kind": "symmetry"})
            for a in totals:
                for b in totals:
                    report.checked += 1
                    if abs(2 * a - m) >= abs(2 * b - m) and counts[a] > counts[b]:
                        report.violations.append({"caps": caps, "a": a, "b": b, "kind": "monotonicity"})
            if caps and caps[0] >= 1:
                for a in totals:
                    report.checked += 1
                    saturated, below = split_by_first_part(caps, a)
                    if saturated + below != counts[a]:
                        report.violations.append({"caps": caps, "total": a, "kind": "split"})
            report.checked += 1
            normalization = 1
            for c in caps:
                normalization *= c + 1
            if sum(counts[a] for a in range(m + 1)) != normalization:
                report.violations.append({"caps": caps, "kind": "normalization"})
    report.elapsed = time.perf_counter() - started
    return report


def content_census(shape: SkewShape, max_entry: int) -> dict[Parts, list[Tableau]]:
    """Every semistandard filling with entries up to max_entry, grouped by content."""
    census: dict[Parts, list[Tableau]] = defaultdict(list)
    for t in iter_semistandard(shape, max_entry):
        census[content_of(t)].append(t)
    return dict(census)


def bounded_content_family(m: int) -> list[Parts]:
    """All compositions of m with at most m+1 parts, up to trailing zeros, sorted.

    This is the finite slice standing in for "every content": wider vectors are
    relabelings that cannot introduce new behavior for m cells.
    """

    def comps(total: int, k: int) -> Iterator[tuple[int, ...]]:
        if k == 0:
            if total == 0:
                yield ()
            return
        for first in range(total + 1):
            for rest in comps(total - first, k - 1):
                yield (first,) + rest

    family = set()
    for c in comps(m, m + 1):
        k = len(c)
        while k and c[k - 1] == 0:
            k -= 1
        family.add(c[:k])
    return sorted(family)


def _transfer_shapes(max_cells: int, include_skew: bool) -> Iterator[SkewShape]:
    for m in range(max_cells + 1):
        for lam in partitions_of(m):
            yield SkewShape(lam)
    if include_skew:
        yield from canonical_box_skew_shapes(4, max_cells, max_cells)


def verify_adjacent_transfer(max_cells: int, include_skew: bool = False) -> Report:
    """Adjacent content transfers never shrink the tableau count, class by class.

    For every straight shape with up to max_cells cells (plus, when include_skew,
    every translation-canonical skew shape in a 4-row box), every content in the
    bounded family with part i exceeding part i+1: the count for the transferred
    content dominates, and already per signature class. Counts come from the
    enumeration census, not the DP. Contents absent from the census have count
    zero and satisfy both claims trivially, so only census contents are walked.
    """
    started = time.perf_counter()
    report = Report(name="adjacent-transfer")
    for shape in _transfer_shapes(max_cells, include_skew):
        m = shape.size
        label = f"{format_parts(shape.outer)}/{format_parts(shape.inner)}" if shape.inner else format_parts(shape.outer)
        census = content_census(shape, m + 2)
        for mu in sorted(census):
            if len(mu) > m + 1:
                continue
            mu_tabs = census[mu]
            for i in range(1, len(mu) + 1):
                if part_at(mu, i) <= part_at(mu, i + 1):
                    continue
                nu = transfer_target(mu, i)
                nu_tabs = census.get(nu, [])
                report.checked += 1
                if len(mu_tabs) > len(nu_tabs):
                    report.violations.append(
                        {
                            "shape": label,
                            "mu": format_parts(mu),
                            "index": i,
                            "count_mu": len(mu_tabs),
                            "count_nu": len(nu_tabs),
                        }
                    )
                mu_classes = signature_census(shape, mu_tabs, i)
                nu_classes = signature_census(shape, nu_tabs, i)
                for sig, count in sorted(mu_classes.items(), key=lambda kv: kv[0].skeleton):
                    if count > nu_classes.get(sig, 0):
                        report.violations.append(
                            {
                                "shape": label,
                                "mu": format_parts(mu),
                                "index": i,
                                "kind": "class",
                                "skeleton": sig.skeleton,
                                "count_mu": count,
                                "count_nu": nu_classes.get(sig, 0),
                            }
                        )
    report.elapsed = time.perf_counter() - started
    return report


def verify_transfer_chains(max_n: int) -> Report:
    """Column cover moves decompose into adjacent transfers with monotone counts.

    For every column cover with n <= max_n: the expected number of intermediates
    exists, consecutive chain steps are single adjacent transfers with the source
    part exceeding the target, and for every straight shape of n the counts along
    the chain weakly increase.
    """
    started = time.perf_counter()
    report = Report(name="transfer-chains")
    for n in range(max_n + 1):
        lams = partitions_of(n)
        for mu in lams:
            for move, _ in covers(mu):
                if move.kind != COLUMN:
                    continue
                report.checked += 1
                middle = adjacent_transfer_chain(mu, move)
                if len(middle) != move.j - move.i - 1:
                    report.violations.append({"mu": format_parts(mu), "move": move.describe(), "kind": "length"})
                chain = full_transfer_chain(mu, move)
                for t in range(len(chain) - 1):
                    if adjacent_transfer_index(chain[t], chain[t + 1]) is None:
                        report.violations.append(
                            {"mu": format_parts(mu), "move": move.describe(), "step": t, "kind": "precondition"}
                        )
                for lam in lams:
                    values = [kostka_number(lam, step) for step in chain]
                    if any(values[t] > values[t + 1] for t in range(len(values) - 1)):
                        report.violations.append(
                            {
                                "mu": format_parts(mu),
                                "move": move.describe(),
                                "lambda": format_parts(lam),
                                "counts": values,
                            }
                        )
    report.elapsed = time.perf_counter() - started
    return report


def verify_oracle_equivalence(max_cells: int) -> Report:
    """DP counts equal enumeration counts for every straight shape and bounded content.

    The census enumerates every filling with entries up to m+1 once per shape, so
    contents the DP must report as zero are checked too.
    """
    started = time.perf_counter()
    report = Report(name="dp-vs-enumeration")
    for m in range(max_cells + 1):
        family = bounded_content_family(m)
        for lam in partitions_of(m):
            shape = SkewShape(lam)
            census = {c: len(ts) for c, ts in content_census(shape, m + 1).items()}
            local: dict[tuple, int] = {}
            for content in family:
                report.checked += 1
                dp = kostka_number(shape, content, cache=local)
                expected = census.get(content, 0)
                if dp != expected:
                    report.violations.append(
                        {
                            "shape": format_parts(lam),
                            "content": format_parts(content),
                            "dp": dp,
                            "enumerated": expected,
                        }
                    )
    report.elapsed = time.perf_counter() - started
    return report


def verify_permutation_invariance(max_cells: int) -> Report:
    """Permuting the content parts never changes the DP count.

    Each partition content of each straight shape runs against every distinct
    rearrangement, including ones with a zero part inserted, so interior zeros get
    exercised.
    """
    started = time.perf_counter()
    report = Report(name="content-permutation-invariance")
    for m in range(max_cells + 1):
        for lam in partitions_of(m):
            shape = SkewShape(lam)
            for mu in partitions_of(m):
                base = kostka_number(shape, mu)
                for perm in sorted(set(permutations(mu + (0,)))):
                    report.checked += 1
                    if kostka_number(shape, perm) != base:
                        report.violations.append(
                            {
                                "shape": format_parts(lam),
                                "mu": format_parts(mu),
                                "perm": format_parts(perm),
                                "base": base,
                                "got": kostka_number(shape, perm),
                            }
                        )
    report.elapsed = time.perf_counter() - started
    return report


def _suite_positivity(max_n: int) -> Report:
    return verify_positivity(max_n)


def _suite_monotonicity(max_n: int) -> Report:
    return verify_monotonicity(max_n, include_skew=True)


def _suite_bounded_counts(max_n: int) -> Report:
    return verify_bounded_counts()


def _suite_adjacent_transfer(max_n: int) -> Report:
    return verify_adjacent_transfer(max_n)


def _suite_covers(max_n: int) -> Report:
    return verify_covers(max_n)


STANDARD_SUITES = (
    _suite_positivity,
    _suite_monotonicity,
    _suite_bounded_counts,
    _suite_adjacent_transfer,
    _suite_covers,
)


def run_standard_suites(max_n: int, parallelism: int = 1) -> list[Report]:
    """The five CLI verification suites, in a fixed order regardless of parallelism."""
    if parallelism <= 1:
        return [suite(max_n) for suite in STANDARD_SUITES]
    with ProcessPoolExecutor(max_workers=min(parallelism, len(STANDARD_SUITES))) as pool:
        futures = [pool.submit(suite, max_n) for suite in STANDARD_SUITES]
        return [f.result() for f in futures]
