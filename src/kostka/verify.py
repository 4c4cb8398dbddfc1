"""Exhaustive desk-scale checks, each returning a Report with a violations array.

Every suite checks a claim along two routes, most the code under test against an
oracle that never calls it (full poset scans, raw product-space enumeration,
backtracking tableau censuses). Monotonicity, permutation invariance, and the
counts along transfer chains compare the kernel with itself.

Each verify_* body is a generator yielding one list per check: that check's
violation records, [] when it passes. The _suite runner times it and counts one
check per yield into its Report. Bodies reach the code under test, and
run_standard_suites reaches the suites, through this module's globals, which
tests and tracers rebind.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from itertools import combinations, permutations, product, takewhile
from typing import Callable, Iterator, Sequence

from .counting import count_bounded_compositions, split_by_first_part
from .engine import kostka_number
from .partitions import (
    COLUMN,
    Parts,
    _Value,
    adjacent_transfer_index,
    composition,
    covers,
    dominates,
    format_parts,
    full_transfer_chain,
    partitions_of,
    transfer_target,
)
from .tableaux import SkewShape, semistandard_words, word_content
from .transfer_classes import masked_word

_MAX_SHOWN = 50
Checks = Iterator[list[dict]]


class Report(_Value):
    """Outcome of one exhaustive check: what ran, how much, and every violation found.

    A suite fills its Report in as it runs, so a Report can change and has no hash.
    """

    __slots__ = _fields = ("name", "checked", "violations", "elapsed")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None
    name: str
    checked: int
    violations: list[dict]
    elapsed: float

    def __init__(self, name: str, checked: int = 0, violations: list[dict] | None = None, elapsed: float = 0.0) -> None:
        self._set(name, checked, [] if violations is None else violations, elapsed)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_text(self) -> str:
        status = "pass" if self.ok else "FAIL"
        lines = [f"{self.name}: checked={self.checked} violations={len(self.violations)} {status} ({self.elapsed:.2f}s)"]
        for v in self.violations[:_MAX_SHOWN]:
            lines.append("  " + ", ".join(f"{key}={v[key]}" for key in sorted(v)))
        if len(self.violations) > _MAX_SHOWN:
            lines.append(f"  ... and {len(self.violations) - _MAX_SHOWN} more")
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "checked": self.checked,
            "violations": self.violations,
            "elapsed": round(self.elapsed, 3),
        }


def _suite(name: str) -> Callable[[Callable[..., Checks]], Callable[..., Report]]:
    """Turn a generator of checks into a verifier that returns the named Report."""

    def decorate(checks: Callable[..., Checks]) -> Callable[..., Report]:
        @functools.wraps(checks)
        def run(*args, **kwargs) -> Report:
            started = time.perf_counter()
            report = Report(name=name)
            checked = 0
            for found in checks(*args, **kwargs):
                checked += 1
                if found:
                    report.violations.extend(found)
            report.checked = checked
            report.elapsed = time.perf_counter() - started
            return report

        return run

    return decorate


def canonical_box_skew_shapes(max_rows: int, max_cells: int) -> list[SkewShape]:
    """Translation-canonical skew shapes with 1..max_cells cells in a box max_rows high and max_cells wide.

    Canonical means the first row holds a cell and the inner partition is strictly
    shorter than the outer one (so the last row does too and the shape is flush
    left); shapes equal up to shifting the whole cell set are enumerated once.

    The family is complete for counting purposes: any skew shape with at most
    max_rows rows and max_cells cells has the same filling counts as a member.
    Translations preserve counts, and when two row blocks share no column, sliding
    the upper block horizontally is a content-preserving bijection on fillings;
    sliding every gap to its minimum leaves each row starting at most one column
    past the previous row's end, so the whole shape spans at most max_cells
    columns. A wider box would add only shapes equivalent to members.
    """
    shapes = []
    # inners are listed once per size for the widest outer; the first row must keep a cell
    inners = [partitions_of(size, max_part=max_cells - 1) for size in range(max_rows * max_cells)]
    for outer_size in range(1, max_rows * max_cells + 1):
        for outer in partitions_of(outer_size, max_part=max_cells):
            if len(outer) > max_rows:
                continue
            for inner_size in range(max(0, outer_size - max_cells), outer_size):
                for inner in inners[inner_size]:
                    if len(inner) >= len(outer) or (inner and inner[0] >= outer[0]):
                        continue
                    if any(inner[r] > outer[r] for r in range(len(inner))):
                        continue
                    shapes.append(SkewShape(outer, inner))
    return shapes


def _shapes(max_cells: int, include_skew: bool) -> Iterator[SkewShape]:
    """Straight shapes with up to max_cells cells, then with include_skew the canonical skew shapes in a 4-row box."""
    for m in range(max_cells + 1):
        for lam in partitions_of(m):
            yield SkewShape(lam)
    if include_skew:
        yield from canonical_box_skew_shapes(4, max_cells)


def _label(shape: SkewShape) -> str:
    """outer/inner for a skew shape, the outer partition alone for a straight one."""
    outer = format_parts(shape.outer)
    return f"{outer}/{format_parts(shape.inner)}" if shape.inner else outer


@_suite("positivity-iff-dominance")
def verify_positivity(max_n: int) -> Checks:
    """Check K(lam, mu) > 0 exactly when lam dominates mu, all pairs of each m <= max_n."""
    for shape in _shapes(max_n, False):
        lam = shape.outer
        for mu in partitions_of(shape.size):
            positive = kostka_number(shape, mu) > 0
            dominated = dominates(lam, mu)
            yield [] if positive == dominated else [
                {
                    "m": shape.size,
                    "lambda": _label(shape),
                    "mu": format_parts(mu),
                    "positive": positive,
                    "dominates": dominated,
                }
            ]


@_suite("dominance-monotonicity")
def verify_monotonicity(max_n: int, include_skew: bool = False) -> Checks:
    """Check K(shape, mu) <= K(shape, nu) whenever mu dominates nu.

    Straight shapes run over all partitions of each m <= max_n. With include_skew,
    translation-canonical skew shapes with up to max_n cells fitting a 4-row by
    max_n-column box run as well.
    """
    # dominance depends on the size only, so each size's partitions and pairs are listed once
    parts = [partitions_of(m) for m in range(max_n + 1)]
    pairs = [[(mu, nu) for mu in ps for nu in ps if dominates(mu, nu)] for ps in parts]
    for shape in _shapes(max_n, include_skew):
        label = _label(shape)
        counts = {mu: kostka_number(shape, mu) for mu in parts[shape.size]}
        for mu, nu in pairs[shape.size]:
            yield [] if counts[mu] <= counts[nu] else [
                {
                    "shape": label,
                    "mu": format_parts(mu),
                    "nu": format_parts(nu),
                    "count_mu": counts[mu],
                    "count_nu": counts[nu],
                }
            ]


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


@_suite("covers-vs-hasse")
def verify_covers(max_n: int) -> Checks:
    """Compare the constructive cover rules against the brute-force Hasse diagram."""
    for n in range(max_n + 1):
        expected = brute_force_covers(n)
        for mu in partitions_of(n):
            got = {target for _, target in covers(mu)}
            yield [] if got == expected[mu] else [
                {
                    "mu": format_parts(mu),
                    "constructed": sorted(map(format_parts, got)),
                    "hasse": sorted(map(format_parts, expected[mu])),
                }
            ]


def _brute_bounded_counts(caps: tuple[int, ...]) -> Counter:
    """Histogram of sums over the raw product space; the oracle for count_bounded_compositions."""
    return Counter(sum(vec) for vec in product(*(range(c + 1) for c in caps)))


@_suite("bounded-counts")
def verify_bounded_counts() -> Checks:
    """count_bounded_compositions vs brute force, plus symmetry, peak monotonicity, and the split.

    One fixed family, 108,825 checks: every cap vector with up to 4 coordinates, each at
    most 4, and every total in [-1, m+1] where m is the cap sum. Monotonicity is the
    farther-from-m/2 comparison, checked for every ordered pair of totals.
    """
    for r in range(5):
        for caps in product(range(5), repeat=r):
            m = sum(caps)
            totals = range(-1, m + 2)
            counts = {a: count_bounded_compositions(caps, a) for a in totals}
            brute = _brute_bounded_counts(caps)
            for a in totals:
                found = []
                if counts[a] != brute.get(a, 0):
                    found.append(
                        {"caps": caps, "total": a, "kind": "dp", "dp": counts[a], "brute": brute.get(a, 0)}
                    )
                if counts[a] != counts[m - a]:
                    found.append({"caps": caps, "total": a, "kind": "symmetry"})
                yield found
            for a in totals:
                for b in totals:
                    holds = abs(2 * a - m) < abs(2 * b - m) or counts[a] <= counts[b]
                    yield [] if holds else [{"caps": caps, "a": a, "b": b, "kind": "monotonicity"}]
            if caps and caps[0] >= 1:
                for a in totals:
                    saturated, below = split_by_first_part(caps, a)
                    yield [] if saturated + below == counts[a] else [{"caps": caps, "total": a, "kind": "split"}]
            normalization = 1
            for c in caps:
                normalization *= c + 1
            total = sum(counts[a] for a in range(m + 1))
            yield [] if total == normalization else [{"caps": caps, "kind": "normalization"}]


def content_census(shape: SkewShape, caps: Sequence[int]) -> dict[Parts, list[Sequence[int]]]:
    """The reading word of every semistandard filling with the entry k at most caps[k-1] times, grouped by content.

    Each word is bytes, one entry per byte; with more than 255 caps the words stay tuples.
    """
    pack = bytes if len(caps) <= 255 else tuple
    # the words of one content sort to one tuple, which is cheaper to key by
    by_entries: dict[tuple[int, ...], list[Sequence[int]]] = defaultdict(list)
    for word in semistandard_words(shape, caps):
        by_entries[tuple(sorted(word))].append(pack(word))
    return {word_content(entries): words for entries, words in by_entries.items()}


def bounded_content_family(m: int) -> list[Parts]:
    """All compositions of m with at most m+1 parts, up to trailing zeros, sorted.

    This is the finite slice standing in for "every content": wider vectors are
    relabelings that cannot introduce new behavior for m cells.
    """
    # stars and bars: m bars among 2m slots cut m stars into m+1 gaps, the parts;
    # stripping trailing zeros is one-to-one on vectors of one length
    return sorted(
        composition(tuple(b - a - 1 for a, b in zip((-1, *bars), (*bars, 2 * m))))
        for bars in combinations(range(2 * m), m)
    )


@_suite("adjacent-transfer")
def verify_adjacent_transfer(max_cells: int, include_skew: bool = False) -> Checks:
    """Adjacent content transfers never shrink the tableau count, class by class.

    For every straight shape with up to max_cells cells (plus, when include_skew,
    every translation-canonical skew shape in a 4-row box), every content in the
    bounded family with part i exceeding part i+1: the count for the transferred
    content dominates, and already per signature class. Counts come from the
    enumeration census, not the DP, and classes are keyed by masked reading words
    (equal exactly when the signatures are). Contents absent from the census have
    count zero and satisfy both claims trivially, so only census contents are
    walked.
    """
    for shape in _shapes(max_cells, include_skew):
        m = shape.size
        label = _label(shape)
        cells = shape.cells()
        # mu has at most m+1 parts, and the only nu with an m+2 comes from a transfer at i = m+1, which moves one unit
        census = content_census(shape, (m,) * (m + 1) + (1,))
        for mu in sorted(census):
            if len(mu) > m + 1:
                continue
            mu_words = census[mu]
            for i, (part, below) in enumerate(zip(mu, mu[1:] + (0,)), start=1):
                if part <= below:
                    continue
                nu = transfer_target(mu, i)
                nu_words = census.get(nu, [])
                found = []
                if len(mu_words) > len(nu_words):
                    found.append(
                        {
                            "shape": label,
                            "mu": format_parts(mu),
                            "index": i,
                            "count_mu": len(mu_words),
                            "count_nu": len(nu_words),
                        }
                    )
                # per class, how many more fillings mu has than nu; only mu's classes can fall short
                excess: dict = {}
                for word in mu_words:
                    key = masked_word(word, i)
                    excess[key] = excess.get(key, 0) + 1
                for word in nu_words:
                    key = masked_word(word, i)
                    if key in excess:
                        excess[key] -= 1
                short = []
                for key, more in excess.items():
                    if more > 0:
                        skeleton = tuple((cell, e) for cell, e in zip(cells, key) if e)
                        count_mu = sum(masked_word(word, i) == key for word in mu_words)
                        short.append((skeleton, count_mu, count_mu - more))
                for skeleton, count_mu, count_nu in sorted(short):
                    found.append(
                        {
                            "shape": label,
                            "mu": format_parts(mu),
                            "index": i,
                            "kind": "class",
                            "skeleton": skeleton,
                            "count_mu": count_mu,
                            "count_nu": count_nu,
                        }
                    )
                yield found


@_suite("transfer-chains")
def verify_transfer_chains(max_n: int) -> Checks:
    """Column cover moves decompose into adjacent transfers with monotone counts.

    For every column cover with n <= max_n: the chain has one intermediate per part
    equal to mu_i - 1 right after part i in mu, consecutive chain steps are single
    adjacent transfers with the source part exceeding the target, and for every
    straight shape of n the counts along the chain weakly increase.
    """
    for n in range(max_n + 1):
        lams = partitions_of(n)
        for mu in lams:
            for move, _ in covers(mu):
                if move.kind != COLUMN:
                    continue
                found = []
                chain = full_transfer_chain(mu, move)
                run = list(takewhile(lambda part: part == mu[move.i - 1] - 1, mu[move.i :]))
                if len(chain[1:-1]) != len(run):
                    found.append({"mu": format_parts(mu), "move": move.describe(), "kind": "length"})
                for t in range(len(chain) - 1):
                    if adjacent_transfer_index(chain[t], chain[t + 1]) is None:
                        found.append(
                            {"mu": format_parts(mu), "move": move.describe(), "step": t, "kind": "precondition"}
                        )
                for lam in lams:
                    values = [kostka_number(lam, step) for step in chain]
                    if any(values[t] > values[t + 1] for t in range(len(values) - 1)):
                        found.append(
                            {
                                "mu": format_parts(mu),
                                "move": move.describe(),
                                "lambda": format_parts(lam),
                                "counts": values,
                            }
                        )
                yield found


@_suite("dp-vs-enumeration")
def verify_oracle_equivalence(max_cells: int) -> Checks:
    """DP counts equal enumeration counts for every straight shape and bounded content.

    The census enumerates every filling with entries up to m+1 once per shape, so
    contents the DP must report as zero are checked too. Each shape gets one walk
    memo over the sorted family, so consecutive contents resume from the frontier
    of the prefix they share.
    """
    for m in range(max_cells + 1):
        family = bounded_content_family(m)
        for lam in partitions_of(m):
            shape = SkewShape(lam)
            census = {c: len(words) for c, words in content_census(shape, (m,) * (m + 1)).items()}
            local: dict = {}
            for content in family:
                dp = kostka_number(shape, content, cache=local)
                expected = census.get(content, 0)
                yield [] if dp == expected else [
                    {
                        "shape": format_parts(lam),
                        "content": format_parts(content),
                        "dp": dp,
                        "enumerated": expected,
                    }
                ]


@_suite("content-permutation-invariance")
def verify_permutation_invariance(max_cells: int) -> Checks:
    """Permuting the content parts never changes the DP count.

    Each partition content of each straight shape runs against every distinct
    rearrangement, including ones with a zero part inserted, so interior zeros get
    exercised.
    """
    for shape in _shapes(max_cells, False):
        for mu in partitions_of(shape.size):
            base = kostka_number(shape, mu)
            for perm in sorted(set(permutations(mu + (0,)))):
                got = kostka_number(shape, perm)
                yield [] if got == base else [
                    {
                        "shape": _label(shape),
                        "mu": format_parts(mu),
                        "perm": format_parts(perm),
                        "base": base,
                        "got": got,
                    }
                ]


# (suite, its arguments after max_n) in CLI order; None runs the suite at its own fixed size
STANDARD_SUITES = (
    ("verify_positivity", ()),
    ("verify_monotonicity", (True,)),
    ("verify_bounded_counts", None),
    ("verify_adjacent_transfer", ()),
    ("verify_covers", ()),
)


def _run_suite(name: str, args: tuple) -> Report:
    """Run the suite bound to name in this module now, so a rebinding (a test's, a tracer's) takes effect."""
    return globals()[name](*args)


def run_standard_suites(max_n: int, parallelism: int = 1) -> list[Report]:
    """The five CLI verification suites, in a fixed order regardless of parallelism."""
    calls = [(name, () if extra is None else (max_n, *extra)) for name, extra in STANDARD_SUITES]
    if parallelism <= 1:
        return [_run_suite(*call) for call in calls]
    # imported here: a pool pulls in multiprocessing, which serial runs never need
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(parallelism, len(calls))) as pool:
        futures = [pool.submit(_run_suite, *call) for call in calls]
        return [f.result() for f in futures]
