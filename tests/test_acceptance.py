"""Acceptance suite: one test per advertised guarantee, one PASS/FAIL line each.

Each test exercises a guarantee at its full advertised scale (these are the
slowest tests in the repository) and prints a single summary line so a log
scan shows the status of every guarantee at a glance.
"""

import math
import time

from kostka import (
    kostka_matrix,
    verify_adjacent_transfer,
    verify_bounded_counts,
    verify_covers,
    verify_monotonicity,
    verify_oracle_equivalence,
    verify_permutation_invariance,
    verify_positivity,
    verify_transfer_chains,
)


def announce(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d}: {'PASS' if ok else 'FAIL'} — {detail}")


def standard_tableau_count(lam: tuple) -> int:
    """Count standard tableaux of straight shape via the hook length product.

    Independent of the DP and of the backtracking enumerator: arm + leg + 1
    per cell, n! divided by the product of hooks.
    """
    n = sum(lam)
    hooks = 1
    for r, row_len in enumerate(lam):
        for c in range(1, row_len + 1):
            arm = row_len - c
            leg = sum(1 for k in range(r + 1, len(lam)) if lam[k] >= c)
            hooks *= arm + leg + 1
    return math.factorial(n) // hooks


class TestAcceptance:
    def test_01_positivity_iff_dominance_m7(self):
        report = verify_positivity(7)
        ok = report.ok and report.elapsed < 30
        announce(1, ok, f"positivity iff dominance, m<=7: checked={report.checked} "
                        f"violations={len(report.violations)} elapsed={report.elapsed:.2f}s (budget 30s)")
        assert report.ok
        assert report.elapsed < 30

    def test_02_monotonicity_straight_m6(self):
        report = verify_monotonicity(6)
        ok = report.ok and report.elapsed < 60
        announce(2, ok, f"dominance monotonicity, straight shapes m<=6: checked={report.checked} "
                        f"violations={len(report.violations)} elapsed={report.elapsed:.2f}s (budget 60s)")
        assert report.ok
        assert report.elapsed < 60

    def test_03_monotonicity_skew_6_cells(self):
        report = verify_monotonicity(6, include_skew=True)
        announce(3, report.ok, f"dominance monotonicity incl. skew shapes <=6 cells, <=4 rows: "
                               f"checked={report.checked} violations={len(report.violations)} "
                               f"elapsed={report.elapsed:.2f}s")
        assert report.ok

    def test_04_bounded_counts(self):
        report = verify_bounded_counts()
        ok = report.ok and report.elapsed < 10
        announce(4, ok, f"bounded composition counts (brute force, symmetry, peak monotonicity, "
                        f"split): checked={report.checked} violations={len(report.violations)} "
                        f"elapsed={report.elapsed:.2f}s (budget 10s)")
        assert report.ok
        assert report.elapsed < 10

    def test_05_adjacent_transfer_m6(self):
        report = verify_adjacent_transfer(6)
        announce(5, report.ok, f"adjacent transfer inequality + per-class refinement, shapes <=6 "
                               f"cells: checked={report.checked} violations={len(report.violations)} "
                               f"elapsed={report.elapsed:.2f}s")
        assert report.ok

    def test_06_covers_vs_brute_force_n10(self):
        report = verify_covers(10)
        ok = report.ok and report.elapsed < 30
        announce(6, ok, f"cover moves vs brute-force cover sets, n<=10: checked={report.checked} "
                        f"violations={len(report.violations)} elapsed={report.elapsed:.2f}s (budget 30s)")
        assert report.ok
        assert report.elapsed < 30

    def test_07_dp_vs_enumeration_8_cells(self):
        report = verify_oracle_equivalence(8)
        announce(7, report.ok, f"DP counts equal enumeration cardinalities, shapes <=8 cells, all "
                               f"contents: checked={report.checked} violations={len(report.violations)} "
                               f"elapsed={report.elapsed:.2f}s")
        assert report.ok

    def test_08_transfer_chains_n6(self):
        report = verify_transfer_chains(6)
        announce(8, report.ok, f"column-cover transfer chains (existence, step preconditions, weakly "
                               f"increasing counts), n<=6: checked={report.checked} "
                               f"violations={len(report.violations)} elapsed={report.elapsed:.2f}s")
        assert report.ok

    def test_09_permutation_invariance_m7(self):
        report = verify_permutation_invariance(7)
        announce(9, report.ok, f"content permutation invariance, shapes <=7 cells: "
                               f"checked={report.checked} violations={len(report.violations)} "
                               f"elapsed={report.elapsed:.2f}s")
        assert report.ok

    def test_10_matrix_timing_n12_n16(self):
        start = time.perf_counter()
        m12 = kostka_matrix(12)
        t12 = time.perf_counter() - start
        start = time.perf_counter()
        m16 = kostka_matrix(16)
        t16 = time.perf_counter() - start

        ok_shape = len(m12.partitions) == 77 and len(m16.partitions) == 231
        column12 = (1,) * 12
        column16 = (1,) * 16
        oracle_ok = all(
            m12.value(lam, column12) == standard_tableau_count(lam) for lam in m12.partitions
        ) and all(
            m16.value(lam, column16) == standard_tableau_count(lam) for lam in m16.partitions
        )
        diag_ok = all(m12.value(lam, lam) == 1 for lam in m12.partitions) and all(
            m16.value(lam, lam) == 1 for lam in m16.partitions
        )
        ok = ok_shape and oracle_ok and diag_ok and t12 < 10 and t16 < 120
        announce(10, ok, f"full matrix timing with independent hook-product spot oracle: "
                         f"n=12 in {t12:.2f}s (budget 10s), n=16 in {t16:.2f}s (budget 120s), "
                         f"77/231 partitions, column and diagonal checks "
                         f"{'clean' if oracle_ok and diag_ok else 'FAILED'}")
        assert ok_shape
        assert oracle_ok
        assert diag_ok
        assert t12 < 10
        assert t16 < 120


def test_announced_counts_cover_every_guarantee():
    # ten numbered guarantees, ten tests; keep the numbering contiguous
    names = [n for n in dir(TestAcceptance) if n.startswith("test_")]
    numbers = sorted(int(n.split("_")[1]) for n in names)
    assert numbers == list(range(1, 11))
