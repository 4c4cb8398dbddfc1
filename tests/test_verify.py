"""The exhaustive check suites and their reporting."""

import math

import kostka.verify
from kostka import (
    Report,
    SkewShape,
    count_bounded_compositions,
    covers,
    full_transfer_chain,
    iter_semistandard,
    kostka_number,
    partitions_of,
)
from kostka.verify import (
    STANDARD_SUITES,
    bounded_content_family,
    brute_force_covers,
    canonical_box_skew_shapes,
    content_census,
    run_standard_suites,
    verify_adjacent_transfer,
    verify_bounded_counts,
    verify_covers,
    verify_monotonicity,
    verify_oracle_equivalence,
    verify_permutation_invariance,
    verify_positivity,
    verify_transfer_chains,
)


class TestBruteForceCovers:
    def test_n4_is_a_chain(self):
        assert brute_force_covers(4) == {
            (4,): {(3, 1)},
            (3, 1): {(2, 2)},
            (2, 2): {(2, 1, 1)},
            (2, 1, 1): {(1, 1, 1, 1)},
            (1, 1, 1, 1): set(),
        }

    def test_n6_spot_values(self):
        bfc = brute_force_covers(6)
        assert bfc[(4, 1, 1)] == {(3, 2, 1)}
        assert bfc[(3, 3)] == {(3, 2, 1)}
        assert bfc[(2, 2, 1, 1)] == {(2, 1, 1, 1, 1)}
        assert bfc[(1, 1, 1, 1, 1, 1)] == set()

    def test_composites_excluded(self):
        # (4,2) dominates (2,2,2) but only through (3,3) or (4,1,1)... via (3,2,1)
        bfc = brute_force_covers(6)
        assert (2, 2, 2) not in bfc[(4, 2)]
        assert bfc[(4, 2)] == {(4, 1, 1), (3, 3)}


class TestSuitesClean:
    def test_covers(self):
        report = verify_covers(6)
        assert report.ok
        assert report.checked == sum(len(partitions_of(n)) for n in range(7))

    def test_bounded_counts(self):
        report = verify_bounded_counts()
        assert report.ok
        assert report.checked == 108825

    def test_adjacent_transfer(self):
        report = verify_adjacent_transfer(4)
        assert report.ok
        assert report.checked == 506

    def test_adjacent_transfer_with_skew(self):
        report = verify_adjacent_transfer(4, include_skew=True)
        assert report.ok
        assert report.checked == 11090

    def test_transfer_chains(self):
        report = verify_transfer_chains(5)
        assert report.ok
        assert report.checked == 4  # column covers with n <= 5: one at n=3,4 and two at n=5

    def test_oracle_equivalence(self):
        report = verify_oracle_equivalence(5)
        assert report.ok
        assert report.checked == 2189

    def test_permutation_invariance(self):
        report = verify_permutation_invariance(5)
        assert report.ok
        assert report.checked == 637


class TestFaultInjection:
    def test_bounded_counts_dp_fault_is_caught_with_kinds(self, monkeypatch):
        # off by one on the total 2 only: the suite must fail, and every record,
        # the DP-vs-brute-force mismatches included, must say which check broke
        monkeypatch.setattr(
            kostka.verify,
            "count_bounded_compositions",
            lambda caps, total: count_bounded_compositions(caps, total) + (total == 2),
        )
        report = verify_bounded_counts()
        assert not report.ok
        assert all("kind" in v for v in report.violations)
        assert {"caps": (1, 1), "total": 2, "kind": "dp", "dp": 2, "brute": 1} in report.violations
        # one check may report several records; all are kept, in check order
        assert [v for v in report.violations if v["caps"] == (1, 1)] == [
            {"caps": (1, 1), "total": 0, "kind": "symmetry"},
            {"caps": (1, 1), "total": 2, "kind": "dp", "dp": 2, "brute": 1},
            {"caps": (1, 1), "total": 2, "kind": "symmetry"},
            {"caps": (1, 1), "a": 2, "b": 0, "kind": "monotonicity"},
            {"caps": (1, 1), "total": 2, "kind": "split"},
            {"caps": (1, 1), "kind": "normalization"},
        ]

    def test_adjacent_transfer_census_fault_is_caught_per_class(self, monkeypatch):
        # the census loses the only filling of (2,) with content (1,1), so the
        # transfer (2,) -> (1,1) appears to shrink the count, in total and per class
        real = kostka.verify.content_census

        def census(shape, caps):
            found = real(shape, caps)
            if shape == SkewShape((2,)):
                del found[(1, 1)]
            return found

        monkeypatch.setattr(kostka.verify, "content_census", census)
        report = verify_adjacent_transfer(2)
        assert not report.ok
        assert report.violations == [
            {"shape": "2", "mu": "2", "index": 1, "count_mu": 1, "count_nu": 0},
            {"shape": "2", "mu": "2", "index": 1, "kind": "class", "skeleton": (), "count_mu": 1, "count_nu": 0},
        ]

    def test_adjacent_transfer_class_fault_keeps_totals(self, monkeypatch):
        # the census swaps the only filling 1 2 3 of (3,) for the word 3 1 2: every
        # content total stays, but the three transfers into or out of (1,1,1) now
        # compare fillings of different classes
        real = kostka.verify.content_census

        def census(shape, caps):
            found = real(shape, caps)
            if shape == SkewShape((3,)):
                found[(1, 1, 1)] = [(3, 1, 2)]
            return found

        monkeypatch.setattr(kostka.verify, "content_census", census)
        report = verify_adjacent_transfer(3)
        assert not report.ok
        assert report.violations == [
            {"shape": "3", "mu": "1,1,1", "index": 3, "kind": "class",
             "skeleton": (((1, 2), 1), ((1, 3), 2)), "count_mu": 1, "count_nu": 0},
            {"shape": "3", "mu": "1,2", "index": 2, "kind": "class",
             "skeleton": (((1, 1), 1),), "count_mu": 1, "count_nu": 0},
            {"shape": "3", "mu": "2,0,1", "index": 1, "kind": "class",
             "skeleton": (((1, 3), 3),), "count_mu": 1, "count_nu": 0},
        ]

    def test_adjacent_transfer_class_excess_above_one(self, monkeypatch):
        # the census triples the only filling 1 2 of (2,) with content (1,1); its one
        # class for the pair 2, 3 also holds the filling 1 3 of (1,0,1), so mu leads by 2
        real = kostka.verify.content_census

        def census(shape, caps):
            found = real(shape, caps)
            if shape == SkewShape((2,)):
                found[(1, 1)] = found[(1, 1)] * 3
            return found

        monkeypatch.setattr(kostka.verify, "content_census", census)
        report = verify_adjacent_transfer(2)
        assert report.violations == [
            {"shape": "2", "mu": "1,1", "index": 2, "count_mu": 3, "count_nu": 1},
            {"shape": "2", "mu": "1,1", "index": 2, "kind": "class",
             "skeleton": (((1, 1), 1),), "count_mu": 3, "count_nu": 1},
        ]

    def test_covers_fault_is_caught(self, monkeypatch):
        monkeypatch.setattr(kostka.verify, "covers", lambda mu: [] if mu == (3, 1) else covers(mu))
        report = verify_covers(4)
        assert not report.ok
        assert report.violations == [{"mu": "3,1", "constructed": [], "hasse": ["2,2"]}]

    def test_transfer_chains_count_fault_is_caught(self, monkeypatch):
        # inflate the middle step of the one column-cover chain at n=3: (2,1,0) -> (1,2,0) -> (1,1,1)
        def count(shape, content, cache=None):
            return 5 if tuple(content) == (1, 2, 0) else kostka_number(shape, content, cache)

        monkeypatch.setattr(kostka.verify, "kostka_number", count)
        report = verify_transfer_chains(3)
        assert not report.ok
        assert {"mu": "2,1", "move": "column-move i=1, j=3", "lambda": "2,1", "counts": [1, 5, 2]} in report.violations

    def test_transfer_chains_dropped_intermediate_is_caught(self, monkeypatch):
        # the chain of the column move 1 -> 3 of (2,1) loses its one intermediate (1,2,0),
        # while mu still has one part equal to mu_1 - 1 right after part 1
        def chain(mu, move):
            steps = full_transfer_chain(mu, move)
            return steps[:1] + steps[2:]

        monkeypatch.setattr(kostka.verify, "full_transfer_chain", chain)
        report = verify_transfer_chains(3)
        assert {"mu": "2,1", "move": "column-move i=1, j=3", "kind": "length"} in report.violations

    def test_transfer_chains_two_unit_step_is_caught(self, monkeypatch):
        # the first step of (2,1,0) -> (1,2,0) -> (1,1,1) moves two units instead: (2,1,0) -> (0,3,0)
        def chain(mu, move):
            steps = full_transfer_chain(mu, move)
            return [steps[0], (0, 3, 0), *steps[2:]] if mu == (2, 1) else steps

        monkeypatch.setattr(kostka.verify, "full_transfer_chain", chain)
        report = verify_transfer_chains(3)
        assert {"mu": "2,1", "move": "column-move i=1, j=3", "step": 0, "kind": "precondition"} in report.violations
        assert not any(v.get("kind") == "length" for v in report.violations)

    def test_oracle_equivalence_dp_fault_is_caught(self, monkeypatch):
        monkeypatch.setattr(
            kostka.verify,
            "kostka_number",
            lambda shape, content, cache=None: kostka_number(shape, content, cache) + (tuple(content) == (2,)),
        )
        report = verify_oracle_equivalence(2)
        assert not report.ok
        assert {"shape": "2", "content": "2", "dp": 2, "enumerated": 1} in report.violations

    def test_permutation_invariance_fault_is_caught(self, monkeypatch):
        monkeypatch.setattr(
            kostka.verify,
            "kostka_number",
            lambda shape, content, cache=None: kostka_number(shape, content, cache) + (tuple(content) == (0, 2)),
        )
        report = verify_permutation_invariance(2)
        assert not report.ok
        assert {"shape": "2", "mu": "2", "perm": "0,2", "base": 1, "got": 2} in report.violations


class TestBoundedContentFamily:
    def test_m2_frozen(self):
        assert bounded_content_family(2) == [
            (0, 0, 2),
            (0, 1, 1),
            (0, 2),
            (1, 0, 1),
            (1, 1),
            (2,),
        ]

    def test_counts_are_central_binomials(self):
        # compositions of m into m+1 slots, modulo trailing zeros
        for m in range(7):
            assert len(bounded_content_family(m)) == math.comb(2 * m, m)

    def test_sorted_and_unique(self):
        fam = bounded_content_family(4)
        assert fam == sorted(set(fam))
        assert all(sum(c) == 4 and (not c or c[-1] > 0) for c in fam)


class TestContentCensus:
    def test_totals_match_full_enumeration(self):
        shape = SkewShape((3, 2), (1,))
        census = content_census(shape, (4,) * 4)
        total = sum(len(v) for v in census.values())
        assert total == sum(1 for _ in iter_semistandard(shape, 4))

    def test_keys_are_observed_contents(self):
        census = content_census(SkewShape((2, 1)), (3,) * 3)
        assert census[(1, 1, 1)] == [bytes((1, 2, 3)), bytes((1, 3, 2))]  # reading words, lexicographic
        assert (2, 1) in census and (1, 2) in census
        assert (3,) not in census  # three equal entries cannot fill (2, 1)

    def test_entries_above_255_stay_tuples(self):
        census = content_census(SkewShape((1,)), (1,) * 300)
        assert census[(0,) * 299 + (1,)] == [(300,)]
        assert census[(1,)] == [(1,)]

    def test_adjacent_transfer_cap_drops_only_words_with_two_top_entries(self):
        # words holding m+2 twice or more, and only those, leave the census, in order
        shapes = [SkewShape(lam) for m in range(6) for lam in partitions_of(m)] + canonical_box_skew_shapes(4, 4)
        for shape in shapes:
            m = shape.size
            uncapped = content_census(shape, (m,) * (m + 2))
            expected = {}
            for mu, words in uncapped.items():
                kept = [w for w in words if w.count(m + 2) < 2]
                if kept:
                    expected[mu] = kept
            assert content_census(shape, (m,) * (m + 1) + (1,)) == expected, shape

    def test_adjacent_transfer_reads_no_capped_word(self, monkeypatch):
        runs = [(5,), (4, True)]
        capped = [(r.checked, r.violations) for r in (verify_adjacent_transfer(*args) for args in runs)]
        real = kostka.verify.content_census
        monkeypatch.setattr(kostka.verify, "content_census", lambda shape, caps: real(shape, (shape.size,) * len(caps)))
        assert [(r.checked, r.violations) for r in (verify_adjacent_transfer(*args) for args in runs)] == capped


class TestReporting:
    def test_text_truncates_long_violation_lists(self):
        violations = [{"k": i} for i in range(55)]
        text = Report(name="demo", checked=55, violations=violations, elapsed=1.0).to_text()
        assert text.splitlines()[0] == "demo: checked=55 violations=55 FAIL (1.00s)"
        assert text.splitlines()[-1] == "  ... and 5 more"
        assert len(text.splitlines()) == 52

    def test_json_dict(self):
        report = verify_positivity(3)
        data = report.to_json_dict()
        assert data == {
            "name": "positivity-iff-dominance",
            "checked": report.checked,
            "violations": [],
            "elapsed": round(report.elapsed, 3),
        }


class TestStandardSuites:
    def test_five_suites_registered(self):
        assert len(STANDARD_SUITES) == 5

    def test_serial_run(self):
        reports = run_standard_suites(3)
        assert [r.name for r in reports] == [
            "positivity-iff-dominance",
            "dominance-monotonicity",
            "bounded-counts",
            "adjacent-transfer",
            "covers-vs-hasse",
        ]
        assert all(r.ok for r in reports)

    def test_suites_are_looked_up_by_name_when_run(self, monkeypatch):
        # tracers rebind suites in kostka.verify; the runner must see the rebinding
        marked = Report(name="marked", checked=7)
        monkeypatch.setattr(kostka.verify, "verify_covers", lambda max_n: marked)
        assert run_standard_suites(2)[4] is marked

    def test_parallel_matches_serial(self):
        serial = run_standard_suites(3)
        parallel = run_standard_suites(3, parallelism=2)
        assert [(r.name, r.checked, r.violations) for r in serial] == [
            (r.name, r.checked, r.violations) for r in parallel
        ]


class TestVerifiers:
    def test_positivity_clean(self):
        report = verify_positivity(5)
        assert report.ok
        assert report.checked == sum(len(partitions_of(m)) ** 2 for m in range(6))

    def test_positivity_zero_is_trivial(self):
        report = verify_positivity(0)
        assert report.ok and report.checked == 1

    def test_positivity_fault_injection(self, monkeypatch):
        # claims every count is positive
        monkeypatch.setattr(kostka.verify, "kostka_number", lambda shape, mu, cache=None: 1)
        report = verify_positivity(4)
        assert not report.ok
        assert {"m": 2, "lambda": "1,1", "mu": "2", "positive": True, "dominates": False} in report.violations

    def test_monotonicity_clean_straight(self):
        report = verify_monotonicity(5)
        assert report.ok
        assert report.checked == 297

    def test_monotonicity_clean_with_skew(self):
        report = verify_monotonicity(4, include_skew=True)
        assert report.ok
        assert report.checked == 1611

    def test_monotonicity_fault_injection(self, monkeypatch):
        monkeypatch.setattr(
            kostka.verify, "kostka_number", lambda shape, mu, cache=None: 2 if mu == (shape.size,) else 1
        )
        report = verify_monotonicity(3)
        assert not report.ok
        assert any(v["mu"] == "3" and v["nu"] == "2,1" for v in report.violations)


    def test_monotonicity_labels_skew_and_straight_shapes_alike(self, monkeypatch):
        monkeypatch.setattr(
            kostka.verify, "kostka_number", lambda shape, mu, cache=None: 2 if mu == (shape.size,) else 1
        )
        labels = {v["shape"] for v in verify_monotonicity(3, include_skew=True).violations}
        assert "2,1/1" in labels and "2" in labels
        assert not any(label.endswith("/0") for label in labels)


class TestCanonicalSkewShapes:
    def test_small_family_exact(self):
        # translation-canonical: no shape here is a horizontal/vertical shift
        # of another, so ((2,), (1,)) is absent — it shifts to ((1,), ())
        shapes = {(s.outer, s.inner) for s in canonical_box_skew_shapes(2, 2)}
        assert shapes == {
            ((1,), ()),
            ((2,), ()),
            ((1, 1), ()),
            ((2, 1), (1,)),
        }

    def test_membership_properties(self):
        shapes = canonical_box_skew_shapes(4, 6)
        seen = set()
        for s in shapes:
            key = (s.outer, s.inner)
            assert key not in seen
            seen.add(key)
            assert 1 <= s.size <= 6
            assert s.n_rows <= 4 and s.outer[0] <= 6
            assert len(s.inner) < len(s.outer)  # flush left
            assert s.inner[0] < s.outer[0] if s.inner else True  # first row holds a cell

    def test_order_matches_listing_inners_per_outer(self):
        def reference(max_rows, max_cells):
            shapes = []
            for outer_size in range(1, max_rows * max_cells + 1):
                for outer in partitions_of(outer_size, max_part=max_cells):
                    if len(outer) > max_rows:
                        continue
                    for inner_size in range(max(0, outer_size - max_cells), outer_size):
                        for inner in partitions_of(inner_size, max_part=outer[0] - 1):
                            if len(inner) < len(outer) and all(i <= o for i, o in zip(inner, outer)):
                                shapes.append((outer, inner))
            return shapes

        for args in [(4, 6), (3, 4), (2, 2), (1, 2)]:
            got = [(s.outer, s.inner) for s in canonical_box_skew_shapes(*args)]
            assert got == reference(*args), args
