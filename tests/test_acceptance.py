"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Everything here is pinned to its stated tolerance; the heavy shared
artifacts (full-depth tables, the deep series) come from session fixtures.
"""

from fractions import Fraction

from mpmath import mp, mpf

from oracles import dedekind_sums_direct_row
from overrank import (a_asymptotic, a_exact, const_C, dedekind_sum, engel_pbar, m_c,
                      m_c_prime, pbar_sandwich, r_ratio, rank_class_table, sandwich_threshold,
                      t_inequality, verify_subadditivity)
from overrank.bounds import strict_verdict
from overrank.counts import brute_force_rank_counts


def gate(number: int, label: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"{tag} criterion-{number:02d} {label}{suffix}")
    assert ok, f"criterion {number}: {label} {detail}"


def test_criterion_01_oracle_equivalence():
    oracle = {n: brute_force_rank_counts(n) for n in range(26)}
    mismatches = 0
    for c in range(2, 9):
        table = rank_class_table(25, c)
        for n in range(26):
            if oracle[n].fold(c) != table.counts[n]:
                mismatches += 1
    gate(1, "table equals brute-force oracle for n<=25, c in 2..8",
         mismatches == 0, f"{7 * 26} rows compared")


def test_criterion_02_conservation(pbar3000, table3, table4, table5):
    bad = sum(1 for table in (table3, table4, table5)
              for n in range(3001) if table.row_sum(n) != pbar3000[n])
    gate(2, "row sums equal the overpartition count for n<=3000, c in {3,4,5}",
         bad == 0, "9003 exact row sums")


def test_criterion_03_subadditivity_sweep(table3, table4, table5):
    violations = 0
    pairs = 0
    worst = None
    for table in (table3, table4, table5):
        for a in range(table.c):
            cert = verify_subadditivity(table, a, 9, 800)
            violations += len(cert.violations)
            pairs += cert.pairs_checked
            if cert.min_margin is not None:
                worst = cert.min_margin if worst is None else min(worst, cert.min_margin)
    gate(3, "strict log-subadditivity on 9<=n1<=n2<=800, c in {3,4,5}, all a",
         violations == 0 and worst > 1,
         f"{pairs} exact pairs, min margin ~{float(worst):.4f}")


def test_criterion_04_ratio_thresholds():
    checks = [(3, 2089, "0.33142"), (4, 272, "0.24084"), (5, 449, "0.1897")]
    verdicts = [strict_verdict(r_ratio(c, n), mpf(cap)) for c, n, cap in checks]
    gate(4, "published ratio thresholds with margin beyond policy",
         all(v == "pass" for v in verdicts),
         " ".join(f"R_{c}({n})<{cap}:{v}" for (c, n, cap), v in zip(checks, verdicts)))


def test_criterion_05_sandwich_windows(table3, table4, table5):
    coef = {3: (Fraction(19, 10000), Fraction(6648, 10000)),
            4: (Fraction(91, 10000), Fraction(4909, 10000)),
            5: (Fraction(103, 10000), Fraction(3897, 10000))}
    bad = 0
    checked = 0
    for table in (table3, table4, table5):
        c = table.c
        lo, hi = coef[c]
        start = sandwich_threshold(c).n_min
        for n in range(start, start + 61):
            pb = table.row_sum(n)
            for a in range(c):
                v = table.counts[n][a]
                checked += 1
                # exact rational comparisons on both sides
                if not (v * lo.denominator > lo.numerator * pb
                        and v * hi.denominator < hi.numerator * pb):
                    bad += 1
    gate(5, "sandwich coefficients hold exactly on the 61-wide windows",
         bad == 0, f"{checked} exact two-sided comparisons")


def test_criterion_06_engel_and_sandwich_containment(pbar3000):
    bad_engel = 0
    for n in range(1, 1001):
        e = engel_pbar(n, prec=224)
        if abs(pbar3000[n] - e.estimate) > e.certified_bound:
            bad_engel += 1
    bad_sandwich = 0
    for n in range(1, 3001):
        lo, hi = pbar_sandwich(n, prec=224)
        if not (lo <= pbar3000[n] <= hi):
            bad_sandwich += 1
    gate(6, "two-arc estimate and two-sided envelope contain the exact count",
         bad_engel == 0 and bad_sandwich == 0,
         "n<=1000 certified interval, n<=3000 envelope")


def test_criterion_07_t_inequality_crossing():
    holds_109 = t_inequality(109, 3).holds
    fails_10 = not t_inequality(10, 3).holds
    sampled = list(range(109, 2000)) + list(range(2000, 10001, 61)) + [10000]
    all_hold = all(t_inequality(n1, 3).holds for n1 in sampled)
    gate(7, "gap inequality holds from 109 through 10^4 and fails at 10",
         holds_109 and fails_10 and all_hold, f"{len(sampled) + 1} points")


def test_criterion_08_dedekind_suite():
    from math import gcd
    bad = 0
    for k in range(1, 201):
        for h in range(1, k):
            if gcd(h, k) != 1:
                continue
            lhs = dedekind_sum(h, k) + dedekind_sum(k, h) if h > 1 else \
                dedekind_sum(h, k) + dedekind_sum(0, 1)
            rhs = Fraction(-1, 4) + (Fraction(h, k) + Fraction(k, h)
                                     + Fraction(1, h * k)) / 12
            if lhs != rhs:
                bad += 1
    mismatch = 0
    for k in range(1, 501):
        for h, s in dedekind_sums_direct_row(k).items():
            if dedekind_sum(h, k) != s:
                mismatch += 1
    gate(8, "reciprocity exact for k<=200; fast path equals direct for k<=500",
         bad == 0 and mismatch == 0, "exact rational identities")


def test_criterion_09_asymptotic_sanity(table3):
    devs = {}
    residual_ok = True
    for n in (500, 2000):
        est = a_asymptotic(1, 3, n)
        exact = a_exact(1, n, table3, prec=300)
        devs[n] = abs(est.value - exact.real) / abs(exact.real)
        if est.imag_residual > mpf(10) ** -10 * max(abs(t) for _, t in est.k_terms):
            residual_ok = False
    gate(9, "relative deviation shrinks (n=2000 vs 500) and residual stays tiny",
         devs[2000] < devs[500] and residual_ok,
         f"dev500~{float(devs[500]):.2e} dev2000~{float(devs[2000]):.2e}")


def test_criterion_10_certified_constants(pbar3000, pbar_deep):
    with mp.workprec(240):
        caps = [
            (const_C(1, None, pbar3000), mpf("0.8066")),
            (const_C(3, None, pbar3000), mpf("0.5488")),
            (const_C(5, None, pbar3000), mpf("120.942")),
            (const_C(2, 3, pbar_deep), mpf("4.5303e52")),
            (const_C(4, 3, pbar3000), mpf("1.0535e8")),
        ]
        ok = all(cc.upper <= cap and cc.tail_bound < mpf("1e-15") * cc.partial
                 for cc, cap in caps)
        # giant-threshold formula checks (the regime itself is out of desk reach)
        giant_ok = (m_c(6) >= m_c_prime(6)
                    and abs(sandwich_threshold(6).lower_coef - 1 / mpf(12)) < mpf(2) ** -150
                    and abs(sandwich_threshold(6).upper_coef - mpf("0.25")) < mpf(2) ** -150)
    gate(10, "series constants certified below the published caps",
         ok and giant_ok,
         "tails < 1e-15 relative; giant-threshold formulas checked")


def test_criterion_11_subadditivity_to_thresholds(table4, table5):
    # the exhaustive sweep reaches the sandwich thresholds 2089 / 272 / 449,
    # where the asymptotic sandwich windows take over
    tables = {3: rank_class_table(2 * 2089, 3), 4: table4, 5: table5}
    violations = 0
    pairs = 0
    worst = None
    for c, table in tables.items():
        n_hi = sandwich_threshold(c).n_min
        for a in range(c):
            cert = verify_subadditivity(table, a, 9, n_hi)
            violations += len(cert.violations)
            pairs += cert.pairs_checked
            worst = cert.min_margin if worst is None else min(worst, cert.min_margin)
    gate(11, "strict log-subadditivity on 9<=n1<=n2<=2089 / 272 / 449 for c = 3 / 4 / 5, all a",
         violations == 0 and worst > 1,
         f"{pairs} pairs, min margin ~{float(worst):.4f}")
