"""Subadditivity certificates and the analytic crossing machinery."""

import functools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf
from oracles import sweep_oracle

from overrank import (monotonicity_probe, r_ratio, rank_class_table,
                      t_generic_chain, t_inequality, threshold_scan,
                      verify_subadditivity)
from overrank.counts import RankClassTable
from overrank.verify import _log2_int, _row_bounds, parse_certificate


@pytest.fixture(scope="module")
def table3_small():
    return rank_class_table(260, 3)


def test_single_pair(table3_small):
    cert = verify_subadditivity(table3_small, 0, 9, 9)
    assert cert.pairs_checked == 1
    assert cert.violations == []
    lhs = table3_small.counts[18][0]
    rhs = table3_small.counts[9][0] ** 2
    assert lhs < rhs
    assert cert.min_margin == Fraction(rhs, lhs)


def test_clean_range(table3_small):
    cert = verify_subadditivity(table3_small, 0, 9, 60)
    assert cert.pairs_checked == 52 * 53 // 2
    assert cert.violations == []
    assert cert.min_margin > 1


def test_below_certified_range_is_descriptive(table3_small):
    # outcomes below the certified range are recorded, never asserted; residue 1
    # has genuine failures there (for instance n1 = n2 = 1)
    cert = verify_subadditivity(table3_small, 1, 1, 8)
    assert len(cert.violations) > 0
    assert (1, 1, table3_small.counts[2][1],
            table3_small.counts[1][1] ** 2) in cert.violations


def test_nontrivial_min_margin_matches_exact_rescan(table3_small):
    cert = verify_subadditivity(table3_small, 2, 9, 40)
    best = None
    for n1 in range(9, 41):
        for n2 in range(n1, 41):
            m = Fraction(table3_small.counts[n1][2] * table3_small.counts[n2][2],
                         table3_small.counts[n1 + n2][2])
            best = m if best is None else min(best, m)
    assert cert.min_margin == best


def test_table_depth_guard(table3_small):
    with pytest.raises(ValueError):
        verify_subadditivity(table3_small, 0, 9, 200)


def test_certificate_round_trip(table3_small):
    cert = verify_subadditivity(table3_small, 1, 1, 12)
    text = cert.serialize()
    back = parse_certificate(text)
    assert back == cert
    assert back.serialize() == text


# ---------------------------------------------------------------------------
# Row pruning: the sweep against the every-pair oracle
# ---------------------------------------------------------------------------

def column_table(vals: list[int]) -> RankClassTable:
    """One-column table (c = 1, a = 0) holding `vals` as its counts."""
    return RankClassTable(c=1, n_max=len(vals) - 1, counts=[[v] for v in vals])


def row_bounds(vals, n_lo, n_hi):
    logs = [(_log2_int(v) if v else -math.inf) for v in vals]
    return _row_bounds(vals, logs, n_lo, n_hi)


def assert_bounds_sound(vals, n_lo, n_hi):
    """Every row bound is at most the exact log2 margin of each pair in the row."""
    bounds = row_bounds(vals, n_lo, n_hi)
    for n1 in range(n_lo, n_hi + 1):
        margins = [Fraction(vals[n1] * vals[n2], vals[n1 + n2])
                   for n2 in range(n1, n_hi + 1) if vals[n1 + n2]]
        if any(not vals[n1 + n2] and not vals[n1] * vals[n2]
               for n2 in range(n1, n_hi + 1)):
            assert bounds[n1] <= 0, n1  # a 0 >= 0 violation
        if not margins:
            continue
        low = min(margins)
        if low == 0:
            assert bounds[n1] == -math.inf, n1
        else:
            assert bounds[n1] <= mp.log(low.numerator, 2) - mp.log(low.denominator, 2), n1


def assert_matches_oracle(vals, n_lo, n_hi):
    cert = verify_subadditivity(column_table(vals), 0, n_lo, n_hi)
    violations, min_margin = sweep_oracle(vals, n_lo, n_hi)
    assert cert.violations == violations
    assert cert.min_margin == min_margin
    return cert


@pytest.mark.parametrize("c", range(2, 12))
def test_sweep_matches_oracle_every_residue(c):
    # n_lo = 1 takes in zero counts and genuine violations
    table = rank_class_table(200, c)
    for a in range(c):
        vals = [table.counts[n][a] for n in range(201)]
        for n_lo in (1, 9):
            cert = verify_subadditivity(table, a, n_lo, 100)
            assert (cert.violations, cert.min_margin) == sweep_oracle(vals, n_lo, 100)
        assert_bounds_sound(vals, 1, 100)  # the row bounds do not depend on n_lo


@functools.cache
def small_table(c: int) -> RankClassTable:
    return rank_class_table(120, c)


PERTURBATION = st.tuples(
    st.integers(0, 120),
    st.sampled_from(["scale", "zero", "spike"]),
    st.integers(1, 64),
    st.integers(1, 64),
)


@settings(max_examples=150, deadline=None, database=None)
@given(c=st.integers(2, 7), a=st.integers(0, 6), n_lo=st.integers(1, 20),
       width=st.integers(0, 40), perturbations=st.lists(PERTURBATION, max_size=4))
def test_sweep_matches_oracle_on_perturbed_columns(c, a, n_lo, width, perturbations):
    n_hi = n_lo + width
    table = small_table(c)
    vals = [table.counts[n][a % c] for n in range(2 * n_hi + 1)]
    for n, kind, num, den in perturbations:
        n %= len(vals)
        if kind == "scale":  # up or down by num/den
            vals[n] = vals[n] * num // den
        elif kind == "zero":
            vals[n] = 0
        else:  # a spike of num bits
            vals[n] = (vals[n] or 1) << num
    assert_matches_oracle(vals, n_lo, n_hi)
    assert_bounds_sound(vals, n_lo, n_hi)


def smooth_vals(top: int) -> list[int]:
    """floor(2^(20 sqrt n)): 200-bit counts at n = 100, log-concave, and every
    pair n1, n2 >= 9 clears by more than 30 bits."""
    with mp.workprec(320):
        return [int(mp.floor(mp.power(2, 20 * mp.sqrt(n)))) for n in range(top + 1)]


N_LO, N_HI = 9, 50


def test_smooth_column_prunes_and_passes():
    vals = smooth_vals(2 * N_HI)
    cert = assert_matches_oracle(vals, N_LO, N_HI)
    assert cert.violations == [] and cert.min_margin > 2 ** 30
    bounds = row_bounds(vals, N_LO, N_HI)
    assert sum(1 for n1 in range(N_LO, N_HI + 1) if bounds[n1] > 0) > N_HI - N_LO - 5
    assert_bounds_sound(vals, N_LO, N_HI)


def test_planted_equality_is_a_violation():
    # with n2 <= 50, 90 = 40 + 50 is the most lopsided split of 90, hence the
    # one with the smallest product: the other splits of 90 still pass
    vals = smooth_vals(2 * N_HI)
    rhs = vals[40] * vals[50]
    vals[90] = rhs
    cert = assert_matches_oracle(vals, N_LO, N_HI)
    assert cert.violations == [(40, 50, rhs, rhs)]
    assert cert.min_margin == 1


def test_planted_near_equalities_settle_exactly():
    # two margins within 2^-250 of 1, equal as float logs; the exact
    # minimum is the one with the larger product
    vals = smooth_vals(2 * N_HI)
    rhs_a = vals[35] * vals[50]
    rhs_b = vals[40] * vals[50]
    vals[85] = rhs_a - 1
    vals[90] = rhs_b - 1
    assert math.log2(rhs_b) - math.log2(rhs_b - 1) == 0.0
    cert = assert_matches_oracle(vals, N_LO, N_HI)
    assert cert.violations == []
    assert cert.min_margin == Fraction(rhs_b, rhs_b - 1)
    assert cert.min_margin < Fraction(rhs_a, rhs_a - 1)


def test_spike_in_last_row_is_not_skipped():
    vals = smooth_vals(2 * N_HI)
    assert row_bounds(vals, N_LO, N_HI)[N_HI] > 0  # cleared without the spike
    vals[2 * N_HI] = vals[N_HI] ** 2 + 5
    assert row_bounds(vals, N_LO, N_HI)[N_HI] <= 0
    cert = assert_matches_oracle(vals, N_LO, N_HI)
    assert cert.violations == [(N_HI, N_HI, vals[2 * N_HI], vals[N_HI] ** 2)]


def test_zero_count_mid_range():
    vals = smooth_vals(2 * N_HI)
    vals[30] = 0
    cert = assert_matches_oracle(vals, N_LO, N_HI)
    # every pair with 30 as a part has rhs = 0 <= lhs
    assert {(n1, n2) for n1, n2, _, _ in cert.violations} == (
        {(n1, 30) for n1 in range(N_LO, 31)} | {(30, n2) for n2 in range(30, N_HI + 1)})
    assert cert.min_margin == 0
    bounds = row_bounds(vals, N_LO, N_HI)
    assert all(bounds[n1] == -math.inf for n1 in range(N_LO, 31))
    assert_bounds_sound(vals, N_LO, N_HI)


def test_bound_clears_nearly_every_row_of_the_paper_range(table3, table4, table5):
    # the point of the pruning: a handful of the 792 rows reach the exact loop
    for table in (table3, table4, table5):
        for a in range(table.c):
            vals = [table.counts[n][a] for n in range(1601)]
            cert = verify_subadditivity(table, a, 9, 800)
            floor = math.log2(cert.min_margin) + 1e-9
            bounds = row_bounds(vals, 9, 800)
            assert sum(1 for n1 in range(9, 801) if bounds[n1] <= floor) <= 8


# ---------------------------------------------------------------------------
# Crossing inequalities
# ---------------------------------------------------------------------------

def test_t_inequality_boundary_cases():
    assert t_inequality(109, 3).holds
    assert not t_inequality(108, 3).holds
    assert not t_inequality(10, 3).holds
    assert t_inequality(109, 3).margin > 0


def test_t_inequality_single_crossing():
    for c, crossing in {3: 109, 4: 70, 5: 65}.items():
        transitions = []
        prev = None
        for n1 in list(range(2, 400)) + list(range(400, 10001, 111)) + [10000]:
            holds = t_inequality(n1, c).holds
            if prev is not None and holds != prev:
                transitions.append(n1)
            prev = holds
        assert transitions == [crossing], c


def test_t_generic_threshold():
    c = 6
    n1 = (840 * c) ** 2
    assert t_inequality(n1, c).holds
    chain = t_generic_chain(n1, c)
    assert chain["relaxation_valid"]
    assert chain["beyond_threshold"]
    assert chain["lhs_exceeds_2log"]
    assert chain["two_log_covers"]
    below = t_generic_chain(100, c)
    assert below["relaxation_valid"]
    assert not below["beyond_threshold"]


def test_t_inequality_validation():
    with pytest.raises(ValueError):
        t_inequality(100, 2)
    with pytest.raises(ValueError):
        t_inequality(1, 3)


def test_monotonicity_probe():
    rep_t = monotonicity_probe(3, "T_in_C")
    assert rep_t["monotone"] and rep_t["v_capped"] and rep_t["w_capped"]
    rep_s = monotonicity_probe(3, "S_in_C")
    assert rep_s["monotone"]
    # W(1) = 24 c n1, half of the cap
    c, n1 = 5, 100
    assert 48 * c * 1 * n1 / 2 == 24 * c * n1
    # V takes the sandwich row of its own modulus, not the c = 3 row
    for c, upper, lower in ((3, "0.6648", "0.0019"), (4, "0.4909", "0.0091"),
                            (5, "0.3897", "0.0103")):
        for which in ("T_in_C", "S_in_C"):
            rep = monotonicity_probe(c, which)
            assert rep["monotone"] and rep["v_capped"] and rep["w_capped"], (c, which)
            assert rep["samples"] == 99
            assert abs(rep["v_coef"] / (8 * mpf(upper) / mpf(lower) ** 2) - 1) < mpf(2) ** -150
    # the generic row (1/2c, 3/2c) of c >= 6 gives V its 48c coefficient
    assert abs(monotonicity_probe(7, "T_in_C")["v_coef"] - 48 * 7) < mpf(2) ** -140
    with pytest.raises(ValueError):
        monotonicity_probe(3, "V_in_C")


def test_threshold_scan_reproduces_published_starts():
    # the scan lands exactly on the published window starts: one step earlier
    # the ratio is still above the target
    for c, target, start in ((3, "0.33142", 2089), (4, "0.24084", 272),
                             (5, "0.1897", 449)):
        got = threshold_scan(c, mpf(target))
        assert got == start
        assert r_ratio(c, got) < mpf(target)
        assert r_ratio(c, got - 1) >= mpf(target)


def test_threshold_scan_unreachable():
    with pytest.raises(ValueError):
        threshold_scan(3, mpf("1e-300"), n_cap=10 ** 5)
