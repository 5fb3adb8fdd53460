"""Certified constants, envelopes, ratios, thresholds, and the aux self-test."""

from fractions import Fraction

import pytest
from mpmath import iv, mp, mpf
from oracles import (aux_grid_checks, const_C_per_term, envelopes_per_power,
                     raw_error_aggregate)

from overrank import (DEFAULT_PRECISION, a_asymptotic, aux_inequalities_selftest, bounds,
                      cbar2, cbar4, const_C, error_pieces, error_term_bound, m_c, m_c_prime,
                      main_term_bound, pbar_sandwich, r_ratio, sandwich_threshold,
                      strict_verdict)


def test_strict_verdict_policy():
    assert strict_verdict(1, 2) == "pass"
    assert strict_verdict(2, 1) == "fail"
    assert strict_verdict(1, 1 + 1e-14) == "inconclusive"
    assert strict_verdict(1 + 1e-14, 1) == "inconclusive"
    # negative mpfs keep their sign on the way to exact rationals
    assert strict_verdict(mpf(-2), mpf(-1)) == "pass"
    assert strict_verdict(mpf(1), mpf(-1)) == "fail"
    assert strict_verdict(mpf(-1), mpf("0.5")) == "pass"
    assert strict_verdict(mpf("-0.5"), mpf(-2)) == "fail"
    assert strict_verdict(r_ratio(3, 2089), 1 / mpf(3) - mpf("0.8")) == "fail"
    # a float side with no exact rational value is not finite: no verdict
    for x in (float("inf"), float("-inf"), float("nan")):
        assert strict_verdict(x, 1) == strict_verdict(1, x) == "inconclusive", x


@pytest.mark.parametrize("call, message", [
    (lambda: cbar2(2), "need c >= 3"),
    (lambda: cbar4(2), "need c >= 3"),
    (lambda: m_c_prime(5), "need c >= 6"),
    (lambda: pbar_sandwich(0), "need n >= 1"),
    (lambda: sandwich_threshold(2), "need c >= 3"),
], ids=["cbar2-c-two", "cbar4-c-two", "m-c-prime-c-five", "sandwich-n-zero",
        "threshold-c-two"])
def test_bounds_name_a_bad_argument(call, message):
    with pytest.raises(ValueError) as raised:
        call()
    assert str(raised.value) == message


def test_strict_verdict_independent_of_ambient_precision():
    # pairs a hair either side of the policy: converting or subtracting at
    # 53 bits would flip some of these verdicts
    with mp.workprec(200):
        pairs = [(mpf(1), 1 + mpf("1e-12") * (1 + k * mpf("1e-6"))) for k in range(-200, 200)]
    runs = []
    for ambient in (53, 200):
        with mp.workprec(ambient):
            runs.append([strict_verdict(lhs, rhs) for lhs, rhs in pairs])
    assert runs[0] == runs[1]
    assert set(runs[0]) == {"pass", "inconclusive"}
    assert strict_verdict(1, mpf("inf")) == strict_verdict(mpf("nan"), 1) == "inconclusive"


# ---------------------------------------------------------------------------
# Certified constants
# ---------------------------------------------------------------------------

def test_certified_constants_match_published_caps(pbar3000):
    caps = {1: "0.8066", 3: "0.5488", 5: "120.942"}
    for idx, cap in caps.items():
        cc = const_C(idx, None, pbar3000)
        assert cc.upper <= mpf(cap), (idx, cc.upper)
        assert cc.tail_bound < mpf("1e-15") * cc.partial
    c4 = const_C(4, 3, pbar3000)
    assert c4.upper <= mpf("1.0535e8")
    assert c4.tail_bound < mpf("1e-15") * c4.partial


def test_certified_constant_is_upper_value(pbar3000):
    # any longer exact partial sum stays below the reported certified value
    a = const_C(3, None, pbar3000, rel_tol=1e-15)
    with mp.workprec(240):
        longer = sum(pbar3000[r] * mp.exp(-mp.pi * r) for r in range(1, 2501))
        slack = a.partial * mpf(2) ** -170  # reporting runs at prec+20
        assert a.partial - slack <= longer <= a.upper


def test_const_c_requires_enough_exact_terms(pbar3000):
    # the slowest-decaying series outruns a depth-3000 table
    with pytest.raises(ValueError, match="longer pbar"):
        const_C(2, 3, pbar3000)


def test_const_c_index_validation(pbar3000):
    with pytest.raises(ValueError):
        const_C(6, None, pbar3000)
    with pytest.raises(ValueError):
        const_C(2, 2, pbar3000)


def test_cbar_closed_forms():
    with mp.workprec(240):
        expect4 = mp.exp(36 * (18 + mp.pi) / mp.pi ** 2)
    assert abs(cbar4(3) - expect4) / expect4 < mpf(2) ** -150
    for c in range(3, 12):
        # the squared (c^2 - 8) denominator wins: the C2 majorant decreases
        # over this window while the C4 majorant grows
        assert cbar2(c + 1) < cbar2(c)
        assert cbar4(c + 1) > cbar4(c)


def test_certified_below_closed_form_majorants(pbar3000, pbar_deep):
    for c in range(4, 11):
        assert const_C(2, c, pbar3000).upper <= cbar2(c)
    for c in range(4, 9):
        assert const_C(4, c, pbar_deep).upper <= cbar4(c)
    for c in (9, 10):
        # the series peak sits near c^4 and the e^{pi sqrt r} substitution is
        # lossy by ~8r there, so only a fat-tail certification fits inside a
        # depth-14000 table; it is still a valid upper value and the majorant
        # towers above it
        assert const_C(4, c, pbar_deep, rel_tol=1e9).upper <= cbar4(c)


# the analytic bench's eight constants on its pbar_series(2574) prefix
# (bench/workloads.py, `Analytic`), then every other call site in this suite
BENCH_PREFIX = 2574
CONST_CASES = (
    [(i, c, "bench", 1e-15) for i, c in ((1, None), (3, None), (5, None), (2, 4), (2, 5),
                                         (4, 3), (4, 4), (4, 5))]
    + [(i, None, "pbar3000", 1e-15) for i in (1, 3, 5)]
    + [(4, c, "pbar3000", 1e-15) for c in (3, 5)]
    + [(2, c, "pbar3000", 1e-15) for c in range(4, 11)]
    + [(2, 3, "pbar_deep", 1e-15)]
    + [(4, c, "pbar_deep", 1e-15) for c in range(4, 9)]
    + [(4, c, "pbar_deep", 1e9) for c in (9, 10)])


def _series_at(index, c, truncation, pbar, bits: int = 400):
    """scale * (sum_{r <= R} pbar(r) e^{-alpha r} + tail) at `bits`, by a power recurrence."""
    with mp.workprec(bits):
        q, scale = bounds._series_params(index, c)
        alpha = q.numerator * mp.pi / q.denominator
        x, power, total = mp.exp(-alpha), mpf(1), mpf(0)
        for r in range(1, truncation + 1):
            power *= x
            total += pbar[r] * power
        return scale * (total + bounds._tail_integral(truncation, alpha))


@pytest.mark.parametrize("index, c, series, rel_tol", CONST_CASES)
def test_const_c_matches_per_term_reference(request, pbar3000, index, c, series, rel_tol):
    pbar = pbar3000[:BENCH_PREFIX + 1] if series == "bench" else request.getfixturevalue(series)
    got = const_C(index, c, pbar, rel_tol=rel_tol)
    ref = const_C_per_term(index, c, pbar, rel_tol=rel_tol)
    assert got.truncation == ref.truncation
    with mp.workprec(400):
        for name in ("upper", "partial", "tail_bound"):
            value, expect = getattr(got, name), getattr(ref, name)
            assert mp.nstr(value, 20) == mp.nstr(expect, 20), name
            assert abs(value - expect) <= mpf(2) ** (2 - DEFAULT_PRECISION) * abs(expect), name
        assert got.upper >= _series_at(index, c, got.truncation, pbar)


def test_const_c_bits_independent_of_ambient_state_and_prefix(pbar3000):
    def bits(const):
        return (const.upper._mpf_, const.partial._mpf_, const.tail_bound._mpf_,
                const.truncation)

    cases = ((1, None), (4, 3), (2, 5))
    runs = []
    old = mp.prec, iv.prec
    try:
        for ambient in (53, 300):
            mp.prec = iv.prec = ambient
            runs.append([bits(const_C(i, c, pbar3000)) for i, c in cases])
            assert (mp.prec, iv.prec) == (ambient, ambient)
    finally:
        mp.prec, iv.prec = old
    assert runs[0] == runs[1]
    # a prefix one count past the chunk where the series stops gives the same bits
    for (i, c), expect in zip(cases, runs[0]):
        assert bits(const_C(i, c, pbar3000[:expect[3] + 2])) == expect


def test_const_c_evaluates_few_tail_integrals(monkeypatch, pbar3000, pbar_deep):
    # the float screen leaves the closed-form tail to the chunks that can stop the series
    calls = []
    tail_integral = bounds._tail_integral

    def counted(R, alpha):
        calls.append(R)
        return tail_integral(R, alpha)

    monkeypatch.setattr(bounds, "_tail_integral", counted)
    cases = [(i, c, pbar3000[:BENCH_PREFIX + 1]) for i, c, series, _ in CONST_CASES
             if series == "bench"] + [(4, 8, pbar_deep)]
    for i, c, pbar in cases:
        calls.clear()
        const = const_C(i, c, pbar)
        assert 1 <= len(calls) <= 2 and calls[-1] == const.truncation, (i, c, calls)


def test_const_c_failures_keep_their_message(pbar3000):
    def message(index, pbar):
        return (f"series for C{index} needs exact counts beyond r={len(pbar) - 1}; "
                "supply a longer pbar sequence")

    # no tolerance is ever met: the closed form still runs at the last count
    for rel_tol in (0, -1.0):
        with pytest.raises(ValueError) as err:
            const_C(1, None, pbar3000, rel_tol=rel_tol)
        assert str(err.value) == message(1, pbar3000)
    # C4(3) sums in chunks of 64: a prefix one chunk short of its truncation
    # ends where the stop test failed
    short = pbar3000[:const_C(4, 3, pbar3000).truncation - 64 + 1]
    with pytest.raises(ValueError):
        const_C_per_term(4, 3, short)
    with pytest.raises(ValueError) as err:
        const_C(4, 3, short)
    assert str(err.value) == message(4, short)


# ---------------------------------------------------------------------------
# Error pieces and aggregation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("prec", (64, 160, 300))
def test_envelopes_bits_equal_one_power_per_term(prec):
    for c in (3, 4, 5, 7, 9):
        for n in (2, 50, 2089, 20091, 80137, 10 ** 6):
            pieces, total, error_term, main_term, ratio = envelopes_per_power(c, n, prec)
            bb = error_pieces(c, n, prec)
            assert {k: v._mpf_ for k, v in bb.pieces.items()} == {
                k: v._mpf_ for k, v in pieces.items()}, (c, n)
            assert bb.total._mpf_ == total._mpf_, (c, n)
            assert error_term_bound(c, n, prec)._mpf_ == error_term._mpf_, (c, n)
            assert main_term_bound(c, n, prec)._mpf_ == main_term._mpf_, (c, n)
            assert r_ratio(c, n, prec)._mpf_ == ratio._mpf_, (c, n)


def test_error_pieces_s7_example():
    with mp.workprec(240):
        bb = error_pieces(3, 256)
        expect = mpf("0.9093") * mpf(256) ** mpf("0.875") * 3
        assert abs(bb.pieces["S7"] - expect) / expect < mpf(2) ** -140
        assert len(bb.pieces) == 14


def test_error_pieces_total_structure():
    with mp.workprec(240):
        bb = error_pieces(4, 1000)
        assert all(v > 0 for v in bb.pieces.values())
        assert abs(bb.total - sum(bb.pieces.values())) / bb.total < mpf(2) ** -140
        assert all(bb.total >= v for v in bb.pieces.values())


def test_s7_piece_dominates_raw_form():
    # 0.9093 n^{7/8} c >= n^{3/4} log(n/4) / (2 pi (1 - pi^2/24) sin(pi/c))
    for c in range(3, 9):
        for n in (16, 64, 256, 1024, 4096, 10000):
            lemma = mpf("0.9093") * mpf(n) ** mpf("0.875") * c
            raw = (mpf(n) ** mpf("0.75") * mp.log(mpf(n) / 4)
                   / (2 * mp.pi * (1 - mp.pi ** 2 / 24) * mp.sinpi(mpf(1) / c)))
            assert lemma >= raw, (c, n)


def test_pieces_dominate_raw_aggregate(pbar3000, pbar_deep):
    for c in (4, 5, 6, 8):
        certified = {i: const_C(i, None, pbar3000).upper for i in (1, 3, 5)}
        certified[2] = const_C(2, c, pbar3000).upper
        certified[4] = const_C(4, c, pbar_deep).upper
        for n in (16, 256, 4096):
            assert error_pieces(c, n).total >= raw_error_aggregate(c, n, certified)


def test_error_term_bound_aggregates_pieces():
    for c, n in ((3, 2089), (5, 500)):
        total = error_pieces(c, n).total
        agg = error_term_bound(c, n)
        assert agg >= total  # aggregation rounds coefficients upward
        assert (agg - total) / total < mpf("1e-6")
    assert error_term_bound(3, 2089) > 0


@pytest.mark.parametrize("envelope", (error_pieces, main_term_bound, error_term_bound, r_ratio))
def test_envelopes_share_one_domain(envelope):
    # outside c >= 3, n >= 2 each envelope raises; unchecked, main_term_bound
    # gives a complex value at n = -4, a value for c = 2 and a
    # ZeroDivisionError at c = 0, and error_term_bound +inf at n = 0
    for c, n, message in ((3, -4, "need n >= 2"), (2, 5, "need c >= 3"),
                          (0, 5, "need c >= 3"), (3, 0, "need n >= 2"),
                          (3, 1, "need n >= 2")):
        with pytest.raises(ValueError, match=message):
            envelope(c, n)


def test_error_term_bound_coefficients_cover_their_pieces(monkeypatch):
    # error_term_bound is coef * n^e * c^p * majorant summed over the groups of
    # _PIECE_COEFS rows that share (e, p, majorant).  With the majorants set to
    # free values, six evaluations fix its six hand-written coefficients; each
    # must cover its group's sum, which it rounds up in its last written digit.
    groups = {}
    for coef, expo, cpow, majorant in bounds._PIECE_COEFS.values():
        key = (expo, cpow, majorant)
        groups[key] = groups.get(key, 0) + Fraction(coef)
    assert len(groups) == 6
    majorants = {}
    monkeypatch.setattr(bounds, "cbar4", lambda c, prec: majorants[cbar4])
    monkeypatch.setattr(bounds, "cbar2", lambda c, prec: majorants[cbar2])
    rows, values = [], []
    with mp.workprec(300):
        for c, n, m4, m2 in ((3, 16, 0, 0), (4, 16, 0, 0), (3, 256, 0, 0), (4, 256, 0, 0),
                             (3, 16, 1, 0), (3, 16, 0, 1)):
            majorants.update({None: 1, cbar4: mpf(m4), cbar2: mpf(m2)})
            rows.append([mpf(n) ** mpf(e) * c ** p * majorants[m] for e, p, m in groups])
            values.append(error_term_bound(c, n, prec=300))
        coefs = mp.lu_solve(mp.matrix(rows), mp.matrix(values))
        for coef, (key, total) in zip(coefs, groups.items()):
            slack = coef - mpf(total.numerator) / total.denominator
            assert -mpf(10) ** -60 < slack < mpf("0.05"), (key, coef, total)


def test_main_term_bound_values():
    # frozen plug-in at (3, 2089)
    v = main_term_bound(3, 2089)
    with mp.workprec(240):
        s = mp.sqrt(mpf(2089))
        expect = (mpf("0.1624") * mp.exp(mp.pi * s / 3) * mpf(2089) ** mpf("0.25") * 3
                  + (mpf("0.0266") * 3 + mpf("0.2123"))
                  * mp.exp(mp.pi * s * (1 - mpf(4) / 3)) * mpf(2089) ** mpf("0.25") * 3)
    assert abs(v - expect) / expect < mpf(2) ** -140
    prev = None
    for n in range(100, 10001, 300):
        cur = main_term_bound(3, n)
        if prev is not None:
            assert cur > prev
        prev = cur


def test_main_term_envelope_bounds_the_estimate():
    # the largest ratio on this grid is about 0.126, at (a, c, n) = (1, 3, 50)
    for c in (3, 5, 7, 9, 11):
        for n in (50, 200, 1000, 5000, 20000):
            assert abs(a_asymptotic(1, c, n).value) <= main_term_bound(c, n), (c, n)


def test_main_term_second_exponential_rate():
    # at c = 5 the second exponential runs at pi sqrt(n)/5
    with mp.workprec(240):
        n = 4000
        first = (mpf("0.1624") * mp.exp(mp.pi * mp.sqrt(mpf(n)) / 5)
                 * mpf(n) ** mpf("0.25") * 5)
        second = main_term_bound(5, n) - first
        rate = mp.log(second / ((mpf("0.0266") * 5 + mpf("0.2123")) * mpf(n) ** mpf("0.25") * 5))
        assert abs(rate - mp.pi * mp.sqrt(mpf(n)) / 5) < mpf("1e-20")


# ---------------------------------------------------------------------------
# Deviation ratio and thresholds
# ---------------------------------------------------------------------------

def test_r_ratio_published_thresholds():
    assert strict_verdict(r_ratio(3, 2089), mpf("0.33142")) == "pass"
    assert strict_verdict(r_ratio(4, 272), mpf("0.24084")) == "pass"
    assert strict_verdict(r_ratio(5, 449), mpf("0.1897")) == "pass"


def test_tabulated_values_pinned():
    # 160-bit digits of R_c at each tabulated n_min and at n = 20, where every
    # term of R_c shows, and of two error totals: a digit drifting anywhere in
    # TABULATED or _PIECE_COEFS moves one of them
    assert [r_ratio(c, n)._mpf_ for c, n in ((3, 2089), (4, 272), (5, 449))] == [
        (0, 968731994063010156513076492279009866149777261353, -161, 160),
        (0, 175991344195759842820671782010052567485029241137, -159, 157),
        (0, 554482349876076336431079984851391314708984084091, -161, 159)]
    assert [r_ratio(c, 20)._mpf_ for c in (3, 4, 5)] == [
        (0, 685700178746273495042559802685685648882979016619, 18, 159),
        (0, 300810240687894153589157053030585335125851445703, -110, 158),
        (0, 77378031125476542944904254971817214836310185313, -88, 156)]
    assert error_pieces(3, 2089).total._mpf_ == (
        0, 893591742086230100594323994383702875929881445679, 6051, 160)
    assert error_pieces(7, 20050).total._mpf_ == (
        0, 531925483515256701518444790385966066939894223583, 2756, 159)


def test_r_ratio_strictly_decreasing():
    for c in (3, 4, 5):
        prev = None
        for n in list(range(2, 400)) + list(range(400, 10001, 37)):
            cur = r_ratio(c, n)
            if prev is not None:
                assert cur < prev, (c, n)
            prev = cur


def test_r_ratio_generic_row():
    # c >= 6: 37259 c cbar4(c) e^{-4 pi sqrt(n)/c} n^{5/4} + 49.69 c e^{-pi sqrt n} n^{15/8}
    c, n = 6, 10 ** 6
    with mp.workprec(240):
        s = mp.sqrt(mpf(n))
        expect = (37259 * c * cbar4(c, 240) * mp.exp(-4 * mp.pi * s / c) * mpf(n) ** mpf("1.25")
                  + mpf("49.69") * c * mp.exp(-mp.pi * s) * mpf(n) ** mpf("1.875"))
        assert abs(r_ratio(c, n) - expect) / expect < mpf(2) ** -140
    with pytest.raises(ValueError):
        r_ratio(2, 100)
    with pytest.raises(ValueError):
        r_ratio(3, 1)


def test_m_c_values():
    with mp.workprec(240):
        expect = (mpf("1.691e13") * mpf(6) ** 20
                  * mp.exp(576 * (72 + mp.pi) / mp.pi ** 2))
    v = m_c(6)
    assert abs(v - expect) / expect < mpf(2) ** -140
    for c in range(6, 13):
        assert m_c(c) >= m_c_prime(c)
        assert m_c(c + 1) > m_c(c)
    with pytest.raises(ValueError):
        m_c(5)


def test_pbar_sandwich_values_and_containment(pbar3000):
    lo, hi = pbar_sandwich(1)
    assert lo == 0 and hi >= 2
    for n in (100, 500, 2500):
        lo, hi = pbar_sandwich(n)
        assert lo <= pbar3000[n] <= hi


def test_sandwich_threshold_rows():
    th = sandwich_threshold(3)
    assert (float(th.lower_coef), float(th.upper_coef), th.n_min) == (0.0019, 0.6648, 2089)
    th = sandwich_threshold(4)
    assert (float(th.lower_coef), float(th.upper_coef), th.n_min) == (0.0091, 0.4909, 272)
    th = sandwich_threshold(5)
    assert (float(th.lower_coef), float(th.upper_coef), th.n_min) == (0.0103, 0.3897, 449)
    th = sandwich_threshold(6)
    with mp.workprec(240):
        assert abs(th.lower_coef - 1 / mpf(12)) < mpf(2) ** -155
        assert abs(th.upper_coef - mpf("0.25")) < mpf(2) ** -155
    # the giant threshold is a ~1900-digit integer determined by the working
    # precision; match the ceil inside the same context
    with mp.workprec(160):
        expected = int(mp.ceil(m_c(6, prec=160)))
    assert th.n_min == expected
    assert 0 < th.lower_coef < th.upper_coef


def test_threshold_coefficients_absorb_ratio():
    # how the explicit rows arise: 1/c -+ R_c(n_min) stays inside the row
    for c in (3, 4, 5):
        th = sandwich_threshold(c)
        r = r_ratio(c, th.n_min)
        assert 1 / mpf(c) - r >= th.lower_coef
        assert 1 / mpf(c) + r <= th.upper_coef


def test_empirical_sandwich_at_window_start(table4):
    th = sandwich_threshold(4)
    lo = Fraction(91, 10000)
    hi = Fraction(4909, 10000)
    for n in range(th.n_min, th.n_min + 20):
        pb = table4.row_sum(n)
        for a in range(4):
            v = table4.counts[n][a]
            assert v * lo.denominator > lo.numerator * pb
            assert v * hi.denominator < hi.numerator * pb


def test_normalized_error_dominates_observed_deviation(table3, table5):
    # envelope * 27.32 n e^{-pi sqrt n} bounds |N - pbar/c| / pbar throughout
    for table in (table3, table5):
        c = table.c
        for n in (64, 256, 1024, 2048):
            pb = table.row_sum(n)
            envelope = (error_term_bound(c, n) * mpf("27.32") * n
                        * mp.exp(-mp.pi * mp.sqrt(mpf(n))))
            for a in range(c):
                dev = abs(mpf(table.counts[n][a]) - mpf(pb) / c) / pb
                assert dev < envelope, (c, n, a)


# ---------------------------------------------------------------------------
# Auxiliary inequalities
# ---------------------------------------------------------------------------

def test_aux_selftest_all_pass():
    report = aux_inequalities_selftest()
    assert list(report) == ["log_power_bound", "cot_linear_bound", "log_factor_linear",
                            "exp_square_ratio", "exp_vs_power", "sqrt_partial_sum",
                            "sin_lower_bound"]
    for name, entry in report.items():
        assert entry["passed"], (name, entry)
        assert entry["worst_margin"] >= 0


def test_aux_selftest_without_series():
    report = aux_inequalities_selftest()
    assert "series_closed_form" not in report
    assert all(entry["passed"] for entry in report.values())


@pytest.mark.parametrize("prec", (64, 97, 160, 240, 300))
def test_aux_selftest_grids_match_margin_lists(prec):
    # each check is evaluated only where its proof puts the minimum; the full
    # grids must give every record the same bits
    assert bounds._grid_checks(prec) == aux_grid_checks(prec), prec


def test_aux_selftest_rejects_precision_below_64_bits():
    # RunConfig's floor; below it the verdicts are rounding noise
    with pytest.raises(ValueError, match="prec >= 64"):
        aux_inequalities_selftest(63)
    assert aux_inequalities_selftest(64)["sqrt_partial_sum"]["passed"]


@pytest.mark.parametrize("prec", (64, 160, 240))
def test_aux_selftest_cache_matches_fresh_evaluation(prec):
    # the grids are cached by precision alone; the ambient mp.prec at the
    # call that filled the cache must not show in a later call's result
    for ambient_fill, ambient_read in ((53, 1000), (1000, 53)):
        bounds._grid_checks.cache_clear()
        with mp.workprec(ambient_fill):
            aux_inequalities_selftest(prec)
        assert bounds._grid_checks.cache_info().currsize == 1
        with mp.workprec(ambient_read):
            cached = aux_inequalities_selftest(prec)
            bounds._grid_checks.cache_clear()
            fresh = aux_inequalities_selftest(prec)
        assert list(cached.items()) == list(fresh.items()), (prec, ambient_fill)


def test_aux_selftest_returns_a_fresh_report():
    report = aux_inequalities_selftest()
    report["log_power_bound"]["passed"] = False
    report["log_power_bound"]["worst_margin"] = -1.0
    del report["sin_lower_bound"]
    again = aux_inequalities_selftest()
    assert again["log_power_bound"]["passed"]
    assert again["log_power_bound"]["worst_margin"] >= 0
    assert "sin_lower_bound" in again


# y of both substitution families behind the series constants, c = 3..8
SERIES_YS = ([Fraction(c * c - 8, 32 * c * c) for c in range(3, 9)]
             + [Fraction(1, 4 * c * c) for c in range(3, 9)])


def series_closed_form_margin(pbar):
    """min over SERIES_YS of exp(2q/(1-q)^2) - sum_{n<=200} pbar(n) e^{-2 pi n y},
    q = e^{-2 pi y}."""
    with mp.workprec(160):
        margins = []
        for y in SERIES_YS:
            yv = mpf(y.numerator) / y.denominator
            partial = sum(pbar[n] * mp.exp(-2 * mp.pi * n * yv) for n in range(201))
            q = mp.exp(-2 * mp.pi * yv)
            margins.append(mp.exp(2 * q / (1 - q) ** 2) - partial)
        return min(margins)


def test_series_below_closed_form(pbar3000):
    assert series_closed_form_margin(pbar3000) >= 0
    inflated = list(pbar3000)
    inflated[100] *= 10 ** 60
    assert series_closed_form_margin(inflated) < 0
