"""Main-term asymptotics against the exact tables, and the two-arc estimate."""

import random
from fractions import Fraction
from math import ceil, gcd, isqrt, log, pi, sqrt

import pytest
from mpmath import mp, mpf

from oracles import (a_asymptotic_per_residue, kloosterman_B_direct, kloosterman_D_direct,
                     multiplier_classes, nbar_asymptotic_per_residue, units)
from overrank import (a_asymptotic, a_exact, asymptotic, aux_inequalities_selftest, bounds,
                      cbar2, cbar4, const_C, engel_pbar, error_pieces, error_term_bound,
                      kloosterman_B, kloosterman_D, m_c, m_c_prime, main_term_bound, modsums,
                      nbar_asymptotic, pbar_sandwich, pbar_series, r_ratio, rank_class_table,
                      rank_row, sandwich_threshold, t_inequality)
from overrank.modsums import KernelTables


def test_first_sum_empty_below_c_squared():
    # no k <= sqrt(n) is a multiple of c while sqrt(n) < c
    est = a_asymptotic(1, 5, 24)
    assert all(k % 5 != 0 for k, _ in est.k_terms)
    est = a_asymptotic(1, 7, 48)
    assert all(k % 7 != 0 for k, _ in est.k_terms)


def test_argument_validation():
    with pytest.raises(ValueError):
        a_asymptotic(2, 4, 100)  # gcd != 1
    with pytest.raises(ValueError):
        a_asymptotic(0, 3, 100)
    with pytest.raises(ValueError):
        a_asymptotic(1, 3, 0)


def test_deviation_at_1600(table3):
    # unevaluated remainder is O(1)-small here; envelope check plus a frozen
    # empirical ceiling several orders above observed (~1e-17)
    est = a_asymptotic(1, 3, 1600)
    exact = a_exact(1, table3.row(1600), prec=300)
    dev = abs(est.value - exact.real) / abs(exact.real)
    assert dev < mpf("1e-12")
    envelope = error_term_bound(3, 1600)
    assert abs(est.value - exact.real) < envelope


@pytest.mark.parametrize("prec, bound", [(30, mpf("1e-8")), (800, mpf("1e-16"))],
                         ids=["no-table", "past-the-cutoff"])
def test_deviation_at_1600_with_roots_from_mpmath(table3, prec, bound):
    # the roots an arc's table does not give: at prec 30 (working precision
    # 60) no table is built, and at prec 800 arguments past mpmath's
    # EXP_SERIES_U_CUTOFF take mpmath's value; deviations read 7.5e-10, the
    # 30-bit rounding, and 7.6e-18, the 160-bit test's
    est = a_asymptotic(1, 3, 1600, prec=prec)
    exact = a_exact(1, table3.row(1600), prec=prec + 100)
    assert abs(est.value - exact.real) / abs(exact.real) < bound


def test_c3_main_terms_round_to_the_exact_counts_through_16000():
    # N(a, 3, n) = (pbar(n) + Re sum_{j=1,2} e(-aj/3) A(j/3; n)) / 3 exactly;
    # with A from the main terms the residual reads 0.050, 0.019, 0.039 and
    # 0.136 at these n, and 0.287 at n = 20000, so the range stops at 16000;
    # pbar(n) comes from its own series, so the row's total is checked too
    pbar = pbar_series(16000)
    for n in (4000, 8000, 12000, 16000):
        prec = ceil(pi * sqrt(n) / (3 * log(2))) + 60
        row = rank_row(n, 3)
        values = [a_asymptotic(j, 3, n, prec).value for j in (1, 2)]
        with mp.workprec(prec):
            for a in range(3):
                main = sum(mp.cospi(mpf(2 * a * j) / 3) * v for j, v in zip((1, 2), values))
                assert abs(main - (3 * row[a] - pbar[n])) < mpf(3) / 4, (a, n)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 15: the secondary sum D takes a "
                   "wrong coefficient of h' in its phase, so every modulus with D arcs misses")
def test_estimates_meet_exact_coefficients():
    # c = 3 has no D arcs and meets its exact coefficients; with D's phase
    # mended the largest miss here is 9.7, and today it is 4.5 / 67.5 / 4.3e3 /
    # 5.1e4 / 6.2e3 / 7.0e5 / 1.7e6 for these moduli in order
    misses = {}
    for c in (5, 7, 9, 11, 12, 13, 24):
        table = rank_class_table(1201, c)
        for n in (1200, 1201):
            for a in range(1, c // 2 + 1):
                if gcd(a, c) == 1:
                    est = a_asymptotic(a, c, n, prec=64)
                    exact = a_exact(a, table.row(n), prec=64).real
                    misses[a, c, n] = abs(est.value - exact)
    # a deep point from the lone row: A(2/5; 40120) = 1,779,916.419..., which
    # today's estimate misses by 1.8e6 and the mended phase by 0.31
    exact = a_exact(2, rank_row(40120, 5), prec=160).real
    misses[2, 5, 40120] = abs(a_asymptotic(2, 5, 40120, prec=160).value - exact)
    assert max(misses.values()) < 20, max(misses.items(), key=lambda item: item[1])


def test_imag_residual_tiny(table3):
    for n in (500, 1200, 2500):
        est = a_asymptotic(1, 3, n)
        assert est.imag_residual < mpf(10) ** -20 * max(abs(t) for _, t in est.k_terms), n


def test_single_arc_dominates():
    # the terms with k <= 3, the first admissible denominator, keep the sign
    # and magnitude of the full sum
    for n in (400, 900, 1600):
        full = a_asymptotic(1, 3, n)
        capped = sum(t for k, t in full.k_terms if k <= 3).real
        assert (full.value > 0) == (capped > 0)
        assert mpf("0.5") < abs(capped / full.value) < mpf(2)


def test_precision_doubling_stability():
    lo = a_asymptotic(1, 3, 600, prec=160)
    hi = a_asymptotic(1, 3, 600, prec=320)
    assert abs(lo.value - hi.value) / abs(hi.value) < mpf(2) ** -120


def estimate_bits(est):
    return (est.value._mpf_, est.imag_residual._mpf_,
            [(k, t._mpc_) for k, t in est.k_terms])


def test_estimates_bits_equal_direct_kernels(shared_omega, monkeypatch):
    # the whole estimate, every k-term included, matches the per-summand
    # Kloosterman oracles bit for bit
    cases = [(a_asymptotic, args) for args in
             ((1, 3, 2000), (2, 5, 40000), (3, 7, 60000), (1, 4, 5000), (1, 5, 500))]
    cases.append((nbar_asymptotic, (1, 3, 20000)))
    fast = [estimate_bits(f(*args)) for f, args in cases]
    # the direct kernels evaluate every summand afresh, reading only the
    # tables' modulus and precision
    monkeypatch.setattr(asymptotic, "kloosterman_B",
                        lambda a, t, *rest: kloosterman_B_direct(a, t.c, *rest, t.prec))
    monkeypatch.setattr(asymptotic, "kloosterman_D",
                        lambda a, t, *rest: kloosterman_D_direct(a, t.c, *rest, t.prec))
    for (f, args), bits in zip(cases, fast):
        assert estimate_bits(f(*args)) == bits, (f.__name__, args)


@pytest.mark.parametrize("prec", [160, 64])
def test_arc_walk_bits_equal_per_residue_loops(prec):
    # one walk for all residues of a modulus, sharing the kernels' tables,
    # gives every output bit of one walk per residue with fresh tables; at
    # c = 9, j = 3 and 6 reduce to thirds
    cases = [(a_asymptotic, a_asymptotic_per_residue, args) for args in
             ((1, 3, 2000), (2, 5, 40000), (3, 7, 60000), (1, 4, 5000), (1, 5, 500))]
    cases += [(nbar_asymptotic, nbar_asymptotic_per_residue, args) for args in
              ((1, 3, 20000), (2, 5, 20000), (4, 9, 5000))]
    for walk, oracle, args in cases:
        assert estimate_bits(walk(*args, prec)) == estimate_bits(oracle(*args, prec)), \
            (walk.__name__, args)


def counting(monkeypatch, owner, name):
    calls = []
    fn = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)
    monkeypatch.setattr(owner, name, counted)
    return calls


def test_nbar_builds_each_arc_multipliers_once(monkeypatch):
    # both residues of c = 3 share one walk, so the multipliers cost what
    # one residue's do, one omega (one Dedekind sum) per class of each arc,
    # where a walk per residue pays twice
    calls = counting(monkeypatch, modsums, "dedekind_sum")
    a_asymptotic(1, 3, 5000)
    single = len(calls)
    arcs = {k for _, k in calls}
    assert single == sum(len(multiplier_classes(k)) for k in arcs) > 0
    for a in range(3):
        calls.clear()
        nbar_asymptotic(a, 3, 5000)
        assert len(calls) == single, a
    calls.clear()
    nbar_asymptotic_per_residue(0, 3, 5000)
    assert len(calls) == 2 * single


@pytest.mark.parametrize("a, c, n", [(1, 3, 20000), (2, 5, 20000), (3, 7, 20000)])
def test_b_evaluates_each_sine_once(monkeypatch, a, c, n):
    # the sine weight depends on a*h' alone, so a walk evaluates it once
    # per distinct value instead of once per summand; an evaluation is a
    # root taken by KernelTables.sine, from its B arc's table or, where
    # the table refuses it, from mpmath
    arcs = range(c, isqrt(n) + 1, 2 * c)
    summands = [a * pow(h, -1, k) for k in arcs for h in units(k)]
    calls = counting(monkeypatch, modsums._ArcRoots, "__call__")
    evaluations = []
    sine = modsums.KernelTables.sine

    def counted_sine(tables, x):
        before = len(calls)
        value = sine(tables, x)
        evaluations.append(len(calls) - before)
        return value
    monkeypatch.setattr(modsums.KernelTables, "sine", counted_sine)
    a_asymptotic(a, c, n)
    assert len(evaluations) == len(summands)
    assert sum(evaluations) == len(set(summands)) < len(summands)


def test_kernel_root_arguments_stay_below_their_arc(monkeypatch):
    # every root an arc table gives has |x| = |num/den| < k: multipliers below
    # k/12, linear and quadratic phases below 2, sines a*h'/c below k; this
    # keeps _ArcRoots inside its analysed range, which has no guard of its own
    rng = random.Random(0)
    calls = counting(monkeypatch, modsums._ArcRoots, "_rounded")
    for c in (3, 5, 7, 9):
        for _ in range(2):
            a = rng.choice(units(c))
            a_asymptotic(a, c, rng.randrange(2000, 20000))
    nbar_asymptotic(rng.randrange(5), 5, rng.randrange(2000, 20000))
    ratios = [abs(Fraction(num, den)) / roots.k for roots, num, den in calls]
    assert max(ratios) < 1
    # the sines reach past every other kind's 2/k, so they were among the calls
    assert max(r for r, (roots, _, _) in zip(ratios, calls) if roots.k >= 5) > Fraction(1, 2)


def test_outputs_independent_of_ambient_precision(pbar3000, table3):
    # every evaluator sets its own working precision, so the ambient mp.prec
    # reaches no output bit, down to the 3,520-digit n_min of c = 7; this
    # covers the multiplier conjugates, which round at whatever precision is
    # current when they run
    def bits():
        out = [kloosterman_B(a, KernelTables(c, prec), k, n)._mpc_ for a, c, k, n, prec in
               ((1, 3, 3, 0, 160), (1, 3, 45, -2000, 160), (2, 5, 75, -40000, 190),
                (3, 7, 63, -777, 64))]
        out += [kloosterman_D(a, KernelTables(c, prec), k, n, m, sign)._mpc_
                for a, c, k, n, m, sign, prec in
                ((1, 5, 1, 0, 0, 1, 160), (2, 5, 3, -7, -3, 1, 160),
                 (1, 3, 41, -20000, 45, -1, 210), (3, 7, 31, -5, 0, 1, 64))]
        out += [estimate_bits(a_asymptotic(*args)) for args in
                ((1, 3, 2000), (2, 5, 4000), (3, 7, 3000))]
        out.append(estimate_bits(nbar_asymptotic(1, 3, 2000)))
        for index, c in ((1, None), (4, 5)):
            const = const_C(index, c, pbar3000)
            out.append((const.upper._mpf_, const.partial._mpf_, const.tail_bound._mpf_,
                        const.truncation))
        out += [r_ratio(c, n)._mpf_ for c, n in ((3, 2089), (4, 272), (5, 449), (7, 10 ** 4))]
        for c, n in ((3, 2089), (5, 449), (7, 10 ** 4)):
            pieces = error_pieces(c, n)
            out.append(({k: v._mpf_ for k, v in pieces.pieces.items()}, pieces.total._mpf_))
            out += [main_term_bound(c, n)._mpf_, error_term_bound(c, n)._mpf_]
        out += [v._mpf_ for n in (1, 434, 3000) for v in pbar_sandwich(n)]
        for c in (3, 7):
            th = sandwich_threshold(c)
            out.append((th.lower_coef._mpf_, th.upper_coef._mpf_, th.n_min))
        out += [f(c)._mpf_ for f in (m_c, m_c_prime) for c in (6, 7)]
        out += [f(c)._mpf_ for f in (cbar2, cbar4) for c in (3, 7)]
        out += [(e.estimate._mpf_, e.certified_bound._mpf_)
                for e in map(engel_pbar, (1, 434, 3000))]
        out += [(t.holds, t.margin._mpf_) for t in (t_inequality(109, 3), t_inequality(5000, 7))]
        out.append(a_exact(1, table3.row(1600))._mpc_)
        for prec in (64, 160):
            bounds._grid_checks.cache_clear()  # else the first ambient's checks are reused
            out.append(aux_inequalities_selftest(prec))
        return out

    runs = []
    old = mp.prec
    try:
        for ambient in (53, 240, 1000):
            mp.prec = ambient
            runs.append(bits())
    finally:
        mp.prec = old
    assert runs[0] == runs[1] == runs[2]


# ---------------------------------------------------------------------------
# Rank-class estimates through the orthogonality identity
# ---------------------------------------------------------------------------

def test_nbar_residue_sum_collapses_to_engel():
    with mp.workprec(240):
        for c, n in ((3, 500), (5, 300)):
            total = sum(nbar_asymptotic(a, c, n).value for a in range(c))
            engel = engel_pbar(n).estimate
            assert abs(total - engel) / engel < mpf(2) ** -130


def test_nbar_matches_exact_within_envelope(table3):
    est = nbar_asymptotic(0, 3, 2000)
    exact = table3.counts[2000][0]
    pbar = table3.row_sum(2000)
    assert abs(est.value - exact) / pbar < r_ratio(3, 2000)
    # far tighter in practice
    assert abs(est.value - exact) / exact < mpf("1e-12")


def test_nbar_conjugate_residues_agree():
    lhs = nbar_asymptotic(1, 5, 500)
    rhs = nbar_asymptotic(4, 5, 500)
    assert abs(lhs.value - rhs.value) / abs(lhs.value) < mpf(2) ** -120


def test_nbar_rejects_even_modulus():
    with pytest.raises(ValueError):
        nbar_asymptotic(1, 4, 100)


@pytest.mark.parametrize("call, message", [
    (lambda: engel_pbar(0), "n must be >= 1"),
    (lambda: nbar_asymptotic(1, 2, 100), "need c > 2"),
    (lambda: nbar_asymptotic(0, 1, 100), "need c > 2"),
    (lambda: nbar_asymptotic(5, 5, 100), "need 0 <= a < c"),
    (lambda: nbar_asymptotic(-1, 5, 100), "need 0 <= a < c"),
], ids=["engel-n-zero", "nbar-c-two", "nbar-c-one", "nbar-a-is-c", "nbar-a-negative"])
def test_estimates_name_a_bad_argument(call, message):
    with pytest.raises(ValueError) as raised:
        call()
    assert str(raised.value) == message


# ---------------------------------------------------------------------------
# Two-arc overpartition estimate
# ---------------------------------------------------------------------------

def test_engel_containment_small():
    series = pbar_series(120)
    for n in (1, 2, 10, 50, 100, 120):
        e = engel_pbar(n)
        assert abs(series[n] - e.estimate) <= e.certified_bound, n
        assert e.certified_bound >= 0


def test_engel_relative_deviation_improves():
    series = pbar_series(900)
    d100 = abs(series[100] - engel_pbar(100).estimate) / series[100]
    d900 = abs(series[900] - engel_pbar(900).estimate) / series[900]
    assert d900 < d100


def test_engel_bound_relaxation_chain():
    # sinh(x) <= e^x/2 always; the final relaxation to (pi/16 pi) e^{pi sqrt n}
    # only takes over from n = 4 (plain numeric fact, frozen here)
    with mp.workprec(240):
        for n in range(1, 2001):
            s = mp.sqrt(mpf(n))
            link0 = mpf(3) ** mpf("2.5") / (mp.pi * mpf(n) ** mpf("1.5")) * mp.sinh(mp.pi * s / 3)
            link1 = (mpf(3) ** mpf("2.5") * mp.exp(mp.pi * s / 3)
                     / (2 * mp.pi * mpf(n) ** mpf("1.5")))
            link2 = mp.exp(mp.pi * s) / (16 * mpf(n) ** mpf("1.5"))
            assert link0 <= link1
            if n >= 4:
                assert link1 <= link2, n
            else:
                assert link1 > link2, n


def test_engel_certified_interval_through_3000(pbar3000):
    # sampled containment across the full table depth; precision scaled so
    # the certified gap stays above the rounding floor
    for n in range(1, 3001, 7):
        e = engel_pbar(n, prec=256)
        assert abs(pbar3000[n] - e.estimate) <= e.certified_bound, n
