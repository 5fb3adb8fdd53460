"""Sawtooth, Dedekind sums, branch parameters, and the exponential sums."""

from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpc, mpf
from mpmath.libmp import (from_int, from_man_exp, fzero, mpc_add, mpc_div, mpc_div_mpf,
                          mpc_mul, mpc_pow_int, mpc_zero, mpf_add, mpf_cos_sin_pi, mpf_div,
                          mpf_pos, mpf_sub)
from mpmath.libmp.libmpf import python_mpf_mul

import oracles
from oracles import (dedekind_sum_direct, dedekind_sums_direct_row,
                     kloosterman_B_direct, kloosterman_D_direct, multiplier_classes, units)
from overrank import (a_asymptotic, arc_plan, dedekind_sum, kloosterman_B, kloosterman_D,
                      pbar_series, secondary_terms)
from overrank import modsums
from overrank.modsums import _ArcRoots, _conjugate, _multipliers, omega


def libmp(z):
    """A kernel table entry, an integer pair (re man, re exp, im man, im exp), as the
    libmp tuple it stands for."""
    return from_man_exp(z[0], z[1]), from_man_exp(z[2], z[3])


def close(x, y, bits=140):
    """Compare package values against references at honest precision."""
    with mp.workprec(400):
        return abs(x - y) < mpf(2) ** -bits



def test_dedekind_values():
    assert dedekind_sum(0, 1) == 0
    assert dedekind_sum(1, 3) == Fraction(1, 18)
    assert dedekind_sum(2, 5) == 0


def test_dedekind_rejects_non_coprime():
    with pytest.raises(ValueError):
        dedekind_sum(2, 4)


@pytest.mark.parametrize("f", [dedekind_sum])
def test_modulus_below_one_is_refused(f):
    with pytest.raises(ValueError) as raised:
        f(1, 0)
    assert str(raised.value) == "k must be >= 1"


def test_dedekind_fast_equals_direct():
    for k in range(1, 121):
        for h, s in dedekind_sums_direct_row(k).items():
            assert dedekind_sum(h, k) == s, (h, k)


def test_direct_row_oracle_equals_scalar_oracle():
    # the int64 matrix form against the plain-integer loop, every coprime h
    for k in (1, 2, 3, 12, 97, 120, 499, 500):
        assert dedekind_sums_direct_row(k) == {
            h: dedekind_sum_direct(h, k) for h in units(k)}, k


def test_dedekind_reciprocity():
    # s(h,k) + s(k,h) = -1/4 + (h/k + k/h + 1/(hk))/12, exactly
    for k in range(2, 81):
        for h in range(1, k):
            if gcd(h, k) == 1:
                lhs = dedekind_sum(h, k) + dedekind_sum(k % h, h) if h > 1 else \
                    dedekind_sum(h, k) + dedekind_sum(0, 1)
                rhs = Fraction(-1, 4) + (Fraction(h, k) + Fraction(k, h)
                                         + Fraction(1, h * k)) / 12
                assert lhs == rhs, (h, k)


def test_omega_values():
    assert close(omega(0, 1), 1, 150)
    with mp.workprec(400):
        ref1, ref2 = mp.expjpi(mpf(1) / 18), mp.expjpi(mpf(-1) / 18)
    assert close(omega(1, 3), ref1, 150)
    assert close(omega(2, 3), ref2, 150)


def test_omega_unit_modulus():
    for k in (1, 3, 7, 24, 101):
        for h in units(k):
            with mp.workprec(400):
                assert abs(abs(omega(h, k)) - 1) < mpf(2) ** -140


def test_secondary_terms_examples():
    # the sign of l/c1's branch, and no terms off the outer branches
    assert secondary_terms(1, 5, 1)[0] == 1  # l/c1 = 1/5
    assert secondary_terms(4, 5, 1)[0] == -1  # l/c1 = 4/5, the low branch of -4
    assert secondary_terms(2, 5, 1) == (0, [])  # l/c1 = 2/5, mid branch
    # c1 = 4 at either boundary
    assert secondary_terms(1, 4, 1) == (0, [])  # l/c1 = 1/4
    assert secondary_terms(3, 4, 1) == (0, [])  # l/c1 = 3/4


def test_delta_values():
    # (1, 5, 1): delta_0 = (1/4 - 1/5)^2, and delta_1 = 1/400 - 1/5 < 0 ends the list
    assert [d for d, _ in secondary_terms(1, 5, 1)[1]] == [Fraction(1, 400)]
    assert [d for d, _ in secondary_terms(4, 5, 1)[1]] == [Fraction(1, 400)]
    # (24, 25, 1): z = 1/25 on the mirrored branch, delta_1 = 441/10000 - 1/25
    assert [d for d, _ in secondary_terms(24, 25, 1)[1]] == [Fraction(441, 10000),
                                                             Fraction(41, 10000)]


def test_m_param_values():
    assert [m for _, m in secondary_terms(1, 5, 1)[1]] == [0]
    # (3, 5, 2): a*k = 6 = 1*5 + 1, so y = 1 and m_0 = -3/2
    assert [m for _, m in secondary_terms(3, 5, 2)[1]] == [Fraction(-3, 2)]
    # (24, 25, 1): -24 = -1*25 + 1, so y = -1 and m_r = r - 1/2
    assert [m for _, m in secondary_terms(24, 25, 1)[1]] == [Fraction(-1, 2), Fraction(1, 2)]


def test_secondary_terms_rejects_bad_input():
    with pytest.raises(ValueError):
        secondary_terms(2, 4, 1)  # gcd != 1
    with pytest.raises(ValueError):
        secondary_terms(1, 2, 1)  # c too small
    with pytest.raises(ValueError):
        secondary_terms(1, 5, 0)  # k < 1
    with pytest.raises(ValueError):
        secondary_terms(1, 3, 3)  # c | k


def test_secondary_terms_match_the_fraction_oracle():
    # the integer rule and the mirror in -a against the branches taken on the
    # Fraction x = l/c1; r >= 1 terms first appear at c = 24
    checked = 0
    for c in range(3, 41):
        for a in range(1, c):
            if gcd(a, c) != 1:
                continue
            for k in range(1, 91):
                if k % c == 0:
                    continue
                sign, rterms = secondary_terms(a, c, k)
                branch = oracles.secondary_branch(a, c, k)
                if branch is None:
                    assert (sign, rterms) == (0, []), (a, c, k)
                    continue
                want_sign, want_delta, want_m = branch
                assert sign == want_sign, (a, c, k)
                for r, (d, m) in enumerate(rterms):
                    assert (d, m) == (want_delta(r), want_m(r)), (a, c, k, r)
                    checked += r > 0
                assert want_delta(len(rterms)) <= 0, (a, c, k)
    assert checked > 0


def test_arc_plan_matches_the_branch_oracle():
    # the plan lists the B arcs, then every other odd k with its branch's sign
    # and each r-term's delta and integer h' coefficient 2*m mod k, against
    # the arcs built from the Fraction branch formulas
    for c in range(3, 14):
        residues = [a for a in range(1, c) if gcd(a, c) == 1]
        for n in (1, 2, 50, 5000, 40120):
            plans = [arc_plan(a, c, n) for a in residues]
            for a, plan in zip(residues, plans):
                assert plan == oracles.arc_list(a, c, n), (a, c, n)
                assert all(type(e) is int and 0 <= e < k
                           for k, _, rterms in plan for _, e in rterms or ()), (a, c, n)
            # the arc walk takes every residue's plan side by side
            assert len({tuple(k for k, _, _ in plan) for plan in plans}) == 1, (c, n)


@pytest.mark.parametrize("args, message", [
    ((2, 4, 100), "need 0 < a < c with gcd(a,c) = 1"),
    ((0, 3, 100), "need 0 < a < c with gcd(a,c) = 1"),
    ((1, 2, 100), "need c > 2"),
    ((1, 3, 0), "n must be >= 1"),
])
def test_arc_plan_checks_the_estimate_arguments(args, message):
    for f in (arc_plan, a_asymptotic):
        with pytest.raises(ValueError) as raised:
            f(*args)
        assert str(raised.value) == message, f.__name__


def test_delta_decreasing_and_enumeration_bound():
    # outer branches: delta strictly decreases in r, and the positive prefix
    # stays within ceil((c+8)/16) + 1 entries
    for c in (3, 5, 7, 9, 11, 13, 25, 33):
        for k in range(1, 40):
            if k % c == 0:
                continue
            for a in range(1, c):
                if gcd(a, c) != 1:
                    continue
                deltas = [d for d, _ in secondary_terms(a, c, k)[1]]
                assert all(d > 0 for d in deltas), (a, c, k)
                assert all(x > y for x, y in zip(deltas, deltas[1:])), (a, c, k)
                assert len(deltas) <= (c + 8 + 15) // 16 + 1, (a, c, k, len(deltas))


# ---------------------------------------------------------------------------
# Exponential sums
# ---------------------------------------------------------------------------

def test_b_summand_count():
    assert len(units(3)) == 2
    assert len(units(5)) == 4


def test_b_consistent_pinned_value():
    # frozen from the calibration against exact rank-class counts
    v = kloosterman_B(1, modsums.KernelTables(3), 3, 0)
    with mp.workprec(400):
        assert abs(v - mpc(0, -1) * mp.sqrt(2)) < mpf(2) ** -140


def test_b_precondition_checks():
    with pytest.raises(ValueError):
        kloosterman_B(1, modsums.KernelTables(3), 5, 0)  # c does not divide k
    with pytest.raises(ValueError):
        kloosterman_B(1, modsums.KernelTables(3), 6, 0)  # k even


def phase_keys(k, n, e=0):
    """The linear phase keys, num mod k, that one kernel call at arc k uses."""
    return {(n * h + e * pow(h, -1, k)) % k for h in units(k)}


def test_kernel_tables_hold_one_arc_of_one_modulus_and_precision(monkeypatch):
    fresh = {(a, k): kloosterman_B(a, modsums.KernelTables(3, 160), k, -100)._mpc_
             for k in (9, 15) for a in (1, 2)}
    built = []
    dedekind = modsums.dedekind_sum
    monkeypatch.setattr(modsums, "dedekind_sum", lambda h, k: built.append(k) or dedekind(h, k))
    tables = modsums.KernelTables(3, 160)
    for k in (9, 15, 9):
        built.clear()
        for a in (1, 2):
            assert kloosterman_B(a, tables, k, -100)._mpc_ == fresh[a, k]
        # on a new arc the multipliers, built once for both residues with one
        # omega (one Dedekind sum) per class, and the phase memo hold that arc
        # only; a return to arc 9 builds it again
        assert built == [k] * len(multiplier_classes(k))
        assert tables.k == k
        assert [h for h, _, _ in tables.multipliers] == units(k)
        assert set(tables.phases) == phase_keys(k, -100)
    # each call checks its residue against the tables' modulus
    with pytest.raises(ValueError, match="need 0 < a < c coprime"):
        kloosterman_B(4, tables, 15, -100)  # outside (0, 3)
    with pytest.raises(ValueError, match="need 0 < a < c coprime"):
        kloosterman_D(3, modsums.KernelTables(9, 160), 5, -100, 0, 1)  # not prime to 9
    # on a D arc one phase memo serves every residue and r-term
    tables = modsums.KernelTables(5, 160)
    keys = set()
    for a, e in ((1, -3), (2, 12), (4, 0), (3, -3)):
        assert kloosterman_D(a, tables, 7, -100, e, 1)._mpc_ == \
            kloosterman_D(a, modsums.KernelTables(5, 160), 7, -100, e, 1)._mpc_
        keys |= phase_keys(7, -100, e)
        assert set(tables.phases) == keys


def test_d_single_term_value():
    # k = 1 collapses to the h = 0 term with unit multiplier
    v = kloosterman_D(1, modsums.KernelTables(5), 1, 0, 0, 1)
    with mp.workprec(400):
        expect = mp.tan(mp.pi / 5) / mp.sqrt(2)
    assert close(v, expect)
    flipped = kloosterman_D(1, modsums.KernelTables(5), 1, 0, 0, -1)
    with mp.workprec(240):
        assert close(flipped, -v)


def test_d_precondition_checks():
    with pytest.raises(ValueError):
        kloosterman_D(1, modsums.KernelTables(5), 5, 0, 0, 1)  # c | k
    with pytest.raises(ValueError):
        kloosterman_D(1, modsums.KernelTables(5), 3, 0, 0, 2)  # bad region sign


@pytest.mark.parametrize("e", [Fraction(-3, 2), Fraction(-3), 2.0])
def test_d_refuses_a_coefficient_that_is_not_an_int(e):
    # the h' coefficient is an int; a Fraction m (the old call form) or a float
    # would silently give another phase
    with pytest.raises(ValueError, match="e must be an int"):
        kloosterman_D(2, modsums.KernelTables(5), 3, -7, e, 1)


def test_d_half_integer_parameter_is_exact():
    # a half-integer m enters D's phase as its double, the integer e = 2m = -3
    v = kloosterman_D(2, modsums.KernelTables(5), 3, -7, -3, 1)
    w = kloosterman_D(2, modsums.KernelTables(5, 320), 3, -7, -3, 1)
    assert close(v, w, 150)


def test_unit_phase_reduction():
    # num is reduced mod the arc's k in integers first, so every numerator of
    # the same phase gives the same bits, huge or negative ones too (fresh
    # tables per call, so each value is evaluated from its own key)
    def phase(num, k):
        tables = modsums.KernelTables(3, 160)
        tables.enter(k)
        return tables.phase(num)

    # the tables take their entries at their own 170 bits, not at mp.prec
    with mp.workprec(53):
        third = phase(1, 3)
    with mp.workprec(170):
        assert libmp(third) == mp.expjpi(2 * mpf(1) / 3)._mpc_
    assert phase(10 ** 30, 3) == third  # 10^30 = 1 (mod 3)
    assert phase(-2, 3) == third
    assert phase(0, 7) == phase(-21, 7)
    assert libmp(phase(0, 7)) == mpc(1)._mpc_
    # one table keys each numerator by num mod k
    tables = modsums.KernelTables(3, 160)
    tables.enter(3)
    for num in (1, 10 ** 30, -2):
        assert tables.phase(num) == third
    assert list(tables.phases) == [1]
    assert close(mp.make_mpc(libmp(third)), oracles.rational_phase(Fraction(1, 3), 170), 150)


def test_kernel_tables_take_entries_at_their_own_precision():
    # every entry of KernelTables(3, 160) has the 170-bit value, at any mp.prec
    tables = modsums.KernelTables(3, 160)
    with mp.workprec(53):
        entries = ([w for _, _, w in tables.enter(9)], tables.phase(2), tables.quad(5),
                   [tables.sine(x) for x in (1, 2, 4)])
    with mp.workprec(170):
        om = {h: omega(h, 9, 170) for h in units(9)}
        expect = ([(om[h] ** 2 / om[2 * h % 9])._mpc_ for h in om],
                  mp.expjpi(2 * mpf(2) / 9)._mpc_, mp.expjpi(-mpf(5) / 3)._mpc_,
                  [mp.sinpi(mpf(x) / 3)._mpf_ for x in (1, 2, 4)])
    ratios, phase, quad, sines = entries
    assert ([libmp(w) for w in ratios], libmp(phase), libmp(quad),
            [from_man_exp(*x) for x in sines]) == expect


@pytest.mark.parametrize("prec", (64, 190, 210))
def test_multipliers_half_table_equals_per_h_form(prec, shared_omega):
    # s(h',k) = s(h,k) gives omega(h',k) the bits of omega(h,k), and
    # s(k-h,k) = -s(h,k) makes omega(k-h,k) their exact conjugate; the class
    # table behind _multipliers must give the plain per-h form's bits
    for k in range(1, 402, 2):
        with mp.workprec(prec):
            om = {h: modsums.omega(h, k, prec) for h in units(k)}
            for h, w in om.items():
                assert w._mpc_ == om[pow(h, -1, k)]._mpc_, (h, k)
                assert w._mpc_ == om[-h % k].conjugate()._mpc_, (h, k)
            plain = [(h, pow(h, -1, k), (w ** 2 / om[2 * h % k])._mpc_)
                     for h, w in om.items()]
            assert [(h, hp, libmp(w)) for h, hp, w in _multipliers(_ArcRoots(k, prec))] == plain, k


def test_dedekind_sum_class_symmetry():
    # the identities behind one omega per class, on the direct sums
    for k in range(1, 402, 2):
        row = dedekind_sums_direct_row(k)
        for h, s in row.items():
            assert row[pow(h, -1, k)] == s, (h, k)
            assert row[-h % k] == -s, (h, k)


def test_multipliers_evaluate_omega_once_per_class(monkeypatch):
    # one omega is one Dedekind sum and one root of the arc's table
    dedekind = modsums.dedekind_sum
    called = []
    monkeypatch.setattr(modsums, "dedekind_sum", lambda h, k: called.append(h) or dedekind(h, k))
    for k in range(1, 402, 2):
        called.clear()
        _multipliers(_ArcRoots(k, 64))
        classes = multiplier_classes(k)
        assert len(called) == len(classes), k
        assert all(sum(h in cls for h in called) == 1 for cls in classes), k


def test_arc_roots_have_the_bits_of_mpmath(monkeypatch):
    # every linear phase e(j/k) and every omega_{h,k} of odd k < 200, at the
    # kernels' working precisions 94 and 190, has the bits of _cos_sin_pi and
    # omega; the arc's table gives all but the few near a rounding tie
    cos_sin_pi = modsums._cos_sin_pi
    cases = []
    for wp in (94, 190):
        for k in range(1, 200, 2):
            hs = units(k)
            args = ([(2 * j, k) for j in range(k)]
                    + [dedekind_sum(h, k).as_integer_ratio() for h in hs])
            want = ([modsums._from_mpc(cos_sin_pi(2 * j, k, wp)) for j in range(k)]
                    + [modsums._from_mpc(omega(h, k, wp)._mpc_) for h in hs])
            cases.append((_ArcRoots(k, wp), args, want))
    fallbacks = []
    monkeypatch.setattr(modsums, "_cos_sin_pi",
                        lambda *args: fallbacks.append(args) or cos_sin_pi(*args))
    for roots, args, want in cases:
        assert [roots(*a) for a in args] == want, (roots.k, roots.wp)
    assert len(fallbacks) < sum(len(args) for _, args, _ in cases) // 20
    # mpmath's own value is not the correctly rounded cos/sin of its argument
    # x = RN_wp(2j/k) here: the table would round the other way, and the guard
    # hands the part to mpmath
    for j, k, wp, part in ((4, 49, 94, 1), (66, 83, 190, 0)):
        mine = cos_sin_pi(2 * j, k, wp)
        x = mpf_div(from_int(2 * j), from_int(k), wp, "n")
        nearest = mpf_pos(mpf_cos_sin_pi(x, wp + 100, "n")[part], wp, "n")
        assert mine[part] != nearest, (j, k, wp)
        assert _ArcRoots(k, wp)(2 * j, k) == modsums._from_mpc(mine), (j, k, wp)


def test_modulus_roots_have_the_bits_of_mpmath(monkeypatch):
    # on every B arc k <= 5c of odd c = 3..13 (even c has none), every sine
    # sin(pi*a*h'/c), a a unit mod c, and every quadratic phase exp(-pi*i*r/c),
    # r < 2c, at the kernels' working precisions 94 and 190 has the bits of
    # _cos_sin_pi; the arc's table gives all but the few near a rounding tie
    cos_sin_pi = modsums._cos_sin_pi
    cases = []
    for wp in (94, 190):
        for c in range(3, 14, 2):
            for k in (c, 3 * c, 5 * c):
                xs = [a * pow(h, -1, k) for a in units(c)
                      for h in units(k)]
                want = ([modsums._from_mpf(cos_sin_pi(x, c, wp)[1]) for x in xs]
                        + [modsums._from_mpc(cos_sin_pi(-r, c, wp)) for r in range(2 * c)])
                tables = modsums.KernelTables(c, wp - 10)
                tables.enter(k)
                cases.append((tables, xs, want))
    fallbacks = []
    monkeypatch.setattr(modsums, "_cos_sin_pi",
                        lambda *args: fallbacks.append(args) or cos_sin_pi(*args))
    for tables, xs, want in cases:
        got = [tables.sine(x) for x in xs] + [tables.quad(r) for r in range(2 * tables.c)]
        assert got == want, (tables.c, tables.k, tables.wp)
    assert len(fallbacks) < sum(len(want) for _, _, want in cases) // 20


def test_multipliers_give_the_exact_overpartition_counts(monkeypatch):
    # Zuckerman's series on the kernels' ratios rounds to the exact count.  One
    # large n guards the small arcs at once: at 19321 = 139^2, prime to every
    # smaller arc, conjugating one ratio or a whole arc k <= 29 moves the
    # rounded value.  An arc k dividing n (5 and 25 at 10000) cannot see a
    # conjugated arc, whose sum is then the same at n and -n.
    pbar = pbar_series(19321)
    for n in (10000, 19321):
        assert oracles.pbar_zuckerman(n) == pbar[n], n

    def planted(roots):
        rows = _multipliers(roots)
        if roots.k == 15:
            h, hp, r = rows[1]
            rows[1] = (h, hp, _conjugate(r))
        return rows

    # one conjugated ratio at arc 15 moves the rounded value (by -6493)
    monkeypatch.setattr(oracles, "_multipliers", planted)
    assert oracles.pbar_zuckerman(10000) != pbar[10000]


def test_exact_rationals_insensitive_to_precision():
    # Fractions never route through floats; identical at any working precision
    with mp.workprec(53):
        t1 = secondary_terms(24, 25, 1)
        s1 = dedekind_sum(97, 250)
    assert len(t1[1]) == 2
    with mp.workprec(500):
        assert secondary_terms(24, 25, 1) == t1
        assert dedekind_sum(97, 250) == s1


# ---------------------------------------------------------------------------
# The kernels' integer arithmetic against libmp, bit for bit
# ---------------------------------------------------------------------------

# kernel working precisions: prec + 20 + 10 for a_asymptotic at 64 and 160
# bits, prec + 40 + 10 for nbar_asymptotic at 160 bits, and 200 between them
MANTISSA_PRECS = (94, 190, 200, 210)


def pair(x):
    """A libmp mpf as the kernels' (signed odd mantissa, exponent) pair."""
    sign, man, exp, _ = x
    return (-man if sign else man), exp


def cpair(z):
    return pair(z[0]) + pair(z[1])


def check_helpers(wp, x, y, u, v):
    """Every integer helper on libmp values x, y, u, v at wp, against the libmp
    function whose bits it reproduces; x + iy and u + iv for the complex ones."""
    xp, yp = pair(x), pair(y)
    for rnd, down in (("n", False), ("d", True)):
        assert modsums._add(*xp, *yp, wp, down) == pair(mpf_add(x, y, wp, rnd))
        assert modsums._add(*xp, -yp[0], yp[1], wp, down) == pair(mpf_sub(x, y, wp, rnd))
    # the kernels multiply exactly: a product's pair is libmp's unrounded mpf_mul
    exact = xp[0] * yp[0], xp[1] + yp[1]
    if exact[0]:
        assert exact == pair(python_mpf_mul(x, y))
    assert modsums._add(*exact, 0, 0, wp) == pair(python_mpf_mul(x, y, wp, "n"))
    z, w = (x, y), (u, v)
    zp, wpair = cpair(z), cpair(w)
    assert modsums._cadd(zp, wpair, wp) == cpair(mpc_add(z, w, wp, "n"))
    assert modsums._cmul(zp, wpair, wp) == cpair(mpc_mul(z, w, wp, "n"))
    assert modsums._cmul(zp, zp, wp) == cpair(mpc_pow_int(z, 2, wp, "n"))
    if yp[0]:
        assert modsums._div(*xp, *yp, wp) == pair(mpf_div(x, y, wp, "n"))
        assert modsums._cdiv_real(wpair, *yp, wp) == cpair(mpc_div_mpf(w, y, wp, "n"))
    if w != mpc_zero:
        assert modsums._cdiv(zp, wpair, wp) == cpair(mpc_div(z, w, wp, "n"))


@st.composite
def helper_operands(draw):
    """A precision and four libmp values: zeros, mantissas of 1 to 2*wp bits
    (wp + 1 bits is an exact tie), exponents near each other or far apart."""
    wp = draw(st.sampled_from(MANTISSA_PRECS))
    base = draw(st.integers(-2 * wp, 2 * wp))

    def value():
        if draw(st.integers(0, 7)) == 0:
            return fzero
        bits = draw(st.sampled_from((1, wp, wp + 1, 2 * wp)) | st.integers(1, 2 * wp))
        man = draw(st.integers(1 << (bits - 1), (1 << bits) - 1))
        exp = base + draw(st.integers(-4, 4) | st.integers(-3 * wp, 3 * wp))
        return from_man_exp(-man if draw(st.booleans()) else man, exp)

    return wp, value(), value(), value(), value()


@settings(max_examples=150, deadline=None, database=None)
@given(operands=helper_operands())
def test_integer_helpers_equal_libmp(operands):
    check_helpers(*operands)


@pytest.mark.parametrize("wp", MANTISSA_PRECS)
def test_integer_helpers_round_ties_to_even(wp):
    # a (wp + 1)-bit odd mantissa lies exactly halfway between two wp-bit ones;
    # its even neighbour wins, in a rounding, a sum and an exact quotient
    one, divisor = from_man_exp(1, 0), from_man_exp(-12345, -7)
    for q in (1 << (wp - 1), (1 << (wp - 1)) + 1, (1 << wp) - 1):
        for sign in (1, -1):
            tie = from_man_exp(sign * (2 * q + 1), -3)
            assert modsums._add(*pair(tie), 0, 0, wp) == pair(mpf_add(tie, fzero, wp, "n"))
            check_helpers(wp, from_man_exp(sign * q, 1), one, tie, one)
            dividend = python_mpf_mul(tie, divisor)
            assert modsums._div(*pair(dividend), *pair(divisor), wp) == \
                pair(mpf_div(dividend, divisor, wp, "n")) == pair(mpf_add(tie, fzero, wp, "n"))


@pytest.mark.parametrize("wp", MANTISSA_PRECS)
def test_integer_helpers_copy_the_sticky_shortcut(wp):
    # x has 2*wp bits, as an exact product does, and the wp bits rounding drops
    # sit just below one half (just above, when y is subtracted).  y lies 101
    # exponents lower and wp + 10 bits below x's top, yet is large enough to
    # carry those bits past one half; libmp's sticky +-1 does not, and neither
    # may the helpers
    top = (1 << (wp - 1)) | 1
    for sign in (1, -1):
        for low, y_sign in (((1 << (wp - 1)) - 1, 1), ((1 << (wp - 1)) + 1, -1)):
            xm, ym = sign * (top << wp | low), sign * y_sign * ((1 << (wp + 90)) + 1)
            x, y = from_man_exp(xm, 0), from_man_exp(ym, -101)
            exact = from_man_exp((xm << 101) + ym, -101, wp, "n")
            assert mpf_add(x, y, wp, "n") == mpf_add(x, fzero, wp, "n") != exact
            check_helpers(wp, x, y, y, x)


def test_cdiv_sums_round_toward_zero():
    # mpc_div takes c^2 + d^2, ac + bd and bc - ad at wp + 10 bits in libmp's
    # default rounding, toward zero; here rounding them to nearest would move
    # the quotient's last bit
    z = (from_man_exp(-16863462493893765447198548445, -94),
         from_man_exp(-13586525341659391112305497499, -93))
    w = (from_man_exp(-7606952027076357936788279163, -97),
         from_man_exp(1071492434897504605986739923, -96))
    check_helpers(94, *z, *w)


# ---------------------------------------------------------------------------
# Production kernels against the per-summand oracles, bit for bit
# ---------------------------------------------------------------------------

KERNEL_NS = (0, -7, -20100, -10 ** 6 - 3)
KERNEL_ES = (0, -3, 1001)  # h' coefficients: zero, negative, and above every k
KERNEL_PRECS = (64, 160, 240)


def kernel_cases(c_divides_k: bool):
    """(c, a, k, n, prec) for B and (c, a, k, n, e, prec) for D, over c in
    {3, 5, 7} and odd k <= 150.

    Case i takes the i-th valid a of its c and the i-th combination of the
    grids, cyclically, so every a and every combination recurs; D adds the
    coefficients 2*m_r mod k of the m_r `secondary_terms` gives its arc to
    the e grid.
    """
    i = 0
    for c in (3, 5, 7):
        residues = [a for a in range(1, c) if gcd(a, c) == 1]
        for k in range(1, 151, 2):
            if (k % c == 0) != c_divides_k:
                continue
            a = residues[i % len(residues)]
            if c_divides_k:
                combos = list(product(KERNEL_NS, KERNEL_PRECS))
            else:
                es = KERNEL_ES + tuple(int(2 * m) % k for _, m in secondary_terms(a, c, k)[1])
                combos = list(product(KERNEL_NS, es, KERNEL_PRECS))
            yield (c, a, k) + combos[i % len(combos)]
            i += 1


def test_kloosterman_B_bits_equal_direct(shared_omega):
    for c, a, k, n, prec in kernel_cases(c_divides_k=True):
        got = kloosterman_B(a, modsums.KernelTables(c, prec), k, n)
        assert got._mpc_ == kloosterman_B_direct(a, c, k, n, prec)._mpc_, (a, c, k, n, prec)


def test_kloosterman_D_bits_equal_direct(shared_omega):
    cases = list(kernel_cases(c_divides_k=False))
    assert any(k == 1 for _, _, k, *_ in cases)
    for c, a, k, n, e, prec in cases:
        sign = secondary_terms(a, c, k)[0] or 1  # a mid arc has no sign; take +1
        got = kloosterman_D(a, modsums.KernelTables(c, prec), k, n, e, sign)
        assert got._mpc_ == kloosterman_D_direct(a, c, k, n, e, sign, prec)._mpc_, \
            (a, c, k, n, e, sign, prec)
