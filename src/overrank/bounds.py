"""Explicit constants and envelope functions for the rank-class deviation.

Carries the series constants C1..C5 (exact counts in integer Horner sums
rounded upward, times a float scale, plus a float closed-form tail; a 2^(4-prec)
padding covers the float parts), their coarse closed-form majorants, the
fourteen error-piece bounds with their aggregation, the deviation ratio R_c
and the sandwich rows (for c = 3, 4, 5 from `TABULATED`, the one table of the
paper's per-modulus numbers), the giant thresholds M_c, the two-sided envelope
for the overpartition count, the exponent-gap inequality that extends the
finite subadditivity checks, and a self-test of the auxiliary scalar
inequalities the envelopes rest on, each evaluated where its proof puts the
minimum, once per working precision per process.

Strict float comparisons here never masquerade as proofs: `strict_verdict`
returns 'inconclusive' when a margin is thinner than the fixed relative
policy MARGIN_POLICY (1e-12), and callers surface that outcome.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Iterable, NamedTuple, Sequence

from mpmath import mp, mpf
from mpmath.libmp import (from_int, from_man_exp, fzero, mpf_add, mpf_div, mpf_exp, mpf_log,
                          mpf_mul, mpf_neg, mpf_perturb, mpf_pi, mpf_shift, round_ceiling,
                          round_floor, to_float, to_int)

from . import DEFAULT_PRECISION

__all__ = [
    "BoundBreakdown",
    "CertifiedConstant",
    "MARGIN_POLICY",
    "TABULATED",
    "TInequalityResult",
    "Threshold",
    "aux_inequalities_selftest",
    "cbar2",
    "cbar4",
    "const_C",
    "error_pieces",
    "error_term_bound",
    "m_c",
    "m_c_prime",
    "main_term_bound",
    "pbar_sandwich",
    "r_ratio",
    "sandwich_threshold",
    "strict_verdict",
    "t_inequality",
]

MARGIN_POLICY = 1e-12


def _exact(x) -> Fraction | None:
    """x as an exact rational; None for an infinity or a NaN."""
    if isinstance(x, mpf):
        if not mp.isfinite(x):
            return None
        sign, man, exp, _ = x._mpf_
        return Fraction(-man if sign else man) * Fraction(2) ** exp
    try:
        return Fraction(x)
    except (OverflowError, ValueError):
        return None


def strict_verdict(lhs, rhs) -> str:
    """'pass' if lhs < rhs by a relative margin above the fixed MARGIN_POLICY
    (1e-12), 'fail' if the reverse, 'inconclusive' when the gap is thinner
    or a side is not finite.

    The margin is taken in exact rationals, so the verdict does not depend
    on the ambient mp.prec.
    """
    lhs, rhs = _exact(lhs), _exact(rhs)
    if lhs is None or rhs is None:
        return "inconclusive"
    scale = max(abs(lhs), abs(rhs), Fraction(1, 10 ** 300))
    margin = (rhs - lhs) / scale
    if margin > MARGIN_POLICY:
        return "pass"
    if margin < -MARGIN_POLICY:
        return "fail"
    return "inconclusive"


# ---------------------------------------------------------------------------
# Certified series constants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CertifiedConstant:
    """Partial sum with exact counts plus a certified tail: upper = partial + tail."""

    upper: mpf
    partial: mpf
    tail_bound: mpf
    truncation: int


def _series_params(index: int, c: int | None) -> tuple[Fraction, mpf]:
    """(alpha/pi, exact; scalar prefactor) of C_index = scale*sum p(r)e^{-alpha r}."""
    if index in (2, 4) and (c is None or c <= 2):
        raise ValueError(f"C{index} needs c > 2")
    pi = mp.pi
    if index == 1:
        return Fraction(1), mp.exp(pi / 16) + mp.exp(-7 * pi / 16)
    if index == 2:
        return Fraction(c * c - 8, 16 * c * c), mpf(2)
    if index == 3:
        return Fraction(1), mpf(1)
    if index == 4:
        return Fraction(1, 2 * c * c), mpf(1)
    if index == 5:
        return Fraction(1, 4), mp.exp(-pi / 8)
    raise ValueError("index must be 1..5")


def _exp_neg_pi_upper(q: Fraction, prec: int) -> tuple:
    """Raw mpf upper bound on e^{-q pi}, q > 0, at `prec` bits."""
    lo = mpf_div(mpf_mul(from_int(q.numerator), mpf_pi(prec, round_floor), prec, round_floor),
                 from_int(q.denominator), prec, round_floor)
    # mpf_exp rounds up from an approximation with 14 guard bits; one more ulp makes a bound
    return mpf_perturb(mpf_exp(mpf_neg(lo), prec, round_ceiling), 0, prec, round_ceiling)


def _tail_integral(R, alpha):
    """Closed form of int_R^inf e^{pi sqrt(t) - alpha t} dt via erfc."""
    beta = mp.pi / (2 * alpha)
    x = mp.sqrt(R) - beta
    return 2 * mp.exp(mp.pi ** 2 / (4 * alpha)) * (
        mp.exp(-alpha * x * x) / (2 * alpha)
        + beta * mp.sqrt(mp.pi / alpha) / 2 * mp.erfc(mp.sqrt(alpha) * x))


def const_C(index: int, c: int | None, pbar: Sequence[int],
            rel_tol: float = 1e-15, prec: int = DEFAULT_PRECISION) -> CertifiedConstant:
    """Certified upper value of the series constant C_index (at modulus c).

    Sums scale * pbar(r) * e^{-alpha r} with exact counts up to an adaptive
    truncation R, then adds scale * int_R^inf e^{pi sqrt(t) - alpha t} dt,
    valid because the counts stay below e^{pi sqrt(r)} and the integrand
    decreases once R > (pi/(2 alpha))^2.  R grows chunk by chunk until the
    tail drops below rel_tol of the partial sum.

    Each chunk [r+1, hi] is a Horner sum in integers scaled by 2^F, where
    F = prec + 40 + chunk.bit_length() and step = ceil(2^F e^{-alpha}):
    s <- pbar(i) 2^F + ceil(step s / 2^F) for i = hi down to r+1, and the
    partial sum gains s 2^-F e^{-alpha(r+1)} at prec+20 bits.  Exponentials
    are upper endpoints and every rounding is upward, so the partial sum is an
    upper bound; as alpha <= pi, a Horner sum's relative excess is below
    chunk (1 + e^alpha) 2^-F < 2^-(prec+35).

    The tail's closed form is its first term e^{pi sqrt R - alpha R}/alpha plus
    a positive erfc term, so the tail exceeds that first term.  Where ln of the
    first term beats ln(rel_tol * partial) by more than 1 nat in floats (whose
    logs err by about 1e-12), the stop test must fail, and the closed form is
    not evaluated.  It is always evaluated at the last available count and when
    rel_tol <= 0, and the stop test itself is unchanged, so the screen moves no
    bit of the result.
    """
    wp = prec + 20
    with mp.workprec(wp):
        q, scale = _series_params(index, c)
        alpha = q.numerator * mp.pi / q.denominator
        r_min = int(mp.ceil((mp.pi / (2 * alpha)) ** 2)) + 1
        partial = fzero
        r = 0
        chunk = max(64, r_min // 8)
        F = prec + 40 + chunk.bit_length()
        last = len(pbar) - 1
        a = float(q) * math.pi
        screen = math.log(rel_tol) + math.log(a) + 1 if rel_tol > 0 else math.inf
        step = to_int(mpf_shift(_exp_neg_pi_upper(q, F), F), round_ceiling)
        while True:
            hi = min(r + chunk, last)
            s = 0
            for i in range(hi, r, -1):
                s = (pbar[i] << F) - ((-step * s) >> F)
            head = _exp_neg_pi_upper(q * (r + 1), wp)
            partial = mpf_add(partial, mpf_mul(from_man_exp(s, -F), head, wp, round_ceiling),
                              wp, round_ceiling)
            r = hi
            # the closed form runs only where it can stop the series: see the docstring
            if r >= r_min and (r >= last or not math.pi * math.sqrt(r) - a * r
                               > screen + to_float(mpf_log(partial, 53))):
                tail = _tail_integral(r, alpha)
                if tail <= mpf(rel_tol) * mp.make_mpf(partial):
                    break
            if r >= last:
                raise ValueError(
                    f"series for C{index} needs exact counts beyond r={r}; "
                    "supply a longer pbar sequence")
        partial = mp.make_mpf(partial) * scale
        tail *= scale
    with mp.workprec(prec):
        # pad the reported value by a few ulp so the certificate survives the
        # final rounding; the loosening is ~2^-156 relative
        upper = +(partial + tail)
        upper += abs(upper) * mpf(2) ** (4 - prec)
        return CertifiedConstant(upper=+upper, partial=+partial, tail_bound=+tail, truncation=r)


def cbar2(c: int, prec: int = DEFAULT_PRECISION) -> mpf:
    """Closed-form majorant of C2(c); enormous but certified for every c >= 3."""
    if c <= 2:
        raise ValueError("need c >= 3")
    with mp.workprec(prec):
        cc = mpf(c) * c
        return 2 * mp.exp(32 * cc * (16 * cc + (cc - 8) * mp.pi)
                          / (mp.pi ** 2 * (cc - 8) ** 2))


def cbar4(c: int, prec: int = DEFAULT_PRECISION) -> mpf:
    """Closed-form majorant of C4(c)."""
    if c <= 2:
        raise ValueError("need c >= 3")
    with mp.workprec(prec):
        cc = mpf(c) * c
        return mp.exp(4 * cc * (2 * cc + mp.pi) / mp.pi ** 2)


# ---------------------------------------------------------------------------
# Error pieces and their aggregation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundBreakdown:
    pieces: dict[str, mpf]
    total: mpf


# name -> (coefficient, n exponent, c power, majorant); the total sums in this order
_PIECE_COEFS = {
    "S1": ("1496.9", 0.25, 1, None),
    "S2": ("3111.36", 0.25, 1, None),
    "S4": ("82469.8", 0.25, 1, None),
    "S7": ("0.9093", 0.875, 1, None),
    "S8": ("0.9093", 0.875, 1, None),
    "S2err": ("386.18", -0.25, 2, None),
    "S5err": ("772.36", -0.25, 2, None),
    "S6err": ("386.18", -0.25, 2, None),
    "I2err": ("1433.39", 0.25, 2, None),
    "I5err": ("2866.78", 0.25, 2, None),
    "I6err": ("1433.39", 0.25, 2, None),
    "S3": ("1363.79", 0.25, 1, cbar4),
    "S5": ("964.35", 0.25, 1, cbar2),
    "S6": ("482.18", 0.25, 1, cbar2),
}


def _check_domain(c: int, n: int) -> None:
    """The domain of the four envelopes below: c >= 3 and n >= 2."""
    if c < 3:
        raise ValueError("need c >= 3")
    if n < 2:
        raise ValueError("need n >= 2")


def error_pieces(c: int, n: int, prec: int = DEFAULT_PRECISION) -> BoundBreakdown:
    """All fourteen error-piece bounds with the closed-form majorants plugged in."""
    _check_domain(c, n)
    with mp.workprec(prec + 10):
        nn = mpf(n)
        # each majorant and each power of n once per call; multiplying by the
        # exact 1 moves no bit
        factor = {None: 1, cbar4: cbar4(c, prec + 10), cbar2: cbar2(c, prec + 10)}
        power = {e: nn ** mpf(e) for e in {expo for _, expo, _, _ in _PIECE_COEFS.values()}}
        pieces = {name: mpf(coef) * factor[majorant] * power[expo] * c ** cpow
                  for name, (coef, expo, cpow, majorant) in _PIECE_COEFS.items()}
        total = sum(pieces.values())
    with mp.workprec(prec):
        return BoundBreakdown(pieces={k: +v for k, v in pieces.items()}, total=+total)


def main_term_bound(c: int, n: int, prec: int = DEFAULT_PRECISION) -> mpf:
    """Envelope for the two main sums of the deviation coefficient."""
    _check_domain(c, n)
    with mp.workprec(prec + 10):
        nn = mpf(n)
        s = mp.sqrt(nn)
        quarter = nn ** mpf("0.25")
        out = (mpf("0.1624") * mp.exp(mp.pi * s / c) * quarter * c
               + (mpf("0.0266") * c + mpf("0.2123"))
               * mp.exp(mp.pi * s * (1 - mpf(4) / c)) * quarter * c)
    with mp.workprec(prec):
        return +out


def error_term_bound(c: int, n: int, prec: int = DEFAULT_PRECISION) -> mpf:
    """Aggregated error envelope; at least the sum of the fourteen pieces."""
    _check_domain(c, n)
    with mp.workprec(prec + 10):
        nn = mpf(n)
        quarter = nn ** mpf("0.25")
        out = (mpf("1544.72") * nn ** mpf("-0.25") * c * c
               + mpf("87078.1") * quarter * c
               + mpf("5733.56") * quarter * c * c
               + mpf("1.8186") * nn ** mpf("0.875") * c
               + mpf("1363.79") * cbar4(c, prec + 10) * quarter * c
               + mpf("1446.53") * cbar2(c, prec + 10) * quarter * c)
    with mp.workprec(prec):
        return +out


# ---------------------------------------------------------------------------
# Deviation ratio R_c and thresholds
# ---------------------------------------------------------------------------

# c -> (lead, tail, sandwich) where the paper tabulates c; any other c >= 3 is generic
TABULATED = {
    3: ("13.32", ("379816.2", "5.3711e57", "149.07"), ("0.0019", "0.6648", 2089)),
    4: ("17.76", ("675228.9", "6.9244e18", "198.76"), ("0.0091", "0.4909", 272)),
    5: ("69.5", ("1.0551e6", "7.4708e24", "248.45"), ("0.0103", "0.3897", 449)),
}


def r_ratio(c: int, n: int, prec: int = DEFAULT_PRECISION) -> mpf:
    """Deviation envelope |N(a,c,n)/pbar(n) - 1/c| <= R_c(n), tabulated or generic."""
    _check_domain(c, n)
    with mp.workprec(prec + 10):
        nn = mpf(n)
        s = mp.sqrt(nn)
        epi = mp.exp(-mp.pi * s)
        n125, n1875 = nn ** mpf("1.25"), nn ** mpf("1.875")
        if c in TABULATED:
            lead, tail, _ = TABULATED[c]
            val = mpf(lead) * mp.exp(-(c - 1) * mp.pi * s / c) * n125
            if c == 3:
                val += 24 * mp.exp(-mpf(4) / 3 * mp.pi * s) * n125
            val += epi * sum(mpf(k) * p
                             for k, p in zip(tail, (nn ** mpf("0.75"), n125, n1875)))
        else:
            val = (mpf(37259) * c * cbar4(c, prec + 10)
                   * mp.exp(-4 * mp.pi * s / c) * n125
                   + mpf("49.69") * c * epi * n1875)
    with mp.workprec(prec):
        return +val


def m_c(c: int, prec: int = DEFAULT_PRECISION) -> mpf:
    """Threshold beyond which the generic sandwich (1/2c, 3/2c) is certified."""
    if c < 6:
        raise ValueError("need c >= 6")
    with mp.workprec(prec):
        cc = mpf(c) * c
        return (mpf("1.691e13") * mpf(c) ** 20
                * mp.exp(16 * cc * (2 * cc + mp.pi) / mp.pi ** 2))


def m_c_prime(c: int, prec: int = DEFAULT_PRECISION) -> mpf:
    """Companion polynomial threshold; m_c dominates it for every c >= 6."""
    if c < 6:
        raise ValueError("need c >= 6")
    with mp.workprec(prec):
        return mpf("5.544e21") * mpf(c) ** 16


def pbar_sandwich(n: int, prec: int = DEFAULT_PRECISION) -> tuple[mpf, mpf]:
    """Two-sided envelope (1/8n)(1 -+ 1/sqrt n)e^{pi sqrt n} for the count.

    Degenerate-but-valid lower bound 0 at n = 1.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    with mp.workprec(prec + 10):
        s = mp.sqrt(mpf(n))
        base = mp.exp(mp.pi * s) / (8 * n)
        lo, hi = base * (1 - 1 / s), base * (1 + 1 / s)
    with mp.workprec(prec):
        return +lo, +hi


@dataclass(frozen=True)
class Threshold:
    lower_coef: mpf
    upper_coef: mpf
    n_min: int


def sandwich_threshold(c: int, prec: int = DEFAULT_PRECISION) -> Threshold:
    """Per-modulus sandwich row: lower * pbar < N(a,c,n) < upper * pbar for n >= n_min."""
    if c < 3:
        raise ValueError("need c >= 3")
    with mp.workprec(prec):
        if c in TABULATED:
            lo, hi, nmin = TABULATED[c][2]
            return Threshold(lower_coef=mpf(lo), upper_coef=mpf(hi), n_min=nmin)
        nmin = int(mp.ceil(m_c(c, prec)))
        return Threshold(lower_coef=1 / mpf(2 * c), upper_coef=3 / mpf(2 * c), n_min=nmin)


class TInequalityResult(NamedTuple):
    holds: bool
    margin: mpf


def t_inequality(n1: int, c: int, prec: int = DEFAULT_PRECISION) -> TInequalityResult:
    """Exponent-gap inequality at equal arguments: T(1) > log V + log S.

    T(1) = 2 pi sqrt(n1) - pi sqrt(2 n1).  For c in `TABULATED` the sandwich
    coefficients of c give V = upper*8*n1/lower^2; else V = 48*c*n1.
    """
    if c < 3:
        raise ValueError("need c >= 3")
    if n1 < 2:
        raise ValueError("need n1 >= 2")
    with mp.workprec(prec):
        x = mpf(n1)
        lhs = 2 * mp.pi * mp.sqrt(x) - mp.pi * mp.sqrt(2 * x)
        if c in TABULATED:
            th = sandwich_threshold(c, prec)
            v = th.upper_coef * 8 * x / th.lower_coef ** 2
        else:
            v = 48 * c * x
        s = (1 + 1 / mp.sqrt(2 * x)) / (1 - 1 / mp.sqrt(x)) ** 2
        margin = lhs - (mp.log(v) + mp.log(s))
        return TInequalityResult(holds=bool(margin > 0), margin=+margin)


# ---------------------------------------------------------------------------
# Auxiliary inequality self-test
# ---------------------------------------------------------------------------

@functools.cache
def _grid_checks(prec: int) -> tuple[tuple[str, bool, float, str], ...]:
    """Evaluate the seven checks at `prec`, each only where the proof beside it
    puts the minimum of its margin over the grid its record names.

    Every point is evaluated inside workprec(prec), so the verdicts depend on
    `prec` alone and one evaluation per precision serves the whole process.
    """
    checks = []

    def record(name: str, margins: Iterable, grid: str, strict: bool = True) -> None:
        # a non-strict inequality may touch equality on its grid (e.g. x = 1)
        worst = min(margins)
        checks.append((name, bool(worst > 0 if strict else worst >= 0), float(worst), grid))

    with mp.workprec(prec):
        pi = mp.pi

        # log x <= a (x^{1/a} - 1) for a, x > 0: ln y <= y - 1 at y = x^{1/a}, equal at x = 1
        x = mpf(1)
        lx = mp.log(x)
        record("log_power_bound", (a * (x ** (mpf(1) / a) - 1) - lx for a in (1, 2, 4, 8, 16)),
               "a in {1,2,4,8,16}, x in (0,50]", strict=False)

        # cot(pi/2c) <= 2c/pi: the margin 1/t - cot t increases in t = pi/2c, so c = 32
        record("cot_linear_bound",
               [2 * mpf(c) / pi - mp.cospi(mpf(1) / (2 * c)) / mp.sinpi(mpf(1) / (2 * c))
                for c in (32,)], "c in 3..32", strict=False)

        # (1 + log((c-1)/2)) / (pi (1 - pi^2/24)) < 0.2704 c: from c to c + 1 the margin
        # grows by 0.2704 - ln(c/(c-1)) / (pi (1 - pi^2/24)) > 0 for c >= 3, so c = 3
        record("log_factor_linear",
               [mpf("0.2704") * c - (1 + mp.log(mpf(c - 1) / 2)) / (pi * (1 - pi ** 2 / 24))
                for c in (3,)], "c in 3..32")

        # e^{-x} / (1 - e^{-x})^2 < (1 + x)/x^2: the margin's derivative has the sign of
        # u^3 cosh u - (u + 1) sinh^3 u, negative as (sinh u / u)^3 > cosh u, u = x/2; so x = 50
        x = mpf(50)
        ex = mp.exp(-x)
        record("exp_square_ratio", [(1 + x) / (x * x) - ex / (1 - ex) ** 2], "x in (0,50]")

        # e^x > (1 + x/y)^y: the margin increases in x and decreases in y, so (0.1, 8)
        x = mpf(1) / 10
        record("exp_vs_power", [mp.exp(x) - (1 + x / y) ** y for y in (8,)],
               "y in {0.5,1,2,3,4,8}, x in (0,50]")

        # sum_{k <= sqrt n} k^{-1/2} <= 2 n^{1/4}: the sum is constant on m^2 <= n < (m+1)^2,
        # so the margin is least at n = m^2, and from m^2 to (m+1)^2 it grows by
        # 2(sqrt(m+1) - sqrt m) - (m+1)^{-1/2} > 0; n = 2 lies above, 2^{5/4} > 3/sqrt 2; so n = 4
        record("sqrt_partial_sum",
               [2 * mpf(n) ** mpf("0.25") - sum(1 / mp.sqrt(k) for k in range(1, isqrt(n) + 1))
                for n in (4,)], "n in {2,...,10000}", strict=False)

        # sin(pi/c) >= 2/c: sin(pi t) - 2t is concave in t = 1/c, so c = 3 or c = 32
        margins = [mp.sinpi(mpf(1) / c) - mpf(2) / c for c in (3, 32)]
        record("sin_lower_bound", margins, "c in 3..32", strict=False)

    return tuple(checks)


def aux_inequalities_selftest(prec: int = DEFAULT_PRECISION) -> dict[str, dict]:
    """Check the scalar inequalities the envelopes rest on, each where its proof
    puts the minimum over its grid.

    Returns name -> {passed, worst_margin, grid} entries; failures are report
    entries, never exceptions.  The margins depend only on `prec`, so they are
    evaluated once per precision per process.  Each call returns a fresh dict.
    Below 64 bits, the floor `RunConfig` enforces, the verdicts would be
    rounding noise, so such a `prec` raises ValueError.
    """
    if prec < 64:
        raise ValueError("aux_inequalities_selftest needs prec >= 64")
    return {name: {"passed": passed, "worst_margin": worst, "grid": grid}
            for name, passed, worst, grid in _grid_checks(prec)}
