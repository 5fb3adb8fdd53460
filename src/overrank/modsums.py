"""Dedekind sums, multiplier ratios, and Kloosterman-type sums.

Rational quantities (Dedekind sums, and each secondary arc's growth
parameters delta_r and linear parameters m_r from `secondary_terms`) are exact
`fractions.Fraction`s; recomputing them at any floating precision changes
nothing.  Complex values are mpmath `mpc` at a configurable working
precision (default 160 bits).

The finite exponential sums B and D follow one convention: the phase
exp(-pi*i*a^2*k1*(c-2)*h'/c) on the sine-weighted sum, and e((n*h + e*h')/k) in
the secondary sum, with the integer e that `arc_plan` sets for each r-term of
the main terms.  Only B is checked against exact counts, at c = 3, which has no
secondary arcs; D's phase is wrong in `arc_plan`'s line for e (ROADMAP item
15, a strict xfail in tests/test_asymptotic.py).  The values calls share live
in a `KernelTables`: per arc k, omega_{h,k} once per class {h, h', k-h, k-h'}
and the multiplier ratio once per pair {h, k-h}; each linear phase once per
numerator mod k, per arc; sin(pi*a*h'/c) once per value of a*h';
and each quadratic phase once per residue mod 2c, all at the table's own
precision.  A call without tables gets fresh ones, so the tables change which
values are recomputed, never a result bit.  The multiplier ratios, the summand
loops and the table entries run on plain integers: a value is a pair (signed
odd mantissa, exponent), zero is (0, 0), and a complex value is two such
pairs.  Private helpers round these exactly as libmp rounds in the operations
the mpc operators call, in the same order, so every result has the operators'
bits.  Two of libmp's behaviours are copied with the rest: mpf_add's sticky
+-1 when one addend lies far below the other, and the three sums inside
mpc_div, which libmp rounds toward zero.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

from mpmath import mp, mpc
from mpmath.libmp import from_int, from_man_exp, mpf_cos_sin_pi, mpf_div, round_nearest

from . import DEFAULT_PRECISION

__all__ = [
    "DEFAULT_PRECISION",
    "KernelTables",
    "arc_plan",
    "coprime_residues",
    "dedekind_sum",
    "kloosterman_B",
    "kloosterman_D",
    "mod_inverse",
    "omega",
    "secondary_terms",
]

def dedekind_sum(h: int, k: int) -> Fraction:
    """s(h,k) = sum_{u mod k} ((u/k)) ((hu/k)), by Euclidean recursion.

    s(h,k) + s(k,h) = -1/4 + (h/k + k/h + 1/(hk))/12 for coprime h,k >= 1,
    applied with h reduced mod k until the pair collapses.  The terms are
    summed as one integer fraction num/den, reduced once at the end.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    h %= k
    if gcd(h, k) != 1:
        raise ValueError("h and k must be coprime")
    num, den = 0, 1
    sign = 1
    while h > 0:
        d = 12 * h * k
        num = num * d + sign * (h * h + k * k + 1 - 3 * h * k) * den
        den *= d
        sign = -sign
        h, k = k % h, h
    return Fraction(num, den)


def _cos_sin_pi(num: int, den: int, prec: int) -> tuple:
    """(cos, sin) of pi*num/den in libmp, rounded to nearest: mp.expjpi(mpf(num)/den)'s bits."""
    x = mpf_div(from_int(num, prec, round_nearest), from_int(den), prec, round_nearest)
    return mpf_cos_sin_pi(x, prec, round_nearest)


def omega(h: int, k: int, prec: int = DEFAULT_PRECISION) -> mpc:
    """Multiplier omega_{h,k} = exp(pi*i*s(h,k)); unit modulus."""
    return mp.make_mpc(_cos_sin_pi(*dedekind_sum(h, k).as_integer_ratio(), prec))


def mod_inverse(h: int, k: int) -> int:
    """Representative h' in [0,k) with h*h' == 1 (mod k); h' = 0 when k = 1."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if gcd(h, k) != 1:
        raise ValueError("h and k must be coprime")
    return pow(h, -1, k)


def coprime_residues(k: int) -> list[int]:
    """The primed-sum index set: 0 <= h < k with gcd(h,k) = 1."""
    return [h for h in range(k) if gcd(h, k) == 1]


def secondary_terms(a: int, c: int, k: int) -> tuple[int, list[tuple[Fraction, Fraction]]]:
    """(sign, [(delta_r, m_r) for r = 0, 1, ... while delta_r > 0]) of arc k in the
    secondary sum for a/c; c must not divide k.

    With g = gcd(c, k), c1 = c/g and a*k/g = y*c1 + l, the arc adds no term,
    (0, []), when c1 = 4 or l/c1 lies in (1/4, 3/4); l is a unit mod c1, so
    l/c1 is 1/4 or 3/4 only at c1 = 4.  Otherwise sign is +1 below 1/4 and -1
    above 3/4, where the high branch is the low branch of -a.  On the low
    branch delta_r = (1/4 - l/c1)^2 - r*l/c1 and m_r = -y*(y + 1/2 + r), a
    half-integer that `arc_plan` doubles; delta_r decreases strictly in r.
    """
    if not (0 < a < c and gcd(a, c) == 1):
        raise ValueError("need 0 < a < c with gcd(a,c) = 1")
    if c <= 2:
        raise ValueError("need c > 2")
    if k < 1:
        raise ValueError("k must be >= 1")
    g = gcd(c, k)
    c1, k1 = c // g, k // g
    if c1 == 1:
        raise ValueError("secondary terms require c not dividing k")
    l = a * k1 % c1
    if c1 == 4 or c1 < 4 * l < 3 * c1:
        return 0, []
    sign = 1 if 4 * l < c1 else -1
    y, l = divmod(sign * a * k1, c1)
    terms = []
    r = 0
    while (num := (c1 - 4 * l) ** 2 - 16 * r * l * c1) > 0:
        terms.append((Fraction(num, 16 * c1 * c1), Fraction(-y * (2 * y + 1 + 2 * r), 2)))
        r += 1
    return sign, terms


def arc_plan(a: int, c: int, n: int) -> list[tuple[int, int, list | None]]:
    """The arcs of the main terms of `a_asymptotic(a, c, n)` in walk order: odd
    k <= sqrt(n) with c | k as (k, 1, None), then the other odd k as (k, sign,
    [(delta_r, e_r), ...]) from `secondary_terms`, e_r = 2*m_r mod k being the
    coefficient of h' in D's phase; a mid-branch arc is (k, 0, []).  Each part
    ascends in k, and the k sequence depends on c and n alone."""
    if not (0 < a < c and gcd(a, c) == 1):
        raise ValueError("need 0 < a < c with gcd(a,c) = 1")
    if c <= 2:
        raise ValueError("need c > 2")
    if n < 1:
        raise ValueError("n must be >= 1")
    kmax = isqrt(n)
    plan = [(k, 1, None) for k in range(c, kmax + 1, c) if k % 2]
    for k in range(1, kmax + 1, 2):
        if k % c:
            sign, rterms = secondary_terms(a, c, k)
            plan.append((k, sign, [(d, int(2 * m) % k) for d, m in rterms]))
    return plan


def _add(xm: int, xe: int, ym: int, ye: int, prec: int,
         down: bool = False) -> tuple[int, int]:
    """x + y rounded to prec bits as libmp's mpf_add rounds it: to nearest with
    ties to even, or toward zero when down.  With y = (0, 0) it rounds x alone.

    The result is normalized: an odd mantissa, or (0, 0).  Like mpf_add, when
    the exponents differ by more than 100 and the larger operand's top bit
    lies more than prec + 4 bits above the other's, the smaller one only
    perturbs the larger by a sticky +-1 at 2**-(prec + 4) of its mantissa.
    Those offsets read normalized exponents, which is why every rounding
    strips trailing zeros.
    """
    if xm and ym:
        offset = xe - ye
        if offset < 0:
            xm, xe, ym, ye, offset = ym, ye, xm, xe, -offset
        if offset > 100 and xm.bit_length() + xe - ym.bit_length() - ye > prec + 4:
            xm, xe = (xm << (prec + 4)) + (1 if ym > 0 else -1), xe - prec - 4
        else:
            xm, xe = (xm << offset) + ym, ye
    elif ym:
        xm, xe = ym, ye
    if not xm:
        return 0, 0
    neg = xm < 0
    if neg:
        xm = -xm
    n = xm.bit_length() - prec
    if n > 0:
        if down:
            xm >>= n
        else:
            t = xm >> (n - 1)
            if t & 1 and (t & 2 or xm & ((1 << (n - 1)) - 1)):
                xm = (t >> 1) + 1
            else:
                xm = t >> 1
        xe += n
    if not xm & 1:
        z = (xm & -xm).bit_length() - 1
        xm >>= z
        xe += z
    return (-xm if neg else xm), xe


def _div(xm: int, xe: int, ym: int, ye: int, prec: int) -> tuple[int, int]:
    """x / y rounded to nearest at prec bits, as libmp's mpf_div rounds it."""
    neg = (xm < 0) != (ym < 0)
    xm, ym = abs(xm), abs(ym)
    extra = max(prec - xm.bit_length() + ym.bit_length() + 5, 5)
    quot, rem = divmod(xm << extra, ym)
    if rem:
        # a sticky bit below the quotient's last bit stands for the remainder
        quot = quot << 1 | 1
        extra += 1
    return _add(-quot if neg else quot, xe - ye - extra, 0, 0, prec)


def _cmul(z: tuple, w: tuple, prec: int) -> tuple:
    """z * w as libmp's mpc_mul: exact products, each part rounded once.

    A complex value is (re mantissa, re exponent, im mantissa, im exponent);
    see `_from_mpc`.
    """
    am, ae, bm, be = z
    cm, ce, dm, de = w
    return (_add(am * cm, ae + ce, -bm * dm, be + de, prec)
            + _add(am * dm, ae + de, bm * cm, be + ce, prec))


def _cadd(z: tuple, w: tuple, prec: int) -> tuple:
    """z + w as libmp's mpc_add."""
    return _add(z[0], z[1], w[0], w[1], prec) + _add(z[2], z[3], w[2], w[3], prec)


def _cdiv_real(z: tuple, xm: int, xe: int, prec: int) -> tuple:
    """z / x for real x, as libmp's mpc_div_mpf."""
    return _div(z[0], z[1], xm, xe, prec) + _div(z[2], z[3], xm, xe, prec)


def _cdiv(z: tuple, w: tuple, prec: int) -> tuple:
    """z / w as libmp's mpc_div.  Its sums c^2 + d^2, ac + bd and bc - ad are taken
    at prec + 10 bits in libmp's default rounding, toward zero, not to nearest."""
    am, ae, bm, be = z
    cm, ce, dm, de = w
    wp = prec + 10
    mag = _add(cm * cm, 2 * ce, dm * dm, 2 * de, wp, True)
    return (_div(*_add(am * cm, ae + ce, bm * dm, be + de, wp, True), *mag, prec)
            + _div(*_add(bm * cm, be + ce, -am * dm, ae + de, wp, True), *mag, prec))


def _from_mpf(x: tuple) -> tuple[int, int]:
    """A libmp mpf as (signed odd mantissa, exponent); zero is (0, 0)."""
    sign, man, exp, _ = x
    return (-man if sign else man), exp


def _from_mpc(z: tuple) -> tuple:
    """A libmp complex value as (re mantissa, re exponent, im mantissa, im exponent)."""
    return _from_mpf(z[0]) + _from_mpf(z[1])


def _conjugate(z: tuple) -> tuple:
    return z[0], z[1], -z[2], z[3]


def _to_mpc(z: tuple) -> mpc:
    return mp.make_mpc((from_man_exp(z[0], z[1]), from_man_exp(z[2], z[3])))


def _multipliers(k: int, prec: int) -> list[tuple[int, int, tuple]]:
    """(h, h', omega_{h,k}^2 / omega_{2h,k}) per coprime residue h of odd k, the
    ratio an integer pair (see `_from_mpc`) with mpc's operators' bits at prec.

    s(h',k) = s(h,k) and s(k-h,k) = -s(h,k), and every rounding on the way (the
    quotient, cos/sin, the square, the division) is symmetric under negation.
    So omega is evaluated once per class {h, h', k-h, k-h'}: h' gets the very
    bits of h, and k-h, k-h' their exact conjugate.  The ratio is evaluated
    for h < k/2 and conjugated for k-h; 2h mod k runs over the same h.  The
    square `_cmul(w, w)` has mpc_pow_int's bits (doubling commutes with rounding,
    so its 2*round(ab) is round(2ab)), and the quotient mpc_div's (see `_cdiv`).
    """
    hs = coprime_residues(k)
    inverse = {h: mod_inverse(h, k) for h in hs}
    om: dict[int, tuple] = {}
    for h in hs:
        if h not in om:
            w = _from_mpc(omega(h, k, prec)._mpc_)
            # conjugates first; where they meet h's own entry (k = 1, or h' = k-h,
            # so s(h,k) = 0), w is real and they have its bits
            om[-h % k] = om[-inverse[h] % k] = _conjugate(w)
            om[h] = om[inverse[h]] = w
    ratio = {h: _cdiv(_cmul(om[h], om[h], prec), om[2 * h % k], prec) for h in hs if 2 * h < k}
    return [(h, inverse[h], ratio[h] if 2 * h < k else _conjugate(ratio[k - h]))
            for h in hs]


class KernelTables:
    """Values that calls of `kloosterman_B` and `kloosterman_D` share.

    One table serves the calls for modulus c at kernel precision prec; its
    entries are integer pairs (see `_from_mpc`) with the bits of the libmp
    values at the kernels' working precision wp = prec + 10, taken by
    `_cos_sin_pi` at wp, not at mp.prec.  It keeps the multipliers and the
    linear phases of one arc k, dropped as soon as a call moves to another
    arc; it keeps sin(pi*x/c) by x = a*h' and the quadratic phase
    exp(-pi*i*r/c) by r mod 2c for as long as it lives.  The multipliers take
    one omega per class {h, h', k-h, k-h'} (see `_multipliers`).  A linear
    phase is keyed by num mod k, so one memo serves every residue and r-term of
    an arc.  Every entry has the bits a call would compute for itself.
    """

    def __init__(self, c: int, prec: int):
        self.c, self.prec, self.wp = c, prec, prec + 10
        self.k: int | None = None
        self.multipliers: list[tuple[int, int, tuple]] = []
        self.phases: dict[int, tuple] = {}
        self.sines: dict[int, tuple] = {}
        self.quads: dict[int, tuple] = {}

    def enter(self, k: int) -> list[tuple[int, int, tuple]]:
        """The multipliers of arc k, built on the first call at k."""
        if k != self.k:
            # drop the last arc's tables before building this one's
            self.k, self.multipliers, self.phases = None, [], {}
            self.multipliers, self.k = _multipliers(k, self.wp), k
        return self.multipliers

    def phase(self, num: int) -> tuple:
        """exp(2*pi*i*num/k) for the arc k entered last, at the working precision,
        evaluated once per num mod k.  Doubling commutes with rounding, so the
        value has the bits of mp.expjpi(2*mpf(num % k)/k)."""
        key = num % self.k
        value = self.phases.get(key)
        if value is None:
            value = self.phases[key] = _from_mpc(_cos_sin_pi(2 * key, self.k, self.wp))
        return value

    def sine(self, x: int) -> tuple[int, int]:
        """sin(pi*x/c) at the working precision, as (mantissa, exponent)."""
        value = self.sines.get(x)
        if value is None:
            value = self.sines[x] = _from_mpf(_cos_sin_pi(x, self.c, self.wp)[1])
        return value

    def quad(self, r: int) -> tuple:
        """exp(-pi*i*r/c) at the working precision, for 0 <= r < 2c."""
        value = self.quads.get(r)
        if value is None:
            # -mpf(r)/c rounds as mpf(-r)/c: rounding to nearest is symmetric
            value = self.quads[r] = _from_mpc(_cos_sin_pi(-r, self.c, self.wp))
        return value


def _checked_tables(a: int, c: int, tables: KernelTables | None, prec: int) -> KernelTables:
    """Check (a, c) and return `tables`, made for modulus c at prec, or fresh ones."""
    if gcd(a, c) != 1 or not 0 < a < c:
        raise ValueError("need 0 < a < c coprime")
    tables = KernelTables(c, prec) if tables is None else tables
    if (tables.c, tables.prec) != (c, prec):
        raise ValueError("tables made for another modulus or precision")
    return tables


def _scale(total: tuple, sign: int, a: int, c: int, prec: int) -> mpc:
    """total * sign/sqrt(2) * tan(pi*a/c) at the working precision, rounded to prec bits."""
    with mp.workprec(prec + 10):
        total = _to_mpc(total) * (sign / mp.sqrt(2) * mp.tan(mp.pi * a / c))
    with mp.workprec(prec):
        return +total


def kloosterman_B(a: int, c: int, k: int, n: int, prec: int = DEFAULT_PRECISION, *,
                  tables: KernelTables | None = None) -> mpc:
    """Sine-weighted Kloosterman-type sum over c | k with k odd.

    Each term carries omega_{h,k}^2 / omega_{2h,k}, 1/sin(pi*a*h'/c), the
    quadratic Gauss-type phase in a^2*k1*(c-2)*h'/c, and exp(2*pi*i*n*h/k).
    k odd guarantees gcd(2h,k) = 1; c | k guarantees gcd(h',c) = 1 so the
    sine never vanishes.  The multipliers, linear phases, sines and
    quadratic phases come from `tables` (fresh ones by default); a quadratic
    phase depends only on its exponent's residue mod 2c, so a table holds at
    most 2c of them.
    """
    if k % c != 0 or k % 2 == 0:
        raise ValueError("kloosterman_B requires c | k with k odd")
    tables = _checked_tables(a, c, tables, prec)
    quad_coeff = a * a * (k // c) * (c - 2)
    wp, phase = tables.wp, tables.phase
    total = (0, 0, 0, 0)
    for h, hp, w in tables.enter(k):
        term = _cdiv_real(w, *tables.sine(a * hp), wp)
        term = _cmul(term, tables.quad(quad_coeff * hp % (2 * c)), wp)
        term = _cmul(term, phase(n * h), wp)
        total = _cadd(total, term, wp)
    return _scale(total, 1, a, c, prec)


def kloosterman_D(a: int, c: int, k: int, n: int, e: int, region_sign: int,
                  prec: int = DEFAULT_PRECISION, *,
                  tables: KernelTables | None = None) -> mpc:
    """Secondary Kloosterman-type sum over c not dividing k, k odd.

    Each term carries omega_{h,k}^2 / omega_{2h,k} and exp(2*pi*i*(n*h + e*h')/k);
    e is the integer coefficient of h' that `arc_plan` gives an r-term of the
    arc, and region_sign the arc's sign: +1 on the low branch, -1 on the high
    one.  The multipliers and phases come from `tables` (fresh ones by default).
    """
    if k % c == 0 or k % 2 == 0:
        raise ValueError("kloosterman_D requires c not dividing k, k odd")
    if region_sign not in (1, -1):
        raise ValueError("region_sign must be +1 or -1")
    if not isinstance(e, int):
        raise ValueError(f"e must be an int, the coefficient of h' mod k, not {e!r}")
    tables = _checked_tables(a, c, tables, prec)
    wp, phase = tables.wp, tables.phase
    total = (0, 0, 0, 0)
    for h, hp, w in tables.enter(k):
        total = _cadd(total, _cmul(w, phase(n * h + e * hp), wp), wp)
    return _scale(total, region_sign, a, c, prec)
