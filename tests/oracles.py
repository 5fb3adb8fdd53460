"""Slow reference paths, kept only as test oracles for `overrank`.

The counting oracles are direct and independent of the generating functions
the library uses: the truncated product for the overpartition series, and
the O(c N^2) dynamic program over the largest part for the rank-class table.
With the brute-force enumeration `overrank.counts.brute_force_rank_counts`,
they are what the production counts are checked against.  The sweep oracle
compares every pair of the subadditivity triangle exactly, with no row
pruning; `overrank.verify.verify_subadditivity` is checked against it.  The
Dedekind oracles sum s(h,k) from its definition, in O(k) per value, to check
the reciprocity-law recursion `overrank.modsums.dedekind_sum`.  The
multiplier classes close each residue under inversion and negation, to count
the omegas the kernels evaluate.  The Kloosterman oracles evaluate every
summand of B and D on its own: two omegas, a fresh quadratic phase and a
`Fraction` linear phase per summand.  The production kernels share these
values and must match them bit for bit.
The per-residue estimate oracles are the main-term loops as they stood
before the arc walk: one pass over the arcs per residue, every kernel call
with fresh tables; `overrank.asymptotic` must match them bit for bit.
The raw error aggregate sums the un-simplified error-piece bounds, to check
that `overrank.bounds.error_pieces` dominates them.  The per-term series
constant takes one exponential per term at nearest rounding, the loop
`overrank.bounds.const_C` replaced with upward-rounded integer Horner sums.
"""

import math
from fractions import Fraction

import numpy as np
from mpmath import mp, mpc, mpf

from overrank.asymptotic import AsymptoticEstimate, engel_pbar
from overrank.bounds import CertifiedConstant, _series_params, _tail_integral
from overrank.counts import RankClassTable
from overrank.modsums import (DEFAULT_PRECISION, context, coprime_residues, delta,
                              kloosterman_B, kloosterman_D, m_param, mod_inverse, omega)


def pbar_series_product(n_max: int) -> list[int]:
    """Coefficients of prod_{v>=1} (1+q^v)/(1-q^v) through degree n_max.

    Plain truncated product: one ascending and one descending in-place pass
    per factor, all integer.
    """
    f = [0] * (n_max + 1)
    f[0] = 1
    for v in range(1, n_max + 1):
        # multiply by (1 + q^v)
        for k in range(n_max, v - 1, -1):
            f[k] += f[k - v]
        # multiply by 1/(1 - q^v)
        for k in range(v, n_max + 1):
            f[k] += f[k - v]
    return f


def rank_class_table_dp(n_max: int, c: int) -> RankClassTable:
    """Count overpartitions of each n <= n_max by rank residue mod c.

    DP over the largest part v.  State: partitions using parts < v, keyed by
    (sum, number-of-parts mod c); each part value present picks up the
    overline factor 2.  For largest part exactly v with multiplicity m >= 1
    and w = (#parts) mod c, the rank class is (v - w) mod c.  The geometric
    recurrence over m keeps the whole build at O(c * n_max^2) integer adds.
    """
    N = n_max + 1
    # column layout during the build: cls[t][s], prefix[t][s]
    cls = [[0] * N for _ in range(c)]
    cls[0][0] = 1  # empty overpartition has rank 0
    prefix = [[0] * N for _ in range(c)]
    prefix[0][0] = 1
    for v in range(1, N):
        # G[w][s] = sum_{m>=1} prefix[(w-m) mod c][s - m*v]
        G = [[0] * N for _ in range(c)]
        for s in range(v, N):
            sv = s - v
            for w in range(c):
                wp = (w - 1) % c
                G[w][s] = prefix[wp][sv] + G[wp][sv]
        for w in range(c):
            dst = cls[(v - w) % c]
            src = G[w]
            for s in range(v, N):
                g = src[s]
                if g:
                    dst[s] += g + g
        for w in range(c):
            dst = prefix[w]
            src = G[w]
            for s in range(v, N):
                g = src[s]
                if g:
                    dst[s] += g + g
    counts = [[cls[r][n] for r in range(c)] for n in range(N)]
    return RankClassTable(c=c, n_max=n_max, counts=counts)


def sweep_oracle(vals: list[int], n_lo: int, n_hi: int):
    """Violations and exact min margin of vals[n1+n2] < vals[n1]*vals[n2].

    Every pair n_lo <= n1 <= n2 <= n_hi is compared in integers, and the
    minimal margin rhs/lhs over pairs with lhs > 0 is kept by
    cross-multiplication; no float enters.  Returns (violations,
    min_margin), violations as sorted (n1, n2, lhs, rhs).
    """
    violations = []
    best = None  # (rhs, lhs) of the smallest margin so far
    for n1 in range(n_lo, n_hi + 1):
        for n2 in range(n1, n_hi + 1):
            lhs = vals[n1 + n2]
            rhs = vals[n1] * vals[n2]
            if lhs >= rhs:
                violations.append((n1, n2, lhs, rhs))
            if lhs and (best is None or rhs * best[1] < best[0] * lhs):
                best = (rhs, lhs)
    return violations, (None if best is None else Fraction(*best))


def dedekind_sum_direct(h: int, k: int) -> Fraction:
    """s(h,k) = sum_{u mod k} ((u/k)) ((hu/k)), exactly.

    Inner loop in plain integers: ((u/k)) = (2u - k)/(2k) for 0 < u < k,
    and hu mod k never vanishes when gcd(h,k) = 1.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    h %= k
    if math.gcd(h, k) != 1:
        raise ValueError("h and k must be coprime")
    acc = 0
    for u in range(1, k):
        v = (h * u) % k
        acc += (2 * u - k) * (2 * v - k)
    return Fraction(acc, 4 * k * k)


def dedekind_sums_direct_row(k: int) -> dict[int, Fraction]:
    """s(h,k) for every 0 <= h < k coprime to k, from one (h x u) matrix.

    The same integer sum as `dedekind_sum_direct`, taken for all h at once
    in int64: each entry (2u - k)(2v - k) is below k^2 in magnitude and a
    row sums k - 1 of them, so |acc| < k^3 and nothing overflows for
    k < 2^21.
    """
    if not 1 <= k < 1 << 21:
        raise ValueError("need 1 <= k < 2^21")
    hs = [h for h in range(k) if math.gcd(h, k) == 1]
    u = np.arange(1, k, dtype=np.int64)
    v = (np.array(hs, dtype=np.int64)[:, None] * u) % k
    acc = (2 * v - k) @ (2 * u - k)
    return {h: Fraction(int(x), 4 * k * k) for h, x in zip(hs, acc)}


def multiplier_classes(k: int) -> list[set[int]]:
    """The classes {h, h', k-h, k-h'} of the coprime residues of k, h' = h^-1 mod k,
    each grown by inversion and negation until it is closed."""
    classes: list[set[int]] = []
    seen: set[int] = set()
    for h in coprime_residues(k):
        if h in seen:
            continue
        cls = {h}
        while (grown := cls | {pow(x, -1, k) for x in cls} | {-x % k for x in cls}) != cls:
            cls = grown
        classes.append(cls)
        seen |= cls
    return classes


def rational_phase(x: Fraction, prec: int = DEFAULT_PRECISION) -> mpc:
    """exp(2*pi*i*x) for rational x, with x reduced mod 1 before evaluation."""
    x = Fraction(x)
    x -= x.numerator // x.denominator
    with mp.workprec(prec):
        return mp.expjpi(2 * mpf(x.numerator) / x.denominator)


def kloosterman_B_direct(a: int, c: int, k: int, n: int,
                         prec: int = DEFAULT_PRECISION) -> mpc:
    """`overrank.modsums.kloosterman_B`, one independent evaluation per summand."""
    if k % c != 0 or k % 2 == 0:
        raise ValueError("kloosterman_B requires c | k with k odd")
    if math.gcd(a, c) != 1 or not 0 < a < c:
        raise ValueError("need 0 < a < c coprime")
    k1 = k // c
    with mp.workprec(prec + 10):
        total = mpc(0)
        for h in coprime_residues(k):
            hp = mod_inverse(h, k)
            w = omega(h, k, prec + 10) ** 2 / omega((2 * h) % k, k, prec + 10)
            term = w / mp.sinpi(mpf(a * hp) / c)
            term *= mp.expjpi(-mpf((a * a * k1 * (c - 2) * hp) % (2 * c)) / c)
            term *= rational_phase(Fraction(n * h, k), prec + 10)
            total += term
        total *= 1 / mp.sqrt(2) * mp.tan(mp.pi * a / c)
    with mp.workprec(prec):
        return +total


def kloosterman_D_direct(a: int, c: int, k: int, n: int, m: Fraction, region_sign: int,
                         prec: int = DEFAULT_PRECISION) -> mpc:
    """`overrank.modsums.kloosterman_D`, one independent evaluation per summand."""
    if k % c == 0 or k % 2 == 0:
        raise ValueError("kloosterman_D requires c not dividing k, k odd")
    if region_sign not in (1, -1):
        raise ValueError("region_sign must be +1 or -1")
    if math.gcd(a, c) != 1 or not 0 < a < c:
        raise ValueError("need 0 < a < c coprime")
    m = Fraction(m)
    m_eff = 2 * m
    with mp.workprec(prec + 10):
        total = mpc(0)
        for h in coprime_residues(k):
            hp = mod_inverse(h, k)
            w = omega(h, k, prec + 10) ** 2 / omega((2 * h) % k, k, prec + 10)
            total += w * rational_phase(Fraction(n * h, k) + m_eff * Fraction(hp, k),
                                        prec + 10)
        total *= region_sign / mp.sqrt(2) * mp.tan(mp.pi * a / c)
    with mp.workprec(prec):
        return +total


def a_asymptotic_per_residue(a: int, c: int, n: int,
                             prec: int = DEFAULT_PRECISION) -> AsymptoticEstimate:
    """`overrank.asymptotic.a_asymptotic`, walking the arcs for this residue alone."""
    kmax = math.isqrt(n)
    terms: list[tuple[int, mpc]] = []
    with mp.workprec(prec + 20):
        root = mp.sqrt(mpf(2) / n)
        total = mpc(0)
        # sine-weighted sum: c | k, k odd
        for k in range(c, kmax + 1, c):
            if k % 2 == 0:
                continue
            B = kloosterman_B(a, c, k, -n, prec + 20)
            t = mpc(0, 1) * root * B / mp.sqrt(k) * mp.sinh(mp.pi * mp.sqrt(n) / k)
            terms.append((k, t))
            total += t
        # secondary sum: c not dividing k, k odd, c1 != 4, r >= 0 with delta > 0
        for k in range(1, kmax + 1):
            if k % 2 == 0 or k % c == 0:
                continue
            ctx = context(a, c, k)
            if ctx.c1 == 4 or ctx.region == "mid":
                continue
            sign = 1 if ctx.region == "low" else -1
            tk = mpc(0)
            r = 0
            while True:
                d = delta(ctx, r)
                if d <= 0:
                    break
                m = m_param(ctx, r)
                D = kloosterman_D(a, c, k, -n, m, sign, prec + 20)
                tk += (2 * root * D / mp.sqrt(k)
                       * mp.sinh(4 * mp.pi * mp.sqrt(mpf(d.numerator) / d.denominator * n) / k))
                r += 1
            if tk != 0:
                terms.append((k, tk))
                total += tk
    with mp.workprec(prec):
        return AsymptoticEstimate(value=+total.real,
                                  imag_residual=+abs(total.imag),
                                  k_terms=[(k, +t) for k, t in terms],
                                  precision_bits=prec)


def nbar_asymptotic_per_residue(a: int, c: int, n: int,
                                prec: int = DEFAULT_PRECISION) -> AsymptoticEstimate:
    """`overrank.asymptotic.nbar_asymptotic`, one `a_asymptotic_per_residue` per j."""
    with mp.workprec(prec + 20):
        total = mpc(engel_pbar(n, prec + 20).estimate) / c
        terms: list[tuple[int, mpc]] = []
        for j in range(1, c):
            g = math.gcd(j, c)
            est = a_asymptotic_per_residue(j // g, c // g, n, prec + 20)
            contrib = (mp.expjpi(mpf(-2 * ((a * j) % c)) / c) * est.value) / c
            terms.append((j, contrib))
            total += contrib
    with mp.workprec(prec):
        return AsymptoticEstimate(value=+total.real,
                                  imag_residual=+abs(total.imag),
                                  k_terms=[(j, +t) for j, t in terms],
                                  precision_bits=prec)


def raw_error_aggregate(c: int, n: int, certified: dict[int, mpf],
                        prec: int = DEFAULT_PRECISION) -> mpf:
    """Sum of the un-simplified piece bounds with certified C-values plugged in.

    Uses the exact cotangent and logarithm factors, and the closed k-sum
    bound sum_k k^{-1/2} <= 2 n^{1/4}.  `certified` maps index -> upper value
    (from const_C or the closed-form majorants).
    """
    with mp.workprec(prec + 10):
        nn = mpf(n)
        pi = mp.pi
        cot = mp.cospi(mpf(1) / (2 * c)) / mp.sinpi(mpf(1) / (2 * c))
        ksum = 2 * nn ** mpf("0.25")
        e2pi = mp.exp(2 * pi)
        e2pi8 = mp.exp(2 * pi + pi / 8)
        logf = (1 + mp.log(mpf(c - 1) / 2)) / (pi * (1 - pi ** 2 / 24))
        s78 = (nn ** mpf("0.75") * mp.log(nn / 4)
               / (2 * pi * (1 - pi ** 2 / 24) * mp.sinpi(mpf(1) / c)))
        i_coef = (mpf(4) / 3 + 2 ** mpf("1.25")) * e2pi8 * cot * logf
        total = (
            4 * certified[3] * e2pi * cot * ksum                      # S1
            + 4 * certified[1] * e2pi * mp.sqrt(2) * cot * ksum       # S2
            + 2 * certified[4] * e2pi * cot * ksum                    # S3
            + certified[5] * e2pi * cot * ksum                        # S4
            + certified[2] * e2pi * mp.sqrt(2) * cot * ksum           # S5
            + certified[2] * e2pi / mp.sqrt(2) * cot * ksum           # S6
            + 2 * s78                                                 # S7 + S8
            + 4 * mp.sqrt(2) * e2pi8 * cot * logf / mp.sqrt(nn) * ksum  # S2,5,6 err
            + 8 * mp.sqrt(2) * i_coef * nn ** mpf("0.25")             # I2,5,6 err
        )
    with mp.workprec(prec):
        return +total


def const_C_per_term(index: int, c: int | None, pbar: list[int], rel_tol: float = 1e-15,
                     prec: int = DEFAULT_PRECISION) -> CertifiedConstant:
    """C_index summed term by term: pbar(i) * e^{-alpha i}, each exp of its own.

    Same chunks, truncation rule, tail, scale and padding as
    `overrank.bounds.const_C`; every operation rounds to nearest at prec+20 bits.
    """
    with mp.workprec(prec + 20):
        q, scale = _series_params(index, c)
        alpha = q.numerator * mp.pi / q.denominator
        r_min = int(mp.ceil((mp.pi / (2 * alpha)) ** 2)) + 1
        partial = mpf(0)
        r = 0
        chunk = max(64, r_min // 8)
        while True:
            hi = min(r + chunk, len(pbar) - 1)
            for i in range(r + 1, hi + 1):
                partial += pbar[i] * mp.exp(-alpha * i)
            r = hi
            if r >= r_min:
                tail = _tail_integral(r, alpha)
                if tail <= mpf(rel_tol) * partial:
                    break
            if r >= len(pbar) - 1:
                raise ValueError(f"series for C{index} needs exact counts beyond r={r}")
        partial *= scale
        tail *= scale
    with mp.workprec(prec):
        upper = +(partial + tail)
        upper += abs(upper) * mpf(2) ** (4 - prec)
        return CertifiedConstant(index=index, c=c, upper=+upper,
                                 partial=+partial, tail_bound=+tail, truncation=r)
