"""Main-term asymptotics for the rank-class deviation coefficients.

The coefficients are A(a/c;n) = sum_r counts[n][r] zeta_c^{a r}.  `a_exact`
evaluates one from a row of exact counts; `a_asymptotic` evaluates the two
main sums of its circle-method expansion: a sine-weighted sum over arc
denominators k with c | k, k odd, and a secondary sum over odd k with c not
dividing k, one term per (delta_r, m_r) that `modsums.secondary_terms` lists
for the arc.  The unevaluated remainder is bounded
elsewhere (see bounds); here it is simply left out.

Both sums run in one walk over the arcs that serves every residue of one
modulus at once: the B arcs ascending, then the D arcs ascending, with one
`KernelTables` shared by all kernel calls (one arc's multipliers and linear
phases at a time, the sines for the whole walk).  `nbar_asymptotic` walks
once per reduced denominator.  Each residue's terms are still added in the
order of a walk of its own, so sharing changes no output bit.

Everything is computed fully complex; the imaginary part of the result is
reported as a residual, never silently dropped.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from math import gcd, isqrt

from mpmath import mp, mpc, mpf

from . import DEFAULT_PRECISION
from .counts import RankClassTable
from .modsums import KernelTables, kloosterman_B, kloosterman_D, secondary_terms

__all__ = [
    "AsymptoticEstimate",
    "EngelEstimate",
    "a_asymptotic",
    "a_exact",
    "engel_pbar",
    "nbar_asymptotic",
]


@dataclass
class AsymptoticEstimate:
    """Real main-term value plus bookkeeping.

    k_terms lists (k, complex contribution) for `a_asymptotic` and (j, complex
    contribution) for `nbar_asymptotic`; their sum is value + i * residual
    components.  imag_residual is the magnitude of the discarded imaginary
    part; large residuals are a red flag, not an assertion failure.
    precision_bits is the working precision requested, not an accuracy
    claim: cancellation inside the arc sums can cost more than the guard
    bits cover.  At (a, c, n) = (2, 5, 40120) the 160-bit value,
    -255.57274272..., agrees with the 400-bit one, -255.57269081..., to only
    22.2 bits, so 6 of its 20 printed digits are right (69 bits at
    (2, 5, 40100)).  There every B arc vanishes identically; the computed
    values are rounding noise, which a sinh of about 10^54 multiplies
    (ROADMAP item 12).
    """

    value: mpf
    imag_residual: mpf
    k_terms: list[tuple[int, mpc]] = field(default_factory=list)
    precision_bits: int = DEFAULT_PRECISION


def a_exact(j: int, c: int, n: int, table: RankClassTable, prec: int = DEFAULT_PRECISION) -> mpc:
    """Evaluate sum_r counts[n][r] * zeta_c^{j r} in high precision.

    The integers in the table may need more mantissa bits than `prec`; the
    evaluation runs at enough bits to represent them exactly and rounds only
    at the end, so precision is never silently lost to the data.
    """
    if table.c != c:
        raise ValueError("table modulus mismatch")
    if not 0 <= j < c:
        raise ValueError("j out of range")
    if not 0 <= n <= table.n_max:
        raise ValueError("n out of table range")
    row = table.row(n)
    data_bits = max(v.bit_length() for v in row)
    work = max(prec, data_bits + prec // 2 + 16)
    with mp.workprec(work):
        total = mpc(0)
        for r, v in enumerate(row):
            if v:
                total += v * mp.expjpi(mpf(2 * ((j * r) % c)) / c)
    with mp.workprec(prec):
        return +total


def a_asymptotic(a: int, c: int, n: int,
                 prec: int = DEFAULT_PRECISION) -> AsymptoticEstimate:
    """Main terms of the deviation coefficient for rank residue a mod c at n.

    Arc denominators run over odd 1 <= k <= sqrt(n): the sine-weighted sum
    B over c | k, and the secondary sum D over c not dividing k, one term per
    (delta_r, m_r) of `secondary_terms(a, c, k)`.  Each k's complex
    contribution is kept in k_terms.
    """
    if not (0 < a < c and gcd(a, c) == 1):
        raise ValueError("need 0 < a < c with gcd(a,c) = 1")
    if c <= 2:
        raise ValueError("need c > 2")
    if n < 1:
        raise ValueError("n must be >= 1")
    totals, terms = _arc_walk((a,), c, n, prec)
    with mp.workprec(prec):
        return AsymptoticEstimate(value=+totals[a].real,
                                  imag_residual=+abs(totals[a].imag),
                                  k_terms=[(k, +t) for k, t in terms[a]],
                                  precision_bits=prec)


def _arc_walk(residues, c: int, n: int, prec: int):
    """Unrounded main-term totals of `a_asymptotic(a, c, n, prec)` for every a in
    residues, in one walk over the arcs, and each a's k-terms.

    At each arc every residue's kernel calls share one KernelTables; each
    residue's total sums its own k-terms in arc order, as in a walk of its own.
    """
    kmax = isqrt(n)
    terms: dict[int, list[tuple[int, mpc]]] = {a: [] for a in residues}
    tables = KernelTables(c, prec + 20)
    with mp.workprec(prec + 20):
        root = mp.sqrt(mpf(2) / n)
        # sine-weighted sum: c | k, k odd
        for k in range(c, kmax + 1, c):
            if k % 2 == 0:
                continue
            sqrt_k = mp.sqrt(k)
            growth = mp.sinh(mp.pi * mp.sqrt(n) / k)
            for a in residues:
                B = kloosterman_B(a, c, k, -n, prec + 20, tables=tables)
                t = mpc(0, 1) * root * B / sqrt_k * growth
                terms[a].append((k, t))
        # secondary sum: c not dividing k, k odd, one term per (delta_r, m_r)
        for k in range(1, kmax + 1, 2):
            if k % c == 0:
                continue
            sqrt_k = mp.sqrt(k)
            for a in residues:
                sign, rterms = secondary_terms(a, c, k)
                tk = mpc(0)
                for d, m in rterms:
                    D = kloosterman_D(a, c, k, -n, m, sign, prec + 20, tables=tables)
                    tk += (2 * root * D / sqrt_k
                           * mp.sinh(4 * mp.pi * mp.sqrt(mpf(d.numerator) / d.denominator * n) / k))
                if tk != 0:
                    terms[a].append((k, tk))
        totals = {a: sum((t for _, t in terms[a]), mpc(0)) for a in residues}
    return totals, terms


@dataclass
class EngelEstimate:
    """Two-arc estimate of the overpartition count with a certified remainder."""

    n: int
    estimate: mpf
    certified_bound: mpf
    precision_bits: int = DEFAULT_PRECISION


def engel_pbar(n: int, prec: int = DEFAULT_PRECISION) -> EngelEstimate:
    """Estimate the overpartition count from the first two odd arc terms.

    Arc k=1 gives (1/8n)[(1+1/(pi sqrt n))e^{-pi sqrt n}+(1-1/(pi sqrt n))e^{pi sqrt n}].
    Arc k=3 carries the multiplier sum 2 cos(pi/6 - 2 pi n/3) and the same
    derivative kernel at argument pi sqrt(n)/3.  The certified remainder
    bound is 3^{5/2} sinh(pi sqrt(n)/3) / (pi n^{3/2}); without the k=3 arc
    the exact count falls outside it for most n >= 434.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    with mp.workprec(prec + 10):
        s = mp.sqrt(mpf(n))
        est = (mpf(1) / (8 * n)) * ((1 + 1 / (mp.pi * s)) * mp.exp(-mp.pi * s)
                                    + (1 - 1 / (mp.pi * s)) * mp.exp(mp.pi * s))
        mult = 2 * mp.cospi(mpf(1) / 6 - mpf(2 * (n % 3)) / 3)
        est += mult * (mp.sqrt(3) * mp.cosh(mp.pi * s / 3) / (12 * n)
                       - mp.sqrt(3) * mp.sinh(mp.pi * s / 3) / (4 * mp.pi * n * s))
        bound = mpf(3) ** mpf("2.5") / (mp.pi * mpf(n) ** mpf("1.5")) * mp.sinh(mp.pi * s / 3)
    with mp.workprec(prec):
        return EngelEstimate(n=n, estimate=+est, certified_bound=+bound,
                             precision_bits=prec)


def nbar_asymptotic(a: int, c: int, n: int,
                    prec: int = DEFAULT_PRECISION) -> AsymptoticEstimate:
    """Estimate the rank-class count N(a,c,n) via the orthogonality identity.

    (1/c) * engel estimate + (1/c) * sum_{j=1}^{c-1} zeta_c^{-aj} A_est(j/c;n),
    reducing each j/c to lowest terms and walking the arcs once for all j
    with the same reduced denominator.  Even c would need the coefficient at
    denominator 2, outside this expansion's domain.
    """
    if c <= 2:
        raise ValueError("need c > 2")
    if c % 2 == 0:
        raise ValueError("even modulus reduces some j/c to denominator 2, "
                         "outside the expansion's domain")
    if not 0 <= a < c:
        raise ValueError("need 0 <= a < c")
    by_gcd = defaultdict(list)
    for j in range(1, c):
        by_gcd[gcd(j, c)].append(j)
    with mp.workprec(prec + 20):
        total = mpc(engel_pbar(n, prec + 20).estimate) / c
        values = {}
        for g, js in by_gcd.items():
            # each value rounded as a_asymptotic(j // g, c // g, n, prec + 20) rounds it
            totals, _ = _arc_walk([j // g for j in js], c // g, n, prec + 20)
            values.update((j, +totals[j // g].real) for j in js)
        terms: list[tuple[int, mpc]] = []
        for j in range(1, c):
            contrib = (mp.expjpi(mpf(-2 * ((a * j) % c)) / c) * values[j]) / c
            terms.append((j, contrib))
            total += contrib
    with mp.workprec(prec):
        return AsymptoticEstimate(value=+total.real,
                                  imag_residual=+abs(total.imag),
                                  k_terms=[(j, +t) for j, t in terms],
                                  precision_bits=prec)
