"""Slow reference paths, kept only as test oracles for `overrank`.

The counting oracles are direct and independent of the generating functions
the library uses: the truncated product for the overpartition series, and
the O(c N^2) dynamic program over the largest part for the rank-class table.
With the brute-force enumeration `overrank.counts.brute_force_rank_counts`,
they are what the production counts are checked against.  The row oracle
builds one row of a rank-class table alone, from the per-rank form of
Lovejoy's bracket, so rows deeper than any table a test builds can be
checked exactly.  The per-row cache
writer writes and hashes one row at a time, as `overrank.counts.save_table`
did before it wrote blocks of rows; the bytes must agree.  The regex
cache loader checks each block of rows with one whole-block pattern of its own, as
`overrank.counts.load_table` did before it checked blocks in C-level passes,
and names a refused block's first bad row, or a row after row n_max, with
one-row patterns of its own; both loaders must load the same tables and
refuse the same files with the same message.  The sweep oracle
compares every pair of the subadditivity triangle exactly, with no row
pruning; `overrank.verify.verify_subadditivity` is checked against it.  The
Dedekind oracles sum s(h,k) from its definition, in O(k) per value, to check
the reciprocity-law recursion `overrank.modsums.dedekind_sum`.  The
multiplier classes close each residue under inversion and negation, to count
the omegas the kernels evaluate.  The Kloosterman oracles evaluate every
summand of B and D on its own: two omegas, a fresh quadratic phase and a
`Fraction` linear phase per summand.  The production kernels share these
values and must match them bit for bit.
The arc list builds the arcs of the main terms from those Fraction branch
formulas, to check `overrank.modsums.arc_plan`.
The per-residue estimate oracles are the main-term loops as they stood
before the arc walk: one pass over the arcs per residue, every kernel call
with fresh tables, and each arc's branch, delta and m from Fraction formulas
of their own; `overrank.asymptotic` must match them bit for bit.
The raw error aggregate sums the un-simplified error-piece bounds, to check
that `overrank.bounds.error_pieces` dominates them.  The per-term series
constant takes one exponential per term at nearest rounding, the loop
`overrank.bounds.const_C` replaced with upward-rounded integer Horner sums.
The per-power envelopes take n to a fresh power in every term, where
`overrank.bounds` takes each distinct power once; the bits must agree.
Zuckerman's series for the overpartition count runs on the kernels' own
multiplier ratios, so rounding it to the exact count checks them against
integers.  The auxiliary-inequality grids evaluate every margin on every grid
point, where `overrank.bounds` evaluates each only where its proof puts the
minimum; the records must agree.
"""

import hashlib
import math
import re
import sys
from collections import defaultdict
from fractions import Fraction
from itertools import accumulate, islice
from operator import add, sub

import numpy as np
from mpmath import mp, mpc, mpf

from overrank.asymptotic import AsymptoticEstimate, engel_pbar
from overrank.bounds import (_PIECE_COEFS, TABULATED, CertifiedConstant, _series_params,
                             _tail_integral, cbar2, cbar4)
from overrank.counts import (_BLOCK_ROWS, _CHECKSUM_DOMAIN, TABLE_FORMAT_VERSION,
                             RankClassTable, _checksum_hash, _read_header)
from overrank.modsums import (DEFAULT_PRECISION, KernelTables, _ArcRoots, _multipliers,
                              _to_mpc, kloosterman_B, kloosterman_D, omega)


def units(k: int) -> list[int]:
    """The coprime residues 0 <= h < k of k, in ascending order: the primed-sum index set."""
    return [h for h in range(k) if math.gcd(h, k) == 1]


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
    return RankClassTable(cls)


def save_table_per_row(table: RankClassTable, path) -> None:
    """The cache file of `table`, one write and one hash update per row."""
    h = hashlib.sha256(f"{_CHECKSUM_DOMAIN}:{table.c}:{table.n_max}".encode())
    with open(path, "wb") as fh:
        fh.write(f"rank-class-table format_version={TABLE_FORMAT_VERSION} "
                 f"c={table.c} n_max={table.n_max}\n".encode())
        for row in table.counts:
            line = "".join(f"{v}," for v in row).encode()
            fh.write(line + b"\n")
            h.update(line)
        fh.write(f"checksum sha256:{h.hexdigest()}\n".encode())


# a canonical row line of any width: counts in plain decimal, without sign,
# separator or leading zero, each followed by a comma, then a newline
_ROW = re.compile(rb"(?:(?:0|[1-9][0-9]*),)+\n")
_ROWS = re.compile(b"(?:%s)+" % _ROW.pattern)


def _first_bad_row(lines: list[bytes], start: int, size: int, c: int) -> str:
    """The first of rows start, ..., start + size - 1 that is not c canonical counts
    each int() converts, named in the loader's words; `lines` may stop short."""
    limit = sys.get_int_max_str_digits()
    for n, line in enumerate(lines + [b""] * (size - len(lines)), start):
        if not line.endswith(b"\n"):
            return f"cache file truncated in row n={n}"
        if line.startswith(b"checksum "):
            return f"cache row n={n} is missing"
        if line.count(b",") != c:
            return f"cache row n={n} holds {line.count(b',')} counts, not c={c}"
        if not _ROW.fullmatch(line):
            return (f"cache row n={n} is not canonical: counts must be plain decimal, "
                    "each followed by a comma")
        if limit and any(len(v) > limit for v in line[:-2].split(b",")):
            return (f"cache row n={n} has a count above {limit} decimal digits, "
                    "Python's limit for str-to-int conversion")


def load_table_regex(path) -> RankClassTable:
    """The cache file at `path` loaded with one pattern match per block of rows."""
    with open(path, "rb") as fh:
        c, n_max = _read_header(fh)
        h = _checksum_hash(c, n_max)
        counts = []
        for start in range(0, n_max + 1, _BLOCK_ROWS):
            size = min(_BLOCK_ROWS, n_max + 1 - start)
            lines = list(islice(fh, size))
            block = b"".join(lines)
            values = block.split(b",")
            # `size` canonical rows of c counts: newlines lead values c, 2c,
            # ..., c * size, and no value holds two
            if (len(values) != c * size + 1 or not _ROWS.fullmatch(block)
                    or b"".join(values[c::c]).count(b"\n") != size):
                raise ValueError(_first_bad_row(lines, start, size, c))
            h.update(block.replace(b"\n", b""))
            try:
                counts += map(int, values[:-1])
            except ValueError:  # a count longer than int() converts
                raise ValueError(_first_bad_row(lines, start, size, c)) from None
        digest = h.hexdigest()
        last = fh.readline()
        if last != f"checksum sha256:{digest}\n".encode():
            if _ROW.fullmatch(last):
                raise ValueError(f"cache row n={n_max + 1} lies beyond n_max={n_max}")
            raise ValueError("cache checksum mismatch" if last else
                             "cache file truncated: the checksum line is missing")
        if fh.read(1):
            raise ValueError("cache has data after its checksum line")
    table = RankClassTable([counts[r::c] for r in range(c)])
    table._checksum = digest
    return table


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
    hs = units(k)
    u = np.arange(1, k, dtype=np.int64)
    v = (np.array(hs, dtype=np.int64)[:, None] * u) % k
    acc = (2 * v - k) @ (2 * u - k)
    return {h: Fraction(int(x), 4 * k * k) for h, x in zip(hs, acc)}


def multiplier_classes(k: int) -> list[set[int]]:
    """The classes {h, h', k-h, k-h'} of the coprime residues of k, h' = h^-1 mod k,
    each grown by inversion and negation until it is closed."""
    classes: list[set[int]] = []
    seen: set[int] = set()
    for h in units(k):
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
        for h in units(k):
            hp = pow(h, -1, k)
            w = omega(h, k, prec + 10) ** 2 / omega((2 * h) % k, k, prec + 10)
            term = w / mp.sinpi(mpf(a * hp) / c)
            term *= mp.expjpi(-mpf((a * a * k1 * (c - 2) * hp) % (2 * c)) / c)
            term *= rational_phase(Fraction(n * h, k), prec + 10)
            total += term
        total *= 1 / mp.sqrt(2) * mp.tan(mp.pi * a / c)
    with mp.workprec(prec):
        return +total


def kloosterman_D_direct(a: int, c: int, k: int, n: int, e: int, region_sign: int,
                         prec: int = DEFAULT_PRECISION) -> mpc:
    """`overrank.modsums.kloosterman_D`, one independent evaluation per summand."""
    if k % c == 0 or k % 2 == 0:
        raise ValueError("kloosterman_D requires c not dividing k, k odd")
    if region_sign not in (1, -1):
        raise ValueError("region_sign must be +1 or -1")
    if math.gcd(a, c) != 1 or not 0 < a < c:
        raise ValueError("need 0 < a < c coprime")
    with mp.workprec(prec + 10):
        total = mpc(0)
        for h in units(k):
            hp = pow(h, -1, k)
            w = omega(h, k, prec + 10) ** 2 / omega((2 * h) % k, k, prec + 10)
            total += w * rational_phase(Fraction(n * h, k) + e * Fraction(hp, k), prec + 10)
        total *= region_sign / mp.sqrt(2) * mp.tan(mp.pi * a / c)
    with mp.workprec(prec):
        return +total


def secondary_branch(a: int, c: int, k: int):
    """(sign, delta(r), m(r)) of arc k in the secondary sum for a/c, from the
    Fraction x = l/c1 and the integer y = (a k1 - l)/c1; None where the arc adds
    no term (c1 = 4, or 1/4 < x <= 3/4).

    On the low branch, x <= 1/4: delta = (x - 1/4)^2 - r x, m = -y (y + 1/2 + r).
    The high branch, x > 3/4, mirrors it in z = 1 - x: delta = (z - 1/4)^2 - r z,
    m = -(y + 1) (y + 1/2 - r), with sign -1.
    """
    g = math.gcd(c, k)
    c1, k1 = c // g, k // g
    x = Fraction(a * k1 % c1, c1)
    y = Fraction(a * k1, c1) - x
    quarter, half = Fraction(1, 4), Fraction(1, 2)
    if c1 == 4 or quarter < x <= 3 * quarter:
        return None
    if x <= quarter:
        return 1, lambda r: (x - quarter) ** 2 - r * x, lambda r: -y * (y + half + r)
    z = 1 - x
    return -1, lambda r: (z - quarter) ** 2 - r * z, lambda r: -(y + 1) * (y + half - r)


def arc_list(a: int, c: int, n: int) -> list:
    """The arcs of the main terms for a/c at n from `secondary_branch`: (k, 1, None)
    for odd k <= sqrt(n) with c | k, then (k, sign, [(delta(r), 2 m(r) mod k) while
    delta(r) > 0]) for every other odd k, with sign 0 and no terms where the arc
    adds none."""
    odd = range(1, math.isqrt(n) + 1, 2)
    arcs = [(k, 1, None) for k in odd if k % c == 0]
    for k in odd:
        if k % c == 0:
            continue
        branch = secondary_branch(a, c, k)
        if branch is None:
            arcs.append((k, 0, []))
            continue
        sign, delta, m = branch
        r, rterms = 0, []
        while delta(r) > 0:
            rterms.append((delta(r), int(2 * m(r)) % k))
            r += 1
        arcs.append((k, sign, rterms))
    return arcs


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
            B = kloosterman_B(a, KernelTables(c, prec + 20), k, -n)
            t = mpc(0, 1) * root * B / mp.sqrt(k) * mp.sinh(mp.pi * mp.sqrt(n) / k)
            terms.append((k, t))
            total += t
        # secondary sum: c not dividing k, k odd, c1 != 4, r >= 0 with delta > 0
        for k in range(1, kmax + 1):
            if k % 2 == 0 or k % c == 0:
                continue
            branch = secondary_branch(a, c, k)
            if branch is None:
                continue
            sign, delta, m_param = branch
            tk = mpc(0)
            r = 0
            while True:
                d = delta(r)
                if d <= 0:
                    break
                # D's phase takes m's double as an integer mod k
                D = kloosterman_D(a, KernelTables(c, prec + 20), k, -n,
                                  int(2 * m_param(r)) % k, sign)
                tk += (2 * root * D / mp.sqrt(k)
                       * mp.sinh(4 * mp.pi * mp.sqrt(mpf(d.numerator) / d.denominator * n) / k))
                r += 1
            if tk != 0:
                terms.append((k, tk))
                total += tk
    with mp.workprec(prec):
        return AsymptoticEstimate(value=+total.real,
                                  imag_residual=+abs(total.imag),
                                  k_terms=[(k, +t) for k, t in terms])


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
                                  k_terms=[(j, +t) for j, t in terms])


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
        return CertifiedConstant(upper=+upper, partial=+partial, tail_bound=+tail,
                                 truncation=r)


def envelopes_per_power(c: int, n: int, prec: int = DEFAULT_PRECISION) -> tuple:
    """(error pieces, their total, error_term_bound, main_term_bound, r_ratio) at
    (c, n), each term with its own n ** mpf(e), as `overrank.bounds` stood before
    it took each power of n once per call."""
    with mp.workprec(prec + 10):
        nn = mpf(n)
        s = mp.sqrt(nn)
        factor = {None: 1, cbar4: cbar4(c, prec + 10), cbar2: cbar2(c, prec + 10)}
        pieces = {name: mpf(coef) * factor[majorant] * nn ** mpf(expo) * c ** cpow
                  for name, (coef, expo, cpow, majorant) in _PIECE_COEFS.items()}
        total = sum(pieces.values())
        error_term = (mpf("1544.72") * nn ** mpf("-0.25") * c * c
                      + mpf("87078.1") * nn ** mpf("0.25") * c
                      + mpf("5733.56") * nn ** mpf("0.25") * c * c
                      + mpf("1.8186") * nn ** mpf("0.875") * c
                      + mpf("1363.79") * cbar4(c, prec + 10) * nn ** mpf("0.25") * c
                      + mpf("1446.53") * cbar2(c, prec + 10) * nn ** mpf("0.25") * c)
        main_term = (mpf("0.1624") * mp.exp(mp.pi * s / c) * nn ** mpf("0.25") * c
                     + (mpf("0.0266") * c + mpf("0.2123"))
                     * mp.exp(mp.pi * s * (1 - mpf(4) / c)) * nn ** mpf("0.25") * c)
        epi = mp.exp(-mp.pi * s)
        if c in TABULATED:
            lead, tail, _ = TABULATED[c]
            ratio = mpf(lead) * mp.exp(-(c - 1) * mp.pi * s / c) * nn ** mpf("1.25")
            if c == 3:
                ratio += 24 * mp.exp(-mpf(4) / 3 * mp.pi * s) * nn ** mpf("1.25")
            ratio += epi * sum(mpf(k) * nn ** mpf(e)
                               for k, e in zip(tail, ("0.75", "1.25", "1.875")))
        else:
            ratio = (mpf(37259) * c * cbar4(c, prec + 10)
                     * mp.exp(-4 * mp.pi * s / c) * nn ** mpf("1.25")
                     + mpf("49.69") * c * epi * nn ** mpf("1.875"))
    with mp.workprec(prec):
        return ({k: +v for k, v in pieces.items()}, +total, +error_term, +main_term, +ratio)


def a_half(ns, pbar: list[int]) -> dict[int, int]:
    """A(1/2; n) = N(0,2,n) - N(1,2,n) for each n in ns, from Lovejoy's form of the
    rank generating function (Ann. Comb. 9, 2005) at z = -1:

        sum_n A(1/2; n) q^n = pbar(q) * (1 + 8 sum_{m>=1} (-1)^m q^(m^2+m) / (1 + q^m)^2).

    With 1/(1 + x)^2 = sum_j (-1)^j (j+1) x^j the bracket is a sparse series,
    built once up to max(ns); each coefficient is then a convolution of its
    nonzero terms with `pbar` (at least max(ns) + 1 counts).  The identity with
    the rank-class tables is measured in tests/test_counts.py on the range it
    checks, not proved here.
    """
    n_max = max(ns)
    bracket = defaultdict(int, {0: 1})
    m = 1
    while m * (m + 1) <= n_max:
        for j in range(n_max // m - m):  # exponents m*(m + 1 + j) <= n_max
            bracket[m * (m + 1 + j)] += 8 * (-1) ** (m + j) * (j + 1)
        m += 1
    terms = sorted((e, v) for e, v in bracket.items() if v)
    return {n: sum(v * pbar[n - e] for e, v in terms if e <= n) for n in ns}


def rank_row(c: int, n: int, pbar: list[int]) -> list[int]:
    """Row n of the rank-class table mod c, [N(r, c, n) for r in range(c)], built alone.

    From the per-rank form of Lovejoy's bracket in the docstring of
    `overrank.counts.rank_class_table`: term m of the bracket is
    2 (-1)^m q^(m^2 + m) times, at z^j, 2/(1 + x) for j = 0 and
    -x^(|j|-1) (1 - x)/(1 + x) for j != 0, with x = q^m.  Summed over the ranks
    j = r (mod c) it is 2 (-1)^(m+1) q^(m^2) f_r(x)/(1 + x), where

        f_r(x) = (1 - x) sum_{j = r (mod c), j != 0} x^|j| - [r = 0] 2x
               = (1 - x)(x^a + x^b)/(1 - x^c) - [r = 0] 2x,  a = r or c, b = c - r or c.

    Moving the 1/(1 + x) onto pbar, with p_s = pbar(n - m^2 - m s) and
    Q_i = sum_{s >= i} (-1)^(s-i) p_s, the coefficient of q^n is

        N(r, c, n) = [r = 0] pbar(n)
                     + 2 sum_{m^2 + m <= n} (-1)^(m+1) sum_{i >= 1} f_i[r] Q_i,

    and the sum over i is d_a + d_b - [r = 0] 2 Q_1, with
    d_e = sum_{k >= 0} (Q_(e + kc) - Q_(e + kc + 1)).  a and b swap between r
    and c - r, so the two get one count; nothing else is shared between
    residues, and nothing is taken from the production build's factoring
    over D_c, its packing or its doubling products.  The bracket is the
    build's, so this checks those, not Lovejoy's identity, which the DP and
    brute-force oracles check at small n.  `pbar` holds pbar(0..n) at least.
    """
    d = [0] * c  # d[e - 1], summed over m with sign (-1)^(m+1)
    q1 = 0  # Q_1, the same
    m = 1
    while m * m + m <= n:
        q = pbar[n - m * m::-m]  # p_s for s = 0, 1, ...
        q[1::2] = [-v for v in q[1::2]]
        q = list(accumulate(reversed(q)))[::-1]  # sum_{s >= i} (-1)^s p_s
        q[1::2] = [-v for v in q[1::2]]  # Q_i
        step = add if m & 1 else sub
        d = list(map(step, d, [sum(q[e::c]) - sum(q[e + 1::c]) for e in range(1, c + 1)]))
        q1 = step(q1, q[1])
        m += 1
    return [pbar[n] + 4 * (d[c - 1] - q1)] + [2 * (d[r - 1] + d[c - r - 1]) for r in range(1, c)]


def pbar_zuckerman(n: int) -> int:
    """The overpartition count of n from Zuckerman's series, rounded.

    pbar(n) = (1/2pi) sum_{odd k <= sqrt n} sqrt(k) Re A_k(n)
              * [pi/(2kn) cosh(pi sqrt(n)/k) - sinh(pi sqrt(n)/k)/(2 n^{3/2})],
    A_k(n) = sum_h r_h exp(-2 pi i n h/k), with r_h = omega_{h,k}^2/omega_{2h,k}
    the ratios of `overrank.modsums._multipliers`.  Evaluated and rounded at
    4.6 sqrt(n) + 40 bits.  At n = 10000 and 19321 the unrounded sum lies
    within 10^-3 of the exact count.
    """
    with mp.workprec(int(4.6 * math.sqrt(n)) + 40):
        s = mp.sqrt(n)
        total = mpf(0)
        for k in range(1, math.isqrt(n) + 1, 2):
            A = sum(_to_mpc(r) * mp.expjpi(mpf(-2 * (n * h % k)) / k)
                    for h, _, r in _multipliers(_ArcRoots(k, mp.prec)))
            x = mp.pi * s / k
            total += (mp.sqrt(k) * A.real
                      * (mp.pi / (2 * k * n) * mp.cosh(x) - mp.sinh(x) / (2 * n * s)))
        return int(mp.nint(total / (2 * mp.pi)))


def aux_grid_checks(prec: int) -> tuple[tuple[str, bool, float, str], ...]:
    """`overrank.bounds._grid_checks`, every margin on every point of its grid:
    about 10,900 transcendental evaluations at `prec` bits."""
    checks = []

    def record(name, margins, grid, strict=True):
        worst = min(margins)
        checks.append((name, bool(worst > 0 if strict else worst >= 0), float(worst), grid))

    with mp.workprec(prec):
        pi = mp.pi

        # log x <= a (x^{1/a} - 1) for a, x > 0
        xs = [mpf(i) / 20 for i in range(1, 1001)]  # x in (0, 50]
        logs = [mp.log(x) for x in xs]
        powers = [(a, mpf(1) / a) for a in (1, 2, 4, 8, 16)]
        record("log_power_bound",
               (a * (x ** inv - 1) - lx for a, inv in powers for x, lx in zip(xs, logs)),
               "a in {1,2,4,8,16}, x in (0,50]", strict=False)

        # cot(pi/2c) <= 2c/pi
        margins = [2 * mpf(c) / pi - mp.cospi(mpf(1) / (2 * c)) / mp.sinpi(mpf(1) / (2 * c))
                   for c in range(3, 33)]
        record("cot_linear_bound", margins, "c in 3..32", strict=False)

        # (1 + log((c-1)/2)) / (pi (1 - pi^2/24)) < 0.2704 c
        margins = [mpf("0.2704") * c - (1 + mp.log(mpf(c - 1) / 2)) / (pi * (1 - pi ** 2 / 24))
                   for c in range(3, 33)]
        record("log_factor_linear", margins, "c in 3..32")

        # e^{-x} / (1 - e^{-x})^2 < (1 + x)/x^2
        record("exp_square_ratio",
               ((1 + x) / (x * x) - ex / (1 - ex) ** 2
                for x, ex in zip(xs, (mp.exp(-x) for x in xs))),
               "x in (0,50]")

        # e^x > (1 + x/y)^y
        xs = [mpf(i) / 10 for i in range(1, 501)]  # x in (0, 50]
        exps = [mp.exp(x) for x in xs]
        record("exp_vs_power",
               (ex - (1 + x / y) ** y
                for y in (mpf("0.5"), 1, 2, 3, 4, 8) for x, ex in zip(xs, exps)),
               "y in {0.5,1,2,3,4,8}, x in (0,50]")

        # sum_{k <= sqrt n} k^{-1/2} <= 2 n^{1/4}
        record("sqrt_partial_sum",
               (2 * mpf(n) ** mpf("0.25")
                - sum(1 / mp.sqrt(k) for k in range(1, math.isqrt(n) + 1))
                for n in (2, 4, 9, 16, 50, 100, 500, 1000, 5000, 10000)),
               "n in {2,...,10000}", strict=False)

        # sin(pi/c) >= 2/c
        margins = [mp.sinpi(mpf(1) / c) - mpf(2) / c for c in range(3, 33)]
        record("sin_lower_bound", margins, "c in 3..32", strict=False)

    return tuple(checks)
