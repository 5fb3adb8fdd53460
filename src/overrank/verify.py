"""Exhaustive and analytic verification of strict log-subadditivity.

The target inequality is count(a,c,n1+n2) < count(a,c,n1) * count(a,c,n2).
`verify_subadditivity` settles it for every unordered pair in a range and
emits a deterministic, reproducible Certificate.  A row n1 of the pair
triangle is skipped when an outward-rounded lower bound on its log2(rhs/lhs)
exceeds max(0, an outward upper bound on log2 of the running minimum); every
other row is compared pair by pair in exact integers, which also keep that
minimum exactly.  The analytic gap inequality `t_inequality` covers the
crossing that extends the finite checks; it takes its coefficients from the
modulus, the sandwich row for c = 3, 4, 5 and the generic 48*c bound for c >= 6.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple, Sequence

from mpmath import mp, mpf

from .bounds import sandwich_threshold
from .counts import RankClassTable
from .modsums import DEFAULT_PRECISION

__all__ = [
    "Certificate",
    "TInequalityResult",
    "parse_certificate",
    "t_inequality",
    "verify_subadditivity",
]

CERTIFICATE_SCHEMA = 1


@dataclass
class Certificate:
    """Reproducible record of one exhaustive subadditivity sweep."""

    c: int
    a: int
    n_lo: int
    n_hi: int
    pairs_checked: int
    violations: list[tuple[int, int, int, int]]  # (n1, n2, lhs, rhs), sorted
    min_margin: Fraction | None  # smallest rhs/lhs over pairs with lhs > 0
    table_checksum: str
    schema_version: int = CERTIFICATE_SCHEMA
    exact_rows: int = field(default=0, compare=False)  # rows compared pair by pair

    def serialize(self) -> str:
        lines = [
            f"certificate schema={self.schema_version} c={self.c} a={self.a} "
            f"n_lo={self.n_lo} n_hi={self.n_hi} pairs={self.pairs_checked} "
            f"violations={len(self.violations)} table_sha256={self.table_checksum}"
        ]
        if self.min_margin is None:
            lines.append("min_margin none")
        else:
            lines.append(f"min_margin {self.min_margin.numerator}/"
                         f"{self.min_margin.denominator}")
        for n1, n2, lhs, rhs in self.violations:
            lines.append(f"violation {n1} {n2} {lhs} {rhs}")
        lines.append("end")
        return "\n".join(lines) + "\n"


def parse_certificate(text: str) -> Certificate:
    """The Certificate whose `serialize()` is exactly `text`, else ValueError."""
    try:
        lines = text.splitlines()
        head = dict(part.split("=") for part in lines[0].split()[1:])
        mm = lines[1].split()[1]
        violations = [tuple(map(int, line.split()[1:])) for line in lines[2:-1]]
        cert = Certificate(c=int(head["c"]), a=int(head["a"]), n_lo=int(head["n_lo"]),
                           n_hi=int(head["n_hi"]), pairs_checked=int(head["pairs"]),
                           violations=violations,
                           min_margin=None if mm == "none" else Fraction(mm),
                           table_checksum=head["table_sha256"],
                           schema_version=int(head["schema"]))
        canonical = (cert.schema_version == CERTIFICATE_SCHEMA
                     and cert.serialize() == text)
    except (IndexError, KeyError, ValueError, ZeroDivisionError):
        canonical = False
    if not canonical:
        raise ValueError(f"not a canonical schema-{CERTIFICATE_SCHEMA} certificate")
    return cert


def _up(x: float) -> float:
    return math.nextafter(x, math.inf)


def _down(x: float) -> float:
    return math.nextafter(x, -math.inf)


def _log_interval(v: int) -> tuple[float, float]:
    """Floats lo <= log2(v) <= hi for an integer v >= 0; a zero gets (-inf, inf).

    x = log2 of the leading 53 bits plus the shift is within two ulps of
    log2(v): truncation costs under 2^-52 / ln 2, math.log2 of a 53-bit
    integer one ulp, adding the shift one more.  lo, hi widen x by four ulps.
    """
    if not v:
        return -math.inf, math.inf
    shift = max(v.bit_length() - 53, 0)
    x = math.log2(v >> shift) + shift
    slack = 4 * math.ulp(x)
    return _down(x - slack), _up(x + slack)


def _row_bounds(lo: Sequence[float], hi: Sequence[float], n_lo: int,
                n_hi: int) -> list[float]:
    """bounds[n1] <= log2(rhs/lhs) for every pair of row n1, for n_lo <= n1 <= n_hi.

    The bound of `verify_subadditivity`, from one pass down from m = 2*n_hi - 1
    that keeps the suffix maximum s = S(m) and q[m] >= sum_{k >= m} S(k).
    """
    bounds = [-math.inf] * (n_hi + 1)
    q = [0.0] * (2 * n_hi + 1)
    s = -math.inf
    for m in range(2 * n_hi - 1, n_lo - 1, -1):
        s = max(s, _up(hi[m + 1] - lo[m]))
        q[m] = _up(q[m + 1] + s)
        if m <= n_hi and s < math.inf:
            bounds[m] = _down(lo[m] - _up(q[m] - q[2 * m]))
    return bounds


def _sweep_rows(vals: list[int], n_lo: int, n_hi: int):
    """Violations, exact min margin and exact rows over the (n1 <= n2) triangle."""
    lo, hi = zip(*map(_log_interval, vals))
    bounds = _row_bounds(lo, hi, n_lo, n_hi)
    violations = []
    best_rhs, best_lhs = 1, 0  # smallest rhs/lhs so far; (1, 0) is +inf
    best_up = math.inf
    exact_rows = 0
    for n1 in range(n_lo, n_hi + 1):
        if bounds[n1] > max(0.0, best_up):
            continue
        exact_rows += 1
        v1 = vals[n1]
        for n2 in range(n1, n_hi + 1):
            lhs = vals[n1 + n2]
            rhs = v1 * vals[n2]
            if lhs >= rhs:
                violations.append((n1, n2, lhs, rhs))
            if rhs * best_lhs < best_rhs * lhs:
                best_rhs, best_lhs = rhs, lhs
                best_up = _up(_up(hi[n1] + hi[n2]) - lo[n1 + n2])
    min_margin = Fraction(best_rhs, best_lhs) if best_lhs else None
    return violations, min_margin, exact_rows


def verify_subadditivity(table: RankClassTable, a: int, n_lo: int,
                         n_hi: int) -> Certificate:
    """Exact sweep of count(a,c,n1+n2) < count(a,c,n1)*count(a,c,n2).

    Covers every unordered pair n_lo <= n1 <= n2 <= n_hi; the table must
    reach 2*n_hi.

    Bound.  With L(n) = log2 count(a,c,n), a pair of row n1 has
    log2(rhs/lhs) = L(n1) - sum_{m=n2}^{n2+n1-1} (L(m+1) - L(m)).  The suffix
    maximum S(m) of the steps L(k+1) - L(k), m <= k < 2*n_hi, does not
    increase and n2 >= n1, so log2(rhs/lhs) >= L(n1) - sum_{m=n1}^{2*n1-1}
    S(m), the diagonal pair's margin where the column is log-concave.  A zero
    count at or after n1 makes S(n1) infinite.

    Rounding.  Each log is widened by four ulps, twice its error, and each
    step, suffix sum q[m] of S and difference is stepped one float outward.
    The q rounded up at every step telescope: q[n1] - q[2*n1] is at least the
    window sum, so the computed row bound is at most the true one.

    Exact fallback.  The smallest margin so far is kept as an integer pair
    (rhs, lhs), replaced by cross-multiplication, beside best_up >= its log2
    from the widened logs rounded up.  A row is skipped only when its bound
    exceeds max(0, best_up): then no pair of it violates or holds a smaller
    margin.  Every pair of every other row (counted in `exact_rows`) is
    compared in exact integers, so certificates equal those of a sweep that
    compares every pair exactly.
    """
    c = table.c
    if not 0 <= a < c:
        raise ValueError("residue a out of range")
    if not 1 <= n_lo <= n_hi:
        raise ValueError("need 1 <= n_lo <= n_hi")
    if table.n_max < 2 * n_hi:
        raise ValueError(f"table reaches n={table.n_max}, need {2 * n_hi}")
    vals = [table.counts[n][a] for n in range(2 * n_hi + 1)]
    violations, min_margin, exact_rows = _sweep_rows(vals, n_lo, n_hi)
    width = n_hi - n_lo + 1
    return Certificate(c=c, a=a, n_lo=n_lo, n_hi=n_hi,
                       pairs_checked=width * (width + 1) // 2,
                       violations=violations, min_margin=min_margin,
                       table_checksum=table.checksum(), exact_rows=exact_rows)


# ---------------------------------------------------------------------------
# Analytic crossing inequalities
# ---------------------------------------------------------------------------

class TInequalityResult(NamedTuple):
    holds: bool
    margin: mpf


def t_inequality(n1: int, c: int, prec: int = DEFAULT_PRECISION) -> TInequalityResult:
    """Exponent-gap inequality at equal arguments: T(1) > log V + log S.

    T(1) = 2 pi sqrt(n1) - pi sqrt(2 n1).  For c = 3, 4, 5 the sandwich
    coefficients of c give V = upper*8*n1/lower^2; for c >= 6, V = 48*c*n1.
    """
    if c < 3:
        raise ValueError("need c >= 3")
    if n1 < 2:
        raise ValueError("need n1 >= 2")
    with mp.workprec(prec):
        x = mpf(n1)
        lhs = 2 * mp.pi * mp.sqrt(x) - mp.pi * mp.sqrt(2 * x)
        if c in (3, 4, 5):
            th = sandwich_threshold(c, prec)
            v = th.upper_coef * 8 * x / th.lower_coef ** 2
        else:
            v = 48 * c * x
        s = (1 + 1 / mp.sqrt(2 * x)) / (1 - 1 / mp.sqrt(x)) ** 2
        margin = lhs - (mp.log(v) + mp.log(s))
        return TInequalityResult(holds=bool(margin > 0), margin=+margin)
