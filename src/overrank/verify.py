"""Exhaustive and analytic verification of strict log-subadditivity.

The target inequality is count(a,c,n1+n2) < count(a,c,n1) * count(a,c,n2).
`verify_subadditivity` settles it for every unordered pair in a range and
emits a deterministic, reproducible Certificate.  Most rows n1 of the pair
triangle are cleared at once by a telescoping lower bound on log2(rhs/lhs),
evaluated in outward-rounded floats; every other row is compared pair by
pair in exact integers, which also keep the minimal margin as a running
minimum.  The analytic gap inequality `t_inequality` covers the crossing
that extends the finite checks; it takes its coefficients from the modulus,
the sandwich row for c = 3, 4, 5 and the generic 48*c bound for c >= 6.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

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
    lines = text.strip().splitlines()
    head = dict(part.split("=") for part in lines[0].split()[1:])
    mm_line = lines[1].split()
    if mm_line[1] == "none":
        mm = None
    else:
        num, den = mm_line[1].split("/")
        mm = Fraction(int(num), int(den))
    violations = []
    for line in lines[2:]:
        if line == "end":
            break
        _, n1, n2, lhs, rhs = line.split()
        violations.append((int(n1), int(n2), int(lhs), int(rhs)))
    return Certificate(c=int(head["c"]), a=int(head["a"]), n_lo=int(head["n_lo"]),
                       n_hi=int(head["n_hi"]), pairs_checked=int(head["pairs"]),
                       violations=violations, min_margin=mm,
                       table_checksum=head["table_sha256"],
                       schema_version=int(head["schema"]))


def _log2_int(v: int) -> float:
    """log2 of a positive integer without float overflow.

    The result is within two ulps of the true value: the shift keeps 53
    leading bits (truncation costs under 2^-52 / ln 2), math.log2 of that
    53-bit integer is within one ulp, and adding the shift rounds once more.
    """
    nbits = v.bit_length()
    if nbits <= 53:
        return math.log2(v)
    return math.log2(v >> (nbits - 53)) + (nbits - 53)


_LOG_SLACK_ULPS = 4  # widening of each _log2_int value, twice its error


def _up(x: float) -> float:
    return math.nextafter(x, math.inf)


def _down(x: float) -> float:
    return math.nextafter(x, -math.inf)


def _log_interval(x: float) -> tuple[float, float]:
    """Float interval around a _log2_int value that contains the true log."""
    slack = _LOG_SLACK_ULPS * math.ulp(x)
    return _down(x - slack), _up(x + slack)


def _row_bounds(vals: list[int], logs: list[float], n_lo: int,
                n_hi: int) -> list[float]:
    """bounds[n1] <= log2(rhs/lhs) for every pair of row n1, for n_lo <= n1 <= n_hi.

    The bound is L(n1) - n1 * S(n1) of `verify_subadditivity`, with S the
    suffix maximum of the steps, found in one pass down from m = 2*n_hi - 1.
    """
    bounds = [-math.inf] * (n_hi + 1)
    s = -math.inf
    for m in range(2 * n_hi - 1, n_lo - 1, -1):
        lo_m = _log_interval(logs[m])[0]
        if vals[m] and vals[m + 1]:
            s = max(s, _up(_log_interval(logs[m + 1])[1] - lo_m))
        else:
            s = math.inf
        if m <= n_hi:
            bounds[m] = _down(lo_m - _up(m * s))
    return bounds


def _sweep_rows(vals: list[int], n_lo: int, n_hi: int):
    """Violations and exact min margin over the (n1 <= n2) triangle.

    Rows whose bound clears both tests of `verify_subadditivity` are skipped;
    every other row compares its pairs exactly and keeps the running minimum.
    """
    logs = [(_log2_int(v) if v else -math.inf) for v in vals]
    bounds = _row_bounds(vals, logs, n_lo, n_hi)
    violations = []
    best_rhs, best_lhs = 1, 0  # smallest rhs/lhs so far; (1, 0) is +inf
    best_log = math.inf
    for n1 in range(n_lo, n_hi + 1):
        if bounds[n1] > 0 and bounds[n1] > best_log + 1e-9:
            continue
        v1, l1 = vals[n1], logs[n1]
        for n2 in range(n1, n_hi + 1):
            lhs = vals[n1 + n2]
            rhs = v1 * vals[n2]
            if lhs >= rhs:
                violations.append((n1, n2, lhs, rhs))
            lg = l1 + logs[n2] - logs[n1 + n2]
            if lg < best_log + 1e-9 and rhs * best_lhs < best_rhs * lhs:
                best_rhs, best_lhs, best_log = rhs, lhs, lg
    return violations, (Fraction(best_rhs, best_lhs) if best_lhs else None)


def verify_subadditivity(table: RankClassTable, a: int, n_lo: int,
                         n_hi: int) -> Certificate:
    """Exact sweep of count(a,c,n1+n2) < count(a,c,n1)*count(a,c,n2).

    Covers every unordered pair n_lo <= n1 <= n2 <= n_hi; the table must
    reach 2*n_hi.

    Bound.  With L(n) = log2 count(a,c,n) and delta(m) = L(m+1) - L(m), a
    pair of row n1 has L(n1+n2) - L(n2) = sum_{m=n2}^{n2+n1-1} delta(m)
    <= n1 * S(n1), where S(n1) = max delta(m) over n1 <= m < 2*n_hi, so
    log2(rhs/lhs) >= L(n1) - n1 * S(n1) for every pair of the row.  A zero
    count at or after n1 makes S(n1) infinite.

    Rounding.  The bound is evaluated in floats rounded outward: each log is
    widened by four ulps (twice its error), and each subtraction and product
    is stepped one float away in the safe direction, so the computed value
    is at most the true bound.

    Exact fallback.  The smallest margin so far is kept as an integer pair
    (rhs, lhs), replaced by cross-multiplication.  A row is skipped only when
    its bound is positive (no pair violates) and exceeds by more than 1e-9
    the float log2 of that running minimum, and a pair is cross-multiplied
    only when its float log-margin is below that log2 plus 1e-9 (float
    log-margins are far more accurate than 1e-9, so neither test passes
    over a smaller margin).  Every pair of every other row is compared in
    exact integers, so certificates equal those of a sweep that compares
    every pair exactly.
    """
    c = table.c
    if not 0 <= a < c:
        raise ValueError("residue a out of range")
    if not 1 <= n_lo <= n_hi:
        raise ValueError("need 1 <= n_lo <= n_hi")
    if table.n_max < 2 * n_hi:
        raise ValueError(f"table reaches n={table.n_max}, need {2 * n_hi}")
    vals = [table.counts[n][a] for n in range(2 * n_hi + 1)]
    violations, min_margin = _sweep_rows(vals, n_lo, n_hi)
    width = n_hi - n_lo + 1
    return Certificate(c=c, a=a, n_lo=n_lo, n_hi=n_hi,
                       pairs_checked=width * (width + 1) // 2,
                       violations=violations, min_margin=min_margin,
                       table_checksum=table.checksum())


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
