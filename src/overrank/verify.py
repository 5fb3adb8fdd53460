"""Exhaustive verification of strict log-subadditivity.

The target inequality is count(a,c,n1+n2) < count(a,c,n1) * count(a,c,n2).
`verify_subadditivity` settles it for every unordered pair in a range and
emits a deterministic, reproducible Certificate.  Every pair it reads is
compared in exact integers, which also keep the minimal margin exactly; a
row of the pair triangle stops at its first passing pair inside the
log-concave tail of the column, past which its margin cannot fall.  Nothing
here imports mpmath; the analytic gap inequality that extends the finite
checks, `bounds.t_inequality`, lives with the constants it reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .counts import RankClassTable

__all__ = [
    "Certificate",
    "parse_certificate",
    "verify_subadditivity",
]

CERTIFICATE_SCHEMA = 1


@dataclass
class Certificate:
    """Reproducible record of one exhaustive subadditivity sweep.

    `pairs_checked` follows from (n_lo, n_hi); `pairs_compared` counts the
    pairs its own sweep multiplied out, 0 on a memo hit (see below).
    """

    c: int
    a: int
    n_lo: int
    n_hi: int
    violations: list[tuple[int, int, int, int]]  # (n1, n2, lhs, rhs), sorted
    min_margin: Fraction | None  # smallest rhs/lhs over pairs with lhs > 0
    table_checksum: str
    pairs_compared: int = field(default=0, compare=False)

    @property
    def pairs_checked(self) -> int:
        """The unordered pairs n_lo <= n1 <= n2 <= n_hi."""
        width = self.n_hi - self.n_lo + 1
        return width * (width + 1) // 2

    def serialize(self) -> str:
        lines = [
            f"certificate schema={CERTIFICATE_SCHEMA} c={self.c} a={self.a} "
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
                           n_hi=int(head["n_hi"]), violations=violations,
                           min_margin=None if mm == "none" else Fraction(mm),
                           table_checksum=head["table_sha256"])
        canonical = cert.serialize() == text
    except (IndexError, KeyError, ValueError, ZeroDivisionError):
        canonical = False
    if not canonical:
        raise ValueError(f"not a canonical schema-{CERTIFICATE_SCHEMA} certificate")
    return cert


def _sweep_rows(vals: list[int], n_lo: int, n_hi: int):
    """Violations, exact min margin and pairs compared over the (n1 <= n2) triangle."""
    top = 2 * n_hi
    m0 = top  # the smallest index of the log-concave positive tail, down to n_lo
    while m0 > n_lo and vals[m0 - 1] and (
            m0 == top or vals[m0] * vals[m0] >= vals[m0 - 1] * vals[m0 + 1]):
        m0 -= 1
    violations = []
    best_rhs, best_lhs = 1, 0  # smallest rhs/lhs so far; (1, 0) is +inf
    compared = 0
    for n1 in range(n_lo, n_hi + 1):
        v1 = vals[n1]
        for n2 in range(n1, n_hi + 1):
            compared += 1
            lhs = vals[n1 + n2]
            rhs = v1 * vals[n2]
            if lhs >= rhs:
                violations.append((n1, n2, lhs, rhs))
            if rhs * best_lhs < best_rhs * lhs:
                best_rhs, best_lhs = rhs, lhs
            if n2 >= m0 and lhs < rhs:
                break
    min_margin = Fraction(best_rhs, best_lhs) if best_lhs else None
    return violations, min_margin, compared


def verify_subadditivity(table: RankClassTable, a: int, n_lo: int,
                         n_hi: int) -> Certificate:
    """Exact sweep of count(a,c,n1+n2) < count(a,c,n1)*count(a,c,n2).

    Covers every unordered pair n_lo <= n1 <= n2 <= n_hi; the table must
    reach 2*n_hi.

    Pruning.  Let m0 >= n_lo be the smallest index with v(m) > 0 for
    m0 <= m < 2*n_hi and v(m)^2 >= v(m-1)*v(m+1) for m0 < m < 2*n_hi.  Then
    q(m) = v(m+1)/v(m) does not increase on [m0, 2*n_hi - 1], so for n2 >= m0
    the margin v(n1)*v(n2)/v(n1+n2) changes by q(n2)/q(n1+n2) >= 1 from n2
    to n2 + 1 (only the last pair, n1 = n2 = n_hi, can have lhs = 0).  A row
    stops after its first pair with n2 >= m0 and lhs < rhs: no later pair of
    it violates or holds a smaller margin.  Every pair
    before that (counted in `pairs_compared`) is compared in exact integers,
    so certificates equal those of a sweep that compares every pair.

    Memo.  The table keeps one sweep per distinct column for the last
    (n_lo, n_hi) it was asked (see `RankClassTable`); another range drops
    them.  A residue whose column equals, value for value, one already swept
    gets that sweep's result in a certificate of its own, with
    `pairs_compared` = 0 as it multiplies nothing out: N(a,c,n) = N(c-a,c,n)
    by the symmetry z <-> 1/z, so `--a-list all` sweeps each mirrored pair of
    columns once.
    """
    if not 1 <= n_lo <= n_hi:
        raise ValueError("need 1 <= n_lo <= n_hi")
    if table.n_max < 2 * n_hi:
        raise ValueError(f"table reaches n={table.n_max}, need {2 * n_hi}")
    column = table.column(a)[:2 * n_hi + 1]
    if table._sweeps is None or table._sweeps[0] != (n_lo, n_hi):
        table._sweeps = ((n_lo, n_hi), [])
    swept = table._sweeps[1]
    # a scan, not a dict: a miss then costs nothing, where hashing every
    # count of the column would, and differing columns part within a few rows
    found = next((result for vals, result in swept if vals == column), None)
    if found is None:
        found = _sweep_rows(column, n_lo, n_hi)
        swept.append((column, (*found[:2], 0)))
    violations, min_margin, compared = found
    return Certificate(c=table.c, a=a, n_lo=n_lo, n_hi=n_hi,
                       violations=list(violations), min_margin=min_margin,
                       table_checksum=table.checksum(), pairs_compared=compared)
