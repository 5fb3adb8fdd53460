"""Command-line front end: exact counts, asymptotics, bounds, certificates.

`count` and `verify` run on the exact layer alone and never load mpmath;
`asymptotic` and `bounds` import the analytic layer when they run, and
only they use --precision, the working precision of their mpmath evaluations.

Every setting comes from the command line.  In-process callers share one
argument parser, built by the first call.  Exit codes: 0 all verdicts pass,
1 violations or inconclusive verdicts present, 2 usage errors, bad input or
any other failure.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from . import __version__
from .counts import load_table, pbar_series, rank_class_table, save_table
from .report import Report, RunConfig, environment_fingerprint, fmt_value
from .verify import verify_subadditivity


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n-max", type=int, default=RunConfig.n_max,
                   help=f"table depth for exact computations (default {RunConfig.n_max})")
    p.add_argument("--precision", type=int, default=RunConfig.precision_bits,
                   help=f"working precision in mantissa bits (default {RunConfig.precision_bits})")
    p.add_argument("--cache", help="path of the rank-class table cache file")
    p.add_argument("--jobs", type=int, help="accepted for compatibility; has no effect")
    p.add_argument("--report", help="write the full report to this path")
    p.add_argument("--format", choices=("text", "json-lines"), default="text",
                   help="report format (default text)")


def _get_table(report: Report, c: int, need_n: int):
    """Load the cached table when usable, else build (and cache when asked).

    Reports in timings, never in outputs: where the table came from as
    `table_cache` (hit: read from the cache; built: built and written to it;
    none: built, no cache asked for), the depth built or loaded as
    `table_n_max`, its checksum as `table_sha256`, and `table_s`.
    """
    cfg = report.config
    t0 = time.perf_counter()
    if cfg.cache_path and Path(cfg.cache_path).exists():
        table = load_table(cfg.cache_path)
        if table.c != c:
            raise ValueError(f"cache holds modulus {table.c}, need {c}")
        if table.n_max < need_n:
            raise ValueError(f"cache reaches n={table.n_max}, need {need_n}")
        source = "hit"
    else:
        # a cached build covers the configured depth so later commands can reuse it
        depth = max(need_n, cfg.n_max) if cfg.cache_path else need_n
        table = rank_class_table(depth, c)
        if cfg.cache_path:
            save_table(table, cfg.cache_path)
        source = "built" if cfg.cache_path else "none"
    report.timings["table_cache"] = source
    report.timings["table_n_max"] = table.n_max
    report.timings["table_sha256"] = table.checksum()
    report.timings["table_s"] = round(time.perf_counter() - t0, 6)
    return table


def _emit(report: Report, args) -> None:
    text = report.to_json_lines() if args.format == "json-lines" else report.to_text()
    if args.report:
        Path(args.report).write_text(text, encoding="utf-8")
    sys.stdout.write(text)


def cmd_count(args, report: Report) -> list[str]:
    n = args.n
    report.inputs = {"n": n, "c": args.c, "a": args.a}
    if args.c is None and args.a is not None:
        raise ValueError("--a needs --c")
    if n < 0:
        raise ValueError(f"--n must be >= 0, got {n}")
    if n > report.config.n_max:
        raise ValueError(f"n={n} exceeds --n-max={report.config.n_max}")
    if args.c is None:
        series = pbar_series(n)
        report.add("count", kind="pbar", n=n, value=str(series[n]))
    else:
        table = _get_table(report, args.c, n)
        residues = range(args.c) if args.a is None else [args.a % args.c]
        row = table.row(n)
        for r in residues:
            report.add("count", kind="rank_class", n=n, c=args.c, a=r, value=str(row[r]))
    return []


def cmd_asymptotic(args, report: Report) -> list[str]:
    from mpmath import mp

    from .asymptotic import a_asymptotic, a_exact, engel_pbar
    from .bounds import error_term_bound, strict_verdict

    prec = report.config.precision_bits
    a, c, n = args.a, args.c, args.n
    report.inputs = {"a": a, "c": c, "n": n}
    with mp.workprec(prec):
        t0 = time.perf_counter()
        est = a_asymptotic(a, c, n, prec=prec)
        report.timings["estimate_s"] = round(time.perf_counter() - t0, 6)
        row = {"estimate": fmt_value(est.value),
               "imag_residual": fmt_value(est.imag_residual),
               "precision_bits": prec,
               "k_terms": len(est.k_terms)}
        verdicts = []
        if n <= report.config.n_max:
            table = _get_table(report, c, n)
            exact = a_exact(a, n, table, prec=prec)
            diff = abs(exact.real - est.value)
            row["exact"] = fmt_value(exact.real)
            row["abs_deviation"] = fmt_value(diff)
            if exact.real != 0:
                row["rel_deviation"] = fmt_value(diff / abs(exact.real))
            envelope = error_term_bound(c, n, prec)
            verdict = strict_verdict(diff, envelope)
            row["remainder_envelope"] = fmt_value(envelope)
            row["envelope_verdict"] = verdict
            verdicts.append(verdict)
        else:
            row["exact"] = "unavailable"
        report.add("asymptotic", **row)
        eng = engel_pbar(n, prec=prec)
        report.add("engel", estimate=fmt_value(eng.estimate),
                   certified_bound=fmt_value(eng.certified_bound))
    return verdicts


def cmd_bounds(args, report: Report) -> list[str]:
    import decimal

    from mpmath import mp, mpf

    from .bounds import (TABULATED, aux_inequalities_selftest, error_pieces,
                         error_term_bound, m_c, m_c_prime, main_term_bound, r_ratio,
                         sandwich_threshold, strict_verdict)

    prec = report.config.precision_bits
    c, n = args.c, args.n
    report.inputs = {"c": c, "n": n}
    verdicts = []
    with mp.workprec(prec):
        bb = error_pieces(c, n, prec)
        for name in sorted(bb.pieces):
            report.add("error_piece", name=name, value=fmt_value(bb.pieces[name]))
        report.add("error_total", value=fmt_value(bb.total))
        report.add("main_term_bound", value=fmt_value(main_term_bound(c, n, prec)))
        report.add("error_term_bound", value=fmt_value(error_term_bound(c, n, prec)))

        rr = r_ratio(c, n, prec)
        report.add("r_ratio", value=fmt_value(rr))
        th = sandwich_threshold(c, prec)
        # n_min = man * 2**e with man < 2**prec: decimal's 2**e and product take
        # near-linear time where Decimal(n_min) takes quadratic, pass int's digit
        # limit, and are exact in bit_length/3 + 2 > log10(n_min) + 1 digits
        e = (th.n_min & -th.n_min).bit_length() - 1
        ctx = decimal.Context(prec=th.n_min.bit_length() // 3 + 2, Emax=decimal.MAX_EMAX,
                              traps=[decimal.Inexact])
        n_min = ctx.multiply(decimal.Decimal(th.n_min >> e), ctx.power(2, e))
        report.add("threshold", lower_coef=fmt_value(th.lower_coef),
                   upper_coef=fmt_value(th.upper_coef), n_min=format(n_min, "f"))
        if c in TABULATED:
            # the sandwich coefficients must absorb the ratio at the threshold
            rr_th = r_ratio(c, th.n_min, prec)
            v1 = strict_verdict(rr_th, 1 / mpf(c) - th.lower_coef)
            v2 = strict_verdict(rr_th, th.upper_coef - 1 / mpf(c))
            report.add("threshold_verdict", lower=v1, upper=v2)
            verdicts += [v1, v2]
        else:
            report.add("giant_threshold", m_c=fmt_value(m_c(c, prec)),
                       m_c_prime=fmt_value(m_c_prime(c, prec)))

        t_selftest = time.perf_counter()
        selftest = aux_inequalities_selftest(prec=prec)
        report.timings["selftest_s"] = round(time.perf_counter() - t_selftest, 6)
        for name, entry in sorted(selftest.items()):
            report.add("aux_inequality", name=name, passed=entry["passed"],
                       worst_margin=entry["worst_margin"])
            verdicts.append("pass" if entry["passed"] else "fail")
    return verdicts


def cmd_verify(args, report: Report) -> list[str]:
    c = args.c
    n_lo, n_hi = args.n_lo, args.n_hi
    if c < 2:
        raise ValueError(f"--c must be >= 2, got {c}")
    if not 1 <= n_lo <= n_hi:  # before a table is built or cached
        raise ValueError(f"need 1 <= n_lo <= n_hi, got n_lo={n_lo} n_hi={n_hi}")
    if args.a_list == "all":
        residues = list(range(c))
    else:
        try:
            residues = sorted({int(tok) % c for tok in args.a_list.split(",")})
        except ValueError:
            raise ValueError(f"--a-list must be 'all' or comma-separated integers, "
                             f"got {args.a_list!r}") from None
    report.inputs = {"c": c, "n_lo": n_lo, "n_hi": n_hi,
                     "a_list": ",".join(map(str, residues))}
    table = _get_table(report, c, 2 * n_hi)
    total_violations = pairs_compared = 0
    t_sweep = time.perf_counter()
    for a in residues:
        cert = verify_subadditivity(table, a, n_lo, n_hi)
        total_violations += len(cert.violations)
        pairs_compared += cert.pairs_compared
        margin = "none" if cert.min_margin is None else fmt_value(cert.min_margin)
        report.add("certificate", c=c, a=a, pairs=cert.pairs_checked,
                   violations=len(cert.violations), min_margin=margin,
                   table_sha256=cert.table_checksum,
                   text=cert.serialize())
    report.timings["sweep_s"] = round(time.perf_counter() - t_sweep, 6)
    report.timings["pairs_compared"] = pairs_compared
    return ["fail"] if total_violations else []


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="overrank",
        description="Exact overpartition rank-class counts, their asymptotics, "
                    "explicit deviation bounds, and log-subadditivity certificates.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="exact counts: pbar(n) or rank classes")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--c", type=int)
    p.add_argument("--a", type=int)
    _add_common(p)

    p = sub.add_parser("asymptotic", help="exact vs asymptotic, side by side")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    _add_common(p)

    p = sub.add_parser("bounds", help="bound breakdown, ratios, thresholds, selftest")
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    _add_common(p)

    p = sub.add_parser("verify", help="exhaustive subadditivity certificates")
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--n-lo", type=int, required=True)
    p.add_argument("--n-hi", type=int, required=True)
    p.add_argument("--a-list", default="all",
                   help="comma-separated residues, or 'all' (default)")
    _add_common(p)
    return parser


_parser: argparse.ArgumentParser | None = None  # built by the first main call, then only read


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        report = Report(command=args.command, config=RunConfig(
            precision_bits=args.precision, n_max=args.n_max, cache_path=args.cache))
        t0 = time.perf_counter()
        # looked up per call, so a replaced cmd_* runs
        verdicts = globals()[f"cmd_{args.command}"](args, report)
        report.timings["total_s"] = round(time.perf_counter() - t0, 6)
        # taken again now that the command ran: mpmath is listed if it loaded it
        report.environment = environment_fingerprint()
        _emit(report, args)
    except Exception as exc:  # bad input or a fault: exit 2, one line, no traceback
        bad_input = isinstance(exc, (ValueError, OSError))
        print(f"error: {exc if bad_input else repr(exc)}", file=sys.stderr)
        return 2
    return 0 if all(v == "pass" for v in verdicts) else 1


if __name__ == "__main__":
    sys.exit(main())
