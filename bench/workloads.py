"""Workloads of the overrank benchmark: seeded job lists, set-up, output checks.

A workload draws one fixed job list from the seed; the benchmark runs that
list once per pass.  Command-shaped jobs go through ``overrank.cli.main`` in
process with ``--jobs 1 --format json-lines``, and the job includes parsing
the report, as a script consuming the command would.  What only the library
offers (``pbar_series``, ``const_C``, ``nbar_asymptotic``) is called
directly.  Every check runs after the pass, outside the timed region, and
compares a job's output with a path the job does not share.
"""

from __future__ import annotations

import functools
import hashlib
import io
import json
import math
import random
from fractions import Fraction
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from math import gcd, isqrt
from pathlib import Path
from typing import Callable

from mpmath import mp, mpf

from overrank import asymptotic, bounds, cli, counts, verify
from overrank.report import Report
from overrank.verify import parse_certificate

# mpmath's default precision; pinned before every job and check, because
# cli.main sets mp.prec globally and library results round at mp.prec
BASE_PREC = 53

BRUTE_N = 25  # rows compared with the brute-force enumeration
RESIDUAL_TOL = mpf("1e-12")  # |imaginary residual| / |estimate| of nbar_asymptotic
# a_asymptotic's |imaginary residual| may reach 2^-(precision - ROUNDING_SLACK_BITS)
# of the leading arc e^(pi sqrt(n) / c); the noise seen is below 2^-(precision + 32)
ROUNDING_SLACK_BITS = 16
BRUTE_WIDTH = 100  # certificates of ranges this narrow get a brute-force min_margin
FLOAT_TOL = 1e-9  # const_C against a float re-summation


def integer_loop() -> None:
    """Yardstick loop for the counting workloads: small-integer adds on a list."""
    row = list(range(1, 1001))
    for _ in range(40):
        for i in range(1, 1000):
            row[i] = (row[i] + row[i - 1]) & 0xFFFFFFFFFFFF


def mpmath_loop() -> None:
    """Yardstick loop for the analytic workload: mpmath phases and roots at 180 bits."""
    with mp.workprec(180):
        x = mpf(1)
        for i in range(1, 120):
            x = mp.expjpi(mpf(i) / 7) * x + mp.sqrt(i)


@dataclass
class Job:
    kind: str
    run: Callable[[dict], object]  # takes the pass state, returns the output
    meta: dict = field(default_factory=dict)


@dataclass
class CliOutput:
    rc: int
    text: str
    stderr: str
    report: Report | None


@dataclass
class Outcome:
    job: Job
    t0: float  # perf_counter() at the start
    seconds: float  # as measured
    scale: float = 1.0  # machine-speed factor that scales `seconds` to nominal speed
    output: object = None
    error: BaseException | None = None
    failures: list[str] = field(default_factory=list)
    digest: str = ""

    @property
    def scaled(self) -> float:
        return self.seconds * self.scale

    def fail(self, message: str) -> None:
        label = " ".join(f"{k}={v}" for k, v in self.job.meta.items()
                         if k not in ("argv", "cache"))
        self.failures.append(f"{self.job.kind} {label}: {message}")


def cli_job(kind: str, argv: list[str], **meta) -> Job:
    argv = argv + ["--jobs", "1", "--format", "json-lines"]

    def run(state):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(argv)
        mp.prec = BASE_PREC
        text = out.getvalue()
        return CliOutput(rc, text, err.getvalue(),
                         Report.from_json_lines(text) if text else None)
    return Job(kind, run, dict(meta, argv=argv))


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def records(report: Report, kind: str) -> list[dict]:
    return [r for r in report.outputs if r["record"] == kind]


def check_cli(o: Outcome) -> CliOutput | None:
    """Exit code and report round trip; returns the output when it parsed."""
    out = o.output
    if out.rc != 0:
        o.fail(f"exit code {out.rc}: {out.stderr.strip()[:200]}")
    if out.report is None:
        o.fail("no report")
        return None
    if out.report.to_json_lines() != out.text:
        o.fail("report does not round-trip through json-lines")
    # the config record carries the cache path, which differs between passes
    o.digest = sha(json.dumps([out.report.command, out.report.inputs,
                               out.report.outputs], sort_keys=True))
    return out


def brute_min_margin(row: list[int], lo: int, hi: int) -> Fraction | None:
    """Smallest N(n1) N(n2) / N(n1 + n2) over lo <= n1 <= n2 <= hi, pair by pair."""
    best = None  # (numerator, denominator)
    for n1 in range(lo, hi + 1):
        for n2 in range(n1, hi + 1):
            num, den = row[n1] * row[n2], row[n1 + n2]
            if den and (best is None or num * best[1] < best[0] * den):
                best = (num, den)
    return None if best is None else Fraction(*best)


def check_certificates(o: Outcome, residues, lo: int, hi: int,
                       table=None, checksum: str = "") -> None:
    """Round trip and the theorem's claims; against `table`, its checksum and,
    for narrow ranges, a brute-force min_margin."""
    certs = records(o.output.report, "certificate")
    if sorted(r["a"] for r in certs) != sorted(residues):
        o.fail("certificates do not cover the requested residues")
    for rec in certs:
        cert = parse_certificate(rec["text"])
        if cert.serialize() != rec["text"]:
            o.fail("certificate does not round-trip")
        if cert.violations or rec["violations"] != 0:
            o.fail(f"violations at a={cert.a}")
        if cert.min_margin is None or cert.min_margin <= 1:
            o.fail(f"min_margin {cert.min_margin} is not > 1 at a={cert.a}")
        if table is None:
            continue
        if cert.table_checksum != checksum:
            o.fail("certificate names another table")
        if hi - lo < BRUTE_WIDTH:
            row = [r[cert.a] for r in table.counts]
            if cert.min_margin != brute_min_margin(row, lo, hi):
                o.fail(f"min_margin differs from brute force at a={cert.a}")


def check_table(table, pbar: list[int]) -> list[str]:
    """Row sums against the series, low rows against the brute-force oracle."""
    bad = []
    if any(table.row_sum(n) != pbar[n] for n in range(table.n_max + 1)):
        bad.append(f"c={table.c}: row sums differ from pbar_series")
    for n in range(min(BRUTE_N, table.n_max) + 1):
        if counts.brute_force_rank_counts(n).fold(table.c) != table.counts[n]:
            bad.append(f"c={table.c}: row {n} differs from brute force")
            break
    return bad


def cert_texts(report: Report) -> list[str]:
    return [r["text"] for r in records(report, "certificate")]


class Workload:
    name = ""
    tail_pct = 90  # nearest-rank percentile behind job_tail_s
    # machine-speed loop and its time on an uncontended 2.1 GHz Xeon vCPU, CPython 3.11;
    # contention slows integer and mpmath code by different factors
    yardstick = (integer_loop, 0.0036)

    def __init__(self, seed: int, work: Path):
        self.rng = random.Random(f"overrank-bench:{self.name}:{seed}")
        self.work = work
        self.jobs: list[Job] = []

    def setup_steps(self) -> list[Callable[[], None]]:
        """Work every user of the workload pays before the first job, in steps."""
        return []

    def before_pass(self, index: int) -> None:
        """Untimed preparation of a pass."""

    def check(self, o: Outcome) -> None:
        raise NotImplementedError

    def check_run(self, passes: list[list[Outcome]]) -> None:
        """Checks that need the whole run; mark the outcomes they cover."""

    def expected_pairs(self) -> int:
        """Exhaustive-sweep pairs one pass certifies, from the job list alone."""
        total = 0
        for job in self.jobs:
            if job.kind == "verify":
                width = job.meta["hi"] - job.meta["lo"] + 1
                total += len(job.meta["residues"]) * width * (width + 1) // 2
        return total


def verify_argv(c, residues, lo, hi, depth, cache) -> list[str]:
    a_list = "all" if len(residues) == c else ",".join(map(str, residues))
    return ["verify", "--c", str(c), "--a-list", a_list, "--n-lo", str(lo),
            "--n-hi", str(hi), "--n-max", str(depth), "--cache", str(cache)]


# ---------------------------------------------------------------------------

class CertifyCold(Workload):
    """The paper's certificates from nothing: table DP, sweep, cache write."""

    name = "certify_cold"
    tail_pct = 80  # among the c = 5 jobs, the slowest; near their median at 4 or 5 passes
    # the paper's range, 9 <= n1 <= n2 <= 800, needs tables to depth 1600
    N_LO, N_HI = 9, 800

    def __init__(self, seed, work):
        super().__init__(seed, work)
        moduli = [3, 4, 5]
        self.rng.shuffle(moduli)  # the range is the paper's, so the seed draws the order
        for c in moduli:
            cache = work / f"cold-c{c}.cache"
            self.jobs.append(cli_job("verify", verify_argv(c, range(c), self.N_LO, self.N_HI,
                                                           2 * self.N_HI, cache),
                                     c=c, residues=list(range(c)), lo=self.N_LO,
                                     hi=self.N_HI, cache=cache))

    def before_pass(self, index):
        for job in self.jobs:
            job.meta["cache"].unlink(missing_ok=True)

    def check(self, o):
        if check_cli(o):
            m = o.job.meta
            check_certificates(o, m["residues"], m["lo"], m["hi"])

    def check_run(self, passes):
        # the caches of the last pass are still on disk
        pbar = counts.pbar_series(2 * self.N_HI)
        for o in passes[-1]:
            if o.output is None or o.output.report is None:
                continue
            m = o.job.meta
            table = counts.load_table(m["cache"])
            bad = check_table(table, pbar)
            certs = cert_texts(o.output.report)
            if any(parse_certificate(t).table_checksum != table.checksum() for t in certs):
                bad.append("cache checksum differs from the certificates")
            # the same command again now reads the cache it just wrote
            warm = o.job.run({})
            if warm.report is None or cert_texts(warm.report) != certs:
                bad.append("warm certificates differ from cold ones")
            for p in passes:
                for q in p:
                    if q.job is o.job:
                        for msg in bad:
                            q.fail(msg)


class CertifyWarm(Workload):
    """Single-residue verify jobs and count jobs on the paper's caches, built in set-up."""

    name = "certify_warm"
    tail_pct = 90
    MODULI = (3, 4, 5)
    DEPTH, N_LO, N_HI = 1600, 9, 800  # the paper's tables and range, as certify_cold
    # one verify job per width per modulus; the seed draws its residue and
    # places its sub-range, so every seed sweeps the same number of pairs
    WIDTHS = (100, 200, 300, 400, 500, 600, 700, 792)
    COUNT_JOBS = 12

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.caches = {c: work / f"warm-c{c}.cache" for c in self.MODULI}
        self.tables = {}
        jobs = []
        for width in self.WIDTHS:
            # larger n have longer counts, so each width's three sub-ranges take
            # the low, middle and high third of the starts, a third per modulus
            starts = self.N_HI - width + 2 - self.N_LO
            thirds = list(range(len(self.MODULI)))
            self.rng.shuffle(thirds)
            for c, third in zip(self.MODULI, thirds):
                a = self.rng.randrange(c)
                lo = self.N_LO + (third * starts + self.rng.randrange(starts)) // 3
                hi = lo + width - 1
                jobs.append(cli_job("verify", verify_argv(c, [a], lo, hi, self.DEPTH,
                                                          self.caches[c]),
                                    c=c, residues=[a], lo=lo, hi=hi))
        for i in range(self.COUNT_JOBS):
            c = self.MODULI[i % 3]
            n = self.rng.randint(0, self.DEPTH)
            jobs.append(cli_job("count", ["count", "--n", str(n), "--c", str(c),
                                          "--n-max", str(self.DEPTH),
                                          "--cache", str(self.caches[c])], c=c, n=n))
        self.rng.shuffle(jobs)
        self.jobs = jobs

    def setup_steps(self):
        def build(c):
            self.tables[c] = counts.rank_class_table(self.DEPTH, c)
            counts.save_table(self.tables[c], self.caches[c])
        return [functools.partial(build, c) for c in self.MODULI]

    # oracles for the checks, computed once, after set-up and outside timing
    @functools.cached_property
    def pbar(self):
        return counts.pbar_series(self.DEPTH)

    @functools.cached_property
    def checksums(self):
        return {c: table.checksum() for c, table in self.tables.items()}

    def check(self, o):
        if not check_cli(o):
            return
        m = o.job.meta
        table = self.tables[m["c"]]
        if o.job.kind == "verify":
            check_certificates(o, m["residues"], m["lo"], m["hi"], table,
                               self.checksums[m["c"]])
            return
        values = [int(r["value"]) for r in records(o.output.report, "count")]
        if values != table.counts[m["n"]]:
            o.fail("counts differ from the set-up table")
        if sum(values) != self.pbar[m["n"]]:
            o.fail("class counts do not sum to pbar(n)")

    def check_run(self, passes):
        flat = [o for p in passes for o in p]
        for c, table in self.tables.items():
            bad = check_table(table, self.pbar)
            if counts.load_table(self.caches[c]).checksum() != self.checksums[c]:
                bad.append("cache file differs from the set-up table")
            # the first verify job per modulus against the library's sweep of the
            # table built in memory, which never went through a cache file
            first = next((o for o in passes[0] if o.job.kind == "verify"
                          and o.job.meta["c"] == c and o.output and o.output.report), None)
            if first is not None:
                m = first.job.meta
                cold = [verify.verify_subadditivity(table, a, m["lo"], m["hi"]).serialize()
                        for a in m["residues"]]
                if cold != cert_texts(first.output.report):
                    bad.append("cold certificates differ from warm ones")
            for o in flat:
                if o.job.meta["c"] == c:
                    for msg in bad:
                        o.fail(msg)


def series_params(index: int, c: int | None) -> tuple[float, float]:
    """(decay alpha, prefactor) of C_index = prefactor * sum pbar(r) e^(-alpha r), in floats."""
    pi = math.pi
    if index == 1:
        return pi, math.exp(pi / 16) + math.exp(-7 * pi / 16)
    if index == 2:
        return (c * c - 8) * pi / (16 * c * c), 2.0
    if index == 3:
        return pi, 1.0
    if index == 4:
        return pi / (2 * c * c), 1.0
    return pi / 4, math.exp(-pi / 8)


class Analytic(Workload):
    """Circle-method estimates, bounds and certified constants; no table is built."""

    name = "analytic"
    yardstick = (mpmath_loop, 0.0034)
    # p80 falls among the pbar and nbar jobs (one of each per pass) at 4 or 5 passes
    tail_pct = 80
    PBAR_PREFIX = 2574  # C4(5), the slowest-decaying constant here, truncates at r = 2574
    CONSTANTS = ((1, None), (3, None), (5, None), (2, 4), (2, 5), (4, 3), (4, 4), (4, 5))
    # (c, n) centres of the estimates, each followed by the bounds on its error at
    # the same (c, n); n is drawn within 1% above its centre
    ASYMPTOTIC = ((3, 20000), (5, 40000), (7, 60000), (3, 80000))
    NBAR = (3, 20000)

    def __init__(self, seed, work):
        super().__init__(seed, work)
        rng = self.rng
        jobs = []
        for index, c in self.CONSTANTS:
            jobs.append(Job("const_C", lambda st, i=index, c=c: bounds.const_C(i, c, st["pbar"]),
                            {"index": index, "c": c}))
        for c, n0 in self.ASYMPTOTIC:
            a = rng.choice([a for a in range(1, c) if gcd(a, c) == 1])
            n = n0 + rng.randrange(n0 // 100)
            jobs.append(cli_job("asymptotic", ["asymptotic", "--a", str(a), "--c", str(c),
                                               "--n", str(n)], c=c, a=a, n=n))
            jobs.append(cli_job("bounds", ["bounds", "--c", str(c), "--n", str(n)],
                                c=c, n=n))
        c, n0 = self.NBAR
        a, n = rng.randrange(c), n0 + rng.randrange(n0 // 100)
        jobs.append(Job("nbar", lambda st: asymptotic.nbar_asymptotic(a, c, n),
                        {"c": c, "a": a, "n": n}))
        rng.shuffle(jobs)

        def series(st):
            st["pbar"] = counts.pbar_series(self.PBAR_PREFIX)
            return st["pbar"]
        # the constants need the series, so it runs first
        self.jobs = [Job("pbar", series, {"n": self.PBAR_PREFIX})] + jobs

    def check(self, o):
        getattr(self, "_check_" + o.job.kind)(o, o.output, o.job.meta)

    def _check_pbar(self, o, pbar, m):
        self.pbar = pbar  # checked here, then used to check the constants
        o.digest = sha(",".join(map(str, pbar)))
        # Gauss's theta identity: pbar(n) = 2 sum_k (-1)^(k+1) pbar(n - k^2)
        for n in range(1, len(pbar)):
            if pbar[n] != 2 * sum((-1) ** (k + 1) * pbar[n - k * k]
                                  for k in range(1, isqrt(n) + 1)):
                o.fail(f"pbar({n}) breaks the theta recurrence")
                break
        if any(counts.brute_force_rank_counts(n).total() != pbar[n]
               for n in range(BRUTE_N + 1)):
            o.fail("pbar differs from brute force")

    def _check_const_C(self, o, cc, m):
        o.digest = sha(f"{mp.nstr(cc.upper, 20)} {mp.nstr(cc.partial, 20)} "
                       f"{mp.nstr(cc.tail_bound, 20)} {cc.truncation}")
        alpha, scale = series_params(m["index"], m["c"])
        approx = scale * math.fsum(self.pbar[i] * math.exp(-alpha * i)
                                   for i in range(1, cc.truncation + 1))
        if abs(float(cc.upper) - approx) > FLOAT_TOL * approx:
            o.fail(f"upper {mp.nstr(cc.upper, 15)} differs from float sum {approx!r}")
        majorant = {2: bounds.cbar2, 4: bounds.cbar4}.get(m["index"])
        if majorant is not None and not cc.upper < majorant(m["c"]):
            o.fail("exceeds its closed-form majorant")

    def _check_asymptotic(self, o, out, m):
        if not check_cli(o):
            return
        rec = records(out.report, "asymptotic")[0]
        # A(a/c; n) crosses zero as n varies, and for c = 5, a = 2 or 3 its
        # leading sine-weighted sum cancels to rounding noise, so the residual
        # is held to rounding level at the working precision of the leading
        # arc's size, not of the value's
        with mp.workprec(256):
            scale = mp.exp(mp.pi * mp.sqrt(m["n"]) / m["c"])
            tol = mpf(2) ** (ROUNDING_SLACK_BITS - rec["precision_bits"]) * scale
            if mpf(rec["imag_residual"]) > tol:
                o.fail(f"imaginary residual {rec['imag_residual']} is above "
                       f"2^-{rec['precision_bits'] - ROUNDING_SLACK_BITS} of the arc")
        if rec["exact"] != "unavailable":
            o.fail("an exact table was consulted")
        lo, hi = bounds.pbar_sandwich(m["n"])
        est = mpf(records(out.report, "engel")[0]["estimate"])
        if not lo < est < hi:
            o.fail("Engel estimate outside the pbar sandwich")

    def _check_bounds(self, o, out, m):
        if not check_cli(o):
            return
        with mp.workprec(128):
            pieces = sum(mpf(r["value"]) for r in records(out.report, "error_piece"))
            total = mpf(records(out.report, "error_total")[0]["value"])
            if abs(pieces - total) > mpf("1e-15") * total:
                o.fail("error_total is not the sum of its pieces")

    def _check_nbar(self, o, est, m):
        o.digest = sha(f"{mp.nstr(est.value, 20)} {mp.nstr(est.imag_residual, 5)}")
        if est.imag_residual > RESIDUAL_TOL * abs(est.value):
            o.fail(f"imaginary residual {mp.nstr(est.imag_residual, 5)} "
                   f"against {mp.nstr(est.value, 5)}")
        th = bounds.sandwich_threshold(m["c"])
        lo, hi = bounds.pbar_sandwich(m["n"])
        if not th.lower_coef * lo < est.value < th.upper_coef * hi:
            o.fail("estimate outside the certified sandwich")


WORKLOADS = {w.name: w for w in (CertifyCold, CertifyWarm, Analytic)}
