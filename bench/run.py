"""overrank benchmark: seeded workloads, checked outputs, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 bench/run.py --workload certify_cold --seed 0 --seconds 10 --trace 0

The run imports ``overrank`` from ``src/`` beside this directory, sets the
workload up several times (``setup_s`` is the median), then runs the
workload's fixed job list pass after pass until ``--seconds`` have passed
and at least four passes are done.  Every job's output is
checked after its pass, outside the timed region.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics of the traced ones.  Times are scaled to a
nominal machine speed by a yardstick loop (see `Yardstick`), and the run
also prints them as measured.  The last line of standard
output is one JSON object; metric names and units come from BENCHMARK.json
at the repository root, and bench/README.md says what each one means.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
# set up at least SETUP_MIN times and until SETUP_SECONDS have passed
SETUP_MIN, SETUP_SECONDS, SETUP_MAX = 3, 4.0, 40
MIN_PASSES = 4  # untraced; a traced run alternates and needs two

# default-seed output digests at the mpmath backend they were taken on
PINNED = {
    ("python", "certify_cold"): "6ae2b6eca6373f36821596732ece4a7f6a7068c21a5d5bc135b84453cb234d53",
    ("python", "certify_warm"): "1f7a4f0e15d450c0263a182d69cbb9f3d908333d8f3c963f5615fad75fed7c56",
    ("python", "analytic"): "81590ec8469e0f89bcbbae4df93eb7645a2735842d5bc225526778fb2ddcfe9a",
}
DEFAULT_SEED = 0


def import_package():
    sys.path.insert(0, str(SRC))
    try:
        import overrank
    except ImportError as exc:
        sys.exit(f"error: cannot import overrank from {SRC}: {exc}")
    if Path(overrank.__file__).resolve().parent.parent != SRC:
        sys.exit(f"error: overrank imported from {overrank.__file__}, not {SRC}")


def environment() -> dict:
    import mpmath
    from overrank.report import environment_fingerprint
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {**environment_fingerprint(), "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "mpmath_backend": mpmath.libmp.BACKEND}


class Yardstick:
    """The machine's current speed, from a fixed loop of the workload's kind of work.

    The CPU speed of a shared virtual machine drifts by tens of percent over
    seconds and minutes, with other tenants' load, and a run cannot escape it.  The
    loop is sampled before a job once `EVERY_S` have passed since the last
    sample, and after a job that took longer.  A timed interval is scaled by
    nominal / the median of the samples within `WINDOW_S` of it, which reports
    it in seconds at the loop's nominal speed; the median damps the noise of
    single samples.
    """

    EVERY_S = 0.25
    WINDOW_S = 0.5

    def __init__(self, loop, nominal_s: float):
        self.loop, self.nominal_s = loop, nominal_s
        self.samples: list[tuple[float, float]] = []  # (time, loop seconds)
        self._at = -math.inf

    def sample(self) -> None:
        best = math.inf
        t_start = perf_counter()
        for _ in range(3):
            t0 = perf_counter()
            self.loop()
            best = min(best, perf_counter() - t0)
        self._at = perf_counter()
        self.samples.append(((t_start + self._at) / 2, best))

    def maybe_sample(self) -> None:
        if perf_counter() - self._at >= self.EVERY_S:
            self.sample()

    def scale(self, t0: float, t1: float) -> float:
        """Factor that scales the interval t0..t1 to nominal speed."""
        near = [s for t, s in self.samples if t0 - self.WINDOW_S <= t <= t1 + self.WINDOW_S]
        if not near:
            near = [min(self.samples, key=lambda ts: abs(ts[0] - (t0 + t1) / 2))[1]]
        return self.nominal_s / statistics.median(near)


def timed_setup(workload, yardstick) -> list[tuple[float, float]]:
    """A fresh interpreter's `import overrank`, plus the workload's set-up steps.

    Returns the (start, end) time of each step.
    """
    def import_package_fresh():
        subprocess.run([sys.executable, "-c", "import overrank"], check=True, timeout=120,
                       env={**os.environ, "PYTHONPATH": str(SRC)}, cwd=ROOT)
    spans = []
    for step in [import_package_fresh] + workload.setup_steps():
        yardstick.sample()
        t0 = perf_counter()
        step()
        spans.append((t0, perf_counter()))
    yardstick.sample()
    return spans


def timed_setups(workload, yardstick) -> list[list[tuple[float, float]]]:
    setups: list[list[tuple[float, float]]] = []
    t0 = perf_counter()
    while len(setups) < SETUP_MAX and (len(setups) < SETUP_MIN
                                       or perf_counter() - t0 < SETUP_SECONDS):
        setups.append(timed_setup(workload, yardstick))
    return setups


def run_pass(workload, index, yardstick, tracer=None):
    """Run the job list once and return its outcomes."""
    from mpmath import mp
    from workloads import BASE_PREC, Outcome
    workload.before_pass(index)
    gc.collect()
    state: dict = {}
    outcomes = []
    for i, job in enumerate(workload.jobs):
        yardstick.maybe_sample()
        if tracer is not None:
            tracer.job = (index, i)
        mp.prec = BASE_PREC
        t0 = perf_counter()
        try:
            output, error = job.run(state), None
        except (Exception, SystemExit) as exc:  # a failed job is counted, not fatal
            output, error = None, exc
        seconds = perf_counter() - t0
        mp.prec = BASE_PREC
        if seconds >= yardstick.EVERY_S:  # the speed may have moved during a long job
            yardstick.sample()
        outcomes.append(Outcome(job, t0, seconds, output=output, error=error))
    return outcomes


def check_pass(workload, outcomes) -> None:
    for o in outcomes:
        if o.error is not None:
            o.fail(f"raised {type(o.error).__name__}: {o.error}")
            continue
        try:
            workload.check(o)
        except Exception as exc:  # a check that cannot run is a failed check
            o.fail(f"check raised {type(exc).__name__}: {exc}")


def nearest_rank(values: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and how many samples lie beyond it."""
    ranked = sorted(values)
    index = max(0, math.ceil(pct / 100 * len(ranked)) - 1)
    return ranked[index], len(ranked) - 1 - index


def measure(workload, yardstick, seconds: float, trace: bool):
    """Passes until `seconds` have passed and enough passes are done.

    Returns ([(traced, outcomes)] per pass, per-layer metrics of traced passes, tracer).
    """
    from tracer import Tracer, layer_metrics
    tracer = Tracer() if trace else None
    passes: list[tuple[bool, list]] = []
    traced_totals: list[tuple[dict, list]] = []
    t_start = perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        if traced:
            with tracer.patched():
                outcomes = run_pass(workload, len(passes), yardstick, tracer)
            totals = tracer.take()
            totals["report.bytes"] = sum(len(o.output.text) for o in outcomes
                                         if hasattr(o.output, "text"))
            traced_totals.append((totals, outcomes))
        else:
            outcomes = run_pass(workload, len(passes), yardstick)
        check_pass(workload, outcomes)
        passes.append((traced, outcomes))
        # run checks need only the first and the last pass's outputs
        if len(passes) > 2:
            for o in passes[-2][1]:
                o.output = None
        if (perf_counter() - t_start >= seconds
                and len(passes) >= (2 if trace else MIN_PASSES)):
            break
    yardstick.sample()
    for _, outcomes in passes:
        for o in outcomes:
            o.scale = yardstick.scale(o.t0, o.t0 + o.seconds)
    # a traced pass's layer times take the machine speed of the pass as a whole
    layers = [layer_metrics(totals, sum(o.scaled for o in outcomes)
                            / sum(o.seconds for o in outcomes))
              for totals, outcomes in traced_totals]
    return passes, layers, tracer


def digest_of(outcomes) -> str:
    from workloads import sha
    return sha("\n".join(o.digest for o in outcomes))


def check_outputs(workload, runs, layers, seed, backend) -> str:
    """Run-level checks; returns the output digest of the run."""
    outcomes = [o for p in runs for o in p]
    try:
        workload.check_run(runs)
    except Exception as exc:  # a check that cannot run is a failed check
        for o in outcomes:
            o.fail(f"run check raised {type(exc).__name__}: {exc}")
    # outputs must not depend on the pass, and match the pin at the default seed
    digest = digest_of(runs[0])
    pin = PINNED.get((backend, workload.name)) if seed == DEFAULT_SEED else None
    bad = []
    if any(digest_of(p) != digest for p in runs):
        bad.append("outputs differ between passes")
    if pin is not None and digest != pin:
        bad.append(f"digest {digest} differs from the pinned {pin}")
    pairs = workload.expected_pairs()
    commands = sum(1 for j in workload.jobs if "argv" in j.meta)
    for m in layers:
        if m["verify.pairs"] != pairs or m["cli.main.calls"] != commands:
            bad.append(f"tracer saw {m['verify.pairs']} pairs and {m['cli.main.calls']} "
                       f"commands in a pass; the job list implies {pairs} and {commands}")
            break
    for msg in bad:
        for o in outcomes:
            o.fail(msg)
    return digest + " pin=" + ("unpinned" if pin is None else
                               "match" if digest == pin else "MISMATCH")


def timings(passes, setups, yardstick, tail_pct: int, scaled: bool) -> tuple[dict, str]:
    """End-to-end times from untraced passes, scaled or as measured."""
    seconds = (lambda o: o.scaled) if scaled else (lambda o: o.seconds)
    untraced = [p for traced, p in passes if not traced]
    jobs = [seconds(o) for p in untraced for o in p]
    tail, beyond = nearest_rank(jobs, tail_pct)
    setup = (lambda t0, t1: (t1 - t0) * yardstick.scale(t0, t1)) if scaled else \
        (lambda t0, t1: t1 - t0)
    values = {
        "setup_s": statistics.median(sum(setup(*step) for step in steps) for steps in setups),
        # a pass's wall time is the sum of its jobs' times, scaled job by job
        "wall_s": statistics.median(sum(seconds(o) for o in p) for p in untraced),
        "job_p50_s": statistics.median(jobs),
        "job_tail_s": tail,
    }
    return values, (f"job_tail_s is p{tail_pct}: {beyond} of {len(jobs)} jobs beyond it; "
                    f"setup_s is the median of {len(setups)} set-ups")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    # OVERRANK_* variables set command defaults (precision, depth, cache)
    for key in [k for k in os.environ if k.startswith("OVERRANK_")]:
        del os.environ[key]
    import_package()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from mpmath import mp
    from workloads import BASE_PREC, WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    mp.prec = BASE_PREC

    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        workload = WORKLOADS[args.workload](args.seed, work)
        yardstick = Yardstick(*workload.yardstick)
        setups = timed_setups(workload, yardstick)
        passes, layers, tracer = measure(workload, yardstick, args.seconds, bool(args.trace))
        env = environment()
        runs = [p for _, p in passes]
        digest = check_outputs(workload, runs, layers, args.seed, env["mpmath_backend"])
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass

    outcomes = [o for p in runs for o in p]
    failed = [o for o in outcomes if o.failures]
    for o in failed[:10]:
        print("FAILED " + "; ".join(o.failures[:3]), file=sys.stderr)
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(passes)} jobs={len(outcomes)} jobs_per_pass={len(workload.jobs)}")
    print("environment " + json.dumps(env, sort_keys=True))
    print(f"digest sha256:{digest}")
    print(f"yardstick: median {statistics.median(s for _, s in yardstick.samples) * 1e3:.4g} ms over "
          f"{len(yardstick.samples)} samples of {yardstick.loop.__name__}, nominal "
          f"{yardstick.nominal_s * 1e3:.4g} ms; times below are scaled to the nominal speed")

    if args.trace:
        entries = spec["per_layer"]
        values = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        walls = {t: statistics.median(sum(o.scaled for o in p) for tt, p in passes if tt == t)
                 for t in (False, True)}
        values["trace_overhead_s"] = walls[True] - walls[False]
        OUT.mkdir(exist_ok=True)
        (OUT / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps(
            {"environment": env, "spans": tracer.spans}), encoding="utf-8")
    else:
        entries = spec["end_to_end"]
        measured, _ = timings(passes, setups, yardstick, workload.tail_pct, scaled=False)
        values, tail_note = timings(passes, setups, yardstick, workload.tail_pct, scaled=True)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print("as measured: " + ", ".join(f"{k} = {v:.6g} s" for k, v in measured.items()))
        print(f"fail_frac = {len(failed) / len(outcomes):.6g} ratio "
              f"({len(failed)} of {len(outcomes)} jobs)")
        print(tail_note)
    declared = {e["name"]: e["unit"] for e in entries}
    if set(declared) != set(values):
        sys.exit(f"error: metrics {sorted(set(values) ^ set(declared))} "
                 "are not declared in BENCHMARK.json")
    for name, unit in declared.items():
        print(f"{name} = {values[name]:.6g} {unit}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
