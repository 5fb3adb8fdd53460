"""Planted faults in `overrank`, each with the tests that must catch it.

Every mutant edits one file of the package: an old text that occurs there
exactly once becomes a new text.  For each mutant the script copies the
working tree, without .git and caches, to a temporary directory, applies the
edit there, and runs the mutant's tests with pytest.  A mutant is killed when every
one of its tests fails (a strict xfail that passes counts as failing);
"partly" names the tests that still passed.  Under --full it is killed when
any test fails, and the report names those that did.  Mutants run one after
another, never in parallel.

    python tests/mutants.py              every mutant against its own tests
    python tests/mutants.py NAME ...     the named mutants only
    python tests/mutants.py --full NAME  the whole tier-1 suite against one mutant
    python tests/mutants.py --list       the mutants and their tests

The exit status is 0 when every mutant run was killed.  A tier-1 test,
tests/test_mutants.py, checks that every old text still occurs exactly once,
so the list cannot go stale unseen when the code moves.  Standard library only.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src", "overrank")
SKIPPED = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache",
                                 ".bench_work", "out")
TIMEOUT_S = 1200  # a mutant that makes a test hang is reported, not waited on forever
PYTEST = ("-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", "--continue-on-collection-errors")


class Mutant(NamedTuple):
    name: str
    file: str  # under src/overrank
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, from the repository root


_ARC_PLAN = "tests/test_modsums.py::test_arc_plan_matches_the_branch_oracle"
_ARC_WALK = ("tests/test_asymptotic.py::test_arc_walk_bits_equal_per_residue_loops[160]",
             "tests/test_asymptotic.py::test_arc_walk_bits_equal_per_residue_loops[64]")
_KERNEL_BITS = ("tests/test_modsums.py::test_kloosterman_B_bits_equal_direct",
                "tests/test_modsums.py::test_kloosterman_D_bits_equal_direct",
                "tests/test_asymptotic.py::test_estimates_bits_equal_direct_kernels")
_LOWERED_LIMIT = ("tests/test_counts.py::"
                  "test_count_past_a_lowered_int_str_limit_names_its_row_at_first_read")

MUTANTS = (
    # the kernel tables
    Mutant("sine-memo-dropped", "modsums.py",
           "        value = self.sines.get(x)\n", "        value = None\n",
           ("tests/test_asymptotic.py::test_b_evaluates_each_sine_once",)),
    Mutant("tables-at-kernel-precision", "modsums.py",
           "self.c, self.prec, self.wp = c, prec, prec + 10",
           "self.c, self.prec, self.wp = c, prec, prec",
           ("tests/test_modsums.py::test_unit_phase_reduction",
            "tests/test_modsums.py::test_kernel_tables_take_entries_at_their_own_precision",
            *_KERNEL_BITS)),
    Mutant("phase-key-not-reduced", "modsums.py",
           "        key = num % self.k\n", "        key = num\n",
           ("tests/test_modsums.py::test_kernel_tables_hold_one_arc_of_one_modulus_and_precision",
            "tests/test_modsums.py::test_unit_phase_reduction", *_KERNEL_BITS)),
    Mutant("phase-at-ambient-precision", "modsums.py",
           "_cos_sin_pi(2 * key, self.k, self.wp)", "_cos_sin_pi(2 * key, self.k, mp.prec)",
           ("tests/test_modsums.py::test_unit_phase_reduction",
            "tests/test_modsums.py::test_kernel_tables_take_entries_at_their_own_precision",
            *_KERNEL_BITS,
            "tests/test_asymptotic.py::test_outputs_independent_of_ambient_precision")),
    # the arc plan and D's h' coefficient
    Mutant("d-coefficient-sign-flipped", "modsums.py",
           "int(2 * m) % k", "-int(2 * m) % k", (_ARC_PLAN, *_ARC_WALK)),
    Mutant("mid-arcs-dropped", "modsums.py",
           "        if k % c:\n", "        if k % c and secondary_terms(a, c, k)[0]:\n",
           (_ARC_PLAN, *_ARC_WALK)),
    Mutant("even-b-arcs", "modsums.py",
           "range(c, kmax + 1, c) if k % 2]", "range(c, kmax + 1, c)]",
           (_ARC_PLAN, *_ARC_WALK)),
    Mutant("zero-d-arcs-kept", "asymptotic.py",
           "                if tk != 0:\n", "                if True:\n",
           (*_ARC_WALK, "tests/test_bench_surface.py::test_seed0_outputs_match_the_pins[analytic]")),
    Mutant("d-coefficient-unchecked", "modsums.py",
           "    if not isinstance(e, int):\n", "    if False:\n",
           ("tests/test_modsums.py::test_d_refuses_a_coefficient_that_is_not_an_int",)),
    # ROADMAP item 15's phase, -m with m's half read mod k: the strict xfail
    # on the exact coefficients must report XPASS(strict)
    Mutant("d-phase-of-item-15", "modsums.py",
           "int(2 * m) % k", "-m.numerator * pow(m.denominator, -1, k) % k",
           ("tests/test_asymptotic.py::test_estimates_meet_exact_coefficients", _ARC_PLAN)),
    # the loaded columns' digit-limit message
    Mutant("column-limit-error-unnamed", "counts.py",
           "            except ValueError:  # int()'s digit limit fell since the load\n",
           "            except KeyError:  # int()'s digit limit fell since the load\n",
           (_LOWERED_LIMIT,)),
    Mutant("row-limit-error-unnamed", "counts.py",
           "        except ValueError:\n            raise ValueError(_long_count(n)) from None\n",
           "        except KeyError:\n            raise ValueError(_long_count(n)) from None\n",
           (_LOWERED_LIMIT,)),
)


def apply(root: Path, mutant: Mutant) -> None:
    """Edit the copy of the package under root."""
    path = root / PACKAGE / mutant.file
    text = path.read_text()
    if text.count(mutant.old) != 1:
        raise SystemExit(f"{mutant.name}: the old text occurs {text.count(mutant.old)} "
                         f"times in {mutant.file}, not once")
    path.write_text(text.replace(mutant.old, mutant.new))


def hit(named: str, reported: str) -> bool:
    """Whether a failure pytest reports for node `reported` is one of test `named`."""
    return (reported == named or reported.startswith(named + "[")
            or named.startswith(reported + "::"))


def run(mutant: Mutant, full: bool) -> tuple[str, float, list[str]]:
    """(status, wall seconds, failing node ids) of one mutant's run."""
    with tempfile.TemporaryDirectory(prefix="overrank-mutant-") as tmp:
        root = Path(tmp, "tree")
        shutil.copytree(ROOT, root, ignore=SKIPPED)
        apply(root, mutant)
        env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        start = time.perf_counter()
        # the anchor test fails on every mutated tree, so a full run leaves it out
        tests = ("--ignore=tests/test_mutants.py",) if full else mutant.tests
        try:
            proc = subprocess.run([sys.executable, *PYTEST, *tests],
                                  cwd=root, env=env, capture_output=True, text=True,
                                  timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "timeout", time.perf_counter() - start, []
        wall = time.perf_counter() - start
    failed = re.findall(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.M)
    if proc.returncode not in (0, 1, 2):  # pytest could not run the tests
        sys.stdout.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        return "error", wall, failed
    if full:
        return ("killed" if failed else "survived"), wall, failed
    passed = [t for t in mutant.tests if not any(hit(t, f) for f in failed)]
    status = "killed" if not passed else "survived" if len(passed) == len(mutant.tests) else "partly"
    return status, wall, failed if status == "killed" else passed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--full", action="store_true",
                        help="run the whole tier-1 suite against one mutant")
    parser.add_argument("--list", action="store_true", help="list the mutants and exit")
    args = parser.parse_args(argv)
    by_name = {m.name: m for m in MUTANTS}
    unknown = [name for name in args.names if name not in by_name]
    if unknown:
        parser.error(f"unknown mutants: {', '.join(unknown)}")
    chosen = [by_name[name] for name in args.names] or list(MUTANTS)
    if args.full and len(chosen) != 1:
        parser.error("--full runs exactly one named mutant")
    if args.list:
        for m in chosen:
            print(m.name, *m.tests, sep="\n    ")
        return 0
    statuses = []
    total = time.perf_counter()
    for m in chosen:
        status, wall, nodes = run(m, args.full)
        statuses.append(status)
        # killed: the failing nodes; partly or survived: the named tests that passed
        print(f"{m.name:28} {status:8} {wall:6.1f} s  " + " ".join(nodes), flush=True)
    print(f"{statuses.count('killed')} of {len(chosen)} killed in "
          f"{time.perf_counter() - total:.1f} s")
    return 0 if all(s == "killed" for s in statuses) else 1


if __name__ == "__main__":
    sys.exit(main())
