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
_FRACTION_ORACLE = "tests/test_modsums.py::test_secondary_terms_match_the_fraction_oracle"
_ARC_WALK = ("tests/test_asymptotic.py::test_arc_walk_bits_equal_per_residue_loops[160]",
             "tests/test_asymptotic.py::test_arc_walk_bits_equal_per_residue_loops[64]")
_B_BITS = "tests/test_modsums.py::test_kloosterman_B_bits_equal_direct"
_ESTIMATE_BITS = "tests/test_asymptotic.py::test_estimates_bits_equal_direct_kernels"
_KERNEL_BITS = (_B_BITS, "tests/test_modsums.py::test_kloosterman_D_bits_equal_direct",
                _ESTIMATE_BITS)
_ROOT_BITS = "tests/test_modsums.py::test_arc_roots_have_the_bits_of_mpmath"
_MODULUS_BITS = "tests/test_modsums.py::test_modulus_roots_have_the_bits_of_mpmath"
_OWN_PRECISION = "tests/test_modsums.py::test_kernel_tables_take_entries_at_their_own_precision"
_HALF_TABLE = "tests/test_modsums.py::test_multipliers_half_table_equals_per_h_form"
_ZUCKERMAN = "tests/test_modsums.py::test_multipliers_give_the_exact_overpartition_counts"
_ROW_SCAN = "tests/test_counts.py::test_valid_cache_loads_without_a_line_by_line_scan"
_SURPLUS_ROW = "tests/test_counts.py::test_surplus_canonical_row_of_any_width_lies_beyond_n_max"
_INDICES = "tests/test_counts.py::test_table_indices_outside_the_table_are_refused"
_AIMED_EDITS = "tests/test_counts.py::test_load_table_equals_the_regex_loader_on_aimed_edits"
_FUZZED_EDITS = "tests/test_counts.py::test_load_table_equals_the_regex_loader"
_UNREAD_COUNTS = "tests/test_counts.py::test_load_checks_the_counts_no_command_reads"
_TABLE_BUILD = ("tests/test_counts.py::test_table_matches_dp_oracle_at_division_edges",
                "tests/test_counts.py::test_c4_columns_meet_the_square_rule",
                "tests/test_counts.py::test_c2_and_c4_columns_meet_lovejoys_a_half",
                "tests/test_counts.py::test_rank_row_equals_every_row_of_the_depth_300_tables")

MUTANTS = (
    # the kernel tables
    Mutant("sine-memo-dropped", "modsums.py",
           "        value = self.sines.get(x)\n", "        value = None\n",
           ("tests/test_asymptotic.py::test_b_evaluates_each_sine_once",)),
    Mutant("tables-at-kernel-precision", "modsums.py",
           "self.c, self.prec, self.wp = c, prec, prec + 10",
           "self.c, self.prec, self.wp = c, prec, prec",
           ("tests/test_modsums.py::test_unit_phase_reduction",
            _OWN_PRECISION, *_KERNEL_BITS)),
    Mutant("phase-key-not-reduced", "modsums.py",
           "        key = num % self.k\n", "        key = num\n",
           ("tests/test_modsums.py::test_kernel_tables_hold_one_arc_of_one_modulus_and_precision",
            "tests/test_modsums.py::test_unit_phase_reduction", *_KERNEL_BITS)),
    # a root near a rounding tie, the arc's phases and multipliers among them,
    # taken from mpmath at the ambient mp.prec
    Mutant("phase-at-ambient-precision", "modsums.py",
           "_cos_sin_pi(num, den, self.wp)", "_cos_sin_pi(num, den, mp.prec)",
           (_ROOT_BITS, _MODULUS_BITS, _OWN_PRECISION, *_KERNEL_BITS,
            "tests/test_asymptotic.py::test_outputs_independent_of_ambient_precision")),
    # the arc's fixed-point root table
    Mutant("root-tie-guard-removed", "modsums.py",
           "    if -guard <= rem - half <= guard:\n", "    if False:\n",
           (_ROOT_BITS, _HALF_TABLE,
            "tests/test_modsums.py::test_kloosterman_D_bits_equal_direct")),
    Mutant("root-delta-dropped", "modsums.py",
           "        d = self.pi * (", "        d = 0 * (",
           (_ROOT_BITS, _MODULUS_BITS, _HALF_TABLE,
            "tests/test_modsums.py::test_unit_phase_reduction", _OWN_PRECISION, *_KERNEL_BITS)),
    Mutant("root-conjugate-sign-flipped", "modsums.py",
           "[(c, -s) for c, s in reversed(", "[(c, s) for c, s in reversed(",
           (_ROOT_BITS, _HALF_TABLE, _ZUCKERMAN, *_KERNEL_BITS,
            "tests/test_acceptance.py::test_criterion_09_asymptotic_sanity")),
    # each multiplier's h' taken as h itself: the ratios keep their bits (h' has
    # the Dedekind sum of h), but h' and the classes sharing one omega do not
    Mutant("multiplier-inverse-is-h", "modsums.py",
           "inverse = {h: pow(h, -1, k) for h in hs}", "inverse = {h: h for h in hs}",
           (_HALF_TABLE, "tests/test_modsums.py::test_multipliers_evaluate_omega_once_per_class",
            *_KERNEL_BITS)),
    Mutant("root-twelfth-dropped", "modsums.py",
           "        if N % 12:\n", "        if False:\n",
           (_ROOT_BITS, _HALF_TABLE, _ZUCKERMAN, *_KERNEL_BITS)),
    # B's roots of order 2c: sines, quadratic phases and the final scale
    Mutant("sine-takes-the-cosine", "modsums.py",
           "self.roots(x, self.c)[2:]", "self.roots(x, self.c)[:2]",
           (_MODULUS_BITS, _OWN_PRECISION, _B_BITS, _ESTIMATE_BITS)),
    Mutant("quad-sign-flipped", "modsums.py",
           "self.roots(-r, self.c)", "self.roots(r, self.c)",
           (_MODULUS_BITS, _OWN_PRECISION, _B_BITS, _ESTIMATE_BITS)),
    # the same sine, at an argument past the arc table's analysed range
    Mutant("sine-argument-past-its-arc", "modsums.py",
           "tables.sine(a * hp)", "tables.sine(a * hp + 2 * c * k)",
           ("tests/test_asymptotic.py::test_kernel_root_arguments_stay_below_their_arc",
            _B_BITS, _ESTIMATE_BITS)),
    # the scale factor memo keyed by a alone: the first region sign's factor
    # serves both branches of a residue's D arcs
    Mutant("scale-factor-without-its-sign", "modsums.py",
           "    key = sign, a\n", "    key = a\n", (_ESTIMATE_BITS,)),
    # secondary_terms, each arc's branch and its exact (delta_r, m_r)
    Mutant("high-branch-without-the-mirror", "modsums.py",
           "divmod(sign * a * k1, c1)", "divmod(a * k1, c1)",
           ("tests/test_modsums.py::test_delta_values",
            "tests/test_modsums.py::test_m_param_values", _FRACTION_ORACLE, _ARC_PLAN,
            "tests/test_modsums.py::test_exact_rationals_insensitive_to_precision", *_ARC_WALK,
            "tests/test_asymptotic.py::test_nbar_residue_sum_collapses_to_engel",
            "tests/test_bench_surface.py::test_seed0_outputs_match_the_pins[analytic]")),
    Mutant("c1-4-guard-dropped", "modsums.py",
           "    if c1 == 4 or c1 < 4 * l < 3 * c1:\n", "    if c1 < 4 * l < 3 * c1:\n",
           ("tests/test_modsums.py::test_secondary_terms_examples", _FRACTION_ORACLE, _ARC_PLAN,
            *_ARC_WALK)),
    Mutant("m-r-step-negated", "modsums.py",
           "(2 * y + 1 + 2 * r)", "(2 * y + 1 - 2 * r)",
           ("tests/test_modsums.py::test_m_param_values", _FRACTION_ORACLE)),
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
    # the table's index guards: a negative index would wrap to the far end
    Mutant("row-index-unchecked", "counts.py",
           "        if not 0 <= n <= self.n_max:\n", "        if False:\n", (_INDICES,)),
    Mutant("column-index-unchecked", "counts.py",
           "        if not 0 <= r < self.c:\n", "        if False:\n", (_INDICES,)),
    # the sweep memo of verify_subadditivity
    Mutant("sweep-memo-hit-on-any-column", "verify.py",
           "for vals, result in swept if vals == column)", "for vals, result in swept if True)",
           ("tests/test_verify.py::test_mirrored_residues_share_one_sweep",
            "tests/test_verify.py::test_edited_mirror_column_gets_its_own_sweep")),
    Mutant("sweep-memo-hit-reports-its-pairs", "verify.py",
           "swept.append((column, (*found[:2], 0)))", "swept.append((column, found))",
           ("tests/test_verify.py::test_mirrored_residues_share_one_sweep",)),
    Mutant("sweep-memo-kept-across-ranges", "verify.py",
           "    if table._sweeps is None or table._sweeps[0] != (n_lo, n_hi):\n",
           "    if table._sweeps is None:\n",
           ("tests/test_verify.py::test_new_range_drops_the_old_entries",)),
    Mutant("sweep-memo-shared-by-equal-tables", "verify.py",
           "        table._sweeps = ((n_lo, n_hi), [])\n",
           "        table._sweeps = ((n_lo, n_hi),"
           " verify_subadditivity.__dict__.setdefault('memo', []))\n",
           ("tests/test_verify.py::test_equal_tables_share_no_memo",)),
    Mutant("sweep-memo-shares-violation-lists", "verify.py",
           "violations=list(violations)", "violations=violations",
           ("tests/test_verify.py::test_mutating_a_certificate_leaves_later_results_alone",)),
    # each check of a cache block, dropped in turn
    Mutant("block-value-count-unchecked", "counts.py",
           "    if (len(values) != c * size + 1 or ", "    if (", (_AIMED_EDITS,)),
    Mutant("block-bytes-unchecked", "counts.py",
           " or block.translate(None, _ROW_BYTES)\n", "\n", (_AIMED_EDITS,)),
    Mutant("block-line-ends-unchecked", "counts.py",
           "            or block.count(b\",\\n\") != size or ", "            or ",
           (_AIMED_EDITS,)),
    Mutant("block-row-lengths-unchecked", "counts.py",
           " or b\"\".join(values[c::c]).count(b\"\\n\") != size\n", "\n", (_AIMED_EDITS,)),
    Mutant("block-inner-counts-unchecked", "counts.py",
           "            or _BAD_COUNT.search(stream) or ", "            or ", (_AIMED_EDITS,)),
    Mutant("block-first-count-unchecked", "counts.py",
           " or _BAD_COUNT.match(b\",\" + stream[:2])):", "):", (_AIMED_EDITS,)),
    # the table build from Lovejoy's per-rank form
    # the mirrored exponents take sign -1 for even c and +1 for odd c
    Mutant("mirror-sign-flipped", "counts.py",
           "            if t == c - 1 and c & 1:  # W_c = 0, and the mirrors past it take sign -1\n"
           "                term = -term\n                continue\n",
           "            if t == c - 1 and not c & 1:\n                term = -term\n"
           "            if t == c - 1 and c & 1:\n                continue\n",
           (*_TABLE_BUILD, "tests/test_counts.py::test_table_matches_dp_oracle")),
    Mutant("odd-denominator-for-even-c", "counts.py",
           "denominator = (2 * c,) if c & 1 else (c, c)", "denominator = (2 * c,)",
           (*_TABLE_BUILD, "tests/test_counts.py::test_table_matches_dp_oracle")),
    Mutant("last-doubling-step-dropped", "counts.py",
           "            while m < span:\n", "            while 2 * m < span:\n",
           (*_TABLE_BUILD, "tests/test_counts.py::test_table_matches_dp_oracle")),
    Mutant("n0-x-to-the-c-dropped", "counts.py",
           "((1, -2), (c, 2))", "((1, -2),)",
           (*_TABLE_BUILD, "tests/test_counts.py::test_table_matches_oracle")),
    # an IndexError for c = 3 and 5 and a wrong table for c = 4: the tables the
    # cache tests share are built inside them, so the module still collects
    Mutant("mirror-exponent-off-by-one", "counts.py",
           "acc[min(t, 2 * c - 2 - t)]", "acc[min(t, 2 * c - 1 - t)]",
           (*_TABLE_BUILD, "tests/test_counts.py::test_table_matches_dp_oracle",
            "tests/test_counts.py::test_load_table_fuzzed_cache")),
    # the cache's save and load, and the loaded columns
    Mutant("second-decimal-pass-in-save", "counts.py",
           "            digest = h.hexdigest()\n",
           "            digest = h.hexdigest()\n            table.checksum()\n",
           ("tests/test_counts.py::test_save_converts_each_count_once",)),
    Mutant("save-straight-to-the-target", "counts.py",
           'tmp = f"{path}.{os.getpid()}.{os.urandom(4).hex()}.tmp"', "tmp = path",
           ("tests/test_counts.py::test_failed_save_keeps_previous_cache",)),
    Mutant("failed-save-leaves-its-file", "counts.py",
           "            os.unlink(tmp)\n", "            pass\n",
           ("tests/test_counts.py::test_failed_save_keeps_previous_cache",)),
    Mutant("save-memo-check-dropped", "counts.py",
           "            if table._checksum not in (None, digest):\n", "            if False:\n",
           ("tests/test_counts.py::"
            "test_save_rejects_a_checksum_memo_that_disagrees_with_the_rows",)),
    Mutant("load-converts-every-count", "counts.py",
           "RankClassTable([values[r::c] for r in range(c)])",
           "RankClassTable([list(map(int, values[r::c])) for r in range(c)])",
           ("tests/test_cli.py::test_warm_commands_convert_only_the_counts_they_read",)),
    Mutant("count-reads-every-row", "cli.py",
           "        row = table.row(n)\n", "        row = table.counts[n]\n",
           ("tests/test_cli.py::test_warm_commands_convert_only_the_counts_they_read",)),
    Mutant("empty-count-allowed", "counts.py",
           '_BAD_COUNT = re.compile(rb",(?:0[0-9]|,)")', '_BAD_COUNT = re.compile(rb",0[0-9]")',
           (f"{_UNREAD_COUNTS}[empty-count]",)),
    Mutant("count-digit-limit-unchecked", "counts.py",
           "    return bool(limit) and max(map(len, lines)) > limit and any(\n",
           "    return False and any(\n",
           (f"{_UNREAD_COUNTS}[past-the-int-str-limit]",)),
    # the scan of a refused block checks it whole at each row, so its first
    # row takes the blame for any fault of the block
    Mutant("row-scan-at-block-size", "counts.py",
           'line.replace(b"\\n", b""), 1, c)', 'line.replace(b"\\n", b""), size, c)',
           (_ROW_SCAN, _FUZZED_EDITS)),
    # a surplus row after row n_max is recognized at the header's width only
    # (read from the loader's frame), so a wider one reads as a checksum mismatch
    Mutant("surplus-row-at-width-c-only", "counts.py",
           'max(1, last.count(b","))', 'sys._getframe(1).f_locals["c"]',
           (f"{_SURPLUS_ROW}[c-plus-one-counts]", f"{_SURPLUS_ROW}[one-count]")),
    Mutant("save-row-scan-skipped", "counts.py",
           "            for n, row in enumerate(zip(*block), start):\n",
           "            for n, row in ():\n",
           ("tests/test_counts.py::test_count_past_the_int_str_limit_names_its_row",)),
    Mutant("row-returns-bytes", "counts.py",
           "        return [int(col[n]) for col in self._columns]",
           "        return [col[n] for col in self._columns]",
           ("tests/test_cli.py::test_warm_commands_convert_only_the_counts_they_read",)),
    Mutant("one-column-header-refused", "counts.py",
           "    if c < 1:\n", "    if c < 2:\n",
           ("tests/test_counts.py::test_one_column_table_round_trips",
            "tests/test_cli.py::test_malformed_cache_exits_2_with_one_line[header-c-one]")),
    # bounds' n_min in a decimal context too narrow to hold it exactly
    Mutant("n-min-context-too-narrow", "cli.py",
           "th.n_min.bit_length() // 3 + 2", "th.n_min.bit_length() // 4",
           ("tests/test_cli.py::test_bounds_prints_giant_threshold_in_full",)),
    # an envelope whose working precision follows the ambient mp.prec
    Mutant("sandwich-at-ambient-precision", "bounds.py",
           "    with mp.workprec(prec + 10):\n        s = mp.sqrt(mpf(n))\n        base",
           "    with mp.workprec(mp.prec + 10):\n        s = mp.sqrt(mpf(n))\n        base",
           ("tests/test_asymptotic.py::test_outputs_independent_of_ambient_precision",)),
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
