"""The package's layers: what `import overrank` and each command load.

`counts`, `verify` and `report` are the exact layer and import no mpmath;
`modsums`, `asymptotic` and `bounds` are the analytic layer, which the
package exports lazily.  Import state is per process, so the import-graph and
environment checks run in fresh interpreters.
"""

import dataclasses
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest

import overrank

SRC = Path(__file__).resolve().parent.parent / "src"
ANALYTIC = ("mpmath", "overrank.asymptotic", "overrank.bounds", "overrank.modsums")

# overrank.__all__ written out, so that the lazy exports cannot drop a name unseen
EXPORTS = [
    "AsymptoticEstimate", "BoundBreakdown", "Certificate", "CertifiedConstant",
    "DEFAULT_PRECISION", "EngelEstimate", "RankClassTable", "Report", "RunConfig",
    "Threshold", "a_asymptotic", "a_exact", "arc_plan", "asymptotic",
    "aux_inequalities_selftest", "bounds", "cbar2", "cbar4", "const_C", "counts",
    "dedekind_sum", "engel_pbar", "error_pieces", "error_term_bound", "kloosterman_B",
    "kloosterman_D", "load_table", "m_c", "m_c_prime", "main_term_bound", "modsums",
    "nbar_asymptotic", "pbar_sandwich", "pbar_series", "r_ratio", "rank_class_table",
    "report", "sandwich_threshold", "save_table", "secondary_terms", "strict_verdict",
    "t_inequality", "verify", "verify_subadditivity",
]


def run_fresh(*args: str) -> str:
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          check=True, timeout=120, cwd=SRC.parent,
                          env={**os.environ, "PYTHONPATH": str(SRC)}).stdout


def test_exact_commands_load_no_analytic_module():
    script = (
        "import json, sys\n"
        "ANALYTIC = %r\n"
        "def loaded():\n"
        "    return [m for m in ANALYTIC if m in sys.modules]\n"
        "steps = {}\n"
        "import overrank\n"
        "steps['import'] = loaded()\n"
        "from overrank import cli\n"
        "for argv in (['count', '--n', '30', '--c', '3'],\n"
        "             ['verify', '--c', '3', '--n-lo', '9', '--n-hi', '30'],\n"
        "             ['asymptotic', '--a', '1', '--c', '3', '--n', '100']):\n"
        "    assert cli.main(argv + ['--format', 'json-lines']) == 0\n"
        "    steps[argv[0]] = loaded()\n"
        "print(json.dumps(steps))\n" % (ANALYTIC,))
    steps = json.loads(run_fresh("-c", script).splitlines()[-1])
    assert steps == {"import": [], "count": [], "verify": [], "asymptotic": list(ANALYTIC)}


def test_exports_resolve_to_their_modules():
    assert overrank.__all__ == EXPORTS
    for name in EXPORTS:
        value = getattr(overrank, name)
        if name in ("asymptotic", "bounds", "counts", "modsums", "report", "verify"):
            assert value is importlib.import_module(f"overrank.{name}")
        elif name == "DEFAULT_PRECISION":
            assert value == overrank.modsums.DEFAULT_PRECISION == overrank.report.DEFAULT_PRECISION
        else:
            assert getattr(sys.modules[value.__module__], name) is value, name
    from overrank import a_asymptotic, a_exact, asymptotic, t_inequality
    assert (a_asymptotic, a_exact) == (asymptotic.a_asymptotic, asymptotic.a_exact)
    assert t_inequality is overrank.bounds.t_inequality
    assert set(EXPORTS) <= set(dir(overrank))
    # the test oracles stay in their modules, off the package surface
    for module, name in (("counts", "RankDistribution"), ("counts", "brute_force_rank_counts"),
                         ("modsums", "omega")):
        assert name in vars(getattr(overrank, module)) and not hasattr(overrank, name), name


def test_unknown_name_raises_attribute_error_naming_the_module():
    with pytest.raises(AttributeError, match="module 'overrank' has no attribute 'nope'"):
        overrank.nope
    with pytest.raises(ImportError, match="cannot import name 'nope'"):
        from overrank import nope  # noqa: F401


@pytest.mark.parametrize("argv, lists_mpmath", [
    (["count", "--n", "40", "--c", "3"], False),
    (["verify", "--c", "3", "--n-lo", "9", "--n-hi", "20"], False),
    (["asymptotic", "--a", "1", "--c", "3", "--n", "100"], True),
    (["bounds", "--c", "4", "--n", "272"], True),
])
def test_environment_lists_mpmath_where_it_ran(argv, lists_mpmath):
    out = run_fresh("-m", "overrank", *argv, "--format", "json-lines")
    env = json.loads(out.splitlines()[-1])
    assert env["record"] == "environment"
    assert sorted(env) == sorted(["record", "package", "python", "platform"]
                                 + ["mpmath"] * lists_mpmath)
    if lists_mpmath:
        assert env["mpmath"] == mpmath.__version__


def test_analytic_records_hold_only_what_they_computed():
    # no record echoes the arguments of the call that made it, and none can be
    # changed after it is made
    records = {
        "AsymptoticEstimate": (overrank.a_asymptotic(1, 3, 100),
                               ["value", "imag_residual", "k_terms"]),
        "EngelEstimate": (overrank.engel_pbar(100), ["estimate", "certified_bound"]),
        "CertifiedConstant": (overrank.const_C(1, None, overrank.pbar_series(200)),
                              ["upper", "partial", "tail_bound", "truncation"]),
        "BoundBreakdown": (overrank.error_pieces(3, 100), ["pieces", "total"]),
        "Threshold": (overrank.sandwich_threshold(3), ["lower_coef", "upper_coef", "n_min"]),
    }
    for name, (record, names) in records.items():
        assert type(record) is getattr(overrank, name)
        assert [f.name for f in dataclasses.fields(record)] == names, name
        for field in names:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, field, None)
