"""The library surface that the benchmark in `bench/` relies on.

`bench/tracer.py` wraps library functions by module attribute, and
`bench/workloads.py` calls library functions by module attribute and
builds `overrank` command lines, so a renamed or removed name, parameter or
flag would only show when the benchmark runs.  These tests read both files and fail in
the suite instead, and one pass of each workload at the default seed must
give the output digest that `bench/run.py` pins.
"""

import ast
import importlib.util
import inspect
import sys
from collections import Counter
from math import isqrt
from pathlib import Path

import mpmath
import pytest

import oracles
from overrank import asymptotic, bounds, cli, counts, verify

BENCH = Path(__file__).resolve().parent.parent / "bench"
MODULES = {"asymptotic": asymptotic, "bounds": bounds, "cli": cli, "counts": counts,
           "verify": verify}


def load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def load_tracer():
    return load_bench("tracer")


def test_tracer_targets_exist():
    tracer = load_tracer()
    targets = [(owner, attr) for owner, attr, _ in tracer.SPANS.values()]
    targets += list(tracer.COUNTED.values())
    missing = [(owner.__name__, attr) for owner, attr in targets if attr not in vars(owner)]
    assert not missing


def test_workload_references_exist():
    tree = ast.parse((BENCH / "workloads.py").read_text(encoding="utf-8"))
    refs = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in MODULES):
            refs.add((MODULES[node.value.id], node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module.startswith("overrank"):
            module = importlib.import_module(node.module)
            refs.update((module, alias.name) for alias in node.names)
    assert len(refs) > 10  # the walk found the library calls
    missing = sorted(f"{module.__name__}.{name}" for module, name in refs
                     if not hasattr(module, name))
    assert not missing


def test_workload_calls_bind_to_library_signatures():
    # each library call in the workloads binds, by its positional count and
    # keyword names, to the function's signature as it stands, so a removed
    # or renamed parameter fails here and not in a benchmark run
    tree = ast.parse((BENCH / "workloads.py").read_text(encoding="utf-8"))
    names = dict(MODULES)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module.startswith("overrank."):
            module = importlib.import_module(node.module)
            names.update((alias.asname or alias.name, getattr(module, alias.name))
                         for alias in node.names)
    calls, unbound = 0, []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in names:
            target = names[func.id]
        elif (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
              and func.value.id in names):
            target = getattr(names[func.value.id], func.attr)
        else:
            continue
        call = ast.unparse(node)
        assert not any(isinstance(arg, ast.Starred) for arg in node.args), call
        assert all(kw.arg for kw in node.keywords), call
        calls += 1
        try:
            inspect.signature(target).bind(*node.args,
                                           **{kw.arg: kw.value for kw in node.keywords})
        except TypeError as exc:
            unbound.append((node.lineno, call, str(exc)))
    assert calls > 15  # the walk found the library calls
    assert not unbound


def test_workload_argv_parse(tmp_path):
    # every command line the workloads build parses; neither set-up nor any
    # job runs
    workloads = load_bench("workloads")
    parser = cli.build_parser()
    commands, bad = Counter(), []
    for name, workload in workloads.WORKLOADS.items():
        for job in workload(0, tmp_path).jobs:
            if "argv" not in job.meta:
                continue  # a direct library call
            argv = job.meta["argv"]
            try:
                commands[parser.parse_args(argv).command] += 1
            except SystemExit:
                bad.append((name, argv))
    assert not bad
    assert set(commands) == {"asymptotic", "bounds", "count", "verify"}


def kernel_calls(residues, c, n):
    """(kernel, k) of every B and D call the main terms of residues mod c make at n,
    the D calls from the oracle's branch rule, not production's."""
    calls = []
    for a in residues:
        for k in range(1, isqrt(n) + 1, 2):
            if k % c == 0:
                calls.append(("modsums.kloosterman_B", k))
                continue
            branch = oracles.secondary_branch(a, c, k)
            if branch is None:
                continue
            r = 0
            while branch[1](r) > 0:
                calls.append(("modsums.kloosterman_D", k))
                r += 1
    return calls


def test_tracer_sees_every_kernel_call():
    # the per-layer kernel metrics count one span per residue, arc and r-term,
    # also where one walk over the arcs serves several residues
    tracer = load_tracer().Tracer()
    with tracer.patched():
        asymptotic.a_asymptotic(1, 3, 2000)
        asymptotic.nbar_asymptotic(1, 3, 2000)
        asymptotic.a_asymptotic(2, 5, 2000)
        asymptotic.nbar_asymptotic(1, 5, 2000)
    totals = tracer.take()
    expected = (kernel_calls([1], 3, 2000) + kernel_calls([1, 2], 3, 2000)
                + kernel_calls([2], 5, 2000) + kernel_calls([1, 2, 3, 4], 5, 2000))
    spans = Counter(name for _, name, *_ in tracer.spans if name.startswith("modsums."))
    assert spans == Counter(name for name, _ in expected)
    assert totals["modsums.kloosterman_B.calls"] == spans["modsums.kloosterman_B"]
    assert totals["modsums.kloosterman_D.calls"] == spans["modsums.kloosterman_D"] > 0
    assert totals["modsums.summands"] == sum(len(oracles.units(k)) for _, k in expected)


def test_tracer_spans_commands_that_import_the_analytic_layer_when_run(capsys):
    # cmd_asymptotic and cmd_bounds import their library functions when they
    # run, so they call the tracer's wrappers, not names bound at import
    tracer = load_tracer().Tracer()
    with tracer.patched():
        assert cli.main(["asymptotic", "--a", "1", "--c", "3", "--n", "400"]) == 0
        assert cli.main(["bounds", "--c", "3", "--n", "400"]) == 0
    capsys.readouterr()
    spans = Counter(name for _, name, *_ in tracer.spans)
    assert {name: spans[name] for name in (
        "cli.main", "report.emit", "asymptotic.a_asymptotic", "asymptotic.engel_pbar",
        "counts.rank_class_table", "bounds.error_pieces", "bounds.aux_inequalities_selftest",
    )} == {"cli.main": 2, "report.emit": 2, "asymptotic.a_asymptotic": 1,
           "asymptotic.engel_pbar": 1, "counts.rank_class_table": 1,
           "bounds.error_pieces": 1, "bounds.aux_inequalities_selftest": 1}
    assert spans["modsums.kloosterman_B"] > 0
    assert tracer.take()["bounds.r_ratio.calls"] == 2


@pytest.mark.parametrize("name", ("certify_cold", "certify_warm", "analytic"))
def test_seed0_outputs_match_the_pins(name, tmp_path, monkeypatch):
    # one pass of the workload as bench/run.py runs it: a broken pin would
    # otherwise show only in a full benchmark run
    if mpmath.libmp.BACKEND != "python":
        pytest.skip(f"the pins were taken on mpmath's python backend, not {mpmath.libmp.BACKEND}")
    monkeypatch.syspath_prepend(str(BENCH))
    import run
    import workloads
    workload = workloads.WORKLOADS[name](run.DEFAULT_SEED, tmp_path)
    for step in workload.setup_steps():
        step()
    with mpmath.mp.workprec(workloads.BASE_PREC):
        outcomes = run.run_pass(workload, 0, run.Yardstick(*workload.yardstick))
        run.check_pass(workload, outcomes)
        workload.check_run([outcomes])
    assert [f for o in outcomes for f in o.failures] == []
    assert run.digest_of(outcomes) == run.PINNED[("python", name)]
