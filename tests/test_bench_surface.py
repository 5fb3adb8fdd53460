"""The library surface that the benchmark in `bench/` relies on.

`bench/tracer.py` wraps library functions by module attribute, and
`bench/workloads.py` calls library functions by module attribute, so a
renamed or removed name would only show when the benchmark runs.  These
tests read both files and fail in the suite instead.
"""

import ast
import importlib.util
from pathlib import Path

from overrank import asymptotic, bounds, cli, counts, verify

BENCH = Path(__file__).resolve().parent.parent / "bench"
MODULES = {"asymptotic": asymptotic, "bounds": bounds, "cli": cli, "counts": counts,
           "verify": verify}


def test_tracer_targets_exist():
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
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
