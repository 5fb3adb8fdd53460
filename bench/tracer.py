"""Span tracer that wraps overrank's public functions from outside the package.

The package imports functions by name (``from .counts import load_table``),
so a function is wrapped by rebinding every module attribute that refers to
it.  Each wrapped call records one span (name, start, end, parent span, job)
and adds to per-pass totals: ``<name>.s`` (inclusive seconds),
``<name>.self_s`` (seconds minus direct child spans) and ``<name>.calls``.
`layer_metrics` scales a pass's times to nominal machine speed like the
end-to-end times; the spans keep the times as measured.
Hot kernels (``omega``, ``dedekind_sum``, ``r_ratio``) only count calls, so
the tracer does not swamp the work it measures.
"""

from __future__ import annotations

import functools
import os
from collections import defaultdict
from contextlib import contextmanager
from math import gcd
from time import perf_counter

import overrank
from overrank import asymptotic, bounds, cli, counts, modsums, report, verify
from overrank.counts import RankClassTable
from overrank.report import Report

MODULES = (overrank, asymptotic, bounds, cli, counts, modsums, report, verify)


@functools.cache
def _phi(k: int) -> int:
    return sum(1 for h in range(k) if gcd(h, k) == 1)


# extra counters taken from a call's arguments and result, outside its span
def _cells(t, args, res):
    t.add("counts.table_cells", (res.n_max + 1) * res.c)


def _terms(t, args, res):
    t.add("counts.pbar_series.terms", len(res))


def _saved(t, args, res):
    t.add("counts.save_table.bytes", os.path.getsize(args[1]))


def _loaded(t, args, res):
    t.add("counts.load_table.bytes", os.path.getsize(args[0]))


def _pairs(t, args, res):
    t.add("verify.pairs", res.pairs_checked)


def _summands(t, args, res):
    t.add("modsums.summands", _phi(args[2]))


def _r_term(t, args, res):
    _summands(t, args, res)
    if t.parent_name == "asymptotic.a_asymptotic":
        t.add("asymptotic.r_terms", 1)


def _k_terms(t, args, res):
    t.add("asymptotic.k_terms", len(res.k_terms))


def _c_terms(t, args, res):
    t.add("bounds.const_C.terms", res.truncation)


# span name -> (owner, attribute, extra counter)
SPANS = {
    "counts.rank_class_table": (counts, "rank_class_table", _cells),
    "counts.pbar_series": (counts, "pbar_series", _terms),
    "counts.save_table": (counts, "save_table", _saved),
    "counts.load_table": (counts, "load_table", _loaded),
    "counts.checksum": (RankClassTable, "checksum", None),
    "verify.verify_subadditivity": (verify, "verify_subadditivity", _pairs),
    "modsums.kloosterman_B": (modsums, "kloosterman_B", _summands),
    "modsums.kloosterman_D": (modsums, "kloosterman_D", _r_term),
    "asymptotic.a_asymptotic": (asymptotic, "a_asymptotic", _k_terms),
    "asymptotic.nbar_asymptotic": (asymptotic, "nbar_asymptotic", None),
    "asymptotic.engel_pbar": (asymptotic, "engel_pbar", None),
    "bounds.const_C": (bounds, "const_C", _c_terms),
    "bounds.aux_inequalities_selftest": (bounds, "aux_inequalities_selftest", None),
    "bounds.error_pieces": (bounds, "error_pieces", None),
    "report.emit": (cli, "_emit", None),
    "report.from_json_lines": (Report, "from_json_lines", None),
    "cli.main": (cli, "main", None),
}

COUNTED = {
    "modsums.omega": (modsums, "omega"),
    "modsums.dedekind_sum": (modsums, "dedekind_sum"),
    "bounds.r_ratio": (bounds, "r_ratio"),
}


class Tracer:
    """Trace inside `with tracer.patched():`; read and clear per-pass totals with `take()`."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent id, job)
        self.totals: dict[str, float] = defaultdict(float)
        self.job = None
        self._stack: list[list] = []  # [span id, name, child seconds]
        self._next_id = 0

    @property
    def parent_name(self):
        return self._stack[-1][1] if self._stack else None

    def add(self, key: str, value) -> None:
        self.totals[key] += value

    def take(self) -> dict[str, float]:
        totals, self.totals = dict(self.totals), defaultdict(float)
        return totals

    def _span(self, name, fn, extra):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack
            parent = stack[-1] if stack else None
            frame = [self._next_id, name, 0.0]
            self._next_id += 1
            stack.append(frame)
            t0 = perf_counter()
            try:
                res = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                if parent is not None:
                    parent[2] += dur
                self.spans.append((frame[0], name, t0, t1,
                                   parent[0] if parent else None, self.job))
                self.add(name + ".s", dur)
                self.add(name + ".self_s", dur - frame[2])
                self.add(name + ".calls", 1)
            if extra is not None:
                extra(self, args, res)
            return res
        return wrapper

    def _counter(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.totals[name + ".calls"] += 1
            return fn(*args, **kwargs)
        return wrapper

    @contextmanager
    def patched(self):
        """Rebind every reference to the traced functions; restore on exit."""
        undo: list[tuple] = []

        def rebind(owner, attr, make):
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(make(raw.__func__)))
                undo.append((owner, attr, raw))
                return
            new = make(raw)
            for holder in MODULES + ((owner,) if owner not in MODULES else ()):
                for key, val in list(vars(holder).items()):
                    if val is raw:
                        setattr(holder, key, new)
                        undo.append((holder, key, raw))

        try:
            for name, (owner, attr, extra) in SPANS.items():
                rebind(owner, attr, lambda fn, n=name, e=extra: self._span(n, fn, e))
            for name, (owner, attr) in COUNTED.items():
                rebind(owner, attr, lambda fn, n=name: self._counter(n, fn))
            yield self
        finally:
            for owner, attr, raw in reversed(undo):
                setattr(owner, attr, raw)


def layer_metrics(totals: dict[str, float], scale: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass, keyed as in BENCHMARK.json.

    Seconds are multiplied by `scale`, the pass's machine-speed factor.
    """
    def g(key):
        return totals.get(key, 0) * (scale if key.endswith((".s", ".self_s")) else 1)
    m = {}
    for name in ("counts.rank_class_table", "counts.pbar_series", "counts.save_table",
                 "counts.load_table", "counts.checksum", "verify.verify_subadditivity",
                 "modsums.kloosterman_B", "modsums.kloosterman_D",
                 "asymptotic.nbar_asymptotic", "asymptotic.engel_pbar",
                 "bounds.const_C", "bounds.aux_inequalities_selftest",
                 "bounds.error_pieces", "report.emit", "report.from_json_lines"):
        m[name + ".s"] = g(name + ".s")
    # self time where the layer's children are traced layers of their own
    m["asymptotic.a_asymptotic.s"] = g("asymptotic.a_asymptotic.self_s")
    m["cli.main.s"] = g("cli.main.self_s")
    for name in ("counts.rank_class_table", "counts.checksum", "modsums.kloosterman_B",
                 "modsums.kloosterman_D", "modsums.omega", "modsums.dedekind_sum",
                 "bounds.r_ratio", "cli.main"):
        m[name + ".calls"] = g(name + ".calls")
    for key in ("counts.table_cells", "counts.pbar_series.terms", "counts.save_table.bytes",
                "counts.load_table.bytes", "verify.pairs", "modsums.summands",
                "asymptotic.k_terms", "asymptotic.r_terms", "bounds.const_C.terms",
                "report.bytes"):
        m[key] = g(key)
    sweep = m["verify.verify_subadditivity.s"]
    m["verify.pairs_per_s"] = m["verify.pairs"] / sweep if sweep else 0.0
    return m
