"""Exact overpartition rank-class statistics, asymptotics, and certificates.

Library layout:

* ``counts``     exact integer counting (series, rank-class tables, oracles)
* ``modsums``    Dedekind sums, multiplier ratios, Kloosterman-type sums
* ``asymptotic`` main-term evaluation of the deviation coefficients
* ``bounds``     certified constants, envelopes, thresholds, the gap inequality
* ``verify``     exhaustive subadditivity sweeps
* ``report``     run configuration and machine-parseable reports
* ``cli``        the ``overrank`` command-line entry point

``counts``, ``verify`` and ``report`` are the exact layer: integers and
rationals, no mpmath.  They are imported with the package.  ``modsums``,
``asymptotic`` and ``bounds`` are the analytic layer, which runs on mpmath;
each of their exports is imported on first use (PEP 562), so exact work never
loads mpmath.
"""

__version__ = "0.1.0"
DEFAULT_PRECISION = 160  # the analytic layer's working precision, in mantissa bits

from importlib import import_module as _import_module

from .counts import (RankClassTable, load_table, pbar_series, rank_class_table, rank_row,
                     save_table)
from .report import Report, RunConfig
from .verify import Certificate, verify_subadditivity

# analytic export -> the module that defines it; a module's own name maps to it
_LAZY = {name: module for module, names in {
    "asymptotic": ("AsymptoticEstimate", "EngelEstimate", "a_asymptotic", "a_exact",
                   "asymptotic", "engel_pbar", "nbar_asymptotic"),
    "bounds": ("BoundBreakdown", "CertifiedConstant", "Threshold",
               "aux_inequalities_selftest", "bounds", "cbar2", "cbar4", "const_C",
               "error_pieces", "error_term_bound", "m_c", "m_c_prime", "main_term_bound",
               "pbar_sandwich", "r_ratio", "sandwich_threshold", "strict_verdict",
               "t_inequality"),
    "modsums": ("arc_plan", "dedekind_sum", "kloosterman_B", "kloosterman_D", "modsums",
                "secondary_terms"),
}.items() for name in names}

__all__ = sorted({name for name in dir() if not name.startswith("_")} | set(_LAZY))


def __getattr__(name):
    try:
        module = _import_module(f".{_LAZY[name]}", __name__)
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return module if name == _LAZY[name] else getattr(module, name)


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
