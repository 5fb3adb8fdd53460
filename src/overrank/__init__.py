"""Exact overpartition rank-class statistics, asymptotics, and certificates.

Library layout:

* ``counts``     exact integer counting (series, rank-class tables, oracles)
* ``modsums``    Dedekind sums, multiplier ratios, Kloosterman-type sums
* ``asymptotic`` main-term evaluation of the deviation coefficients
* ``bounds``     certified constants, envelopes, thresholds
* ``verify``     exhaustive subadditivity sweeps and the gap inequality
* ``report``     run configuration and machine-parseable reports
* ``cli``        the ``overrank`` command-line entry point
"""

__version__ = "0.1.0"

from .asymptotic import AsymptoticEstimate, EngelEstimate, a_asymptotic, engel_pbar, nbar_asymptotic
from .bounds import (BoundBreakdown, CertifiedConstant, Threshold,
                     aux_inequalities_selftest, cbar2, cbar4, const_C,
                     error_pieces, error_term_bound, m_c, m_c_prime,
                     main_term_bound, pbar_sandwich, r_ratio, sandwich_threshold,
                     selftest_cached, strict_verdict)
from .counts import (RankClassTable, RankDistribution, a_exact,
                     brute_force_rank_counts, load_table, pbar_series,
                     rank_class_table, save_table)
from .modsums import (DEFAULT_PRECISION, KloostermanContext, context,
                      dedekind_sum, delta, kloosterman_B, kloosterman_D, m_param,
                      mod_inverse, omega)
from .report import Report, RunConfig
from .verify import Certificate, t_inequality, verify_subadditivity

__all__ = [name for name in dir() if not name.startswith("_")]
