"""Shared fixtures.

The full-depth tables and the deep series take a fraction of a second each
to build; they are session-scoped and only built when a test pulls them in.
"""

import functools

import pytest

import oracles
from overrank import modsums, pbar_series, rank_class_table

FULL_DEPTH = 3000
DEEP_SERIES = 14000


@pytest.fixture(scope="session")
def pbar3000():
    return pbar_series(FULL_DEPTH)


@pytest.fixture(scope="session")
def pbar_deep():
    # deep enough for the slowest-decaying certified series constant
    return pbar_series(DEEP_SERIES)


@pytest.fixture(scope="session")
def table3():
    return rank_class_table(FULL_DEPTH, 3)


@pytest.fixture(scope="session")
def table4():
    return rank_class_table(FULL_DEPTH, 4)


@pytest.fixture(scope="session")
def table5():
    return rank_class_table(FULL_DEPTH, 5)


@pytest.fixture(scope="session")
def small_tables():
    """Shallow tables for structural tests, keyed by modulus."""
    return {c: rank_class_table(60, c) for c in range(2, 9)}


@pytest.fixture
def shared_omega(monkeypatch):
    """One memoized omega for the Kloosterman oracles and the tests that read it.

    omega is a pure function of (h, k, prec), checked against the direct
    Dedekind sums in test_modsums.  The kernels take their multipliers from
    their arc's root table instead (test_modsums checks those against omega
    bit for bit); the oracles call omega twice per summand, and memoizing it
    keeps the bit-for-bit comparisons fast.
    """
    cached = functools.cache(modsums.omega)
    monkeypatch.setattr(modsums, "omega", cached)
    monkeypatch.setattr(oracles, "omega", cached)
