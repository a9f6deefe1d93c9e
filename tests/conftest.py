"""Fixtures shared across test modules."""

import pytest

from hmt.limits import moment_table


@pytest.fixture(scope="session")
def order_twelve_tables():
    """Exact moment tables through order 12, computed live once per session.

    The toeplitz table is the costly one (walk counts of all 554 orbits at
    k = 6), so every test that needs order 12 shares this one computation.
    """
    return {family: moment_table(family, 12) for family in ("toeplitz", "hankel", "markov")}
