"""Fixtures shared across test modules."""

import pytest

from hmt.limits import EXACT_ORDER_CAPS, moment_table


@pytest.fixture(scope="session")
def order_twelve_tables():
    """Exact moment tables through order 12, computed live once per session."""
    return {family: moment_table(family, 12) for family in ("toeplitz", "hankel", "markov")}


@pytest.fixture(scope="session")
def largest_exact_tables():
    """The exact toeplitz and hankel tables through their exact order caps (20 and 16).

    One pairing walk count each, about a second apiece; tests that need
    orders above 12 share them.
    """
    return {family: moment_table(family, EXACT_ORDER_CAPS[family])
            for family in ("toeplitz", "hankel")}
