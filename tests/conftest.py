"""Fixtures shared by the test modules."""
import pytest

from helpers import without_solved_weights


@pytest.fixture
def sampled_weights():
    """Run the test on the sampled path: no solved weights, as in
    helpers.without_solved_weights."""
    with without_solved_weights():
        yield
