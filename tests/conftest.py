"""Fixtures shared by the test modules."""
import pytest

from helpers import without_solved_weights


@pytest.fixture
def sampled_weights():
    """Run the test on the sampled path: no solved weights, as in
    helpers.without_solved_weights."""
    with without_solved_weights():
        yield


@pytest.fixture
def sampler_only(monkeypatch):
    """Sample every integral, the 2-dimensional ones included, which
    integrand.integrate otherwise gives its deterministic rule: the
    sampler's own tests and the digests recorded from it run here."""
    from starquant import integrand
    monkeypatch.setattr(integrand, "method_of", lambda graph, method: method)
