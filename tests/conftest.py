"""Shared fixtures for the test suite."""

import numpy as np
import pytest


@pytest.fixture
def rng():
    """A fresh deterministic generator per test."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_square():
    """A convenient side length used across geometry tests."""
    return 10.0


@pytest.fixture
def hand_loop():
    """Reference trials that never call the sweep scheduler.

    ``hand_loop(config, n_trials)`` runs one ``run_flooding`` per child of
    ``SeedSequence(config.seed).spawn(n_trials)``, or one
    ``run_protocol_batch`` call on all children when the config resolves to
    the batch engine.  ``run_trials`` is itself a one-point ``run_sweep``,
    so tests of the scheduler compare against this loop instead.
    """
    from repro.simulation import batch, runner

    def run(config, n_trials):
        children = np.random.SeedSequence(config.seed).spawn(n_trials)
        if config.resolved_engine == "batch":
            return batch.run_protocol_batch(config, children)
        return [runner.run_flooding(config, seed_seq=child) for child in children]

    return run


def pytest_configure(config):
    config.addinivalue_line("markers", "slow: long-running statistical test")
