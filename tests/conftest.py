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


#: The neighbor paths of ``BatchNeighborQuery``, which the kernel tier
#: and the input pick: the C pair kernels; the numpy cell cover with its
#: KD-tree fallback; the same with the grid in the KD-tree's place (as
#: without scipy); and the tiling alone (the cover's fallback for grids
#: over ``_MAX_COVER_CELLS``).
NEIGHBOR_PATHS = ("compiled", "numpy", "numpy-grid", "numpy-tiled")


@pytest.fixture(params=NEIGHBOR_PATHS)
def neighbor_path(request, monkeypatch):
    """Run the test on one neighbor path of the batch query.

    Patches the path in before the test builds a query and activates its
    kernel tier for the whole test.  Returns that tier, ``"compiled"`` or
    ``"numpy"``: a run activates its config's own tier, so configs pass it
    as ``kernels=``.  ``compiled`` skips where no provider builds.
    """
    from repro.geometry import neighbors
    from repro.kernels import kernel_backend, use_kernel_tier

    path = request.param
    if path == "compiled" and kernel_backend() is None:
        pytest.skip("no compiled kernel provider builds on this host")
    if path == "numpy-grid":
        monkeypatch.setattr(neighbors, "_AVAILABLE_BACKENDS", ["grid", "brute"])
    elif path == "numpy-tiled":
        monkeypatch.setattr(neighbors.BatchNeighborQuery, "_MAX_COVER_CELLS", 0)
    tier = "compiled" if path == "compiled" else "numpy"
    with use_kernel_tier(tier):
        yield tier


@pytest.fixture
def brute_hits():
    """Brute-force batch infection test: ``brute_hits(positions,
    source_mask, query_mask, radius)`` is the ``(B, n)`` mask every
    neighbor path must return, from an inclusive ``d² <= R²`` scan of each
    replica."""

    def run(positions, source_mask, query_mask, radius):
        positions = np.asarray(positions, dtype=np.float64)
        hits = np.zeros(source_mask.shape, dtype=bool)
        for b in range(positions.shape[0]):
            diff = positions[b][:, None, :] - positions[b][None, :, :]
            close = np.sum(diff * diff, axis=-1) <= radius * radius
            hits[b] = query_mask[b] & (close & source_mask[b][None, :]).any(axis=1)
        return hits

    return run


def pytest_configure(config):
    config.addinivalue_line("markers", "slow: long-running statistical test")
