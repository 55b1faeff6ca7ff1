"""Compiled kernel tier: registry, parity, and end-to-end invisibility.

The tier's core contract is the same one the neighbor-backend suite
enforces: ``kernels`` is a *performance* knob.  Every compiled kernel is
bit-exact against its numpy path, so compiled and numpy runs of the same
seeds must be indistinguishable down to the informed-at step of every
agent — and every test here must stay green whether or not a compiled
provider (the bundled C extension) is actually available.
"""

import numpy as np
import pytest

from repro.geometry.neighbors import available_backends
from repro.kernels import (
    KERNEL_NAMES,
    KERNEL_TIERS,
    ManhattanTrips,
    TripWork,
    _reset_probe_cache_for_tests,
    active_kernel_tier,
    available_kernel_backends,
    compile_events,
    get_kernel,
    kernel_backend,
    kernel_tier_label,
    provider_kernels,
    reference_kernels,
    resolve_kernel_tier,
    use_kernel_tier,
    warm_kernels,
)
from repro.kernels._glue import _contacts_capacity
from repro.mobility.kinematics import (
    DenseLegScratch,
    advance_legs,
    advance_legs_dense,
    redraw_manhattan_trips,
    split_completed_legs,
)
from repro.simulation import run_trials, standard_config

HAVE_PROVIDER = kernel_backend() is not None

needs_provider = pytest.mark.skipif(
    not HAVE_PROVIDER, reason="no compiled kernel provider on this host"
)


def _tables():
    """Every kernel table under test: the pure-Python reference cores
    (always available — they *are* the spec) plus each real provider."""
    tables = [("reference", reference_kernels())]
    for backend in available_kernel_backends():
        if backend != "numpy":
            tables.append((backend, provider_kernels(backend)))
    return tables


TABLES = _tables()
TABLE_IDS = [name for name, _ in TABLES]


# ----------------------------------------------------------------------
# Registry, probes, and escape hatches
# ----------------------------------------------------------------------
class TestRegistry:
    def test_backend_list_always_ends_with_numpy(self):
        backends = available_kernel_backends()
        assert backends[-1] == "numpy"
        assert len(backends) == len(set(backends))

    def test_geometry_registry_exposes_kernel_backends(self):
        assert available_backends(kind="kernels") == available_kernel_backends()
        # The default kind still answers for the neighbor subsystem.
        assert "grid" in available_backends()

    def test_escape_hatches_force_numpy(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CEXT", "1")
        _reset_probe_cache_for_tests()
        try:
            assert kernel_backend() is None
            assert available_kernel_backends() == ["numpy"]
            assert resolve_kernel_tier("auto") == "numpy"
            assert kernel_tier_label("auto") == "numpy"
            assert warm_kernels() == "numpy"
            with pytest.raises(RuntimeError, match="compiled"):
                resolve_kernel_tier("compiled")
            # An explicit compiled demand surfaces through the runner too.
            config = standard_config(40, seed=3, kernels="compiled")
            with pytest.raises(RuntimeError, match="compiled"):
                run_trials(config, 1)
        finally:
            monkeypatch.delenv("REPRO_NO_CEXT")
            _reset_probe_cache_for_tests()

    def test_probe_results_are_cached(self):
        first = kernel_backend()
        assert kernel_backend() is first or kernel_backend() == first

    def test_unknown_tier_rejected(self):
        with pytest.raises(ValueError, match="kernel tier"):
            resolve_kernel_tier("bogus")

    def test_tier_label_matches_backend(self):
        label = kernel_tier_label("auto")
        backend = kernel_backend()
        if backend is None:
            assert label == "numpy"
        else:
            assert label == "cext"
        assert kernel_tier_label("numpy") == "numpy"


class TestTierScoping:
    def test_default_tier_is_numpy(self):
        assert active_kernel_tier() == "numpy"
        assert get_kernel("batch_any_within") is None

    def test_numpy_tier_never_dispatches(self):
        with use_kernel_tier("numpy") as tier:
            assert tier == "numpy"
            assert all(get_kernel(name) is None for name in KERNEL_NAMES)

    @needs_provider
    def test_compiled_tier_scopes_and_restores(self):
        with use_kernel_tier("compiled") as tier:
            assert tier == "compiled"
            assert all(callable(get_kernel(name)) for name in KERNEL_NAMES)
            with use_kernel_tier("numpy"):
                assert get_kernel("union_fixpoint") is None
            assert callable(get_kernel("union_fixpoint"))
        assert active_kernel_tier() == "numpy"
        assert get_kernel("union_fixpoint") is None

    def test_auto_resolves_to_best_available(self):
        expected = "compiled" if HAVE_PROVIDER else "numpy"
        assert resolve_kernel_tier("auto") == expected
        with use_kernel_tier("auto") as tier:
            assert tier == expected


class TestConfigKnob:
    def test_default_and_validation(self):
        config = standard_config(50)
        assert config.kernels == "auto"
        with pytest.raises(ValueError, match="kernels"):
            standard_config(50, kernels="bogus")
        for tier in KERNEL_TIERS:
            if tier == "compiled" and not HAVE_PROVIDER:
                continue
            assert standard_config(50, kernels=tier).kernels == tier

    def test_resolved_kernels_property(self):
        assert standard_config(50, kernels="numpy").resolved_kernels == "numpy"
        auto = standard_config(50).resolved_kernels
        assert auto == ("compiled" if HAVE_PROVIDER else "numpy")
        if not HAVE_PROVIDER:
            with pytest.raises(RuntimeError):
                standard_config(50, kernels="compiled").resolved_kernels


# ----------------------------------------------------------------------
# Per-kernel parity against independent numpy oracles
# ----------------------------------------------------------------------
def _sorted_contacts(pos, src_mask, qry_mask, radius):
    """Brute-force (replica, source, query) contacts, sorted in that order."""
    expect = []
    for b in range(pos.shape[0]):
        d = pos[b, :, None, :] - pos[b, None, :, :]
        close = (d ** 2).sum(-1) <= radius * radius
        for s in np.nonzero(src_mask[b])[0]:
            for q in np.nonzero(qry_mask[b])[0]:
                if close[s, q]:
                    expect.append((b, s, q))
    return np.array(expect, dtype=np.intp).reshape(-1, 3).T


@pytest.mark.parametrize("table", [t for _, t in TABLES], ids=TABLE_IDS)
class TestPairKernelParity:
    def _oracle_any_within(self, pos, src_mask, qry_mask, radius):
        batch, n, _ = pos.shape
        out = np.zeros((batch, n), dtype=bool)
        for b in range(batch):
            d = pos[b, :, None, :] - pos[b, None, :, :]
            hit = ((d ** 2).sum(-1) <= radius * radius) & src_mask[b][None, :]
            out[b] = hit.any(axis=1) & qry_mask[b]
        return out

    def test_any_within_randomized(self, table, rng):
        for _ in range(25):
            batch = int(rng.integers(1, 4))
            n = int(rng.integers(1, 40))
            side = float(rng.uniform(0.5, 8.0))
            radius = float(rng.uniform(0.05, side))
            pos = rng.uniform(0, side, size=(batch, n, 2))
            src = rng.random((batch, n)) < rng.uniform(0, 1)
            qry = rng.random((batch, n)) < rng.uniform(0, 1)
            got = table["batch_any_within"](pos, src, qry, radius, side)
            assert got is not None
            expect = self._oracle_any_within(pos, src, qry, radius)
            np.testing.assert_array_equal(got, expect)

    def test_contacts_randomized(self, table, rng):
        for _ in range(15):
            batch = int(rng.integers(1, 3))
            n = int(rng.integers(2, 30))
            side = float(rng.uniform(1.0, 6.0))
            radius = float(rng.uniform(0.2, side / 2))
            pos = rng.uniform(0, side, size=(batch, n, 2))
            src = rng.random((batch, n)) < 0.6
            qry = rng.random((batch, n)) < 0.6
            got = table["batch_contacts"](pos, src, qry, radius, side)
            assert got is not None
            for got_col, expect_col in zip(got, _sorted_contacts(pos, src, qry, radius)):
                np.testing.assert_array_equal(got_col, expect_col)

    @staticmethod
    def _oracle_counts(pos, src_mask, qry_mask, radius):
        """Inclusive brute-force count of each query's sources; 0 off-query."""
        batch, n, _ = pos.shape
        out = np.zeros((batch, n), dtype=np.intp)
        for b in range(batch):
            d = pos[b, :, None, :] - pos[b, None, :, :]
            close = ((d ** 2).sum(-1) <= radius * radius) & src_mask[b][None, :]
            out[b] = np.where(qry_mask[b], close.sum(axis=1), 0)
        return out

    def test_counts_randomized(self, table, rng):
        for _ in range(25):
            batch = int(rng.integers(1, 4))
            n = int(rng.integers(1, 40))
            side = float(rng.uniform(0.5, 8.0))
            radius = float(rng.uniform(0.05, side))
            pos = rng.uniform(0, side, size=(batch, n, 2))
            src = rng.random((batch, n)) < rng.uniform(0, 1)
            qry = rng.random((batch, n)) < rng.uniform(0, 1)
            got = table["batch_contacts"](pos, src, qry, radius, side, counts=True)
            assert got.dtype == np.intp and got.shape == (batch, n)
            np.testing.assert_array_equal(got, self._oracle_counts(pos, src, qry, radius))

    def test_counts_include_points_exactly_r_apart(self, table):
        # Lattice neighbors sit exactly R = 1 apart and count; diagonal
        # neighbors (sqrt 2) do not.
        grid = np.stack(np.meshgrid(np.arange(5.0), np.arange(5.0)), -1).reshape(1, -1, 2)
        everyone = np.ones(grid.shape[:2], dtype=bool)
        got = table["batch_contacts"](grid, everyone, everyone, 1.0, 5.0, counts=True)
        np.testing.assert_array_equal(got, self._oracle_counts(grid, everyone, everyone, 1.0))
        assert got.max() == 5

    def test_adversarial_masks(self, table, rng):
        pos = rng.uniform(0, 5.0, size=(2, 6, 2))
        full = np.ones((2, 6), dtype=bool)
        none = np.zeros((2, 6), dtype=bool)
        # Empty frontier: no sources.
        assert not table["batch_any_within"](pos, none, full, 1.0, 5.0).any()
        # All-frozen replicas: no queries.
        assert not table["batch_any_within"](pos, full, none, 1.0, 5.0).any()
        rep, s_idx, q_idx = table["batch_contacts"](pos, none, full, 1.0, 5.0)
        assert rep.size == 0 and s_idx.size == 0 and q_idx.size == 0
        for src, qry in ((none, full), (full, none)):
            counts = table["batch_contacts"](pos, src, qry, 1.0, 5.0, counts=True)
            assert counts.dtype == np.intp and counts.shape == (2, 6)
            assert not counts.any()

    def test_single_agent(self, table, rng):
        pos = rng.uniform(0, 3.0, size=(1, 1, 2))
        mask = np.ones((1, 1), dtype=bool)
        got = table["batch_any_within"](pos, mask, mask, 0.5, 3.0)
        # The lone agent is within radius zero of itself.
        assert got[0, 0]
        counts = table["batch_contacts"](pos, mask, mask, 0.5, 3.0, counts=True)
        assert counts.tolist() == [[1]]

    def test_out_of_domain_returns_none(self, table, rng):
        pos32 = rng.uniform(0, 3.0, size=(1, 4, 2)).astype(np.float32)
        mask = np.ones((1, 4), dtype=bool)
        assert table["batch_any_within"](pos32, mask, mask, 0.5, 3.0) is None
        assert table["batch_any_within"](
            rng.uniform(0, 3.0, size=(1, 4, 2)), mask, mask, -1.0, 3.0
        ) is None
        for counts in (False, True):
            assert table["batch_contacts"](pos32, mask, mask, 0.5, 3.0, counts=counts) is None


@needs_provider
class TestProviderContactsFollowSpec:
    """The C contacts core emits exactly what the reference core emits, in
    the same order: row-run scan, counting sort by source, exact-capacity
    re-run; the C count core writes the reference count core's tallies."""

    @staticmethod
    def _assert_same(*args):
        got = provider_kernels()["batch_contacts"](*args)
        spec = reference_kernels()["batch_contacts"](*args)
        assert len(got) == len(spec) == 3
        for got_col, spec_col in zip(got, spec):
            assert got_col.dtype == np.intp
            np.testing.assert_array_equal(got_col, spec_col)
        got_counts = provider_kernels()["batch_contacts"](*args, counts=True)
        spec_counts = reference_kernels()["batch_contacts"](*args, counts=True)
        assert got_counts.dtype == spec_counts.dtype == np.intp
        np.testing.assert_array_equal(got_counts, spec_counts)
        return got

    def test_randomized_snapshots_match_in_order(self, rng):
        for _ in range(12):
            batch = int(rng.integers(1, 5))
            n = int(rng.integers(1, 60))
            side = float(rng.uniform(1.0, 8.0))
            radius = float(rng.uniform(0.1, side))
            pos = rng.uniform(0, side, size=(batch, n, 2))
            src = rng.random((batch, n)) < rng.uniform(0, 1)
            qry = rng.random((batch, n)) < rng.uniform(0, 1)
            self._assert_same(pos, src, qry, radius, side)

    def test_hub_source_and_sources_without_contacts(self, rng):
        # Replica 0: source 0 is a hub with 130 queries within R, sources
        # 1-3 share some of them, and sources 4-9 sit in a corner with no
        # query in range.  Replica 1 is uniform.
        n, radius = 150, 0.5
        pos = rng.uniform(0, 10.0, size=(2, n, 2))
        pos[0, 0] = (5.0, 5.0)
        pos[0, 1:4] = 5.0 + rng.uniform(-0.3, 0.3, size=(3, 2))
        pos[0, 4:10] = rng.uniform(0.0, 1.0, size=(6, 2))
        pos[0, 10:140] = 5.0 + rng.uniform(-0.3, 0.3, size=(130, 2))
        pos[0, 140:] = rng.uniform(9.0, 10.0, size=(10, 2))
        src = np.zeros((2, n), dtype=bool)
        src[:, :10] = True
        got = self._assert_same(pos, src, ~src, radius, 10.0)
        for got_col, expect_col in zip(got, _sorted_contacts(pos, src, ~src, radius)):
            np.testing.assert_array_equal(got_col, expect_col)
        rep, source, _query = got
        assert np.count_nonzero((rep == 0) & (source == 0)) == 130
        assert not np.isin(np.arange(4, 10), source[rep == 0]).any()

    def test_dense_cluster_reruns_with_exact_capacity(self, rng):
        # Every agent of each replica within radius of every other: the
        # pair count far exceeds the first capacity guess, so the kernel
        # re-runs with the exact total.
        batch, n = 2, 60
        pos = rng.uniform(4.0, 4.3, size=(batch, n, 2))
        everyone = np.ones((batch, n), dtype=bool)
        rep, source, query = self._assert_same(pos, everyone, everyone, 0.5, 10.0)
        first_guess = _contacts_capacity(batch * n, batch * n, batch, 0.5, 10.0)
        assert rep.size == batch * n * n > first_guess >= 4 * batch * n
        assert np.array_equal(np.bincount(rep * n + query), np.full(batch * n, n))
        assert np.array_equal(np.bincount(rep * n + source), np.full(batch * n, n))
        counts = provider_kernels()["batch_contacts"](
            pos, everyone, everyone, 0.5, 10.0, counts=True
        )
        assert np.array_equal(counts, np.full((batch, n), n))


def _trip_case(rng, batch_size, n, side=3.0):
    """A random MRWP state: positions, targets, destinations, leg flags and
    counters of ``batch_size * n`` agents on axis-aligned legs."""
    total = batch_size * n
    pos = rng.uniform(0.0, side, size=(total, 2))
    dest = rng.uniform(0.0, side, size=(total, 2))
    second = rng.random(total) < 0.5
    corner = np.where(rng.random((total, 1)) < 0.5, [[1.0, 0.0]], [[0.0, 1.0]])
    corner = corner * pos + (1.0 - corner) * dest
    target = np.where(second[:, None], dest, corner)
    turns = rng.integers(0, 5, size=total)
    arrivals = rng.integers(0, 5, size=total)
    return [pos, target, dest, second, turns, arrivals]


def _numpy_trip_loop(state, distance, active, eps, side, rngs, max_passes):
    """The numpy MRWP carry-over loop over ``state``; returns the passes
    run, or -1 when ``max_passes`` passes all had arrivals."""
    pos, target, dest, second, turns, arrivals = state
    n = pos.shape[0] // len(rngs)
    budget = np.repeat(active, n) * distance
    for p in range(max_passes):
        idx = np.nonzero(budget > eps)[0]
        if idx.size == 0:
            return p
        done = advance_legs(pos, target, budget, idx, eps)
        if done.size == 0:
            return p + 1
        _corner, trip_done = split_completed_legs(done, second, target, dest, turns)
        if trip_done.size:
            redraw_manhattan_trips(pos, dest, target, second, trip_done, side, rngs, n)
            turns[trip_done] += 1
            arrivals[trip_done] += 1
    return -1


def _run_trip_mode(table, state, distance, active, eps, side, rngs, max_passes):
    pos, target, dest, second, turns, arrivals = state
    trips = ManhattanTrips(
        dest, second, turns, arrivals, side, rngs, max_passes, TripWork(pos.shape[0])
    )
    return table["advance_legs_dense"](
        pos, target, distance, active, int(active.sum()), eps, trips=trips
    )


def _twin_generators(seed, batch_size, shared):
    """Two identically seeded generator lists; with ``shared``, replicas
    0 and 2 draw from one generator."""
    out = []
    for _ in range(2):
        rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(batch_size)]
        if shared and batch_size > 2:
            rngs[2] = rngs[0]
        out.append(rngs)
    return out


def _still_row_case(speed_kind):
    """Agent 0 has no budget and sits at x = -0.0; agents 1 and 2 move."""
    pos = np.array([[-0.0, 1.0], [0.5, 0.5], [2.0, 1.0]])
    target = np.array([[1.0, 1.0], [1.5, 0.5], [2.0, 3.0]])
    budget = np.array([0.0, 0.25, 0.5])
    speed = {"none": None, "scalar": 1.3, "array": np.array([0.7, 1.1, 0.9])}[speed_kind]
    return pos, target, budget, budget > 0.0, speed


def _assert_still_row_untouched(dense, sparse):
    """The dense pass must leave agent 0 as the sparse pass does, which
    never visits it: ``-0.0 + 0.0`` would be ``+0.0``."""
    (done_d, pos_d, budget_d), (done_s, pos_s, budget_s) = dense, sparse
    np.testing.assert_array_equal(done_d, done_s)
    assert pos_d.tobytes() == pos_s.tobytes()
    assert budget_d.tobytes() == budget_s.tobytes()
    assert np.signbit(pos_d[0, 0])


@pytest.mark.parametrize("speed_kind", ["none", "scalar", "array"])
def test_numpy_dense_pass_leaves_still_rows_untouched(speed_kind):
    pos, target, budget, moving, speed = _still_row_case(speed_kind)
    pos_d, budget_d, pos_s, budget_s = pos.copy(), budget.copy(), pos.copy(), budget.copy()
    with use_kernel_tier("numpy"):
        done_d = advance_legs_dense(
            pos_d, target, budget_d, moving, 2, 1e-9, DenseLegScratch(3), speed=speed
        )
        done_s = advance_legs(pos_s, target, budget_s, np.nonzero(moving)[0], 1e-9, speed=speed)
    _assert_still_row_untouched((done_d, pos_d, budget_d), (done_s, pos_s, budget_s))


@pytest.mark.parametrize("table", [t for _, t in TABLES], ids=TABLE_IDS)
class TestLegKernelParity:
    def _numpy_advance(self, pos, target, budget, idx, eps, speed, metric):
        """The vectorized reference semantics, re-derived independently."""
        delta = target[idx] - pos[idx]
        if metric == "manhattan":
            dist = np.abs(delta).sum(axis=1)
        else:
            dist = np.sqrt((delta ** 2).sum(axis=1))
        b = budget[idx]
        if speed is None:
            move = np.minimum(b, dist)
            spent = move
        else:
            s = speed[idx] if isinstance(speed, np.ndarray) else float(speed)
            move = np.minimum(b * s, dist)
            spent = move / s
        frac = np.where(dist > eps, move / np.where(dist > eps, dist, 1.0), 1.0)
        pos[idx] += delta * frac[:, None]
        budget[idx] = b - spent
        arrived = move >= dist - eps
        done = idx[arrived]
        pos[done] = target[done]
        return done

    @pytest.mark.parametrize("metric", ["manhattan", "euclidean"])
    @pytest.mark.parametrize("speed_kind", ["none", "scalar", "array"])
    def test_advance_legs_randomized(self, table, rng, metric, speed_kind):
        for _ in range(10):
            total = int(rng.integers(1, 25))
            pos = rng.uniform(0, 4.0, size=(total, 2))
            target = rng.uniform(0, 4.0, size=(total, 2))
            budget = rng.uniform(0.0, 2.0, size=total)
            idx = np.nonzero(rng.random(total) < 0.7)[0].astype(np.intp)
            speed = {
                "none": None,
                "scalar": 1.3,
                "array": rng.uniform(0.5, 2.0, size=total),
            }[speed_kind]
            eps = 1e-9
            pos_k, budget_k = pos.copy(), budget.copy()
            done_k = table["advance_legs"](pos_k, target, budget_k, idx, eps, speed, metric)
            assert done_k is not None
            pos_r, budget_r = pos.copy(), budget.copy()
            done_r = self._numpy_advance(pos_r, target, budget_r, idx, eps, speed, metric)
            np.testing.assert_array_equal(np.sort(done_k), np.sort(done_r))
            np.testing.assert_array_equal(pos_k, pos_r)
            np.testing.assert_array_equal(budget_k, budget_r)

    def test_advance_legs_dense_matches_sparse(self, table, rng):
        for _ in range(10):
            total = int(rng.integers(1, 25))
            pos = rng.uniform(0, 4.0, size=(total, 2))
            target = rng.uniform(0, 4.0, size=(total, 2))
            budget = rng.uniform(0.0, 2.0, size=total)
            moving = rng.random(total) < 0.8
            idx = np.nonzero(moving)[0].astype(np.intp)
            pos_d, budget_d = pos.copy(), budget.copy()
            done_d = table["advance_legs_dense"](
                pos_d, target, budget_d, moving, int(moving.sum()), 1e-9, None
            )
            pos_s, budget_s = pos.copy(), budget.copy()
            done_s = table["advance_legs"](pos_s, target, budget_s, idx, 1e-9, None)
            np.testing.assert_array_equal(np.sort(done_d), np.sort(done_s))
            np.testing.assert_array_equal(pos_d, pos_s)
            np.testing.assert_array_equal(budget_d, budget_s)

    @pytest.mark.parametrize("speed_kind", ["none", "scalar", "array"])
    def test_dense_pass_leaves_still_rows_untouched(self, table, speed_kind):
        pos, target, budget, moving, speed = _still_row_case(speed_kind)
        pos_d, budget_d, pos_s, budget_s = pos.copy(), budget.copy(), pos.copy(), budget.copy()
        done_d = table["advance_legs_dense"](pos_d, target, budget_d, moving, 2, 1e-9, speed)
        done_s = table["advance_legs"](
            pos_s, target, budget_s, np.nonzero(moving)[0], 1e-9, speed, "manhattan"
        )
        _assert_still_row_untouched((done_d, pos_d, budget_d), (done_s, pos_s, budget_s))

    def test_empty_index_set(self, table):
        pos = np.zeros((3, 2))
        target = np.ones((3, 2))
        budget = np.ones(3)
        done = table["advance_legs"](
            pos, target, budget, np.empty(0, dtype=np.intp), 1e-9, None
        )
        assert done is not None and done.size == 0
        np.testing.assert_array_equal(pos, np.zeros((3, 2)))

    # Trip mode: a whole MRWP step must leave the numpy loop's state,
    # counters, pass count and generator states.
    @pytest.mark.parametrize("shared", [False, True], ids=["own", "shared"])
    def test_trip_mode_matches_numpy_loop(self, table, rng, shared):
        for case in range(12):
            batch_size = int(rng.integers(1, 5))
            n = int(rng.integers(1, 9))
            state = _trip_case(rng, batch_size, n)
            active = rng.random(batch_size) < 0.75
            distance = [0.0, 1e-12, 0.4, 9.0][case % 4]
            rngs, ref_rngs = _twin_generators(case, batch_size, shared)
            got = [a.copy() for a in state]
            want = [a.copy() for a in state]
            passes = _run_trip_mode(table, got, distance, active, 1e-9, 3.0, rngs, 1000)
            expected = _numpy_trip_loop(want, distance, active, 1e-9, 3.0, ref_rngs, 1000)
            assert passes == expected
            for actual, wanted in zip(got, want):
                assert actual.tobytes() == wanted.tobytes()
            assert [r.bit_generator.state for r in rngs] == [
                r.bit_generator.state for r in ref_rngs
            ]

    def test_trip_mode_reports_the_pass_cap(self, table, rng):
        state = _trip_case(rng, 2, 6)
        active = np.ones(2, dtype=bool)
        rngs, ref_rngs = _twin_generators(3, 2, False)
        got = [a.copy() for a in state]
        want = [a.copy() for a in state]
        assert _run_trip_mode(table, got, 9.0, active, 1e-9, 3.0, rngs, 2) == -1
        assert _numpy_trip_loop(want, 9.0, active, 1e-9, 3.0, ref_rngs, 2) == -1
        for actual, wanted in zip(got, want):
            assert actual.tobytes() == wanted.tobytes()

    def test_trip_mode_out_of_domain_returns_none_untouched(self, table, rng):
        def variants():
            yield "float32 positions", 0, lambda a: a.astype(np.float32)
            yield "strided destinations", 2, lambda a: np.hstack([a, a])[:, :2]
            yield "int8 leg flags", 3, lambda a: a.astype(np.int8)
            yield "int32 turn counts", 4, lambda a: a.astype(np.int32)
            yield "wrong-shape targets", 1, lambda a: a[:-1]

        for label, slot, change in variants():
            state = _trip_case(rng, 2, 5)
            state[slot] = change(state[slot])
            before = [a.copy() for a in state]
            rngs = [np.random.default_rng(1), np.random.default_rng(2)]
            states = [r.bit_generator.state for r in rngs]
            active = np.ones(2, dtype=bool)
            out = _run_trip_mode(table, state, 9.0, active, 1e-9, 3.0, rngs, 100)
            assert out is None, label
            for actual, wanted in zip(state, before):
                assert actual.tobytes() == wanted.tobytes(), label
            assert [r.bit_generator.state for r in rngs] == states, label

    def test_trip_mode_declines_foreign_generators_and_bad_arguments(self, table, rng):
        class Forwarding:
            def __init__(self, inner):
                self.inner = inner

            def random(self, *args, **kwargs):
                return self.inner.random(*args, **kwargs)

        state = _trip_case(rng, 2, 5)
        real = [np.random.default_rng(1), np.random.default_rng(2)]
        active = np.ones(2, dtype=bool)
        foreign = [real[0], Forwarding(real[1])]
        assert _run_trip_mode(table, state, 9.0, active, 1e-9, 3.0, foreign, 100) is None
        assert _run_trip_mode(table, state, 9.0, active, 0.0, 3.0, real, 100) is None
        assert _run_trip_mode(table, state, 9.0, active[:1], 1e-9, 3.0, real, 100) is None
        trips = ManhattanTrips(*state[2:], 3.0, real, 100, TripWork(10))
        assert table["advance_legs_dense"](
            state[0], state[1], 9.0, active, 2, 1e-9, speed=1.5, trips=trips
        ) is None


@needs_provider
class TestProviderTripsFollowSpec:
    """The C trip mode against the spec core, state for state."""

    @pytest.mark.parametrize("shared", [False, True], ids=["own", "shared"])
    def test_matches_reference_cores(self, rng, shared):
        provider, reference = provider_kernels(), reference_kernels()
        for case in range(6):
            state = _trip_case(rng, 3, 7)
            active = np.array([True, case % 2 == 0, True])
            rngs, ref_rngs = _twin_generators(10 + case, 3, shared)
            got = [a.copy() for a in state]
            want = [a.copy() for a in state]
            args = (active, 1e-9, 3.0)
            passes = _run_trip_mode(provider, got, 2.0 + case, *args, rngs, 1000)
            expected = _run_trip_mode(reference, want, 2.0 + case, *args, ref_rngs, 1000)
            assert passes == expected > 1
            for actual, wanted in zip(got, want):
                assert actual.tobytes() == wanted.tobytes()
            assert [r.bit_generator.state for r in rngs] == [
                r.bit_generator.state for r in ref_rngs
            ]


@pytest.mark.parametrize("table", [t for _, t in TABLES], ids=TABLE_IDS)
class TestStructureKernelParity:
    def test_grid_splice_matches_numpy_splice(self, table, rng):
        for _ in range(20):
            n = int(rng.integers(1, 40))
            order = rng.permutation(n).astype(np.intp)
            # Bucket ids may repeat (several points per bucket) and the new
            # ids may collide with surviving ones — exactly the hard case.
            sorted_ids = np.sort(rng.integers(0, 3 * n, size=n)).astype(np.intp)
            removed = rng.random(n) < 0.3
            n_new = int(rng.integers(0, 8))
            new_ids = np.sort(rng.integers(0, 3 * n, size=n_new)).astype(np.intp)
            new_pts = rng.integers(0, n, size=n_new).astype(np.intp)
            got = table["grid_splice"](order, sorted_ids, removed, new_ids, new_pts)
            assert got is not None
            out_order, out_ids = got
            keep = ~removed
            kept_order = order[keep]
            kept_ids = sorted_ids[keep]
            insert_at = np.searchsorted(kept_ids, new_ids, side="left")
            np.testing.assert_array_equal(
                out_order, np.insert(kept_order, insert_at, new_pts)
            )
            np.testing.assert_array_equal(
                out_ids, np.insert(kept_ids, insert_at, new_ids)
            )

    def test_occupancy_delta(self, table, rng):
        counts = rng.integers(0, 5, size=20).astype(np.int64)
        old = rng.integers(0, 20, size=12)
        new = rng.integers(0, 20, size=12)
        expect = counts.copy()
        np.subtract.at(expect, old, 1)
        np.add.at(expect, new, 1)
        assert table["occupancy_delta"](counts, old, new) is True
        np.testing.assert_array_equal(counts, expect)

    def test_union_fixpoint_min_labels(self, table, rng):
        for _ in range(15):
            n = int(rng.integers(1, 50))
            parent = np.arange(n, dtype=np.intp)
            e = int(rng.integers(0, 3 * n + 1))
            u = rng.integers(0, n, size=e)
            v = rng.integers(0, n, size=e)
            assert table["union_fixpoint"](parent, u, v) is True
            # Oracle: connected components, labelled by their minimum member.
            label = np.arange(n)
            changed = True
            while changed:
                changed = False
                for a, b in zip(u, v):
                    lo = min(label[a], label[b])
                    if label[a] != lo or label[b] != lo:
                        label[label == label[a]] = lo
                        label[label == label[b]] = lo
                        changed = True
            np.testing.assert_array_equal(parent, label)
            # Canonical form: every entry points straight at its root.
            np.testing.assert_array_equal(parent[parent], parent)

    def test_zone_counts_matches_cell_classification(self, table, rng):
        for _ in range(20):
            batch = int(rng.integers(1, 4))
            n = int(rng.integers(1, 40))
            m = int(rng.integers(1, 7))
            side = float(rng.uniform(1.0, 9.0))
            ell = side / m
            pos = rng.uniform(0, side, size=(batch, n, 2))
            informed = rng.random((batch, n)) < 0.5
            cz_mask = rng.random((m, m)) < 0.5
            got = table["zone_counts"](pos, informed, ell, m, cz_mask)
            assert got is not None
            cz_total, cz_informed = got
            ij = (pos.reshape(-1, 2) / ell).astype(np.intp)
            np.clip(ij, 0, m - 1, out=ij)
            in_cz = cz_mask[ij[:, 0], ij[:, 1]].reshape(batch, n)
            np.testing.assert_array_equal(cz_total, np.count_nonzero(in_cz, axis=1))
            np.testing.assert_array_equal(
                cz_informed, np.count_nonzero(in_cz & informed, axis=1)
            )
            assert cz_total.dtype == np.intp and cz_informed.dtype == np.intp


# ----------------------------------------------------------------------
# Compiled tier end-to-end: invisible in results, visible in extras
# ----------------------------------------------------------------------
def fingerprints(config, trials=3):
    return [
        (
            r.flooding_time,
            r.completed,
            r.n_steps,
            r.source,
            tuple(np.asarray(r.informed_history).tolist()),
            r.cz_completion_time,
            r.suburb_completion_time,
        )
        for r in run_trials(config, trials)
    ]


class TestEndToEndParity:
    @needs_provider
    @pytest.mark.parametrize(
        "mobility,mobility_options",
        [("mrwp", {}), ("rwp", {}), ("random-walk", {}), ("mrwp-pause", {"pause_time": 2.0})],
    )
    @pytest.mark.parametrize("engine", ["scalar", "batch"])
    def test_tier_is_invisible_in_results(self, mobility, mobility_options, engine):
        base = standard_config(
            70, seed=31, mobility=mobility,
            mobility_options=dict(mobility_options), engine=engine,
        )
        reference = fingerprints(base.with_options(kernels="numpy"))
        compiled = fingerprints(base.with_options(kernels="compiled"))
        assert compiled == reference

    @needs_provider
    @pytest.mark.parametrize(
        "mobility,mobility_options",
        [("mrwp", {}), ("rwp", {}), ("mrwp-pause", {"pause_time": 2.0})],
    )
    @pytest.mark.parametrize(
        "protocol,protocol_options",
        [("gossip", {"fanout": 1}), ("gossip", {"fanout": 3}), ("push-pull", {})],
        ids=["gossip-1", "gossip-3", "push-pull"],
    )
    def test_sampling_protocols_match_across_tiers(
        self, protocol, protocol_options, mobility, mobility_options
    ):
        # On the compiled tier the batch engine counts sender degrees with
        # the batch_contacts kernel; on the numpy tier with a KD-tree.
        base = standard_config(
            300, seed=41, engine="batch", protocol=protocol,
            protocol_options=dict(protocol_options), mobility=mobility,
            mobility_options=dict(mobility_options),
        )
        reference = fingerprints(base.with_options(kernels="numpy"))
        assert fingerprints(base.with_options(kernels="compiled")) == reference

    @needs_provider
    @pytest.mark.parametrize("multi_hop", [False, True], ids=["one-hop", "multi-hop"])
    def test_tier_is_invisible_across_hop_modes(self, multi_hop):
        base = standard_config(70, seed=7, engine="batch", multi_hop=multi_hop)
        assert fingerprints(base.with_options(kernels="compiled")) == fingerprints(
            base.with_options(kernels="numpy")
        )

    def test_extras_record_resolved_tier(self):
        numpy_run = run_trials(standard_config(50, seed=5, kernels="numpy"), 1)
        assert numpy_run[0].extras["kernel_tier"] == "numpy"
        auto_run = run_trials(standard_config(50, seed=5, engine="batch"), 1)
        assert auto_run[0].extras["kernel_tier"] == kernel_tier_label("auto")

    @needs_provider
    def test_warm_kernels_runs_the_trip_mode(self, monkeypatch):
        table = provider_kernels()
        original = table["advance_legs_dense"]
        trip_results = []

        def spy(*args, **kwargs):
            out = original(*args, **kwargs)
            if kwargs.get("trips") is not None:
                trip_results.append(out)
            return out

        monkeypatch.setitem(table, "advance_legs_dense", spy)
        warm_kernels()
        assert len(trip_results) == 1 and trip_results[0] > 1

    @needs_provider
    def test_warm_then_no_new_compiles(self):
        warm_kernels()
        before = compile_events()
        config = standard_config(60, seed=13, engine="batch", kernels="compiled")
        run_trials(config, 2)
        assert compile_events() == before
