"""Seed-for-seed parity of every batch mobility model vs its scalar twin.

PR 5's core invariant: every model in ``BATCH_MOBILITY_REGISTRY`` advances
``B`` replicas bit-identically to ``B`` independently seeded scalar models
— same initial state (stationary / Palm / uniform sampling included), same
trajectories, same per-replica RNG streams — and the batch engine built on
top of them returns exactly the scalar engine's trial results across
models, inits, backends and engines.  Since PR 9 that includes the transit
family (ferry / composite / timetable): every registered name is
batch-native, and ``ReplicatedBatchMobility`` survives only as the tested
escape hatch for user-supplied scalar models, announcing itself in every
replica's results.
"""

import threading

import numpy as np
import pytest

from repro.geometry.neighbors import available_backends
from repro.kernels import kernel_backend, provider_kernels, use_kernel_tier
from repro.mobility import (
    BATCH_MOBILITY_REGISTRY,
    MODEL_REGISTRY,
    BatchManhattanRandomWaypoint,
    ManhattanRandomWaypoint,
    ReplicatedBatchMobility,
)
from repro.mobility import mrwp as mrwp_module
from repro.simulation.batch import build_batch_model, run_protocol_batch
from repro.simulation.config import _MOBILITY_OPTION_KEYS, FloodingConfig, standard_config
from repro.simulation.runner import build_model, run_trials

B = 4
N = 50
SIDE = 9.0
RADIUS = 1.6
SPEED = 0.6

#: (mobility, mobility_options, inits) — every native batch model with its
#: full init vocabulary (and the option corners worth pinning: zero pause,
#: positive pause, real speed ranges).
MODEL_GRID = [
    ("mrwp", {}, ("stationary", "closed-form", "uniform")),
    ("mrwp-pause", {"pause_time": 2.5}, ("stationary", "uniform")),
    ("mrwp-pause", {"pause_time": 0.0}, ("stationary",)),
    ("mrwp-speed", {"v_min": 0.3, "v_max": 1.1}, ("stationary", "uniform")),
    ("rwp", {}, ("stationary", "uniform")),
    ("rwp", {"pause_time": 1.5}, ("stationary",)),
    ("random-walk", {}, ("stationary",)),
    ("random-walk", {"boundary": "clip"}, ("stationary",)),
    ("random-direction", {}, ("stationary",)),
    ("random-direction", {"mean_leg": 2.0}, ("stationary",)),
    # Transit family (PR 9).  The ferry inset is chosen so the ferry
    # spacing is NOT an exact divisor of the radius: evenly spaced
    # collinear ferries otherwise put pairs at float-exact distance R,
    # where different neighbor kernels may legitimately disagree on the
    # inclusive boundary (a measure-zero tie no stochastic model produces).
    ("ferry", {"inset": 1.9}, ("stationary",)),
    ("ferry", {"inset": 1.9, "jitter": 0.5}, ("stationary",)),
    ("composite", {"ferries": 3}, ("stationary", "uniform")),
    ("timetable", {"riders": 40, "dwell": 2.0, "capacity": 3}, ("stationary", "uniform")),
    (
        "timetable",
        {
            "riders": 35,
            "dwell": 1.5,
            "headway": 4.0,
            "capacity": 2,
            "board_radius": 1.0,
            "jitter": 0.5,
        },
        ("stationary",),
    ),
]

MODEL_INIT_CASES = [
    (name, options, init)
    for name, options, inits in MODEL_GRID
    for init in inits
]


def mobility_config(name, options, init="stationary", **overrides):
    fields = dict(
        n=N, side=SIDE, radius=RADIUS, speed=SPEED, max_steps=300,
        mobility=name, mobility_options=dict(options), init=init, seed=13,
    )
    fields.update(overrides)
    return FloodingConfig(**fields)


def model_pair(name, options, init, seed=21):
    """A batch model and its B scalar references, on split generator pairs."""
    config = mobility_config(name, options, init)
    children = np.random.SeedSequence(seed).spawn(B)
    scalar_rngs = [np.random.default_rng(s) for s in children]
    batch_rngs = [np.random.default_rng(s) for s in children]
    scalars = [build_model(config, rng) for rng in scalar_rngs]
    batch = build_batch_model(config, batch_rngs)
    return scalars, batch


needs_provider = pytest.mark.skipif(
    kernel_backend() is None, reason="no compiled kernel provider on this host"
)

#: MRWP speeds of the trip-mode cases: standing still, a step shorter than
#: the arrival tolerance ``eps = 1e-9 * SIDE``, the benchmark's ``R / 4``,
#: and three sides, where agents finish several trips within one step.
TRIP_SPEEDS = {
    "zero": 0.0,
    "below_eps": 0.5e-9 * SIDE,
    "quarter_radius": RADIUS / 4,
    "three_sides": 3 * SIDE,
}


def mrwp_snapshot(model, rngs):
    """Everything an MRWP step may change, generator states included."""
    arrays = (
        model._pos, model._dest, model._target, model._on_second_leg,
        model.turn_counts, model.arrival_counts,
    )
    return [a.copy() for a in arrays], [rng.bit_generator.state for rng in rngs]


def assert_same_snapshot(got, want):
    for actual, expected in zip(got[0], want[0]):
        assert actual.dtype == expected.dtype
        assert actual.tobytes() == expected.tobytes()
    assert got[1] == want[1]


def spawn_rngs(batch_size, seed=21):
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(batch_size)]


def run_batch_mrwp(tier, batch_size, speed, dt, rngs=None, steps=8):
    """Snapshots after every step of a batch MRWP model on ``tier``;
    replica ``b`` retires after step ``2 + 2 * b``."""
    rngs = spawn_rngs(batch_size) if rngs is None else rngs
    model = BatchManhattanRandomWaypoint(N, SIDE, speed, rngs)
    snapshots = []
    with use_kernel_tier(tier):
        for t in range(steps):
            model.step(dt, active=np.arange(batch_size) * 2 + 2 >= t)
            snapshots.append(mrwp_snapshot(model, rngs))
    return snapshots


def run_scalar_mrwp(tier, speed, dt, steps=8):
    rng = np.random.default_rng(21)
    model = ManhattanRandomWaypoint(N, SIDE, speed, rng=rng)
    snapshots = []
    with use_kernel_tier(tier):
        for _ in range(steps):
            model.step(dt)
            snapshots.append(mrwp_snapshot(model, [rng]))
    return snapshots


def result_fingerprint(results):
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
        for r in results
    ]


class TestModelLevelParity:
    """Stepping the batch model == stepping B scalar models, bit for bit."""

    @pytest.mark.parametrize("name,options,init", MODEL_INIT_CASES)
    def test_initial_state_and_trajectory_bit_exact(self, name, options, init):
        scalars, batch = model_pair(name, options, init)
        entry = BATCH_MOBILITY_REGISTRY[name]
        if isinstance(entry, type):
            assert type(batch) is entry
        assert not isinstance(batch, ReplicatedBatchMobility)
        assert np.array_equal(np.stack([m.positions for m in scalars]), batch.positions)
        for _ in range(12):
            expected = np.stack([m.step() for m in scalars])
            assert np.array_equal(batch.step(), expected)

    @pytest.mark.parametrize(
        "name,options",
        [(name, options) for name, options, _ in MODEL_GRID],
    )
    def test_frozen_replicas_keep_state_and_streams(self, name, options):
        """A frozen replica must not move *and* must not consume RNG —
        exactly like a scalar trial that already stopped stepping."""
        scalars, batch = model_pair(name, options, "stationary")
        active = np.array([True, False, True, False])
        frozen_before = batch.positions[~active]
        for _ in range(6):
            for b in np.nonzero(active)[0]:
                scalars[b].step()
            batch.step(active=active)
        assert np.array_equal(batch.positions[~active], frozen_before)
        # Thawing afterwards: the frozen replicas' generators are pristine,
        # so they must now replay their scalar twins' next steps exactly.
        for _ in range(4):
            expected = np.stack([m.step() for m in scalars])
            assert np.array_equal(batch.step(), expected)

    @pytest.mark.parametrize(
        "name,options",
        [
            ("mrwp", {}),
            ("mrwp-pause", {"pause_time": 1.0}),
            ("ferry", {"inset": 1.9}),
            ("timetable", {"riders": 40, "dwell": 1.0, "capacity": 3}),
        ],
    )
    def test_fractional_dt_parity(self, name, options):
        scalars, batch = model_pair(name, options, "stationary")
        for dt in (0.25, 1.75, 0.5, 3.0):
            expected = np.stack([m.step(dt) for m in scalars])
            assert np.array_equal(batch.step(dt), expected)

    @needs_provider
    @pytest.mark.parametrize("speed", list(TRIP_SPEEDS.values()), ids=list(TRIP_SPEEDS))
    @pytest.mark.parametrize("dt", [1.0, 0.5])
    @pytest.mark.parametrize("batch_size", [1, 3, 8])
    def test_mrwp_trip_mode_matches_numpy_loop(self, batch_size, dt, speed):
        """The compiled tier's one-call MRWP step leaves the numpy loop's
        state, counters and generator states after every step, while
        replicas retire."""
        want = run_batch_mrwp("numpy", batch_size, speed, dt)
        got = run_batch_mrwp("compiled", batch_size, speed, dt)
        for g, w in zip(got, want):
            assert_same_snapshot(g, w)

    @needs_provider
    @pytest.mark.parametrize("speed", list(TRIP_SPEEDS.values()), ids=list(TRIP_SPEEDS))
    @pytest.mark.parametrize("dt", [1.0, 0.5])
    def test_scalar_mrwp_trip_mode_matches_numpy_loop(self, dt, speed):
        want = run_scalar_mrwp("numpy", speed, dt)
        got = run_scalar_mrwp("compiled", speed, dt)
        for g, w in zip(got, want):
            assert_same_snapshot(g, w)


class ForwardingGenerator:
    """A generator object without numpy's C interface: it forwards the
    ``random`` calls of the MRWP redraws to a real ``Generator``."""

    def __init__(self, rng):
        self.rng = rng

    def random(self, *args, **kwargs):
        return self.rng.random(*args, **kwargs)


@needs_provider
class TestCompiledTripModeGuards:
    """Where the compiled MRWP step must agree with, or yield to, numpy."""

    def test_replicas_sharing_a_generator(self):
        def shared():
            first, second = spawn_rngs(2)
            return [first, second, first]

        want = run_batch_mrwp("numpy", 3, TRIP_SPEEDS["three_sides"], 1.0, rngs=shared())
        got = run_batch_mrwp("compiled", 3, TRIP_SPEEDS["three_sides"], 1.0, rngs=shared())
        for g, w in zip(got, want):
            assert_same_snapshot(g, w)

    @pytest.mark.parametrize("batch", [False, True], ids=["scalar", "batch"])
    def test_too_small_pass_cap_raises_on_both_tiers(self, monkeypatch, batch):
        monkeypatch.setattr(mrwp_module, "_MAX_LEGS_PER_STEP", 1)
        snapshots = []
        for tier in ("numpy", "compiled"):
            rngs = spawn_rngs(3 if batch else 1)
            if batch:
                model = BatchManhattanRandomWaypoint(N, SIDE, 3 * SIDE, rngs)
            else:
                model = ManhattanRandomWaypoint(N, SIDE, 3 * SIDE, rng=rngs[0])
            with use_kernel_tier(tier), pytest.raises(RuntimeError, match="did not converge"):
                model.step()
            assert model.time == 0.0
            snapshots.append(mrwp_snapshot(model, rngs))
        assert_same_snapshot(snapshots[1], snapshots[0])

    def test_step_waits_for_a_held_generator_lock(self):
        want = run_batch_mrwp("numpy", 3, SIDE, 1.0, steps=1)
        rngs = spawn_rngs(3)
        model = BatchManhattanRandomWaypoint(N, SIDE, SIDE, rngs)
        lock = rngs[1].bit_generator.lock
        stepped = threading.Event()

        def step():
            model.step(1.0, active=np.ones(3, dtype=bool))
            stepped.set()

        with use_kernel_tier("compiled"):
            lock.acquire()
            try:
                worker = threading.Thread(target=step)
                worker.start()
                assert not stepped.wait(0.3)
            finally:
                lock.release()
            worker.join(30)
        assert not worker.is_alive() and stepped.is_set()
        assert_same_snapshot(mrwp_snapshot(model, rngs), want[0])

    def test_generator_without_c_interface_falls_back(self, monkeypatch):
        table = provider_kernels()
        original = table["advance_legs_dense"]
        trip_results = []

        def spy(*args, **kwargs):
            out = original(*args, **kwargs)
            if kwargs.get("trips") is not None:
                trip_results.append(out)
            return out

        monkeypatch.setitem(table, "advance_legs_dense", spy)
        snapshots = []
        for tier in ("numpy", "compiled"):
            rngs = spawn_rngs(3)
            model = BatchManhattanRandomWaypoint(N, SIDE, SIDE, rngs)
            model.rngs = [ForwardingGenerator(rng) for rng in rngs]
            with use_kernel_tier(tier):
                for _ in range(4):
                    model.step()
            snapshots.append(mrwp_snapshot(model, rngs))
        assert len(trip_results) == 4 and all(out is None for out in trip_results)
        assert_same_snapshot(snapshots[1], snapshots[0])

    def test_cached_generator_follows_reset(self):
        snapshots = []
        for tier in ("numpy", "compiled"):
            first, second = spawn_rngs(2)
            model = ManhattanRandomWaypoint(N, SIDE, SIDE, rng=first)
            with use_kernel_tier(tier):
                for _ in range(3):
                    model.step()
                model.reset(rng=second)
                for _ in range(3):
                    model.step()
            snapshots.append(mrwp_snapshot(model, [first, second]))
        assert_same_snapshot(snapshots[1], snapshots[0])


class TestEngineLevelParity:
    """run_trials: batch engine == scalar engine over the full model grid."""

    @pytest.mark.parametrize("name,options,init", MODEL_INIT_CASES)
    def test_trials_match_across_engines(self, name, options, init):
        config = mobility_config(name, options, init)
        scalar = result_fingerprint(run_trials(config, 3))
        batch = result_fingerprint(run_trials(config.with_options(engine="batch"), 3))
        assert scalar == batch

    @pytest.mark.parametrize("backend", available_backends())
    @pytest.mark.parametrize(
        "name", ["mrwp-pause", "mrwp-speed", "random-direction"]
    )
    def test_new_models_match_across_backends(self, name, backend):
        options = {"v_min": 0.3, "v_max": 1.1} if name == "mrwp-speed" else {}
        config = mobility_config(name, options, backend=backend)
        reference = None
        for engine in ("scalar", "batch"):
            got = result_fingerprint(run_trials(config.with_options(engine=engine), 3))
            if reference is None:
                reference = got
            assert got == reference, (name, backend, engine)

    def test_auto_resolves_to_batch_for_native_models(self):
        for name, options, _inits in MODEL_GRID:
            config = mobility_config(name, options, engine="auto")
            assert config.resolved_engine == "batch", name


#: The PR 9 acceptance sweep: {timetable, ferry, composite} — each config
#: must produce bit-identical positions and informed-counts across every
#: backend and engine.
TRANSIT_CASES = [
    ("ferry", {"inset": 1.9}),
    ("composite", {"ferries": 3}),
    ("timetable", {"riders": 40, "dwell": 2.0, "capacity": 3}),
]


class TestTransitFamilyNative:
    """ferry / composite / timetable run natively in the batch engine."""

    @pytest.mark.parametrize("name,options", TRANSIT_CASES)
    def test_transit_models_are_native(self, name, options):
        rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(3).spawn(B)]
        model = build_batch_model(mobility_config(name, options), rngs)
        assert not isinstance(model, ReplicatedBatchMobility)

    @pytest.mark.parametrize("backend", available_backends())
    @pytest.mark.parametrize("name,options", TRANSIT_CASES)
    def test_bit_identical_across_backends_and_engines(self, name, options, backend):
        """The acceptance sweep: {transit model} x {backend} x {engine}."""
        config = mobility_config(name, options, max_steps=120, backend=backend)
        reference = result_fingerprint(run_trials(config.with_options(engine="scalar"), 3))
        for engine in ("batch", "auto"):
            got = result_fingerprint(run_trials(config.with_options(engine=engine), 3))
            assert got == reference, (name, backend, engine)

    @pytest.mark.parametrize("name,options", TRANSIT_CASES)
    def test_no_fallback_note_and_auto_resolves_to_batch(self, name, options):
        config = mobility_config(name, options, engine="auto")
        assert config.resolved_engine == "batch"
        results = run_trials(config, 2)
        assert all("mobility_execution" not in r.extras for r in results)


class TestStepRejectsBadDt:
    """A NaN, infinite, zero or negative ``dt`` raises before any state moves."""

    @pytest.mark.parametrize("name", sorted(MODEL_REGISTRY))
    @pytest.mark.parametrize("kind", ["scalar", "batch"])
    @pytest.mark.parametrize(
        "dt", [float("nan"), float("inf"), float("-inf"), 0.0, -1.0], ids=str
    )
    def test_raises_and_leaves_state(self, name, kind, dt):
        options = next(options for grid_name, options, _ in MODEL_GRID if grid_name == name)
        scalars, batch = model_pair(name, options, "stationary")
        model = scalars[0] if kind == "scalar" else batch
        model.step(0.5)
        before = model.positions
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            model.step(dt)
        assert model.time == 0.5
        assert np.array_equal(model.positions, before)


class TestReplicatedEscapeHatch:
    """User-supplied scalar models without a batch twin still run correctly
    through ReplicatedBatchMobility — and say so in every replica."""

    NAME = "mrwp-scalar-only"

    @pytest.fixture()
    def scalar_only_model(self, monkeypatch):
        monkeypatch.setitem(MODEL_REGISTRY, self.NAME, ManhattanRandomWaypoint)
        monkeypatch.setitem(_MOBILITY_OPTION_KEYS, self.NAME, frozenset())
        assert self.NAME not in BATCH_MOBILITY_REGISTRY
        return self.NAME

    def test_unregistered_batch_model_is_replicated(self, scalar_only_model):
        rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(3).spawn(B)]
        config = mobility_config(scalar_only_model, {})
        assert isinstance(build_batch_model(config, rngs), ReplicatedBatchMobility)

    def test_escape_hatch_bit_identical_across_engines(self, scalar_only_model):
        config = mobility_config(scalar_only_model, {}, max_steps=120)
        scalar = result_fingerprint(run_trials(config, 3))
        batch = result_fingerprint(run_trials(config.with_options(engine="batch"), 3))
        assert scalar == batch

    def test_fallback_note_stamped_on_every_replica(self, scalar_only_model):
        results = run_trials(mobility_config(scalar_only_model, {}, engine="batch"), 3)
        notes = [r.extras.get("mobility_execution") for r in results]
        assert notes == ["replicated (not vectorized)"] * 3

    def test_native_models_carry_no_fallback_note(self):
        results = run_trials(mobility_config("mrwp-pause", {"pause_time": 1.0}, engine="batch"), 2)
        assert all("mobility_execution" not in r.extras for r in results)

    def test_auto_keeps_escape_hatch_models_on_the_scalar_engine(self, scalar_only_model):
        config = mobility_config(scalar_only_model, {}, engine="auto")
        assert config.resolved_engine == "scalar"


class TestConfigSurface:
    """Config-time validation of the mobility layer's new surface."""

    def test_every_registered_model_builds_from_config(self):
        for name in MODEL_REGISTRY:
            options = {"ferries": 3} if name == "composite" else {}
            config = mobility_config(name, options)
            model = build_model(config, np.random.default_rng(0))
            assert model.positions.shape == (N, 2)

    def test_unknown_mobility_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown mobility model"):
            mobility_config("teleport", {})

    def test_unknown_mobility_option_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown mobility options"):
            mobility_config("mrwp-pause", {"pause": 3.0})

    def test_mrwp_speed_range_validated_at_construction(self):
        with pytest.raises(ValueError, match="v_min"):
            mobility_config("mrwp-speed", {"v_min": 0.9, "v_max": 0.2})
        with pytest.raises(ValueError, match="v_min"):
            mobility_config("mrwp-speed", {"v_min": 0.0, "v_max": 0.5})

    def test_mrwp_speed_defaults_to_constant_config_speed(self):
        config = mobility_config("mrwp-speed", {})
        model = build_model(config, np.random.default_rng(1))
        assert model.v_min == model.v_max == SPEED

    def test_registry_keys_line_up(self):
        # Every registered mobility resolves to a native batch entry — the
        # PR 9 acceptance criterion that retired the replicated fallback
        # for built-in models.
        assert set(BATCH_MOBILITY_REGISTRY) == set(MODEL_REGISTRY)
        # Registering a model requires declaring its option vocabulary too.
        assert set(_MOBILITY_OPTION_KEYS) == set(MODEL_REGISTRY)

    def test_no_init_models_reject_init_at_config_time(self):
        for name in ("ferry", "random-walk", "random-direction"):
            with pytest.raises(ValueError, match="takes no init"):
                mobility_config(name, {}, init="uniform")

    def test_timetable_option_values_validated_at_construction(self):
        with pytest.raises(ValueError, match="riders"):
            mobility_config("timetable", {"riders": N})
        with pytest.raises(ValueError, match="headway"):
            mobility_config("timetable", {"headway": 0.0})
        with pytest.raises(ValueError, match="capacity"):
            mobility_config("timetable", {"capacity": 0})
        with pytest.raises(ValueError, match="dwell"):
            mobility_config("timetable", {"dwell": -1.0})
        with pytest.raises(ValueError, match="board_radius"):
            mobility_config("timetable", {"board_radius": 0.0})
        with pytest.raises(ValueError, match="jitter"):
            mobility_config("ferry", {"jitter": 1.5})
