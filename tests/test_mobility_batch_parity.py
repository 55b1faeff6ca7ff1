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

import numpy as np
import pytest

from repro.geometry.neighbors import available_backends
from repro.mobility import (
    BATCH_MOBILITY_REGISTRY,
    MODEL_REGISTRY,
    ManhattanRandomWaypoint,
    ReplicatedBatchMobility,
)
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
