"""Seed-for-seed parity of every mobility model with its oracle.

Each model in ``BATCH_MOBILITY_REGISTRY`` advances ``B`` replicas
bit-identically to ``B`` independently seeded oracles, the historical
scalar models of ``tests/mobility_oracles.py`` — same initial state
(stationary / Palm / uniform sampling included), same trajectories, same
per-replica RNG streams — and so does each ``MODEL_REGISTRY`` view, which
holds its batch twin at B=1.  Both engines return the oracle trials across
models, inits, neighbor paths and engines, the transit family (ferry /
composite / timetable) included.
"""

import inspect
import threading

import numpy as np
import pytest

from mobility_oracles import ORACLES, oracle_model, oracle_trials
from repro.kernels import kernel_backend, provider_kernels, use_kernel_tier
from repro.mobility import (
    BATCH_MOBILITY_REGISTRY,
    MODEL_REGISTRY,
    BatchManhattanRandomWaypoint,
    ManhattanRandomWaypoint,
)
from repro.mobility import kinematics
from repro.mobility.stationary import KinematicState
from repro.simulation.batch import build_batch_model
from repro.simulation.config import _MOBILITY_OPTION_KEYS, FloodingConfig
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


def model_set(name, options, init, seed=21):
    """``(oracles, views, batch, rngs)``: B oracles, B views and one
    B-replica batch model, each set on its own identically seeded
    generators (``rngs``, in that order)."""
    config = mobility_config(name, options, init)
    children = np.random.SeedSequence(seed).spawn(B)
    rngs = [[np.random.default_rng(s) for s in children] for _ in range(3)]
    oracles = [oracle_model(config, rng) for rng in rngs[0]]
    views = [build_model(config, rng) for rng in rngs[1]]
    batch = build_batch_model(config, rngs[2])
    return oracles, views, batch, rngs


def generator_states(rngs):
    return [rng.bit_generator.state for rng in rngs]


def state_arrays(model, prefix=""):
    """Copies of every state array of a batch model, its timetable engine's
    and its composite members' included (per-step budget buffers are
    scratch, not state)."""
    out = {}
    for key, value in vars(model).items():
        if isinstance(value, np.ndarray) and "budget" not in key:
            out[prefix + key] = value.copy()
        elif key == "_engine":
            out.update(state_arrays(value, f"{prefix}{key}."))
        elif key == "models":
            for i, member in enumerate(value):
                out.update(state_arrays(member, f"{prefix}models[{i}]."))
    return out


def assert_same_arrays(got, want):
    assert got.keys() == want.keys()
    for key in want:
        assert got[key].dtype == want[key].dtype, key
        assert got[key].tobytes() == want[key].tobytes(), key


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


#: The state arrays a step of each trip model may change.
TRIP_ARRAYS = {
    "mrwp": ("_pos", "_dest", "_target", "_on_second_leg", "turn_counts", "arrival_counts"),
    "mrwp-pause": ("_pos", "_dest", "_target", "_on_second_leg", "_pause_left"),
    "mrwp-speed": ("_pos", "_dest", "_target", "_on_second_leg", "_trip_speed"),
    "rwp": ("_pos", "_dest", "_pause_left", "arrival_counts"),
}
TRIP_MOBILITIES = list(TRIP_ARRAYS)


def trip_snapshot(models, rngs, mobility="mrwp"):
    """Everything a step of the trip model ``mobility`` may change,
    generator states included.

    ``models`` is one model or a list of them, whose flat arrays are
    concatenated in order; a view is read through its twin.
    """
    models = models if isinstance(models, list) else [models]
    states = [getattr(model, "batch", model) for model in models]
    arrays = [
        np.concatenate([getattr(state, name) for state in states])
        for name in TRIP_ARRAYS[mobility]
    ]
    return arrays, generator_states(rngs)


def trip_model(mobility, speed, rngs, view=False):
    """The batch model ``mobility`` at ``speed`` on ``rngs`` (or, with
    ``view``, its scalar view on ``rngs[0]``), with pauses and a speed
    range where the model has them."""
    options = {
        "mrwp": {},
        "mrwp-pause": {"pause_time": 0.3},
        "mrwp-speed": {"v_min": 0.5 * speed},
        "rwp": {"pause_time": 0.3},
    }[mobility]
    config = mobility_config(mobility, options, speed=speed)
    return build_model(config, rngs[0]) if view else build_batch_model(config, rngs)


def assert_same_snapshot(got, want):
    for actual, expected in zip(got[0], want[0]):
        assert actual.dtype == expected.dtype
        assert actual.tobytes() == expected.tobytes()
    assert got[1] == want[1]


def spawn_rngs(batch_size, seed=21):
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(batch_size)]


def retire_schedule(batch_size, t):
    """Replica ``b`` retires after step ``2 + 2 * b``."""
    return np.arange(batch_size) * 2 + 2 >= t


def run_batch_mrwp(tier, batch_size, speed, dt, rngs=None, steps=8, mobility="mrwp"):
    """Snapshots after every step of a batch MRWP model (or of the trip
    model ``mobility``) on ``tier``."""
    rngs = spawn_rngs(batch_size) if rngs is None else rngs
    if mobility == "mrwp":
        model = BatchManhattanRandomWaypoint(N, SIDE, speed, rngs)
    else:
        model = trip_model(mobility, speed, rngs)
    snapshots = []
    with use_kernel_tier(tier):
        for t in range(steps):
            model.step(dt, active=retire_schedule(batch_size, t))
            snapshots.append(trip_snapshot(model, rngs, mobility))
    return snapshots


def run_oracle_mrwp(batch_size, speed, dt, steps=8):
    """:func:`run_batch_mrwp`'s snapshots from ``batch_size`` oracles on the
    numpy tier, stepped on the same retire schedule."""
    rngs = spawn_rngs(batch_size)
    models = [ORACLES["mrwp"](N, SIDE, speed, rng=rng) for rng in rngs]
    snapshots = []
    with use_kernel_tier("numpy"):
        for t in range(steps):
            for b in np.nonzero(retire_schedule(batch_size, t))[0]:
                models[b].step(dt)
            snapshots.append(trip_snapshot(models, rngs))
    return snapshots


def run_scalar_mrwp(tier, speed, dt, cls=ManhattanRandomWaypoint, steps=8):
    rng = np.random.default_rng(21)
    model = cls(N, SIDE, speed, rng=rng)
    snapshots = []
    with use_kernel_tier(tier):
        for _ in range(steps):
            model.step(dt)
            snapshots.append(trip_snapshot(model, [rng]))
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
    """Stepping the batch model == stepping B views == stepping B oracles,
    bit for bit."""

    @pytest.mark.parametrize("name,options,init", MODEL_INIT_CASES)
    def test_initial_state_and_trajectory_bit_exact(self, name, options, init):
        oracles, views, batch, rngs = model_set(name, options, init)
        entry = BATCH_MOBILITY_REGISTRY[name]
        if isinstance(entry, type):
            assert type(batch) is entry
        expected = np.stack([m.positions for m in oracles])
        assert np.array_equal(batch.positions, expected)
        assert np.array_equal(np.stack([v.positions for v in views]), expected)
        for _ in range(12):
            expected = np.stack([m.step() for m in oracles])
            assert np.array_equal(batch.step(), expected)
            assert np.array_equal(np.stack([v.step() for v in views]), expected)
        want = generator_states(rngs[0])
        assert generator_states(rngs[1]) == want
        assert generator_states(rngs[2]) == want

    @pytest.mark.parametrize(
        "name,options",
        [(name, options) for name, options, _ in MODEL_GRID],
    )
    def test_frozen_replicas_keep_state_and_streams(self, name, options):
        """A frozen replica must not move *and* must not consume RNG —
        exactly like a trial that already stopped stepping."""
        oracles, _views, batch, _rngs = model_set(name, options, "stationary")
        # Every replica frozen: no position, state array or generator moves.
        arrays, streams = state_arrays(batch), generator_states(batch.rngs)
        positions = batch.positions
        batch.step(active=np.zeros(B, dtype=bool))
        assert batch.positions.tobytes() == positions.tobytes()
        assert_same_arrays(state_arrays(batch), arrays)
        assert generator_states(batch.rngs) == streams
        active = np.array([True, False, True, False])
        frozen_before = batch.positions[~active]
        for _ in range(6):
            for b in np.nonzero(active)[0]:
                oracles[b].step()
            batch.step(active=active)
        assert np.array_equal(batch.positions[~active], frozen_before)
        # Thawing afterwards: the frozen replicas' generators are pristine,
        # so they must now replay their oracles' next steps exactly.
        for _ in range(4):
            expected = np.stack([m.step() for m in oracles])
            assert np.array_equal(batch.step(), expected)

    def test_frozen_mrwp_replica_keeps_signed_zeros(self):
        """On the numpy tier the first carry-over pass is dense; it must not
        rewrite a frozen replica's rows, where ``-0.0 + 0.0`` is ``+0.0``."""
        state = KinematicState(
            np.array([[-0.0, 1.0], [2.0, -0.0], [-0.0, -0.0]]),
            np.array([[3.0, 4.0], [5.0, 6.0], [7.0, 2.0]]),
            np.array([[-0.0, 4.0], [5.0, -0.0], [7.0, -0.0]]),
            np.zeros(3, dtype=bool),
        )
        rngs = [np.random.default_rng(s) for s in (1, 2)]
        with use_kernel_tier("numpy"):
            batch = BatchManhattanRandomWaypoint(
                3, SIDE, SPEED, rngs, init=[state, state.copy()]
            )
            active = np.array([True, False])
            for _ in range(5):
                batch.step(active=active)
        frozen = batch.positions[1]
        assert frozen.tobytes() == state.positions.tobytes()
        assert np.array_equal(np.signbit(frozen), np.signbit(state.positions))

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
        oracles, views, batch, _rngs = model_set(name, options, "stationary")
        for dt in (0.25, 1.75, 0.5, 3.0):
            expected = np.stack([m.step(dt) for m in oracles])
            assert np.array_equal(batch.step(dt), expected)
            assert np.array_equal(np.stack([v.step(dt) for v in views]), expected)

    @needs_provider
    @pytest.mark.parametrize("speed", list(TRIP_SPEEDS.values()), ids=list(TRIP_SPEEDS))
    @pytest.mark.parametrize("dt", [1.0, 0.5])
    @pytest.mark.parametrize("batch_size", [1, 3, 8])
    def test_mrwp_trip_mode_matches_numpy_loop(self, batch_size, dt, speed):
        """The compiled tier's one-call MRWP step, and the numpy loop, leave
        the oracles' state, counters and generator states after every
        step, while replicas retire."""
        want = run_oracle_mrwp(batch_size, speed, dt)
        for tier in ("numpy", "compiled"):
            got = run_batch_mrwp(tier, batch_size, speed, dt)
            for g, w in zip(got, want):
                assert_same_snapshot(g, w)

    @needs_provider
    @pytest.mark.parametrize("speed", list(TRIP_SPEEDS.values()), ids=list(TRIP_SPEEDS))
    @pytest.mark.parametrize("dt", [1.0, 0.5])
    def test_scalar_mrwp_trip_mode_matches_numpy_loop(self, dt, speed):
        want = run_scalar_mrwp("numpy", speed, dt, cls=ORACLES["mrwp"])
        for tier in ("numpy", "compiled"):
            got = run_scalar_mrwp(tier, speed, dt)
            for g, w in zip(got, want):
                assert_same_snapshot(g, w)


class ForwardingGenerator:
    """A generator object without numpy's C interface: it forwards the
    ``random`` and ``uniform`` calls of the trip redraws to a real
    ``Generator``."""

    def __init__(self, rng):
        self.rng = rng

    def random(self, *args, **kwargs):
        return self.rng.random(*args, **kwargs)

    def uniform(self, *args, **kwargs):
        return self.rng.uniform(*args, **kwargs)


@needs_provider
class TestCompiledTripModeGuards:
    """Where the compiled step of each trip model must agree with, or yield
    to, its numpy loop."""

    @pytest.mark.parametrize("mobility", TRIP_MOBILITIES)
    def test_replicas_sharing_a_generator(self, mobility):
        def shared():
            first, second = spawn_rngs(2)
            return [first, second, first]

        speed = TRIP_SPEEDS["three_sides"]
        want = run_batch_mrwp("numpy", 3, speed, 1.0, rngs=shared(), mobility=mobility)
        got = run_batch_mrwp("compiled", 3, speed, 1.0, rngs=shared(), mobility=mobility)
        for g, w in zip(got, want):
            assert_same_snapshot(g, w)

    @pytest.mark.parametrize("mobility", TRIP_MOBILITIES)
    @pytest.mark.parametrize("batch", [False, True], ids=["scalar", "batch"])
    def test_too_small_pass_cap_raises_on_both_tiers(self, monkeypatch, batch, mobility):
        monkeypatch.setattr(kinematics, "_MAX_LEGS_PER_STEP", 1)
        snapshots = []
        for tier in ("numpy", "compiled"):
            rngs = spawn_rngs(3 if batch else 1)
            model = trip_model(mobility, 3 * SIDE, rngs, view=not batch)
            with use_kernel_tier(tier), pytest.raises(RuntimeError, match="did not converge"):
                model.step()
            assert model.time == 0.0
            snapshots.append(trip_snapshot(model, rngs, mobility))
        assert_same_snapshot(snapshots[1], snapshots[0])

    @pytest.mark.parametrize("mobility", TRIP_MOBILITIES)
    def test_step_waits_for_a_held_generator_lock(self, mobility):
        want = run_batch_mrwp("numpy", 3, SIDE, 1.0, steps=1, mobility=mobility)
        rngs = spawn_rngs(3)
        model = trip_model(mobility, SIDE, rngs)
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
        assert_same_snapshot(trip_snapshot(model, rngs, mobility), want[0])

    @pytest.mark.parametrize("mobility", TRIP_MOBILITIES)
    def test_generator_without_c_interface_falls_back(self, monkeypatch, mobility):
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
            model = trip_model(mobility, SIDE, rngs)
            model.rngs = [ForwardingGenerator(rng) for rng in rngs]
            with use_kernel_tier(tier):
                for _ in range(4):
                    model.step()
            snapshots.append(trip_snapshot(model, rngs, mobility))
        assert len(trip_results) == 4 and all(out is None for out in trip_results)
        assert_same_snapshot(snapshots[1], snapshots[0])

    def test_cached_generator_follows_reset(self):
        snapshots = []
        for cls, tier in (
            (ORACLES["mrwp"], "numpy"),
            (ManhattanRandomWaypoint, "numpy"),
            (ManhattanRandomWaypoint, "compiled"),
        ):
            first, second = spawn_rngs(2)
            model = cls(N, SIDE, SIDE, rng=first)
            with use_kernel_tier(tier):
                for _ in range(3):
                    model.step()
                model.reset(rng=second)
                assert model.time == 0.0
                for _ in range(3):
                    model.step()
            snapshots.append(trip_snapshot(model, [first, second]))
        assert_same_snapshot(snapshots[1], snapshots[0])
        assert_same_snapshot(snapshots[2], snapshots[0])


class TestEngineLevelParity:
    """run_trials on either engine == the oracle trials over the full model
    grid."""

    @pytest.mark.parametrize("name,options,init", MODEL_INIT_CASES)
    def test_trials_match_across_engines(self, name, options, init):
        config = mobility_config(name, options, init)
        reference = result_fingerprint(oracle_trials(config, 3))
        for engine in ("scalar", "batch"):
            got = result_fingerprint(run_trials(config.with_options(engine=engine), 3))
            assert got == reference, engine

    @pytest.mark.parametrize(
        "name", ["mrwp-pause", "mrwp-speed", "random-direction"]
    )
    def test_new_models_match_across_neighbor_paths(self, name, neighbor_path):
        options = {"v_min": 0.3, "v_max": 1.1} if name == "mrwp-speed" else {}
        config = mobility_config(name, options, kernels=neighbor_path)
        reference = result_fingerprint(oracle_trials(config, 3))
        for engine in ("scalar", "batch"):
            got = result_fingerprint(run_trials(config.with_options(engine=engine), 3))
            assert got == reference, (name, engine)

    def test_auto_resolves_to_batch_for_native_models(self):
        for name, options, _inits in MODEL_GRID:
            config = mobility_config(name, options, engine="auto")
            assert config.resolved_engine == "batch", name


#: The PR 9 acceptance sweep: {timetable, ferry, composite} — each config
#: must produce bit-identical positions and informed-counts across every
#: neighbor path and engine.
TRANSIT_CASES = [
    ("ferry", {"inset": 1.9}),
    ("composite", {"ferries": 3}),
    ("timetable", {"riders": 40, "dwell": 2.0, "capacity": 3}),
]


class TestTransitFamilyNative:
    """ferry / composite / timetable on every neighbor path and engine."""

    @pytest.mark.parametrize("name,options", TRANSIT_CASES)
    def test_bit_identical_across_neighbor_paths_and_engines(
        self, name, options, neighbor_path
    ):
        """The acceptance sweep: {transit model} x {neighbor path} x {engine}."""
        config = mobility_config(name, options, max_steps=120, kernels=neighbor_path)
        reference = result_fingerprint(oracle_trials(config, 3))
        for engine in ("scalar", "batch", "auto"):
            got = result_fingerprint(run_trials(config.with_options(engine=engine), 3))
            assert got == reference, (name, engine)


class TestStepRejectsBadDt:
    """A NaN, infinite, zero or negative ``dt`` raises before any state moves."""

    @pytest.mark.parametrize("name", sorted(MODEL_REGISTRY))
    @pytest.mark.parametrize("kind", ["scalar", "batch"])
    @pytest.mark.parametrize(
        "dt", [float("nan"), float("inf"), float("-inf"), 0.0, -1.0], ids=str
    )
    def test_raises_and_leaves_state(self, name, kind, dt):
        options = next(options for grid_name, options, _ in MODEL_GRID if grid_name == name)
        _oracles, views, batch, _rngs = model_set(name, options, "stationary")
        model = views[0] if kind == "scalar" else batch
        model.step(0.5)
        before = model.positions
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            model.step(dt)
        assert model.time == 0.5
        assert np.array_equal(model.positions, before)


class TestViews:
    """A ``MODEL_REGISTRY`` model is a one-replica view of its batch twin."""

    @pytest.mark.parametrize("name", sorted(MODEL_REGISTRY))
    def test_views_keep_the_oracle_constructor_signature(self, name):
        assert inspect.signature(MODEL_REGISTRY[name]) == inspect.signature(ORACLES[name])

    @pytest.mark.parametrize("name,options,_inits", MODEL_GRID)
    def test_view_holds_its_twin_at_one_replica(self, name, options, _inits):
        config = mobility_config(name, options)
        rng = np.random.default_rng(4)
        view = build_model(config, rng)
        assert type(view.batch) is type(build_batch_model(config, [rng]))
        assert view.batch.batch_size == 1 and view.batch.rngs == [rng]
        assert view.rng is rng and not hasattr(view, "batch_size")
        view.step()
        assert view.time == view.batch.time == 1.0
        assert np.array_equal(view.positions, view.batch.positions[0])


class TestConfigSurface:
    """Config-time validation of the mobility layer's new surface."""

    def test_model_without_a_batch_twin_refused_at_construction(self, monkeypatch):
        monkeypatch.setitem(MODEL_REGISTRY, "mrwp-scalar-only", ManhattanRandomWaypoint)
        monkeypatch.setitem(_MOBILITY_OPTION_KEYS, "mrwp-scalar-only", frozenset())
        for engine in ("scalar", "batch", "auto"):
            with pytest.raises(ValueError, match="no batch implementation"):
                mobility_config("mrwp-scalar-only", {}, engine=engine)

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
