"""Tests of configuration and RNG-stream management."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mobility_oracles import oracle_trials
from repro.mobility import MODEL_REGISTRY
from repro.protocols import PROTOCOL_REGISTRY
from repro.simulation import run_trials
from repro.simulation.config import FloodingConfig, standard_config
from repro.simulation.rng import make_rng, spawn_rngs, spawn_seeds


class TestFloodingConfig:
    def test_valid_roundtrip(self):
        config = FloodingConfig(n=100, side=10.0, radius=1.0, speed=0.1)
        assert config.n == 100
        assert config.source == "uniform"

    @pytest.mark.parametrize(
        "overrides",
        [
            {"n": 1},
            {"side": 0.0},
            {"radius": 0.0},
            {"speed": -1.0},
            {"side": math.nan},
            {"side": math.inf},
            {"radius": math.nan},
            {"radius": math.inf},
            {"speed": math.nan},
            {"speed": math.inf},
            {"max_steps": 0},
            {"source": "middle"},
            {"source": 100},
            {"source": -1},
            {"n": 2.5},
            {"n": True},
            {"max_steps": 2.5},
            {"max_steps": True},
            {"batch_size": 1.5},
            {"batch_size": True},
            {"source": True},
            {"source": False},
            {"source": 2.0},
            {"source": np.int64(100)},
            {"threshold_factor": math.nan},
            {"threshold_factor": math.inf},
            {"threshold_factor": 0.0},
            {"threshold_factor": -0.375},
            {"seed": -1},
            {"seed": 1.5},
            {"seed": True},
            {"seed": "7"},
        ],
    )
    def test_invalid_rejected(self, overrides):
        base = dict(n=100, side=10.0, radius=1.0, speed=0.1)
        base.update(overrides)
        with pytest.raises(ValueError):
            FloodingConfig(**base)

    @pytest.mark.parametrize("radius", [1e-9, 1e-3])
    def test_radius_far_below_side_rejected(self, radius):
        # The Inequality-6 zone grid would need m = ceil(sqrt5 * side / R)
        # cells per side: 1.1e10 (a MemoryError mid-run) or 11181.
        with pytest.raises(ValueError, match=r"side=5\.0.*radius=.*m=\d+"):
            FloodingConfig(n=50, side=5.0, radius=radius, speed=0.5)

    def test_radius_far_below_side_runs_without_zone_tracking(self):
        config = FloodingConfig(
            n=50, side=5.0, radius=1e-3, speed=0.5, max_steps=3, track_zones=False
        )
        assert run_trials(config, 1)[0].n_steps == 3

    @pytest.mark.parametrize("seed, message", [(-1, "non-negative"), (1.5, "an integer")])
    def test_bad_seed_rejected_before_any_draw(self, seed, message):
        # SeedSequence would refuse it only once a run starts.
        with pytest.raises(ValueError, match=f"seed must be {message}"):
            FloodingConfig(n=100, side=10.0, radius=1.0, speed=0.1, seed=seed)

    def test_numpy_integers_accepted(self):
        config = FloodingConfig(
            n=np.int64(100), side=10.0, radius=1.0, speed=0.1,
            max_steps=np.int32(20), batch_size=np.int64(4), source=np.int64(5),
            seed=np.int64(0),
        )
        scalar = run_trials(config, 1)[0]
        batch = run_trials(config.with_options(engine="batch"), 1)[0]
        assert scalar.source == batch.source == 5
        assert scalar.n_steps == batch.n_steps <= 20

    @pytest.mark.parametrize("protocol", ["flooding", "gossip"])
    def test_numpy_tier_gives_the_same_trials_on_both_engines(self, protocol):
        """The scalar engine's protocols are one-replica batch states, so
        the numpy tier's cell cover runs there too."""
        config = FloodingConfig(
            n=100, side=10.0, radius=1.0, speed=0.1, max_steps=40,
            kernels="numpy", protocol=protocol, engine="scalar",
        )
        scalar = run_trials(config, 3)
        batch = run_trials(config.with_options(engine="batch"), 3)
        assert [(r.flooding_time, r.informed_history.tolist()) for r in scalar] == [
            (r.flooding_time, r.informed_history.tolist()) for r in batch
        ]

    def test_with_options(self):
        config = FloodingConfig(n=100, side=10.0, radius=1.0, speed=0.1)
        other = config.with_options(radius=2.0, seed=9)
        assert other.radius == 2.0
        assert other.seed == 9
        assert config.radius == 1.0  # original untouched (frozen)

    def test_explicit_int_source_ok(self):
        config = FloodingConfig(n=100, side=10.0, radius=1.0, speed=0.1, source=5)
        assert config.source == 5

    def test_upper_bound_positive(self):
        config = FloodingConfig(n=100, side=10.0, radius=1.0, speed=0.1)
        assert config.upper_bound() > 0

    def test_describe_mentions_params(self):
        config = FloodingConfig(n=100, side=10.0, radius=1.0, speed=0.1)
        text = config.describe()
        assert "n=100" in text
        assert "flooding" in text


class TestStandardConfig:
    def test_canonical_scaling(self):
        config = standard_config(2500, radius_factor=2.0, speed_fraction=0.25)
        assert config.side == pytest.approx(50.0)
        assert config.radius == pytest.approx(2.0 * math.sqrt(math.log(2500)))
        assert config.speed == pytest.approx(0.25 * config.radius)

    def test_overrides_forwarded(self):
        config = standard_config(1000, source="central", seed=7)
        assert config.source == "central"
        assert config.seed == 7

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            standard_config(1)

    def test_sparse_large_n_still_constructs(self):
        # m = 335 zone cells per side, far inside the 4096 limit.
        assert standard_config(20000, radius_factor=0.3).track_zones


_SIDE = 6.0
_RADIUS = 1.5
#: Corner cases every mobility model must either run or refuse up front.
_DEGENERATE = {
    "speed-0": dict(n=20, radius=_RADIUS, speed=0.0),
    "speed-3side": dict(n=20, radius=_RADIUS, speed=3 * _SIDE),
    "radius-diagonal": dict(
        n=20, radius=_SIDE * math.sqrt(2), speed=_SIDE * math.sqrt(2) / 4
    ),
}
_DEGENERATE_CASES = [
    pytest.param(name, engine, case, id=f"{name}-{engine}-{case_id}")
    for name in sorted(MODEL_REGISTRY)
    for engine in ("scalar", "batch")
    for case_id, case in _DEGENERATE.items()
] + [
    pytest.param(
        "composite", engine, dict(n=2, radius=_RADIUS, speed=_RADIUS / 4),
        id=f"composite-{engine}-n2",
    )
    for engine in ("scalar", "batch")
]


class TestDegenerateConfigs:
    """A corner-case config is refused when it is built, or it runs: it
    never passes construction only to fail once trials start."""

    @pytest.mark.parametrize("mobility,engine,case", _DEGENERATE_CASES)
    def test_rejected_at_construction_or_runs(self, mobility, engine, case):
        try:
            config = FloodingConfig(
                side=_SIDE, mobility=mobility, engine=engine, max_steps=50, **case
            )
        except ValueError:
            return
        results = run_trials(config, 2)
        assert len(results) == 2

    @given(
        protocol=st.sampled_from(sorted(PROTOCOL_REGISTRY)),
        mobility=st.sampled_from(sorted(MODEL_REGISTRY)),
        speed=st.sampled_from(["zero", "quarter-radius", "three-sides"]),
        n=st.integers(min_value=2, max_value=12),
        radius_frac=st.floats(min_value=0.05, max_value=1.0),
        seed=st.integers(min_value=0, max_value=1_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_protocols_refuse_or_run_alike_on_both_engines(
        self, protocol, mobility, speed, n, radius_frac, seed
    ):
        """Every registered protocol over every registered mobility model
        (default options), at speed 0, R/4 or 3·side, down to n = 2 and up
        to R = L√2: the config raises ``ValueError`` when it is built, or
        both engines give the trials of the historical scalar model."""
        radius = radius_frac * _SIDE * math.sqrt(2)
        speed = {"zero": 0.0, "quarter-radius": radius / 4, "three-sides": 3 * _SIDE}[speed]
        try:
            config = FloodingConfig(
                n=n, side=_SIDE, radius=radius, speed=speed, protocol=protocol,
                mobility=mobility, max_steps=30, seed=seed,
            )
        except ValueError:
            return

        def fingerprints(results):
            return [
                (
                    r.flooding_time, r.completed, r.stalled, r.n_steps, r.source,
                    r.informed_history.tolist(), r.cz_completion_time,
                    r.suburb_completion_time,
                    sorted((k, v) for k, v in r.extras.items() if k != "config"),
                )
                for r in results
            ]

        reference = fingerprints(oracle_trials(config, 2))
        for engine in ("scalar", "batch"):
            assert fingerprints(run_trials(config.with_options(engine=engine), 2)) == reference


class TestRngStreams:
    def test_make_rng_deterministic(self):
        assert make_rng(5).integers(1000) == make_rng(5).integers(1000)

    def test_spawn_rngs_independent(self):
        a, b = spawn_rngs(0, 2)
        assert a.integers(10**9) != b.integers(10**9)

    def test_spawn_reproducible(self):
        first = [r.integers(10**9) for r in spawn_rngs(42, 3)]
        second = [r.integers(10**9) for r in spawn_rngs(42, 3)]
        assert first == second

    def test_spawn_seeds_are_sequences(self):
        seeds = spawn_seeds(1, 4)
        assert len(seeds) == 4
        assert all(isinstance(s, np.random.SeedSequence) for s in seeds)

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)
        with pytest.raises(ValueError):
            spawn_seeds(0, -1)
