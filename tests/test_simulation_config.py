"""Tests of configuration and RNG-stream management."""

import math

import numpy as np
import pytest

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
        ],
    )
    def test_invalid_rejected(self, overrides):
        base = dict(n=100, side=10.0, radius=1.0, speed=0.1)
        base.update(overrides)
        with pytest.raises(ValueError):
            FloodingConfig(**base)

    def test_numpy_integers_accepted(self):
        config = FloodingConfig(
            n=np.int64(100), side=10.0, radius=1.0, speed=0.1,
            max_steps=np.int32(20), batch_size=np.int64(4), source=np.int64(5),
        )
        scalar = run_trials(config, 1)[0]
        batch = run_trials(config.with_options(engine="batch"), 1)[0]
        assert scalar.source == batch.source == 5
        assert scalar.n_steps == batch.n_steps <= 20

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
