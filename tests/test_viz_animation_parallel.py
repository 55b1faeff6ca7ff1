"""Tests of the ASCII flooding animation and parallel sweep execution."""

import numpy as np
import pytest

from repro.mobility.mrwp import ManhattanRandomWaypoint
from repro.protocols.flooding import FloodingProtocol
from repro.simulation.config import FloodingConfig
from repro.simulation.sweep import SweepPlan, SweepPoint, run_sweep
from repro.viz.animation import record_flooding_frames, render_agents_frame

SIDE = 15.0
QUICK = dict(n=200, side=SIDE, radius=2.5, speed=0.5, max_steps=400, seed=5)


class TestRenderAgentsFrame:
    def test_symbols_present(self, rng):
        positions = rng.uniform(0, SIDE, (50, 2))
        informed = np.zeros(50, dtype=bool)
        informed[:10] = True
        frame = render_agents_frame(positions, informed, SIDE, width=10)
        assert "#" in frame
        assert "o" in frame
        assert "10/50" in frame

    def test_frame_dimensions(self, rng):
        positions = rng.uniform(0, SIDE, (20, 2))
        frame = render_agents_frame(
            positions, np.zeros(20, dtype=bool), SIDE, width=12, legend=False
        )
        lines = frame.splitlines()
        assert len(lines) == 12
        assert all(len(line) == 12 for line in lines)

    def test_informed_dominates_cell(self):
        positions = np.array([[1.0, 1.0], [1.1, 1.1]])
        informed = np.array([True, False])
        frame = render_agents_frame(positions, informed, SIDE, width=5, legend=False)
        assert "#" in frame
        assert "o" not in frame

    def test_validation(self, rng):
        positions = rng.uniform(0, SIDE, (5, 2))
        with pytest.raises(ValueError):
            render_agents_frame(positions, np.zeros(4, dtype=bool), SIDE)
        with pytest.raises(ValueError):
            render_agents_frame(positions, np.zeros(5, dtype=bool), SIDE, width=1)


class TestRecordFloodingFrames:
    def test_captures_requested_steps(self):
        model = ManhattanRandomWaypoint(100, SIDE, 0.5, rng=np.random.default_rng(0))
        protocol = FloodingProtocol(100, SIDE, 2.0, 0)
        frames = record_flooding_frames(model, protocol, at_steps=[0, 3, 6], width=10)
        assert sorted(frames) == [0, 3, 6]
        assert all(isinstance(f, str) for f in frames.values())

    def test_coverage_grows_across_frames(self):
        model = ManhattanRandomWaypoint(150, SIDE, 0.5, rng=np.random.default_rng(1))
        protocol = FloodingProtocol(150, SIDE, 2.5, 0)
        record_flooding_frames(model, protocol, at_steps=[8], width=10)
        assert protocol.informed_count > 1

    def test_rejects_negative_steps(self):
        model = ManhattanRandomWaypoint(10, SIDE, 0.5, rng=np.random.default_rng(2))
        protocol = FloodingProtocol(10, SIDE, 2.0, 0)
        with pytest.raises(ValueError):
            record_flooding_frames(model, protocol, at_steps=[-1])


class TestParallelRunner:
    def test_matches_serial_exactly(self, hand_loop):
        config = FloodingConfig(**QUICK)
        serial = hand_loop(config, 3)
        (point,) = run_sweep([SweepPoint(config, 3)], jobs=2)
        assert [r.flooding_time for r in serial] == [r.flooding_time for r in point.results]
        assert [r.source for r in serial] == [r.source for r in point.results]

    def test_single_worker_path(self):
        config = FloodingConfig(**QUICK)
        (point,) = run_sweep([SweepPoint(config, 2)], jobs=1)
        assert len(point.results) == 2

    def test_sweep_matches_serial(self, hand_loop):
        config = FloodingConfig(**QUICK)
        plan = SweepPlan.over_parameter(config, "radius", [2.0, 3.0], n_trials=2)
        serial = run_sweep(plan)
        parallel = run_sweep(plan, jobs=2)
        for a, b in zip(serial, parallel):
            assert a.key == b.key
            assert a.summary == b.summary
            expected = hand_loop(config.with_options(radius=a.key), 2)
            assert [r.flooding_time for r in b.results] == [r.flooding_time for r in expected]
