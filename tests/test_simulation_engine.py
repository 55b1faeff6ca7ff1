"""Tests of the step engine and metric observers."""

import numpy as np
import pytest

from repro.mobility.mrwp import ManhattanRandomWaypoint
from repro.protocols.flooding import FloodingProtocol
from repro.protocols.epidemic import SIREpidemic
from repro.simulation.engine import Simulation
from repro.simulation.metrics import InformedRecorder

SIDE = 15.0
N = 200


def make_parts(seed=0, radius=2.5):
    model = ManhattanRandomWaypoint(N, SIDE, 0.5, rng=np.random.default_rng(seed))
    protocol = FloodingProtocol(N, SIDE, radius, 0)
    return model, protocol


class TestSimulation:
    def test_size_mismatch_rejected(self):
        model, _ = make_parts()
        protocol = FloodingProtocol(N + 1, SIDE, 2.5, 0)
        with pytest.raises(ValueError):
            Simulation(model, protocol)

    def test_stops_when_complete(self):
        model, protocol = make_parts()
        simulation = Simulation(model, protocol)
        steps = simulation.run(1000)
        assert protocol.is_complete()
        assert steps < 1000

    def test_respects_max_steps(self):
        model, protocol = make_parts(radius=0.1)
        simulation = Simulation(model, protocol)
        steps = simulation.run(5)
        assert steps == 5

    def test_stops_when_stalled(self):
        model = ManhattanRandomWaypoint(N, SIDE, 0.5, rng=np.random.default_rng(1))
        protocol = SIREpidemic(N, SIDE, 0.05, 0, rng=np.random.default_rng(2), recovery_prob=1.0)
        simulation = Simulation(model, protocol)
        steps = simulation.run(100)
        # Source recovers after its first transmission with an empty radius:
        # the run ends long before the horizon.
        assert steps <= 3

    def test_stop_when_complete_false_runs_full(self):
        model, protocol = make_parts()
        simulation = Simulation(model, protocol)
        steps = simulation.run(30, stop_when_complete=False)
        assert steps == 30

    def test_negative_max_steps(self):
        model, protocol = make_parts()
        with pytest.raises(ValueError):
            Simulation(model, protocol).run(-1)

    def test_informed_property_is_copy(self):
        model, protocol = make_parts()
        simulation = Simulation(model, protocol)
        informed = simulation.informed
        informed[:] = True
        assert protocol.informed_count == 1


class TestInformedRecorder:
    def test_history_tracks_counts(self):
        model, protocol = make_parts()
        recorder = InformedRecorder()
        simulation = Simulation(model, protocol, observers=[recorder])
        steps = simulation.run(500)
        history = recorder.informed_history()
        assert history.shape == (steps + 1,)
        assert history[0] == 1
        assert history[-1] == protocol.informed_count
        assert np.all(np.diff(history) >= 0)
        assert sum(recorder.newly_per_step) == history[-1] - 1
