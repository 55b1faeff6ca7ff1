"""Tests of the step engine and metric observers."""

import math

import numpy as np
import pytest

from repro.core.flooding import build_zone_partition
from repro.kernels import kernel_backend, provider_kernels, use_kernel_tier
from repro.mobility.mrwp import ManhattanRandomWaypoint
from repro.protocols.flooding import FloodingProtocol
from repro.protocols.epidemic import SIREpidemic
from repro.simulation.engine import Simulation
from repro.simulation.metrics import InformedRecorder, ZoneRecorder

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


class TestZoneRecorder:
    def test_completion_times_recorded(self):
        model, protocol = make_parts()
        zones = build_zone_partition(N, SIDE, 2.5)
        assert zones is not None
        recorder = ZoneRecorder(zones)
        simulation = Simulation(model, protocol, observers=[recorder])
        simulation.run(500)
        assert math.isfinite(recorder.cz_completion_time)
        assert math.isfinite(recorder.suburb_completion_time)
        assert recorder.cz_fraction_history[-1] == 1.0

    def test_fractions_bounded(self):
        model, protocol = make_parts()
        zones = build_zone_partition(N, SIDE, 2.5)
        recorder = ZoneRecorder(zones)
        Simulation(model, protocol, observers=[recorder]).run(50)
        assert all(0.0 <= f <= 1.0 for f in recorder.cz_fraction_history)
        assert all(0.0 <= f <= 1.0 for f in recorder.suburb_fraction_history)

    def test_completion_is_first_time(self):
        """Completion times never decrease once set."""
        model, protocol = make_parts()
        zones = build_zone_partition(N, SIDE, 2.5)
        recorder = ZoneRecorder(zones)
        simulation = Simulation(model, protocol, observers=[recorder])
        simulation.run(500)
        t = recorder.cz_completion_time
        # The fraction at the recorded step is 1.
        assert recorder.cz_fraction_history[int(t)] == 1.0
        assert all(f < 1.0 for f in recorder.cz_fraction_history[: int(t)])

    def test_compiled_tier_records_identical_fractions(self, monkeypatch):
        """On the compiled tier both counts come from ``zone_counts`` at
        B=1, once per observed snapshot; every fraction matches numpy's."""
        if kernel_backend() is None:
            pytest.skip("no compiled kernel provider builds on this host")
        table = provider_kernels()
        kernel = table["zone_counts"]
        calls = []

        def counted(*args):
            calls.append(args[0].shape)
            return kernel(*args)

        monkeypatch.setitem(table, "zone_counts", counted)
        # Definition 4's 3/8 empties the Central Zone at this n; 0.2 splits
        # the cells about evenly between the zones.
        zones = build_zone_partition(N, SIDE, 2.5, threshold_factor=0.2)
        assert 0 < zones.n_central_cells < zones.grid.n_cells
        recorders = {}
        for tier in ("numpy", "compiled"):
            model, protocol = make_parts(seed=4)
            recorders[tier] = ZoneRecorder(zones)
            with use_kernel_tier(tier):
                Simulation(model, protocol, observers=[recorders[tier]]).run(500)
        numpy_run, compiled_run = recorders["numpy"], recorders["compiled"]
        assert len(calls) == len(compiled_run.cz_fraction_history)
        assert all(shape == (1, N, 2) for shape in calls)
        assert compiled_run.cz_fraction_history == numpy_run.cz_fraction_history
        assert compiled_run.suburb_fraction_history == numpy_run.suburb_fraction_history
        assert compiled_run.cz_completion_time == numpy_run.cz_completion_time
        assert compiled_run.suburb_completion_time == numpy_run.suburb_completion_time
