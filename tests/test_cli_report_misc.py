"""CLI report command and miscellaneous coverage."""

import math

import numpy as np
import pytest

from repro.cli import main
from repro.experiments import registry
from repro.mobility.mrwp import ManhattanRandomWaypoint
from repro.protocols.flooding import FloodingProtocol
from repro.simulation.engine import Simulation
from repro.simulation.results import FloodingResult


class TestCliReport:
    def test_report_command(self, capsys, tmp_path):
        out_path = tmp_path / "report.md"
        code = main(
            ["report", "--out", str(out_path), "--only", "lemma15_suburb"]
        )
        capsys.readouterr()
        assert code == 0
        content = out_path.read_text()
        assert "lemma15_suburb" in content
        assert "PASS" in content

    @pytest.mark.parametrize("only", [["bogus"], ["thm3_radius", "bogus"]], ids=["alone", "after"])
    def test_unknown_id_is_a_usage_error_before_any_run(self, capsys, tmp_path, monkeypatch, only):
        ran = []
        monkeypatch.setattr(registry, "run_all", lambda *a, **k: ran.append(a) or iter(()))
        out_path = tmp_path / "report.md"
        with pytest.raises(SystemExit) as exit_info:
            main(["report", "--out", str(out_path), "--only", *only])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "invalid choice: 'bogus'" in err
        assert ran == [] and not out_path.exists()


class TestEngineDt:
    def test_fractional_dt_advances_time(self):
        model = ManhattanRandomWaypoint(50, 10.0, 0.5, rng=np.random.default_rng(0))
        protocol = FloodingProtocol(50, 10.0, 2.0, 0)
        simulation = Simulation(model, protocol)
        simulation.run(4, dt=0.5)
        assert model.time == pytest.approx(2.0)


class TestResultEdgeCases:
    def make_result(self, history, n_agents):
        return FloodingResult(
            flooding_time=math.inf,
            completed=False,
            stalled=False,
            n_steps=len(history) - 1,
            informed_history=np.asarray(history),
            source=0,
            final_coverage=history[-1] / n_agents,
            extras={"n_agents": n_agents},
        )

    def test_time_to_coverage_inf_when_unreached(self):
        result = self.make_result([1, 2, 3], n_agents=10)
        assert math.isinf(result.time_to_coverage(0.9))
        assert result.time_to_coverage(0.2) == 1.0

    def test_coverage_requires_n_agents(self):
        result = self.make_result([1, 2], n_agents=10)
        result.extras = {}
        with pytest.raises(KeyError):
            result.coverage_at(0)
        with pytest.raises(KeyError):
            result.time_to_coverage(0.5)

