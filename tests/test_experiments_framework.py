"""Tests of the experiment framework and registry, plus a quick-scale run
of every registered experiment."""

import pytest

from repro.experiments.base import ExperimentResult, ExperimentSpec, scale_params
from repro.experiments.registry import EXPERIMENT_MODULES, all_ids, get_spec, run_experiment


class TestScaleParams:
    def test_selects_quick(self):
        assert scale_params("quick", {"n": 1}, {"n": 2}) == {"n": 1}

    def test_selects_full(self):
        assert scale_params("full", {"n": 1}, {"n": 2}) == {"n": 2}

    def test_returns_copy(self):
        quick = {"n": 1}
        out = scale_params("quick", quick, {})
        out["n"] = 99
        assert quick["n"] == 1

    def test_rejects_unknown(self):
        with pytest.raises(ValueError):
            scale_params("huge", {}, {})


class TestExperimentResult:
    def make(self, passed=True):
        return ExperimentResult(
            experiment_id="demo",
            title="Demo",
            paper_ref="Thm 0",
            headers=["a", "b"],
            rows=[[1, 2.5]],
            notes=["a note"],
            artifacts={"map": "###"},
            passed=passed,
        )

    def test_to_text_contains_everything(self):
        text = self.make().to_text()
        assert "demo" in text
        assert "Thm 0" in text
        assert "a note" in text
        assert "###" in text
        assert "PASS" in text

    def test_fail_verdict(self):
        assert "FAIL" in self.make(passed=False).to_text()

    def test_to_csv(self):
        csv = self.make().to_csv()
        assert csv.splitlines()[0] == "a,b"


class TestRegistry:
    def test_all_ids_stable(self):
        ids = all_ids()
        assert len(ids) == len(EXPERIMENT_MODULES)
        assert ids[0] == "fig1_spatial"

    def test_unknown_id(self):
        with pytest.raises(KeyError):
            get_spec("nonexistent")

    def test_all_specs_loadable(self):
        for experiment_id in all_ids():
            spec = get_spec(experiment_id)
            assert isinstance(spec, ExperimentSpec)
            assert spec.id == experiment_id
            assert spec.paper_ref
            assert spec.description

    def test_spec_id_mismatch_detected(self):
        def bad_runner(scale, seed):
            return ExperimentResult(
                experiment_id="other", title="", paper_ref="", headers=[], rows=[]
            )

        spec = ExperimentSpec(
            id="expected", title="", paper_ref="", description="", runner=bad_runner
        )
        with pytest.raises(RuntimeError):
            spec.run()


class TestLightExperimentsRun:
    """Every experiment runs end-to-end at quick scale and passes its check."""

    @pytest.mark.parametrize("experiment_id", all_ids())
    def test_runs_and_passes(self, experiment_id):
        result = run_experiment(experiment_id, scale="quick", seed=0)
        assert result.passed
        assert result.rows
        assert result.to_text()
