"""Repository consistency guards: docs and registry stay in sync."""

import os

import pytest

from repro.experiments.registry import EXPERIMENT_MODULES, all_ids, get_spec

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class TestRegistryConsistency:
    def test_design_md_lists_every_experiment(self):
        with open(os.path.join(REPO_ROOT, "DESIGN.md")) as fh:
            design = fh.read()
        for experiment_id in all_ids():
            assert f"`{experiment_id}`" in design, f"{experiment_id} missing from DESIGN.md"

    def test_module_paths_resolve(self):
        for experiment_id, module_path in EXPERIMENT_MODULES.items():
            spec = get_spec(experiment_id)
            assert spec.runner.__module__ == module_path

    def test_paper_refs_are_nonempty_and_specific(self):
        for experiment_id in all_ids():
            spec = get_spec(experiment_id)
            assert len(spec.paper_ref) > 3
            assert len(spec.description) > 10


class TestDocsExist:
    @pytest.mark.parametrize("name", ["README.md", "DESIGN.md", "EXPERIMENTS.md"])
    def test_doc_present_and_substantial(self, name):
        path = os.path.join(REPO_ROOT, name)
        assert os.path.exists(path)
        with open(path) as fh:
            content = fh.read()
        assert len(content) > 1000

    def test_examples_present(self):
        examples = os.path.join(REPO_ROOT, "examples")
        scripts = [f for f in os.listdir(examples) if f.endswith(".py")]
        assert "quickstart.py" in scripts
        assert len(scripts) >= 3
