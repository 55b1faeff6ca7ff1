"""Repository consistency guards: docs, registry, version and package
layering stay in sync."""

import ast
import importlib
import inspect
import os
import pkgutil
import re
import shlex
import tomllib

import numpy as np
import pytest

import repro
import repro.mobility
import repro.protocols
from repro.cli import build_parser
from repro.experiments.registry import EXPERIMENT_MODULES, all_ids, get_spec
from repro.mobility import BATCH_MOBILITY_REGISTRY, MODEL_REGISTRY, MobilityModel
from repro.protocols import BATCH_PROTOCOL_REGISTRY, PROTOCOL_REGISTRY, BatchBroadcastState
from repro.simulation.batch import build_batch_model
from repro.simulation.config import FloodingConfig
from repro.simulation.runner import build_model

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_package_version_matches_pyproject():
    with open(os.path.join(REPO_ROOT, "pyproject.toml"), "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert repro.__version__ == project["version"]


def _repro_imports(package):
    """``(file, module)`` for every ``repro`` import in ``repro/<package>/``.

    Walks each whole syntax tree, so imports inside functions count too,
    and resolves relative imports against the importing package.
    """
    root = os.path.join(REPO_ROOT, "src", "repro", package)
    found = []
    for name in sorted(os.listdir(root)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(root, name)) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    parent = ["repro", package][: 3 - node.level]
                    base = ".".join(parent + ([node.module] if node.module else []))
                modules = [f"{base}.{alias.name}" for alias in node.names]
            else:
                continue
            found.extend((name, m) for m in modules if _under(m, ("repro",)))
    return found


def _under(module, packages):
    return any(module == p or module.startswith(p + ".") for p in packages)


class TestLayering:
    """``repro.network`` builds on geometry and kernels only, and
    ``repro.core`` does not import it."""

    def test_network_imports_only_geometry_and_kernels(self):
        allowed = ("repro.geometry", "repro.kernels", "repro.network")
        assert [
            (name, module)
            for name, module in _repro_imports("network")
            if not _under(module, allowed)
        ] == []

    def test_core_does_not_import_network(self):
        assert [
            (name, module)
            for name, module in _repro_imports("core")
            if _under(module, ("repro.network",))
        ] == []


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


class TestOneImplementationPerProtocol:
    """A scalar protocol is a one-replica view of its batch state, and the
    exchange code lives on the batch states only."""

    def test_scalar_protocols_view_their_batch_state(self):
        assert set(PROTOCOL_REGISTRY) == set(BATCH_PROTOCOL_REGISTRY)
        for name, cls in PROTOCOL_REGISTRY.items():
            assert cls.batch_state is BATCH_PROTOCOL_REGISTRY[name], name

    def test_only_batch_states_define_an_exchange(self):
        defining = set()
        for info in pkgutil.iter_modules(repro.protocols.__path__):
            module = importlib.import_module(f"repro.protocols.{info.name}")
            for _name, cls in inspect.getmembers(module, inspect.isclass):
                if cls.__module__ == module.__name__ and "_exchange" in vars(cls):
                    defining.add(cls)
        assert all(issubclass(cls, BatchBroadcastState) for cls in defining), defining
        concrete = {cls for cls in defining if cls is not BatchBroadcastState}
        assert concrete == set(BATCH_PROTOCOL_REGISTRY.values())
        for name, cls in PROTOCOL_REGISTRY.items():
            assert not hasattr(cls, "_exchange"), name


class TestOneImplementationPerMobilityModel:
    """A scalar mobility model is a one-replica view of its batch twin, and
    the kinematics live on the batch models only."""

    def test_registries_name_the_same_models(self):
        assert set(MODEL_REGISTRY) == set(BATCH_MOBILITY_REGISTRY)

    @pytest.mark.parametrize("name", sorted(MODEL_REGISTRY))
    def test_scalar_models_hold_their_batch_twin(self, name):
        config = FloodingConfig(n=12, side=9.0, radius=1.6, speed=0.6, mobility=name)
        rng = np.random.default_rng(0)
        model = build_model(config, rng)
        assert isinstance(model.batch, type(build_batch_model(config, [rng])))

    def test_no_scalar_model_defines_step(self):
        defining = set()
        for info in pkgutil.iter_modules(repro.mobility.__path__):
            module = importlib.import_module(f"repro.mobility.{info.name}")
            for _name, cls in inspect.getmembers(module, inspect.isclass):
                if (
                    cls.__module__ == module.__name__
                    and issubclass(cls, MobilityModel)
                    and cls is not MobilityModel
                    and "step" in vars(cls)
                ):
                    defining.add(cls)
        assert defining == set()


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


_CLI = "python -m repro.cli"


def _documented_commands():
    """``(where, command)`` for every ``python -m repro.cli`` command in the
    docs: continuation lines joined, inline commands cut at their closing
    backtick, ``<id>`` filled in and ``[...]`` optional groups dropped."""
    found = []
    for doc in ("README.md", "DESIGN.md", "EXPERIMENTS.md"):
        with open(os.path.join(REPO_ROOT, doc)) as fh:
            lines = fh.read().splitlines()
        k = 0
        while k < len(lines):
            start, line = k + 1, lines[k]
            while line.rstrip().endswith("\\") and k + 1 < len(lines):
                k += 1
                line = line.rstrip()[:-1] + " " + lines[k]
            k += 1
            for match in re.finditer(re.escape(_CLI), line):
                text = line[match.start():]
                if line[: match.start()].endswith("`"):
                    text = text[: text.index("`")]
                text = re.sub(r"\[[^\]]*\]", "", text.replace("<id>", "thm3_radius"))
                found.append((f"{doc}:{start}", text))
    return found


_COMMANDS = _documented_commands()


#: The scheduler options a documented ``experiment``/``run`` command may
#: pass, and the name ``ExperimentSpec.options`` holds them under.
_SCHEDULER_OPTIONS = {
    "--engine": "engine",
    "--jobs": "jobs",
    "--adaptive": "stopping",
    "--ci-width": "stopping",
    "--min-trials": "stopping",
    "--max-trials": "stopping",
    "--checkpoint": "checkpoint",
    "--resume": "checkpoint",
    "--max-retries": "max_retries",
}


class TestDocumentedCommands:
    @pytest.mark.parametrize(
        "command", [pytest.param(text, id=where) for where, text in _COMMANDS]
    )
    def test_command_parses_and_its_options_apply(self, command):
        tokens = shlex.split(command, comments=True)
        assert tokens[:3] == _CLI.split()
        argv = tokens[3:]
        if argv and argv[-1] == "&":
            argv = argv[:-1]
        try:
            args = build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"the CLI rejects the documented command {command!r}")
        if args.command not in ("experiment", "run"):
            return
        spec = get_spec(args.experiment)
        for flag, option in _SCHEDULER_OPTIONS.items():
            if flag in argv:
                assert option in spec.options, f"{args.experiment} does not take {flag}"

    def test_the_docs_document_commands(self):
        docs = {where.split(":")[0] for where, _ in _COMMANDS}
        assert {"README.md", "EXPERIMENTS.md"} <= docs
