"""Repository consistency guards: docs, registry, version and package
layering stay in sync."""

import ast
import os
import re
import shlex
import tomllib

import pytest

import repro
from repro.cli import build_parser
from repro.experiments.registry import EXPERIMENT_MODULES, all_ids, get_spec

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
#: pass, and the spec property that says the experiment takes them.
_SCHEDULER_OPTIONS = {
    "--engine": "accepts_engine",
    "--jobs": "accepts_jobs",
    "--adaptive": "accepts_stopping",
    "--ci-width": "accepts_stopping",
    "--min-trials": "accepts_stopping",
    "--max-trials": "accepts_stopping",
    "--checkpoint": "accepts_checkpoint",
    "--resume": "accepts_checkpoint",
    "--max-retries": "accepts_max_retries",
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
        for option, gate in _SCHEDULER_OPTIONS.items():
            if option in argv:
                assert getattr(spec, gate), f"{args.experiment} does not take {option}"

    def test_the_docs_document_commands(self):
        docs = {where.split(":")[0] for where, _ in _COMMANDS}
        assert {"README.md", "EXPERIMENTS.md"} <= docs
