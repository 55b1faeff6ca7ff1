"""Experiment framework.

Each paper artifact (Figure 1, each theorem/lemma's supporting simulation)
is one module under :mod:`repro.experiments` exposing an
:class:`ExperimentSpec`.  Running a spec produces an
:class:`ExperimentResult`: a table (headers + rows), free-form notes, ASCII
artifacts (heatmaps), and a pass/fail verdict for the artifact's
shape-validation criterion.  The registry (:mod:`repro.experiments.registry`)
indexes the specs for the CLI and the test suite.

Scales:

* ``"quick"`` — seconds; used by the tests and CI;
* ``"full"`` — the EXPERIMENTS.md numbers (minutes for the largest sweeps).
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field

from repro.simulation.sweep import run_sweep
from repro.viz.csvout import rows_to_csv_string
from repro.viz.tables import format_table

__all__ = [
    "ExperimentSpec",
    "ExperimentResult",
    "scale_params",
    "adaptive_note",
    "SCALES",
]

SCALES = ("quick", "full")

#: The run options of a flooding experiment: :meth:`ExperimentSpec.run`
#: binds them into the ``sweep`` its runner calls (``checkpoint`` covers
#: ``resume``).
SWEEP_OPTIONS = frozenset({"engine", "jobs", "stopping", "checkpoint", "max_retries"})


def scale_params(scale: str, quick: dict, full: dict) -> dict:
    """Pick the parameter dict for a scale (with validation)."""
    if scale == "quick":
        return dict(quick)
    if scale == "full":
        return dict(full)
    raise ValueError(f"scale must be one of {SCALES}, got {scale!r}")


def adaptive_note(points, plan) -> str:
    """The adaptive-savings note :meth:`ExperimentSpec.run` appends to a
    flooding experiment run under a stopping rule.

    Reports executed vs fixed-budget trial totals in the same format as
    the ``sweep`` CLI's adaptive-savings line.
    """
    executed = sum(p.n_trials for p in points)
    fixed = sum(p.n_trials for p in plan)
    return f"adaptive stopping: {executed} trials vs {fixed} fixed budget"


@dataclass
class ExperimentResult:
    """Outcome of one experiment run.

    ``passed`` is a tri-state: ``True`` / ``False`` for a decided shape
    check, ``None`` for "not applicable / not evaluated" — compare with
    ``is True`` / ``is False``, never truthiness (``None`` and ``False``
    must not collapse into one branch).
    """

    experiment_id: str
    title: str
    paper_ref: str
    headers: list[str]
    rows: list[list]
    notes: list[str] = field(default_factory=list)
    artifacts: dict[str, str] = field(default_factory=dict)
    passed: bool | None = None

    def to_text(self) -> str:
        """Full human-readable report."""
        lines = [f"== {self.experiment_id}: {self.title} ({self.paper_ref}) =="]
        if self.rows:
            lines.append(format_table(self.headers, self.rows))
        for name, artifact in self.artifacts.items():
            lines.append(f"-- {name} --")
            lines.append(artifact)
        for note in self.notes:
            lines.append(f"note: {note}")
        if self.passed is not None:
            lines.append(f"shape check: {'PASS' if self.passed is True else 'FAIL'}")
        return "\n".join(lines)

    def to_csv(self) -> str:
        """The table as CSV."""
        return rows_to_csv_string(self.headers, self.rows)


@dataclass(frozen=True)
class ExperimentSpec:
    """A registered, runnable experiment.

    A flooding runner takes ``(scale, seed, sweep)`` and calls
    ``sweep(plan)`` once: :meth:`run` binds ``sweep`` to
    :func:`~repro.simulation.sweep.run_sweep` with the run's scheduler
    options.  A runner that fans its own jobs out takes
    ``(scale, seed, jobs)``; a closed-form runner takes ``(scale, seed)``.
    """

    id: str
    title: str
    paper_ref: str
    description: str
    runner: object  # callable (scale, seed[, sweep | jobs]) -> ExperimentResult

    @property
    def options(self) -> frozenset:
        """The run options this experiment takes: all of
        :data:`SWEEP_OPTIONS` if its runner takes ``sweep``, ``{"jobs"}``
        if it takes ``jobs``, none otherwise."""
        parameters = inspect.signature(self.runner).parameters
        if "sweep" in parameters:
            return SWEEP_OPTIONS
        return frozenset({"jobs"} & parameters.keys())

    def run(
        self,
        scale: str = "quick",
        seed: int = 0,
        engine: str | None = None,
        jobs: int = 1,
        stopping=None,
        checkpoint: str | None = None,
        resume: bool = False,
        max_retries: int | None = None,
    ) -> ExperimentResult:
        """Execute the experiment at the given scale.

        Args:
            scale: ``"quick"`` or ``"full"``.
            seed: root seed.
            engine: execution engine (``"scalar"`` / ``"batch"`` /
                ``"auto"``, the default); results are engine-independent
                by construction.
            jobs: worker processes.
            stopping: optional
                :class:`~repro.simulation.sweep.StoppingRule` — adaptive
                sequential stopping (the result is a bit-exact prefix of
                the fixed-budget run, plus a note of the trials saved).
            checkpoint: optional checkpoint directory (partial results
                persisted after each batch).
            resume: continue the checkpoint in ``checkpoint`` bit-exactly.
            max_retries: per-job crash retries before poison-job quarantine.

        Raises:
            ValueError: an option was requested that is not in
                :attr:`options`.
        """
        options = self.options
        jobs = 1 if jobs is None else jobs
        requested = {
            "engine": engine is not None,
            "jobs": jobs != 1,
            "stopping": stopping is not None,
            "checkpoint": checkpoint is not None or resume,
            "max_retries": max_retries is not None,
        }
        refused = [name for name, asked in requested.items() if asked and name not in options]
        if refused:
            raise ValueError(f"experiment {self.id!r} does not take {', '.join(refused)}")
        kwargs = {}
        swept = []
        if options == SWEEP_OPTIONS:

            def sweep(plan):
                points = run_sweep(
                    plan, engine=engine or "auto", jobs=jobs, stopping=stopping,
                    checkpoint=checkpoint, resume=resume, max_retries=max_retries,
                )
                swept.append((points, plan))
                return points

            kwargs["sweep"] = sweep
        elif options:
            kwargs["jobs"] = jobs
        result = self.runner(scale=scale, seed=seed, **kwargs)
        if result.experiment_id != self.id:  # defensive consistency check
            raise RuntimeError(f"runner for {self.id!r} returned id {result.experiment_id!r}")
        if stopping is not None:
            result.notes.extend(adaptive_note(points, plan) for points, plan in swept)
        return result
