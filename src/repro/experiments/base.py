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


def scale_params(scale: str, quick: dict, full: dict) -> dict:
    """Pick the parameter dict for a scale (with validation)."""
    if scale == "quick":
        return dict(quick)
    if scale == "full":
        return dict(full)
    raise ValueError(f"scale must be one of {SCALES}, got {scale!r}")


def adaptive_note(points, plan) -> str:
    """The standard adaptive-savings note for sweep experiments.

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

    Runners take ``(scale, seed)``; sweep-scheduler experiments additionally
    accept ``engine`` (execution-engine override) and ``jobs`` (worker
    processes) — :meth:`run` threads those through only when the runner's
    signature accepts them, and refuses a non-default request otherwise.
    """

    id: str
    title: str
    paper_ref: str
    description: str
    runner: object  # callable (scale, seed[, engine, jobs, stopping, ...]) -> ExperimentResult

    def _runner_accepts(self, name: str) -> bool:
        parameters = inspect.signature(self.runner).parameters
        return name in parameters or any(
            p.kind is inspect.Parameter.VAR_KEYWORD for p in parameters.values()
        )

    @property
    def accepts_engine(self) -> bool:
        """Whether the runner supports the ``engine`` override."""
        return self._runner_accepts("engine")

    @property
    def accepts_jobs(self) -> bool:
        """Whether the runner supports multi-process ``jobs`` fan-out."""
        return self._runner_accepts("jobs")

    @property
    def accepts_stopping(self) -> bool:
        """Whether the runner supports adaptive sequential stopping."""
        return self._runner_accepts("stopping")

    @property
    def accepts_checkpoint(self) -> bool:
        """Whether the runner supports checkpoint/resume."""
        return self._runner_accepts("checkpoint")

    @property
    def accepts_max_retries(self) -> bool:
        """Whether the runner supports the crash-retry budget ``max_retries``."""
        return self._runner_accepts("max_retries")

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
            engine: optional execution-engine override (``"scalar"`` /
                ``"batch"`` / ``"auto"``) for sweep-scheduler experiments;
                results are engine-independent by construction.
            jobs: worker processes for sweep-scheduler experiments.
            stopping: optional
                :class:`~repro.simulation.sweep.StoppingRule` — adaptive
                sequential stopping for sweep-scheduler experiments (the
                result is a bit-exact prefix of the fixed-budget run).
            checkpoint: optional checkpoint directory for sweep-scheduler
                experiments (partial results persisted after each batch).
            resume: continue the checkpoint in ``checkpoint`` bit-exactly.
            max_retries: per-job crash retries before poison-job quarantine.
        """
        kwargs = {"scale": scale, "seed": seed}
        # Only thread a *requested* engine through: runners keep their own
        # defaults (e.g. protocol_baselines defaults to the batch engine).
        if engine is not None:
            if not self.accepts_engine:
                raise ValueError(
                    f"experiment {self.id!r} does not run through the sweep scheduler "
                    "and has no engine selection"
                )
            kwargs["engine"] = engine
        if jobs not in (None, 1):
            if not self.accepts_jobs:
                raise ValueError(
                    f"experiment {self.id!r} does not run through the sweep scheduler "
                    "and has no multi-process fan-out"
                )
            kwargs["jobs"] = jobs
        if stopping is not None:
            if not self.accepts_stopping:
                raise ValueError(
                    f"experiment {self.id!r} does not run through the sweep scheduler "
                    "and has no adaptive stopping"
                )
            kwargs["stopping"] = stopping
        if checkpoint is not None or resume:
            if not self.accepts_checkpoint:
                raise ValueError(
                    f"experiment {self.id!r} does not run through the sweep scheduler "
                    "and cannot checkpoint or resume"
                )
            kwargs["checkpoint"] = checkpoint
            kwargs["resume"] = resume
        if max_retries is not None:
            if not self.accepts_max_retries:
                raise ValueError(
                    f"experiment {self.id!r} does not run through the sweep scheduler "
                    "and has no crash retries"
                )
            kwargs["max_retries"] = max_retries
        result = self.runner(**kwargs)
        if result.experiment_id != self.id:  # defensive consistency check
            raise RuntimeError(f"runner for {self.id!r} returned id {result.experiment_id!r}")
        return result
