"""Sweep scheduler: the one multi-trial executor.

Every quantitative claim of the paper is a parameter *sweep* — flooding
times across ``n`` (Theorem 3 scaling), across ``R`` and ``v``, across
mobility models and source placements.  :func:`run_sweep` runs every
multi-trial workload of the library: a whole experiment grid, a
one-parameter sweep (:meth:`SweepPlan.over_parameter`), and a single
configuration's repetitions (:func:`~repro.simulation.runner.run_trials`
is a one-point sweep).

* a :class:`SweepPlan` collects :class:`SweepPoint` entries — one
  ``(config, n_trials)`` pair per grid point, with an opaque ``key`` the
  caller uses to find the point again in the output;
* the **seed schedule is deterministic per point**: trial ``i`` draws
  child ``i`` of ``SeedSequence(config.seed).spawn(n_trials)`` — so a
  sweep is bit-for-bit equivalent to hand-looping
  :func:`~repro.simulation.runner.run_flooding` over those children
  (enforced by ``tests/test_simulation_sweep.py``);
* **identical configurations are deduplicated**: duplicate points execute
  once, and a point asking for fewer trials of a config another point also
  sweeps receives a prefix of the shared trial sequence (seed-schedule
  prefixes are stable under ``SeedSequence.spawn``).  Config identity is
  the canonical fingerprint of
  :func:`~repro.simulation.checkpoint.config_fingerprint`, which
  serializes dict-valued fields with sorted keys — two configs differing
  only in ``mobility_options`` insertion order share trials;
* each point dispatches through the configured **execution engine**
  (``engine="auto"`` resolves to the vectorized batch engine whenever both
  the protocol and the mobility model have native batched implementations)
  in batch slices of ``config.batch_size`` trials (all at once when 0);
* ``jobs=`` fans the work units out over processes through the
  crash-surviving :class:`~repro.simulation.parallel.WorkerPool` — batch
  points ship one batch slice per job, scalar points one trial per job,
  all sharing one pool;
* points may attach **per-trial observers** (``observer_factory``), which
  forces the scalar engine for that point only (observers need the
  step-by-step :class:`~repro.simulation.engine.Simulation`); the observers
  ride back on ``FloodingResult.extras["observers"]``.

**Adaptive sampling.**  A :class:`StoppingRule` (per point, or sweep-wide
via ``run_sweep(stopping=...)``) switches a point from a fixed trial count
to *sequential stopping*: trials run in batches until the relative
confidence-interval half-width undercuts a target (or the trial cap is
hit), so converged points stop early and the interesting ones — the
regime-map boundary, threshold radii — keep sampling.  With
``trial_budget=`` the scheduler additionally reallocates a global trial
budget each round toward the neediest unfinished points, ranked by a
GreenPod-style TOPSIS score over CI width, completion deficit, and
per-trial cost.  Adaptive results are always a **bit-exact prefix** of the
fixed-budget run (same seed schedule).  Every plan runs in rounds; a
fixed-budget plan — the default — is a single round.

**Checkpoint / resume.**  ``checkpoint=DIR`` persists every point's
partial results atomically after each trial batch
(:class:`~repro.simulation.checkpoint.SweepCheckpoint`);
``resume=True`` continues a killed, crashed, or budget-capped run
bit-exactly — trial ``i`` of a point always draws seed child ``i``, so the
segmentation of a run is invisible in its results (enforced by the
fault-injection tests in ``tests/test_sweep_checkpoint.py``).

**Fault tolerance.**  Worker crashes inside a round lose only the
affected jobs: the pool respawns, survivors' results are kept, and the
crashed jobs are retried solo on a deterministic backoff schedule
(:mod:`repro.simulation.parallel`).  A job that keeps killing fresh pools
is quarantined as a *poison job* — every completed trial is persisted
first, a sticky ``poison_NNNN.json`` marker blocks silent retries, and the
raised :class:`~repro.simulation.parallel.PoisonJobError` names the sweep
point, trial range, seed, and the marker to delete for a retry.  A sweep
is one invocation: to spread it over more cores, raise ``jobs``.

The output is point-indexed: one :class:`SweepPointResult` per input point
(in input order) carrying the raw results, the
:class:`~repro.simulation.results.TrialSummary`, and per-point completion
fractions — so callers stop silently averaging the finite subset and can
mask under-completed points.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from repro.simulation.checkpoint import SweepCheckpoint, config_fingerprint
from repro.simulation.config import FloodingConfig, _is_integer
from repro.simulation.parallel import (
    DEFAULT_MAX_RETRIES,
    PoisonJobError,
    WorkerPool,
    _child_states_range,
    _rebuild_seed_seq,
)
from repro.simulation.results import TrialSummary, summarize, z_score

__all__ = [
    "StoppingRule",
    "SweepPoint",
    "SweepPointResult",
    "SweepPlan",
    "run_sweep",
]


def _check_count(name: str, value, minimum: int) -> None:
    """Reject a bool, a non-integer, or a count below ``minimum``.

    numpy integers pass, as in :class:`FloodingConfig`.
    """
    if not _is_integer(value) or value < minimum:
        raise ValueError(f"{name} must be an integer of at least {minimum}, got {value!r}")


@dataclass(frozen=True)
class StoppingRule:
    """Sequential-stopping policy for one sweep point.

    A point under a stopping rule runs its first ``min_trials`` trials,
    then keeps appending batches of ``batch`` trials until either the
    normal-approximation confidence interval of the mean flooding time is
    narrow enough — relative half-width ``(ci_high - ci_low) / 2 / mean``
    at or below ``ci_width`` — or ``max_trials`` is reached.  The CI is
    only trusted once at least two trials finished (``n_finite >= 2``);
    until then the point keeps sampling.

    ``min_trials`` / ``max_trials`` left as ``None`` resolve against the
    point's own ``n_trials`` (its fixed budget): the minimum defaults to
    ``min(2, n_trials)`` and the cap to ``n_trials`` — so attaching a rule
    to an existing sweep can only *save* trials, never change the
    available seed schedule, and the adaptive result is a bit-exact prefix
    of the fixed-budget result.

    Attributes:
        ci_width: relative CI half-width target (e.g. ``0.1`` = stop once
            the mean is known to ±10%).  Compared absolutely when the mean
            is zero.
        min_trials: trials always run before the rule may fire (``None``:
            ``min(2, n_trials)``).  The rule never stops below this floor.
        max_trials: hard trial cap (``None``: the point's ``n_trials``).
        batch: trials appended per sequential round after the minimum.
        confidence: confidence level of the interval: 0.90, 0.95 or 0.99,
            the levels :func:`~repro.simulation.results.summarize`
            supports (any other raises ``ValueError``).
    """

    ci_width: float = 0.1
    min_trials: int | None = None
    max_trials: int | None = None
    batch: int = 2
    confidence: float = 0.95

    def __post_init__(self):
        if not self.ci_width > 0:
            raise ValueError(f"ci_width must be positive, got {self.ci_width}")
        _check_count("batch", self.batch, 1)
        for name in ("min_trials", "max_trials"):
            if getattr(self, name) is not None:
                _check_count(name, getattr(self, name), 1)
        if (
            self.min_trials is not None
            and self.max_trials is not None
            and self.min_trials > self.max_trials
        ):
            raise ValueError(
                f"min_trials ({self.min_trials}) must not exceed max_trials "
                f"({self.max_trials})"
            )
        z_score(self.confidence)

    def bounds(self, n_trials: int) -> tuple:
        """``(minimum, cap)`` resolved against a point's fixed budget."""
        lo = self.min_trials if self.min_trials is not None else min(2, n_trials)
        hi = self.max_trials if self.max_trials is not None else n_trials
        return lo, max(lo, hi)

    def should_stop(self, summary: TrialSummary, lo: int, hi: int) -> bool:
        """Whether a point with this summary stops sampling.

        Args:
            summary: aggregation of the trials run so far (computed at
                this rule's ``confidence``).
            lo: resolved minimum trial count (never stop below it).
            hi: resolved trial cap (always stop at it).
        """
        n = summary.n_trials
        if n < lo:
            return False
        if n >= hi:
            return True
        if summary.n_finite < 2:
            return False
        half = (summary.ci_high - summary.ci_low) / 2.0
        if summary.mean > 0:
            return half / summary.mean <= self.ci_width
        return half <= self.ci_width

    def trials_until_stop(self, values, n_trials: int | None = None) -> int:
        """The trial count at which this rule first fires on a value stream.

        Simulates the scheduler's accumulation — ``lo`` trials, then
        batches of ``batch`` — over a fixed sequence of flooding times.
        The property-test surface: deterministic for a fixed sequence,
        never below the minimum, monotone in the target width.

        Args:
            values: per-trial flooding times, in seed order (must cover
                the cap).
            n_trials: fixed budget the bounds resolve against (default:
                ``len(values)``).
        """
        values = list(values)
        if n_trials is None:
            n_trials = len(values)
        lo, hi = self.bounds(n_trials)
        if hi > len(values):
            raise ValueError(
                f"need at least {hi} values to simulate the rule, got {len(values)}"
            )
        n = lo
        while True:
            if self.should_stop(summarize(values[:n], confidence=self.confidence), lo, hi):
                return n
            n = min(n + self.batch, hi)


@dataclass(frozen=True)
class SweepPoint:
    """One grid point of a sweep: a configuration and a trial count.

    Attributes:
        config: the fully-specified experiment parameters.
        n_trials: independent repetitions, a positive integer (seed
            schedule: ``SeedSequence(config.seed).spawn(n_trials)``).
            Under a stopping rule this is the *fixed budget* the rule's
            default bounds resolve against.
        key: opaque caller label (the swept value, a tuple, ...) echoed on
            the matching :class:`SweepPointResult`.
        observer_factory: optional picklable callable
            ``factory(config) -> list`` building fresh per-trial observers
            (:class:`~repro.simulation.engine.Simulation` observer
            protocol).  Forces the scalar engine for this point; observer
            results are not checkpointed (recomputed on resume).
        stopping: optional per-point :class:`StoppingRule`, overriding the
            sweep-wide rule passed to :func:`run_sweep`.
    """

    config: FloodingConfig
    n_trials: int
    key: object = None
    observer_factory: object = None
    stopping: StoppingRule | None = None

    def __post_init__(self):
        if not isinstance(self.config, FloodingConfig):
            raise TypeError(f"config must be a FloodingConfig, got {type(self.config).__name__}")
        _check_count("n_trials", self.n_trials, 1)
        if self.observer_factory is not None and not callable(self.observer_factory):
            raise TypeError("observer_factory must be callable")
        if self.stopping is not None and not isinstance(self.stopping, StoppingRule):
            raise TypeError(
                f"stopping must be a StoppingRule, got {type(self.stopping).__name__}"
            )


@dataclass
class SweepPointResult:
    """Executed point: raw results plus point-level aggregation.

    Attributes:
        key: the input point's label.
        config: the configuration **as executed** (engine override applied).
        n_trials: trials this point actually ran (``len(results)`` — under
            a stopping rule this is where the rule stopped, otherwise the
            requested fixed budget).
        engine: engine that actually ran the trials (``"scalar"`` or
            ``"batch"`` — never ``"auto"``).
        results: per-trial :class:`~repro.simulation.results.FloodingResult`
            in seed order.
        summary: flooding-time aggregation over the trials.
    """

    key: object
    config: FloodingConfig
    n_trials: int
    engine: str
    results: list = field(default_factory=list)
    summary: TrialSummary = None

    @property
    def completed_fraction(self) -> float:
        """Fraction of trials that reached full coverage."""
        return sum(1 for r in self.results if r.completed) / self.n_trials

    @property
    def finite_fraction(self) -> float:
        """Fraction of trials with a finite flooding time."""
        return self.summary.n_finite / self.summary.n_trials

    @property
    def completion_label(self) -> str:
        """``"finite/total"`` rendering for tables (e.g. ``"3/3"``)."""
        return f"{self.summary.n_finite}/{self.summary.n_trials}"

    @property
    def mean(self) -> float:
        """Mean finite flooding time (NaN when no trial finished)."""
        return self.summary.mean

    def masked_mean(self, min_finite_fraction: float = 0.5) -> float:
        """Mean flooding time, masked to NaN below a finite-trial floor.

        The unmasked ``summary.mean`` silently averages whichever subset
        happened to finish; this helper makes the bias explicit by
        refusing to report a moment when fewer than
        ``min_finite_fraction`` of the trials completed.
        """
        if self.finite_fraction < min_finite_fraction:
            return math.nan
        return self.summary.mean

    def observers(self, index: int = 0) -> list:
        """The per-trial observers built by the point's factory.

        Args:
            index: which observer of the factory's list to collect.

        Returns:
            one observer per trial, in seed order.
        """
        return [r.extras["observers"][index] for r in self.results]


class SweepPlan:
    """An ordered collection of sweep points."""

    def __init__(self, points=()):
        self.points = []
        for point in points:
            if isinstance(point, SweepPoint):
                self.points.append(point)
            else:  # (config, n_trials[, key]) tuples for convenience
                self.points.append(SweepPoint(*point))

    def add(
        self,
        config: FloodingConfig,
        n_trials: int,
        key=None,
        observer_factory=None,
        stopping: StoppingRule | None = None,
    ) -> SweepPoint:
        """Append a point; returns it (its ``key`` indexes the output)."""
        point = SweepPoint(
            config, n_trials, key=key, observer_factory=observer_factory, stopping=stopping
        )
        self.points.append(point)
        return point

    @classmethod
    def over_parameter(
        cls, config: FloodingConfig, parameter: str, values, n_trials: int = 5
    ) -> "SweepPlan":
        """The classic one-parameter sweep: one point per value, keyed by it."""
        plan = cls()
        for value in values:
            plan.add(config.with_options(**{parameter: value}), n_trials, key=value)
        return plan

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)


def _run_sweep_job(args) -> list:
    """Worker: execute one job — a (config, seed-states, factory) slice.

    Top-level so the process pool can pickle it; batch jobs carry a whole
    trial slice, scalar jobs a single trial each.
    """
    config, states, factory = args
    seqs = [_rebuild_seed_seq(state) for state in states]
    if factory is None and config.resolved_engine == "batch":
        from repro.simulation.batch import run_protocol_batch

        return run_protocol_batch(config, seqs)
    from repro.simulation.runner import run_flooding

    out = []
    for seq in seqs:
        extra = list(factory(config)) if factory is not None else None
        out.append(run_flooding(config, seed_seq=seq, extra_observers=extra))
    return out


def _group_keys(points, point_group, n_groups: int) -> list:
    """Per-group point keys, for labels and quarantine diagnostics."""
    keys = [[] for _ in range(n_groups)]
    for point, gid in zip(points, point_group):
        keys[gid].append(point.key)
    return keys


def _job_label(gid: int, keys: list, config, lo: int, hi: int) -> str:
    """Human-readable job description for crash/poison diagnostics.

    Names everything a human needs to reproduce or exclude the job: the
    group, the sweep-point keys it feeds, the trial range, and the seed
    the trial schedule derives from.
    """
    shown = ", ".join(repr(key) for key in keys[:3])
    if len(keys) > 3:
        shown += f", ... ({len(keys)} points)"
    return (
        f"sweep group {gid} (point key(s) {shown}): trials {lo}..{hi - 1} "
        f"of seed {config.seed}"
    )


def _executed_config(point: SweepPoint, engine) -> FloodingConfig:
    """Apply the sweep-level engine override and the observer constraint."""
    config = point.config
    if engine is not None:
        config = config.with_options(engine=engine)
    if point.observer_factory is not None:
        if config.engine == "batch":
            raise ValueError(
                f"point {point.key!r} attaches observers, which require the scalar "
                "engine; use engine='auto' or 'scalar' for observer points"
            )
        if config.engine != "scalar":  # "auto": observers resolve it to scalar
            config = config.with_options(engine="scalar")
    return config


def _build_groups(points, engine, stopping) -> tuple:
    """Dedup pass: one execution group per distinct (config, factory, rule).

    Grouping is keyed by the canonical config fingerprint
    (:func:`~repro.simulation.checkpoint.config_fingerprint`), so configs
    that differ only in dict-field key order — which compare equal — share
    one trial sequence.  Observer factories group by identity (the
    pre-fingerprint behaviour); stopping rules by value.
    """
    groups = []
    point_group = []
    by_key = {}
    for point in points:
        config = _executed_config(point, engine)
        rule = point.stopping if point.stopping is not None else stopping
        fingerprint = config_fingerprint(config)
        factory = point.observer_factory
        key = (fingerprint, None if factory is None else id(factory), rule)
        gid = by_key.get(key)
        if gid is None:
            by_key[key] = gid = len(groups)
            groups.append(
                {
                    "config": config,
                    "factory": factory,
                    "n_trials": point.n_trials,
                    "rule": rule,
                    "fingerprint": fingerprint,
                }
            )
        else:
            groups[gid]["n_trials"] = max(groups[gid]["n_trials"], point.n_trials)
        point_group.append(gid)
    return groups, point_group


def _batch_slices(config, states, want, batch_size, workers) -> list:
    """Slice a batch-engine group's seed states into job tuples.

    A size of 0 keeps one slice per group in-process and one slice per
    worker under fan-out (slicing is result-invariant either way; this is
    about memory and per-batch fixed costs).
    """
    size = batch_size if batch_size is not None else config.batch_size
    if size <= 0:
        size = want if workers <= 1 else math.ceil(want / workers)
    size = max(1, size)
    return [(config, states[lo:lo + size], None) for lo in range(0, want, size)]


def _assemble(points, point_group, groups) -> list:
    """Point-indexed results: fixed points take their prefix, adaptive all."""
    out = []
    for point, gid in zip(points, point_group):
        group = groups[gid]
        if group["rule"] is None:
            results = group["results"][: point.n_trials]
        else:
            results = list(group["results"])
        engine_used = "scalar" if group["factory"] is not None else group["config"].resolved_engine
        out.append(
            SweepPointResult(
                key=point.key,
                config=group["config"],
                n_trials=len(results),
                engine=engine_used,
                results=results,
                summary=summarize(r.flooding_time for r in results),
            )
        )
    return out


def _group_finished(group) -> bool:
    """Whether a group needs no further trials (cap, target, or rule)."""
    n = len(group["results"])
    if n >= group["hi"]:
        return True
    if n < group["lo"]:
        return False
    rule = group["rule"]
    if rule is None:
        return n >= group["hi"]
    summary = summarize(
        (r.flooding_time for r in group["results"]), confidence=rule.confidence
    )
    return rule.should_stop(summary, group["lo"], group["hi"])


def _topsis(matrix: np.ndarray, benefit: tuple) -> np.ndarray:
    """TOPSIS scores in [0, 1]: closeness to the ideal candidate.

    Each row is a candidate, each column a criterion; ``benefit[j]`` marks
    whether criterion ``j`` is better high (True) or low (False).  Equal
    weights; vector-normalized.  The GreenPod scheduling template from
    PAPERS.md, reduced to the three criteria the sweep needs.
    """
    m = np.asarray(matrix, dtype=np.float64)
    norms = np.sqrt((m * m).sum(axis=0))
    norms[norms == 0.0] = 1.0
    v = m / norms
    benefit = np.asarray(benefit, dtype=bool)
    ideal = np.where(benefit, v.max(axis=0), v.min(axis=0))
    worst = np.where(benefit, v.min(axis=0), v.max(axis=0))
    d_ideal = np.sqrt(((v - ideal) ** 2).sum(axis=1))
    d_worst = np.sqrt(((v - worst) ** 2).sum(axis=1))
    denom = d_ideal + d_worst
    denom[denom == 0.0] = 1.0
    return d_worst / denom


def _reallocation_scores(candidates: list) -> np.ndarray:
    """Who deserves the next trial batch: a multi-criteria need score.

    Criteria per unfinished group: relative CI half-width (high = the
    mean is still uncertain — the regime-boundary points), completion
    deficit (high = trials keep timing out, the mean is biased toward the
    easy subset), and mean per-trial cost in steps (low = cheap to refine).
    """
    rows = []
    for group in candidates:
        results = group["results"]
        summary = summarize(r.flooding_time for r in results)
        if summary.n_finite >= 2 and summary.mean > 0:
            need = min((summary.ci_high - summary.ci_low) / 2.0 / summary.mean, 1.0)
        else:
            need = 1.0  # no trusted CI yet: maximal need
        n = max(summary.n_trials, 1)
        deficit = 1.0 - summary.n_finite / n
        cost = sum(r.n_steps for r in results) / n if results else 1.0
        rows.append([need, deficit, cost])
    return _topsis(np.asarray(rows), benefit=(True, True, False))


def _allocate_round(groups, budget_left) -> list:
    """Next round's ``(group_id, n_new_trials)`` allocations.

    Below-minimum groups are funded first and unconditionally (a stopping
    rule never fires below its floor, and fixed-budget groups must always
    reach their requested count).  Remaining budget then flows to
    unfinished groups one rule-batch at a time, neediest first by the
    TOPSIS score — deterministic (ties break on plan order), so trial
    counts at a fixed seed never depend on timing.
    """
    wants = [
        (gid, group["lo"] - len(group["results"]))
        for gid, group in enumerate(groups)
        if not group["done"] and len(group["results"]) < group["lo"]
    ]
    if wants:
        return wants
    candidates = [gid for gid, group in enumerate(groups) if not group["done"]]
    if not candidates or (budget_left is not None and budget_left <= 0):
        return []
    if len(candidates) > 1:
        scores = _reallocation_scores([groups[gid] for gid in candidates])
        candidates = [
            gid for _, gid in sorted(zip(-scores, candidates), key=lambda t: (t[0], t[1]))
        ]
    wants = []
    left = budget_left
    for gid in candidates:
        group = groups[gid]
        batch = group["rule"].batch if group["rule"] is not None else group["hi"]
        want = min(batch, group["hi"] - len(group["results"]))
        if left is not None:
            if left <= 0:
                break
            want = min(want, left)
            left -= want
        if want > 0:
            wants.append((gid, want))
    return wants


def _raise_if_quarantined(store, groups, group_keys) -> None:
    """Fail fast on a sticky poison-quarantine marker from a previous run."""
    for gid in range(len(groups)):
        marker = store.load_poison(gid)
        if marker is None:
            continue
        jobs = marker.get("jobs") or []
        detail = "; ".join(
            f"{job.get('label', f'group {gid}')} "
            f"(killed {job.get('attempts', '?')} fresh worker pools)"
            for job in jobs
        )
        keys = ", ".join(marker.get("keys") or [repr(k) for k in group_keys[gid]])
        raise PoisonJobError(
            f"sweep group {gid} (point key(s) {keys}, seed "
            f"{marker.get('seed')}) is quarantined as a poison job by a previous "
            f"run: {detail or 'no job detail recorded'}; fix or exclude the "
            f"offending configuration, then delete {marker['path']} to retry",
            [(gid, job.get("label", f"group {gid}"), job.get("attempts", 0)) for job in jobs],
            {},
        )


def _quarantine_poison(error, spans, job_meta, groups, group_keys, store) -> None:
    """Salvage a poisoned round, mark the culprits, re-raise with context.

    Completed results are persisted as far as each group's **contiguous
    prefix** reaches (the checkpoint format is prefix-shaped: trial ``i``
    can only be stored once ``0..i-1`` are), a sticky quarantine marker is
    written per poisoned group, and the :class:`PoisonJobError` is
    re-raised naming the sweep points, trial ranges, seeds, and the marker
    files to delete for a retry.  Never returns.
    """
    poisoned_by_index = {index: (label, attempts) for index, label, attempts in error.jobs}
    lines = []
    for gid, start, end in spans:
        group = groups[gid]
        prefix = []
        for index in range(start, end):
            if index not in error.completed:
                break
            prefix.extend(error.completed[index])
        if prefix:
            group["results"].extend(prefix)
            if store is not None and group["factory"] is None:
                store.write_group(gid, group["fingerprint"], group["results"])
        bad = [
            (index, *poisoned_by_index[index])
            for index in range(start, end)
            if index in poisoned_by_index
        ]
        if not bad:
            continue
        entries = [
            {
                "label": label,
                "attempts": attempts,
                "trial_start": job_meta[index][1],
                "trial_stop": job_meta[index][2],
            }
            for index, label, attempts in bad
        ]
        detail = "; ".join(
            f"{entry['label']} (killed {entry['attempts']} fresh worker pools)"
            for entry in entries
        )
        if store is not None:
            path = store.write_poison(
                gid,
                {
                    "group": gid,
                    "keys": [repr(key) for key in group_keys[gid]],
                    "seed": group["config"].seed,
                    "jobs": entries,
                },
            )
            detail += (
                f"; quarantine marker {path} written — fix or exclude the "
                "configuration, then delete the marker to retry"
            )
        lines.append(detail)
    suffix = (
        "; every completed trial of this round was persisted to the checkpoint"
        if store is not None
        else ""
    )
    raise PoisonJobError(
        "poison job(s) quarantined: " + " | ".join(lines) + suffix,
        error.jobs,
        error.completed,
    ) from error


def run_sweep(
    plan,
    engine: str | None = None,
    jobs: int | None = 1,
    batch_size: int | None = None,
    stopping: StoppingRule | None = None,
    checkpoint: str | None = None,
    resume: bool = False,
    trial_budget: int | None = None,
    max_retries: int | None = None,
    job_timeout: float | None = None,
) -> list:
    """Execute a sweep plan; one :class:`SweepPointResult` per point, in order.

    Args:
        plan: a :class:`SweepPlan`, or any iterable of :class:`SweepPoint`
            / ``(config, n_trials[, key])`` tuples.
        engine: optional engine override applied to every point
            (``"scalar"`` / ``"batch"`` / ``"auto"``); ``None`` keeps each
            config's own engine.  Results never depend on the engine (the
            batch engine is seed-for-seed identical to the scalar one).
        jobs: worker processes.  ``1`` (default) runs in-process; ``N > 1``
            fans the work units out over a shared pool of ``N`` processes;
            ``None`` lets the executor pick.  Results never depend on
            ``jobs`` — the seed schedule is fixed per point.
        batch_size: optional override of each config's ``batch_size`` for
            slicing batch-engine points into work units (``None`` keeps the
            config's; a config value of 0 means "one slice per point" for
            serial runs and ``ceil(n_trials / jobs)`` slices under fan-out).
        stopping: optional sweep-wide :class:`StoppingRule` (points may
            override with their own).  ``None`` keeps every point on its
            fixed trial budget, run as a single round.
        checkpoint: optional checkpoint directory.  Partial results are
            persisted atomically after every trial batch; a killed or
            crashed run continues bit-exactly via ``resume=True``.
        resume: continue the checkpoint already in ``checkpoint`` (which
            must exist and match this plan's configurations — a loud
            :class:`~repro.simulation.checkpoint.CheckpointError`
            otherwise).
        trial_budget: optional global trial ceiling across the whole
            sweep.  Minimum trial counts are always funded; the remainder
            flows to the neediest unfinished points (TOPSIS over CI width,
            completion deficit, per-trial cost) until the budget is spent.
            On resume, previously completed trials count against it.
        max_retries: per-job solo crash retries before poison-job
            quarantine (default
            :data:`~repro.simulation.parallel.DEFAULT_MAX_RETRIES`).
        job_timeout: optional per-job wall-clock ceiling in seconds;
            overruns are treated like worker crashes (retried, then
            quarantined).

    Returns:
        list of :class:`SweepPointResult`, aligned with the input points.

    Raises:
        PoisonJobError: a job repeatedly crashed its worker processes and
            was quarantined; with a checkpoint, every completed trial was
            persisted first and a sticky marker blocks silent retries.
    """
    points = list(plan.points if isinstance(plan, SweepPlan) else SweepPlan(plan).points)
    if not points:
        return []
    if jobs is not None:
        _check_count("jobs", jobs, 1)
    if batch_size is not None:
        _check_count("batch_size", batch_size, 0)
    if max_retries is not None:
        _check_count("max_retries", max_retries, 0)
    if stopping is not None and not isinstance(stopping, StoppingRule):
        raise TypeError(f"stopping must be a StoppingRule, got {type(stopping).__name__}")
    if resume and checkpoint is None:
        raise ValueError("resume=True requires a checkpoint directory")
    if trial_budget is not None:
        _check_count("trial_budget", trial_budget, 1)

    groups, point_group = _build_groups(points, engine, stopping)
    retries = DEFAULT_MAX_RETRIES if max_retries is None else max_retries
    workers = jobs if jobs is not None else (os.cpu_count() or 1)
    group_keys = _group_keys(points, point_group, len(groups))
    store = None
    if checkpoint is not None:
        store = SweepCheckpoint(checkpoint)
        store.open([group["fingerprint"] for group in groups], resume=resume)
        _raise_if_quarantined(store, groups, group_keys)

    for gid, group in enumerate(groups):
        rule = group["rule"]
        if rule is None:
            group["lo"] = group["hi"] = group["n_trials"]
        else:
            group["lo"], group["hi"] = rule.bounds(group["n_trials"])
        group["results"] = []
        if store is not None and group["factory"] is None:
            loaded = store.load_group(gid, group["fingerprint"], group["config"])
            group["results"] = loaded[: group["hi"]]

    budget_left = None
    if trial_budget is not None:
        budget_left = max(0, trial_budget - sum(len(g["results"]) for g in groups))

    # Each round allocates trials (:func:`_allocate_round`), runs them over
    # the one pool, appends them in seed order and persists every group it
    # touched.  Trial ``i`` of a group always draws seed child ``i``, so the
    # rounds, and any crash/resume boundary, are invisible in the results.
    with WorkerPool(jobs, max_retries=retries, job_timeout=job_timeout) as pool:
        while True:
            for group in groups:
                group["done"] = _group_finished(group)
            wants = _allocate_round(groups, budget_left)
            if not wants:
                break
            job_list = []
            labels = []
            job_meta = []  # per job: (gid, trial_lo, trial_hi)
            spans = []  # (gid, start, end) into job_list
            for gid, want in wants:
                group = groups[gid]
                config = group["config"]
                done_trials = len(group["results"])
                states = _child_states_range(config, done_trials, done_trials + want)
                start = len(job_list)
                if group["factory"] is None and config.resolved_engine == "batch":
                    job_list.extend(_batch_slices(config, states, want, batch_size, workers))
                else:
                    job_list.extend((config, [state], group["factory"]) for state in states)
                offset = done_trials
                for job in job_list[start:]:
                    hi = offset + len(job[1])
                    job_meta.append((gid, offset, hi))
                    labels.append(_job_label(gid, group_keys[gid], config, offset, hi))
                    offset = hi
                spans.append((gid, start, len(job_list)))
            try:
                job_results = pool.map(_run_sweep_job, job_list, labels=labels)
            except PoisonJobError as poison:
                _quarantine_poison(poison, spans, job_meta, groups, group_keys, store)
            for gid, start, end in spans:
                group = groups[gid]
                group["results"].extend(
                    result for job in job_results[start:end] for result in job
                )
                if store is not None and group["factory"] is None:
                    store.write_group(gid, group["fingerprint"], group["results"])
            if budget_left is not None:
                budget_left = max(0, budget_left - sum(want for _, want in wants))
    return _assemble(points, point_group, groups)
