"""Result containers and multi-trial aggregation."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["FloodingResult", "TrialSummary", "summarize"]


@dataclass
class FloodingResult:
    """Outcome of a single flooding (or baseline-protocol) run.

    Attributes:
        flooding_time: first step at which all agents are informed
            (``math.inf`` when the horizon ended or the protocol stalled).
        completed: whether full coverage was reached.
        stalled: whether the protocol reported it can no longer progress
            (SIR die-out, parsimonious windows all closed).
        n_steps: number of simulated steps.
        informed_history: informed counts per step, shape ``(n_steps + 1,)``
            (entry 0 is the initial state: 1).
        source: index of the source agent.
        source_in_central_zone: zone of the source at time 0 (None when
            zone tracking is off).
        cz_completion_time: first step at which every agent *currently
            located* in the Central Zone was informed (``math.inf`` if
            never); None when zone tracking is off.
        suburb_completion_time: same for agents located in the Suburb.
        final_coverage: fraction informed at the end of the run.
    """

    flooding_time: float
    completed: bool
    stalled: bool
    n_steps: int
    informed_history: np.ndarray
    source: int
    source_in_central_zone: bool = None
    cz_completion_time: float = None
    suburb_completion_time: float = None
    final_coverage: float = 0.0
    extras: dict = field(default_factory=dict)

    def coverage_at(self, t: int) -> float:
        """Fraction of informed agents after step ``t``."""
        total = self.extras.get("n_agents")
        if total is None:
            raise KeyError("result does not record n_agents")
        return float(self.informed_history[min(t, self.n_steps)]) / total

    def time_to_coverage(self, fraction: float) -> float:
        """First step reaching the given informed fraction (``inf`` if never)."""
        total = self.extras.get("n_agents")
        if total is None:
            raise KeyError("result does not record n_agents")
        target = fraction * total
        hits = np.nonzero(self.informed_history >= target)[0]
        return float(hits[0]) if hits.size else math.inf


@dataclass(frozen=True)
class TrialSummary:
    """Summary statistics of a sample of scalar trial outcomes."""

    n_trials: int
    n_finite: int
    mean: float
    std: float
    median: float
    minimum: float
    maximum: float
    ci_low: float
    ci_high: float

    def format(self, unit: str = "") -> str:
        """Compact ``mean ± half-CI`` rendering."""
        if self.n_finite == 0:
            return "— (no finite trials)"
        half = (self.ci_high - self.ci_low) / 2.0
        suffix = f" {unit}" if unit else ""
        return f"{self.mean:.1f} ± {half:.1f}{suffix} (median {self.median:.1f})"


#: Two-sided standard-normal quantiles of the confidence levels that
#: :func:`summarize` supports.  A normal-approximation CI is exact enough
#: for reporting and keeps scipy out of the core path.
_Z_SCORES = {0.90: 1.6449, 0.95: 1.9600, 0.99: 2.5758}


def z_score(confidence: float) -> float:
    """Normal quantile of a supported confidence level (0.90, 0.95, 0.99).

    Raises:
        ValueError: for any other level, rather than silently reporting
            an interval other than the one requested.
    """
    z = _Z_SCORES.get(confidence)
    if z is None:
        raise ValueError(
            f"confidence must be one of {sorted(_Z_SCORES)}, got {confidence!r}"
        )
    return z


def summarize(values, confidence: float = 0.95) -> TrialSummary:
    """Mean / spread / normal-approximation CI of scalar outcomes.

    Infinite values (incomplete trials) are excluded from the moments but
    reported through ``n_finite`` vs ``n_trials``.  ``confidence`` must be
    one of the levels :func:`z_score` supports.
    """
    z = z_score(confidence)
    values = np.asarray(list(values), dtype=np.float64)
    finite = values[np.isfinite(values)]
    n = values.size
    k = finite.size
    if k == 0:
        nan = float("nan")
        return TrialSummary(n, 0, nan, nan, nan, nan, nan, nan, nan)
    mean = float(finite.mean())
    std = float(finite.std(ddof=1)) if k > 1 else 0.0
    half = z * std / math.sqrt(k) if k > 1 else 0.0
    # np.median gives the same value, but its first call imports numpy.ma
    # (~12 ms and 2 MB in a fresh process), and every run_trials ends here.
    ordered = np.sort(finite)
    middle = k // 2
    median = ordered[middle] if k % 2 else (ordered[middle - 1] + ordered[middle]) / 2
    return TrialSummary(
        n_trials=n,
        n_finite=k,
        mean=mean,
        std=std,
        median=float(median),
        minimum=float(finite.min()),
        maximum=float(finite.max()),
        ci_low=mean - half,
        ci_high=mean + half,
    )
