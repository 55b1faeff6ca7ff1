"""Reproduction-report generation.

Runs (a subset of) the experiment suite and renders one markdown document —
the generator behind EXPERIMENTS.md, also exposed as
``repro-manhattan report``.
"""

from __future__ import annotations

import time

from repro.viz.tables import format_markdown_table

__all__ = ["generate_report", "write_report"]

_HEADER = """# EXPERIMENTS — measured reproduction results

Generated by ``repro-manhattan report`` (seed {seed}, scale ``{scale}``).
Each section regenerates one artifact of *Fast Flooding over Manhattan*
(Clementi-Monti-Silvestri, PODC 2010) and records the measured values next
to the paper's prediction.  The PASS/FAIL verdict is the experiment's
*shape check*: the qualitative claim (who wins, slopes, crossovers), not
the paper's explicitly un-optimized constants — see DESIGN.md.

| experiment | paper artifact | shape check |
|---|---|---|
{index_rows}
"""


def generate_report(
    scale: str = "quick", seed: int = 0, experiment_ids=None, engine: str | None = None, jobs: int = 1
) -> str:
    """Run experiments and render the full markdown report.

    The experiments run through :func:`~repro.experiments.registry.run_all`,
    which hands ``engine`` / ``jobs`` to the experiments that take them.
    """
    # Imported lazily: the experiment framework itself renders tables via
    # repro.viz, so a module-level import here would be circular.
    from repro.experiments.registry import get_spec, run_all

    results = []
    start = time.perf_counter()
    for result in run_all(
        scale=scale, seed=seed, engine=engine, jobs=jobs, experiment_ids=experiment_ids
    ):
        results.append((result, time.perf_counter() - start))
        start = time.perf_counter()

    index_rows = "\n".join(
        f"| `{r.experiment_id}` | {r.paper_ref} | "
        f"{'PASS' if r.passed is True else 'FAIL' if r.passed is False else '—'} |"
        for r, _elapsed in results
    )
    parts = [_HEADER.format(seed=seed, scale=scale, index_rows=index_rows)]
    for result, elapsed in results:
        spec = get_spec(result.experiment_id)
        parts.append(f"\n## `{result.experiment_id}` — {result.title}\n")
        parts.append(f"*Paper artifact:* {result.paper_ref}.  {spec.description}\n")
        if result.rows:
            parts.append(format_markdown_table(result.headers, result.rows) + "\n")
        for name, artifact in result.artifacts.items():
            parts.append(f"**{name}:**\n\n```\n{artifact}\n```\n")
        if result.notes:
            parts.append("Notes: " + " ".join(result.notes) + "\n")
        verdict = "PASS" if result.passed is True else "FAIL" if result.passed is False else "—"
        parts.append(f"*Shape check:* **{verdict}** (ran in {elapsed:.1f}s).\n")
    return "\n".join(parts)


def write_report(
    path: str,
    scale: str = "quick",
    seed: int = 0,
    experiment_ids=None,
    engine: str | None = None,
    jobs: int = 1,
) -> str:
    """Generate the report and write it to ``path``; returns the path."""
    report = generate_report(
        scale=scale, seed=seed, experiment_ids=experiment_ids, engine=engine, jobs=jobs
    )
    with open(path, "w") as handle:
        handle.write(report)
    return path
