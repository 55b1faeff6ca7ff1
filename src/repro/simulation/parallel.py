"""Crash-surviving worker pools for the sweep scheduler.

The full-scale sweeps (EXPERIMENTS.md ``--scale full``) run dozens of
independent trials; :func:`repro.simulation.sweep.run_sweep` fans them out
over processes with ``jobs=N`` through the :class:`WorkerPool` defined
here.  Trials stay bit-reproducible: every job carries the seed states of
its trials (``_child_states`` / ``_rebuild_seed_seq``), so results never
depend on how many processes ran them.

**Fault tolerance.**  A single OOM-killed or segfaulted child used to
raise :class:`~concurrent.futures.process.BrokenProcessPool` out of the
dispatcher and abort the whole round, discarding every in-flight result.
:class:`WorkerPool` now submits per-job futures: a pool break (or a
``job_timeout`` overrun) loses only the unfinished jobs.  The pool is
respawned and the survivors are re-run **one at a time** — a broken pool
cannot say which job killed it, so serializing the retries is what makes
the culprit identifiable — with a deterministic capped exponential backoff
schedule (:func:`backoff_delays`; no wall-clock ever enters results).  A
job that keeps killing fresh pools solo is quarantined: the round raises
:class:`PoisonJobError` naming the job and carrying every completed
result, so callers (the sweep scheduler persists them to its checkpoint)
never lose finished work to one poisonous input.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool

import numpy as np

from repro.simulation.config import FloodingConfig

__all__ = [
    "DEFAULT_MAX_RETRIES",
    "PoisonJobError",
    "WorkerPool",
    "backoff_delays",
]

#: Crash retries per job (after the first solo re-run) before quarantine.
DEFAULT_MAX_RETRIES = 3


class PoisonJobError(RuntimeError):
    """A job repeatedly crashed its worker process and was quarantined.

    Raised by :meth:`WorkerPool.map` after the offending job killed a
    fresh single-job pool ``max_retries + 1`` times in a row — the
    signature of a poisonous input (deterministic OOM, segfaulting
    extension call), not of an unlucky scheduling accident.  Every other
    job of the round ran to completion first; the results ride on
    :attr:`completed` so callers can persist them before propagating.

    Attributes:
        jobs: ``(index, label, attempts)`` per quarantined job, in job
            order — ``label`` is the caller's human-readable description
            (the sweep scheduler passes the point keys and trial/seed
            range).
        completed: ``{job_index: result}`` for every job that finished.
    """

    def __init__(self, message: str, jobs: list, completed: dict):
        super().__init__(message)
        self.jobs = list(jobs)
        self.completed = dict(completed)


class _JobCrash(RuntimeError):
    """Internal: one solo job's worker died (pool break or timeout)."""


def backoff_delays(retries: int, base: float = 0.05, cap: float = 1.0) -> list:
    """Deterministic capped exponential backoff schedule, in seconds.

    ``min(base * 2**k, cap)`` for ``k in range(retries)`` — a pure
    function of the attempt index, so the retry schedule never depends on
    wall-clock state and fault-injection tests can assert it exactly.
    """
    if retries < 0:
        raise ValueError(f"retries must be non-negative, got {retries}")
    if base <= 0 or cap <= 0:
        raise ValueError(f"backoff base and cap must be positive, got {base}, {cap}")
    return [min(base * (2.0 ** k), cap) for k in range(retries)]


def _rebuild_seed_seq(state) -> np.random.SeedSequence:
    # SeedSequence doesn't pickle portably across numpy versions; rebuild
    # the child from its entropy/spawn-key state.
    return np.random.SeedSequence(entropy=state["entropy"], spawn_key=state["spawn_key"])


def _child_states(config: FloodingConfig, n_trials: int) -> list:
    root = np.random.SeedSequence(config.seed)
    return [
        {"entropy": child.entropy, "spawn_key": child.spawn_key}
        for child in root.spawn(n_trials)
    ]


def _child_states_range(config: FloodingConfig, start: int, stop: int) -> list:
    """Seed states for trials ``[start, stop)`` of a configuration.

    ``SeedSequence.spawn`` keys children by index, so the state of trial
    ``i`` never depends on how many trials a run asks for — the property
    that makes sequential (adaptive / checkpoint-resumed) execution
    bit-identical to a single uninterrupted pass.
    """
    return _child_states(config, stop)[start:]


class WorkerPool:
    """Reusable, crash-surviving job dispatcher.

    Keeps one :class:`~concurrent.futures.ProcessPoolExecutor` alive
    across rounds (created lazily on the first round with two or more
    jobs) and submits **per-job futures**, so one dead worker no longer
    poisons the whole round:

    * a :class:`~concurrent.futures.process.BrokenProcessPool` — an
      OOM-killed, segfaulted, or SIGKILLed child — costs only the jobs
      that had not finished; completed futures keep their results;
    * the pool is respawned and unfinished jobs are retried solo (one in
      flight at a time, which is what lets a crash name its job) on the
      deterministic backoff schedule of :func:`backoff_delays`;
    * a job that crashes ``max_retries + 1`` fresh pools in a row is
      quarantined via :class:`PoisonJobError`, which carries every
      completed result of the round;
    * with ``job_timeout`` set, a job overrunning it is treated exactly
      like a crash (the stuck workers are killed, the pool respawned).

    Single-job or single-worker rounds run in-process with none of the
    above — a crash there *is* the caller crashing.  Results always come
    back in job order; retries never change results because jobs are pure
    functions of their (config, seed-state) payload.

    Args:
        max_workers: worker processes; ``1`` never forks, ``None`` lets
            the executor pick.
        max_retries: solo crash retries per job before quarantine.
        job_timeout: optional per-job wall-clock ceiling in seconds;
            overruns are handled like worker crashes.
        backoff_base / backoff_cap: the :func:`backoff_delays` schedule.
        sleep: injection point for the backoff sleeper (tests).
    """

    def __init__(
        self,
        max_workers: int | None = 1,
        max_retries: int = DEFAULT_MAX_RETRIES,
        job_timeout: float | None = None,
        backoff_base: float = 0.05,
        backoff_cap: float = 1.0,
        sleep=time.sleep,
    ):
        if max_retries < 0:
            raise ValueError(f"max_retries must be non-negative, got {max_retries}")
        if job_timeout is not None and job_timeout <= 0:
            raise ValueError(f"job_timeout must be positive, got {job_timeout}")
        self.max_workers = max_workers
        self.max_retries = max_retries
        self.job_timeout = job_timeout
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self._sleep = sleep
        self._pool = None

    # -- pool lifecycle ------------------------------------------------
    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.max_workers)
        return self._pool

    def _discard_pool(self) -> None:
        """Hard-stop a broken or overrun pool: kill workers, drop it."""
        pool, self._pool = self._pool, None
        if pool is None:
            return
        # A worker stuck past job_timeout never exits on its own; kill()
        # is what turns "hung" into "respawnable".  _processes is executor
        # internals, but there is no public hard-stop.
        processes = getattr(pool, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.kill()
            except Exception:
                pass
        pool.shutdown(wait=False, cancel_futures=True)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    # -- dispatch ------------------------------------------------------
    def map(self, runner, jobs: list, labels: list | None = None) -> list:
        """Run one round of jobs; results in job order.

        Args:
            runner: picklable top-level callable applied to each job.
            labels: optional human-readable job descriptions, used in
                :class:`PoisonJobError` messages (default ``"job i"``).

        Raises:
            PoisonJobError: a job repeatedly killed its workers; every
                other job's result is on the error's ``completed``.
        """
        jobs = list(jobs)
        if labels is None:
            labels = [f"job {index}" for index in range(len(jobs))]
        if len(jobs) <= 1 or self.max_workers == 1:
            return [runner(job) for job in jobs]
        results = {}
        crashed = self._map_parallel(runner, jobs, results)
        if crashed:
            poisoned = self._retry_serially(runner, jobs, labels, results)
            if poisoned:
                lines = ", ".join(
                    f"{label} (killed {attempts} fresh worker pools)"
                    for _, label, attempts in poisoned
                )
                raise PoisonJobError(
                    f"poison job quarantined after repeated worker crashes: {lines}; "
                    "every other job of this round completed (results on "
                    "error.completed) — fix or exclude the offending configuration "
                    "and re-run",
                    poisoned,
                    results,
                )
        return [results[index] for index in range(len(jobs))]

    def _map_parallel(self, runner, jobs: list, results: dict) -> bool:
        """Fast path: all jobs in flight at once.

        Fills ``results`` with whatever finishes; returns ``True`` when
        the pool broke or a job overran ``job_timeout`` (the unfinished
        jobs are the caller's to retry), ``False`` on a clean round.
        """
        try:
            pool = self._ensure_pool()
            futures = {
                pool.submit(runner, jobs[index]): index
                for index in range(len(jobs))
                if index not in results
            }
        except BrokenProcessPool:
            self._discard_pool()
            return True
        deadlines = None
        if self.job_timeout is not None:
            deadlines = {future: time.monotonic() + self.job_timeout for future in futures}
        not_done = set(futures)
        while not_done:
            timeout = None
            if deadlines is not None:
                timeout = max(
                    0.0, min(deadlines[f] for f in not_done) - time.monotonic()
                )
            done, not_done = wait(not_done, timeout=timeout, return_when=FIRST_COMPLETED)
            for future in done:
                try:
                    results[futures[future]] = future.result()
                except BrokenProcessPool:
                    self._discard_pool()
                    return True
                # Ordinary exceptions are deterministic job failures, not
                # infrastructure faults: they propagate to the caller
                # exactly as before, never retried.
            if deadlines is not None and not_done:
                now = time.monotonic()
                if any(now >= deadlines[future] for future in not_done):
                    self._discard_pool()
                    return True
        return False

    def _retry_serially(self, runner, jobs: list, labels: list, results: dict) -> list:
        """Careful path after a break: one job in flight per fresh pool.

        A broken pool cannot attribute the kill, so each unfinished job
        re-runs solo — a crash now names its job definitively, and
        innocent bystanders of the original break complete on their first
        solo pass without consuming retries.
        """
        delays = backoff_delays(self.max_retries, self.backoff_base, self.backoff_cap)
        poisoned = []
        for index in range(len(jobs)):
            if index in results:
                continue
            attempts = 0
            while True:
                attempts += 1
                try:
                    results[index] = self._run_single(runner, jobs[index])
                    break
                except _JobCrash:
                    self._discard_pool()
                    if attempts > self.max_retries:
                        poisoned.append((index, labels[index], attempts))
                        break
                    self._sleep(delays[attempts - 1])
        return poisoned

    def _run_single(self, runner, job):
        future = self._ensure_pool().submit(runner, job)
        try:
            return future.result(timeout=self.job_timeout)
        except BrokenProcessPool as error:
            raise _JobCrash("worker process died") from error
        except FuturesTimeoutError as error:
            raise _JobCrash(
                f"job exceeded its {self.job_timeout}s timeout"
            ) from error
