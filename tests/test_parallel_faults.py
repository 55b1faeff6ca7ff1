"""Crash-surviving worker pools: the PR 7 fault matrix for parallel.py.

A worker process that dies (``os._exit`` — indistinguishable from an OOM
kill or segfault from the parent's side) used to break the whole round via
:class:`~concurrent.futures.process.BrokenProcessPool`.  These tests
SIGKILL-inject through fork-inherited job payloads and assert the new
contract: completed jobs keep their results, crashed jobs are retried solo
on the deterministic backoff schedule, transient crashers recover
bit-exactly, and persistent crashers are quarantined as poison jobs with
an actionable error naming the job — then the same quarantine end to end
through the sweep scheduler (sticky markers, persisted innocents), plus
the sweep engine dispatch regression (each variant must run through *its
own* resolved engine, not the base config's).
"""

import json
import os

import numpy as np
import pytest

import repro.simulation.sweep as sweep_mod
from repro.simulation.config import standard_config
from repro.simulation.parallel import (
    DEFAULT_MAX_RETRIES,
    PoisonJobError,
    WorkerPool,
    backoff_delays,
)
from repro.simulation.sweep import SweepPlan, SweepPoint, StoppingRule, run_sweep
from repro.simulation.sweep import _run_sweep_job as _REAL_RUN_SWEEP_JOB

BASE = standard_config(140, radius_factor=1.1, max_steps=600, seed=5)


def small_plan():
    plan = SweepPlan()
    plan.add(BASE, 3, key="base")
    plan.add(BASE.with_options(radius=BASE.radius * 1.5), 2, key="wide")
    plan.add(BASE.with_options(seed=11), 4, key="reseeded")
    return plan


def fingerprint(results):
    return [
        (
            r.flooding_time,
            r.completed,
            r.stalled,
            r.n_steps,
            r.source,
            tuple(np.asarray(r.informed_history).tolist()),
        )
        for r in results
    ]


def table(points):
    return [
        (p.key, p.n_trials, p.engine, fingerprint(p.results), p.summary)
        for p in points
    ]


# ----------------------------------------------------------------------
# Crash-injection runners (top-level: picklable by the process pool; the
# pool forks, so the attempt ledger directory rides in the job payload)
# ----------------------------------------------------------------------
def _record_attempt(crash_dir: str, tag) -> int:
    """Cross-process attempt counter: O_EXCL-numbered marker files."""
    for k in range(10_000):
        try:
            fd = os.open(
                os.path.join(crash_dir, f"attempt_{tag}_{k}"),
                os.O_CREAT | os.O_EXCL | os.O_WRONLY,
            )
        except FileExistsError:
            continue
        os.close(fd)
        return k + 1
    raise RuntimeError("attempt ledger overflow")


def _flaky_job(job):
    """Doubles the value; dies abruptly for the first ``crashes`` attempts."""
    value, crash_dir, crashes = job
    if crash_dir is not None and _record_attempt(crash_dir, value) <= crashes:
        os._exit(1)  # abrupt worker death: the pool sees BrokenProcessPool
    return value * 2


def _raising_job(job):
    value = job[0]
    if value == 13:
        raise ValueError("deterministic failure, not an infrastructure fault")
    return value * 2


def _sleepy_job(job):
    value, hang = job
    if hang:
        import time

        time.sleep(300)
    return value * 2


def _poisoned_run_sweep_job(args):
    """Fork-inherited stand-in for sweep._run_sweep_job: seed 11 is lethal."""
    config = args[0]
    if config.seed == 11:
        os._exit(1)
    return _REAL_RUN_SWEEP_JOB(args)


class TestBackoffSchedule:
    """The retry schedule is a pure function of the attempt index."""

    def test_capped_exponential(self):
        assert backoff_delays(5, base=0.05, cap=1.0) == [0.05, 0.1, 0.2, 0.4, 0.8]
        assert backoff_delays(7, base=0.5, cap=2.0) == [0.5, 1.0, 2.0, 2.0, 2.0, 2.0, 2.0]

    def test_zero_retries_is_empty(self):
        assert backoff_delays(0) == []

    def test_deterministic(self):
        assert backoff_delays(4) == backoff_delays(4)

    def test_validation(self):
        with pytest.raises(ValueError, match="non-negative"):
            backoff_delays(-1)
        with pytest.raises(ValueError, match="positive"):
            backoff_delays(3, base=0.0)
        with pytest.raises(ValueError, match="positive"):
            backoff_delays(3, cap=-1.0)

    def test_pool_validation(self):
        with pytest.raises(ValueError, match="max_retries"):
            WorkerPool(2, max_retries=-1)
        with pytest.raises(ValueError, match="job_timeout"):
            WorkerPool(2, job_timeout=0.0)


class TestCrashRecovery:
    """One dead worker loses only its job; transient crashers recover."""

    def test_transient_crash_retried_to_success(self, tmp_path):
        crash_dir = str(tmp_path)
        # Job 2 dies twice (once in the parallel round, once solo), then
        # succeeds on the second solo attempt.
        jobs = [(0, None, 0), (1, None, 0), (2, crash_dir, 2), (3, None, 0)]
        slept = []
        with WorkerPool(2, max_retries=3, sleep=slept.append) as pool:
            results = pool.map(_flaky_job, jobs)
        assert results == [0, 2, 4, 6]  # in job order, fault history invisible
        # Exactly one solo retry was backed off: the deterministic schedule.
        assert slept == backoff_delays(3)[:1]

    def test_innocent_bystanders_never_consume_retries(self, tmp_path):
        crash_dir = str(tmp_path)
        jobs = [(v, None, 0) for v in range(6)] + [(9, crash_dir, 1)]
        slept = []
        with WorkerPool(2, max_retries=0, sleep=slept.append) as pool:
            results = pool.map(_flaky_job, jobs)
        # max_retries=0 still allows the first solo re-run: the parallel
        # round's crash names no job, so every unfinished job (the crasher,
        # which succeeds on attempt 2, and any innocents the break caught
        # mid-flight) gets one clean solo pass.
        assert results == [0, 2, 4, 6, 8, 10, 18]
        assert slept == []

    def test_serial_path_untouched_by_fault_machinery(self, tmp_path):
        # max_workers=1 runs in-process: no pool, no retries, a crash would
        # be the caller crashing (here: no crash, plain results).
        with WorkerPool(1) as pool:
            assert pool.map(_flaky_job, [(2, None, 0), (5, None, 0)]) == [4, 10]

    def test_ordinary_exceptions_propagate_unretried(self, tmp_path):
        jobs = [(v,) for v in (1, 13, 7)]
        with WorkerPool(2) as pool:
            with pytest.raises(ValueError, match="deterministic failure"):
                pool.map(_raising_job, jobs)


class TestPoisonQuarantine:
    """Persistent crashers are quarantined loudly; survivors keep results."""

    def test_poison_job_quarantined_with_label_and_completed(self, tmp_path):
        crash_dir = str(tmp_path)
        jobs = [(0, None, 0), (1, crash_dir, 99), (2, None, 0)]
        labels = ["point a", "point b (the poisonous one)", "point c"]
        slept = []
        with WorkerPool(2, max_retries=1, sleep=slept.append) as pool:
            with pytest.raises(PoisonJobError) as excinfo:
                pool.map(_flaky_job, jobs, labels=labels)
        error = excinfo.value
        assert "point b (the poisonous one)" in str(error)
        assert "fresh worker pools" in str(error)
        # Every innocent finished and its result is salvageable.
        assert error.completed[0] == 0
        assert error.completed[2] == 4
        assert 1 not in error.completed
        # (index, label, attempts): max_retries + 1 solo attempts.
        assert error.jobs == [(1, "point b (the poisonous one)", 2)]
        assert slept == backoff_delays(1)  # one backoff before the verdict

    def test_job_timeout_treated_as_crash(self, tmp_path):
        jobs = [(0, False), (1, True), (2, False)]
        with WorkerPool(2, max_retries=0, job_timeout=1.0) as pool:
            with pytest.raises(PoisonJobError) as excinfo:
                pool.map(_sleepy_job, jobs)
        error = excinfo.value
        assert error.completed[0] == 0
        assert error.completed[2] == 4
        assert [index for index, _, _ in error.jobs] == [1]

    def test_run_sweep_threads_retry_knobs(self, monkeypatch, hand_loop):
        pools = []

        class RecordingPool(WorkerPool):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                pools.append((self.max_workers, self.max_retries, self.job_timeout))

        monkeypatch.setattr(sweep_mod, "WorkerPool", RecordingPool)
        config = standard_config(60, radius_factor=1.2, max_steps=50, seed=3)
        (point,) = run_sweep(
            [SweepPoint(config, 3)], jobs=2, max_retries=1, job_timeout=600.0
        )
        assert pools == [(2, 1, 600.0)]
        assert [r.flooding_time for r in point.results] == [
            r.flooding_time for r in hand_loop(config, 3)
        ]


class TestPoisonQuarantineEndToEnd:
    def test_quarantine_names_the_point_and_sticks(self, tmp_path, monkeypatch):
        ck = str(tmp_path / "ck")
        monkeypatch.setattr(sweep_mod, "_run_sweep_job", _poisoned_run_sweep_job)
        with pytest.raises(PoisonJobError) as excinfo:
            run_sweep(
                small_plan(), engine="scalar", jobs=2, checkpoint=ck, max_retries=1
            )
        message = str(excinfo.value)
        # The error names the sweep point, trial range, seed, and marker.
        assert "'reseeded'" in message
        assert "seed 11" in message
        assert "trials 0" in message
        assert "quarantine marker" in message
        assert "delete the marker" in message

        # The marker is on disk and the innocents' trials were persisted.
        markers = [n for n in os.listdir(ck) if n.startswith("poison_")]
        assert len(markers) == 1
        marker = json.load(open(os.path.join(ck, markers[0])))
        assert marker["kind"] == "repro-sweep-poison"
        assert marker["seed"] == 11
        assert "'reseeded'" in " ".join(marker["keys"])
        groups = [n for n in os.listdir(ck) if n.startswith("group_")]
        assert groups, "completed groups must be persisted before the raise"

        # Sticky: a resume fails fast on the marker even with a fixed job.
        monkeypatch.setattr(sweep_mod, "_run_sweep_job", _REAL_RUN_SWEEP_JOB)
        with pytest.raises(PoisonJobError, match="previous \n?run|previous"):
            run_sweep(
                small_plan(), engine="scalar", jobs=2, checkpoint=ck, resume=True
            )

        # Deleting the marker (the error's instruction) unblocks the retry,
        # and the final table is the uninterrupted-solo truth.
        os.unlink(os.path.join(ck, markers[0]))
        recovered = run_sweep(
            small_plan(), engine="scalar", jobs=2, checkpoint=ck, resume=True
        )
        assert table(recovered) == table(run_sweep(small_plan(), engine="scalar"))

    def test_no_checkpoint_still_raises_with_labels(self, monkeypatch):
        monkeypatch.setattr(sweep_mod, "_run_sweep_job", _poisoned_run_sweep_job)
        rule = StoppingRule(ci_width=1e-12, batch=1, min_trials=1)
        with pytest.raises(PoisonJobError) as excinfo:
            run_sweep(small_plan(), engine="scalar", jobs=2, stopping=rule, max_retries=0)
        assert "'reseeded'" in str(excinfo.value)
        assert "seed 11" in str(excinfo.value)


class TestSweepEngineDispatch:
    """Regression: each variant runs through its OWN resolved engine.

    The bug: the parallel sweep branched once on the *base* config's
    ``resolved_engine``, so a sweep crossing an ``engine="auto"``
    resolution boundary shipped every variant through the base config's
    engine.  Every built-in protocol and mobility model is batch-native,
    so the boundary is recreated the way a protocol registered without a
    batched implementation would: by removing ``gossip`` from
    ``BATCH_PROTOCOL_REGISTRY`` for the test (``jobs=1`` keeps dispatch
    in-process, so both the registry patch and the counting monkeypatches
    are visible to every call).
    """

    @staticmethod
    def _scalar_only_gossip(monkeypatch):
        from repro.protocols import BATCH_PROTOCOL_REGISTRY

        monkeypatch.delitem(BATCH_PROTOCOL_REGISTRY, "gossip")

    @staticmethod
    def _counting(monkeypatch):
        import repro.simulation.batch as batch_mod
        import repro.simulation.runner as runner_mod

        batch_calls, scalar_calls = [], []
        real_batch = batch_mod.run_protocol_batch
        real_scalar = runner_mod.run_flooding

        def counting_batch(config, seqs, **kwargs):
            batch_calls.append(config.protocol)
            return real_batch(config, seqs, **kwargs)

        def counting_scalar(config, **kwargs):
            scalar_calls.append(config.protocol)
            return real_scalar(config, **kwargs)

        monkeypatch.setattr(batch_mod, "run_protocol_batch", counting_batch)
        monkeypatch.setattr(runner_mod, "run_flooding", counting_scalar)
        return batch_calls, scalar_calls

    @staticmethod
    def _protocol_sweep(base, protocols):
        return run_sweep(
            SweepPlan.over_parameter(base, "protocol", protocols, n_trials=2), jobs=1
        )

    def test_sweep_crossing_auto_boundary(self, monkeypatch, hand_loop):
        self._scalar_only_gossip(monkeypatch)
        batch_calls, scalar_calls = self._counting(monkeypatch)
        base = standard_config(
            60, radius_factor=1.2, max_steps=40, seed=7, engine="auto", protocol="flooding"
        )
        points = self._protocol_sweep(base, ["flooding", "gossip"])
        assert set(batch_calls) == {"flooding"}  # the native-batch variant only
        assert set(scalar_calls) == {"gossip"}  # gossip resolves to scalar
        assert [(p.key, p.engine) for p in points] == [
            ("flooding", "batch"), ("gossip", "scalar"),
        ]
        # And the results are the per-variant hand-looped truth.
        for point in points:
            expected = hand_loop(base.with_options(protocol=point.key), 2)
            assert [r.flooding_time for r in point.results] == [
                r.flooding_time for r in expected
            ]

    def test_scalar_base_sweeping_into_batch_variants(self, monkeypatch):
        self._scalar_only_gossip(monkeypatch)
        batch_calls, scalar_calls = self._counting(monkeypatch)
        base = standard_config(
            60, radius_factor=1.2, max_steps=40, seed=7, engine="auto", protocol="gossip"
        )
        self._protocol_sweep(base, ["gossip", "flooding"])
        assert set(scalar_calls) == {"gossip"}
        assert set(batch_calls) == {"flooding"}  # pre-fix: everything ran scalar
