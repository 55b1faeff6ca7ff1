"""Lease-based cooperative sweeps: the PR 7 distributed fault matrix.

Unit tests drive the lease protocol itself (exclusive-link acquisition,
heartbeats, TTL staleness with an injected clock, rename-tombstone
reclamation, corrupt-lease recovery), then the integration legs: N
cooperating ``run_sweep`` invocations draining one checkpoint to tables
**byte-identical** to a solo run — including a worker SIGKILLed mid-run
whose leases a survivor reclaims after the TTL — and the poison-job
quarantine surfacing point keys, trial ranges, seeds, and a sticky marker
that blocks silent retries until deleted.
"""

import json
import os
import signal
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import repro.simulation.sweep as sweep_mod
from repro.simulation.config import standard_config
from repro.simulation.lease import (
    DEFAULT_LEASE_TTL,
    LeaseError,
    LeaseManager,
    worker_identity,
)
from repro.simulation.parallel import PoisonJobError
from repro.simulation.sweep import SweepPlan, StoppingRule, run_sweep

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


def lease_files(directory):
    return sorted(name for name in os.listdir(directory) if name.endswith(".lease"))


# ----------------------------------------------------------------------
# The lease protocol
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self, now=1000.0):
        self.now = now

    def __call__(self):
        return self.now


class TestLeaseProtocol:
    def test_acquire_is_exclusive(self, tmp_path):
        a = LeaseManager(str(tmp_path), ttl=30.0, owner="worker-a")
        b = LeaseManager(str(tmp_path), ttl=30.0, owner="worker-b")
        assert a.acquire(0)
        assert a.acquire(0)  # idempotent for the owner
        assert not b.acquire(0)  # live foreign lease: refused
        assert a.owns(0) and not b.owns(0)
        assert a.read(0)["owner"] == "worker-a"

    def test_release_hands_the_group_over(self, tmp_path):
        a = LeaseManager(str(tmp_path), ttl=30.0, owner="worker-a")
        b = LeaseManager(str(tmp_path), ttl=30.0, owner="worker-b")
        assert a.acquire(3)
        a.release(3)
        assert not a.owns(3)
        assert a.read(3) is None  # the lease file is gone
        assert b.acquire(3)

    def test_heartbeat_refreshes_timestamp(self, tmp_path):
        clock = FakeClock()
        a = LeaseManager(str(tmp_path), ttl=30.0, owner="worker-a", clock=clock)
        assert a.acquire(0)
        first = a.read(0)["heartbeat"]
        clock.now += 10.0
        a.heartbeat(0)
        assert a.read(0)["heartbeat"] == pytest.approx(first + 10.0)

    def test_stale_lease_reclaimed_after_ttl(self, tmp_path):
        clock_a = FakeClock(1000.0)
        clock_b = FakeClock(1000.0)
        a = LeaseManager(str(tmp_path), ttl=5.0, owner="worker-a", clock=clock_a)
        b = LeaseManager(str(tmp_path), ttl=5.0, owner="worker-b", clock=clock_b)
        assert a.acquire(0)
        clock_b.now = 1004.0
        assert not b.acquire(0)  # within the TTL: still the owner's
        clock_b.now = 1006.0
        assert b.acquire(0)  # past the TTL: reclaimed
        assert b.read(0)["owner"] == "worker-b"

    def test_loser_detects_the_takeover_on_heartbeat(self, tmp_path):
        clock = FakeClock(1000.0)
        a = LeaseManager(str(tmp_path), ttl=5.0, owner="worker-a", clock=clock)
        b = LeaseManager(str(tmp_path), ttl=5.0, owner="worker-b", clock=clock)
        assert a.acquire(0)
        clock.now = 1010.0
        assert b.acquire(0)
        with pytest.raises(LeaseError, match="reclaimed"):
            a.heartbeat(0)
        assert not a.owns(0)  # ownership dropped so release_all is a no-op
        a.release(0)
        assert b.read(0)["owner"] == "worker-b"  # the thief's lease survived

    def test_staleness_uses_the_victims_recorded_ttl(self, tmp_path):
        clock = FakeClock(1000.0)
        a = LeaseManager(str(tmp_path), ttl=2.0, owner="worker-a", clock=clock)
        b = LeaseManager(str(tmp_path), ttl=600.0, owner="worker-b", clock=clock)
        assert a.acquire(0)
        clock.now = 1003.0  # past a's 2s TTL, far within b's 600s
        assert b.acquire(0)

    def test_corrupt_lease_is_reclaimable_not_trusted(self, tmp_path):
        a = LeaseManager(str(tmp_path), ttl=30.0, owner="worker-a")
        with open(a.path(0), "w") as handle:
            handle.write("{torn mid-wri")
        payload = a.read(0)
        assert payload["owner"] == "<unreadable>"
        assert a.is_stale(payload)
        assert a.acquire(0)
        assert a.read(0)["owner"] == "worker-a"

    def test_heartbeat_without_ownership_raises(self, tmp_path):
        a = LeaseManager(str(tmp_path), ttl=30.0, owner="worker-a")
        with pytest.raises(LeaseError, match="does \nnot hold|not hold"):
            a.heartbeat(7)

    def test_context_manager_releases_everything(self, tmp_path):
        with LeaseManager(str(tmp_path), ttl=30.0, owner="worker-a") as a:
            assert a.acquire(0)
            assert a.acquire(1)
            assert a.owned == [0, 1]
        assert lease_files(str(tmp_path)) == []

    def test_worker_identity_is_unique_per_call(self):
        assert worker_identity() != worker_identity()
        assert str(os.getpid()) in worker_identity()

    def test_ttl_validation(self, tmp_path):
        with pytest.raises(ValueError, match="positive"):
            LeaseManager(str(tmp_path), ttl=0.0)


# ----------------------------------------------------------------------
# Cooperative execution: bit-exact multi-worker drains
# ----------------------------------------------------------------------
class TestCooperativeSweeps:
    def test_single_cooperative_worker_matches_solo(self, tmp_path):
        expected = run_sweep(small_plan())
        ck = str(tmp_path / "ck")
        got = run_sweep(small_plan(), checkpoint=ck, lease_ttl=30.0)
        assert table(got) == table(expected)
        assert lease_files(ck) == []  # everything released on the way out

    def test_late_joiner_loads_everything_from_the_store(self, tmp_path):
        ck = str(tmp_path / "ck")
        first = run_sweep(small_plan(), checkpoint=ck, lease_ttl=30.0)
        joiner = run_sweep(small_plan(), checkpoint=ck, lease_ttl=30.0)
        assert table(joiner) == table(first)

    @pytest.mark.parametrize("engine", ["scalar", "batch"])
    def test_two_concurrent_jobs2_workers_bit_exact(self, tmp_path, engine):
        """The satellite scenario: two jobs=2 workers on one checkpoint."""
        expected = run_sweep(small_plan(), engine=engine, jobs=2)
        ck = str(tmp_path / "ck")
        got = run_sweep(
            small_plan(), engine=engine, jobs=2, checkpoint=ck, workers=2
        )
        assert table(got) == table(expected)
        assert lease_files(ck) == []

    def test_adaptive_cooperative_matches_solo_stop_points(self, tmp_path):
        rule = StoppingRule(ci_width=1e-12, batch=1, min_trials=1)
        expected = run_sweep(small_plan(), stopping=rule)
        ck = str(tmp_path / "ck")
        got = run_sweep(small_plan(), stopping=rule, checkpoint=ck, workers=2)
        assert table(got) == table(expected)

    def test_validation_matrix(self, tmp_path):
        with pytest.raises(ValueError, match="requires a shared\n?.*checkpoint|checkpoint"):
            run_sweep(small_plan(), workers=2)
        with pytest.raises(ValueError, match="checkpoint"):
            run_sweep(small_plan(), lease_ttl=10.0)
        with pytest.raises(ValueError, match="worker_id"):
            run_sweep(small_plan(), worker_id="me")
        with pytest.raises(ValueError, match="trial_budget"):
            run_sweep(
                small_plan(), checkpoint=str(tmp_path / "a"), workers=2, trial_budget=5
            )
        with pytest.raises(ValueError, match="workers must be"):
            run_sweep(small_plan(), workers=0)

    def test_observer_points_refuse_cooperative_mode(self, tmp_path):
        from repro.simulation.metrics import InformedRecorder

        plan = SweepPlan()
        plan.add(
            BASE, 2, key="obs", observer_factory=lambda config: [InformedRecorder()]
        )
        with pytest.raises(ValueError, match="observer"):
            run_sweep(plan, checkpoint=str(tmp_path / "ck"), lease_ttl=10.0)


# ----------------------------------------------------------------------
# SIGKILL a leased worker: the survivor reclaims and finishes bit-exactly
# ----------------------------------------------------------------------
_KILLED_WORKER_SCRIPT = textwrap.dedent(
    """
    import os, signal, sys
    sys.path.insert(0, {src!r})
    from repro.simulation.checkpoint import SweepCheckpoint
    from repro.simulation.config import standard_config
    from repro.simulation.sweep import SweepPlan, StoppingRule, run_sweep

    BASE = standard_config(140, radius_factor=1.1, max_steps=600, seed=5)
    plan = SweepPlan()
    plan.add(BASE, 3, key="base")
    plan.add(BASE.with_options(radius=BASE.radius * 1.5), 2, key="wide")
    plan.add(BASE.with_options(seed=11), 4, key="reseeded")

    # SIGKILL after the first checkpoint flush: the worker dies holding a
    # live lease on an UNFINISHED group (batch=1 rounds leave the group
    # mid-flight), which is exactly what the survivor must reclaim.
    original = SweepCheckpoint.write_group
    def killing(self, index, fp, results):
        original(self, index, fp, results)
        os.kill(os.getpid(), signal.SIGKILL)
    SweepCheckpoint.write_group = killing

    rule = StoppingRule(ci_width=1e-12, batch=1, min_trials=1)
    run_sweep(plan, stopping=rule, checkpoint={ck!r}, lease_ttl=1.0)
    """
)


class TestSigkilledWorkerReclaim:
    def test_survivor_reclaims_stale_lease_and_matches_solo(self, tmp_path):
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        ck = str(tmp_path / "ck")
        script = _KILLED_WORKER_SCRIPT.format(src=os.path.abspath(src), ck=ck)
        errpath = tmp_path / "stderr.txt"
        with open(errpath, "wb") as err:
            proc = subprocess.Popen(
                [sys.executable, "-c", script],
                stdout=subprocess.DEVNULL,
                stderr=err,
                start_new_session=True,
            )
            try:
                returncode = proc.wait(timeout=120)
            finally:
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        assert returncode == -signal.SIGKILL, errpath.read_text()
        # The dead worker left a held lease on a partially-run group...
        held = lease_files(ck)
        assert held, "the SIGKILLed worker should have died holding a lease"
        victim = json.load(open(os.path.join(ck, held[0])))
        assert victim["ttl"] == 1.0

        # ...which the survivor reclaims after the TTL and finishes.
        rule = StoppingRule(ci_width=1e-12, batch=1, min_trials=1)
        survived = run_sweep(
            small_plan(), stopping=rule, checkpoint=ck, lease_ttl=1.0
        )
        expected = run_sweep(small_plan(), stopping=rule)
        assert table(survived) == table(expected)
        assert lease_files(ck) == []


# ----------------------------------------------------------------------
# Poison-job quarantine through the sweep scheduler
# ----------------------------------------------------------------------
def _poisoned_run_sweep_job(args):
    """Fork-inherited stand-in for sweep._run_sweep_job: seed 11 is lethal."""
    config = args[0]
    if config.seed == 11:
        os._exit(1)
    return _REAL_RUN_SWEEP_JOB(args)


from repro.simulation.sweep import _run_sweep_job as _REAL_RUN_SWEEP_JOB  # noqa: E402


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
