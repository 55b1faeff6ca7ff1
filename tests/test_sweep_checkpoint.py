"""Checkpoint/resume: fault injection, bit-exact resume, loud failure modes.

The PR 6 acceptance gate: a sweep killed mid-flight — a raising observer,
a crashing parent, a SIGKILL'd pool worker — must resume from its
checkpoint to **byte-identical** results vs an uninterrupted run, across
engines and ``jobs`` values.  The second half of the file attacks the
checkpoint files themselves: every field round-trips, and corruption,
truncation, schema bumps, and config edits are refused loudly instead of
silently resuming wrong state.
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
from repro.simulation.checkpoint import (
    CHECKPOINT_SCHEMA_VERSION,
    CheckpointError,
    SweepCheckpoint,
    config_fingerprint,
    decode_result,
    encode_result,
)
from repro.simulation.config import FloodingConfig, standard_config
from repro.simulation.results import FloodingResult
from repro.simulation.runner import run_trials
from repro.simulation.sweep import SweepPlan, SweepPoint, StoppingRule, run_sweep

BASE = standard_config(140, radius_factor=1.1, max_steps=600, seed=5)


def fingerprint(results):
    """The full observable outcome of a trial list."""
    return [
        (
            r.flooding_time,
            r.completed,
            r.stalled,
            r.n_steps,
            r.source,
            tuple(np.asarray(r.informed_history).tolist()),
            r.cz_completion_time,
            r.suburb_completion_time,
            r.source_in_central_zone,
        )
        for r in results
    ]


def small_plan():
    plan = SweepPlan()
    plan.add(BASE, 3, key="base")
    plan.add(BASE.with_options(radius=BASE.radius * 1.5), 2, key="wide")
    plan.add(BASE.with_options(seed=11), 4, key="reseeded")
    return plan


def table(points):
    """What an experiment would render: per-point fingerprints + summaries."""
    return [
        (p.key, p.n_trials, p.engine, fingerprint(p.results), p.summary)
        for p in points
    ]


class _WriteBomb(RuntimeError):
    """Injected mid-sweep failure (distinguishable from real errors)."""


def _arm_write_bomb(monkeypatch, detonate_after: int):
    """Make checkpoint writes raise after K successful group flushes.

    Patching the store's ``write_group`` injects the fault in the *parent*
    scheduler loop — after results were computed and some were persisted —
    which makes the crash point deterministic regardless of engine or
    ``jobs`` fan-out (pool workers never see the patch, and don't need to).
    """
    writes = {"n": 0}
    original = SweepCheckpoint.write_group

    def bombed(self, index, fp, results):
        if writes["n"] >= detonate_after:
            raise _WriteBomb(f"injected failure after {detonate_after} writes")
        writes["n"] += 1
        return original(self, index, fp, results)

    monkeypatch.setattr(SweepCheckpoint, "write_group", bombed)
    return writes


class TestKillAndResume:
    """Crash the sweep mid-flight; resume must be byte-identical."""

    @pytest.mark.parametrize("engine", ["scalar", "batch", "auto"])
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_crash_after_first_flush_resumes_bit_exact(
        self, tmp_path, monkeypatch, engine, jobs
    ):
        # Small batches so several checkpoint flushes happen per run, and
        # the bomb goes off with genuinely partial state on disk.  The
        # invariant: interrupted + resumed == the same run uninterrupted.
        rule = StoppingRule(ci_width=1e-12, batch=1, min_trials=1)
        expected = table(run_sweep(small_plan(), engine=engine, jobs=jobs, stopping=rule))
        ck = str(tmp_path / "ck")

        _arm_write_bomb(monkeypatch, detonate_after=2)
        with pytest.raises(_WriteBomb):
            run_sweep(
                small_plan(), engine=engine, jobs=jobs, stopping=rule, checkpoint=ck
            )
        monkeypatch.undo()

        resumed = run_sweep(
            small_plan(), engine=engine, jobs=jobs, stopping=rule,
            checkpoint=ck, resume=True,
        )
        assert table(resumed) == expected, (engine, jobs)

    def test_fixed_budget_checkpoint_matches_fast_path(self, tmp_path, monkeypatch):
        """No stopping rule at all: the checkpointed sequential run (and a
        crash + resume of it) reproduces the single-pass tables exactly."""
        expected = table(run_sweep(small_plan()))
        ck = str(tmp_path / "ck")
        _arm_write_bomb(monkeypatch, detonate_after=2)
        with pytest.raises(_WriteBomb):
            run_sweep(small_plan(), checkpoint=ck)
        monkeypatch.undo()
        resumed = run_sweep(small_plan(), checkpoint=ck, resume=True)
        assert table(resumed) == expected

    @pytest.mark.parametrize("detonate_after", [0, 1, 3])
    def test_every_crash_point_resumes_bit_exact(
        self, tmp_path, monkeypatch, detonate_after
    ):
        rule = StoppingRule(ci_width=1e-12, batch=1, min_trials=1)
        expected = table(run_sweep(small_plan(), stopping=rule))
        ck = str(tmp_path / "ck")
        _arm_write_bomb(monkeypatch, detonate_after=detonate_after)
        with pytest.raises(_WriteBomb):
            run_sweep(small_plan(), stopping=rule, checkpoint=ck)
        monkeypatch.undo()
        resumed = run_sweep(small_plan(), stopping=rule, checkpoint=ck, resume=True)
        assert table(resumed) == expected, detonate_after

    def test_double_resume_is_idempotent(self, tmp_path, monkeypatch):
        ck = str(tmp_path / "ck")
        rule = StoppingRule(ci_width=1e-12, batch=1, min_trials=1)
        _arm_write_bomb(monkeypatch, detonate_after=2)
        with pytest.raises(_WriteBomb):
            run_sweep(small_plan(), stopping=rule, checkpoint=ck)
        monkeypatch.undo()
        first = run_sweep(small_plan(), stopping=rule, checkpoint=ck, resume=True)
        # Everything is on disk now; a second resume recomputes nothing
        # and reproduces the tables from the files alone.
        second = run_sweep(small_plan(), stopping=rule, checkpoint=ck, resume=True)
        assert table(second) == table(first)

    def test_stale_lease_file_is_ignored_on_resume(self, tmp_path, monkeypatch):
        """A checkpoint that a killed cooperative worker of an older version
        left behind still holds its ``group_NNNN.lease`` file; a resume
        ignores it and finishes to the uninterrupted table."""
        rule = StoppingRule(ci_width=1e-12, batch=1, min_trials=1)
        expected = table(run_sweep(small_plan(), stopping=rule))
        ck = tmp_path / "ck"
        _arm_write_bomb(monkeypatch, detonate_after=2)
        with pytest.raises(_WriteBomb):
            run_sweep(small_plan(), stopping=rule, checkpoint=str(ck))
        monkeypatch.undo()
        lease = {
            "schema_version": 1,
            "kind": "repro-sweep-lease",
            "owner": "host-4242-0000",
            "created": 1000.0,
            "heartbeat": 1000.0,
            "ttl": 5.0,
        }
        (ck / "group_0000.lease").write_text(json.dumps(lease))
        resumed = run_sweep(small_plan(), stopping=rule, checkpoint=str(ck), resume=True)
        assert table(resumed) == expected

    def test_budget_capped_run_resumes_to_completion(self, tmp_path, hand_loop):
        ck = str(tmp_path / "ck")
        plan = SweepPlan()
        plan.add(BASE, 5, key="x", stopping=StoppingRule(ci_width=1e-12, batch=1, min_trials=3))
        partial = run_sweep(plan, checkpoint=ck, trial_budget=4)
        assert partial[0].n_trials == 4  # 3 funded minimum + 1 budgeted batch
        (full,) = run_sweep(plan, checkpoint=ck, resume=True)
        assert full.n_trials == 5
        assert fingerprint(full.results) == fingerprint(hand_loop(BASE, 5))


def _raising_factory(config):
    """Observer factory whose observer dies mid-trial (picklable)."""
    return [_RaisingObserver()]


class _RaisingObserver:
    def observe(self, t, positions, protocol, newly):
        raise _WriteBomb("observer raised mid-trial")


class TestRaisingObserverLeg:
    def test_raising_observer_point_fails_but_checkpoint_survives(self, tmp_path):
        """A crash in a *scalar observer point* must not poison the other
        groups' checkpoints: non-observer groups that flushed before the
        crash resume bit-exactly; the observer point recomputes."""
        ck = str(tmp_path / "ck")
        plan = SweepPlan()
        plan.add(BASE, 2, key="plain")
        plan.add(BASE.with_options(seed=17), 1, key="boom", observer_factory=_raising_factory)
        rule = StoppingRule(ci_width=1e-12, batch=1, min_trials=1)
        with pytest.raises(_WriteBomb):
            run_sweep(plan, stopping=rule, checkpoint=ck)

        good = SweepPlan()
        good.add(BASE, 2, key="plain")
        good.add(BASE.with_options(seed=17), 1, key="ok")
        resumed = run_sweep(good, stopping=rule, checkpoint=ck, resume=True)
        expected = run_sweep(good, stopping=rule)
        assert table(resumed) == table(expected)

    def test_observer_groups_never_hit_the_store(self, tmp_path, monkeypatch):
        """Observer results carry live objects — the store must skip them
        (they recompute on resume) rather than crash on serialization."""
        from repro.simulation.metrics import InformedRecorder

        def recorder_factory(config):
            return [InformedRecorder()]

        ck = str(tmp_path / "ck")
        plan = SweepPlan()
        plan.add(BASE, 2, key="obs", observer_factory=recorder_factory)
        rule = StoppingRule(ci_width=1e-12, batch=1, min_trials=1)
        (point,) = run_sweep(plan, stopping=rule, checkpoint=ck)
        assert len(point.observers()) == 2
        # Only the manifest exists: no group file was written.
        assert os.listdir(ck) == ["manifest.json"]


_KILL_SCRIPT = textwrap.dedent(
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

    # SIGKILL the whole process group (parent + jobs=2 pool workers) after
    # the second checkpoint flush — an uncatchable kill mid-sweep.
    writes = 0
    original = SweepCheckpoint.write_group
    def killing(self, index, fp, results):
        global writes
        original(self, index, fp, results)
        writes += 1
        if writes >= 2:
            os.kill(os.getpid(), signal.SIGKILL)
    SweepCheckpoint.write_group = killing

    rule = StoppingRule(ci_width=1e-12, batch=1, min_trials=1)
    run_sweep(plan, engine={engine!r}, jobs=2, stopping=rule, checkpoint={ck!r})
    """
)


class TestSigkillLeg:
    """A jobs=2 sweep SIGKILLed mid-run: resume from whatever hit disk."""

    @pytest.mark.parametrize("engine", ["scalar", "batch"])
    def test_sigkilled_parallel_sweep_resumes_bit_exact(self, tmp_path, engine):
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        ck = str(tmp_path / "ck")
        script = _KILL_SCRIPT.format(src=os.path.abspath(src), ck=ck, engine=engine)
        # Output goes to files, not pipes: the SIGKILL orphans the pool
        # workers, which would hold a pipe open and deadlock capture.
        errpath = tmp_path / "stderr.txt"
        with open(errpath, "wb") as err:
            proc = subprocess.Popen(
                [sys.executable, "-c", script],
                stdout=subprocess.DEVNULL,
                stderr=err,
                start_new_session=True,  # contain stray pool workers
            )
            try:
                returncode = proc.wait(timeout=120)
            finally:
                try:  # reap the orphaned jobs=2 workers
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        assert returncode == -signal.SIGKILL, errpath.read_text()
        assert os.path.exists(os.path.join(ck, "manifest.json"))
        # At least one group flushed before the kill: the resume genuinely
        # restores state rather than recomputing everything.
        assert any(name.startswith("group_") for name in os.listdir(ck))

        rule = StoppingRule(ci_width=1e-12, batch=1, min_trials=1)
        resumed = run_sweep(
            small_plan(), engine=engine, jobs=2, stopping=rule,
            checkpoint=ck, resume=True,
        )
        expected = run_sweep(small_plan(), engine=engine, jobs=2, stopping=rule)
        assert table(resumed) == table(expected)


class TestFingerprint:
    """Satellite: dedup hashing canonicalizes dict-valued config fields."""

    def test_protocol_options_key_order_is_canonical(self):
        # The fingerprint never builds the protocol, so any two keys
        # exercise the sorted serialization.
        a = BASE.with_options(protocol="gossip", protocol_options={"fanout": 2, "tag": "x"})
        b = BASE.with_options(protocol="gossip", protocol_options={"tag": "x", "fanout": 2})
        assert a == b  # dataclass equality was always order-insensitive
        assert config_fingerprint(a) == config_fingerprint(b)

    def test_mobility_options_key_order_is_canonical(self):
        a = BASE.with_options(
            mobility="mrwp-speed", mobility_options={"v_min": 0.1, "v_max": 0.5}
        )
        b = BASE.with_options(
            mobility="mrwp-speed", mobility_options={"v_max": 0.5, "v_min": 0.1}
        )
        assert config_fingerprint(a) == config_fingerprint(b)

    def test_different_configs_differ(self):
        assert config_fingerprint(BASE) != config_fingerprint(
            BASE.with_options(seed=BASE.seed + 1)
        )
        assert config_fingerprint(BASE) != config_fingerprint(
            BASE.with_options(protocol_options={"multi_hop": True})
        )

    def test_reordered_dict_points_share_trials(self, monkeypatch):
        """The regression: logically identical configs execute once."""
        calls = []
        original = sweep_mod._run_sweep_job

        def counting(args):
            calls.append(args)
            return original(args)

        monkeypatch.setattr(sweep_mod, "_run_sweep_job", counting)
        plan = SweepPlan()
        plan.add(
            BASE.with_options(
                mobility="mrwp-speed", mobility_options={"v_min": 0.2, "v_max": 0.6}
            ),
            3, key="a",
        )
        plan.add(
            BASE.with_options(
                mobility="mrwp-speed", mobility_options={"v_max": 0.6, "v_min": 0.2}
            ),
            2, key="b",
        )
        points = run_sweep(plan, engine="batch")
        assert len(calls) == 1  # one deduplicated batch job serves both
        assert fingerprint(points[1].results) == fingerprint(points[0].results)[:2]


class TestResultCodec:
    """Every FloodingResult field round-trips through the JSON codec."""

    def _roundtrip(self, result, config):
        blob = json.dumps(encode_result(result), allow_nan=True)
        return decode_result(json.loads(blob), config)

    def test_completed_trial_roundtrips(self):
        (original,) = run_trials(BASE, 1)
        restored = self._roundtrip(original, BASE)
        assert fingerprint([restored]) == fingerprint([original])
        assert restored.final_coverage == original.final_coverage
        assert restored.informed_history.dtype == original.informed_history.dtype
        assert restored.extras["config"] is BASE

    def test_infinite_flooding_time_roundtrips(self):
        hopeless = BASE.with_options(max_steps=1)
        (original,) = run_trials(hopeless, 1)
        assert original.flooding_time == float("inf")
        restored = self._roundtrip(original, hopeless)
        assert restored.flooding_time == float("inf")
        assert restored.completed is False

    def test_protocol_extras_roundtrip(self):
        config = BASE.with_options(n=100, protocol="sir", max_steps=200)
        (original,) = run_trials(config, 1)
        restored = self._roundtrip(original, config)
        extras_o = {k: v for k, v in original.extras.items() if k != "config"}
        extras_r = {k: v for k, v in restored.extras.items() if k != "config"}
        assert extras_r == extras_o

    def test_observer_results_are_refused(self):
        from repro.simulation.metrics import InformedRecorder

        (original,) = run_trials(BASE, 1)
        original.extras["observers"] = [InformedRecorder()]
        with pytest.raises(CheckpointError, match="observer"):
            encode_result(original)

    def test_unserializable_extras_fail_loudly(self):
        (original,) = run_trials(BASE, 1)
        original.extras["weird"] = object()
        with pytest.raises(CheckpointError, match="weird"):
            encode_result(original)

    def test_missing_field_fails_loudly(self):
        (original,) = run_trials(BASE, 1)
        data = encode_result(original)
        del data["informed_history"]
        with pytest.raises(CheckpointError, match="informed_history"):
            decode_result(data, BASE)


class TestStoreRobustness:
    """Corrupt / truncated / mismatched checkpoints are refused loudly."""

    def _populated(self, tmp_path):
        ck = str(tmp_path / "ck")
        run_sweep(small_plan(), checkpoint=ck)
        return ck

    def test_resume_without_checkpoint_dir_raises(self, tmp_path):
        with pytest.raises(ValueError, match="resume"):
            run_sweep(small_plan(), resume=True)

    def test_resume_from_empty_dir_raises(self, tmp_path):
        with pytest.raises(CheckpointError, match="nothing to resume"):
            run_sweep(small_plan(), checkpoint=str(tmp_path / "void"), resume=True)

    def test_fresh_run_refuses_existing_checkpoint(self, tmp_path):
        ck = self._populated(tmp_path)
        with pytest.raises(CheckpointError, match="resume"):
            run_sweep(small_plan(), checkpoint=ck)

    def test_truncated_group_file_is_refused(self, tmp_path):
        ck = self._populated(tmp_path)
        path = os.path.join(ck, "group_0000.json")
        blob = open(path).read()
        open(path, "w").write(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError, match="corrupt|truncated"):
            run_sweep(small_plan(), checkpoint=ck, resume=True)

    def test_truncated_manifest_is_refused(self, tmp_path):
        ck = self._populated(tmp_path)
        path = os.path.join(ck, "manifest.json")
        open(path, "w").write("{\"schema_version\": 1, ")
        with pytest.raises(CheckpointError, match="corrupt|truncated"):
            run_sweep(small_plan(), checkpoint=ck, resume=True)

    def test_schema_version_bump_is_refused(self, tmp_path):
        ck = self._populated(tmp_path)
        path = os.path.join(ck, "group_0000.json")
        data = json.load(open(path))
        data["schema_version"] = CHECKPOINT_SCHEMA_VERSION + 1
        json.dump(data, open(path, "w"))
        with pytest.raises(CheckpointError, match="schema version"):
            run_sweep(small_plan(), checkpoint=ck, resume=True)

    def test_config_hash_mismatch_is_refused(self, tmp_path):
        """The config was edited between runs: trials must not mix."""
        ck = self._populated(tmp_path)
        edited = SweepPlan()
        edited.add(BASE.with_options(speed=BASE.speed * 2), 3, key="base")
        edited.add(BASE.with_options(radius=BASE.radius * 1.5), 2, key="wide")
        edited.add(BASE.with_options(seed=11), 4, key="reseeded")
        with pytest.raises(CheckpointError, match="does not match"):
            run_sweep(edited, checkpoint=ck, resume=True)

    def test_group_file_from_other_config_is_refused(self, tmp_path):
        ck = self._populated(tmp_path)
        # Same plan shape, but group 0's payload swapped with group 2's —
        # the manifest matches, the per-file config hash must not.
        a = os.path.join(ck, "group_0000.json")
        c = os.path.join(ck, "group_0002.json")
        blob_a, blob_c = open(a).read(), open(c).read()
        open(a, "w").write(blob_c)
        open(c, "w").write(blob_a)
        with pytest.raises(CheckpointError, match="different configuration"):
            run_sweep(small_plan(), checkpoint=ck, resume=True)

    def test_trial_count_payload_mismatch_is_refused(self, tmp_path):
        ck = self._populated(tmp_path)
        path = os.path.join(ck, "group_0000.json")
        data = json.load(open(path))
        data["n_trials"] = data["n_trials"] + 1
        json.dump(data, open(path, "w"))
        with pytest.raises(CheckpointError, match="trial count"):
            run_sweep(small_plan(), checkpoint=ck, resume=True)

    def test_non_checkpoint_manifest_is_refused(self, tmp_path):
        directory = tmp_path / "other"
        directory.mkdir()
        (directory / "manifest.json").write_text(
            json.dumps({"schema_version": CHECKPOINT_SCHEMA_VERSION, "kind": "other"})
        )
        with pytest.raises(CheckpointError, match="wrong directory"):
            run_sweep(small_plan(), checkpoint=str(directory), resume=True)

    def test_atomic_write_leaves_no_tmp_files(self, tmp_path):
        ck = self._populated(tmp_path)
        assert not [name for name in os.listdir(ck) if name.endswith(".tmp")]

    def test_group_file_is_the_json_dumps_text(self, tmp_path):
        """A group file holds ``json.dumps(payload, allow_nan=True)`` and a
        newline, byte for byte, with infinite and NaN floats spelled
        ``Infinity`` and ``NaN``."""
        hopeless = BASE.with_options(max_steps=1)
        (result,) = run_trials(hopeless, 1)
        result.extras["spread"] = [float("nan"), float("-inf"), 0.1 + 0.2]
        assert result.flooding_time == float("inf")
        SweepCheckpoint(str(tmp_path)).write_group(3, "ab" * 8, [result])
        payload = {
            "schema_version": CHECKPOINT_SCHEMA_VERSION,
            "config_hash": "ab" * 8,
            "n_trials": 1,
            "results": [encode_result(result)],
        }
        with open(tmp_path / "group_0003.json", "rb") as handle:
            blob = handle.read()
        assert blob == (json.dumps(payload, allow_nan=True) + "\n").encode()
        assert b'"flooding_time": Infinity' in blob
        assert b"[NaN, -Infinity, 0.30000000000000004]" in blob


class TestExperimentResume:
    """The user-facing path: experiment --checkpoint / --resume."""

    def test_thm3_radius_checkpoint_resume_identical_tables(self, tmp_path):
        from repro.experiments.registry import run_experiment

        ck = str(tmp_path / "ck")
        expected = run_experiment("thm3_radius", scale="quick", seed=0)
        first = run_experiment("thm3_radius", scale="quick", seed=0, checkpoint=ck)
        resumed = run_experiment(
            "thm3_radius", scale="quick", seed=0, checkpoint=ck, resume=True
        )
        assert first.to_text() == expected.to_text()
        assert resumed.to_text() == expected.to_text()

    def test_non_scheduler_experiment_refuses_checkpoint(self):
        from repro.experiments.registry import run_experiment

        with pytest.raises(ValueError, match="checkpoint"):
            run_experiment("lemma6_rows", checkpoint="/tmp/nope")
