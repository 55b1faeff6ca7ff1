"""On-disk sweep checkpoints: crash-safe partial results, bit-exact resume.

A long sweep that dies — crashed process, SIGKILL'd worker, exhausted
budget — used to restart from scratch.  This module persists per-point
partial results so :func:`repro.simulation.sweep.run_sweep` (and the
``repro sweep --resume`` / ``repro experiment --resume`` CLI paths) can
continue exactly where the run stopped.  Resume is **bit-exact by
construction**: the sweep seed schedule assigns trial ``i`` of a point the
``i``-th spawn of ``SeedSequence(config.seed)`` regardless of how the run
was segmented, so replaying trials ``[k, n)`` after restoring trials
``[0, k)`` produces byte-identical tables to an uninterrupted run
(enforced by ``tests/test_sweep_checkpoint.py``).

Layout of a checkpoint directory::

    DIR/
      manifest.json      # schema version + the plan's config fingerprints
      group_0000.json    # one file per deduplicated execution group:
      group_0001.json    #   {schema_version, config_hash, n_trials, results}
      group_0001.lease   # cooperative-mode work lease (simulation/lease.py)
      poison_0002.json   # sticky poison-job quarantine marker, if any

Every file is written **atomically and durably** (per-process temp file +
``os.replace`` + parent-directory fsync) after each trial batch, so a kill
at any instant leaves either the previous or the next consistent state —
never a torn file — and the temp names cannot collide across cooperating
worker processes sharing the directory.  The loader is deliberately
loud: truncated or corrupt JSON, an unknown schema version, a config hash
that no longer matches the plan (the config was edited between runs), or a
manifest/plan shape mismatch all raise :class:`CheckpointError` with an
actionable message instead of silently resuming wrong state.

The JSON uses the Python ``json`` module's ``Infinity`` literal for
incomplete trials' flooding times (non-strict JSON, round-trips with the
stdlib).  Observer-point results carry live observer objects and are not
serializable; those groups are skipped by the store and recomputed on
resume.

:func:`config_fingerprint` is the canonical configuration identity shared
with the sweep scheduler's dedup pass: the config's ``dataclasses.asdict``
payload serialized with **sorted keys** (so dict-valued fields like
``mobility_options`` hash identically under key reordering) and SHA-256
hashed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import math
import os

import numpy as np

from repro.simulation.config import FloodingConfig
from repro.simulation.results import FloodingResult

__all__ = [
    "CHECKPOINT_SCHEMA_VERSION",
    "CheckpointError",
    "SweepCheckpoint",
    "config_fingerprint",
    "encode_result",
    "decode_result",
]

#: Bumped only on breaking layout changes; the loader refuses anything else.
CHECKPOINT_SCHEMA_VERSION = 1

_MANIFEST = "manifest.json"
_KIND = "repro-sweep-checkpoint"


class CheckpointError(RuntimeError):
    """A checkpoint could not be created, validated, or loaded.

    Raised instead of silently resuming wrong state; the message always
    says what to do (pass ``--resume``, pick a fresh directory, or delete
    the offending file).
    """


# ----------------------------------------------------------------------
# Canonical configuration identity
# ----------------------------------------------------------------------
def config_fingerprint(config: FloodingConfig) -> str:
    """SHA-256 of the canonical JSON serialization of a configuration.

    Dict-valued fields (``mobility_options``, ``protocol_options``) are
    serialized with sorted keys, so two configs that differ only in dict
    insertion order — which compare equal and must share sweep trials —
    produce the same fingerprint.  Used as the
    sweep scheduler's dedup key and as the checkpoint validity stamp.
    """
    payload = dataclasses.asdict(config)
    blob = json.dumps(payload, sort_keys=True, default=repr, allow_nan=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Result codec
# ----------------------------------------------------------------------
def _encode_value(value, where: str):
    """JSON-compatible deep copy of an extras value (loud on unknowns)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (np.bool_, np.integer, np.floating)):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [_encode_value(v, where) for v in value]
    if isinstance(value, dict):
        return {str(k): _encode_value(v, f"{where}.{k}") for k, v in value.items()}
    raise CheckpointError(
        f"cannot checkpoint {where}: value of type {type(value).__name__} is not "
        "JSON-serializable"
    )


def encode_result(result: FloodingResult) -> dict:
    """Serialize one trial outcome to a JSON-compatible dict.

    The ``extras`` entry ``"config"`` is dropped (restored from the sweep
    point's own config on load); live observer objects
    (``extras["observers"]``) are not serializable and make the result
    non-checkpointable.
    """
    extras = {k: v for k, v in result.extras.items() if k != "config"}
    if "observers" in extras:
        raise CheckpointError(
            "results carrying live observers cannot be checkpointed; observer "
            "points are recomputed on resume instead"
        )
    return {
        "flooding_time": float(result.flooding_time),
        "completed": bool(result.completed),
        "stalled": bool(result.stalled),
        "n_steps": int(result.n_steps),
        "informed_history": np.asarray(result.informed_history).tolist(),
        "source": int(result.source),
        "source_in_central_zone": (
            None if result.source_in_central_zone is None
            else bool(result.source_in_central_zone)
        ),
        "cz_completion_time": (
            None if result.cz_completion_time is None
            else float(result.cz_completion_time)
        ),
        "suburb_completion_time": (
            None if result.suburb_completion_time is None
            else float(result.suburb_completion_time)
        ),
        "final_coverage": float(result.final_coverage),
        "extras": _encode_value(extras, "extras"),
    }


_RESULT_FIELDS = (
    "flooding_time", "completed", "stalled", "n_steps", "informed_history",
    "source", "source_in_central_zone", "cz_completion_time",
    "suburb_completion_time", "final_coverage", "extras",
)


def decode_result(data: dict, config: FloodingConfig) -> FloodingResult:
    """Rebuild a :class:`FloodingResult` from its checkpoint payload."""
    missing = [name for name in _RESULT_FIELDS if name not in data]
    if missing:
        raise CheckpointError(
            f"checkpointed trial is missing fields {missing}: the file is from "
            "an incompatible writer or was corrupted; delete it to recompute"
        )
    extras = dict(data["extras"])
    extras["config"] = config
    return FloodingResult(
        flooding_time=float(data["flooding_time"]),
        completed=bool(data["completed"]),
        stalled=bool(data["stalled"]),
        n_steps=int(data["n_steps"]),
        informed_history=np.asarray(data["informed_history"], dtype=np.intp),
        source=int(data["source"]),
        source_in_central_zone=data["source_in_central_zone"],
        cz_completion_time=data["cz_completion_time"],
        suburb_completion_time=data["suburb_completion_time"],
        final_coverage=float(data["final_coverage"]),
        extras=extras,
    )


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------
_TMP_COUNTER = itertools.count()


def _atomic_write_json(path: str, payload: dict) -> None:
    # The temp name is unique per process (pid + counter): two cooperating
    # workers racing the same target — e.g. both creating the manifest of a
    # fresh shared checkpoint — must never open each other's temp file and
    # tear it mid-write.
    tmp = f"{path}.tmp.{os.getpid()}.{next(_TMP_COUNTER)}"
    with open(tmp, "w") as handle:
        # ``json.dumps`` runs the C encoder; ``json.dump`` always runs the
        # pure-Python one.  Both write the same bytes.
        handle.write(json.dumps(payload, allow_nan=True))
        handle.write("\n")
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    _fsync_directory(os.path.dirname(os.path.abspath(path)))


def _fsync_directory(directory: str) -> None:
    """Make a rename durable: fsync the directory holding the new entry.

    ``os.replace`` guarantees atomicity, not persistence — after a power
    loss the directory may still hold the old entry unless the directory
    inode itself was flushed.  Filesystems that refuse directory fsync
    (some network mounts) degrade to atomic-but-not-durable, which is the
    pre-PR-7 behaviour, so errors here are deliberately swallowed.
    """
    try:
        dir_fd = os.open(directory or ".", os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(dir_fd)
    except OSError:
        pass
    finally:
        os.close(dir_fd)


def _load_json(path: str, what: str) -> dict:
    try:
        with open(path) as handle:
            data = json.load(handle)
    except json.JSONDecodeError as error:
        raise CheckpointError(
            f"corrupt or truncated {what} {path!r}: {error}; delete the file "
            "(or the whole checkpoint directory) to recompute from scratch"
        ) from error
    except OSError as error:
        raise CheckpointError(f"cannot read {what} {path!r}: {error}") from error
    if not isinstance(data, dict):
        raise CheckpointError(
            f"corrupt {what} {path!r}: expected a JSON object, got "
            f"{type(data).__name__}; delete it to recompute from scratch"
        )
    return data


def _check_schema(data: dict, path: str) -> None:
    version = data.get("schema_version")
    if version != CHECKPOINT_SCHEMA_VERSION:
        raise CheckpointError(
            f"checkpoint file {path!r} has schema version {version!r} but this "
            f"code reads version {CHECKPOINT_SCHEMA_VERSION}; re-run without "
            "--resume (fresh directory) or use a matching repro version"
        )


class SweepCheckpoint:
    """Directory-backed checkpoint store for one sweep plan.

    One file per deduplicated execution group, written atomically after
    each trial batch; a manifest records the plan's config fingerprints so
    a resume against an edited plan fails loudly instead of mixing trials
    from different configurations.

    Args:
        directory: checkpoint directory (created on :meth:`open` for fresh
            runs).
    """

    def __init__(self, directory: str):
        self.directory = str(directory)

    # -- lifecycle -----------------------------------------------------
    def _manifest_path(self) -> str:
        return os.path.join(self.directory, _MANIFEST)

    def _group_path(self, index: int) -> str:
        return os.path.join(self.directory, f"group_{index:04d}.json")

    def open(self, fingerprints: list, resume: bool, cooperative: bool = False) -> None:
        """Initialize a fresh checkpoint or validate an existing one.

        Args:
            fingerprints: config fingerprint per execution group, in plan
                order (the sweep's dedup pass computes them).
            resume: ``True`` continues the checkpoint already in the
                directory (which must exist and match the plan); ``False``
                starts fresh (the directory must not already hold a
                checkpoint — refusing to clobber is deliberate).
            cooperative: create-or-join semantics for multi-worker runs —
                an existing manifest is validated (like resume), a missing
                one created (like a fresh run).  Two fresh workers racing
                the creation both write the *identical* manifest through
                per-process temp files and an atomic rename, so either
                order is safe; ``resume`` is ignored.
        """
        manifest = self._manifest_path()
        exists = os.path.exists(manifest)
        if cooperative:
            if exists:
                self._validate_manifest(fingerprints)
            else:
                self._create_manifest(fingerprints)
            return
        if resume and not exists:
            raise CheckpointError(
                f"nothing to resume: {self.directory!r} contains no "
                f"{_MANIFEST}; run once with checkpointing enabled (no "
                "--resume) to create one"
            )
        if not resume and exists:
            raise CheckpointError(
                f"{self.directory!r} already contains a sweep checkpoint; pass "
                "resume=True (CLI: --resume) to continue it, or point the "
                "checkpoint at a fresh directory"
            )
        if resume:
            self._validate_manifest(fingerprints)
            return
        self._create_manifest(fingerprints)

    def _validate_manifest(self, fingerprints: list) -> None:
        manifest = self._manifest_path()
        data = _load_json(manifest, "checkpoint manifest")
        _check_schema(data, manifest)
        if data.get("kind") != _KIND:
            raise CheckpointError(
                f"{manifest!r} is not a sweep-checkpoint manifest "
                f"(kind={data.get('kind')!r}); wrong directory?"
            )
        stored = data.get("groups")
        if stored != list(fingerprints):
            raise CheckpointError(
                "the sweep plan does not match the checkpoint in "
                f"{self.directory!r}: the configurations (or their order) "
                "changed between runs — resume requires the identical "
                "plan; use a fresh checkpoint directory for the edited "
                "sweep"
            )

    def _create_manifest(self, fingerprints: list) -> None:
        os.makedirs(self.directory, exist_ok=True)
        _atomic_write_json(
            self._manifest_path(),
            {
                "schema_version": CHECKPOINT_SCHEMA_VERSION,
                "kind": _KIND,
                "groups": list(fingerprints),
            },
        )

    # -- per-group payloads --------------------------------------------
    def load_group(self, index: int, fingerprint: str, config: FloodingConfig) -> list:
        """Restore a group's completed trials (empty list when none yet)."""
        path = self._group_path(index)
        if not os.path.exists(path):
            return []
        data = _load_json(path, "checkpoint file")
        _check_schema(data, path)
        if data.get("config_hash") != fingerprint:
            raise CheckpointError(
                f"checkpoint file {path!r} was written for a different "
                "configuration (config hash mismatch — the sweep was edited "
                "between runs?); resume requires the identical plan, or a "
                "fresh checkpoint directory for the edited sweep"
            )
        results = data.get("results")
        if not isinstance(results, list) or data.get("n_trials") != len(results):
            raise CheckpointError(
                f"corrupt checkpoint file {path!r}: trial count does not match "
                "its payload; delete the file to recompute this point"
            )
        return [decode_result(entry, config) for entry in results]

    def write_group(self, index: int, fingerprint: str, results: list) -> None:
        """Atomically persist a group's completed trials (full rewrite)."""
        _atomic_write_json(
            self._group_path(index),
            {
                "schema_version": CHECKPOINT_SCHEMA_VERSION,
                "config_hash": fingerprint,
                "n_trials": len(results),
                "results": [encode_result(result) for result in results],
            },
        )

    # -- poison-job quarantine markers ---------------------------------
    def _poison_path(self, index: int) -> str:
        return os.path.join(self.directory, f"poison_{index:04d}.json")

    def write_poison(self, index: int, payload: dict) -> str:
        """Persist a poison-job quarantine marker for a group.

        The marker makes the quarantine *sticky* across workers and
        resumes: every later worker touching this checkpoint fails fast
        with the recorded diagnosis instead of re-crashing its own pool
        on the same input.  Returns the marker path (for the error
        message's "delete this to retry" instruction).
        """
        path = self._poison_path(index)
        _atomic_write_json(
            path,
            {
                "schema_version": CHECKPOINT_SCHEMA_VERSION,
                "kind": "repro-sweep-poison",
                **payload,
            },
        )
        return path

    def load_poison(self, index: int) -> dict | None:
        """The group's quarantine marker, or ``None`` when not quarantined."""
        path = self._poison_path(index)
        if not os.path.exists(path):
            return None
        data = _load_json(path, "poison-quarantine marker")
        data["path"] = path
        return data
