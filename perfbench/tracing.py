"""Layer spans recorded from outside the program.

:class:`Tracer` wraps the public functions and classes at each layer
boundary of :mod:`repro` for the extent of a ``with tracer.installed():``
block and puts every original back on exit.  Nothing under ``src/`` is
edited and the simulation loops are not copied: the wrappers time the real
calls and count the work they did.

A span records its name, start, end, parent span and run id.  Spans stay
in memory until :func:`write_spans`.  A layer's *self time* is its spans'
duration minus the part covered by their child spans.  Counts are taken
only at the outermost span of a name, so a layer calling into itself is
counted once.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from repro import kernels
from repro.core import spread, zones
from repro.geometry import neighbors
from repro.mobility import base as mobility_base
from repro.protocols import base as protocol_base
from repro.simulation import batch, checkpoint, engine, metrics

# ``repro.simulation.sweep`` the attribute is the legacy sweep() function.
sweep = importlib.import_module("repro.simulation.sweep")

# (metric name, unit, better) for every per-layer metric, in report order.
KERNEL_METRICS = [
    (f"kernels.{name}.{field}", unit, better)
    for name in kernels.KERNEL_NAMES
    for field, unit, better in (
        ("s", "s", "lower"), ("calls", "count", "lower"), ("fallback_frac", "1", "lower"),
    )
]
LAYER_METRICS = [
    ("batch.construct.mobility_s", "s", "lower"),
    ("batch.construct.sources_s", "s", "lower"),
    ("batch.construct.protocol_s", "s", "lower"),
    ("batch.construct.zones_s", "s", "lower"),
    ("batch.loop_self_s", "s", "lower"),
    ("batch.results_s", "s", "lower"),
    ("batch.calls", "count", "lower"),
    ("mobility.step_s", "s", "lower"),
    ("mobility.step_calls", "count", "lower"),
    ("mobility.agent_steps", "count", "lower"),
    ("mobility.active_frac", "1", "higher"),
    ("protocols.step_self_s", "s", "lower"),
    ("protocols.rounds", "count", "lower"),
    ("protocols.newly_informed", "count", "higher"),
    ("protocols.idle_round_frac", "1", "lower"),
    ("neighbors.bind_s", "s", "lower"),
    ("neighbors.any_within_s", "s", "lower"),
    ("neighbors.any_within_calls", "count", "lower"),
    ("neighbors.count_within_s", "s", "lower"),
    ("neighbors.count_within_calls", "count", "lower"),
    ("neighbors.contacts_within_s", "s", "lower"),
    ("neighbors.contacts_within_calls", "count", "lower"),
    ("neighbors.queries", "count", "lower"),
    ("neighbors.hit_frac", "1", "higher"),
    *KERNEL_METRICS,
    ("kernels.compile_events", "count", "lower"),
    ("zones.classify_s", "s", "lower"),
    ("zones.points", "count", "lower"),
    ("sweep.trials_executed", "count", "lower"),
    ("sweep.trials_budget", "count", "lower"),
    ("sweep.groups", "count", "lower"),
    ("sweep.batches", "count", "lower"),
    ("sweep.self_s", "s", "lower"),
    ("checkpoint.writes", "count", "lower"),
    ("checkpoint.bytes", "count", "lower"),
    ("checkpoint.write_s", "s", "lower"),
    ("engine.loop_self_s", "s", "lower"),
    ("engine.observer_s", "s", "lower"),
    ("engine.trials", "count", "lower"),
    ("trace.overhead_frac", "1", "lower"),
    ("trace.spans", "count", "lower"),
]

#: Counts that must repeat exactly across traced passes of one input.
EXACT_COUNTS = (
    "batch.calls", "mobility.step_calls", "mobility.agent_steps",
    "mobility.replica_steps", "mobility.replica_slots", "protocols.rounds",
    "protocols.newly_informed", "protocols.idle_rounds",
    "neighbors.any_within_calls", "neighbors.count_within_calls",
    "neighbors.contacts_within_calls", "neighbors.queries", "neighbors.hits",
    *(f"kernels.{name}.calls" for name in kernels.KERNEL_NAMES),
    *(f"kernels.{name}.fallbacks" for name in kernels.KERNEL_NAMES),
    "zones.points", "sweep.trials_executed", "sweep.trials_budget",
    "sweep.groups", "sweep.batches", "checkpoint.writes", "checkpoint.bytes",
    "engine.trials",
)


class Tracer:
    """In-memory span recorder plus the wrappers that feed it.

    Args:
        run_id: identifier shared by every span of one traced pass.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []  # [name, start, end, parent index or None]
        self.counts = defaultdict(int)
        self._stack = []
        self._depth = defaultdict(int)
        self._patches = []  # (owner, key, original)

    # -- wrappers ------------------------------------------------------
    def wrap(self, name, fn, count=None):
        """``fn`` recording a span ``name``; ``count(tracer, args, kwargs,
        result)`` runs after the outermost span of that name."""
        spans, stack, depth = self.spans, self._stack, self._depth

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else None]
            stack.append(len(spans))
            spans.append(record)
            depth[name] += 1
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
                depth[name] -= 1
            if count is not None and depth[name] == 0:
                count(self, args, kwargs, result)
            return result

        return traced

    def patch(self, owner, key, name, count=None):
        """Replace ``owner.key`` (or ``owner[key]`` for a dict) with a wrapper."""
        if isinstance(owner, dict):
            original = owner[key]
            owner[key] = self.wrap(name, original, count)
        else:
            original = vars(owner)[key]
            setattr(owner, key, self.wrap(name, original, count))
        self._patches.append((owner, key, original))

    def active(self, name) -> bool:
        """Whether a span of ``name`` is open (the caller is inside it)."""
        return self._depth[name] > 0

    @contextmanager
    def installed(self):
        """Install every layer wrapper; restore the originals on exit.

        Sets :attr:`restored` to whether every patched attribute is the
        original object again afterwards.
        """
        self.restored = False
        try:
            _install_layers(self)
            yield self
        finally:
            for owner, key, original in reversed(self._patches):
                if isinstance(owner, dict):
                    owner[key] = original
                else:
                    setattr(owner, key, original)
            self.restored = all(
                (owner[key] if isinstance(owner, dict) else vars(owner).get(key)) is original
                for owner, key, original in self._patches
            )

    # -- analysis ------------------------------------------------------
    def self_times(self) -> dict:
        """Total self time per span name."""
        child = [0.0] * len(self.spans)
        for _name, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(float)
        for (name, start, end, _parent), covered in zip(self.spans, child):
            out[name] += (end - start) - covered
        return out


def write_spans(path: str, tracers, extra: dict) -> None:
    """Write every tracer's spans, tagged with its run id, plus ``extra``."""
    payload = dict(extra)
    payload["spans"] = [
        {"name": name, "start": start, "end": end, "parent": parent, "run": tracer.run_id}
        for tracer in tracers
        for name, start, end, parent in tracer.spans
    ]
    with open(path, "w") as handle:
        json.dump(payload, handle)


# ----------------------------------------------------------------------
# Counting hooks, one per layer boundary
# ----------------------------------------------------------------------
def _add(tracer, counts: dict) -> None:
    for key, value in counts.items():
        tracer.counts[key] += int(value)


def _count_batch_call(tracer, args, kwargs, result):
    _add(tracer, {"batch.calls": 1})
    if tracer.active("sweep.run"):
        _add(tracer, {"sweep.batches": 1})


def _count_mobility_step(tracer, args, kwargs, result):
    model = args[0]
    replicas = getattr(model, "batch_size", 1)
    active = kwargs.get("active", args[2] if len(args) > 2 else None)
    live = replicas if active is None else int(np.count_nonzero(active))
    _add(tracer, {
        "mobility.step_calls": 1,
        "mobility.agent_steps": live * model.n,
        "mobility.replica_steps": live,
        "mobility.replica_slots": replicas,
    })


def _count_protocol_step(tracer, args, kwargs, result):
    state = args[0]
    if hasattr(state, "batch_size"):  # (B, n) newly-informed mask
        active = kwargs.get("active", args[2] if len(args) > 2 else None)
        live = np.ones(state.batch_size, bool) if active is None else np.asarray(active, bool)
        per_replica = np.count_nonzero(result, axis=1)
        rounds = int(np.count_nonzero(live))
        idle = int(np.count_nonzero(live & (per_replica == 0)))
        newly = int(per_replica.sum())
    else:  # scalar: indices of the newly informed
        rounds, newly = 1, len(result)
        idle = int(newly == 0)
    _add(tracer, {
        "protocols.rounds": rounds,
        "protocols.newly_informed": newly,
        "protocols.idle_rounds": idle,
    })


def _neighbor_counter(method):
    def count(tracer, args, kwargs, result):
        bound, query = args[0], args[2]
        if isinstance(bound, neighbors.BatchBoundQuery):
            queries = np.count_nonzero(query)
            n = bound.positions.shape[1]
            if method == "contacts_within":
                rep, _sources, q = result
                hits = np.unique(rep * n + q).size
            else:
                hits = np.count_nonzero(result)
        else:
            queries = len(query)
            hits = np.unique(result[1]).size if method == "contacts_within" else np.count_nonzero(result)
        _add(tracer, {
            f"neighbors.{method}_calls": 1,
            "neighbors.queries": queries,
            "neighbors.hits": hits,
        })

    return count


def _kernel_counter(name):
    def count(tracer, args, kwargs, result):
        _add(tracer, {f"kernels.{name}.calls": 1, f"kernels.{name}.fallbacks": result is None})
        if name == "zone_counts" and result is not None:
            positions = args[0]
            _add(tracer, {"zones.points": positions.shape[0] * positions.shape[1]})

    return count


def _count_zone_points(tracer, args, kwargs, result):
    _add(tracer, {"zones.points": len(result)})


def _count_sweep(tracer, args, kwargs, result):
    plan = args[0]
    points = plan.points if isinstance(plan, sweep.SweepPlan) else list(plan)
    _add(tracer, {
        "sweep.trials_budget": sum(point.n_trials for point in points),
        "sweep.trials_executed": sum(len(point.results) for point in result),
    })


def _count_checkpoint_open(tracer, args, kwargs, result):
    _add(tracer, {"sweep.groups": len(args[1])})


def _count_checkpoint_write(tracer, args, kwargs, result):
    store, index = args[0], args[1]
    _add(tracer, {
        "checkpoint.writes": 1,
        "checkpoint.bytes": os.path.getsize(store._group_path(index)),
    })


def _count_engine_trial(tracer, args, kwargs, result):
    _add(tracer, {"engine.trials": 1})


def _subclasses(cls):
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_subclasses(sub))
    return out


def _concrete_methods(root, method):
    """Every class under ``root`` that defines a non-abstract ``method``."""
    return [
        cls
        for cls in dict.fromkeys(_subclasses(root))
        if method in vars(cls) and not getattr(vars(cls)[method], "__isabstractmethod__", False)
    ]


def _install_layers(tracer: Tracer) -> None:
    # simulation.batch: construction phases, lock-step loop, assembly.
    tracer.patch(batch, "run_protocol_batch", "batch.run_protocol_batch", _count_batch_call)
    tracer.patch(batch, "build_batch_model", "batch.construct.mobility")
    tracer.patch(batch, "select_source", "batch.construct.sources")
    tracer.patch(batch, "build_batch_state", "batch.construct.protocol")
    tracer.patch(batch, "build_zone_partition", "batch.construct.zones")
    tracer.patch(batch.BatchSimulation, "run", "batch.loop")
    # mobility: every concrete scalar and batch step.
    for root in (mobility_base.MobilityModel, mobility_base.BatchMobilityModel):
        for cls in _concrete_methods(root, "step"):
            tracer.patch(cls, "step", "mobility.step", _count_mobility_step)
    # protocols: one communication round.
    for root in (protocol_base.BroadcastProtocol, protocol_base.BatchBroadcastState):
        for cls in _concrete_methods(root, "step"):
            tracer.patch(cls, "step", "protocols.step", _count_protocol_step)
    # geometry.neighbors: snapshot binding and the three radius queries.
    tracer.patch(neighbors.BatchNeighborQuery, "bind", "neighbors.bind")
    for cls in _concrete_methods(neighbors.NeighborEngine, "bind"):
        tracer.patch(cls, "bind", "neighbors.bind")
    for method in ("any_within", "count_within", "contacts_within"):
        counter = _neighbor_counter(method)
        tracer.patch(neighbors.BatchBoundQuery, method, f"neighbors.{method}", counter)
        for cls in _concrete_methods(neighbors.BoundSnapshot, method):
            tracer.patch(cls, method, f"neighbors.{method}", counter)
    # kernels: the active provider's table (absent on the numpy tier).
    if kernels.kernel_backend() is not None:
        table = kernels.provider_kernels()
        for name in kernels.KERNEL_NAMES:
            tracer.patch(table, name, f"kernels.{name}", _kernel_counter(name))
    # core.zones: Central-Zone classification of points.
    tracer.patch(zones.ZonePartition, "in_central_zone", "zones.classify", _count_zone_points)
    # simulation.sweep + simulation.checkpoint.
    tracer.patch(sweep, "run_sweep", "sweep.run", _count_sweep)
    tracer.patch(checkpoint.SweepCheckpoint, "open", "checkpoint.open", _count_checkpoint_open)
    tracer.patch(
        checkpoint.SweepCheckpoint, "write_group", "checkpoint.write", _count_checkpoint_write
    )
    # simulation.engine: the scalar loop and its observers.
    tracer.patch(engine.Simulation, "run", "engine.loop", _count_engine_trial)
    for cls in (metrics.InformedRecorder, metrics.ZoneRecorder, spread.InformedCellTracker):
        tracer.patch(cls, "observe", "engine.observer")


# ----------------------------------------------------------------------
# Per-layer metrics of one traced pass
# ----------------------------------------------------------------------
def _frac(num, den) -> float:
    return float(num) / float(den) if den else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """Every per-layer metric except ``trace.overhead_frac`` for one pass."""
    self_s = tracer.self_times()
    c = tracer.counts
    out = {
        "batch.construct.mobility_s": self_s["batch.construct.mobility"],
        "batch.construct.sources_s": self_s["batch.construct.sources"],
        "batch.construct.protocol_s": self_s["batch.construct.protocol"],
        "batch.construct.zones_s": self_s["batch.construct.zones"],
        "batch.loop_self_s": self_s["batch.loop"],
        "batch.results_s": self_s["batch.run_protocol_batch"],
        "batch.calls": c["batch.calls"],
        "mobility.step_s": self_s["mobility.step"],
        "mobility.step_calls": c["mobility.step_calls"],
        "mobility.agent_steps": c["mobility.agent_steps"],
        "mobility.active_frac": _frac(c["mobility.replica_steps"], c["mobility.replica_slots"]),
        "protocols.step_self_s": self_s["protocols.step"],
        "protocols.rounds": c["protocols.rounds"],
        "protocols.newly_informed": c["protocols.newly_informed"],
        "protocols.idle_round_frac": _frac(c["protocols.idle_rounds"], c["protocols.rounds"]),
        "neighbors.bind_s": self_s["neighbors.bind"],
        "neighbors.queries": c["neighbors.queries"],
        "neighbors.hit_frac": _frac(c["neighbors.hits"], c["neighbors.queries"]),
        "zones.classify_s": self_s["zones.classify"] + self_s["kernels.zone_counts"],
        "zones.points": c["zones.points"],
        "sweep.trials_executed": c["sweep.trials_executed"],
        "sweep.trials_budget": c["sweep.trials_budget"],
        "sweep.groups": c["sweep.groups"],
        "sweep.batches": c["sweep.batches"],
        "sweep.self_s": self_s["sweep.run"] + self_s["checkpoint.open"],
        "checkpoint.writes": c["checkpoint.writes"],
        "checkpoint.bytes": c["checkpoint.bytes"],
        "checkpoint.write_s": self_s["checkpoint.write"],
        "engine.loop_self_s": self_s["engine.loop"],
        "engine.observer_s": self_s["engine.observer"],
        "engine.trials": c["engine.trials"],
        "trace.spans": len(tracer.spans),
    }
    for method in ("any_within", "count_within", "contacts_within"):
        out[f"neighbors.{method}_s"] = self_s[f"neighbors.{method}"]
        out[f"neighbors.{method}_calls"] = c[f"neighbors.{method}_calls"]
    for name in kernels.KERNEL_NAMES:
        calls = c[f"kernels.{name}.calls"]
        out[f"kernels.{name}.s"] = self_s[f"kernels.{name}"]
        out[f"kernels.{name}.calls"] = calls
        out[f"kernels.{name}.fallback_frac"] = _frac(c[f"kernels.{name}.fallbacks"], calls)
    return out


def merge_passes(per_pass: list) -> dict:
    """Median of each timed metric over traced passes; counts (ints, equal
    across passes when the trace is transparent) come from the first."""
    return {
        key: value if isinstance(value, int) else statistics.median(p[key] for p in per_pass)
        for key, value in per_pass[0].items()
    }
