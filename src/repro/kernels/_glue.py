"""Numpy-side glue shared by the compiled provider and the reference cores.

:func:`make_kernels` turns a namespace of loop cores (pure-Python or C
adapters, both with the :mod:`repro.kernels._cores` signatures) into the
public kernel table consumed by the dispatch sites.

Every public kernel is *total over a guarded domain*: it validates dtypes,
contiguity, and size caps up front and returns ``None`` (or a ``None``
sentinel tuple) when the inputs fall outside the domain it is exact on,
in which case the dispatch site silently runs the numpy path instead.
That keeps the compiled tier an optimization, never a semantics fork.

The infection test and the trip mode split their replicas across the
CPUs: :func:`_threads` sizes each call, and the cores take the count as
their ``threads`` argument (see :mod:`repro.kernels._cext`).
"""

from __future__ import annotations

import math
import multiprocessing
import operator
import os
import sys
from typing import NamedTuple

import numpy as np

__all__ = [
    "make_kernels",
    "KERNEL_NAMES",
    "MAX_KERNEL_CELLS",
    "ManhattanTrips",
    "PauseTrips",
    "SpeedRangeTrips",
    "EuclideanTrips",
    "TripWork",
    "CENTRAL_ZONE",
    "SUBURB",
]

#: Public kernel names, in bench/report order.  ``grid_splice`` and
#: ``occupancy_delta`` have no caller in the library; they stay registered
#: while the benchmark's per-layer metric list still names them.
KERNEL_NAMES = (
    "batch_any_within",
    "batch_contacts",
    "advance_legs",
    "advance_legs_dense",
    "grid_splice",
    "occupancy_delta",
    "union_fixpoint",
    "zone_counts",
)

#: Same total-cell cap as the numpy cell-cover strategy: beyond it the
#: bucket grid no longer pays for itself and the glue falls back.
MAX_KERNEL_CELLS = 4_000_000

#: Modes of ``advance_trips_core``, one per trip model: MRWP (distance
#: budget), pause-MRWP and random-speed MRWP (time budgets, a scalar or a
#: per-agent speed) and straight-line RWP (time budget, scalar speed).
MRWP_TRIPS, PAUSE_TRIPS, SPEED_TRIPS, RWP_TRIPS = 0, 1, 2, 3

#: Zone bits of ``zone_counts``: a replica's open zones, and the open zones
#: that still hold an uninformed agent, are ORs of these.
CENTRAL_ZONE, SUBURB = 1, 2

#: Agents (``B * n``) a call hands each thread at least.  A thread's
#: create and join cost 20-26 us on a 2-core x86-64 host, about what the
#: infection test spends on 4,500 agents and the MRWP trip step on 6,500
#: (``suburb_sparse``), so a call splits only once each thread's share
#: outweighs it; below ``2 * _AGENTS_PER_THREAD`` a call runs on the
#: calling thread alone.
_AGENTS_PER_THREAD = 4096

_HOST_THREADS = (None, 1)


def _host_threads() -> int:
    """Threads a call may use: the CPUs this process may run on, or 1 in a
    multiprocessing worker, whose pool already fills the CPUs.  Derived
    once per process (a forked child derives its own)."""
    global _HOST_THREADS
    pid = os.getpid()
    if _HOST_THREADS[0] != pid:
        if multiprocessing.parent_process() is not None:
            count = 1
        elif hasattr(os, "sched_getaffinity"):
            count = len(os.sched_getaffinity(0))
        else:
            count = os.cpu_count() or 1
        _HOST_THREADS = (pid, count)
    return _HOST_THREADS[1]


def _threads(units, agents) -> int:
    """Threads for a call over ``units`` independent units and ``agents``
    agents: at most one per unit, per CPU and per ``_AGENTS_PER_THREAD``
    agents, and at least one."""
    if agents < 2 * _AGENTS_PER_THREAD or units < 2:
        return 1
    return min(_host_threads(), units, agents // _AGENTS_PER_THREAD)


# Cell side = radius * (1 + margin).  The margin keeps the effective bin
# width >= radius even after the 1-ulp rounding of ``1.0 / cell``, so two
# points within ``radius`` always land in adjacent bins (the 3x3 scan is
# complete) while the distance predicate itself stays exact.
_CELL_MARGIN = 1e-9



def _is_c_f64(arr) -> bool:
    return arr.dtype == np.float64 and arr.flags.c_contiguous


def _is_c_i64(arr) -> bool:
    return arr.dtype == np.intp and arr.itemsize == 8 and arr.flags.c_contiguous


def _grid_geometry(positions, source_mask, query_mask, radius, side):
    """Common setup for the pair kernels: the grid side ``m``, the inverse
    cell side and the C-contiguous bool ``(B, n)`` masks (a copy only for
    another dtype or layout); ``None`` when out of domain."""
    if positions.ndim != 3 or positions.shape[2] != 2 or not _is_c_f64(positions):
        return None
    if not (radius > 0.0) or not (side > 0.0):
        return None
    cell = float(radius) * (1.0 + _CELL_MARGIN)
    m = max(1, int(math.ceil(float(side) / cell)))
    # Caps the zeroing and prefix sums of the per-replica grid, m*m + 2
    # entries per live replica.
    if positions.shape[0] * m * m > MAX_KERNEL_CELLS:
        return None
    smask = np.ascontiguousarray(source_mask, dtype=np.bool_)
    qmask = np.ascontiguousarray(query_mask, dtype=np.bool_)
    if smask.shape != positions.shape[:2] or qmask.shape != positions.shape[:2]:
        return None
    return m, 1.0 / cell, smask, qmask


def _grid_buffers(n, m, threads=1):
    """Work arrays of the pair cores, reused by every replica: local source
    and query indices, cell keys, cell starts, sources in cell order.
    With ``threads`` each array holds that many consecutive blocks, one
    per thread."""
    return tuple(
        np.empty(threads * size, dtype=np.int64) for size in (n, n, n, m * m + 2, n)
    )


def _contacts_capacity(n_src, n_qry, batch, radius, side):
    """First output capacity of ``batch_contacts``' pair list.

    Twice the contact count of uniformly spread points (each query sees
    its replica's share of the sources over a disk of area ``pi R^2``),
    and at least ``4 * max(S, Q)``.  The pair lists are the
    informed/uninformed cuts of the neighbor-sampling protocols: in a
    seed-7 pass of the ``protocol_sweep`` benchmark, 128 of the 457 cuts
    would overflow the plain ``4 * max(S, Q)`` and none overflow this
    guess.  An overflowing pass still counts the exact total, and the
    glue re-runs once with that.
    """
    area = min(1.0, math.pi * radius * radius / (side * side))
    expected = n_qry * (n_src / batch) * area
    return max(64, 4 * max(n_src, n_qry), int(2.0 * expected))


class TripWork:
    """Work buffers of ``advance_legs_dense``'s trip mode, one per model.

    ``movers`` and ``rests`` hold the agents still walking after a pass
    and their budgets, ``redraw`` a pass's finished trips; each unit of a
    call works in its own region, and only the prefixes a step writes are
    ever touched.  The generator handles, locks and units are cached with
    the provider and the generators they came from, and re-derived when a
    model's generators change (``reset(rng=...)``).

    A unit is a set of replicas, ascending, given as ``(units,
    unit_starts)``: unit ``u`` is ``units[unit_starts[u]:unit_starts[u +
    1]]``.  ``groups`` has one unit per bit generator (in every library
    run, one per replica) and ``whole`` one unit of all replicas.
    """

    def __init__(self, total: int):
        self.movers = np.empty(total, dtype=np.int64)
        self.rests = np.empty(total, dtype=np.float64)
        self.redraw = np.empty(total, dtype=np.int64)
        self.cores = None
        self.rngs = ()
        self.handles = None
        self.locks = ()
        self.groups = None
        self.whole = None

    def generators(self, cores, rngs):
        """``(handles, locks)`` for drawing from ``rngs`` with ``cores``;
        ``handles`` is ``None`` when a generator is not a plain numpy
        ``Generator`` or its bit generator has no C interface."""
        if (
            self.cores is not cores
            or len(self.rngs) != len(rngs)
            or not all(map(operator.is_, self.rngs, rngs))
        ):
            handles, locks = None, ()
            if all(type(rng) is np.random.Generator for rng in rngs):
                handles = cores.bitgen_handles(rngs)
                # One lock per distinct bit generator, taken in a fixed order.
                distinct = {id(rng.bit_generator): rng.bit_generator for rng in rngs}
                locks = tuple(distinct[key].lock for key in sorted(distinct))
                members = {}
                for b, rng in enumerate(rngs):
                    members.setdefault(id(rng.bit_generator), []).append(b)
                self.groups = _unit_layout(list(members.values()))
                self.whole = _unit_layout([list(range(len(rngs)))])
            self.cores, self.rngs = cores, tuple(rngs)
            self.handles, self.locks = handles, locks
        return self.handles, self.locks


def _unit_layout(units):
    """``(units, unit_starts)`` of a list of ascending replica lists."""
    starts = np.cumsum([0] + [len(unit) for unit in units], dtype=np.int64)
    return np.array([b for unit in units for b in unit], dtype=np.int64), starts


def _units_stay_apart(mode, budget, eps, eps_t, speed, speeds, v_min):
    """Whether each generator group of a trip-mode call may run its own
    carry-over loop, exactly as the batch-wide loop would run it.

    The batch-wide loop runs until a pass without arrivals anywhere, so
    it visits a group whose pass had none again while other groups have
    arrivals.  That changes nothing when such a pass spends every
    walker's budget: a walker that does not arrive moves its whole
    budget ``b``, which leaves MRWP ``b - b == 0`` and a time budget
    ``b - (b * s) / s``, below ``2**-51 * b`` while ``b * s`` is a
    normal float (an overflowing ``b * s`` arrives).  The time modes
    therefore split only where that rest stays under the threshold a
    walker must pass (``eps_t``; for RWP, ``b * s > eps``), which in the
    pause and speed modes also needs every speed, drawn ones included,
    to be positive; elsewhere the call runs as one unit.
    """
    if mode == MRWP_TRIPS:
        return True
    tiny = sys.float_info.min
    if mode == RWP_TRIPS:
        # A walker has b * s > eps, so its b * s is a normal float.
        return eps >= tiny and budget * speed * 2.0**-50 <= eps
    lowest = min(float(speeds.min()), v_min) if mode == SPEED_TRIPS else speed
    return eps_t >= tiny and lowest * eps_t >= tiny and budget * 2.0**-50 <= eps_t


class ManhattanTrips(NamedTuple):
    """The MRWP state that ``advance_legs_dense``'s trip mode advances.

    ``dest``, ``on_second_leg``, ``turn_counts`` and ``arrival_counts`` are
    the model's flat ``(B*n, 2)`` / ``(B*n,)`` arrays (mutated); ``rngs``
    holds one generator per replica, ``max_passes`` caps the carry-over
    passes and ``work`` is the model's :class:`TripWork`.  The step's
    budget is the distance ``v * dt``.
    """

    dest: np.ndarray
    on_second_leg: np.ndarray
    turn_counts: np.ndarray
    arrival_counts: np.ndarray
    side: float
    rngs: list
    max_passes: int
    work: TripWork


class PauseTrips(NamedTuple):
    """The pause-MRWP state of the trip mode: :class:`ManhattanTrips`
    without counters, with each agent's remaining pause ``pause_left``
    (mutated) and the pause ``pause_time`` taken at every way-point.  The
    step's budget is the time ``dt``, spent at the scalar ``speed``."""

    dest: np.ndarray
    on_second_leg: np.ndarray
    pause_left: np.ndarray
    pause_time: float
    side: float
    rngs: list
    max_passes: int
    work: TripWork


class SpeedRangeTrips(NamedTuple):
    """The random-speed MRWP state of the trip mode: :class:`ManhattanTrips`
    without counters; each new trip draws its speed from
    ``uniform(v_min, v_max)``.  The step's budget is the time ``dt``,
    spent at the per-agent ``speed`` array (mutated)."""

    dest: np.ndarray
    on_second_leg: np.ndarray
    v_min: float
    v_max: float
    side: float
    rngs: list
    max_passes: int
    work: TripWork


class EuclideanTrips(NamedTuple):
    """The straight-line RWP state of the trip mode: each trip is one leg
    to the kernel's ``target`` (the model's destinations, redrawn in
    place), followed by a pause of ``pause_time``; ``pause_left`` and
    ``arrival_counts`` are mutated.  The step's budget is the time
    ``dt``, spent at the scalar ``speed``."""

    pause_left: np.ndarray
    arrival_counts: np.ndarray
    pause_time: float
    side: float
    rngs: list
    max_passes: int
    work: TripWork


def _is_c_counts(arr, total) -> bool:
    return arr.dtype == np.int64 and arr.flags.c_contiguous and arr.shape == (total,)


def _is_c_flags(arr, total) -> bool:
    return arr.dtype == np.bool_ and arr.flags.c_contiguous and arr.shape == (total,)


def _is_c_points(arr, total) -> bool:
    return arr.shape == (total, 2) and _is_c_f64(arr)


def _is_c_floats(arr, total) -> bool:
    return arr.shape == (total,) and _is_c_f64(arr)


def _scalar_speed(speed):
    """``speed`` as a float, or ``None`` when it is not a scalar."""
    if speed is None or isinstance(speed, np.ndarray):
        return None
    return float(speed)


def _trip_args(trips, target, speed, eps, total):
    """The arguments of ``advance_trips_core`` that differ by trip model,
    ``(mode, target, dest, on_second_leg, turns, arrivals, pause_left,
    speeds, speed, eps_t, pause_time, v_min, v_range)`` with ``None`` for
    the arrays the mode never reads, or ``None`` when ``trips`` or
    ``speed`` is outside the mode's domain.

    ``eps_t``, the budget above which an agent stays live, is computed as
    the numpy loop computes its threshold.
    """
    kind = type(trips)
    if kind is ManhattanTrips:
        dest, second, turns, arrivals = trips[:4]
        if speed is not None or not _is_c_points(dest, total) or not _is_c_flags(second, total):
            return None
        if not (_is_c_counts(turns, total) and _is_c_counts(arrivals, total)):
            return None
        return MRWP_TRIPS, target, dest, second, turns, arrivals, None, None, 0.0, eps, 0.0, 0.0, 0.0
    if kind is EuclideanTrips:
        speed = _scalar_speed(speed)
        pause_left, arrivals = trips.pause_left, trips.arrival_counts
        if speed is None or not _is_c_floats(pause_left, total):
            return None
        if not _is_c_counts(arrivals, total):
            return None
        # One straight leg to the destination: the core reads and redraws
        # ``dest`` and never touches ``target``.
        return (RWP_TRIPS, None, target, None, None, arrivals, pause_left, None, speed, 0.0,
                float(trips.pause_time), 0.0, 0.0)
    if kind is not PauseTrips and kind is not SpeedRangeTrips:
        return None
    dest, second = trips.dest, trips.on_second_leg
    if not _is_c_points(dest, total) or not _is_c_flags(second, total):
        return None
    if kind is PauseTrips:
        speed = _scalar_speed(speed)
        if speed is None or not _is_c_floats(trips.pause_left, total):
            return None
        return (PAUSE_TRIPS, target, dest, second, None, None, trips.pause_left, None, speed,
                eps / max(speed, 1.0), float(trips.pause_time), 0.0, 0.0)
    v_min, v_max = float(trips.v_min), float(trips.v_max)
    v_range = v_max - v_min
    # rng.uniform refuses a negative or non-finite range: numpy raises it.
    if not isinstance(speed, np.ndarray) or not _is_c_floats(speed, total):
        return None
    if not 0.0 <= v_range < math.inf:
        return None
    return (SPEED_TRIPS, target, dest, second, None, None, None, speed, 0.0, eps / v_max, 0.0,
            v_min, v_range)


def make_kernels(cores):
    """Build the public kernel table from a namespace of loop cores."""

    def batch_any_within(positions, source_mask, query_mask, radius, side):
        setup = _grid_geometry(positions, source_mask, query_mask, radius, side)
        if setup is None:
            return None
        m, inv_cell, smask, qmask = setup
        batch, n = smask.shape
        threads = _threads(batch, batch * n)
        out = np.zeros(smask.shape, dtype=np.bool_)
        cores.any_within_core(
            positions, m, inv_cell, float(radius) * float(radius), smask, qmask,
            *_grid_buffers(n, m, threads), out, threads,
        )
        return out

    def batch_contacts(positions, source_mask, query_mask, radius, side, counts=False):
        """Exact (replica, source, query) contacts sorted in that order, or
        with ``counts=True`` the ``(B, n)`` per-query contact counts (0
        outside ``query_mask``), which write no pairs and so need O(B*n)
        memory."""
        setup = _grid_geometry(positions, source_mask, query_mask, radius, side)
        if setup is None:
            return None
        m, inv_cell, smask, qmask = setup
        batch, n = smask.shape
        r2 = float(radius) * float(radius)
        if counts:
            out = np.zeros((batch, n), dtype=np.intp)
            cores.count_core(
                positions, m, inv_cell, r2, smask, qmask, *_grid_buffers(n, m),
                out.view(np.int64),
            )
            return out
        n_src = np.count_nonzero(smask)
        n_qry = np.count_nonzero(qmask)
        if not n_src or not n_qry:
            empty = np.empty(0, dtype=np.intp)
            return empty, empty.copy(), empty.copy()
        work = _grid_buffers(n, m)
        # The core zeroes the tally at each replica's sources, the only
        # entries it uses.
        tally = np.empty(n, dtype=np.int64)
        cap = _contacts_capacity(n_src, n_qry, batch, radius, side)
        out = [np.empty(cap, dtype=np.int64) for _ in range(3)]
        total = cores.contacts_core(
            positions, m, inv_cell, r2, smask, qmask, *work, tally, *out, cap,
        )
        if total > cap:
            out = [np.empty(total, dtype=np.int64) for _ in range(3)]
            total = cores.contacts_core(
                positions, m, inv_cell, r2, smask, qmask, *work, tally, *out, total,
            )
        # The core already wrote (replica, local source, local query).
        return tuple(buf[:total] for buf in out)

    def advance_legs(pos, target, budget, idx, eps, speed=None, metric="manhattan"):
        """The masked leg pass for distance budgets on Manhattan legs; a
        ``speed`` or Euclidean legs are declined (numpy runs them)."""
        if speed is not None or metric != "manhattan":
            return None
        total = budget.shape[0]
        if not (_is_c_points(pos, total) and _is_c_points(target, total) and _is_c_f64(budget)):
            return None
        if not _is_c_i64(idx):
            return None
        done = np.empty(idx.shape[0], dtype=np.intp)
        cnt = cores.advance_legs_core(
            pos, target, budget, idx.view(np.int64), float(eps), done.view(np.int64),
        )
        return done[: int(cnt)]

    def advance_trips(pos, target, budget, active, n_active, eps, speed, trips):
        total = pos.shape[0]
        args = _trip_args(trips, target, speed, float(eps), total)
        if args is None:
            return None
        rngs, work = trips.rngs, trips.work
        batch = len(rngs)
        if not batch or total % batch or not _is_c_flags(active, batch):
            return None
        if not (_is_c_points(pos, total) and _is_c_points(target, total)):
            return None
        if work.movers.shape[0] < total or not (eps > 0.0):
            return None
        handles, locks = work.generators(cores, rngs)
        if handles is None:
            return None
        if not n_active or not total:
            return 0
        (mode, target, dest, second, turns, arrivals, pause_left, speeds,
         speed, eps_t, pause_time, v_min, v_range) = args
        budget, eps, n = float(budget), float(eps), total // batch
        units, unit_starts = work.groups
        n_units = unit_starts.shape[0] - 1
        if n_units > 1 and not _units_stay_apart(mode, budget, eps, eps_t, speed, speeds, v_min):
            (units, unit_starts), n_units = work.whole, 1
        threads = _threads(min(n_active, n_units), n_active * n)
        # The C core draws with the GIL released: hold every generator's
        # lock for the call, as numpy's own fills do.
        held = 0
        try:
            for lock in locks:
                lock.acquire()
                held += 1
            return cores.advance_trips_core(
                mode, pos, target, dest, second, turns, arrivals, pause_left, speeds, active,
                n, budget, speed, eps, eps_t, pause_time, float(trips.side), v_min, v_range,
                handles, units, unit_starts, threads, int(trips.max_passes),
                work.movers, work.rests, work.redraw,
            )
        finally:
            for lock in locks[:held]:
                lock.release()

    def advance_legs_dense(pos, target, budget, moving, n_moving, eps, speed=None, trips=None):
        """The dense leg pass for distance budgets; with ``trips``, the trip
        mode, which runs a whole step of a trip model.

        In trip mode the moving units are replicas: ``moving`` is the
        ``(B,)`` mask of active replicas and ``n_moving`` their count.
        ``trips`` picks the model: with :class:`ManhattanTrips` (MRWP)
        ``budget`` is the distance ``v * dt`` and ``speed`` is ``None``;
        with :class:`PauseTrips`, :class:`SpeedRangeTrips` or
        :class:`EuclideanTrips` ``budget`` is the time ``dt`` and
        ``speed`` the scalar speed or, for :class:`SpeedRangeTrips`, the
        ``(B*n,)`` per-agent speeds.  It returns the most carry-over
        passes a unit of replicas ran, or -1 when ``trips.max_passes``
        passes did not finish the step.  Without ``trips`` a ``speed`` is
        declined.
        """
        if trips is not None:
            return advance_trips(pos, target, budget, moving, n_moving, eps, speed, trips)
        if speed is not None:
            return None
        total = budget.shape[0]
        if not (_is_c_points(pos, total) and _is_c_points(target, total) and _is_c_f64(budget)):
            return None
        if moving.dtype != np.bool_ or not moving.flags.c_contiguous:
            return None
        done = np.empty(total, dtype=np.intp)
        cnt = cores.advance_legs_dense_core(
            pos, target, budget, moving, bool(n_moving == total), float(eps), done.view(np.int64),
        )
        return done[: int(cnt)]

    def grid_splice(order, sorted_ids, removed, new_ids, new_pts):
        if not (_is_c_i64(order) and _is_c_i64(sorted_ids)):
            return None
        if not (_is_c_i64(new_ids) and _is_c_i64(new_pts)):
            return None
        if removed.dtype != np.bool_ or not removed.flags.c_contiguous:
            return None
        size = order.shape[0] - removed.sum() + new_ids.shape[0]
        out_order = np.empty(size, dtype=np.intp)
        out_ids = np.empty(size, dtype=np.intp)
        cores.splice_core(
            order.view(np.int64), sorted_ids.view(np.int64), removed,
            new_ids.view(np.int64), new_pts.view(np.int64),
            out_order.view(np.int64), out_ids.view(np.int64),
        )
        return out_order, out_ids

    def occupancy_delta(counts_flat, old_cells, new_cells):
        if counts_flat.dtype != np.int64 or not counts_flat.flags.c_contiguous:
            return None
        old64 = np.ascontiguousarray(old_cells, dtype=np.int64)
        new64 = np.ascontiguousarray(new_cells, dtype=np.int64)
        if old64.shape != new64.shape or old64.ndim != 1:
            return None
        cores.occupancy_delta_core(counts_flat, old64, new64)
        return True

    def union_fixpoint(parent, u, v):
        if not _is_c_i64(parent):
            return None
        u64 = np.ascontiguousarray(u, dtype=np.int64)
        v64 = np.ascontiguousarray(v, dtype=np.int64)
        if u64.shape != v64.shape or u64.ndim != 1:
            return None
        cores.union_core(parent.view(np.int64), u64, v64)
        return True

    def zone_counts(positions, informed, ell, m, cz_mask, open_zones):
        if positions.ndim != 3 or positions.shape[2] != 2 or not _is_c_f64(positions):
            return None
        batch, n = positions.shape[0], positions.shape[1]
        if informed.shape != (batch, n) or informed.dtype != np.bool_:
            return None
        if open_zones.shape != (batch,) or open_zones.dtype != np.uint8:
            return None
        if not (informed.flags.c_contiguous and open_zones.flags.c_contiguous):
            return None
        m = int(m)
        if cz_mask.shape != (m, m) or cz_mask.dtype != np.bool_:
            return None
        if not cz_mask.flags.c_contiguous or not (ell > 0.0):
            return None
        left = np.zeros(batch, dtype=np.uint8)
        cores.zone_counts_core(
            positions.reshape(-1, 2), n, float(ell), m,
            cz_mask.reshape(-1), informed.reshape(-1), open_zones, left,
        )
        return left

    return {
        "batch_any_within": batch_any_within,
        "batch_contacts": batch_contacts,
        "advance_legs": advance_legs,
        "advance_legs_dense": advance_legs_dense,
        "grid_splice": grid_splice,
        "occupancy_delta": occupancy_delta,
        "union_fixpoint": union_fixpoint,
        "zone_counts": zone_counts,
    }
