"""Schedule-driven transit mobility: timetables, vehicles, and riders.

The paper treats information crossing the disconnected Suburb
probabilistically; the engineering counterpart (paper ref [30],
Zhao-Ammar-Zegura message ferries) is a *scheduled* one: vehicles on fixed
routes with stop sequences, dwell times, headways and capacity, plus agents
that board and alight.  This module generalizes the ferry patrol into that
family — the GTFS-style "timetable networks" item of ROADMAP.md:

* :class:`Timetable` — a validated value object: routes as stop way-point
  sequences (closed loops; a 2-stop loop is an out-and-back shuttle),
  per-stop dwell times, an optional headway between successive vehicles,
  and an optional per-vehicle capacity.  Builders:
  :func:`loop_timetable` (subsumes the ferry's :func:`rectangle_route`)
  and :func:`grid_shuttle_timetable`.
* :class:`BatchTimetableMobility` — the batch model over one flat-array
  engine (the ``pause.py`` pattern); :class:`TimetableMobility` is its
  one-replica view.
  Vehicles run stop→dwell→leg cycles: dwell burning reuses
  :func:`~repro.mobility.kinematics.countdown_pauses` and leg advance is a
  1-D carry-over loop in arc-length space, with positions synthesized by
  the exact arithmetic of the historical ``FerryPatrol`` (so the zero-dwell
  single-route case — the refactored ferry — reproduces the pre-refactor
  trajectories bit for bit; zero-dwell timetables take a fast path that is
  literally the old ``mod(arc + v*dt, length)`` update).  Riders walk MRWP
  between trips, board at stops where a vehicle is dwelling with spare
  capacity (deterministic tie-break: ascending agent id, lowest-index
  vehicle), draw a destination stop uniformly among the route's other
  stops, and alight when their vehicle dwells there.

Step semantics: board/alight decisions happen once per step, *at the start
of the step*, using the previous step's final state; then vehicles advance,
then walking riders advance, then riding riders take their vehicle's
position.  A vehicle whose dwell is shorter than the step ``dt`` can
therefore arrive *and* depart between two decision points — riders only
reliably interact with stops whose dwell is at least ``dt``.

Agent layout per replica: riders first (``0 .. riders-1``), vehicles after
(``riders .. n-1``) — the composition convention of
:class:`~repro.mobility.ferry.CompositeMobility`.
"""

from __future__ import annotations

import numpy as np

from repro.kernels import get_kernel
from repro.mobility import kinematics
from repro.mobility.base import BatchMobilityModel, MobilityModel, check_dt
from repro.mobility.kinematics import (
    DenseLegScratch,
    advance_legs,
    advance_legs_dense,
    countdown_pauses,
    redraw_manhattan_trips,
    replica_slices,
    split_completed_legs,
)
from repro.mobility.mrwp import _initial_state

__all__ = [
    "Timetable",
    "TimetableMobility",
    "BatchTimetableMobility",
    "rectangle_route",
    "loop_timetable",
    "grid_shuttle_timetable",
]


def rectangle_route(side: float, inset: float) -> np.ndarray:
    """A rectangular loop at distance ``inset`` from the square's walls.

    The classic ferry route: it passes near all four Suburb corners.
    """
    if not 0 <= inset < side / 2:
        raise ValueError(f"inset must be in [0, side/2), got {inset}")
    lo = inset
    hi = side - inset
    return np.array([[lo, lo], [hi, lo], [hi, hi], [lo, hi]], dtype=np.float64)


class Timetable:
    """Validated transit schedule: routes, dwell times, headway, capacity.

    Args:
        routes: one ``(k, 2)`` way-point array, or a sequence of them.  Each
            route is a closed loop (the segment from the last way-point back
            to the first is implied); a 2-stop route is an out-and-back
            shuttle line.  Consecutive duplicate way-points (zero-length
            segments) are rejected.
        dwell: per-stop dwell time — a scalar applied to every stop of
            every route, or a per-route sequence whose elements are scalars
            or length-``k`` arrays.  Vehicles rest this long at each stop;
            riders can only board/alight while a vehicle is dwelling.
        headway: time offset between successive vehicles of a route (their
            trip starts are staggered by ``headway`` — frequency-based
            service).  ``None`` (default) spaces a route's vehicles evenly
            along the loop, the historical ferry placement.
        capacity: maximum riders aboard one vehicle (``None`` = unlimited).

    Derived per route ``i``: ``seg_lengths[i]``, ``cum[i]`` (cumulative arc
    length, ``cum[i][-1]`` closing the loop), ``lengths[i]``.
    """

    def __init__(self, routes, dwell=0.0, headway=None, capacity=None):
        routes = self._normalize_routes(routes)
        self.routes = []
        self.seg_lengths = []
        self.cum = []
        self.lengths = []
        for stops in routes:
            stops = np.array(stops, dtype=np.float64)
            if stops.ndim != 2 or stops.shape[1] != 2 or stops.shape[0] < 2:
                raise ValueError(
                    f"route must have shape (k>=2, 2), got {stops.shape}"
                )
            if not np.all(np.isfinite(stops)):
                raise ValueError("route way-points must be finite")
            segments = np.diff(np.vstack([stops, stops[:1]]), axis=0)
            seg_lengths = np.sqrt(np.sum(segments * segments, axis=1))
            if np.any(seg_lengths <= 0):
                raise ValueError("route contains zero-length segments")
            self.routes.append(stops)
            self.seg_lengths.append(seg_lengths)
            self.cum.append(np.concatenate([[0.0], np.cumsum(seg_lengths)]))
            self.lengths.append(float(self.cum[-1][-1]))
        self.dwell = self._normalize_dwell(dwell)
        if headway is not None and not headway > 0:
            raise ValueError(f"headway must be positive, got {headway}")
        self.headway = None if headway is None else float(headway)
        if capacity is not None:
            capacity = int(capacity)
            if capacity < 1:
                raise ValueError(f"capacity must be at least 1, got {capacity}")
        self.capacity = capacity

    @staticmethod
    def _normalize_routes(routes) -> list:
        arr = np.asarray(routes, dtype=object) if isinstance(routes, (list, tuple)) else routes
        if isinstance(routes, np.ndarray) and routes.ndim == 2:
            return [routes]
        if isinstance(routes, (list, tuple)):
            if not routes:
                raise ValueError("at least one route is required")
            first = np.asarray(routes[0], dtype=np.float64) if np.ndim(routes[0]) else None
            # A bare [[x, y], ...] way-point list is a single route.
            if np.ndim(routes[0]) == 1:
                return [routes]
            return list(routes)
        del arr
        raise ValueError("routes must be a (k, 2) array or a sequence of them")

    def _normalize_dwell(self, dwell) -> list:
        counts = [stops.shape[0] for stops in self.routes]
        if np.ndim(dwell) == 0:
            per_route = [dwell] * len(counts)
        else:
            per_route = list(dwell)
            if len(per_route) != len(counts):
                raise ValueError(
                    f"dwell must give one entry per route ({len(counts)}), "
                    f"got {len(per_route)}"
                )
        out = []
        for spec, k in zip(per_route, counts):
            arr = np.asarray(spec, dtype=np.float64)
            if arr.ndim == 0:
                arr = np.full(k, float(arr))
            if arr.shape != (k,):
                raise ValueError(
                    f"per-stop dwell must have shape ({k},), got {arr.shape}"
                )
            if not np.all(np.isfinite(arr)) or np.any(arr < 0):
                raise ValueError("dwell times must be finite and non-negative")
            out.append(arr)
        return out

    @property
    def n_routes(self) -> int:
        return len(self.routes)

    @property
    def zero_dwell(self) -> bool:
        """True when no stop has a positive dwell (pure patrol loops)."""
        return all(not np.any(d > 0) for d in self.dwell)

    def period(self, speed: float, route: int = 0) -> float:
        """Full-loop cycle time of one vehicle at ``speed`` on ``route``."""
        if speed <= 0:
            raise ValueError(f"speed must be positive, got {speed}")
        return self.lengths[route] / speed + float(np.sum(self.dwell[route]))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        stops = "+".join(str(s.shape[0]) for s in self.routes)
        return (
            f"Timetable(routes={self.n_routes} [{stops} stops], "
            f"headway={self.headway}, capacity={self.capacity})"
        )


def loop_timetable(
    side: float,
    inset: float = None,
    dwell=0.0,
    headway: float = None,
    capacity: int = None,
) -> Timetable:
    """A single rectangular loop — the ferry patrol as a timetable.

    Subsumes :func:`rectangle_route`: with ``dwell=0`` this is exactly the
    historical ferry service (corner way-points, no stops observed).
    """
    route = rectangle_route(side, side / 8.0 if inset is None else inset)
    return Timetable([route], dwell=dwell, headway=headway, capacity=capacity)


def grid_shuttle_timetable(
    side: float,
    lines: int = 2,
    inset: float = None,
    dwell=0.0,
    headway: float = None,
    capacity: int = None,
) -> Timetable:
    """Crossing shuttle lines: ``lines`` horizontal + ``lines`` vertical.

    Each line is a 2-stop out-and-back route spanning the square at evenly
    spaced offsets in ``[inset, side - inset]`` — a minimal grid transit
    network whose terminals sit near the Suburb walls.
    """
    if lines < 1:
        raise ValueError(f"lines must be at least 1, got {lines}")
    inset = side / 8.0 if inset is None else inset
    if not 0 <= inset < side / 2:
        raise ValueError(f"inset must be in [0, side/2), got {inset}")
    offsets = np.linspace(inset, side - inset, lines + 2)[1:-1] if lines > 1 else [side / 2.0]
    if lines > 1:
        offsets = np.linspace(inset, side - inset, lines)
    routes = []
    for y in offsets:
        routes.append(np.array([[inset, y], [side - inset, y]], dtype=np.float64))
    for x in offsets:
        routes.append(np.array([[x, inset], [x, side - inset]], dtype=np.float64))
    return Timetable(routes, dwell=dwell, headway=headway, capacity=capacity)


def _route_positions_at_arc(stops, seg_lengths, cum, length, arc) -> np.ndarray:
    """Positions along one route at the given arc lengths.

    Operation-for-operation the historical ``FerryPatrol._positions_at_arc``
    arithmetic — the bit-exactness anchor of the ferry refactor.
    """
    arc = np.mod(arc, length)
    seg = np.clip(np.searchsorted(cum, arc, side="right") - 1, 0, len(seg_lengths) - 1)
    offset = arc - cum[seg]
    start = stops[seg]
    nxt = stops[(seg + 1) % stops.shape[0]]
    direction = (nxt - start) / seg_lengths[seg][:, None]
    return start + direction * offset[:, None]


def _resolve_timetable(side, timetable, routes, dwell, headway, capacity) -> Timetable:
    """Shared facade plumbing: an explicit Timetable or config-shaped parts."""
    if timetable is not None:
        if routes is not None:
            raise ValueError("pass either timetable= or routes=, not both")
        if not isinstance(timetable, Timetable):
            raise ValueError(f"timetable must be a Timetable, got {type(timetable).__name__}")
        return timetable
    if routes is None:
        return loop_timetable(side, dwell=dwell, headway=headway, capacity=capacity)
    return Timetable(routes, dwell=dwell, headway=headway, capacity=capacity)


class _TimetableEngine:
    """Flat-array transit dynamics for ``len(rngs)`` replicas.

    The engine of :class:`BatchTimetableMobility`.  All state is flat:
    vehicle arrays are ``(B * V,)`` and rider arrays ``(B * R,)`` /
    ``(B * R, 2)``, grouped by replica in ascending order; every RNG draw
    goes through :func:`~repro.mobility.kinematics.replica_slices` so
    replica ``b`` consumes randomness only from ``rngs[b]``, in the order
    it would alone.
    Frozen replicas enter :meth:`advance` with zero budget and are excluded
    from the interaction masks: they neither move nor draw.
    """

    def __init__(self, timetable, n, side, speed, riders, board_radius, jitter, init, rngs):
        self.timetable = timetable
        self.side = float(side)
        self.speed = float(speed)
        self.rngs = list(rngs)
        self.batch_size = len(self.rngs)
        for stops in timetable.routes:
            if np.any(stops < 0) or np.any(stops > side):
                raise ValueError("route way-points must lie inside the square")
        riders = int(riders)
        if not 0 <= riders <= n - 1:
            raise ValueError(
                f"riders must be in [0, n - 1] (at least one vehicle), got {riders}"
            )
        self.n = int(n)
        self.R = riders
        self.V = self.n - riders
        if board_radius is None:
            board_radius = 0.05 * self.side
        if not board_radius > 0:
            raise ValueError(f"board_radius must be positive, got {board_radius}")
        self.board_radius = float(board_radius)
        if not 0 <= jitter <= 1:
            raise ValueError(f"jitter must be in [0, 1], got {jitter}")
        self.jitter = float(jitter)
        self._eps = 1e-9 * max(self.side, 1.0)
        self._eps_t = self._eps / max(self.speed, 1.0)
        self._zero_dwell = timetable.zero_dwell

        self._build_route_tables()
        self._build_vehicles(init)
        self._build_riders(init)

        B, n_total = self.batch_size, self.n
        # Assembled flat positions, refreshed in place each step: riders
        # first, vehicles after, per replica (the composite block order).
        self.flat_pos = np.empty((B * n_total, 2), dtype=np.float64)
        base = np.arange(B, dtype=np.intp)[:, None] * n_total
        self._rider_rows = (base + np.arange(self.R, dtype=np.intp)[None, :]).ravel()
        self._veh_rows = (base + self.R + np.arange(self.V, dtype=np.intp)[None, :]).ravel()
        self._veh_pos = self._vehicle_positions()
        self._sync_positions()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build_route_tables(self) -> None:
        tt = self.timetable
        nR = tt.n_routes
        kmax = max(stops.shape[0] for stops in tt.routes)
        self._k_arr = np.array([stops.shape[0] for stops in tt.routes], dtype=np.intp)
        self._len_by_route = np.array(tt.lengths, dtype=np.float64)
        self._cum_pad = np.full((nR, kmax + 1), np.inf, dtype=np.float64)
        self._dwell_pad = np.zeros((nR, kmax), dtype=np.float64)
        self._stops_pad = np.zeros((nR, kmax, 2), dtype=np.float64)
        for r in range(nR):
            k = self._k_arr[r]
            self._cum_pad[r, : k + 1] = tt.cum[r]
            self._dwell_pad[r, :k] = tt.dwell[r]
            self._stops_pad[r, :k] = tt.routes[r]

    def _build_vehicles(self, init) -> None:
        tt = self.timetable
        nR, V, B = tt.n_routes, self.V, self.batch_size
        # Contiguous route blocks, route-major: route r gets V//nR vehicles
        # plus one of the V % nR leftovers.
        counts = np.full(nR, V // nR, dtype=np.intp)
        counts[: V % nR] += 1
        route_tmpl = np.repeat(np.arange(nR, dtype=np.intp), counts)
        arc_tmpl = np.empty(V, dtype=np.float64)
        spacing_tmpl = np.empty(V, dtype=np.float64)
        start = 0
        for r in range(nR):
            v_r = int(counts[r])
            if v_r == 0:
                continue
            length = tt.lengths[r]
            if tt.headway is None:
                # Even spacing along the loop — the historical ferry
                # placement, expression preserved for bit-exactness.
                arc_tmpl[start : start + v_r] = (np.arange(v_r) / v_r) * length
            else:
                arc_tmpl[start : start + v_r] = np.mod(
                    np.arange(v_r) * (tt.headway * self.speed), length
                )
            spacing_tmpl[start : start + v_r] = length / v_r
            start += v_r

        self.veh_route = np.tile(route_tmpl, B)
        arcs = np.tile(arc_tmpl, B)
        if self.jitter > 0:
            # Honor the model's rng: per-replica phase jitter, a uniform
            # offset of up to ``jitter`` vehicle spacings along the loop.
            lengths = self._len_by_route[route_tmpl]
            for b in range(B):
                u = self.rngs[b].uniform(size=V)
                arcs[b * V : (b + 1) * V] = np.mod(
                    arc_tmpl + u * self.jitter * spacing_tmpl, lengths
                )
        self.veh_arc = arcs
        # First stop strictly ahead of the starting arc (a vehicle starting
        # exactly on a stop departs it; no initial dwell).
        next_stop = np.empty(B * V, dtype=np.intp)
        for r in range(nR):
            members = np.nonzero(self.veh_route == r)[0]
            if members.size:
                k = int(self._k_arr[r])
                ahead = np.searchsorted(tt.cum[r][:k], arcs[members], side="right")
                next_stop[members] = np.where(ahead == k, 0, ahead)
        self.veh_next_stop = next_stop
        self.veh_at_stop = np.full(B * V, -1, dtype=np.intp)
        self.veh_dwell_left = np.zeros(B * V, dtype=np.float64)
        self.veh_load = np.zeros(B * V, dtype=np.intp)
        self.veh_budget = np.empty(B * V, dtype=np.float64)
        self._route_members = [
            np.nonzero(self.veh_route == r)[0] for r in range(nR)
        ]

    def _build_riders(self, init) -> None:
        R, B = self.R, self.batch_size
        if R == 0:
            self.r_pos = np.empty((0, 2), dtype=np.float64)
            self.r_dest = np.empty((0, 2), dtype=np.float64)
            self.r_target = np.empty((0, 2), dtype=np.float64)
            self.r_second = np.empty(0, dtype=bool)
            self.r_vehicle = np.empty(0, dtype=np.intp)
            self.r_dest_stop = np.empty(0, dtype=np.intp)
            self.r_budget = np.empty(0, dtype=np.float64)
            self._scratch = None
            return
        states = [_initial_state(R, self.side, init, rng) for rng in self.rngs]
        self.r_pos = np.concatenate([s.positions for s in states], axis=0)
        self.r_dest = np.concatenate([s.destinations for s in states], axis=0)
        self.r_target = np.concatenate([s.targets for s in states], axis=0)
        self.r_second = np.concatenate([s.on_second_leg for s in states], axis=0)
        self.r_vehicle = np.full(B * R, -1, dtype=np.intp)
        self.r_dest_stop = np.full(B * R, -1, dtype=np.intp)
        self.r_budget = np.empty(B * R, dtype=np.float64)
        self._scratch = DenseLegScratch(B * R)

    # ------------------------------------------------------------------
    # Dynamics
    # ------------------------------------------------------------------
    def advance(self, dt: float, active=None) -> None:
        check_dt(dt)
        if active is None:
            active = np.ones(self.batch_size, dtype=bool)
        if self.R:
            self._interact(active)
        self._advance_vehicles(dt, active)
        self._veh_pos = self._vehicle_positions()
        if self.R:
            self._advance_riders(dt, active)
        self._sync_positions()

    def _advance_vehicles(self, dt: float, active) -> None:
        budget = self.veh_budget
        if active.all():
            budget.fill(float(dt))
        else:
            np.multiply(np.repeat(active, self.V), float(dt), out=budget)
        if self._zero_dwell:
            # Fast path: no stop ever observed, so the whole update is the
            # historical ferry arc advance — bit-exact with the
            # pre-refactor ``mod(arc + v*dt, length)`` arithmetic.
            lengths = self._len_by_route[self.veh_route]
            moving = budget > 0
            if moving.all():
                self.veh_arc = np.mod(self.veh_arc + self.speed * budget, lengths)
            elif np.any(moving):
                self.veh_arc[moving] = np.mod(
                    self.veh_arc[moving] + self.speed * budget[moving],
                    lengths[moving],
                )
            return
        arc, dwell_left = self.veh_arc, self.veh_dwell_left
        next_stop, at_stop = self.veh_next_stop, self.veh_at_stop
        k_arr, cum_pad, dwell_pad = self._k_arr, self._cum_pad, self._dwell_pad
        eps, eps_t, speed = self._eps, self._eps_t, self.speed
        for _ in range(kinematics._MAX_LEGS_PER_STEP):
            # Phase 1: dwelling vehicles burn dwell before moving.
            countdown_pauses(dwell_left, budget, min_budget=eps_t)
            # Phase 2: vehicles with no dwell left walk toward the next stop.
            moving = (dwell_left <= 0) & (budget > eps_t)
            idx = np.nonzero(moving)[0]
            if idx.size == 0:
                break
            at_stop[idx] = -1  # departures (and mid-segment no-ops)
            rid = self.veh_route[idx]
            s = next_stop[idx]
            k = k_arr[rid]
            target_arc = cum_pad[rid, np.where(s == 0, k, s)]
            d = target_arc - arc[idx]
            can = speed * budget[idx]
            arrive = can >= d - eps
            na = idx[~arrive]
            if na.size:
                # Mid-segment: additive advance (the mod-free half of the
                # fast-path arithmetic), full budget spent.
                arc[na] = arc[na] + can[~arrive]
                budget[na] = 0.0
            ar = idx[arrive]
            if ar.size == 0:
                continue
            s_ar = s[arrive]
            arc[ar] = np.where(s_ar == 0, 0.0, target_arc[arrive])
            budget[ar] -= d[arrive] / speed
            at_stop[ar] = s_ar
            dwell_left[ar] = dwell_pad[rid[arrive], s_ar]
            nxt = s_ar + 1
            next_stop[ar] = np.where(nxt == k[arrive], 0, nxt)
        else:  # pragma: no cover - defensive
            raise RuntimeError("vehicle carry-over loop did not converge")

    def _interact(self, active) -> None:
        """Start-of-step boarding and alighting (one decision point per step)."""
        B, R, V = self.batch_size, self.R, self.V
        rider_active = np.repeat(active, R)
        veh_active = np.repeat(active, V)
        dwelling = (self.veh_dwell_left > 0) & veh_active

        # Alight: the rider's vehicle is dwelling at its destination stop.
        riding = (self.r_vehicle >= 0) & rider_active
        ridx = np.nonzero(riding)[0]
        alighted = np.empty(0, dtype=np.intp)
        if ridx.size:
            v = self.r_vehicle[ridx]
            here = dwelling[v] & (self.veh_at_stop[v] == self.r_dest_stop[ridx])
            alighted = ridx[here]
            if alighted.size:
                va = self.r_vehicle[alighted]
                self.r_pos[alighted] = self._stops_pad[
                    self.veh_route[va], self.veh_at_stop[va]
                ]
                np.add.at(self.veh_load, va, -1)
                self.r_vehicle[alighted] = -1
                self.r_dest_stop[alighted] = -1
                # Fresh background trip from the stop (per-replica draws,
                # ascending agent order).
                redraw_manhattan_trips(
                    self.r_pos, self.r_dest, self.r_target, self.r_second,
                    alighted, self.side, self.rngs, R,
                )

        # Board: walking riders within board_radius of a stop where a
        # vehicle is dwelling with spare capacity.  Deterministic:
        # ascending rider id, lowest-index eligible vehicle.
        dw_all = np.nonzero(dwelling)[0]
        if dw_all.size == 0:
            return
        capacity = self.timetable.capacity
        walking = (self.r_vehicle < 0) & rider_active
        walking[alighted] = False  # no instant re-board on the alight step
        if not np.any(walking):
            return
        r2 = self.board_radius * self.board_radius
        boarded, boarded_veh = [], []
        for b, lo, hi in replica_slices(dw_all, V, B):
            dw = dw_all[lo:hi]
            spare = (
                np.full(dw.size, np.iinfo(np.intp).max, dtype=np.intp)
                if capacity is None
                else capacity - self.veh_load[dw]
            )
            if not np.any(spare > 0):
                continue
            w = np.nonzero(walking[b * R : (b + 1) * R])[0] + b * R
            if w.size == 0:
                continue
            pts = self._stops_pad[self.veh_route[dw], self.veh_at_stop[dw]]
            diff = self.r_pos[w][:, None, :] - pts[None, :, :]
            eligible = (diff * diff).sum(axis=2) <= r2
            for i in np.nonzero(eligible.any(axis=1))[0]:
                cols = np.nonzero(eligible[i] & (spare > 0))[0]
                if cols.size:
                    c = cols[0]
                    spare[c] -= 1
                    boarded.append(w[i])
                    boarded_veh.append(dw[c])
        if not boarded:
            return
        br = np.asarray(boarded, dtype=np.intp)
        bv = np.asarray(boarded_veh, dtype=np.intp)
        stop = self.veh_at_stop[bv]
        high = self._k_arr[self.veh_route[bv]] - 1
        draws = np.empty(br.size, dtype=np.int64)
        for b, lo, hi in replica_slices(br, R, B):
            # Destination stop uniform among the route's *other* stops.
            draws[lo:hi] = self.rngs[b].integers(0, high[lo:hi])
        self.r_dest_stop[br] = draws + (draws >= stop)
        self.r_vehicle[br] = bv
        np.add.at(self.veh_load, bv, 1)
        self.r_pos[br] = self._stops_pad[self.veh_route[bv], stop]

    def _advance_riders(self, dt: float, active) -> None:
        R, B = self.R, self.batch_size
        total = B * R
        budget = self.r_budget
        walking = (self.r_vehicle < 0) & np.repeat(active, R)
        np.multiply(walking, self.speed * dt, out=budget)
        eps = self._eps
        # On the compiled tier every pass is the sparse C pass, which beats
        # the numpy dense pass even when every rider moves; the two passes
        # are bit-interchangeable.
        dense_ok = get_kernel("advance_legs") is None
        for _ in range(kinematics._MAX_LEGS_PER_STEP):
            moving = budget > eps
            n_moving = int(np.count_nonzero(moving))
            if n_moving == 0:
                break
            if dense_ok and 2 * n_moving >= total:
                done = advance_legs_dense(
                    self.r_pos, self.r_target, budget, moving, n_moving, eps,
                    self._scratch,
                )
            else:
                idx = np.nonzero(moving)[0]
                done = advance_legs(self.r_pos, self.r_target, budget, idx, eps)
            if done.size == 0:
                break
            _corner_done, trip_done = split_completed_legs(
                done, self.r_second, self.r_target, self.r_dest
            )
            if trip_done.size:
                redraw_manhattan_trips(
                    self.r_pos, self.r_dest, self.r_target, self.r_second,
                    trip_done, self.side, self.rngs, R,
                )
        else:  # pragma: no cover - defensive
            raise RuntimeError("rider carry-over loop did not converge")
        # Riding riders travel with their vehicle.
        aboard = np.nonzero(self.r_vehicle >= 0)[0]
        if aboard.size:
            self.r_pos[aboard] = self._veh_pos[self.r_vehicle[aboard]]

    # ------------------------------------------------------------------
    # Position synthesis
    # ------------------------------------------------------------------
    def _vehicle_positions(self) -> np.ndarray:
        tt = self.timetable
        out = np.empty((self.batch_size * self.V, 2), dtype=np.float64)
        for r, members in enumerate(self._route_members):
            if members.size:
                out[members] = _route_positions_at_arc(
                    tt.routes[r], tt.seg_lengths[r], tt.cum[r], tt.lengths[r],
                    self.veh_arc[members],
                )
        return out

    def _sync_positions(self) -> None:
        if self.R:
            self.flat_pos[self._rider_rows] = self.r_pos
        self.flat_pos[self._veh_rows] = self._veh_pos


class TimetableMobility(MobilityModel):
    """Schedule-driven transit mobility (vehicles + riders).

    The one-replica view of :class:`BatchTimetableMobility`.  Agents
    ``0 .. riders-1`` are riders — MRWP pedestrians that board a dwelling
    vehicle when close enough to its stop (capacity permitting) and ride
    to a uniformly drawn destination stop; agents ``riders .. n-1`` are
    vehicles running the timetable's stop→dwell→leg cycles.

    Args:
        n: total agents (riders + vehicles; at least one vehicle).
        side, speed, rng: see :class:`~repro.mobility.base.MobilityModel`
            (riders and vehicles share the speed).
        timetable: an explicit :class:`Timetable`; mutually exclusive with
            ``routes``.
        routes: config-shaped way-point routes (see :class:`Timetable`);
            defaults to :func:`loop_timetable`'s rectangular loop.
        dwell, headway, capacity: :class:`Timetable` fields, used when
            ``timetable`` is omitted.
        riders: rider count (default 0 — vehicles only, the ferry case).
        board_radius: boarding distance to a dwelling vehicle's stop
            (default ``0.05 * side``).
        jitter: per-vehicle phase jitter drawn from ``rng`` — a uniform
            arc offset of up to ``jitter`` vehicle spacings (default 0,
            fully deterministic placement).
        init: rider-background initialization mode (MRWP vocabulary).
    """

    def __init__(
        self, n: int, side: float, speed: float, rng=None,
        timetable: Timetable = None, routes=None, dwell=0.0, headway: float = None,
        capacity: int = None, riders: int = 0, board_radius: float = None,
        jitter: float = 0.0, init="stationary",
    ):
        super().__init__(
            BatchTimetableMobility(
                n, side, speed, self._rngs(rng), timetable=timetable, routes=routes,
                dwell=dwell, headway=headway, capacity=capacity, riders=riders,
                board_radius=board_radius, jitter=jitter, init=init,
            )
        )

    @property
    def timetable(self) -> Timetable:
        return self.batch.timetable

    @property
    def n_riders(self) -> int:
        return self.batch.n_riders

    @property
    def n_vehicles(self) -> int:
        return self.batch.n_vehicles

    @property
    def vehicle_positions(self) -> np.ndarray:
        """Copy of the vehicle block's positions, shape ``(V, 2)``."""
        return self.batch._engine._veh_pos.copy()

    @property
    def riding_mask(self) -> np.ndarray:
        """Per-rider bool: currently aboard a vehicle."""
        return self.batch._engine.r_vehicle >= 0

    @property
    def vehicle_loads(self) -> np.ndarray:
        """Copy of the per-vehicle rider counts."""
        return self.batch._engine.veh_load.copy()

    @property
    def dwelling_mask(self) -> np.ndarray:
        """Per-vehicle bool: currently dwelling at a stop."""
        return self.batch._engine.veh_dwell_left > 0


class BatchTimetableMobility(BatchMobilityModel):
    """Timetable mobility for ``B`` replicas, advanced in lock-step.

    The flat engine over ``B`` generators: vehicle cycles are
    deterministic and riders' draws (alight redraws, boarding destination
    stops, background MRWP trips) are grouped by replica in ascending
    order, so each replica draws what it would alone.

    Args: as :class:`TimetableMobility`, with ``rngs`` in place of ``rng``.
    """

    def __init__(
        self, n: int, side: float, speed: float, rngs,
        timetable: Timetable = None, routes=None, dwell=0.0, headway: float = None,
        capacity: int = None, riders: int = 0, board_radius: float = None,
        jitter: float = 0.0, init="stationary",
    ):
        super().__init__(n, side, speed, rngs)
        self.timetable = _resolve_timetable(side, timetable, routes, dwell, headway, capacity)
        self._engine = _TimetableEngine(
            self.timetable, self.n, self.side, self.speed,
            riders, board_radius, jitter, init, self.rngs,
        )
        # The engine refreshes this buffer in place; the base accessors
        # (positions / positions_view) read it directly.
        self._pos = self._engine.flat_pos

    @property
    def n_riders(self) -> int:
        return self._engine.R

    @property
    def n_vehicles(self) -> int:
        return self._engine.V

    def step(self, dt: float = 1.0, active=None, copy: bool = True) -> np.ndarray:
        active = self._active_mask(active)
        self._engine.advance(dt, active)
        self.time += dt
        return self.positions if copy else self.positions_view
