"""Message-ferry mobility (paper ref [30], Zhao-Ammar-Zegura) and composition.

A *message ferry* is a dedicated agent moving along a fixed patrol route to
carry data across sparse regions — the engineering answer to the problem the
paper solves probabilistically (information crossing the disconnected
Suburb).  :class:`FerryPatrol` provides deterministic loop-following agents
and :class:`CompositeMobility` glues them onto a background MRWP population,
so the delay-tolerant-routing example can compare "wait for Lemma-16
meetings" against "add ferries".

The ferry is a thin specialization of the timetable family
(:mod:`repro.mobility.timetable`): a zero-dwell single-route timetable with
no riders.  The zero-dwell engine path reproduces the historical
arc-length arithmetic bit for bit (asserted by a pinned regression test).
As everywhere in :mod:`repro.mobility`, the batch models
(:class:`BatchFerryPatrol`, :class:`BatchCompositeMobility`) are the one
implementation, and :class:`FerryPatrol` and :class:`CompositeMobility`
are their one-replica views.
"""

from __future__ import annotations

import numpy as np

from repro.mobility.base import BatchMobilityModel, MobilityModel, check_dt
from repro.mobility.timetable import (
    BatchTimetableMobility,
    Timetable,
    TimetableMobility,
    rectangle_route,
)

__all__ = [
    "FerryPatrol",
    "BatchFerryPatrol",
    "CompositeMobility",
    "BatchCompositeMobility",
    "composite_with_ferries",
    "batch_composite_with_ferries",
    "rectangle_route",
]


class FerryPatrol(TimetableMobility):
    """Deterministic agents looping along a closed polyline at constant speed.

    The one-replica view of :class:`BatchFerryPatrol`: a zero-dwell,
    single-route, rider-free timetable, so vehicles never stop and their
    trajectory is the historical constant-speed arc advance.

    Args:
        n: number of ferries, spaced evenly along the route.
        side: region side (route points must lie inside).
        speed: ferry speed.
        route: ``(k, 2)`` way-points of the closed loop (the segment from
            the last point back to the first is implied); defaults to
            :func:`rectangle_route` at distance ``inset`` from the walls.
        rng: randomness source, consumed only when ``jitter > 0``.
        inset: wall distance of the default rectangular route (only used
            when ``route`` is omitted); defaults to ``side / 8``.
        jitter: optional phase jitter — each ferry's starting arc is
            offset by a uniform draw of up to ``jitter`` ferry spacings
            (default 0: deterministic even spacing, no rng consumed).
    """

    def __init__(
        self, n: int, side: float, speed: float, route: np.ndarray = None,
        rng=None, inset: float = None, jitter: float = 0.0,
    ):
        # The twin is a BatchFerryPatrol, not the timetable view's twin.
        MobilityModel.__init__(
            self,
            BatchFerryPatrol(
                n, side, speed, self._rngs(rng), route=route, inset=inset, jitter=jitter
            ),
        )

    @property
    def route(self) -> np.ndarray:
        return self.batch.route

    @property
    def route_length(self) -> float:
        return self.batch.route_length

    @property
    def _arc(self) -> np.ndarray:
        return self.batch._arc


class BatchFerryPatrol(BatchTimetableMobility):
    """Ferry patrol for ``B`` replicas in lock-step.

    Without jitter every replica carries the identical patrol.

    Args: as :class:`FerryPatrol`, with ``rngs`` in place of ``rng``.
    """

    def __init__(
        self, n: int, side: float, speed: float, rngs,
        route: np.ndarray = None, inset: float = None, jitter: float = 0.0,
    ):
        if route is None:
            route = rectangle_route(side, side / 8.0 if inset is None else inset)
        timetable = Timetable([np.asarray(route, dtype=np.float64)])
        super().__init__(
            n, side, speed, rngs, timetable=timetable, jitter=jitter,
        )
        self.route = timetable.routes[0]
        self.route_length = timetable.lengths[0]

    @property
    def _arc(self) -> np.ndarray:
        return self._engine.veh_arc


class CompositeMobility(MobilityModel):
    """Concatenation of several mobility models into one agent population.

    Agent indices are assigned block-wise in the order the models are given
    (e.g. MRWP agents ``0..n-1`` followed by ferries ``n..n+f-1``).  The
    view of the :class:`BatchCompositeMobility` of the members' twins, so
    stepping the composite steps each member.
    """

    def __init__(self, models):
        models = list(models)
        super().__init__(BatchCompositeMobility([model.batch for model in models]))
        self.models = models

    def block_slices(self) -> list:
        """Index slice of each composed model's agents, in composition order."""
        return self.batch.block_slices()


class BatchCompositeMobility(BatchMobilityModel):
    """Block-wise concatenation of batch models, advanced in lock-step.

    Each member keeps its own ``(B, n_i, 2)`` state and the composite
    maintains an assembled ``(B, sum n_i, 2)`` buffer, members in the
    order given.  All members must share the batch size and, within
    ``1e-9``, the side.
    """

    def __init__(self, models):
        models = list(models)
        if not models:
            raise ValueError("at least one model is required")
        batch_size = models[0].batch_size
        side = models[0].side
        for model in models[1:]:
            if model.batch_size != batch_size:
                raise ValueError("all composed models must share the batch size")
            if abs(model.side - side) > 1e-9:
                raise ValueError("all composed models must share the same side length")
        total = sum(model.n for model in models)
        super().__init__(
            total, side, max(model.speed for model in models), models[0].rngs
        )
        self.models = models
        self._pos = np.empty((batch_size * total, 2), dtype=np.float64)
        self._gather()

    def block_slices(self) -> list:
        """Per-replica index slice of each member, in composition order."""
        out = []
        start = 0
        for model in self.models:
            out.append(slice(start, start + model.n))
            start += model.n
        return out

    def _gather(self) -> None:
        buf = self._pos.reshape(self.batch_size, self.n, 2)
        for model, block in zip(self.models, self.block_slices()):
            buf[:, block, :] = model.positions_view

    def step(self, dt: float = 1.0, active=None, copy: bool = True) -> np.ndarray:
        check_dt(dt)
        active = self._active_mask(active)
        for model in self.models:
            model.step(dt, active=active, copy=False)
        self.time += dt
        self._gather()
        return self.positions if copy else self.positions_view


def _check_ferries(n: int, ferries: int) -> None:
    if not 1 <= ferries <= n - 2:
        raise ValueError(
            f"ferries must be in [1, n - 2] (need an MRWP background), got {ferries}"
        )


def composite_with_ferries(
    n: int,
    side: float,
    speed: float,
    rng: np.random.Generator = None,
    ferries: int = 1,
    inset: float = None,
    init="stationary",
) -> CompositeMobility:
    """An MRWP background population with a ferry patrol block appended.

    The config-shaped constructor behind ``mobility="composite"``: the
    delay-tolerant-routing composition (MRWP agents ``0..n-ferries-1``,
    ferries after) as a single registered model, so experiments can select
    it by name.  Ferries are deterministic, so all randomness lives in the
    MRWP block.  The view of :func:`batch_composite_with_ferries` at B=1.

    Args:
        n: total agents, ferries included.
        side, speed, rng: as for :class:`~repro.mobility.base.MobilityModel`
            (both blocks share the speed and the generator).
        ferries: ferry count (at least 1, leaving at least 2 MRWP agents).
        inset: wall distance of the rectangular patrol route
            (default ``side / 8``).
        init: MRWP-block initialization mode.
    """
    from repro.mobility.mrwp import ManhattanRandomWaypoint

    ferries = int(ferries)
    _check_ferries(n, ferries)
    background = ManhattanRandomWaypoint(n - ferries, side, speed, rng=rng, init=init)
    patrol = FerryPatrol(ferries, side, speed, rng=background.rng, inset=inset)
    return CompositeMobility([background, patrol])


def batch_composite_with_ferries(
    n: int,
    side: float,
    speed: float,
    rngs,
    ferries: int = 1,
    inset: float = None,
    init="stationary",
) -> BatchCompositeMobility:
    """:func:`composite_with_ferries` for ``B`` replicas, same block layout
    (MRWP background first, ferries after)."""
    from repro.mobility.mrwp import BatchManhattanRandomWaypoint

    ferries = int(ferries)
    _check_ferries(n, ferries)
    background = BatchManhattanRandomWaypoint(n - ferries, side, speed, rngs, init=init)
    patrol = BatchFerryPatrol(ferries, side, speed, rngs)
    return BatchCompositeMobility([background, patrol])
