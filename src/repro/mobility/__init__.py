"""Mobility substrate: the MRWP model, baselines, and stationary samplers.

Each model has one implementation, a :class:`BatchMobilityModel` in
:data:`BATCH_MOBILITY_REGISTRY`; the scalar models of
:data:`MODEL_REGISTRY` are its one-replica views.
"""

from repro.mobility.base import (
    BatchMobilityModel,
    MobilityModel,
    record_trajectory,
)
from repro.mobility.distributions import (
    QUADRANTS,
    SEGMENTS,
    cell_mass,
    cross_probability,
    cross_probability_total,
    destination_pdf,
    mean_trip_length,
    quadrant_masses,
    region_mass,
    spatial_marginal_cdf,
    spatial_marginal_pdf,
    spatial_pdf,
    spatial_pdf_max,
    spatial_pdf_min,
)
from repro.mobility.ferry import (
    BatchCompositeMobility,
    BatchFerryPatrol,
    CompositeMobility,
    FerryPatrol,
    batch_composite_with_ferries,
    composite_with_ferries,
    rectangle_route,
)
from repro.mobility.mrwp import BatchManhattanRandomWaypoint, ManhattanRandomWaypoint
from repro.mobility.pause import (
    BatchManhattanRandomWaypointWithPause,
    ManhattanRandomWaypointWithPause,
    moving_probability,
    spatial_pdf_with_pause,
)
from repro.mobility.random_direction import BatchRandomDirection, RandomDirection
from repro.mobility.random_walk import BatchRandomWalk, RandomWalk
from repro.mobility.rwp import BatchRandomWaypoint, RandomWaypoint
from repro.mobility.speed_range import (
    BatchRandomSpeedManhattanWaypoint,
    RandomSpeedManhattanWaypoint,
    cold_start_speed_decay,
    sample_stationary_speeds,
    stationary_mean_speed,
)
from repro.mobility.stationary import (
    ClosedFormStationarySampler,
    KinematicState,
    PalmStationarySampler,
    sample_destination_given_position,
    sample_stationary_positions,
)
from repro.mobility.timetable import (
    BatchTimetableMobility,
    Timetable,
    TimetableMobility,
    grid_shuttle_timetable,
    loop_timetable,
)

MODEL_REGISTRY = {
    "mrwp": ManhattanRandomWaypoint,
    "mrwp-pause": ManhattanRandomWaypointWithPause,
    "mrwp-speed": RandomSpeedManhattanWaypoint,
    "rwp": RandomWaypoint,
    "random-walk": RandomWalk,
    "random-direction": RandomDirection,
    "ferry": FerryPatrol,
    "composite": composite_with_ferries,
    "timetable": TimetableMobility,
}
"""Name -> constructor mapping used by the config/CLI layer and the
ablation experiments (``composite`` maps to a config-shaped factory).
Every entry builds a one-replica view of its
:data:`BATCH_MOBILITY_REGISTRY` twin."""

BATCH_MOBILITY_REGISTRY = {
    "mrwp": BatchManhattanRandomWaypoint,
    "mrwp-pause": BatchManhattanRandomWaypointWithPause,
    "mrwp-speed": BatchRandomSpeedManhattanWaypoint,
    "rwp": BatchRandomWaypoint,
    "random-walk": BatchRandomWalk,
    "random-direction": BatchRandomDirection,
    "ferry": BatchFerryPatrol,
    "composite": batch_composite_with_ferries,
    "timetable": BatchTimetableMobility,
}
"""The one implementation of each model, key-compatible with
:data:`MODEL_REGISTRY` (the batch counterpart of
``repro.protocols.BATCH_PROTOCOL_REGISTRY``; ``composite`` maps to a
config-shaped factory).  A config builds an entry with the arguments it
gives the :data:`MODEL_REGISTRY` entry
(``repro.simulation.runner.mobility_arguments``), ``rngs=`` in place of
``rng=``, and a config naming a model without an entry here is refused
when it is built."""

NO_INIT_MODELS = frozenset({"random-walk", "random-direction", "ferry"})
"""Registered models with no stationary-initialization vocabulary: their
starting state is defined by the model itself (uniform walkers, uniform
directions, evenly spaced ferries), so passing ``init=`` to them is a
config error rather than a silently dropped option."""

__all__ = [
    "MobilityModel",
    "BatchMobilityModel",
    "BatchManhattanRandomWaypoint",
    "BatchManhattanRandomWaypointWithPause",
    "BatchRandomSpeedManhattanWaypoint",
    "BatchRandomDirection",
    "BatchRandomWaypoint",
    "BatchRandomWalk",
    "record_trajectory",
    "ManhattanRandomWaypoint",
    "ManhattanRandomWaypointWithPause",
    "moving_probability",
    "spatial_pdf_with_pause",
    "RandomWaypoint",
    "RandomWalk",
    "RandomDirection",
    "RandomSpeedManhattanWaypoint",
    "stationary_mean_speed",
    "sample_stationary_speeds",
    "cold_start_speed_decay",
    "FerryPatrol",
    "BatchFerryPatrol",
    "CompositeMobility",
    "BatchCompositeMobility",
    "composite_with_ferries",
    "batch_composite_with_ferries",
    "rectangle_route",
    "Timetable",
    "TimetableMobility",
    "BatchTimetableMobility",
    "loop_timetable",
    "grid_shuttle_timetable",
    "MODEL_REGISTRY",
    "BATCH_MOBILITY_REGISTRY",
    "NO_INIT_MODELS",
    "KinematicState",
    "PalmStationarySampler",
    "ClosedFormStationarySampler",
    "sample_stationary_positions",
    "sample_destination_given_position",
    "spatial_pdf",
    "spatial_pdf_max",
    "spatial_pdf_min",
    "spatial_marginal_pdf",
    "spatial_marginal_cdf",
    "cell_mass",
    "region_mass",
    "destination_pdf",
    "quadrant_masses",
    "cross_probability",
    "cross_probability_total",
    "mean_trip_length",
    "QUADRANTS",
    "SEGMENTS",
]
