"""Geometric substrate: points, Manhattan paths, spatial indexes, samplers.

Also the probe surface: ``available_backends()`` lists the neighbor
engines this environment can build, and ``kernel_backend()`` /
``use_kernel_tier()`` / ``kernel_tier_label()`` are re-exported from
:mod:`repro.kernels` so callers can probe and scope the compiled tier
(which also picks the batch neighbor path) from one import.
"""

from repro.geometry.grid import GridIndex
from repro.geometry.neighbors import (
    BatchNeighborQuery,
    BoundSnapshot,
    BruteForceNeighborEngine,
    GridNeighborEngine,
    KDTreeNeighborEngine,
    NeighborEngine,
    available_backends,
    make_engine,
)
from repro.geometry.paths import (
    HORIZONTAL_FIRST,
    VERTICAL_FIRST,
    ManhattanPath,
    choose_corners,
    leg_lengths,
    path_corner,
    position_along_path,
)
from repro.geometry.points import (
    as_points,
    chebyshev_distance,
    clamp_to_square,
    corner_distance,
    euclidean_distance,
    in_square,
    manhattan_distance,
    manhattan_distance_to_box,
    pairwise_euclidean,
    pairwise_manhattan,
)
from repro.geometry.sampling import (
    sample_beta22,
    sample_length_biased_pair,
    sample_uniform_disk,
    sample_uniform_square,
)
from repro.kernels import (
    KERNEL_TIERS,
    kernel_backend,
    kernel_tier_label,
    use_kernel_tier,
)

__all__ = [
    "GridIndex",
    "NeighborEngine",
    "BoundSnapshot",
    "GridNeighborEngine",
    "KDTreeNeighborEngine",
    "BruteForceNeighborEngine",
    "BatchNeighborQuery",
    "make_engine",
    "available_backends",
    "KERNEL_TIERS",
    "kernel_backend",
    "kernel_tier_label",
    "use_kernel_tier",
    "ManhattanPath",
    "VERTICAL_FIRST",
    "HORIZONTAL_FIRST",
    "choose_corners",
    "path_corner",
    "leg_lengths",
    "position_along_path",
    "as_points",
    "euclidean_distance",
    "manhattan_distance",
    "chebyshev_distance",
    "pairwise_euclidean",
    "pairwise_manhattan",
    "clamp_to_square",
    "in_square",
    "corner_distance",
    "manhattan_distance_to_box",
    "sample_uniform_square",
    "sample_beta22",
    "sample_length_biased_pair",
    "sample_uniform_disk",
]
