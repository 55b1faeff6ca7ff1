"""Network substrate: disk graphs and their connectivity."""

from repro.network.batch_union_find import (
    BatchUnionFind,
    batch_components_from_edges,
    batch_mst_bottleneck,
    mst_bottleneck,
)
from repro.network.connectivity import (
    batch_connectivity_profile,
    batch_connectivity_threshold,
    connectivity_profile,
    estimate_connectivity_threshold,
    uniform_connectivity_threshold,
    zone_connectivity,
)
from repro.network.disk_graph import DiskGraph
from repro.network.union_find import UnionFind, components_from_edges

__all__ = [
    "DiskGraph",
    "UnionFind",
    "BatchUnionFind",
    "components_from_edges",
    "batch_components_from_edges",
    "mst_bottleneck",
    "batch_mst_bottleneck",
    "uniform_connectivity_threshold",
    "estimate_connectivity_threshold",
    "batch_connectivity_threshold",
    "connectivity_profile",
    "batch_connectivity_profile",
    "zone_connectivity",
]
