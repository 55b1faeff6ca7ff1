"""Network substrate: disk graphs and their connectivity."""

from repro.network.batch_union_find import BatchUnionFind, batch_mst_bottleneck
from repro.network.connectivity import (
    batch_connectivity_profile,
    batch_connectivity_threshold,
    uniform_connectivity_threshold,
)
from repro.network.disk_graph import DiskGraph

__all__ = [
    "DiskGraph",
    "BatchUnionFind",
    "batch_mst_bottleneck",
    "uniform_connectivity_threshold",
    "batch_connectivity_threshold",
    "batch_connectivity_profile",
]
