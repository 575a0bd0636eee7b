"""P2P topology substrate: generators, I/O and graph metrics.

The paper evaluates on the SNAP ``ego-Facebook`` graph (4,039 nodes, 88,234
edges).  Without network access we provide a calibrated generative substitute
(:func:`repro.graphs.social.facebook_like_graph`) plus loaders for the real
SNAP edge-list format so the original dataset can be dropped in.
"""

from repro.graphs.adjacency import CompressedAdjacency
from repro.graphs.social import FacebookLikeConfig, facebook_like_graph
from repro.graphs.generators import (
    connected_watts_strogatz,
    cycle_union_adjacency,
    grid_graph,
)
from repro.graphs.io import load_snap_edge_list, save_snap_edge_list
from repro.graphs.metrics import (
    GraphSummary,
    bfs_distances,
    degree_statistics,
    estimate_diameter,
    average_clustering,
    summarize_graph,
)
from repro.graphs.communities import label_propagation_communities

__all__ = [
    "CompressedAdjacency",
    "FacebookLikeConfig",
    "facebook_like_graph",
    "connected_watts_strogatz",
    "cycle_union_adjacency",
    "grid_graph",
    "load_snap_edge_list",
    "save_snap_edge_list",
    "GraphSummary",
    "bfs_distances",
    "degree_statistics",
    "estimate_diameter",
    "average_clustering",
    "summarize_graph",
    "label_propagation_communities",
]
