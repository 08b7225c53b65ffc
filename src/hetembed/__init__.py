"""Curvature-aware graph embeddings into products of space forms and a
rotationally symmetric radial factor."""

from .graph import (
    Graph,
    FormanSignal,
    UNREACHABLE,
    bfs_apsp,
    connected_pairs,
    forman,
    forman_dirichlet_energy,
    from_edges,
    from_mask,
    load_edge_list,
    save_edge_list,
    triangle_counts,
)
from .manifold import (
    Factor,
    ManifoldSpec,
    alpha_from_range,
    annular_volume,
    distance,
    exp_map,
    parse_manifold,
    riemannian_gradient,
    rotsym_curvature,
    rotsym_curvature_derivative,
    rotsym_curvature_inverse,
    rotsym_sectional,
    scalar_curvature,
)
from .optim import (
    Embedding,
    ShiftConstants,
    TrainConfig,
    gradients,
    initialize,
    loss_curvature,
    loss_distance,
    loss_total,
    rsgd_step,
    train,
)

__version__ = "0.1.0"
