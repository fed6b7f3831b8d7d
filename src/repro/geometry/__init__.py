"""Geometry substrate: transducer, focal grid, traversal orders and apodization."""

from .apodization import (
    WindowType,
    aperture_apodization,
    combined_receive_weights,
    directivity_weights,
    window_1d,
)
from .coordinates import (
    cartesian_to_spherical,
    distances,
    off_axis_angle,
    pairwise_distances,
    spherical_to_cartesian,
    squared_distances,
)
from .transducer import MatrixTransducer
from .traversal import (
    TraversalStats,
    TraversalStep,
    analyze_traversal,
    compare_orders,
    nappe_order,
    nappe_order_indices,
    orders_visit_same_points,
    scanline_order,
    scanline_order_indices,
)
from .volume import FocalGrid

__all__ = [
    "MatrixTransducer",
    "FocalGrid",
    "WindowType",
    "window_1d",
    "aperture_apodization",
    "directivity_weights",
    "combined_receive_weights",
    "spherical_to_cartesian",
    "cartesian_to_spherical",
    "distances",
    "pairwise_distances",
    "squared_distances",
    "off_axis_angle",
    "TraversalStep",
    "TraversalStats",
    "scanline_order",
    "nappe_order",
    "scanline_order_indices",
    "nappe_order_indices",
    "analyze_traversal",
    "compare_orders",
    "orders_visit_same_points",
]
