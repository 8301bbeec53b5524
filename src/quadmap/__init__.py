"""Balanced quadrangles and the edge-to-angle dynamical map."""

from .core import (
    AngleTuple,
    CanonicalLabeling,
    EdgeTuple,
    FeasibleSegment,
    PlanarPolygon,
    QuadrangleError,
    balanced_edges,
    balanced_edges_oracle,
    canonicalize,
    degenerate_edges_first,
    degenerate_edges_second,
    prop1_fractions,
    realize_polygon,
    reflect_labels_angles,
    reflect_labels_edges,
    rotate_labels,
    validate_angles,
)
from .dynamics import (
    A_STAR,
    CycleInfo,
    Trajectory,
    c_map,
    dihedral_distance,
    iterate,
    rotation_distance,
    step,
    trapezoid_angles,
    trapezoid_cycle_pair,
    trapezoid_edges,
)
from .solvers import (
    ChartPoint,
    SolveResult,
    SolverError,
    StabilityReport,
    cycle_system_rhs,
    eigenvalue_moduli_3x3,
    fd_jacobian,
    solve_cycle_system,
    solve_trapezoid_fixed_point,
    stability_report,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
