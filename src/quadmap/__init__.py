"""Balanced quadrangles and the edge-to-angle dynamical map.

The package root exports the names README's Library and Errors sections
import; every other name imports from its module (`quadmap.core`,
`quadmap.dynamics`, `quadmap.solvers`, ...).
"""

from .core import AngleTuple, QuadrangleError, balanced_edges
from .dynamics import iterate, step
from .solvers import SolverError

__all__ = ["AngleTuple", "QuadrangleError", "SolverError", "balanced_edges", "iterate", "step"]
