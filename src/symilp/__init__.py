"""symilp: exact rational solvers for highly symmetric (I)LPs."""

from .corepoint import core_points, solve_core_point
from .instances import HtcParams, gen_hypertruncated_cube, gen_wild, htc_r, symmetrize
from .layers import coprime_direction, solve_by_layers
from .lpcore import coordinate_bounds, solve_lp, solve_lp_on_line
from .model import (
    ILPInstance,
    Outcome,
    brute_force_ilp,
    normalize,
    read_instance,
    write_instance,
)
from .reduction import build_reduced, orbit_sum_rows, solve_symmetric_lp
from .symdetect import build_full_graph, build_reduced_graph
from .symmetry import (
    GroupSpec,
    SignedPermutation,
    basis_orbits,
    fixed_space,
    fixing_equations,
    is_symmetry,
    verify_symmetric_group_invariance,
)

__all__ = [
    "ILPInstance",
    "Outcome",
    "GroupSpec",
    "SignedPermutation",
    "HtcParams",
    "normalize",
    "read_instance",
    "write_instance",
    "brute_force_ilp",
    "solve_lp",
    "solve_lp_on_line",
    "coordinate_bounds",
    "is_symmetry",
    "fixed_space",
    "fixing_equations",
    "basis_orbits",
    "verify_symmetric_group_invariance",
    "orbit_sum_rows",
    "build_reduced",
    "solve_symmetric_lp",
    "coprime_direction",
    "solve_by_layers",
    "core_points",
    "solve_core_point",
    "build_reduced_graph",
    "build_full_graph",
    "gen_hypertruncated_cube",
    "gen_wild",
    "htc_r",
    "symmetrize",
]
