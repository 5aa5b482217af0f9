"""Symmetric LP reduction: the LP over Fix(G), in dim Fix variables.

The orbit-summed program A'x <= b', Ex = 0 (the equations encoded as paired
inequalities), which ``symilp reduce`` writes, has the same optimum.
"""

from dataclasses import dataclass

from .errors import NotASymmetry, ResultCheckFailed
from .lpcore import solve_lp
from .model import ILPInstance, Outcome, OPTIMAL, normalize
from .symmetry import GroupSpec, fixed_space, fixing_equations, is_symmetry, orbit


@dataclass(frozen=True)
class ReducedProgram:
    summed_rows: tuple  # (a_1, ..., a_n, b) exact orbit sums
    fixing: tuple  # rows of E
    instance: ILPInstance  # A'x <= b', Ex = 0 as paired rows, normalized


def _check_group(inst: ILPInstance, G: GroupSpec) -> None:
    for g in G.generators:
        if not is_symmetry(inst, g):
            raise NotASymmetry(f"generator {g.image} does not fix {inst.name or 'instance'}")


def orbit_sum_rows(inst: ILPInstance, G: GroupSpec) -> tuple:
    """One summed (a | b) row per orbit of rows under a -> a*gamma."""
    _check_group(inst, G)
    done = set()
    summed = []
    for row in inst.rows:
        if row in done:
            continue
        members = orbit([row], G.generators, lambda g, r: g.apply_to_row(r[:-1]) + (r[-1],))
        done |= members
        summed.append(tuple(map(sum, zip(*members))))
    return tuple(summed)


def build_reduced(inst: ILPInstance, G: GroupSpec) -> ReducedProgram:
    """The orbit sums, E, and the normalized instance of both, each e.x = 0
    as the rows e.x <= 0 and -e.x <= 0; an orbit sum 0 <= b' < 0 raises
    InfeasibleZeroRow."""
    summed = orbit_sum_rows(inst, G)
    fixing = fixing_equations(G)
    rows = [*summed]
    for e in fixing:
        rows += [(*e, 0), (*(-v for v in e), 0)]
    return ReducedProgram(summed, fixing, normalize(rows, inst.c, name=f"{inst.name}#reduced"))


def solve_symmetric_lp(inst: ILPInstance, G: GroupSpec) -> Outcome:
    """Solve the LP over Fix(G); some optimum of a G-invariant LP lies there."""
    _check_group(inst, G)
    out = solve_lp(inst, fixed_space(G))
    if out.status == OPTIMAL:
        if not inst.is_feasible(out.point):
            raise ResultCheckFailed(
                f"solve_symmetric_lp: infeasible point for {inst.name or 'instance'}"
            )
        if any(g.apply(out.point) != out.point for g in G.generators):
            raise ResultCheckFailed("solve_symmetric_lp: point leaves the fixed space")
    return out
