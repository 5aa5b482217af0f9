"""Symmetric LP reduction: orbit-summed rows plus fixed-space equations.

Solving the reduced program A'x <= b', Ex = 0 (the equations encoded as
paired inequalities) recovers an optimal solution of the original LP with
the same objective value.
"""

from dataclasses import dataclass

from .errors import InfeasibleZeroRow, NotASymmetry, ResultCheckFailed
from .lpcore import solve_lp
from .model import ILPInstance, INFEASIBLE, Outcome, OPTIMAL, normalize
from .symmetry import GroupSpec, fixing_equations, is_symmetry, orbit


@dataclass(frozen=True)
class ReducedProgram:
    summed_rows: tuple  # (a_1, ..., a_n, b) exact orbit sums
    fixing: tuple  # rows of E
    objective: tuple
    origin: ILPInstance


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
    return ReducedProgram(
        summed_rows=orbit_sum_rows(inst, G),
        fixing=fixing_equations(G),
        objective=inst.c,
        origin=inst,
    )


def reduced_instance(rp: ReducedProgram, name=None) -> ILPInstance:
    """Reduced program as a plain instance; Ex = 0 becomes paired rows."""
    rows = list(rp.summed_rows)
    for e in rp.fixing:
        rows.append(tuple(e) + (0,))
        rows.append(tuple(-v for v in e) + (0,))
    return normalize(rows, rp.objective, name=name or f"{rp.origin.name}#reduced")


def solve_symmetric_lp(inst: ILPInstance, G: GroupSpec) -> Outcome:
    """Solve the reduced LP; the answer is optimal for the original LP."""
    rp = build_reduced(inst, G)
    try:
        red = reduced_instance(rp)
    except InfeasibleZeroRow:
        # A zero orbit sum with negative right hand side certifies emptiness.
        return Outcome(INFEASIBLE)
    out = solve_lp(red)
    if out.status == OPTIMAL:
        if not inst.is_feasible(out.point):
            raise ResultCheckFailed(
                f"solve_symmetric_lp: infeasible point for {inst.name or 'instance'}"
            )
        for e in rp.fixing:
            if sum(ev * xv for ev, xv in zip(e, out.point)) != 0:
                raise ResultCheckFailed("solve_symmetric_lp: point leaves the fixed space")
    return out
