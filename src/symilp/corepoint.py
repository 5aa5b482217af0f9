"""Core points of 1-layers and the core point scan.

On the layer {sum x = k} with k = qn + r, the integral points closest to
the center (k/n)*1 are exactly the vectors with r entries q+1 and n-r
entries q: vertices of an (r,n)-hypersimplex translated by q*1.  If the
symmetry group acts (floor(n/2)+1)-transitively, a layer is feasible iff
its core points are, so one representative check per layer decides the ILP.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import floor

from .errors import UnboundedRelaxation
from .layers import check_scan_gate
from .lpcore import solve_lp_on_line
from .model import ILPInstance, Outcome, INFEASIBLE, OPTIMAL, UNBOUNDED
from .symmetry import ALTERNATING, FULL_SYMMETRIC


@dataclass(frozen=True)
class CoreRepresentative:
    """The scan's canonical core point: d raised coordinates, leftmost."""

    q: int
    d: int
    n: int

    def point(self) -> tuple:
        return (self.q + 1,) * self.d + (self.q,) * (self.n - self.d)

    @property
    def layer(self) -> int:
        return self.n * self.q + self.d


def core_points(n: int, k: int) -> list:
    """All core points of the k-th 1-layer in dimension n; C(n, k mod n) many."""
    if n < 1:
        raise ValueError("n >= 1 required")
    q, r = divmod(k, n)
    pts = []
    for raised in combinations(range(n), r):
        x = [q] * n
        for i in raised:
            x[i] = q + 1
        pts.append(tuple(x))
    return pts


def core_distance_sq(n: int, k: int) -> Fraction:
    """Squared distance from any core point of layer k to the layer center."""
    r = k - n * (k // n)
    return Fraction(r * (n - r), n)


def core_distance_check(n: int, k: int, x) -> bool:
    """True iff x realizes the minimum distance to the center of its layer."""
    if sum(x) != k:
        raise ValueError("x is not on layer k")
    center = Fraction(k, n)
    d2 = sum((Fraction(v) - center) ** 2 for v in x)
    return d2 == core_distance_sq(n, k)


def representative_oracle(inst: ILPInstance, k: int):
    """Per-layer oracle testing only the canonical core point.

    Sound under the (floor(n/2)+1)-transitivity hypothesis; plugs into
    solve_by_layers as the bridge between the two solvers.
    """
    n = inst.n
    q, d = divmod(k, n)
    x = CoreRepresentative(q, d, n).point()
    return x if inst.is_feasible(x) else None


def solve_core_point(
    inst: ILPInstance,
    assume_transitive: bool = False,
    stats: dict | None = None,
    _zeta=None,
) -> Outcome:
    """Core point scan for ILP(A, b, 1): at most n feasibility checks.

    Maintains the m dot products incrementally while single coordinates of
    the representative drop from q+1 to q, so a whole scan costs O(mn)
    beyond the O(mn) initialization (within the O(mn^2) contract).
    """
    n = inst.n
    if n < 2:
        raise ValueError("core point scan needs n >= 2")
    # Alt(n) supplies the layer all-or-nothing property only from n = 4 up;
    # Alt(3) is the cyclic group and merely transitive.
    accepted = (FULL_SYMMETRIC, ALTERNATING) if n >= 4 else (FULL_SYMMETRIC,)
    check_scan_gate(inst, accepted, assume_transitive, "core point scan")
    if _zeta is None:
        status, zeta = solve_lp_on_line(inst)
        if status == UNBOUNDED:
            raise UnboundedRelaxation(inst.name or "relaxation unbounded along 1")
        if status == INFEASIBLE:
            return Outcome(INFEASIBLE)
    else:
        zeta = _zeta
    q = floor(zeta)
    d = floor(n * zeta) - n * q
    rows = inst.rows
    # dot products of every row with (q+1,...,q+1,q,...,q), d raised entries
    dots = [q * sum(row[:-1]) + sum(row[:d]) for row in rows]
    rhs = [row[-1] for row in rows]
    checks = 0
    while d >= 0:
        checks += 1
        if all(s <= b for s, b in zip(dots, rhs)):
            if stats is not None:
                stats["feasibility_checks"] = checks
            point = (q + 1,) * d + (q,) * (n - d)
            return Outcome(OPTIMAL, point=point, value=Fraction(n * q + d))
        d -= 1
        if d >= 0:
            col = d
            dots = [s - row[col] for s, row in zip(dots, rows)]
    if stats is not None:
        stats["feasibility_checks"] = checks
    return Outcome(INFEASIBLE)
