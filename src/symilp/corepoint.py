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

from .layers import scan_prologue
from .model import ILPInstance, Outcome, INFEASIBLE, OPTIMAL
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


def solve_core_point(
    inst: ILPInstance,
    assume_transitive: bool = False,
    trace: dict | None = None,
) -> Outcome:
    """Core point scan for ILP(A, b, 1): at most n feasibility checks.

    Maintains the m dot products incrementally while single coordinates of
    the representative drop from q+1 to q, so a whole scan costs O(mn)
    beyond the O(mn) initialization (within the O(mn^2) contract).
    ``trace`` receives ``lp_s`` and ``feasibility_checks``, and the
    certificate's ``certificate`` and ``certificate_s`` unless
    ``assume_transitive``.
    """
    n = inst.n
    if n < 2:
        raise ValueError("core point scan needs n >= 2")
    # Alt(n) supplies the layer all-or-nothing property only from n = 4 up;
    # Alt(3) is the cyclic group and merely transitive.
    accepted = (FULL_SYMMETRIC, ALTERNATING) if n >= 4 else (FULL_SYMMETRIC,)
    zeta = scan_prologue(inst, accepted, assume_transitive, "core point scan", trace)
    if zeta is None:
        return Outcome(INFEASIBLE)
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
            if trace is not None:
                trace["feasibility_checks"] = checks
            point = (q + 1,) * d + (q,) * (n - d)
            return Outcome(OPTIMAL, point=point, value=Fraction(n * q + d))
        d -= 1
        if d >= 0:
            col = d
            dots = [s - row[col] for s, row in zip(dots, rows)]
    if trace is not None:
        trace["feasibility_checks"] = checks
    return Outcome(INFEASIBLE)
