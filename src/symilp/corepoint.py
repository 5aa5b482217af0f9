"""Core points of 1-layers and the core point scan.

On the layer {sum x = k} with k = qn + r, the integral points closest to
the center (k/n)*1 are exactly the vectors with r entries q+1 and n-r
entries q: vertices of an (r,n)-hypersimplex translated by q*1.  If the
symmetry group acts (floor(n/2)+1)-transitively, a layer is feasible iff
its core points are, so one representative check per layer decides the ILP.
The scan checks it against the row classes, not the rows: one sort per row
builds them, and then each check costs O(1) per class.
"""

from fractions import Fraction
from itertools import accumulate, combinations
from math import floor

from .layers import scan_prologue
from .model import ILPInstance, Outcome, INFEASIBLE, OPTIMAL
from .symmetry import ALTERNATING, FULL_SYMMETRIC


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


def solve_core_point(inst: ILPInstance, trace: dict | None = None) -> Outcome:
    """Core point scan for ILP(A, b, 1): at most n feasibility checks.

    Each check tests the representative (q+1,...,q+1,q,...,q), d raised
    entries, against the row classes: the most a row of a class reaches
    there is q*sum(a) plus the d largest entries of a, so ``top[d] <= room``
    is model.classes_admit at the representative.  Under Sym(n), or
    Alt(n) with n >= 4, some row of the class reaches it, so the check is
    exact; on any rows it bounds every row, so a returned point is feasible.
    Cost: one sort per row to build the classes, O(n) set-up per class,
    then O(1) per class and check.
    ``trace`` receives ``classes_s``, ``row_classes``, ``certificate``,
    ``certificate_s``, ``lp_s`` and ``layers_scanned``, the number of checks.
    """
    n = inst.n
    # Alt(n) supplies the layer all-or-nothing property only from n = 4 up;
    # Alt(3) is the cyclic group and merely transitive.
    accepted = (FULL_SYMMETRIC, ALTERNATING) if n >= 4 else (FULL_SYMMETRIC,)
    zeta = scan_prologue(inst, accepted, "core point scan", trace)
    if zeta is None:
        return Outcome(INFEASIBLE)
    q = floor(zeta)
    d = floor(n * zeta) - n * q
    # per class, top[j] is the sum of its j largest coefficients, and the
    # representative passes iff top[d] <= b - q*sum(a) for every class
    classes = []
    for key in inst.row_classes:
        top = list(accumulate(reversed(key[:-1]), initial=0))
        classes.append((top, key[-1] - q * top[-1]))
    out = Outcome(INFEASIBLE)
    scanned = 0
    for d in range(d, -1, -1):
        scanned += 1
        if all(top[d] <= room for top, room in classes):
            point = (q + 1,) * d + (q,) * (n - d)
            out = Outcome(OPTIMAL, point=point, value=Fraction(n * q + d))
            break
    if trace is not None:
        trace["layers_scanned"] = scanned
    return out
