"""Core points of 1-layers and the core point scan.

On the layer {sum x = k} with k = qn + r, the integral points closest to
the center (k/n)*1 are exactly the vectors with r entries q+1 and n-r
entries q: vertices of an (r,n)-hypersimplex translated by q*1.  If the
symmetry group acts (floor(n/2)+1)-transitively, a layer is feasible iff
its core points are, so one representative check per layer decides the ILP.
The scan checks it against the row classes, not the rows: one sort per row
builds them, and then each check costs O(1) per class.
"""

from itertools import accumulate, combinations

from .layers import scan_down
from .model import ILPInstance, Outcome


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


def _representative_test(plan):
    """The core point scan's test of layer k = q*n + d under ``plan``.

    It tests the representative (q+1,...,q+1,q,...,q), d raised entries.  A
    row of a class reaches at most q*sum(a) plus the d largest entries of a
    there, so ``top[d] <= b - q*top[-1]``, top the prefix sums of the key
    from its largest entry, is model.classes_admit at the representative:
    exact under ``plan.stab1``, and on any rows a bound on every row.
    """
    n = plan.inst.n
    classes = [(list(accumulate(reversed(key[:-1]), initial=0)), key[-1]) for key in plan.inst.row_classes]

    def test(k: int):
        q, d = divmod(k, n)
        if all(top[d] <= b - q * top[-1] for top, b in classes):
            return (q + 1,) * d + (q,) * (n - d)
        return None

    return test


def solve_core_point(inst: ILPInstance, trace: dict | None = None) -> Outcome:
    """Core point scan for ILP(A, b, 1) under Sym(n), or Alt(n) with n >= 4:
    layers.scan_down with at most n representative checks, whose number
    ``trace["layers_scanned"]`` receives."""
    return scan_down(inst, trace, _representative_test)
