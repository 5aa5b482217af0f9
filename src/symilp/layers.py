"""Layers of integer points orthogonal to the objective direction.

For a projectively rational objective c with coprime integer direction d,
the affine hyperplanes {x : d^t x = k} partition Z^n.  The layer scan
solves ILP(A, b, 1) by walking k downward from the relaxation optimum and
asking a per-layer feasibility oracle for an integral point.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import floor
from time import perf_counter
from typing import NamedTuple

from . import symdetect
from .errors import (
    BoxTooLarge,
    EmptySystem,
    InfeasibleRegion,
    InfeasibleZeroRow,
    ObjectiveNotOnes,
    ResultCheckFailed,
    TransitivityNotEstablished,
    UnboundedRelaxation,
    ZeroObjective,
)
from .lpcore import integer_box, solve_lp_on_line
from .model import (
    ILPInstance,
    Outcome,
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    classes_admit,
    explicit_box,
    normalize,
    satisfies_rows,
)
from .ratlin import scale_coprime
from .symmetry import ALTERNATING, FULL_SYMMETRIC, NONE
from .symmetry import basis_orbits, verify_symmetric_group_invariance

LAYER_NODE_BUDGET = 10**7  # nodes one layer's enumeration may visit


@dataclass(frozen=True)
class CoprimeDirection:
    direction: tuple


def coprime_direction(c) -> CoprimeDirection:
    """The unique coprime integer vector that is a positive multiple of c."""
    if not any(c):
        raise ZeroObjective("zero vector has no direction")
    return CoprimeDirection(scale_coprime(tuple(Fraction(v) for v in c)))


def layer_number(d: CoprimeDirection, x) -> int:
    return sum(dv * xv for dv, xv in zip(d.direction, x))


def _xgcd(a: int, b: int):
    """(g, x, y) with a*x + b*y = g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def layer_witness(d: CoprimeDirection, k: int) -> tuple:
    """An integral point on layer k, from an iterated Bezout identity."""
    g = 0
    coeffs = []
    for v in d.direction:
        g, u, w = _xgcd(g, v)
        coeffs = [u * c for c in coeffs]
        coeffs.append(w)
    if g != 1:
        raise ValueError(f"direction entries {d.direction} are not coprime")
    return tuple(k * c for c in coeffs)


class ScanPlan(NamedTuple):
    """What the certificate's ``tier`` lets the all-ones scans do on ``inst``.

    ``stab1``: Sym(n), or Alt(n) from n = 4 (Alt(3) is merely transitive).
    A layer's box may then be solved over Fix(Stab(1)), and one core point
    decides a layer.  ``sorted_points``: Sym(n).  Every row class is then a
    whole orbit, so only nondecreasing points need enumerating, and
    classes_admit checks a point exactly.
    """

    inst: ILPInstance
    tier: str
    stab1: bool
    sorted_points: bool


def scan_plan(inst: ILPInstance) -> ScanPlan:
    """The scan plan of ``inst``, from one run of the certificate: the one
    place that turns a tier into what the scans may do.  It never refuses;
    under NONE the plan allows nothing beyond the rows."""
    tier = verify_symmetric_group_invariance(inst)
    full = tier == FULL_SYMMETRIC
    return ScanPlan(inst, tier, full or (tier == ALTERNATING and inst.n >= 4), full)


def _slice_box(plan: ScanPlan, k: int):
    """Integer coordinate bounds valid on P(A,b) /\\ {sum x = k}, None if empty.

    Under ``plan.stab1`` the slice is G-invariant, so every coordinate has
    x_1's bounds, whose LPs run over Fix(Stab(1)) = span(e_1, 1 - e_1).
    That plane meets the slice in a line: x = u e_1 + w (1 - e_1) with
    w = (k - u) / (n - 1).  So a class with key a and coefficient sum S
    gives one row (n v - S | (n - 1) b - (S - v) k) in u alone per distinct
    value v of a, and no row is read.  A zero row 0 <= b' < 0 empties the
    slice; when every row is zero the slice is the whole line, which raises
    BoxTooLarge.  Otherwise explicit single-variable rows are used when they
    bound every coordinate; failing that, exact LP bounds on the slice.  An
    open side raises BoxTooLarge.
    """
    inst = plan.inst
    n = inst.n
    name = f"{inst.name}#layer{k}"
    if plan.stab1:
        if n == 1:  # the slice is the one point k, and 1 - e_1 is zero
            return [(k, k)] if classes_admit(inst.row_classes, (k,)) else None
        rows = []
        for key in inst.row_classes:
            *a, b = key
            S = sum(a)
            rows += [(n * v - S, (n - 1) * b - (S - v) * k) for v in set(a)]
        try:
            return [integer_box(normalize(rows, (1,), name=name))[0]] * n
        except (InfeasibleZeroRow, InfeasibleRegion):
            return None  # a class is 0 <= b < 0 on the line, or the slice is empty
        except EmptySystem:
            raise BoxTooLarge(f"{name} is unbounded; no finite box") from None
    box = explicit_box(inst)
    if box is not None:
        return box
    # inst.rows are canonical and the two +-1 rows coprime: nothing to rescale
    slab = ((1,) * n + (k,), (-1,) * n + (-k,))
    try:
        return integer_box(ILPInstance(inst.rows + slab, inst.c, name=name))
    except InfeasibleRegion:
        return None  # the slice misses P entirely


def enumeration_oracle(plan: ScanPlan, k: int):
    """The layer scan's oracle: search integral points of P with sum k.

    Depth-first over coordinates inside the layer box, pruning on the
    reachable range of the remaining partial sum; the first feasible point
    in lexicographic order is returned, else None.  Under
    ``plan.sorted_points`` that point is nondecreasing, and only such points
    are enumerated (Margot, "Pruning by isomorphism in branch-and-cut",
    2002).  A search that visits more than LAYER_NODE_BUDGET nodes raises
    BoxTooLarge.
    """
    inst = plan.inst
    n = inst.n
    budget = LAYER_NODE_BUDGET
    box = _slice_box(plan, k)
    if box is None:
        return None
    suffix_lo = [0] * (n + 1)
    suffix_hi = [0] * (n + 1)
    for j in range(n - 1, -1, -1):
        suffix_lo[j] = suffix_lo[j + 1] + box[j][0]
        suffix_hi[j] = suffix_hi[j + 1] + box[j][1]
    ordered = plan.sorted_points
    if ordered:
        check = partial(classes_admit, inst.row_classes)
    else:
        check = partial(satisfies_rows, inst.rows)
    x = [0] * n
    rem = [k] * (n + 1)  # rem[j] = k - sum(x[:j])
    visited = 0

    def values(j: int):
        lo, hi = box[j]
        r = rem[j]
        top = r - suffix_lo[j + 1]
        if ordered:  # x[j - 1] <= x[j] <= every later coordinate
            if j:
                lo = max(lo, x[j - 1])
            top = r // (n - j)
        return iter(range(max(lo, r - suffix_hi[j + 1]), min(hi, top) + 1))

    # one value iterator per coordinate fixed so far, instead of recursion
    stack = [values(0)]
    while stack:
        j = len(stack) - 1
        v = next(stack[j], None)
        if v is None:
            stack.pop()
            continue
        visited += 1
        if visited > budget:
            raise BoxTooLarge(f"layer enumeration exceeded {budget} nodes")
        x[j] = v
        rem[j + 1] = rem[j] - v
        if j + 1 < n:
            stack.append(values(j + 1))
        elif rem[n] == 0 and check(x):
            return tuple(x)
    return None


def scan_down(inst: ILPInstance, trace: dict | None = None, core_test=None) -> Outcome:
    """The all-ones scans: k runs from floor(n*zeta) down to n*floor(zeta),
    zeta from the LP on the line, and the first layer with a point is optimal.

    The core point scan passes ``core_test``, which makes its per-layer test
    from the plan, and needs ``plan.stab1``.  Without it, enumeration_oracle
    tests each layer under any tier but NONE, or else under a detected group
    that moves coordinate 1 to all n.  Refusals come before the LP.  ``trace``
    receives ``classes_s``, ``row_classes``, ``certificate``,
    ``certificate_s`` (the certificate alone), ``lp_s``, ``pivots_phase1``,
    ``pivots_phase2`` and ``layers_scanned``.
    """
    scan = "layer scan" if core_test is None else "core point scan"
    if any(cj != 1 for cj in inst.c):
        raise ObjectiveNotOnes(f"{scan} is defined for c = 1")
    trace = {} if trace is None else trace
    t0 = perf_counter()
    classes = inst.row_classes
    t1 = perf_counter()
    plan = scan_plan(inst)
    trace["classes_s"] = t1 - t0
    trace["row_classes"] = len(classes)
    trace["certificate"] = plan.tier
    trace["certificate_s"] = perf_counter() - t1
    if core_test is not None:
        accepted, needs = plan.stab1, "Sym(n), or Alt(n) with n >= 4"
    else:
        accepted, needs = plan.tier != NONE, "a transitive group"
        if not accepted:
            G = symdetect.detect(inst, "reduced", trace=trace).group
            accepted = len({abs(v) for v in basis_orbits(G)[0]}) == inst.n  # e_1 reaches all n
    if not accepted:
        raise TransitivityNotEstablished(f"certificate level {plan.tier!r}; {scan} needs {needs}")
    test = partial(enumeration_oracle, plan) if core_test is None else core_test(plan)
    t0 = perf_counter()
    # (sum a | b) is constant on a class: one sorted row per class gives zeta
    status, zeta = solve_lp_on_line(ILPInstance(classes, inst.c, name=inst.name), trace)
    trace["lp_s"] = perf_counter() - t0
    if status == UNBOUNDED:
        raise UnboundedRelaxation(inst.name or "relaxation unbounded along 1")
    n = inst.n
    layers = range(floor(n * zeta), n * floor(zeta) - 1, -1) if zeta is not None else ()
    trace["layers_scanned"] = 0
    for k in layers:
        trace["layers_scanned"] += 1
        point = test(k)
        if point is not None:
            if sum(point) != k or not inst.is_feasible(point):
                raise ResultCheckFailed(f"{scan} returned a bad point for layer {k}")
            return Outcome(OPTIMAL, point=tuple(point), value=Fraction(k))
    return Outcome(INFEASIBLE)


def solve_by_layers(inst: ILPInstance, trace: dict | None = None) -> Outcome:
    """Layer-scan solver for ILP(A, b, 1) under a transitive symmetry group:
    scan_down with enumeration_oracle as the test of each layer."""
    return scan_down(inst, trace)
