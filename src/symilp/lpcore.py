"""Exact rational linear programming over Ax <= b with free variables.

Two-phase simplex on an integer tableau with one column per variable: each
free x_j is pivoted into the basis before phase 1, by a ratio test over the
slack rows with b_i >= 0, and never leaves (Chvatal 1983).  So the ratio
tests and phase 1 see only the slack rows, and phase 1 makes no pivot when
b >= 0.
Infeasibility is handled with a single auxiliary variable, and Bland's
smallest-index rule is used in both phases so termination is guaranteed on
the heavily degenerate symmetric instances this toolkit produces.  Bland's
rule can still take exponentially many pivots (Avis and Chvatal 1978), so
a run that needs more than PIVOT_BUDGET of them raises SearchBudgetExceeded.

The tableau is fraction-free (integer pivoting, as in Edmonds 1967 and in
Avis's lrs) and stored by columns, each over its own denominator: the
absolute determinant of the basis at the pivot that last rewrote it.  A
pivot rewrites only the columns with a nonzero in its row, the pivot row
being sparse where the entering column is dense; every division is exact
(Bareiss), and no float, tolerance or gcd is used, as in the exact LP of
Applegate, Cook, Dash and Espinoza (2007).  Ratios are compared on the
numerators of one column; Fractions are built only for the returned point
and value: the result checks read the integer numerators.
solve_lp, the one LP entry point, also solves over x = F y for a basis F of
a fixed space; the LP on the line is the case F = (1, ..., 1).
"""

from fractions import Fraction
from itertools import compress, count
from math import ceil, floor
from operator import itemgetter, mul, neg

from .errors import BoxTooLarge, EmptySystem, InfeasibleRegion, InfeasibleZeroRow
from .errors import ObjectiveNotOnes, ResultCheckFailed, SearchBudgetExceeded
from .model import ILPInstance, INFEASIBLE, Outcome, OPTIMAL, UNBOUNDED, normalize
from .ratlin import clear_denominators

PIVOT_BUDGET = 100000  # pivots one simplex run may make


class _Tableau:
    """Column-major integer simplex dictionary for max c^t x, Ax + s = b,
    s >= 0, x free.

    Variable ids: 0..n-1 structurals, n..n+m-1 slacks, n+m the phase-1
    auxiliary.  cols[k] holds m + 1 ints, one per basic row and the
    objective row last, for nonbasic position k, and cols[-1] is the rhs:
    row i reads y_basis[i] = cols[-1][i] / den[-1] + sum_k cols[k][i] /
    den[k] * y_nonbasic[k], and the objective row reads z the same way,
    times the integer scale of the objective (_maximize).  den[k] > 0 is
    the absolute determinant of the basis when column k was last
    rewritten, and D that of the current basis.  By the Bareiss
    invariant every entry of the dictionary times D is a subdeterminant of
    the input, so lifting a column to D and the pivot's update both divide
    exactly, and each numerator is bounded by Hadamard's bound.  Each
    structural enters by entry_row's ratio test, which keeps a feasible
    start feasible; one with no nonzero slack entry moves along a line
    inside the region, so it stays nonbasic at 0 with its column zero on
    every slack row.  ``pivots`` counts the pivots made after those entries.
    """

    def __init__(self, inst: ILPInstance):
        m, n = inst.m, inst.n
        self.m, self.n = m, n
        self.aux = n + m
        self.nonbasic = list(range(n))
        self.basis = list(range(n, n + m))
        *cols, rhs = zip(*inst.rows)
        self.cols = [[-a for a in col] + [0] for col in cols] + [[*rhs, 0]]
        self.den = [1] * (n + 1)
        self.D = 1
        self.pivots = 0
        for j in range(n):
            l = self.entry_row(j)
            if l is not None:
                self.pivot(j, l)
        self.pivots = 0  # the entries above are not counted

    def entry_row(self, j: int):
        """The slack row on which the free x_j enters, or None.

        Among the slack rows with r_j != 0 and rhs >= 0, the one whose limit
        rhs / |r_j| on x_j is least, compared by cross-multiplication with
        ties toward the smaller row: every row with rhs >= 0 keeps it after
        the pivot.  With no such row, the first slack row with r_j != 0.
        """
        basis, n, col, rhs = self.basis, self.n, self.cols[j], self.cols[-1]
        best = first = None
        for i in compress(range(self.m), col):
            if basis[i] < n:
                continue
            if first is None:
                first = i
            b, a = rhs[i], abs(col[i])
            if b >= 0 and (best is None or b * best_a < best_b * a):
                best, best_b, best_a = i, b, a
        return first if best is None else best

    def pivot(self, e: int, l: int) -> None:
        """Enter nonbasic position e, leave basic row l.

        Column e is lifted to D; each other column k with a nonzero w in
        row l is lifted too and becomes (c * |p| - sign(p) * w * c_e) / D
        over |p|, with -sign(p) * w in row l.  A column already over D (most
        of them) needs no lift, so its update is one product fewer and one
        exact division fewer per entry.  A column with a zero in row l
        keeps its values and its list.  Column e becomes sign(p) * c_e over
        |p|, with sign(p) * D in row l.
        """
        cols, den, D = self.cols, self.den, self.D
        ce = cols[e] if den[e] == D else [v * D // den[e] for v in cols[e]]
        p = ce[l]
        ap = abs(p)
        sp = 1 if p > 0 else -1
        q = ap * D
        for k in compress(range(len(cols)), map(itemgetter(l), cols)):
            if k == e:
                continue
            c, dk = cols[k], den[k]
            if dk == D:
                g = sp * c[l]
                new = [(v * ap - g * f) // D for v, f in zip(c, ce)]
            else:
                g = sp * (c[l] * D // dk)
                # the lifted c * D / dk, times |p|, in one exact division
                new = [(v * q // dk - g * f) // D for v, f in zip(c, ce)]
            new[l] = -g
            cols[k] = new
            den[k] = ap
        if p < 0:
            ce = list(map(neg, ce))
        ce[l] = sp * D
        cols[e] = ce
        den[e] = self.D = ap
        self.nonbasic[e], self.basis[l] = self.basis[l], self.nonbasic[e]
        self.pivots += 1

    def bland_entering(self):
        m, nonbasic = self.m, self.nonbasic
        up = [k for k, col in zip(range(len(nonbasic)), self.cols) if col[m] > 0]
        return min(up, key=nonbasic.__getitem__, default=None)

    def bland_leaving(self, e: int):
        # the limit of row i is b_i / t_i with t_i = -a_ie > 0, numerators
        # over one denominator per column; compare b_i / t_i < b_best / t_best
        # as b_i * t_best < b_best * t_i, and break ties toward the smaller
        # basic variable; structurals never leave
        basis, n, col, rhs = self.basis, self.n, self.cols[e], self.cols[-1]
        best_row = None
        for i in compress(range(self.m), col):
            t = -col[i]
            if t > 0 and basis[i] >= n and (
                best_row is None
                or (rhs[i] * best_t, basis[i]) < (best_b * t, basis[best_row])
            ):
                best_row, best_b, best_t = i, rhs[i], t
        return best_row

    def run(self) -> str:
        for spent in count():
            e = self.bland_entering()
            if e is None:
                return OPTIMAL
            l = self.bland_leaving(e)
            if l is None:
                return UNBOUNDED
            if spent == PIVOT_BUDGET:
                raise SearchBudgetExceeded(f"simplex over {PIVOT_BUDGET} pivots")
            self.pivot(e, l)


def _phase1(t: _Tableau) -> bool:
    """Drive the tableau to feasibility; False means infeasible."""
    m, n, rhs = t.m, t.n, t.cols[-1]
    slack_rows = [i for i, v in enumerate(t.basis) if v >= n]
    worst = min(slack_rows, key=lambda i: (rhs[i], t.basis[i]), default=None)
    if worst is None or rhs[worst] >= 0:
        return True
    # the objective row is still zero after the entries: w = -aux over den 1
    pos = len(t.nonbasic)
    t.nonbasic.append(t.aux)
    t.cols.insert(pos, [int(v >= n) for v in t.basis] + [-1])
    t.den.insert(pos, 1)
    t.pivot(pos, worst)
    if t.run() != OPTIMAL:
        raise ResultCheckFailed("phase 1: w = -aux <= 0 came out unbounded")
    if t.cols[-1][m] < 0:
        return False
    if t.aux in t.basis:
        # Degenerate at zero: pivot the auxiliary out.  Its row is never all
        # zero: it is r^T [A | I | u] over the nonbasic columns, where r is
        # the auxiliary's row of the inverse basis and u its input column.
        # r vanishes on the basic structurals' and slacks' columns and
        # r.u = 1, so r_i != 0 for some nonbasic slack i, whose column then
        # holds -r_i there.
        l = t.basis.index(t.aux)
        t.pivot(next(compress(count(), map(itemgetter(l), t.cols[:-1]))), l)
    p = t.nonbasic.index(t.aux)
    del t.nonbasic[p], t.cols[p], t.den[p]
    return True


def _numerators(t: _Tableau) -> list:
    """den[-1] * x_j for each structural: its row's rhs if basic, else 0."""
    vals = dict(zip(t.basis, t.cols[-1]))
    return [vals.get(j, 0) for j in range(t.n)]


def _maximize(t: _Tableau, inst: ILPInstance, c):
    """max c^t x from the feasible tableau t of inst, which stays feasible.

    Returns the optimal value, whose point is _numerators(t) over t.den[-1],
    or None when the LP is unbounded.  c (ints or Fractions) is scaled to
    integers by clear_denominators, and each column's objective entry, over
    den[k] times that scale, is one dot product of the scaled c
    with the column's entries on the basic structurals' rows, plus c_j *
    den[k] where column k is the nonbasic x_j's.  A nonbasic structural
    with a nonzero entry there is a free line that improves c, so the LP
    is unbounded.  The optimum is checked in ints: the numerators over
    den[-1] must satisfy inst (ILPInstance.admits), and the scaled c times
    them must be the objective row's value.
    """
    ws, scale = clear_denominators(c)
    m, n = t.m, t.n
    basic = [(i, ws[v]) for i, v in enumerate(t.basis) if v < n and ws[v]]
    rows = [i for i, _ in basic]
    wb = [w for _, w in basic]
    for col, v, d in zip(t.cols, t.nonbasic + [m + n], t.den):
        col[m] = sum(map(mul, wb, map(col.__getitem__, rows))) + (ws[v] * d if v < n else 0)
    if any(t.cols[k][m] for k, v in enumerate(t.nonbasic) if v < n) or t.run() == UNBOUNDED:
        return None
    xs = _numerators(t)
    if not inst.admits(xs, t.den[-1]):
        raise ResultCheckFailed(f"simplex: infeasible point for {inst.name or 'instance'}")
    if sum(map(mul, ws, xs)) != t.cols[-1][m]:
        raise ResultCheckFailed(f"simplex: value mismatch for {inst.name or 'instance'}")
    return Fraction(t.cols[-1][m], t.den[-1] * scale)


def solve_lp(inst: ILPInstance, basis=None, trace: dict | None = None) -> Outcome:
    """Exact optimum of the relaxation max c^t x, Ax <= b.

    With a basis (a list of integer vectors f_1..f_k, each of length n) the
    LP is solved over x = F y: its rows are the distinct (a.f_1, ..., a.f_k | b),
    its objective c F.  A vector of another length raises ValueError.
    ``trace`` receives ``pivots_phase1`` and ``pivots_phase2`` when the
    simplex runs; phase 1 makes none when the starting basis is feasible.
    """
    lp = inst
    if basis is not None:
        for f in basis:
            if len(f) != inst.n:
                raise ValueError(f"basis vector of length {len(f)} for n = {inst.n}")
        c = tuple(sum(map(mul, inst.c, f)) for f in basis)
        # a.f: map stops at the end of f, before the rhs b
        cols = [[sum(map(mul, row, f)) for row in inst.rows] for f in basis]
        # m projected rows collapse onto few: drop repeats before normalize scales each
        rows = set(zip(*cols, map(itemgetter(-1), inst.rows)))
        try:
            lp = normalize(rows, c, name=f"{inst.name}#span")
        except InfeasibleZeroRow:
            return Outcome(INFEASIBLE)
        except EmptySystem:  # every row is 0 <= b with b >= 0 on the span
            if any(c):
                return Outcome(UNBOUNDED)
            return Outcome(OPTIMAL, point=(Fraction(0),) * inst.n, value=Fraction(0))
    t = _Tableau(lp)
    feasible = _phase1(t)
    phase1 = t.pivots
    out = Outcome(INFEASIBLE)
    if feasible:
        value = _maximize(t, lp, lp.c)
        out = Outcome(UNBOUNDED)
        if value is not None:
            point = tuple(Fraction(x, t.den[-1]) for x in _numerators(t))
            out = Outcome(OPTIMAL, point=point, value=value)
    _trace_pivots(trace, t, phase1)
    if out.status == OPTIMAL and basis is not None:
        point = tuple(sum(map(mul, out.point, col)) for col in zip(*basis))
        out = Outcome(OPTIMAL, point=point, value=out.value)
    return out


def solve_lp_on_line(inst: ILPInstance, trace: dict | None = None):
    """Largest zeta with zeta*1 feasible: solve_lp over the line spanned by 1.

    Requires the all-ones objective.  Returns (status, zeta) where zeta is
    None unless status is "optimal".  ``trace`` goes to solve_lp.
    """
    if any(cj != 1 for cj in inst.c):
        raise ObjectiveNotOnes("solve_lp_on_line needs c = 1")
    out = solve_lp(inst, [(1,) * inst.n], trace=trace)
    return (out.status, out.point[0] if out.status == OPTIMAL else None)


def _trace_pivots(trace, t: _Tableau, phase1: int) -> None:
    if trace is not None:
        trace["pivots_phase1"] = phase1
        trace["pivots_phase2"] = t.pivots - phase1


def coordinate_bounds(inst: ILPInstance, trace: dict | None = None):
    """Exact [min x_i, max x_i] over the feasible region: one phase 1, then
    2n phase-2 runs on the same tableau, min x_1 .. min x_n first and then
    max x_1 .. max x_n.

    Each bound is the unique optimal value of its LP, so the order changes
    no value, only the vertex each run starts from.  Were max x_j followed
    by min x_j, each min run would start at the far end of x_j; here every
    run but max x_1 starts at the optimum of a run that pushed the same
    way, and on the test corpora the 2n runs take 0.5 to 0.65 times the
    phase-2 pivots of that order.

    Unbounded directions are reported as None.  Raises InfeasibleRegion on
    an empty feasible set.  ``trace`` receives ``pivots_phase1``, of the one
    phase 1, and ``pivots_phase2``, summed over the 2n runs, as in solve_lp.
    """
    n = inst.n
    t = _Tableau(inst)
    if not _phase1(t):
        _trace_pivots(trace, t, t.pivots)
        raise InfeasibleRegion(inst.name or "empty feasible region")
    phase1 = t.pivots
    down = [_maximize(t, inst, [-(i == j) for i in range(n)]) for j in range(n)]
    up = [_maximize(t, inst, [int(i == j) for i in range(n)]) for j in range(n)]
    _trace_pivots(trace, t, phase1)
    return [(None if d is None else -d, hi) for d, hi in zip(down, up)]


def integer_box(inst: ILPInstance, trace: dict | None = None):
    """(ceil lo, floor hi) for each pair of coordinate_bounds.

    Raises BoxTooLarge when a side is open, and InfeasibleRegion, as
    coordinate_bounds does, when the feasible region is empty.  ``trace``
    goes to coordinate_bounds.
    """
    box = []
    for lo, hi in coordinate_bounds(inst, trace=trace):
        if lo is None or hi is None:
            raise BoxTooLarge(f"{inst.name or 'feasible region'} is unbounded; no finite box")
        box.append((ceil(lo), floor(hi)))
    return box
