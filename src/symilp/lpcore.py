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
Avis's lrs).  Every row holds Python ints over one shared denominator D,
the absolute determinant of the current basis, so each entry is a
subdeterminant of the input and every pivot division is exact (Bareiss).
The objective row is kept over D times the lcm of the objective's
denominators.  Ratios are compared by cross-multiplication; Fractions are
built only for the returned point and value: the result checks read the
integer numerators over D.  There are no tolerances.
solve_lp, the one LP entry point, also solves over x = F y for a basis F of
a fixed space; the LP on the line is the case F = (1, ..., 1).
"""

from fractions import Fraction
from itertools import compress, count, repeat
from math import ceil, floor, lcm
from operator import add, itemgetter, mul

from .errors import BoxTooLarge, EmptySystem, InfeasibleRegion, InfeasibleZeroRow
from .errors import ObjectiveNotOnes, ResultCheckFailed, SearchBudgetExceeded
from .model import ILPInstance, INFEASIBLE, Outcome, OPTIMAL, UNBOUNDED, normalize

PIVOT_BUDGET = 100000  # pivots one simplex run may make


class _Tableau:
    """Integer simplex dictionary for max c^t x, Ax + s = b, s >= 0, x free.

    Variable ids: 0..n-1 structurals, n..n+m-1 slacks, n+m the phase-1
    auxiliary.  Row i reads D * y_basis[i] = rows[i][-1] + sum_k rows[i][k] *
    y_nonbasic[k], and the objective row obj reads D * scale * z the same
    way.  Each structural enters by entry_row's ratio test, which keeps a
    feasible start feasible; one with no nonzero slack entry moves along a
    line inside the region, so it stays nonbasic at 0 with its column zero
    on every slack row.  ``pivots`` counts the pivots made after those
    entries.
    """

    def __init__(self, inst: ILPInstance):
        m, n = inst.m, inst.n
        self.n = n
        self.aux = n + m
        self.nonbasic = list(range(n))
        self.basis = list(range(n, n + m))
        self.rows = [[-a for a in row[:-1]] + [row[-1]] for row in inst.rows]
        self.D = 1
        self.scale = 1
        self.obj = [0] * (n + 1)
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
        basis, n, rows = self.basis, self.n, self.rows
        best = first = None
        for i in compress(count(), map(itemgetter(j), rows)):
            if basis[i] < n:
                continue
            if first is None:
                first = i
            b, a = rows[i][-1], abs(rows[i][j])
            if b >= 0 and (best is None or b * best_a < best_b * a):
                best, best_b, best_a = i, b, a
        return first if best is None else best

    def pivot(self, e: int, l: int) -> None:
        """Enter nonbasic position e, leave basic row l."""
        rows, D = self.rows, self.D
        pr = rows[l]
        p = pr[e]
        ap = abs(p)
        sp = 1 if p > 0 else -1
        nz = [(k, w) for k, w in enumerate(pr) if w and k != e]
        # over an unchanged D, a row with a zero in column e stays as it is
        touched = compress(count(), map(itemgetter(e), rows)) if ap == D else range(len(rows))
        for i in touched:
            if i != l:
                rows[i] = _eliminate(rows[i], nz, e, ap, sp, D)
        self.obj = _eliminate(self.obj, nz, e, ap, sp, D)
        new = [-w for w in pr] if p > 0 else pr[:]
        new[e] = sp * D
        rows[l] = new
        self.D = ap
        self.nonbasic[e], self.basis[l] = self.basis[l], self.nonbasic[e]
        self.pivots += 1

    def bland_entering(self):
        best = None
        best_var = None
        obj = self.obj
        for k in range(len(obj) - 1):
            if obj[k] > 0:
                v = self.nonbasic[k]
                if best_var is None or v < best_var:
                    best, best_var = k, v
        return best

    def bland_leaving(self, e: int):
        # the limit of row i is b_i / t_i with t_i = -a_ie > 0; compare
        # b_i / t_i < b_best / t_best as b_i * t_best < b_best * t_i, and
        # break ties toward the smaller basic variable; structurals never leave
        basis, n = self.basis, self.n
        best_row = None
        for i, r in enumerate(self.rows):
            t = -r[e]
            if t > 0 and basis[i] >= n and (
                best_row is None
                or (r[-1] * best_t, basis[i]) < (best_b * t, basis[best_row])
            ):
                best_row, best_b, best_t = i, r[-1], t
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


def _eliminate(r, nz, e, ap, sp, D):
    """Row r after the pivot on p = sp * ap over denominator D.

    r'_k = sign(p) * (r_k * p - r_e * pr_k) / D, exact by Bareiss, where nz
    lists the pivot row's nonzero (k, pr_k) off column e; column e becomes
    the leaving variable's, sign(p) * r_e.
    """
    f = r[e]
    if ap != D:
        new = [v * ap // D for v in r]
    elif f:
        new = r[:]
    else:
        return r
    if f:
        g = sp * f
        for k, w in nz:
            new[k] = (r[k] * ap - g * w) // D
        new[e] = g
    return new


def _phase1(t: _Tableau) -> bool:
    """Drive the tableau to feasibility; False means infeasible."""
    rows, n = t.rows, t.n
    slack_rows = [i for i, v in enumerate(t.basis) if v >= n]
    worst = min(slack_rows, key=lambda i: (rows[i][-1], t.basis[i]), default=None)
    if worst is None or rows[worst][-1] >= 0:
        return True
    pos = len(t.nonbasic)
    t.nonbasic.append(t.aux)
    for r, v in zip(rows, t.basis):
        r.insert(pos, t.D if v >= n else 0)
    t.obj = [0] * (pos + 2)
    t.obj[pos] = -t.D
    t.pivot(pos, worst)
    if t.run() != OPTIMAL:
        raise ResultCheckFailed("phase 1: w = -aux <= 0 came out unbounded")
    if t.obj[-1] < 0:
        return False
    if t.aux in t.basis:
        # Degenerate at zero: pivot the auxiliary out.  Its row is never all
        # zero: it is r^T [A | I | u] over the nonbasic columns, where r is
        # the auxiliary's row of the inverse basis and u its input column.
        # r vanishes on the basic structurals' and slacks' columns and
        # r.u = 1, so r_i != 0 for some nonbasic slack i, whose column then
        # holds -r_i * D.
        l = t.basis.index(t.aux)
        e = next(k for k, v in enumerate(t.rows[l][:-1]) if v)
        t.pivot(e, l)
    p = t.nonbasic.index(t.aux)
    del t.nonbasic[p]
    for r in t.rows:
        del r[p]
    return True


def _numerators(t: _Tableau) -> list:
    """D * x_j for each structural: its row's rhs if basic, else 0."""
    vals = dict(zip(t.basis, map(itemgetter(-1), t.rows)))
    return [vals.get(j, 0) for j in range(t.n)]


def _maximize(t: _Tableau, inst: ILPInstance, c):
    """max c^t x from the feasible tableau t of inst, which stays feasible.

    Returns the optimal value, whose point is _numerators(t) over t.D, or
    None when the LP is unbounded.  c (ints or Fractions) is scaled to integers
    by the lcm of its denominators, and the objective row is kept over D
    times that scale like every other row.  A nonbasic structural with a
    nonzero entry there is a free line that improves c, so the LP is
    unbounded.  The optimum is checked in ints: the numerators over D must
    satisfy inst (ILPInstance.admits), and the scaled c times them must be
    the objective row's value.
    """
    scale = lcm(*(cj.denominator for cj in c))
    ws = [cj.numerator * (scale // cj.denominator) for cj in c]
    obj = [0] * (len(t.nonbasic) + 1)
    pos = {v: k for k, v in enumerate(t.nonbasic)}
    row_of = {v: i for i, v in enumerate(t.basis)}
    for j, w in enumerate(ws):
        if j in pos:
            obj[pos[j]] += w * t.D
        elif w:
            for k, a in enumerate(t.rows[row_of[j]]):
                if a:
                    obj[k] += w * a
    t.obj = obj
    t.scale = scale
    if any(obj[pos[j]] for j in range(t.n) if j in pos) or t.run() == UNBOUNDED:
        return None
    xs = _numerators(t)
    if not inst.admits(xs, t.D):
        raise ResultCheckFailed(f"simplex: infeasible point for {inst.name or 'instance'}")
    if sum(map(mul, ws, xs)) != t.obj[-1]:
        raise ResultCheckFailed(f"simplex: value mismatch for {inst.name or 'instance'}")
    return Fraction(t.obj[-1], t.D * scale)


def _basis_column(rows, f):
    """a.f for every row a, as the sum over f's distinct nonzero values v of
    v times the sum of a's entries where f is v: one compress pass per value.

    A lazy chain of maps, so no per-row bytecode runs and no list of m
    products is held: the caller's set of distinct rows is all it keeps.
    """
    col = repeat(0, len(rows))
    for v in set(f) - {0}:
        mask = [x == v for x in f]
        col = map(add, col, map(mul, repeat(v), map(sum, map(compress, rows, repeat(mask)))))
    return col


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
        cols = [_basis_column(inst.rows, f) for f in basis]
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
            point = tuple(Fraction(x, t.D) for x in _numerators(t))
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
    2n phase-2 runs on the same tableau.

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
    out = []
    for j in range(n):
        e = [0] * n
        e[j] = 1
        hi = _maximize(t, inst, e)
        e[j] = -1
        down = _maximize(t, inst, e)
        out.append((None if down is None else -down, hi))
    _trace_pivots(trace, t, phase1)
    return out


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
