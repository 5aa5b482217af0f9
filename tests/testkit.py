"""Reference helpers that only the tests use.

Layer centers, core-point distances, the core representative, the core
point scan over expanded rows, the representative oracle, the layer box
over the expanded slice, basis orbit barycenters, group enumeration, the
fixed space and orbit average by matrices and enumeration, the orbit
average by projection onto the fixed space, the sign change that
conjugates a semi-transitive group into permutations (parked here until
a solver reads it), the hypertruncated cube's
vertices, the facet-by-facet wild and htc generators, the row-by-row multiset
permutation generator (Algorithm L) the wild one closes its facets with, the
row-major simplex tableau over one shared denominator, with its own
Bareiss kernel, and the split-column simplex on it, rank and linear
solving by Gauss-Jordan elimination over Fraction, signed-permutation
inverses, the row loop of the symmetry check, the per-row row-class
count, the per-row normalize loop, the per-point brute force loop and
the round-based automorphism search: each restates a definition of the
paper directly, or keeps an earlier implementation, so the tests can
check the solvers against it.  ``tableau_row`` reads a row of the simplex
tableau, ``tableau_lp`` runs that tableau on any instance, and
``neighbour_graph`` builds a graph from neighbour sets.  ``symmetric_lps``
and ``certified_instance`` draw instances closed under a group, for the
property tests.
"""

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import floor, lcm
from operator import getitem, mul

from hypothesis import strategies as st

from corpus import random_symmetric_instance

from symilp import lpcore
from symilp.errors import (
    DegenerateFacet,
    EmptySystem,
    InfeasibleRegion,
    InfeasibleZeroRow,
    ResultCheckFailed,
    SearchBudgetExceeded,
    UnboundedRelaxation,
)
from symilp.instances import HtcParams, _fit_facet, distorted_join_vrep
from symilp.layers import CoprimeDirection, _slice_box
from symilp.lpcore import integer_box, solve_lp_on_line
from symilp.model import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    ILPInstance,
    Outcome,
    normalize,
    satisfies_rows,
)
from symilp.ratlin import dot, kernel_basis, scale_coprime
from symilp.symdetect import LabeledGraph
from symilp.symmetry import (
    GroupSpec,
    SignedPermutation,
    alt_generators,
    basis_orbits,
    fixed_space,
    full_cycle,
    orbit,
    sym_generators,
)


@dataclass(frozen=True)
class Layer:
    dir: CoprimeDirection
    k: int


def layer_center(layer: Layer) -> tuple:
    """The point of layer k nearest the origin: k d / |d|^2."""
    d = layer.dir.direction
    q = Fraction(layer.k, sum(v * v for v in d))
    return tuple(q * v for v in d)


def htc_vertices(p: HtcParams):
    """Vertex inventory of the hypertruncated cube: e_S for |S| <= r, plus lambda*1."""
    n = p.n
    verts = []
    for size in range(p.r + 1):
        for S in combinations(range(n), size):
            v = [Fraction(0)] * n
            for i in S:
                v[i] = Fraction(1)
            verts.append(tuple(v))
    verts.append((p.lam,) * n)
    return verts


def reference_htc(p: HtcParams) -> ILPInstance:
    """The 4n raw htc rows, one family after another, scaled coprime and put
    in order through a set: the rule the constructor's sort and dedup keep."""
    n, r = p.n, p.r
    num, den = p.lam.numerator, p.lam.denominator
    rows = []
    for i in range(n):
        row = [0] * (n + 1)
        row[i] = 1
        row[n] = 1
        rows.append(tuple(row))
        row = [0] * (n + 1)
        row[i] = -1
        rows.append(tuple(row))
    special = num * (1 - n) + r * den
    for i in range(n):
        row = [num] * (n + 1)
        row[i] = special
        row[n] = r * num
        rows.append(tuple(row))
    special = den * (1 - r) + num * (n - 1)
    for i in range(n):
        row = [den - num] * (n + 1)
        row[i] = special
        row[n] = num * (n - r)
        rows.append(tuple(row))
    rows = sorted({scale_coprime(row) for row in rows})
    return ILPInstance(rows, [1] * n, name=f"htc-n{n}-r{r}-l{num}_{den}")


def join_facet_vertex_sets(d: int):
    """Index sets of the 6 + 2^d facets of the join, combinatorially.

    A facet is (hexagon edge) * (whole cross polytope) or (whole hexagon) *
    (cross polytope facet); cross polytope facets are the 2^d sign
    patterns.
    """
    hex_idx = list(range(6))
    cross_idx = {}
    pos = 6
    for i in range(d):
        for s in (1, -1):
            cross_idx[(i, s)] = pos
            pos += 1
    sets = []
    for k in range(6):
        sets.append([hex_idx[k], hex_idx[(k + 1) % 6]] + list(range(6, 6 + 2 * d)))
    for signs in product((1, -1), repeat=d):
        sets.append(hex_idx + [cross_idx[(i, signs[i])] for i in range(d)])
    return sets


def _next_perm(a: list) -> bool:
    """Advance to the next distinct permutation in lexicographic order."""
    i = len(a) - 2
    while i >= 0 and a[i] >= a[i + 1]:
        i -= 1
    if i < 0:
        return False
    j = len(a) - 1
    while a[j] <= a[i]:
        j -= 1
    a[i], a[j] = a[j], a[i]
    a[i + 1 :] = a[i + 1 :][::-1]
    return True


def multiset_permutations(values):
    """All distinct orderings of a multiset, lexicographically (Knuth's
    Algorithm L, TAOCP Vol. 4A, 7.2.1.2)."""
    a = sorted(values)
    yield tuple(a)
    while _next_perm(a):
        yield tuple(a)


def reference_gen_wild(d: int) -> ILPInstance:
    """The wild instance with every one of its 6 + 2^d facets fitted, each
    checked against every vertex in Fractions, then closed under Sym(n)
    through a set of every facet's permutations, sorted."""
    n = d + 3
    verts = distorted_join_vrep(d)
    k = len(verts)
    barycenter = tuple(sum(v[t] for v in verts) / k for t in range(n))
    facet_rows = []
    for idx_set in join_facet_vertex_sets(d):
        row = _fit_facet(verts, idx_set, barycenter)
        for v in verts:
            if sum(av * xv for av, xv in zip(row, v)) > row[-1]:
                raise DegenerateFacet("rounding broke the join's convex position")
        facet_rows.append(row)
    rows = {perm + row[-1:] for row in facet_rows for perm in multiset_permutations(row[:-1])}
    return ILPInstance(sorted(rows), [1] * n, name=f"wild-d{d}")


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


def reference_core_scan(inst):
    """The core point scan over the expanded rows, with no certificate.

    Keeps the m dot products with the representative and lowers one raised
    coordinate at a time; returns the outcome and the number of checks.
    """
    n = inst.n
    status, zeta = solve_lp_on_line(inst)
    if status == UNBOUNDED:
        raise UnboundedRelaxation(inst.name)
    if zeta is None:
        return Outcome(INFEASIBLE), 0
    q = floor(zeta)
    d = floor(n * zeta) - n * q
    rows = inst.rows
    dots = [q * sum(row[:-1]) + sum(row[:d]) for row in rows]
    checks = 0
    while d >= 0:
        checks += 1
        if all(s <= row[-1] for s, row in zip(dots, rows)):
            return Outcome(OPTIMAL, CoreRepresentative(q, d, n).point(), Fraction(n * q + d)), checks
        d -= 1
        if d >= 0:
            dots = [s - row[d] for s, row in zip(dots, rows)]
    return Outcome(INFEASIBLE), checks


def representative_oracle(plan, k: int):
    """Per-layer oracle testing only the canonical core point.

    Sound under the (floor(n/2)+1)-transitivity hypothesis; patched in as
    layers.enumeration_oracle, it bridges the two solvers.
    """
    inst = plan.inst
    n = inst.n
    q, d = divmod(k, n)
    x = CoreRepresentative(q, d, n).point()
    return x if inst.is_feasible(x) else None


layer_box = _slice_box  # the layer scan's box of layer k under a scan plan


def reference_layer_box(inst, k: int):
    """integer_box of the expanded slice P /\\ {sum x = k}: 2n LPs in n
    variables over every row, None when the slice is empty."""
    n = inst.n
    slab = ((1,) * n + (k,), (-1,) * n + (-k,))
    try:
        return integer_box(ILPInstance(inst.rows + slab, inst.c))
    except InfeasibleRegion:
        return None


def closed_instance(seeds, gens, n: int, box: bool = True, name: str = ""):
    """The closure of the seed rows under gens, c = 1, in the box 0 <= x <= 2
    unless ``box`` is False."""
    rows = orbit(seeds, gens, _act)
    if box:
        for i in range(n):
            e = tuple(int(i == j) for j in range(n))
            rows |= {e + (2,), tuple(-v for v in e) + (0,)}
    return normalize(rows, [1] * n, name=name)


def certified_instance(rng, kind: str, index: int = 0):
    """A c = 1 instance drawn from rng: ``random_symmetric_instance`` for
    "sym", the closure of one or two random rows under Alt(4) or Alt(5)
    ("alt4", "alt5") or under the n-cycle for n in 3..6 ("cycle"), inside
    the box 0 <= x <= 2.  A cycle closure keeps the box one time in four,
    only x >= 0 two times in four (bounded slices with no explicit box),
    and no bound one time in four."""
    if kind == "sym":
        return random_symmetric_instance(rng, index)
    if kind == "cycle":
        n = rng.randint(3, 6)
        gens = (full_cycle(n),)
    else:
        n = int(kind[-1])
        gens = alt_generators(n)
    seeds = []
    while len(seeds) < 2:
        # distinct entries make the Alt(n)-orbit half the Sym(n)-orbit
        a = rng.choice([rng.sample(range(-2, n + 2), n), [rng.randint(-2, 3) for _ in range(n)]])
        if any(a):
            seeds.append((*a, rng.randint(-2, 2 * n)))
    seeds = seeds[: rng.randint(1, 2)]
    if kind != "cycle":
        return closed_instance(seeds, gens, n, name=kind)
    bounds = rng.choice(["box", "lower", "lower", "none"])
    if bounds == "lower":
        seeds.append((-1,) + (0,) * n)  # its orbit is x >= 0
    return closed_instance(seeds, gens, n, bounds == "box", name=f"cycle{n}")


def orbit_barycenter(o: tuple, n: int) -> tuple:
    """The average of the signed basis vectors of a basis_orbits orbit."""
    totals = [Fraction(0)] * n
    for v in o:
        totals[abs(v) - 1] += Fraction(1 if v > 0 else -1, len(o))
    return tuple(totals)


def group_elements(G: GroupSpec) -> set:
    """Closure of the generators under composition (mulclose)."""
    seeds = set(G.generators) | {SignedPermutation.identity(G.degree)}
    return orbit(seeds, G.generators, SignedPermutation.__mul__)


def group_order(G: GroupSpec) -> int:
    return len(group_elements(G))


def signed_matrix(g: SignedPermutation) -> tuple:
    """The n x n matrix of g: column j is the image of e_{j+1}."""
    n = g.degree
    rows = [[0] * n for _ in range(n)]
    for j, v in enumerate(g.image):
        rows[abs(v) - 1][j] = 1 if v > 0 else -1
    return tuple(tuple(r) for r in rows)


def kernel_fixed_space(G: GroupSpec) -> list:
    """Fix(G) as the kernel of the stacked (gamma - id) blocks of the generators."""
    stacked = []
    for g in G.generators:
        for i, row in enumerate(signed_matrix(g)):
            diff = [v - (i == j) for j, v in enumerate(row)]
            if any(diff):
                stacked.append(diff)
    return kernel_basis(stacked, ncols=G.degree)


def orbit_average(G: GroupSpec, x) -> tuple:
    """The average of the points of the orbit of x, by enumerating that orbit."""
    points = orbit([tuple(Fraction(v) for v in x)], G.generators, SignedPermutation.apply)
    return tuple(Fraction(sum(col), len(points)) for col in zip(*points))


def project_barycenter(G: GroupSpec, x) -> tuple:
    """Average of the orbit of x; the projection onto the fixed space.

    The ``fixed_space`` vectors f have disjoint supports, so this is the sum
    of (f.x / f.f) f, without enumerating the orbit of x.
    """
    n = G.degree
    x = tuple(Fraction(v) for v in x)
    if len(x) != n:
        raise ValueError(f"point of length {len(x)} for a group of degree {n}")
    y = [Fraction(0)] * n
    for f in fixed_space(G):
        t = dot(f, x) / dot(f, f)
        y = [a + t * b for a, b in zip(y, f)]
    return tuple(y)


def conjugate_to_permutations(G: GroupSpec):
    """Diagonal sign change conjugating a semi-transitive G into Sym(n).

    G is semi-transitive iff the orbit of e_1 has n members and not -e_1;
    then eps is that orbit read as a diagonal sign change, eps = eps^-1,
    and eps*g*eps is sign-free for every g.  Returns (eps, H), or None.
    """
    n = G.degree
    orbits = basis_orbits(G)
    if not orbits or -1 in orbits[0] or len(orbits[0]) != n:
        return None
    eps = SignedPermutation(orbits[0])
    H = GroupSpec(n, tuple(eps * g * eps for g in G.generators))
    if not all(h.is_plain for h in H.generators):
        raise ResultCheckFailed("conjugation failed to clear signs")
    return eps, H


def reduced_row_echelon(rows, ncols: int):
    """Gauss-Jordan elimination over Fraction on the first ncols columns:
    the reduced rows (pivot rows first) and their pivot columns."""
    rows = [[Fraction(v) for v in row] for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        rows[r] = [v / rows[r][c] for v in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[c]:
                rows[i] = [a - row[c] * b for a, b in zip(row, rows[r])]
        pivots.append(c)
    return rows, pivots


def rank(M) -> int:
    M = list(M)
    return len(reduced_row_echelon(M, len(M[0]))[1]) if M else 0


def solve_linear(M, rhs):
    """One exact solution of Mx = rhs, free variables at zero, or None
    when the system is inconsistent."""
    rows = [tuple(row) + (b,) for row, b in zip(M, rhs)]
    if not rows:
        raise ValueError("empty system")
    ncols = len(rows[0]) - 1
    rows, pivots = reduced_row_echelon(rows, ncols)
    if any(row[ncols] for row in rows[len(pivots):]):
        return None
    x = [Fraction(0)] * ncols
    for row, c in zip(rows, pivots):
        x[c] = row[ncols]
    return tuple(x)


def inverse(g: SignedPermutation) -> SignedPermutation:
    inv = [0] * g.degree
    for j, v in enumerate(g.image):
        inv[abs(v) - 1] = j + 1 if v > 0 else -(j + 1)
    return SignedPermutation(inv)


def _act(g, row):
    return g.apply_to_row(row[:-1]) + (row[-1],)


def reference_is_symmetry(inst, g) -> bool:
    """The row loop of ``is_symmetry`` before its row kernels: c gamma = c,
    and every a gamma | b is a row of the instance."""
    if g.apply_to_row(inst.c) != inst.c:
        return False
    rows = frozenset(inst.rows)
    return all(_act(g, row) in rows for row in inst.rows)


def reference_row_classes(inst) -> Counter:
    """The per-row generator that first built ``ILPInstance.row_classes``:
    each row's key is ``tuple(sorted(a)) + (b,)``, counted in row order."""
    return Counter((*sorted(row[:-1]), row[-1]) for row in inst.rows)


def reference_normalize(raw_rows, c, name="") -> ILPInstance:
    """The per-row loop that ``model.normalize`` first ran: scale_coprime on
    every row, then one zero test per row, dropping 0 <= b for b >= 0 and
    refusing it for b < 0."""
    rows = []
    for row in map(scale_coprime, raw_rows):
        if any(row[:-1]):
            rows.append(row)
        elif row[-1] < 0:
            raise InfeasibleZeroRow(f"0 <= {row[-1]} in {name or 'system'}")
    if not rows:
        raise EmptySystem(f"no nontrivial rows in {name or 'system'}")
    return ILPInstance(rows, c, name=name)


def reference_brute_force(inst, box) -> Outcome:
    """The per-point loop that ``model.brute_force_ilp`` first ran: every
    point of the box, in lexicographic order, tested against every row;
    ties go to the first, so the lexicographically smallest, optimum."""
    best = None
    best_val = None
    rows = inst.rows
    scale = lcm(*(cj.denominator for cj in inst.c))
    c = tuple(cj.numerator * (scale // cj.denominator) for cj in inst.c)
    for x in product(*(range(lo, hi + 1) for lo, hi in box)):
        if not satisfies_rows(rows, x):
            continue
        val = sum(map(mul, c, x))
        if best_val is None or val > best_val:
            best_val = val
            best = x
    if best is None:
        return Outcome(INFEASIBLE)
    return Outcome(OPTIMAL, point=best, value=Fraction(best_val, scale))


def tableau_row(t, i: int, scale: int = 1) -> list:
    """Row i of an ``lpcore._Tableau`` as Fractions, the rhs last; the
    objective row (i = t.m) is over the objective's scale too."""
    scale = scale if i == t.m else 1
    return [Fraction(col[i], d * scale) for col, d in zip(t.cols, t.den)]


def tableau_lp(inst, objectives) -> list:
    """``lpcore``'s simplex driven directly, also in one variable, where
    solve_lp and coordinate_bounds take the ratio test instead: one
    _Tableau and one _phase1, then one _maximize per objective in order,
    as coordinate_bounds makes them.  An Outcome per objective."""
    t = lpcore._Tableau(inst)
    if not lpcore._phase1(t):
        return [Outcome(INFEASIBLE)] * len(objectives)
    outs = []
    for c in objectives:
        value = lpcore._maximize(t, inst, c)
        if value is None:
            outs.append(Outcome(UNBOUNDED))
        else:
            point = tuple(Fraction(x, t.den[-1]) for x in lpcore._numerators(t))
            outs.append(Outcome(OPTIMAL, point=point, value=value))
    return outs


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


class RowTableau:
    """The row-major integer simplex dictionary over one shared denominator.

    Row i reads D * y_basis[i] = rows[i][-1] + sum_k rows[i][k] *
    y_nonbasic[k], and the objective row obj reads D * scale * z the same
    way, with D the absolute determinant of the current basis (Bareiss).
    Every pivot rewrites every row through _eliminate, which rescales all of
    them when D changes.  Variable ids as in lpcore._Tableau; ``of`` builds
    its start with one unsplit column per free variable, before the entries.
    """

    def __init__(self, rows, nonbasic, basis):
        self.rows, self.nonbasic, self.basis = rows, nonbasic, basis
        self.D = 1
        self.scale = 1
        self.obj = [0] * (len(nonbasic) + 1)

    @classmethod
    def of(cls, inst):
        rows = [[-a for a in row[:-1]] + [row[-1]] for row in inst.rows]
        return cls(rows, list(range(inst.n)), list(range(inst.n, inst.n + inst.m)))

    def pivot(self, e, l):
        rows, D = self.rows, self.D
        pr = rows[l]
        p = pr[e]
        ap = abs(p)
        sp = 1 if p > 0 else -1
        nz = [(k, w) for k, w in enumerate(pr) if w and k != e]
        for i, r in enumerate(rows):
            if i != l:
                rows[i] = _eliminate(r, nz, e, ap, sp, D)
        self.obj = _eliminate(self.obj, nz, e, ap, sp, D)
        new = [-w for w in pr] if p > 0 else pr[:]
        new[e] = sp * D
        rows[l] = new
        self.D = ap
        self.nonbasic[e], self.basis[l] = self.basis[l], self.nonbasic[e]

    def insert_aux(self, aux, first_slack):
        """Add the auxiliary as the last nonbasic column, 1 on every slack
        row and 0 on the others, with objective w = -aux."""
        pos = len(self.nonbasic)
        self.nonbasic.append(aux)
        for r, v in zip(self.rows, self.basis):
            r.insert(pos, self.D if v >= first_slack else 0)
        self.obj = [0] * (pos + 2)
        self.obj[pos] = -self.D

    def drop(self, var):
        """Delete the column of the nonbasic variable var."""
        p = self.nonbasic.index(var)
        del self.nonbasic[p], self.obj[p]
        for r in self.rows:
            del r[p]

    def install_objective(self, weights, scale):
        """The objective row of scale * sum w_v * y_v, for the (v, w_v) pairs."""
        obj = [0] * (len(self.nonbasic) + 1)
        pos = {v: k for k, v in enumerate(self.nonbasic)}
        row_of = {v: i for i, v in enumerate(self.basis)}
        for v, w in weights:
            if v in pos:
                obj[pos[v]] += w * self.D
            else:
                for k, a in enumerate(self.rows[row_of[v]]):
                    obj[k] += w * a
        self.obj = obj
        self.scale = scale

    def row(self, i):
        """Row i as Fractions, i = m the objective row, the rhs last."""
        if i == len(self.rows):
            return [Fraction(v, self.D * self.scale) for v in self.obj]
        return [Fraction(v, self.D) for v in self.rows[i]]


class _SplitTableau(RowTableau):
    """The row-major simplex with every free x_j split as y_2j - y_2j+1.

    Variable ids: 0..2n-1 split structurals, 2n..2n+m-1 slacks, 2n+m the
    phase-1 auxiliary.  Every variable is nonnegative, so the tableau starts
    at the origin and phase 1 relaxes every row.
    """

    def __init__(self, inst):
        m, n = inst.m, inst.n
        self.m, self.n = m, n
        self.aux = 2 * n + m
        rows = []
        for row in inst.rows:
            r = []
            for a in row[:-1]:
                r += [-a, a]
            rows.append(r + [row[-1]])
        super().__init__(rows, list(range(2 * n)), [2 * n + i for i in range(m)])

    def run(self):
        """Bland's rule to the end: OPTIMAL or UNBOUNDED."""
        while True:
            entering = [k for k, w in enumerate(self.obj[:-1]) if w > 0]
            if not entering:
                return OPTIMAL
            e = min(entering, key=self.nonbasic.__getitem__)
            best = None
            for i, r in enumerate(self.rows):
                t = -r[e]
                if t > 0 and (
                    best is None or (r[-1] * bt, self.basis[i]) < (bb * t, self.basis[best])
                ):
                    best, bb, bt = i, r[-1], t
            if best is None:
                return UNBOUNDED
            self.pivot(e, best)

    def phase1(self):
        """Drive the tableau to feasibility; False means infeasible."""
        rows = self.rows
        worst = min(range(self.m), key=lambda i: (rows[i][-1], self.basis[i]))
        if rows[worst][-1] >= 0:
            return True
        self.insert_aux(self.aux, 0)
        self.pivot(len(self.nonbasic) - 1, worst)
        if self.run() != OPTIMAL:
            raise ResultCheckFailed("reference phase 1: w = -aux <= 0 came out unbounded")
        if self.obj[-1] < 0:
            return False
        if self.aux in self.basis:
            l = self.basis.index(self.aux)
            self.pivot(next(k for k, v in enumerate(rows[l][:-1]) if v), l)
        self.drop(self.aux)
        return True


def reference_simplex(inst, c):
    """max c^t x over inst's rows by the split-column two-phase simplex, on a
    fresh tableau per call: the exact LP solver before each free variable
    kept one column.  Unchecked; the tests compare lpcore against it."""
    t = _SplitTableau(inst)
    if not t.phase1():
        return Outcome(INFEASIBLE)
    scale = lcm(*(Fraction(cj).denominator for cj in c))
    weights = [(2 * j + h, (-1) ** h * int(cj * scale)) for j, cj in enumerate(c) for h in (0, 1)]
    t.install_objective(weights, scale)
    if t.run() == UNBOUNDED:
        return Outcome(UNBOUNDED)
    vals = {v: r[-1] for v, r in zip(t.basis, t.rows)}
    point = tuple(
        Fraction(vals.get(2 * j, 0) - vals.get(2 * j + 1, 0), t.D) for j in range(inst.n)
    )
    return Outcome(OPTIMAL, point=point, value=Fraction(t.obj[-1], t.D * t.scale))


@st.composite
def symmetric_lps(draw):
    """Rows closed under Sym(n), the n-cycle, a signed group or the trivial
    group, with an objective the group fixes."""
    kind = draw(st.sampled_from(["sym", "cycle", "minus_id", "flip", "swap", "trivial"]))
    n = draw(st.integers(2 if kind == "swap" else 1, 4))
    t = draw(st.integers(-2, 2))
    c = [t] * n
    if kind == "sym":
        gens = sym_generators(n)
    elif kind == "cycle":
        gens = (full_cycle(n),)
    elif kind == "minus_id":
        gens = (SignedPermutation(range(-1, -n - 1, -1)),)
        c = [0] * n
    elif kind == "flip":
        j = draw(st.integers(1, n))
        gens = (SignedPermutation(-i if i == j else i for i in range(1, n + 1)),)
        c = [draw(st.integers(-2, 2)) for _ in range(n)]
        c[j - 1] = 0
    elif kind == "swap":
        # e_1 -> -e_2, e_2 -> -e_1: Fix(G) holds (1, -1, 0, ..., 0)
        gens = (SignedPermutation((-2, -1) + tuple(range(3, n + 1))),)
        c = [draw(st.integers(-2, 2)) for _ in range(n)]
        c[1] = -c[0]
    else:
        gens = (SignedPermutation.identity(n),)
        c = [draw(st.integers(-2, 2)) for _ in range(n)]
    seeds = []
    for _ in range(draw(st.integers(1, 3))):
        a = tuple(draw(st.integers(-2, 2)) for _ in range(n))
        if any(a):
            seeds.append(a + (draw(st.integers(-2, 4)),))
    if not seeds:
        seeds.append((1,) * n + (1,))
    rows = orbit(seeds, gens, _act)
    return normalize(rows, c, name=kind), GroupSpec(n, gens)



def neighbour_graph(labels, neighbours) -> LabeledGraph:
    """The graph with node v labelled ``labels[v]`` and joined to each node
    of ``neighbours[v]``, every edge labelled None."""
    return LabeledGraph(labels, map(dict.fromkeys, neighbours))


def reference_automorphism_group(g, budget: int = 100000):
    """The automorphism search with round-based refinement: every round
    recolours each vertex by its sorted multiset of (neighbour colour, edge
    label) pairs, and the trace keeps one hash per round.  Edge labels may
    mix types, so each is replaced by its rank in order of first
    appearance before any sort.  Same generators-and-order contract as
    ``symdetect.automorphism_group``."""
    edge_labels = g.edge_labels
    n = g.n_nodes
    rank = {}
    for e in edge_labels:
        for x in e.values():
            rank.setdefault(x, len(rank))
    ranked = [[(u, rank[x]) for u, x in e.items()] for e in edge_labels]
    spent = 0

    def refine(colors, expect=None):
        nonlocal spent
        spent += 1
        if spent > budget:
            raise SearchBudgetExceeded(f"automorphism search over {budget} refinements")
        trace = []
        k = len(set(colors))
        while True:
            ss = []
            for v in range(n):
                cnt = {}
                for u, x in ranked[v]:
                    c = (colors[u], x)
                    cnt[c] = cnt.get(c, 0) + 1
                ss.append((colors[v], tuple(sorted(cnt.items()))))
            steps = sorted(Counter(ss).items())
            trace.append(hash(tuple(steps)))
            if expect is not None and trace != expect[: len(trace)]:
                return None, trace
            order = {s: i for i, (s, _) in enumerate(steps)}
            colors = [order[s] for s in ss]
            if len(order) == k:
                if expect is not None and trace != expect:
                    return None, trace
                return colors, trace
            k = len(order)

    def individualized(colors, v):
        out = list(colors)
        out[v] = max(colors) + 1
        return out

    def cell(colors, c):
        return [v for v, cv in enumerate(colors) if cv == c]

    def is_automorphism(mapping) -> bool:
        for v in range(n):
            if g.labels[mapping[v]] != g.labels[v]:
                return False
            if {mapping[u]: x for u, x in edge_labels[v].items()} != edge_labels[mapping[v]]:
                return False
        return True

    path = []
    colors = list(g.labels)
    while True:
        colors, trace = refine(colors)
        sizes = Counter(colors)
        c = min((c for c, k in sizes.items() if k > 1), default=None)
        path.append((colors, trace, sizes, c))
        if c is None:
            break
        colors = individualized(colors, colors.index(c))

    def find_first(depth, ct):
        cs, trace, sizes, c = path[depth]
        ct, _ = refine(ct, trace)
        if ct is None or Counter(ct) != sizes:
            return None
        if c is None:
            where = {cv: v for v, cv in enumerate(ct)}
            m = tuple(where[cv] for cv in cs)
            return m if is_automorphism(m) else None
        for w in cell(ct, c):
            m = find_first(depth + 1, individualized(ct, w))
            if m is not None:
                return m
        return None

    gens = []
    order = 1
    for depth in range(len(path) - 2, -1, -1):
        colors, _, _, c = path[depth]
        first, *rest = cell(colors, c)
        reached = {first}
        for w in rest:
            if w in reached:
                continue
            m = find_first(depth + 1, individualized(colors, w))
            if m is not None:
                gens.append(m)
                reached = orbit(reached, gens, getitem)
        order *= len(reached)
    return gens, order
