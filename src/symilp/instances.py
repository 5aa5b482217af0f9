"""Benchmark instance generators.

Hypertruncated cubes: conv([0,1]^n truncated at sum x <= r, plus the apex
lambda*1) described by exactly 4n facets in four coordinate-orbit families,
each scaled coprime by ``scale_coprime`` and emitted in index order.

Wild input: the distorted join of a hexagon (circumradius 56/6) with a
scaled cross polytope (73/10), lifted to heights 1 and -11/12, every vertex
coordinate rounded to three decimals (half away from zero, exactly), and
the row set closed under the full symmetric group.  Of its 6 + 2^d facets
only 7 are fitted through their vertex sets: the 6 hexagon-edge facets and
one cross facet; the other cross facets are sign flips of that one.

Orbits are expanded by ``symmetrize`` in one ascending pass over all row
classes at once: a prefix trie down to the last SUFFIX_LENGTH coefficients,
whose suffix lists are built once per residual set of classes and shared,
and one prefix + suffix concatenation per row.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, repeat
from math import isqrt
from operator import mul

from .errors import BadParams, DegenerateFacet
from .model import ILPInstance
from .ratlin import clear_denominators, kernel_basis, scale_coprime
from .symmetry import distinct_permutations

ONE = Fraction(1)

# The most rows gen_wild expands: d = 10 has 885,768, d = 16 190,537,092.
WILD_ROW_BUDGET = 10**7

# symmetrize's trie stops this many coefficients before the end: a shared
# suffix list then holds at most 6! = 720 orderings per class, built by a
# recursion at most 6 deep, for any n; for n <= 6 there is no trie to walk.
SUFFIX_LENGTH = 6

# Euler's number to 30 decimal places; enough that floor(n/e) is exact for
# any dimension this toolkit will ever see.
EULER_E = Fraction(2718281828459045235360287471352662, 10**33)


def htc_r(n: int) -> int:
    """The benchmark truncation parameter r = floor(n/e)."""
    q = Fraction(n) / EULER_E
    return q.numerator // q.denominator


@dataclass(frozen=True)
class HtcParams:
    n: int
    r: int
    lam: Fraction

    def __post_init__(self):
        if self.n < 3 or not 2 <= self.r <= self.n - 1:
            raise BadParams(f"need r in {{2,...,n-1}}, got n={self.n}, r={self.r}")
        lam = Fraction(self.lam)
        object.__setattr__(self, "lam", lam)
        if not Fraction(self.r, self.n) < lam < 1:
            raise BadParams(f"need r/n < lambda < 1, got lambda={lam}")


def gen_hypertruncated_cube(p: HtcParams) -> ILPInstance:
    """The 4n facet rows, oriented so every vertex satisfies them.

    Families (for each coordinate i): 0 <= x_i, x_i <= 1, the deletion
    inequality (1-n+r/lambda) x_i + sum_{k!=i} x_k <= r and the contraction
    inequality (1-r+lambda(n-1)) x_i + (1-lambda) sum_{k!=i} x_k <=
    lambda(n-r).  Objective all-ones.

    A family is (background, special entry, rhs), scaled by
    ``scale_coprime``; its n rows are emitted in index order, a run that
    ascends or descends, and the constructor sorts them.  The window
    r/n < lambda < 1 keeps special != background, so the n rows of a family
    are distinct.
    """
    n, r = p.n, p.r
    num, den = p.lam.numerator, p.lam.denominator
    # deletion cleared by lambda's numerator, contraction by its denominator
    families = (
        (0, 1, 1),
        (0, -1, 0),
        (num, num * (1 - n) + r * den, r * num),
        (den - num, den * (1 - r) + num * (n - 1), num * (n - r)),
    )
    rows = []
    for family in families:
        background, special, rhs = scale_coprime(family)
        row = [background] * n + [rhs]
        for i in range(n):
            row[i] = special
            rows.append(tuple(row))
            row[i] = background
    return ILPInstance(rows, [ONE] * n, name=f"htc-n{n}-r{r}-l{num}_{den}")


def round3(x: Fraction) -> Fraction:
    """Round an exact rational to 3 decimals, half away from zero."""
    if x < 0:
        return -round3(-x)
    t = x * 1000
    q, rem = divmod(t.numerator, t.denominator)
    twice = 2 * rem
    if twice == t.denominator:
        raise DegenerateFacet(f"rounding tie at {x}")
    return Fraction(q + 1 if twice > t.denominator else q, 1000)


def round3_sqrt3(a: Fraction) -> Fraction:
    """Round a*sqrt(3) to 3 decimals exactly, half away from zero.

    Comparisons are squared out to integers; sqrt(3) being irrational rules
    out ties.
    """
    if a < 0:
        return -round3_sqrt3(-a)
    num, den = (1000 * a).numerator, (1000 * a).denominator
    u = isqrt((3 * num * num) // (den * den))
    # is 1000*a*sqrt(3) >= u + 1/2, i.e. 3*(2*num)^2 >= ((2u+1)*den)^2?
    lhs = 3 * (2 * num) ** 2
    rhs = ((2 * u + 1) * den) ** 2
    if lhs == rhs:
        raise DegenerateFacet(f"rounding tie at {a}*sqrt(3)")
    return Fraction(u + 1 if lhs > rhs else u, 1000)


_HEX_COS = (ONE, Fraction(1, 2), Fraction(-1, 2), -ONE, Fraction(-1, 2), Fraction(1, 2))
_HEX_SIN_SIGN = (0, 1, 1, 0, -1, -1)  # sign of sin(k*pi/3); magnitude sqrt(3)/2


def hexagon_vrep() -> tuple:
    """Regular hexagon with circumradius 56/6, coordinates pre-rounded."""
    radius = Fraction(56, 6)
    verts = []
    for k in range(6):
        x = round3(radius * _HEX_COS[k])
        s = _HEX_SIN_SIGN[k]
        y = round3_sqrt3(s * radius / 2) if s else Fraction(0)
        verts.append((x, y))
    return tuple(verts)


def cross_polytope_vrep(d: int) -> tuple:
    scale = round3(Fraction(73, 10))
    verts = []
    for i in range(d):
        for s in (1, -1):
            v = [Fraction(0)] * d
            v[i] = s * scale
            verts.append(tuple(v))
    return tuple(verts)


def distorted_join_vrep(d: int) -> tuple:
    """J(d) embedded in R^(d+3) with rounded coordinates.

    Hexagon vertices sit at lifted height 1, cross polytope vertices at
    -11/12 which rounds to -0.917.
    """
    hexv = hexagon_vrep()
    crossv = cross_polytope_vrep(d)
    top = round3(ONE)
    bottom = round3(Fraction(-11, 12))
    zeros_d = (Fraction(0),) * d
    verts = [hv + zeros_d + (top,) for hv in hexv]
    verts += [(Fraction(0), Fraction(0)) + cv + (bottom,) for cv in crossv]
    return tuple(verts)


def _fit_facet(vertices, idx_set, barycenter):
    """Unique hyperplane a.x = beta through the vertex subset, as a valid
    coprime-integer row oriented so the barycenter is feasible."""
    rows = [tuple(vertices[i]) + (Fraction(-1),) for i in idx_set]
    n = len(vertices[0])
    kb = kernel_basis(rows, n + 1)
    if len(kb) != 1:
        raise DegenerateFacet(
            f"facet vertex set spans kernel of dimension {len(kb)}, expected 1"
        )
    row = kb[0]
    a, beta = row[:-1], row[-1]
    side = sum(av * bv for av, bv in zip(a, barycenter))
    if side == beta:
        raise DegenerateFacet("barycenter lies on a facet hyperplane")
    if side > beta:
        row = tuple(-v for v in row)
    return row


def _branches(state):
    """(v, rest) for each distinct next coefficient v of a trie state, descending.

    A state is a tuple of (a, b) pairs in ascending order, one per row class
    left, where a is the class's remaining coefficients, sorted.  ``rest``
    holds the pairs that hold v, with one v taken out; taking one v out of
    two sorted tuples keeps their order, so ``rest`` is ascending too and a
    state has one key.  When every pair holds one value v only, the result
    is ``((v, None),)``: the rest of each prefix is v repeated.
    """
    children = {}
    for a, b in state:
        for v in set(a):
            i = a.index(v)
            children.setdefault(v, []).append((a[:i] + a[i + 1 :], b))
    if len(children) == 1:
        return ((state[0][0][0], None),)
    return tuple((v, tuple(children[v])) for v in sorted(children, reverse=True))


def _walk(state, depth, branches):
    """(prefix, rest) for every distinct prefix of the given length, ascending.

    A trie over the orderings of the state's classes, walked with an explicit
    stack; ``rest`` is the state a prefix leaves.  ``branches`` memoizes
    ``_branches`` for states of two or more classes, which many prefixes
    share (a one-class state is cheap to branch again, and may hold a long
    tuple).  A state with one value left is passed in one step.
    """
    stack = [((), state)]
    while stack:
        prefix, state = stack.pop()
        need = depth - len(prefix)
        if not need:
            yield prefix, state
            continue
        kids = branches.get(state)
        if kids is None:
            kids = _branches(state)
            if len(state) > 1:
                branches[state] = kids
        v, rest = kids[0]
        if rest is None:
            yield prefix + (v,) * need, tuple((a[need:], b) for a, b in state)
            continue
        stack += [(prefix + (v,), rest) for v, rest in kids]


def _orderings(a, memo):
    """The distinct orderings of the sorted tuple a, ascending, memoized by a.

    Up to four coefficients they are itertools.permutations, deduplicated
    and sorted; a longer tuple is peeled: each distinct first value v, then
    the orderings of what is left.  ``symmetrize`` asks for at most
    SUFFIX_LENGTH coefficients, so the recursion is at most that deep.
    """
    out = memo.get(a)
    if out is None:
        if len(a) <= 4:
            out = sorted(set(permutations(a)))
        else:
            out = []
            for v in sorted(set(a)):
                i = a.index(v)
                out += map((v,).__add__, _orderings(a[:i] + a[i + 1 :], memo))
        memo[a] = out
    return out


def symmetrize(inst: ILPInstance) -> ILPInstance:
    """Close the row set under all coefficient permutations of Sym(n).

    Each row class (the rows with equal sorted coefficients a and equal b)
    is one orbit; the classes are the keys of ``inst.row_classes``, split
    into (a, b) pairs.  ``_walk`` gives each distinct prefix of the first
    n - SUFFIX_LENGTH coefficients with the classes it leaves; the suffix
    list of each such residual state (its classes' orderings, each with its
    b, merged by one sort) is built once and shared, and each row is one
    prefix + suffix concatenation.  The rows come out strictly ascending,
    so the constructor does not sort.
    """
    state = tuple(sorted((key[:-1], key[-1]) for key in inst.row_classes))
    branches, shared, orderings = {}, {}, {}
    rows = []
    for prefix, rest in _walk(state, max(0, inst.n - SUFFIX_LENGTH), branches):
        suffixes = shared.get(rest)
        if suffixes is None:
            suffixes = []
            for a, b in rest:
                suffixes += map(tuple.__add__, _orderings(a, orderings), repeat((b,)))
            suffixes.sort()  # merges the classes' ascending runs
            shared[rest] = suffixes
        rows += map(prefix.__add__, suffixes)
    return ILPInstance(rows, inst.c, name=f"{inst.name}#sym")


def orbit_row_count(inst: ILPInstance) -> int:
    """The number of rows symmetrize(inst) returns, without expanding them."""
    return sum(distinct_permutations(key[:-1]) for key in inst.row_classes)


def _check_facets(vertices, facets) -> None:
    """Every (row, sorted vertex indices) pair holds on every vertex and is
    tight on exactly its indices, checked in ints on each vertex cleared of
    its denominators: (a | b) holds on v'/den when a.v' <= b * den."""
    scaled = list(map(clear_denominators, vertices))
    for row, idx in facets:
        tight = []
        for j, (v, den) in enumerate(scaled):
            slack = row[-1] * den - sum(map(mul, row, v))
            if slack < 0:
                raise DegenerateFacet("rounding broke the join's convex position")
            if not slack:
                tight.append(j)
        if tight != idx:
            raise DegenerateFacet(f"facet tight on vertices {tight}, expected {idx}")


def wild_facets(d: int) -> ILPInstance:
    """One facet row of the distorted join per Sym(n) class, n = d + 3.

    Fits the 6 hexagon-edge facets and the all-plus cross facet.  Negating
    p of its cross coordinates (3..d+2) gives the cross facet with p minus
    signs, since the vertices are closed under those flips (round3 is odd);
    all such facets form one Sym(n) class, so one flip per p stands for
    them.  Every row is checked in ints against every vertex.
    """
    if d < 3:
        raise BadParams(f"wild construction needs d >= 3, got d={d}")
    n = d + 3
    verts = distorted_join_vrep(d)
    k = len(verts)
    barycenter = tuple(sum(v[t] for v in verts) / k for t in range(n))
    # hexagon vertices are 0..5; the cross vertex s*e_i is 6 + 2i, or 7 + 2i if s < 0
    cross = list(range(6, 6 + 2 * d))
    facets = []
    for e in range(6):
        idx = sorted((e, (e + 1) % 6)) + cross
        facets.append((_fit_facet(verts, idx, barycenter), idx))
    plus = _fit_facet(verts, list(range(6)) + cross[::2], barycenter)
    for p in range(d + 1):
        row = plus[:2] + tuple(-v for v in plus[2 : 2 + p]) + plus[2 + p :]
        facets.append((row, list(range(6)) + [6 + 2 * i + (i < p) for i in range(d)]))
    _check_facets(verts, facets)
    return ILPInstance([row for row, _ in facets], [ONE] * n, name=f"wild-d{d}-facets")


def gen_wild(d: int) -> ILPInstance:
    """Symmetrized distorted join in dimension n = d + 3, objective 1.

    The orbits of wild_facets(d), expanded; more than WILD_ROW_BUDGET rows
    raises BadParams before any is expanded.
    """
    base = wild_facets(d)
    m = orbit_row_count(base)
    if m > WILD_ROW_BUDGET:
        raise BadParams(f"wild d={d} has {m:,} rows, above the budget of {WILD_ROW_BUDGET:,}")
    out = symmetrize(base)
    out.name = f"wild-d{d}"
    return out
