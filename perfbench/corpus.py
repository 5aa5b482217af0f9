"""Seeded instance corpora and the benchmark's own reference answers.

The corpora are raw rows drawn from a `random.Random`; the package only
receives them through `normalize` and `symmetrize`.  The reference side
(`expand`, `line_bound`, `reference_ilp`) is plain enumeration over the raw
rows and shares no code with the package, so its answers check every
solver independently.
"""

import math
from fractions import Fraction
from itertools import permutations, product

import symilp as S

# coefficient pool for random rows
_COEFFS = (-2, -1, 1, 2, 3)
_HALF = Fraction(1, 2)

# Box-free cases of each n, by the gap floor(n*zeta) - optimum between the
# LP bound on the fixed line and the integral optimum.  The gap sets how
# many layers the layer scan visits, so a fixed mix keeps the cost of a
# corpus the same from seed to seed.  "empty" cases have an empty
# relaxation; brute_force_ilp raises InfeasibleRegion on them.
FREE_MIX = ("empty", "empty", 0, 0, 0, 0, 0, 0, 1, 1)
_DRAW_LIMIT = 500


class Case:
    """One corpus instance: base rows, their closure and the reference.

    A Sym(n) case is handed to the package as its base rows and closed by
    `symmetrize`; a cyclic case is handed over already closed.
    """

    def __init__(self, name, n, base, symmetric, box):
        self.name = name
        self.n = n
        self.base = base
        self.symmetric = symmetric
        self.rows = expand(base, permutations(range(n)) if symmetric else cyclic_shifts(n))
        # the rows scaled to coprime integers, as the package stores them
        self.canonical = frozenset(tuple(v // math.gcd(*r) for v in r) for r in self.rows)
        self.box = box  # (lo, hi) per coordinate, holding every feasible point
        self.zeta = line_bound(self.rows)
        self.optimum = reference_ilp(self.rows, box)

    def instance(self):
        if self.symmetric:
            return S.symmetrize(S.normalize(self.base, [1] * self.n, name=self.name))
        return S.normalize(self.rows, [1] * self.n, name=self.name)


def expand(rows, group):
    """Close raw rows under the coordinate permutations in `group`."""
    group = list(group)
    out = set()
    for row in rows:
        a, b = row[:-1], row[-1]
        for p in group:
            out.add(tuple(a[i] for i in p) + (b,))
    return sorted(out)


def cyclic_shifts(n):
    return [tuple((i + s) % n for i in range(n)) for s in range(n)]


def line_bound(rows):
    """Largest t with t*1 feasible, or None when the line misses the region."""
    hi = None
    lo = None
    for row in rows:
        s, b = sum(row[:-1]), row[-1]
        if s > 0:
            hi = Fraction(b, s) if hi is None else min(hi, Fraction(b, s))
        elif s < 0:
            lo = Fraction(b, s) if lo is None else max(lo, Fraction(b, s))
        elif b < 0:
            return None
    if hi is None:
        raise ValueError("corpus rows must bound sum(x) from above")
    if lo is not None and lo > hi:
        return None
    return hi


def reference_ilp(rows, box):
    """Largest sum(x) over integral x in the box satisfying every row."""
    best = None
    for x in product(*(range(lo, hi + 1) for lo, hi in box)):
        s = sum(x)
        if best is not None and s <= best:
            continue
        if all(sum(a * v for a, v in zip(row, x)) <= row[-1] for row in rows):
            best = s
    return best


def _unit_rows(n, lo, hi):
    """The box lo <= x_i <= hi as single-variable rows."""
    rows = []
    for i in range(n):
        up = [0] * (n + 1)
        up[i], up[n] = 1, hi
        down = [0] * (n + 1)
        down[i], down[n] = -1, -lo
        rows += [tuple(up), tuple(down)]
    return rows


def _pair_row(a, b, n, rhs):
    return (a, b) + (0,) * (n - 2) + (rhs,)


def boxed_case(rng, n, pinned, name):
    """Sym(n)-closed rows plus the complete box -1 <= x_i <= 1.

    The layer scan finds the box among the rows, so its per-layer oracle
    only enumerates.  A pinned case fixes sum(x) to a half-integer band, so
    its relaxation is feasible and it has no integral point.
    """
    a, b = rng.sample(_COEFFS, 2)
    rows = [_pair_row(a, b, n, rng.randint(-2, 4))] + _unit_rows(n, -1, 1)
    if pinned:
        t = rng.randint(-n, n - 1)
        rows += [(2,) * n + (2 * t + 1,), (-2,) * n + (-(2 * t + 1),)]
    return Case(name, n, rows, True, [(-1, 1)] * n)


def box_free_case(rng, n, empty, name):
    """Sym(n)-closed rows without any single-variable row.

    The region is bounded by the band lo <= sum(x) <= lo + n and the orbit
    of x_1 - x_2 <= 2, so every layer box costs 2n exact LPs.  A symmetric
    region is empty iff it misses the line t*1, where the pair row reads
    (a + b) t <= rhs; `empty` puts rhs below the least value on the band.
    The band is fixed and a + b != 0, so every draw has the same row count
    and the same enumeration box; the seed picks the pair row.
    """
    lo = 0
    a, b = rng.sample(_COEFFS, 2)
    while a + b == 0:
        a, b = rng.sample(_COEFFS, 2)
    least = min((a + b) * Fraction(lo, n), (a + b) * Fraction(lo + n, n))
    rhs = math.ceil(least) + (-1 - rng.randint(0, 2) if empty else rng.randint(0, 3))
    rows = [
        _pair_row(a, b, n, rhs),
        (1,) * n + (lo + n,),
        (-1,) * n + (-lo,),
        _pair_row(1, -1, n, 2),
    ]
    # x_i <= x_j + 2 and the band put every x_i in this range
    box = [(math.floor(Fraction(lo - 2 * (n - 1), n)), math.ceil(Fraction(lo + 3 * n - 2, n)))] * n
    return Case(name, n, rows, True, box)


def gap_class(case):
    if case.zeta is None:
        return "empty"
    if case.optimum is None:
        return "no_point"
    return math.floor(case.n * case.zeta) - case.optimum


def cross_check_corpus(rng):
    """Boxed and box-free Sym(n)-closed cases for n in {3, 4, 5}.

    Per n: three boxed cases (one pinned), and one box-free case for each
    entry of FREE_MIX, redrawn until its gap class matches.
    """
    cases = []
    for n in (3, 4, 5):
        for j in range(3):
            cases.append(boxed_case(rng, n, j == 0, f"boxed-n{n}-{j}"))
        for j, want in enumerate(FREE_MIX):
            for _ in range(_DRAW_LIMIT):
                case = box_free_case(rng, n, want == "empty", f"free-n{n}-{j}")
                if gap_class(case) == want:
                    break
            else:
                raise RuntimeError(f"no box-free case with gap {want!r} for n={n}")
            cases.append(case)
    return cases


def symmetry_order(rows, n):
    """How many coordinate permutations map the row set onto itself."""
    rowset = set(rows)
    return sum(
        all(tuple(r[i] for i in p) + (r[-1],) in rowset for r in rows)
        for p in permutations(range(n))
    )


def feasible_share(rows, box):
    """The share of the integral points of the box that satisfy every row."""
    points = list(product(*(range(lo, hi + 1) for lo, hi in box)))
    hits = sum(all(sum(a * v for a, v in zip(row, x)) <= row[-1] for row in rows) for x in points)
    return Fraction(hits, len(points))


def cyclic_case(rng, n, name, dense):
    """Rows whose symmetry group is exactly the n-cycle's, plus 0 <= x_i <= 2.

    The base row is redrawn until its cyclic shifts have no other
    coordinate symmetry, so the two-generator Sym(n) certificate fails and
    the layer scan falls through to reduced-graph detection of a group of
    order n.  It is also redrawn until at least half of the box is
    feasible if `dense`, and less than half if not: a dense case costs the
    layer scan and brute force several times what a sparse one does.
    """
    while True:
        vals = rng.sample(_COEFFS, rng.randint(2, 3))
        base = [tuple(rng.choice(vals + [0]) for _ in range(n)) + (rng.randint(1, 6),)]
        rows = expand(base, cyclic_shifts(n)) + _unit_rows(n, 0, 2)
        if (feasible_share(rows, [(0, 2)] * n) >= _HALF) != dense:
            continue
        case = Case(name, n, base + _unit_rows(n, 0, 2), False, [(0, 2)] * n)
        if symmetry_order(case.rows, n) == n:
            return case


def cyclic_corpus(rng, per_n, dense_per_n):
    """Per n in {5, 6, 7}: `dense_per_n` dense cases, then sparse ones up
    to `per_n`.  The fixed mix keeps the cost of a corpus the same from
    seed to seed."""
    return [cyclic_case(rng, n, f"cyclic-n{n}-{j}", j < dense_per_n)
            for n in (5, 6, 7) for j in range(per_n)]
