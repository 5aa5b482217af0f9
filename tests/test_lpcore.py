from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import ceil, floor, lcm

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from symilp import cli, lpcore, model
from symilp.errors import (
    BoxTooLarge,
    InfeasibleRegion,
    InfeasibleZeroRow,
    ObjectiveNotOnes,
    ResultCheckFailed,
    SearchBudgetExceeded,
)
from symilp.lpcore import coordinate_bounds, integer_box, solve_lp, solve_lp_on_line
from symilp.instances import HtcParams, gen_hypertruncated_cube, htc_r
from symilp.model import OPTIMAL, ILPInstance, Outcome, normalize, write_instance
from symilp.ratlin import clear_denominators, dot, kernel_basis
from symilp.reduction import solve_symmetric_lp
from symilp.corepoint import solve_core_point
from symilp.layers import solve_by_layers
from symilp.symmetry import GroupSpec, fixed_space, sym_generators
from testkit import (
    RowTableau,
    rank,
    reference_simplex,
    solve_linear,
    symmetric_lps,
    tableau_lp,
    tableau_row,
)


def vertex_oracle_max(inst):
    """Independent optimum for bounded P: enumerate all basic points.

    Intersects every n-subset of constraint hyperplanes, keeps the feasible
    intersections, and maximizes c over them.  Valid whenever P is a
    polytope (bounded), where the LP optimum is attained at a vertex.
    """
    n = inst.n
    best = None
    for subset in combinations(inst.rows, n):
        M = [r[:-1] for r in subset]
        if rank(M) < n:
            continue
        x = solve_linear(M, [r[-1] for r in subset])
        if x is None or not inst.is_feasible(x):
            continue
        val = dot(inst.c, x)
        if best is None or val > best:
            best = val
    return best


def test_unit_square():
    inst = normalize([(1, 0, 1), (0, 1, 1), (-1, 0, 0), (0, -1, 0)], [1, 1])
    out = solve_lp(inst)
    assert out.status == "optimal"
    assert out.value == 2 and out.point == (1, 1)


def test_ex61_lp(ex61):
    out = solve_lp(ex61)
    assert out.status == "optimal" and out.value == 3
    assert out.point == (1, 1, 1)


def test_unbounded_ray():
    inst = normalize([(-1, 0)], [1])
    assert solve_lp(inst).status == "unbounded"


def test_infeasible():
    inst = normalize([(1, -1), (-1, 0)], [1])
    assert solve_lp(inst).status == "infeasible"


def test_fractional_optimum():
    # max x+y s.t. 2x+y <= 2, x+2y <= 2, x,y >= 0: optimum 4/3 at (2/3, 2/3)
    inst = normalize([(2, 1, 2), (1, 2, 2), (-1, 0, 0), (0, -1, 0)], [1, 1])
    out = solve_lp(inst)
    assert out.value == Fraction(4, 3)
    assert out.point == (Fraction(2, 3), Fraction(2, 3))


def test_matches_vertex_oracle_small_corpus(corpus):
    taken = 0
    for inst in corpus:
        if inst.n > 3 or inst.m > 24:
            continue
        out = solve_lp(inst)
        expect = vertex_oracle_max(inst)
        if expect is None:
            assert out.status == "infeasible"
        else:
            assert out.status == "optimal" and out.value == expect
        taken += 1
        if taken >= 12:
            break
    assert taken >= 5


def test_matches_vertex_oracle_random_rational():
    import random

    rng = random.Random(99)
    done = 0
    while done < 25:
        n = rng.randint(2, 3)
        rows = []
        # a random bounded region: box rows plus a few random cuts
        for i in range(n):
            e = [Fraction(0)] * n
            e[i] = Fraction(1)
            rows.append(tuple(e) + (Fraction(rng.randint(1, 4), rng.randint(1, 3)),))
            e = [Fraction(0)] * n
            e[i] = Fraction(-1)
            rows.append(tuple(e) + (Fraction(rng.randint(0, 3), 1),))
        for _ in range(rng.randint(1, 3)):
            row = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n))
            if not any(row):
                continue
            rows.append(row + (Fraction(rng.randint(-1, 5), rng.randint(1, 2)),))
        c = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)]
        inst = normalize(rows, c, name=f"lp-rand{done}")
        out = solve_lp(inst)
        expect = vertex_oracle_max(inst)
        if expect is None:
            assert out.status == "infeasible"
        else:
            assert out.status == "optimal" and out.value == expect
        done += 1


def line_ratio_scan(inst):
    """The LP on the line as a ratio scan over the row sums s = sum(a).

    zeta is the least b/s over rows with s > 0; a row with s < 0 bounds
    zeta below, and a row with s = 0 and b < 0 leaves no feasible zeta.
    """
    lo = hi = None
    for row in inst.rows:
        b, s = row[-1], sum(row[:-1])
        if s > 0:
            q = Fraction(b, s)
            hi = q if hi is None else min(hi, q)
        elif s < 0:
            q = Fraction(b, s)
            lo = q if lo is None else max(lo, q)
        elif b < 0:
            return ("infeasible", None)
    if lo is not None and hi is not None and lo > hi:
        return ("infeasible", None)
    if hi is None:
        return ("unbounded", None)
    return ("optimal", hi)


@st.composite
def ones_lps(draw):
    n = draw(st.integers(1, 5))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        a = tuple(draw(st.integers(-3, 3)) for _ in range(n))
        if any(a):
            rows.append(a + (draw(st.integers(-4, 6)),))
    rows = rows or [(1,) * n + (0,)]
    return normalize(rows, [1] * n, name="ones")


@settings(max_examples=300, deadline=None)
@given(ones_lps())
def test_line_matches_ratio_scan(inst):
    status, zeta = solve_lp_on_line(inst)
    assert (status, zeta) == line_ratio_scan(inst)
    assert zeta is None or type(zeta) is Fraction


def test_line_matches_ratio_scan_on_corpus(corpus):
    for inst in corpus:
        assert solve_lp_on_line(inst) == line_ratio_scan(inst)


def test_line_ex61(ex61):
    assert solve_lp_on_line(ex61) == ("optimal", Fraction(1))


def test_line_htc(htc6):
    assert solve_lp_on_line(htc6) == ("optimal", Fraction(1, 2))


def test_line_unbounded():
    inst = normalize([(-1, -1, 0)], [1, 1])
    assert solve_lp_on_line(inst) == ("unbounded", None)


def test_line_infeasible():
    inst = normalize([(2, 2, 1), (-2, -2, -3)], [1, 1])
    assert solve_lp_on_line(inst) == ("infeasible", None)


def test_line_requires_ones(ex61):
    inst = normalize(ex61.rows, [1, 2, 1])
    with pytest.raises(ObjectiveNotOnes):
        solve_lp_on_line(inst)


@pytest.mark.parametrize("f", [(1, 1), (1, 1, 1, 1)])
def test_basis_vector_of_the_wrong_length_is_refused(ex61, f):
    # a short or long vector would be cut to the shorter length, not refused
    with pytest.raises(ValueError, match="n = 3"):
        solve_lp(ex61, [(1, 1, 1), f])


def test_line_agrees_with_equality_augmented_lp(corpus):
    """On the diagonal, max sum(x) equals the LP with x_i = x_{i+1} rows."""
    taken = 0
    for inst in corpus:
        if inst.n > 4 or inst.m > 40:
            continue
        n = inst.n
        rows = list(inst.rows)
        for i in range(n - 1):
            e = [0] * (n + 1)
            e[i], e[i + 1] = 1, -1
            rows.append(tuple(e))
            e = [0] * (n + 1)
            e[i], e[i + 1] = -1, 1
            rows.append(tuple(e))
        aug = normalize(rows, inst.c, name=f"{inst.name}#diag")
        status, zeta = solve_lp_on_line(inst)
        out = solve_lp(aug)
        if status == "optimal" and out.status == "optimal":
            assert out.value == inst.n * zeta
        else:
            assert status == out.status or out.status == "infeasible"
        taken += 1
        if taken >= 10:
            break
    assert taken >= 5


def test_coordinate_bounds_cube():
    inst = normalize(
        [(1, 0, 1), (0, 1, 1), (-1, 0, 0), (0, -1, 0)], [1, 1]
    )
    assert coordinate_bounds(inst) == [(0, 1), (0, 1)]


def test_coordinate_bounds_ex61_all_open(ex61):
    # (-1,0,0), (1,-1,-2) etc. are recession directions, so every
    # coordinate is unbounded in both directions over P
    for v in ((-1, 0, 0), (1, -1, -2)):
        assert all(dot(r[:-1], v) <= 0 for r in ex61.rows)
    assert coordinate_bounds(ex61) == [(None, None)] * 3


def test_coordinate_bounds_halfspace_open():
    inst = normalize([(-1, 0)], [1])
    assert coordinate_bounds(inst) == [(0, None)]


def test_coordinate_bounds_infeasible():
    inst = normalize([(1, -1), (-1, 0)], [1])
    with pytest.raises(InfeasibleRegion):
        coordinate_bounds(inst)


def test_integer_box_rounds_the_lp_bounds_inward():
    # -1/2 <= x1 <= 3/2 and 0 <= x2 <= 1
    inst = normalize([(2, 0, 3), (-2, 0, 1), (0, 1, 1), (0, -1, 0)], [1, 1])
    assert integer_box(inst) == [(0, 1), (0, 1)]
    with pytest.raises(BoxTooLarge):
        integer_box(normalize([(2, 0, 3), (-2, 0, 1), (0, 1, 1)], [1, 1]))
    with pytest.raises(InfeasibleRegion):
        integer_box(normalize([(1, -1), (-1, 0)], [1]))


# --- bounded rational instances against the vertex oracle

rationals = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


@st.composite
def bounded_lps(draw):
    """A rational box, shifted off the origin at times, plus rational cuts."""
    n = draw(st.integers(1, 3))
    rows = []
    for j in range(n):
        lo = draw(rationals)
        hi = lo + draw(st.builds(Fraction, st.integers(0, 4), st.integers(1, 3)))
        e = [0] * n
        e[j] = 1
        rows.append(tuple(e) + (hi,))
        e[j] = -1
        rows.append(tuple(e) + (-lo,))
    for _ in range(draw(st.integers(0, 3))):
        a = tuple(draw(rationals) for _ in range(n))
        if any(a):
            rows.append(a + (draw(rationals),))
    c = [draw(rationals) for _ in range(n)]
    return normalize(rows, c, name="hyp")


def _unit(n, j, sign):
    e = [0] * n
    e[j] = sign
    return e


# x in [1, 2], y in [1/2, 3/2] with x + y <= 5/2: the origin is infeasible
@example(normalize([(1, 0, 2), (-1, 0, -1), (0, 2, 3), (0, -2, -1), (2, 2, 5)], [1, 1]))
# x pinned to 1 by two rows: phase 1 ends with the auxiliary basic at zero
@example(normalize([(1, 1), (-1, -1)], [Fraction(-3, 2)]))
@settings(max_examples=120, deadline=None)
@given(bounded_lps())
def test_lp_and_bounds_match_vertex_oracle(inst):
    expect = vertex_oracle_max(inst)
    out = solve_lp(inst)
    if expect is None:
        assert out.status == "infeasible"
        with pytest.raises(InfeasibleRegion):
            coordinate_bounds(inst)
        return
    assert out.status == "optimal" and out.value == expect
    assert inst.is_feasible(out.point)
    n = inst.n
    bounds = []
    for j in range(n):
        hi = vertex_oracle_max(normalize(inst.rows, _unit(n, j, 1)))
        lo = -vertex_oracle_max(normalize(inst.rows, _unit(n, j, -1)))
        bounds.append((lo, hi))
    assert coordinate_bounds(inst) == bounds


def test_pivots_are_traced_per_phase():
    # the starting basis violates 2x - 2y <= -1, so phase 1 pivots
    inst = normalize([(-1, 0, 1), (1, -2, 1), (2, -2, -1), (2, 1, 0)], [1, 1])
    trace = {}
    out = solve_lp(inst, trace=trace)
    assert out.status == "optimal" and out.value == 1
    assert trace["pivots_phase1"] > 0 and trace["pivots_phase2"] >= 0
    # the unit square starts feasible: phase 1 makes no pivot
    square = normalize([(1, 0, 1), (0, 1, 1), (-1, 0, 0), (0, -1, 0)], [1, 1])
    trace = {}
    solve_lp(square, trace=trace)
    assert trace == {"pivots_phase1": 0, "pivots_phase2": 2}
    # an infeasible LP stops after phase 1: x <= -1 and x >= 0, with y <= 1
    trace = {}
    inst = normalize([(1, 0, -1), (-1, 0, 0), (0, 1, 1)], [1, 1])
    assert solve_lp(inst, trace=trace).status == "infeasible"
    assert trace["pivots_phase1"] > 0 and trace["pivots_phase2"] == 0
    # in one variable the ratio test answers, and no pivot is made
    trace = {}
    assert solve_lp(normalize([(1, -1), (-1, 0)], [1]), trace=trace).status == "infeasible"
    assert trace == {"pivots_phase1": 0, "pivots_phase2": 0}


def test_phase1_pivots_out_a_degenerate_auxiliary(monkeypatch):
    """Phase 1 can end with the auxiliary basic at zero; its row never vanishes.

    The auxiliary's row is r^T [A | I | u] over the nonbasic columns, with
    r its row of the inverse basis: r is zero on the basic structurals and
    slacks and r.u = 1, so some nonbasic slack column is nonzero and a
    pivot-out always exists.  No row ever has to be deleted.
    """
    hits = []
    run = lpcore._Tableau.run

    def spy(t):
        status = run(t)
        if t.aux in t.basis:
            row = tableau_row(t, t.basis.index(t.aux))
            slacks = range(t.n, t.aux)  # the auxiliary is n + m
            hits.append(any(row[k] for k, v in enumerate(t.nonbasic) if v in slacks))
        return status

    monkeypatch.setattr(lpcore._Tableau, "run", spy)
    # x = 1 from x >= 1, x >= 0 and x <= 1: x enters on x >= 0, the row
    # with b >= 0 that bounds it first, which leaves x >= 1 violated; the
    # auxiliary enters on x >= 1, and the ratio test then ties the auxiliary
    # with the slack of x <= 1, which Bland's rule lets leave first
    inst = normalize([(-1, -1), (-1, 0), (1, 1)], [1])
    [out] = tableau_lp(inst, [inst.c])
    assert out.status == "optimal" and out.value == 1 and out.point == (1,)
    assert hits == [True]

    import random

    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(1, 3)
        rows = []
        for j in range(n):
            v = rng.randint(-1, 2)
            rows.append(tuple(_unit(n, j, 1)) + (v + rng.randint(0, 1),))
            rows.append(tuple(_unit(n, j, -1)) + (-v,))
        rows.append(tuple(rng.randint(-2, 2) for _ in range(n)) + (rng.randint(-1, 3),))
        try:
            inst = normalize(rows, [rng.randint(-2, 2) for _ in range(n)])
        except InfeasibleZeroRow:
            continue
        [out] = tableau_lp(inst, [inst.c])
        expect = vertex_oracle_max(inst)
        assert out.value == expect or (expect is None and out.status == "infeasible")
    assert len(hits) > 1 and all(hits)


SQUARE = [(1, 0, 1), (0, 1, 1), (-1, 0, 0), (0, -1, 0)]


def _corrupt_phase2(monkeypatch, dx, dz):
    """After the first phase-2 run, move x_1 by dx and the objective value by
    dz, on the rhs column over its denominator den[-1]."""
    run = lpcore._Tableau.run
    done = []

    def spy(t):
        status = run(t)
        if t.aux not in t.basis + t.nonbasic and not done:
            i, rhs, d = t.basis.index(0), t.cols[-1], t.den[-1]
            x, z = tableau_row(t, i)[-1], tableau_row(t, t.m)[-1]  # c = (1, 1): scale 1
            rhs[i] += dx * d
            rhs[t.m] += dz * d
            assert (tableau_row(t, i)[-1], tableau_row(t, t.m)[-1]) == (x + dx, z + dz)
            done.append(t)
        return status

    monkeypatch.setattr(lpcore._Tableau, "run", spy)


# an optimal point with a wrong value, or off the region with a value to match
WRONG = [(0, 1), (1, 1)]


def test_solve_lp_rejects_a_wrong_point(monkeypatch):
    inst = normalize(SQUARE, [1, 1])
    for dx, dz in WRONG:
        with monkeypatch.context() as mp:
            _corrupt_phase2(mp, dx, dz)
            with pytest.raises(ResultCheckFailed):
                solve_lp(inst)


def test_coordinate_bounds_rejects_a_wrong_point(monkeypatch):
    # every phase-2 answer is checked, not only solve_lp's
    inst = normalize(SQUARE, [1, 1])
    for dx, dz in WRONG:
        with monkeypatch.context() as mp:
            _corrupt_phase2(mp, dx, dz)
            with pytest.raises(ResultCheckFailed):
                coordinate_bounds(inst)


def test_coordinate_bounds_runs_phase1_once(monkeypatch):
    built, phase1 = [], lpcore._phase1

    class Tableau(lpcore._Tableau):
        def __init__(self, inst):
            built.append(inst)
            super().__init__(inst)

    ran = []
    monkeypatch.setattr(lpcore, "_Tableau", Tableau)
    monkeypatch.setattr(lpcore, "_phase1", lambda t: ran.append(t) or phase1(t))
    # x in [1, 2], y in [1/2, 3/2], x + y <= 5/2: the origin is infeasible,
    # but x enters on x <= 2 and y on x + y <= 5/2, which leaves every row
    # feasible, so the one phase 1 makes no pivot
    inst = normalize([(1, 0, 2), (-1, 0, -1), (0, 2, 3), (0, -2, -1), (2, 2, 5)], [1, 1])
    trace = {}
    assert coordinate_bounds(inst, trace=trace) == [(1, 2), (Fraction(1, 2), Fraction(3, 2))]
    assert len(built) == len(ran) == 1
    # summed over the 2n = 4 runs: the region is the triangle (1, 1/2),
    # (2, 1/2), (1, 3/2) and the entries stop at (2, 1/2); min x moves to
    # (1, 3/2), min y back to (2, 1/2), max x stays and max y moves to
    # (1, 3/2) again: 1 + 1 + 0 + 1
    assert trace == {"pivots_phase1": 0, "pivots_phase2": 3}
    assert coordinate_bounds(inst) == reference_bounds(inst)
    # 2x - 2y <= -1 stays violated after the entries, so the one phase 1
    # pivots; integer_box passes its trace on
    inst = normalize([(-1, 0, 1), (1, -2, 1), (2, -2, -1), (2, 1, 0)], [1, 1])
    trace = {}
    assert integer_box(inst, trace=trace) == [(-1, -1), (0, 2)]
    assert len(built) == len(ran) == 3
    # phase 1 stops at (-1/6, 1/3) of the triangle with (-1, -1/2) and
    # (-1, 2); min x moves to (-1, 2), min y to (-1, -1/2) in 2 pivots,
    # max x back to (-1/6, 1/3) and max y to (-1, 2): 1 + 2 + 1 + 1
    assert trace == {"pivots_phase1": 2, "pivots_phase2": 5}


def test_coordinate_bounds_phase2_pivots_stay_below_the_alternating_order(corpus):
    # pivot counts do not vary from run to run; taking max x_j then min x_j
    # for each j in turn took 2,141 phase-2 pivots over this corpus, and all
    # minima before all maxima takes 1,399
    total = 0
    for inst in corpus:
        trace = {}
        try:
            coordinate_bounds(inst, trace=trace)
        except InfeasibleRegion:
            continue
        total += trace["pivots_phase2"]
    assert total < 2141


def test_simplex_refuses_past_its_pivot_budget(monkeypatch, tmp_path, capsys):
    # from the square's lower corner, phase 2 takes 2 pivots to (1, 1)
    inst = normalize(SQUARE, [1, 1])
    monkeypatch.setattr(lpcore, "PIVOT_BUDGET", 2)
    assert solve_lp(inst).value == 2
    monkeypatch.setattr(lpcore, "PIVOT_BUDGET", 1)
    with pytest.raises(SearchBudgetExceeded, match="1 pivots"):
        solve_lp(inst)
    path = tmp_path / "square.ilp"
    write_instance(inst, path)
    assert cli.main(["lp", str(path)]) == cli.EXIT_REFUSED
    err = capsys.readouterr().err
    assert err.startswith("refused: ") and err.count("\n") == 1


# --- against the split-column simplex in testkit


def reference_bounds(inst):
    """coordinate_bounds by 2n reference solves, or None when infeasible."""
    n = inst.n
    out = []
    for j in range(n):
        up = reference_simplex(inst, _unit(n, j, 1))
        if up.status == "infeasible":
            return None
        down = reference_simplex(inst, _unit(n, j, -1))
        out.append((-down.value if down.value is not None else None, up.value))
    return out


def reference_over(inst, basis):
    """The reference LP over x in the span of basis, as equality rows k.x = 0."""
    rows = list(inst.rows)
    for k in kernel_basis(basis, ncols=inst.n):
        rows += [tuple(k) + (0,), tuple(-v for v in k) + (0,)]
    return reference_simplex(normalize(rows, inst.c), inst.c)


@st.composite
def free_lps(draw):
    """Ax <= b over free x, infeasible and unbounded ones too: at times with
    a zero column or two equal columns, and c inside or outside the row space."""
    n = draw(st.integers(1, 4))
    shape = draw(st.sampled_from(["plain", "zero column", "equal columns"]))
    rows = []
    for _ in range(draw(st.integers(1, 7))):
        a = [draw(st.integers(-2, 2)) for _ in range(n)]
        if shape == "zero column":
            a[-1] = 0
        elif shape == "equal columns":
            a[-1] = a[0]
        if any(a):
            rows.append(tuple(a) + (draw(st.integers(-2, 3)),))
    assume(rows)
    if draw(st.booleans()):
        mult = [draw(st.integers(-1, 2)) for _ in rows]
        c = [sum(t * r[j] for t, r in zip(mult, rows)) for j in range(n)]
    else:
        c = [draw(st.integers(-2, 2)) for _ in range(n)]
    return normalize(rows, c, name=shape)


@settings(max_examples=300, deadline=None)
@given(free_lps())
def test_free_columns_match_the_split_column_reference(inst):
    out, ref = solve_lp(inst), reference_simplex(inst, inst.c)
    assert (out.status, out.value) == (ref.status, ref.value)
    line = [(1,) * inst.n]
    out, ref = solve_lp(inst, line), reference_over(inst, line)
    assert (out.status, out.value) == (ref.status, ref.value)
    ones = normalize(inst.rows, [1] * inst.n)
    ref = reference_over(ones, line)
    zeta = ref.value / inst.n if ref.status == "optimal" else None
    assert solve_lp_on_line(ones) == (ref.status, zeta)
    bounds = reference_bounds(inst)
    if bounds is None:
        for f in (coordinate_bounds, integer_box):
            with pytest.raises(InfeasibleRegion):
                f(inst)
        return
    assert coordinate_bounds(inst) == bounds
    if any(v is None for pair in bounds for v in pair):
        with pytest.raises(BoxTooLarge):
            integer_box(inst)
    else:
        assert integer_box(inst) == [(ceil(lo), floor(hi)) for lo, hi in bounds]


@settings(max_examples=150, deadline=None)
@given(symmetric_lps())
def test_fixed_space_lp_matches_the_reference(case):
    inst, G = case
    out, ref = solve_symmetric_lp(inst, G), reference_simplex(inst, inst.c)
    assert (out.status, out.value) == (ref.status, ref.value)
    basis = fixed_space(G)
    if basis:
        ref = reference_over(inst, basis)
        assert (out.status, out.value) == (ref.status, ref.value)


def test_a_free_line_in_the_region():
    # x1 + x2 <= 1 holds along x1 - x2 = t: x2 never finds a slack row to enter on
    inst = normalize([(1, 1, 1)], [1, 1])
    out = solve_lp(inst)
    assert out.status == "optimal" and out.value == 1 and inst.is_feasible(out.point)
    assert solve_lp(normalize(inst.rows, [1, 0])).status == "unbounded"
    assert coordinate_bounds(inst) == [(None, None)] * 2


# --- one variable: the ratio test, against the tableau and the references

NO_PIVOTS = {"pivots_phase1": 0, "pivots_phase2": 0}


@st.composite
def one_variable_lps(draw):
    """s * y <= b with s in -3..3 and b in -4..6, at times a Fraction over 2
    or 3 and at times s = 0, each row cleared to integers by its own positive
    scale (zero rows are kept), and c in -2..2, at times over 2 or 3."""
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        pair = []
        for v in (draw(st.integers(-3, 3)), draw(st.integers(-4, 6))):
            pair.append(Fraction(v, draw(st.sampled_from([1, 1, 2, 3]))))
        rows.append(clear_denominators(pair)[0])
    c = Fraction(draw(st.integers(-2, 2)), draw(st.sampled_from([1, 2, 3])))
    return ILPInstance(rows, [c], name="line")


@example(ILPInstance([(0, -1), (1, 2)], [1]))  # 0 <= -1
@example(ILPInstance([(1, 1), (-2, -3)], [1]))  # 3/2 <= y <= 1
@example(ILPInstance([(0, 0), (-1, 2)], [Fraction(-1, 2)]))
@settings(max_examples=300, deadline=None)
@given(one_variable_lps())
def test_one_variable_lp_matches_the_tableau(inst):
    trace = {}
    out = solve_lp(inst, trace=trace)
    [ref] = tableau_lp(inst, [inst.c])
    assert (out.status, out.value) == (ref.status, ref.value)
    assert inst.c[0] == 0 or out.point == ref.point  # c != 0: the optimum is unique
    assert trace == NO_PIVOTS


def test_a_zero_objective_takes_the_feasible_point_nearest_0():
    # every feasible y is optimal: 0 when 0 is feasible, else the end nearer 0
    for rows, y in (
        ([(1, 2), (-1, 1)], 0),  # -1 <= y <= 2
        ([(1, 5), (-2, -3)], Fraction(3, 2)),  # 3/2 <= y <= 5
        ([(2, -3), (-1, 4)], Fraction(-3, 2)),  # -4 <= y <= -3/2
        ([(-1, -1)], 1),  # y >= 1
        ([(0, 1)], 0),  # every y
    ):
        inst = ILPInstance(rows, [0])
        assert solve_lp(inst) == Outcome(OPTIMAL, point=(y,), value=0)
        assert solve_lp(inst).value == tableau_lp(inst, [inst.c])[0].value
    assert solve_lp(ILPInstance([(1, -1), (-1, 0)], [0])).status == "infeasible"
    # c != 0 but c.f = 0: 2 <= x1 + x2 <= 4 gives 1 <= y <= 2 on f = (1, 1)
    inst = normalize([(1, 1, 4), (-1, -1, -2), (1, -1, 7)], [1, -1])
    assert solve_lp(inst, [(1, 1)]) == Outcome(OPTIMAL, point=(1, 1), value=0)


@settings(max_examples=300, deadline=None)
@given(free_lps(), st.data())
def test_one_vector_basis_matches_the_reference(inst, data):
    f = tuple(data.draw(st.integers(-2, 2)) for _ in range(inst.n))
    trace = {}
    out, ref = solve_lp(inst, [f], trace=trace), reference_over(inst, [f])
    assert (out.status, out.value) == (ref.status, ref.value)
    assert dot(inst.c, f) == 0 or out.point == ref.point
    assert trace == NO_PIVOTS


@settings(max_examples=200, deadline=None)
@given(one_variable_lps())
def test_one_variable_bounds_match_the_reference(inst):
    trace = {}
    bounds = reference_bounds(inst)
    if bounds is None:
        with pytest.raises(InfeasibleRegion):
            coordinate_bounds(inst, trace=trace)
    else:
        assert coordinate_bounds(inst, trace=trace) == bounds
    assert trace == NO_PIVOTS


def test_the_ratio_test_rejects_a_wrong_end(monkeypatch):
    # 0 <= y <= 1, but the interval comes back as [-1, 2]: every answer read
    # from it is checked against the rows, as the tableau's are
    monkeypatch.setattr(lpcore, "_interval", lambda pairs: ((-1, 1), (2, 1)))
    for c in (1, -1):
        with pytest.raises(ResultCheckFailed):
            solve_lp(ILPInstance([(1, 1), (-1, 0)], [c]))
    with pytest.raises(ResultCheckFailed):
        coordinate_bounds(ILPInstance([(1, 1), (-1, 0)], [1]))


def test_no_tableau_has_fewer_than_2_columns(corpus, tableau_columns):
    # every one-variable LP of the scans and of the reduction is a ratio test
    for inst in corpus:
        solve_core_point(inst)
        solve_by_layers(inst)
        solve_lp_on_line(inst)
        solve_symmetric_lp(inst, GroupSpec(inst.n, sym_generators(inst.n)))
    assert min(tableau_columns, default=2) >= 2


# --- pivot by pivot against the row-major tableau in testkit


class _Replay:
    """Replays every pivot of lpcore._Tableau on testkit.RowTableau, with
    phase 1's auxiliary column and each objective row, and compares the two
    dictionaries' true entries as Fractions before and after each pivot."""

    def __init__(self, monkeypatch):
        self.t = self.ref = None
        self.events = Counter()
        init, pivot, run, maximize = (
            lpcore._Tableau.__init__, lpcore._Tableau.pivot, lpcore._Tableau.run, lpcore._maximize
        )

        def spy_init(t, inst):
            self.t, self.ref, self.scale = t, RowTableau.of(inst), 1
            init(t, inst)

        def spy_pivot(t, e, l):
            self.sync()
            pivot(t, e, l)
            self.ref.pivot(e, l)
            self.events["pivot"] += 1
            self.check()

        def spy_run(t):
            self.sync()
            return run(t)

        def spy_maximize(t, inst, c):
            self.sync()
            self.scale = scale = lcm(*(cj.denominator for cj in c))
            self.ref.install_objective([(j, int(cj * scale)) for j, cj in enumerate(c)], scale)
            self.events["objective"] += 1
            value = maximize(t, inst, c)
            self.check()
            return value

        monkeypatch.setattr(lpcore._Tableau, "__init__", spy_init)
        monkeypatch.setattr(lpcore._Tableau, "pivot", spy_pivot)
        monkeypatch.setattr(lpcore._Tableau, "run", spy_run)
        monkeypatch.setattr(lpcore, "_maximize", spy_maximize)

    def sync(self):
        """Insert or drop the reference's auxiliary as the tableau did, then check."""
        t, ref = self.t, self.ref
        ours, theirs = t.aux in t.basis + t.nonbasic, t.aux in ref.basis + ref.nonbasic
        if ours and not theirs:
            ref.insert_aux(t.aux, t.n)
            self.events["insert"] += 1
        elif theirs and not ours:
            ref.drop(t.aux)
            self.events["drop"] += 1
        self.check()

    def check(self):
        t, ref = self.t, self.ref
        assert (t.basis, t.nonbasic, t.D) == (ref.basis, ref.nonbasic, ref.D)
        for i in range(t.m + 1):
            assert tableau_row(t, i, self.scale) == ref.row(i)


def _replayed(inst):
    """The tableau runs of solve_lp (max c) and of coordinate_bounds (the n
    minima, then the n maxima) on inst, each under a _Replay, driven by
    tableau_lp so that n = 1 builds a tableau too; the event counts."""
    n = inst.n
    bounds = [_unit(n, j, -1) for j in range(n)] + [_unit(n, j, 1) for j in range(n)]
    events = Counter()
    for objectives in ([inst.c], bounds):
        with pytest.MonkeyPatch.context() as mp:
            replay = _Replay(mp)
            tableau_lp(inst, objectives)
            replay.sync()
            events += replay.events
    return events


@example(normalize([(1, 0, 2), (-1, 0, -1), (0, 2, 3), (0, -2, -1), (2, 2, 5)], [1, 1]))
@example(normalize([(-1, 0, 1), (1, -2, 1), (2, -2, -1), (2, 1, 0)], [1, 1]))
@settings(max_examples=150, deadline=None)
@given(st.one_of(bounded_lps(), free_lps()))
def test_pivots_match_the_row_major_reference(inst):
    _replayed(inst)


def test_phase1_matches_the_row_major_reference():
    # phase 1 pivots, and ends once with the auxiliary basic at zero
    events = Counter()
    for inst in (
        normalize([(-1, 0, 1), (1, -2, 1), (2, -2, -1), (2, 1, 0)], [1, 1]),
        normalize([(-1, -1), (-1, 0), (1, 1)], [1]),
        normalize([(1, -1), (-1, 0)], [1]),  # infeasible
    ):
        events += _replayed(inst)
    assert events["insert"] == 6 and events["drop"] == 4


@pytest.mark.parametrize("n", [6, 9, 14, 20])
def test_htc_pivots_match_the_row_major_reference(n):
    inst = gen_hypertruncated_cube(HtcParams(n, htc_r(n), Fraction(1, 2)))
    events = _replayed(inst)
    assert events["pivot"] > 2 * n and events["objective"] == 2 * n + 1


def test_a_pivot_keeps_the_columns_with_a_zero_in_its_row(monkeypatch):
    """A column with a zero in the pivot row is the same list after the pivot,
    also at the pivots that change the determinant D."""
    pivot = lpcore._Tableau.pivot
    kept = []

    def spy(t, e, l):
        zero = [(k, col) for k, col in enumerate(t.cols) if k != e and not col[l]]
        D = t.D
        pivot(t, e, l)
        assert all(t.cols[k] is col for k, col in zero)
        kept.append((len(zero), t.D != D))

    monkeypatch.setattr(lpcore._Tableau, "pivot", spy)
    inst = gen_hypertruncated_cube(HtcParams(40, htc_r(40), Fraction(1, 2)))
    assert solve_lp(inst).value == 20
    assert sum(k for k, changed in kept if changed) > 10 * sum(changed for _, changed in kept)


# --- the entry rule: each free x_j enters by a ratio test over rows with b >= 0


def test_htc_needs_no_phase1():
    # b >= 0 on every row, so the entries keep x = 0 feasible: each x_j
    # enters on its own bound row x_j >= 0 (ratio 0), not on a dense row
    inst = gen_hypertruncated_cube(HtcParams(40, htc_r(40), Fraction(1, 2)))
    trace = {}
    out = solve_lp(inst, trace=trace)
    assert out.status == "optimal" and out.value == 20
    assert trace["pivots_phase1"] == 0 and trace["pivots_phase2"] > 0


def _nonnegative_b(inst):
    return normalize([r[:-1] + (abs(r[-1]),) for r in inst.rows], inst.c, name=inst.name)


@settings(max_examples=200, deadline=None)
@given(st.one_of(bounded_lps(), free_lps()).map(_nonnegative_b))
def test_entries_keep_a_feasible_start(inst):
    t = lpcore._Tableau(inst)
    assert all(b >= 0 for b, v in zip(t.cols[-1], t.basis) if v >= inst.n)
    trace = {}
    assert solve_lp(inst, trace=trace).status != "infeasible"  # x = 0 is feasible
    assert trace["pivots_phase1"] == 0


def test_the_point_check_tries_the_row_classes_first(htc6, monkeypatch):
    calls = []
    admit, scan = model.classes_admit, model.satisfies_rows
    monkeypatch.setattr(model, "classes_admit", lambda *a: calls.append("classes") or admit(*a))
    monkeypatch.setattr(model, "satisfies_rows", lambda *a: calls.append("rows") or scan(*a))
    inst = ILPInstance(htc6.rows, htc6.c, name=htc6.name)
    assert len(inst.row_classes) == 4
    out = solve_lp(inst)
    assert out.status == "optimal" and out.value == 3
    assert calls == ["classes"]  # the htc is closed under Sym(n): no row is scanned
