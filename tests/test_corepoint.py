import random
from fractions import Fraction
from itertools import permutations, product
from math import comb
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from symilp import corepoint, layers, model
from symilp.corepoint import core_points, solve_core_point
from symilp.errors import (
    ObjectiveNotOnes,
    ResultCheckFailed,
    TransitivityNotEstablished,
    UnboundedRelaxation,
)
from symilp.instances import HtcParams, gen_hypertruncated_cube, gen_wild, htc_r
from symilp.layers import scan_plan, solve_by_layers
from symilp.lpcore import solve_lp_on_line
from symilp.model import brute_force_ilp, normalize
from symilp.symmetry import FULL_SYMMETRIC, alt_generators
from corpus import random_symmetric_instance
from testkit import (
    CoreRepresentative,
    certified_instance,
    closed_instance,
    core_distance_check,
    reference_core_scan,
    representative_oracle,
)


def test_core_points_examples():
    pts = core_points(3, 4)
    assert set(pts) == {(2, 1, 1), (1, 2, 1), (1, 1, 2)}
    assert len(pts) == comb(3, 1)
    assert len(core_points(6, 8)) == 15  # q=1, r=2
    assert core_points(4, 0) == [(0, 0, 0, 0)]
    with pytest.raises(ValueError, match="n >= 1"):
        core_points(0, 1)


def test_core_points_negative_layer():
    pts = core_points(3, -2)  # q=-1, r=1
    assert set(pts) == {(0, -1, -1), (-1, 0, -1), (-1, -1, 0)}


def test_core_representative():
    rep = CoreRepresentative(q=1, d=2, n=6)
    assert rep.point() == (2, 2, 1, 1, 1, 1)
    assert rep.layer == 8


def test_core_distance_check():
    assert core_distance_check(3, 4, (2, 1, 1))
    assert not core_distance_check(3, 4, (4, 0, 0))
    assert core_distance_check(2, 2, (1, 1))  # the center itself
    with pytest.raises(ValueError):
        core_distance_check(3, 4, (1, 1, 1))


def brute_minimum_distance_set(n, k):
    """Exhaustive argmin-distance points of the layer, as an oracle.

    The box {q-1,...,q+2}^n suffices: moving any coordinate further from
    the center strictly increases the distance coordinate-wise.
    """
    q = k // n
    center = Fraction(k, n)
    best = None
    argmin = []
    for x in product(range(q - 1, q + 3), repeat=n):
        if sum(x) != k:
            continue
        d2 = sum((Fraction(v) - center) ** 2 for v in x)
        if best is None or d2 < best:
            best, argmin = d2, [x]
        elif d2 == best:
            argmin.append(x)
    return set(argmin)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_core_points_match_brute_argmin(n):
    for k in range(n):
        pts = core_points(n, k)
        assert len(pts) == comb(n, k % n)
        assert set(pts) == brute_minimum_distance_set(n, k)
        for x in pts:
            assert core_distance_check(n, k, x)


def test_orbit_transitivity_on_core_points():
    for n, k in ((4, 2), (5, 7), (6, 3)):
        pts = core_points(n, k)
        one = pts[0]
        orbit = {tuple(one[p] for p in perm) for perm in permutations(range(n))}
        assert orbit == set(pts)


def test_solve_core_point_htc6(htc6):
    trace = {}
    out = solve_core_point(htc6, trace=trace)
    assert out.status == "optimal"
    assert out.value == 2
    assert out.point == (1, 1, 0, 0, 0, 0)
    assert trace["layers_scanned"] == 2  # d scans 3, 2


def test_solve_core_point_refuses_ex61(ex61):
    # the 3-cycle is transitive, not 2-transitive: the layer scan solves ex61
    with pytest.raises(TransitivityNotEstablished):
        solve_core_point(ex61)
    assert solve_by_layers(ex61).value == 3


def test_solve_core_point_has_no_trust_switch(htc6):
    with pytest.raises(TypeError):
        solve_core_point(htc6, assume_transitive=True)


@pytest.mark.parametrize("name", ["v4", "cyc4"])
def test_core_point_scan_refuses_without_detection(name, request, detect_calls):
    # the scan accepts only Sym(n) or Alt(n), which detection cannot certify
    with pytest.raises(TransitivityNotEstablished):
        solve_core_point(request.getfixturevalue(name))
    assert detect_calls == []


def test_solve_core_point_refusals(htc6):
    other = normalize(htc6.rows, [2] + [1] * 5)
    with pytest.raises(ObjectiveNotOnes):
        solve_core_point(other)
    unb = normalize([(-1, -1, 0)], [1, 1])
    with pytest.raises(UnboundedRelaxation):
        solve_core_point(unb)


def test_both_scans_trace_the_row_classes(htc6, ex61):
    for scan, inst in ((solve_core_point, htc6), (solve_by_layers, htc6), (solve_by_layers, ex61)):
        trace = {}
        scan(inst, trace=trace)
        assert trace["row_classes"] == len(inst.row_classes)
        assert trace["classes_s"] >= 0 and trace["certificate_s"] >= 0
    assert len(htc6.row_classes) == 4  # the htc's four facet families
    assert len(ex61.row_classes) == 1


@pytest.mark.parametrize(
    "make",
    [lambda: gen_hypertruncated_cube(HtcParams(50, htc_r(50), Fraction(1, 2))), lambda: gen_wild(4)],
    ids=["htc50", "wild4"],
)
def test_point_check_after_a_scan_reads_no_rows(make, monkeypatch):
    inst = make()
    out = solve_core_point(inst)
    calls = []
    scan = model.satisfies_rows

    def counting(*args):
        calls.append(args)
        return scan(*args)

    monkeypatch.setattr(model, "satisfies_rows", counting)
    assert inst.is_feasible(out.point) and calls == []  # the row classes decide
    above = (out.point[0] + 1,) + out.point[1:]  # an integral point one layer up
    assert not inst.is_feasible(above) and len(calls) == 1  # the rows decide


def test_both_scans_trace_the_line_lp_pivots():
    inst = gen_hypertruncated_cube(HtcParams(8, htc_r(8), Fraction(1, 2)))
    line = {}
    solve_lp_on_line(inst, trace=line)
    assert (line["pivots_phase1"], line["pivots_phase2"]) == (0, 0)  # the ratio test
    for scan in (solve_core_point, solve_by_layers):
        trace = {}
        scan(inst, trace=trace)
        assert (trace["pivots_phase1"], trace["pivots_phase2"]) == (
            line["pivots_phase1"],
            line["pivots_phase2"],
        )


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(st.integers(-3, 3), st.integers(-6, 6)), min_size=1, max_size=4),
    st.integers(-6, 6),
)
def test_core_point_scan_in_one_variable(pairs, lo):
    # Sym(1) is trivial: every layer is one point, and the scan is exact
    assume(all(a or b >= 0 for a, b in pairs))
    inst = normalize(pairs + [(-1, -lo)], [1])
    trace = {}
    try:
        out = solve_core_point(inst, trace=trace)
    except UnboundedRelaxation:
        assert all(a <= 0 for a, _ in inst.rows)
        return
    assert trace.get("certificate") == "full_symmetric"
    assert out == brute_force_ilp(inst)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["sym", "alt4", "alt5"]))
def test_class_scan_matches_the_expanded_row_scan(seed, kind):
    inst = certified_instance(random.Random(seed), kind, seed)
    trace = {}
    out = solve_core_point(inst, trace=trace)
    assert (out, trace.get("layers_scanned", 0)) == reference_core_scan(inst)


def test_class_scan_on_an_alternating_instance():
    # the Alt(4)-orbit of x2 + 2x3 + 3x4 <= 4 is half its Sym(4)-orbit
    inst = closed_instance([(0, 1, 2, 3, 4)], alt_generators(4), 4)
    trace = {}
    out = solve_core_point(inst, trace=trace)
    assert trace["certificate"] == "alternating"
    assert (out, trace["layers_scanned"]) == reference_core_scan(inst)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_class_scan_is_safe_on_any_rows(seed):
    # with the certificate forced to Sym(n), the class bound may stop the
    # scan lower than the expanded rows, never higher, and its point is
    # always feasible
    rng = random.Random(seed)
    n = rng.randint(2, 5)
    rows = [(1,) * n + (2 * n,)]
    for _ in range(rng.randint(1, 4)):
        a = tuple(rng.randint(-2, 3) for _ in range(n))
        if any(a):
            rows.append(a + (rng.randint(-2, 2 * n),))
    inst = normalize(rows, [1] * n)
    # hypothesis refuses function-scoped fixtures such as monkeypatch
    certify = mock.patch.object(
        layers, "verify_symmetric_group_invariance", return_value=FULL_SYMMETRIC
    )
    try:
        with certify:
            out = solve_core_point(inst)
    except UnboundedRelaxation:
        with pytest.raises(UnboundedRelaxation):
            reference_core_scan(inst)
        return
    ref, _ = reference_core_scan(inst)
    if out.status == "optimal":
        assert inst.is_feasible(out.point)
        assert ref.status == "optimal" and ref.value >= out.value


def test_solve_core_point_infeasible_band():
    rows = [(2, 2, 3), (-2, -2, -3), (1, 0, 2), (0, 1, 2), (-1, 0, 2), (0, -1, 2)]
    inst = normalize(rows, [1, 1], name="halfband")
    trace = {}
    out = solve_core_point(inst, trace=trace)
    assert out.status == "infeasible"
    assert trace["layers_scanned"] == 2


def test_solve_core_point_lp_infeasible():
    inst = normalize([(1, 1, -3), (-1, -1, 0), (1, 0, 1), (0, 1, 1)], [1, 1])
    assert solve_core_point(inst).status == "infeasible"


def test_solve_core_point_rejects_a_wrong_point(htc6, monkeypatch):
    # the scan starts at layer 3, above the optimum 2: (1, 1, 1, 0, 0, 0) is
    # on it but infeasible, and (2, 0, 0, 0, 0, 0) lies on layer 2
    for bad in ((1, 1, 1, 0, 0, 0), (2, 0, 0, 0, 0, 0)):
        monkeypatch.setattr(corepoint, "_representative_test", lambda plan, bad=bad: lambda k: bad)
        with pytest.raises(ResultCheckFailed):
            solve_core_point(htc6)


def test_representative_oracle_bridges_layers(htc6, monkeypatch):
    monkeypatch.setattr(layers, "enumeration_oracle", representative_oracle)
    out = solve_by_layers(htc6)
    assert out.status == "optimal" and out.value == 2
    assert out.point == (1, 1, 0, 0, 0, 0)


def test_negative_zeta_scan():
    # box -3 <= x_i <= -1: the scan runs at negative q
    rows = [(1, 0, -1), (0, 1, -1), (-1, 0, 3), (0, -1, 3)]
    inst = normalize(rows, [1, 1], name="negbox")
    out = solve_core_point(inst)
    assert out.status == "optimal" and out.value == -2
    assert out.point == (-1, -1)
    assert brute_force_ilp(inst).value == -2


def test_midpoint_contraction_toward_center(corpus):
    """A moved feasible point and its image average to a feasible point
    strictly closer to the layer center (the isosceles-triangle step)."""
    from symilp.symmetry import transposition

    checked = 0
    for inst in corpus:
        n = inst.n
        out = brute_force_ilp(inst)
        if out.status != "optimal":
            continue
        x = out.point
        g = transposition(n, 1, 2)
        gx = g.apply(x)
        if gx == x:
            continue
        k = sum(x)
        center = (Fraction(k, n),) * n
        mid = tuple(Fraction(a + b, 2) for a, b in zip(x, gx))
        assert inst.is_feasible(mid)
        d2 = lambda p: sum((pi - ci) ** 2 for pi, ci in zip(p, center))
        assert d2(mid) < d2(x)
        checked += 1
        if checked >= 10:
            break
    assert checked >= 5


def test_wild_d10_scan():
    """The 13-dimensional wild instance: at most 13 representative checks,
    and the hit layer is the highest one with a feasible representative."""
    from math import floor

    from symilp.instances import gen_wild
    from symilp.lpcore import solve_lp_on_line

    inst = gen_wild(10)
    trace = {}
    out = solve_core_point(inst, trace=trace)
    assert out.status == "optimal"
    assert trace["layers_scanned"] <= 13
    assert inst.is_feasible(out.point)
    _, zeta = solve_lp_on_line(inst)
    k_star = int(out.value)
    plan = scan_plan(inst)
    for k in range(k_star + 1, floor(inst.n * zeta) + 1):
        assert representative_oracle(plan, k) is None


def test_all_or_nothing_per_layer(corpus):
    from math import floor

    from symilp.lpcore import solve_lp_on_line

    checked = 0
    for inst in corpus:
        if inst.n > 5:
            continue
        status, zeta = solve_lp_on_line(inst)
        if status != "optimal":
            continue
        n = inst.n
        for k in range(n * floor(zeta), floor(n * zeta) + 1):
            feas = [inst.is_feasible(x) for x in core_points(n, k)]
            assert all(feas) or not any(feas)
        checked += 1
        if checked >= 25:
            break
    assert checked >= 10


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_ilp_solvers_agree_on_random_symmetric_instances(seed):
    inst = random_symmetric_instance(random.Random(seed), seed)
    core_trace, layer_trace = {}, {}
    core = solve_core_point(inst, trace=core_trace)
    by_layers = solve_by_layers(inst, trace=layer_trace)
    brute = brute_force_ilp(inst)
    assert core.status == by_layers.status == brute.status
    assert core.value == by_layers.value == brute.value
    for out in (core, by_layers, brute):
        assert out.point is None or inst.is_feasible(out.point)
    assert core_trace.get("layers_scanned", 0) <= inst.n
    assert layer_trace.get("layers_scanned", 0) <= inst.n
