import random
from fractions import Fraction
from math import floor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symilp import cli, layers, lpcore, model, symdetect
from symilp.corepoint import solve_core_point
from symilp.errors import (
    BoxTooLarge,
    ObjectiveNotOnes,
    ResultCheckFailed,
    TransitivityNotEstablished,
    UnboundedRelaxation,
    ZeroObjective,
)
from symilp.layers import (
    CoprimeDirection,
    coprime_direction,
    enumeration_oracle,
    layer_number,
    layer_witness,
    scan_plan,
    solve_by_layers,
)
from symilp.instances import gen_wild
from symilp.lpcore import solve_lp_on_line
from symilp.model import (
    ILPInstance,
    Outcome,
    brute_force_ilp,
    explicit_box,
    normalize,
    satisfies_rows,
    write_instance,
)
from symilp.ratlin import dot
from symilp.symmetry import FULL_SYMMETRIC, NONE, verify_symmetric_group_invariance
from testkit import Layer, certified_instance, layer_box, layer_center, reference_layer_box

ONES3 = coprime_direction((1, 1, 1))


def test_coprime_direction_scaling():
    assert coprime_direction((Fraction(2, 3), Fraction(4, 3))).direction == (1, 2)
    assert coprime_direction((0, 0, 5)).direction == (0, 0, 1)
    assert coprime_direction((-2, -4)).direction == (-1, -2)


def test_coprime_direction_zero():
    with pytest.raises(ZeroObjective):
        coprime_direction((0, 0))


def test_layer_number():
    assert layer_number(ONES3, (1, 0, 2)) == 3
    assert layer_number(coprime_direction((1, 2)), (-1, 1)) == 1
    six = coprime_direction((1,) * 6)
    assert layer_number(six, (1, 1, 0, 0, 0, 0)) == 2


def test_layer_center():
    four = coprime_direction((1,) * 4)
    assert layer_center(Layer(four, 2)) == (Fraction(1, 2),) * 4
    assert layer_center(Layer(coprime_direction((1, 2)), 3)) == (
        Fraction(3, 5),
        Fraction(6, 5),
    )
    assert layer_center(Layer(ONES3, 0)) == (0, 0, 0)


def test_layer_witness_contract():
    d = coprime_direction((2, 3))
    w = layer_witness(d, 1)
    assert dot(d.direction, w) == 1
    assert w == (-1, 1)
    five = coprime_direction((1,) * 5)
    w = layer_witness(five, 7)
    assert dot(five.direction, w) == 7
    d = coprime_direction((6, 10, 15))
    w = layer_witness(d, 1)
    assert dot(d.direction, w) == 1


def test_layer_witness_rejects_a_non_coprime_direction():
    # CoprimeDirection does not check its entries; layer_witness must, since
    # (2, 4) has no integral point on layer 1
    with pytest.raises(ValueError):
        layer_witness(CoprimeDirection((2, 4)), 1)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-6, 6), min_size=2, max_size=5).filter(any),
       st.integers(-10, 10))
def test_layer_witness_everywhere(vec, k):
    d = coprime_direction(tuple(vec))
    assert dot(d.direction, layer_witness(d, k)) == k


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(-6, 6), min_size=2, max_size=5).filter(any),
    st.integers(1, 9),
    st.integers(1, 9),
)
def test_direction_scale_invariance(vec, p, q):
    c = tuple(Fraction(v) for v in vec)
    rho = Fraction(p, q)
    assert coprime_direction(c) == coprime_direction(tuple(rho * v for v in c))


def test_partition_of_integers():
    rng = random.Random(42)
    d = coprime_direction((3, -5, 7))
    for _ in range(300):
        x = tuple(rng.randint(-20, 20) for _ in range(3))
        k = layer_number(d, x)
        # x is on layer k and on no other: membership in layer j means
        # d^t x == j, which pins j uniquely
        assert dot(d.direction, x) == k


def test_center_on_layer_identity():
    d = coprime_direction((2, 3, 6))
    for k in range(-5, 6):
        c = layer_center(Layer(d, k))
        assert dot(d.direction, c) == k


def test_solve_by_layers_ex61(ex61):
    trace = {}
    out = solve_by_layers(ex61, trace=trace)
    assert out.status == "optimal" and out.value == 3
    assert out.point == (1, 1, 1)
    assert trace["layers_scanned"] == 1


def test_solve_by_layers_htc6(htc6):
    trace = {}
    out = solve_by_layers(htc6, trace=trace)
    assert out.status == "optimal" and out.value == 2
    assert trace["layers_scanned"] == 2  # layer 3 empty, layer 2 hit


def test_solve_by_layers_infeasible_scan():
    # sum x = 3/2 band: relaxation feasible, no integral point
    rows = [(2, 2, 3), (-2, -2, -3), (1, 0, 2), (0, 1, 2), (-1, 0, 2), (0, -1, 2)]
    inst = normalize(rows, [1, 1], name="halfband")
    trace = {}
    out = solve_by_layers(inst, trace=trace)
    assert out.status == "infeasible"
    assert trace["layers_scanned"] == 2  # k = 1 and k = 0
    assert brute_force_ilp(inst).status == "infeasible"


def test_solve_by_layers_lp_infeasible():
    inst = normalize([(1, 1, -3), (-1, -1, 0), (2, 0, 1), (0, 2, 1)], [1, 1])
    out = solve_by_layers(inst)
    assert out.status == "infeasible"


def test_solve_by_layers_rejects_a_wrong_point(ex61, monkeypatch):
    # the scan starts at layer 3: (3, 0, 0) is on it but violates
    # 2x1 + x3 <= 3, and (1, 1, 0) lies on layer 2
    for bad in ((3, 0, 0), (1, 1, 0)):
        monkeypatch.setattr(layers, "enumeration_oracle", lambda inst, k, bad=bad: bad)
        with pytest.raises(ResultCheckFailed):
            solve_by_layers(ex61)


def test_solve_by_layers_refusals(ex61):
    other = normalize(ex61.rows, [1, 2, 1])
    with pytest.raises(ObjectiveNotOnes):
        solve_by_layers(other)
    # only the identity fixes lone: both scans refuse, and no scan from the
    # symmetric line optimum (1, 1) may report its layer 2 below the optimum 3
    lone = normalize([(1, 2, 3), (-1, 0, 0), (0, -1, 0)], [1, 1])
    for scan in (solve_by_layers, solve_core_point):
        with pytest.raises(TransitivityNotEstablished):
            scan(lone)
    assert brute_force_ilp(lone) == Outcome("optimal", point=(3, 0), value=Fraction(3))


def test_layer_scan_detects_a_group_without_generator_certificate(v4, detect_calls):
    # V4 is transitive but has no Sym, Alt or 4-cycle generator: the gate
    # falls through to one detection and accepts the orbit of coordinate 1
    out = solve_by_layers(v4)
    assert out == Outcome("optimal", point=(0, 0, 1, 1), value=Fraction(2))
    assert len(detect_calls) == 1
    assert out == brute_force_ilp(v4)


def test_cyclic_layer_scan_runs_no_detection(cyc4, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the n-cycle certificate should answer")

    monkeypatch.setattr(symdetect, "detect", refuse)
    assert verify_symmetric_group_invariance(cyc4) == "transitive_only"
    # summing the four rows gives 3 * sum(x) <= 12, and 1 is feasible
    out = solve_by_layers(cyc4)
    assert out == Outcome("optimal", point=(1, 1, 1, 1), value=Fraction(4))


def cycle_band():
    """The 4-cycle orbit of x1 + 2x2 <= 4 with x >= 0: the layer scan finds
    layer 5 empty and stops on layer 4."""
    rows, row = [], (1, 2, 0, 0)
    for i in range(4):
        rows += [row + (4,), tuple(-int(i == j) for j in range(4)) + (0,)]
        row = row[-1:] + row[:-1]
    return normalize(rows, [1] * 4, name="cycleband")


def halfband():
    return normalize([(2, 2, 3), (-2, -2, -3), (1, 0, 2), (0, 1, 2), (-1, 0, 2), (0, -1, 2)], [1, 1])


@pytest.mark.parametrize(
    "scan, make", [(solve_by_layers, cycle_band), (solve_by_layers, halfband), (solve_core_point, halfband)]
)
def test_one_certificate_per_solve(scan, make, monkeypatch):
    # the scan plan carries the tier to every layer
    inst = make()
    calls = []
    certify = layers.verify_symmetric_group_invariance

    def counting(inst):
        calls.append(inst)
        return certify(inst)

    monkeypatch.setattr(layers, "verify_symmetric_group_invariance", counting)
    trace = {}
    out = scan(inst, trace=trace)
    assert trace["layers_scanned"] >= 2
    assert len(calls) == 1
    ref = brute_force_ilp(inst)
    assert (out.status, out.value) == (ref.status, ref.value)


@pytest.fixture
def tableau_columns(monkeypatch):
    """The column count of every simplex tableau built in the test."""
    columns = []
    tableau = lpcore._Tableau.__init__

    def counting(self, lp):
        columns.append(lp.n)
        tableau(self, lp)

    monkeypatch.setattr(lpcore._Tableau, "__init__", counting)
    return columns


def test_scans_trace_the_certificate(htc6, cyc4):
    trace = {}
    solve_core_point(htc6, trace=trace)
    assert trace["certificate"] == "full_symmetric"
    assert trace["classes_s"] >= 0 and trace["certificate_s"] >= 0
    trace = {}
    solve_by_layers(cyc4, trace=trace)
    assert trace["certificate"] == "transitive_only"
    assert trace["classes_s"] >= 0 and trace["certificate_s"] >= 0


def test_solve_by_layers_unbounded():
    inst = normalize([(-1, -1, 0)], [1, 1])
    with pytest.raises(UnboundedRelaxation):
        solve_by_layers(inst)


def test_enumeration_oracle_layer_slice(ex61):
    # the k=3 slice of the cyclic instance is the single point (1,1,1),
    # even though every coordinate is unbounded over P itself
    plan = scan_plan(ex61)
    assert enumeration_oracle(plan, 3) == (1, 1, 1)
    assert enumeration_oracle(plan, 4) is None


def test_layers_agree_with_brute(corpus):
    taken = 0
    for inst in corpus:
        if inst.m > 60 or inst.n > 4:
            continue
        a = solve_by_layers(inst)
        b = brute_force_ilp(inst)
        assert a.status == b.status
        if a.status == "optimal":
            assert a.value == b.value
        taken += 1
        if taken >= 12:
            break
    assert taken >= 6


def _recursive_search(inst, k, box):
    """Reference: one recursion level per coordinate; (first point, nodes)."""
    n = inst.n
    suffix_lo = [0] * (n + 1)
    suffix_hi = [0] * (n + 1)
    for j in range(n - 1, -1, -1):
        suffix_lo[j] = suffix_lo[j + 1] + box[j][0]
        suffix_hi[j] = suffix_hi[j + 1] + box[j][1]
    x = [0] * n
    visited = 0

    def dfs(j, remaining):
        nonlocal visited
        if j == n:
            return tuple(x) if remaining == 0 and satisfies_rows(inst.rows, x) else None
        lo = max(box[j][0], remaining - suffix_hi[j + 1])
        hi = min(box[j][1], remaining - suffix_lo[j + 1])
        for v in range(lo, hi + 1):
            visited += 1
            x[j] = v
            hit = dfs(j + 1, remaining - v)
            if hit is not None:
                return hit
        return None

    return dfs(0, k), visited


def test_enumeration_oracle_matches_the_recursive_search(monkeypatch):
    # same first point in lexicographic order and the same node count, so
    # LAYER_NODE_BUDGET trips at the same place
    rng = random.Random(7)
    for _ in range(12):
        n = rng.randint(2, 5)
        rows = []
        for i in range(n):
            e = [0] * (n + 1)
            e[i], e[n] = 1, 3
            rows.append(tuple(e))
            e = [0] * (n + 1)
            e[i] = -1
            rows.append(tuple(e))
        for _ in range(3):
            rows.append(tuple(rng.randint(-3, 3) for _ in range(n)) + (rng.randint(0, 6),))
        inst = normalize(rows, [1] * n)
        plan = scan_plan(inst)
        for k in range(3 * n + 1):
            point, nodes = _recursive_search(inst, k, layer_box(plan, k))
            monkeypatch.setattr(layers, "LAYER_NODE_BUDGET", nodes)
            assert enumeration_oracle(plan, k) == point
            if nodes:
                monkeypatch.setattr(layers, "LAYER_NODE_BUDGET", nodes - 1)
                with pytest.raises(BoxTooLarge):
                    enumeration_oracle(plan, k)


def test_solve_by_layers_in_high_dimension():
    # n = 1100 coordinates used to mean 1100 nested calls and a RecursionError
    n = 1100
    rows = []
    for i in range(n):
        e = [0] * (n + 1)
        e[i], e[n] = 1, 1
        rows.append(tuple(e))
        e = [0] * (n + 1)
        e[i] = -1
        rows.append(tuple(e))
    rows.append((1,) * n + (3,))
    inst = normalize(rows, [1] * n)
    out = solve_by_layers(inst)
    assert out.status == "optimal" and out.value == 3
    assert out.point == (0,) * (n - 3) + (1, 1, 1)


def scan_layers(inst):
    """Every k from n*floor(zeta) - 1 to floor(n*zeta) + 1; -1, 0 and 1 when
    the line LP has no optimum."""
    n = inst.n
    zeta = solve_lp_on_line(inst)[1]
    if zeta is None:
        return range(-1, 2)
    return range(n * floor(zeta) - 1, floor(n * zeta) + 2)


def box_or_open(box_of, inst_or_plan, k):
    try:
        return box_of(inst_or_plan, k)
    except BoxTooLarge:
        return "open"


KINDS = st.sampled_from(["sym", "alt4", "alt5", "cycle"])


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2**32 - 1), KINDS)
def test_layer_box_equals_the_expanded_slice_box(seed, kind):
    # the box of x_1 over Fix(Stab(1)) is the integer box of the whole
    # slice, or None when the slice is empty; under the other tiers a
    # complete explicit box is taken first, as it costs less than the LPs
    inst = certified_instance(random.Random(seed), kind, seed)
    plan = scan_plan(inst)
    assert plan.tier != NONE
    explicit = None if plan.stab1 else explicit_box(inst)
    for k in scan_layers(inst):
        want = explicit or box_or_open(reference_layer_box, inst, k)
        assert box_or_open(layer_box, plan, k) == want, k


def test_one_variable_layer_box_is_the_point():
    # with n = 1 the column 1 - e_1 is zero and the slice is the point k
    inst = normalize([(1, 3), (-1, 0), (2, 5)], [1])
    plan = scan_plan(inst)
    assert plan.tier == FULL_SYMMETRIC
    for k in range(-1, 5):
        assert layer_box(plan, k) == reference_layer_box(inst, k), k
    assert solve_by_layers(inst) == Outcome("optimal", point=(2,), value=Fraction(2))


def test_constant_class_keys_leave_the_layer_line_open(tmp_path, capsys):
    # the one class key (1, 1) projects to 0 u <= 2 - k on the line of each
    # layer: the whole line when k <= 2, nothing when k > 2
    inst = normalize([(1, 1, 2)], [1, 1])
    plan = scan_plan(inst)
    assert plan.tier == FULL_SYMMETRIC
    for k in range(-1, 5):
        want = "open" if k <= 2 else None
        assert box_or_open(layer_box, plan, k) == box_or_open(reference_layer_box, inst, k) == want, k
    path = tmp_path / "pair.ilp"
    write_instance(inst, path)
    assert cli.main(["solve", str(path), "--method", "layers"]) == cli.EXIT_REFUSED
    err = capsys.readouterr().err
    assert err.startswith("refused: ") and err.count("\n") == 1


def test_a_projected_zero_row_with_negative_rhs_empties_the_layer():
    # in the box 0 <= x <= 2, the class of x_1 + x_2 + x_3 <= 2 projects to
    # 0 u <= 4 - 2k on layer k, which is 0 <= b' < 0 from k = 3 on
    rows = [(1, 1, 1, 2)]
    for j in range(3):
        e = tuple(int(i == j) for i in range(3))
        rows += [e + (2,), tuple(-v for v in e) + (0,)]
    inst = normalize(rows, [1, 1, 1])
    plan = scan_plan(inst)
    assert plan.tier == FULL_SYMMETRIC
    for k in range(-1, 8):
        want = [(0, k)] * 3 if 0 <= k <= 2 else None
        assert layer_box(plan, k) == reference_layer_box(inst, k) == want, k


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2**32 - 1), KINDS)
def test_orbit_pruning_keeps_the_point_and_visits_no_more_nodes(seed, kind):
    inst = certified_instance(random.Random(seed), kind, seed)
    plan = scan_plan(inst)
    assert plan.tier != NONE
    for k in scan_layers(inst):
        box = box_or_open(layer_box, plan, k)
        if box is None or box == "open":
            continue
        point, nodes = _recursive_search(inst, k, box)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(layers, "LAYER_NODE_BUDGET", nodes)
            assert enumeration_oracle(plan, k) == point, k


def test_wild_layer_scan_reads_no_expanded_rows(tableau_columns, monkeypatch):
    # after the line LP every LP has at most 2 columns, and neither the
    # layer boxes nor the point checks read the 1,020 expanded rows
    inst = gen_wild(3)
    columns, boxes, widths = tableau_columns, [], []

    def counting_box(lp):
        boxes.append(lp.name)
        return model.explicit_box(lp)

    satisfies = model.satisfies_rows

    def counting_satisfies(rows, xs, den=1):
        widths.append(len(rows[0]))
        return satisfies(rows, xs, den)

    monkeypatch.setattr(layers, "explicit_box", counting_box)
    for module in (model, layers):
        monkeypatch.setattr(module, "satisfies_rows", counting_satisfies)
    trace = {}
    out = solve_by_layers(inst, trace=trace)
    assert columns[0] == 1 and len(columns) > 1 and max(columns[1:]) <= 2
    assert boxes == []
    assert widths and max(widths) <= 3  # the rows of the 2-variable LPs
    core = solve_core_point(ILPInstance(inst.rows, inst.c, name=inst.name))
    assert (out.status, out.value) == (core.status, core.value) == ("optimal", 1)
    # the first point in lexicographic order, an orbit-mate of the core point
    assert out.point == (0, 0, 0, 0, 0, 1) and sorted(out.point) == sorted(core.point)
    assert trace["layers_scanned"] == 3
