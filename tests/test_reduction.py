from fractions import Fraction

import pytest
from hypothesis import given, settings

from symilp import reduction
from symilp.cli import main
from symilp.instances import HtcParams, gen_hypertruncated_cube
from symilp.errors import NotASymmetry, ResultCheckFailed
from symilp.lpcore import solve_lp
from symilp.model import Outcome, normalize, read_instance, write_instance
from symilp.reduction import (
    build_reduced,
    orbit_sum_rows,
    solve_symmetric_lp,
)
from symilp.ratlin import dot
from symilp.symmetry import (
    GroupSpec,
    SignedPermutation,
    fixed_space,
    full_cycle,
    sym_generators,
    transposition,
    write_generators,
)
from testkit import symmetric_lps

CYC3 = GroupSpec(3, (full_cycle(3),))


def test_orbit_sum_ex61(ex61):
    assert orbit_sum_rows(ex61, CYC3) == ((3, 3, 3, 9),)


def test_orbit_sum_unit_square():
    inst = normalize([(1, 0, 1), (0, 1, 1), (-1, 0, 0), (0, -1, 0)], [1, 1])
    G = GroupSpec(2, (transposition(2, 1, 2),))
    assert set(orbit_sum_rows(inst, G)) == {(1, 1, 2), (-1, -1, 0)}


def test_orbit_sum_trivial_group(ex61):
    G = GroupSpec(3, (SignedPermutation.identity(3),))
    assert set(orbit_sum_rows(ex61, G)) == set(ex61.rows)


def test_orbit_sum_rejects_non_symmetry(ex61):
    with pytest.raises(NotASymmetry):
        orbit_sum_rows(ex61, GroupSpec(3, (transposition(3, 1, 2),)))


def test_build_reduced_ex61(ex61):
    rp = build_reduced(ex61, CYC3)
    assert len(rp.summed_rows) == 1
    assert len(rp.fixing) == 2
    assert rp.instance.rows == normalize(
        [(3, 3, 3, 9), (1, -1, 0, 0), (-1, 1, 0, 0), (1, 0, -1, 0), (-1, 0, 1, 0)],
        [1, 1, 1],
    ).rows


@pytest.mark.parametrize("case", ["ex61", "htc5"])
def test_the_reduce_command_writes_the_reduced_instance(tmp_path, capsys, ex61, case):
    if case == "ex61":
        inst, G = ex61, CYC3
    else:
        inst = gen_hypertruncated_cube(HtcParams(5, 2, Fraction(1, 2)))
        G = GroupSpec(5, sym_generators(5))
    src, grp, out = tmp_path / "in.ilp", tmp_path / "g.grp", tmp_path / "out.ilp"
    write_instance(inst, src)
    write_generators(G, grp)
    assert main(["reduce", str(src), "--group", str(grp), "-o", str(out)]) == 0
    capsys.readouterr()
    assert read_instance(out) == build_reduced(inst, G).instance


def test_build_reduced_trivial_group(ex61):
    G = GroupSpec(3, (SignedPermutation.identity(3),))
    rp = build_reduced(ex61, G)
    assert rp.fixing == ()
    assert set(rp.summed_rows) == set(ex61.rows)


def test_build_reduced_minus_identity():
    # -id fixes no nonzero linear objective, so use c = 0
    inst = normalize([(1, 1, 1), (-1, -1, 1)], [0, 0])
    G = GroupSpec(2, (SignedPermutation((-1, -2)),))
    rp = build_reduced(inst, G)
    assert len(rp.fixing) == 2
    out = solve_symmetric_lp(inst, G)
    assert out.status == "optimal" and out.point == (0, 0) and out.value == 0


def test_solve_symmetric_ex61(ex61):
    out = solve_symmetric_lp(ex61, CYC3)
    assert out.status == "optimal"
    assert out.value == 3 and out.point == (1, 1, 1)


def test_solve_symmetric_rejects_a_wrong_point(ex61, monkeypatch):
    # infeasible for ex61
    monkeypatch.setattr(
        reduction, "solve_lp", lambda red, basis: Outcome("optimal", point=(2, 2, 2), value=6)
    )
    with pytest.raises(ResultCheckFailed):
        solve_symmetric_lp(ex61, CYC3)
    # feasible, but off the fixed line x1 = x2 = x3
    monkeypatch.setattr(
        reduction, "solve_lp", lambda red, basis: Outcome("optimal", point=(1, 0, 0), value=1)
    )
    with pytest.raises(ResultCheckFailed):
        solve_symmetric_lp(ex61, CYC3)


def test_solve_symmetric_htc6(htc6):
    out = solve_symmetric_lp(htc6, GroupSpec(6, sym_generators(6)))
    assert out.status == "optimal"
    assert out.value == 3
    assert out.point == (Fraction(1, 2),) * 6


def test_solve_symmetric_infeasible():
    inst = normalize([(1, 1, -1), (-1, -1, 0)], [1, 1])
    G = GroupSpec(2, (transposition(2, 1, 2),))
    assert solve_symmetric_lp(inst, G).status == "infeasible"


def test_solve_symmetric_zero_orbit_sum_infeasible():
    # x1 >= 1 and x1 <= -1 under the sign swap group: orbit sum is 0 <= -2
    inst = normalize([(1, -1), (-1, -1)], [0])
    G = GroupSpec(1, (SignedPermutation((-1,)),))
    assert solve_symmetric_lp(inst, G).status == "infeasible"


def test_summed_rows_valid_at_feasible_points(ex61):
    rp = build_reduced(ex61, CYC3)
    for x in ((1, 1, 1), (0, 0, 0), (1, 0, 0)):
        assert ex61.is_feasible(x)
        for row in rp.summed_rows:
            assert dot(row[:-1], x) <= row[-1]


def test_thm_equivalence_small(corpus):
    from symilp.symmetry import sym_generators

    taken = 0
    for inst in corpus:
        if inst.m > 40:
            continue
        G = GroupSpec(inst.n, sym_generators(inst.n))
        a = solve_lp(inst)
        b = solve_symmetric_lp(inst, G)
        assert a.status == b.status
        if a.status == "optimal":
            assert a.value == b.value
        taken += 1
        if taken >= 15:
            break
    assert taken >= 8


def test_solve_symmetric_rows_vanish_on_fix():
    # both rows restrict to 0 <= 1 on the line x1 = x2, which c = 1 climbs
    inst = normalize([(1, -1, 1), (-1, 1, 1)], [1, 1])
    G = GroupSpec(2, (transposition(2, 1, 2),))
    assert solve_symmetric_lp(inst, G).status == "unbounded"
    assert solve_lp(inst).status == "unbounded"


@settings(max_examples=200, deadline=None)
@given(symmetric_lps())
def test_solve_symmetric_matches_solve_lp(drawn):
    inst, G = drawn
    full = solve_lp(inst)
    out = solve_symmetric_lp(inst, G)
    assert (out.status, out.value) == (full.status, full.value)
    if out.status == "optimal":
        assert inst.is_feasible(out.point)
        assert all(g.apply(out.point) == out.point for g in G.generators)
    n = inst.n
    standard = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    assert solve_lp(inst, standard) == full
    # a non-unit basis of Fix(G); the simplex may stop at another optimal vertex
    doubled = solve_lp(inst, [tuple(2 * v for v in f) for f in fixed_space(G)])
    assert (doubled.status, doubled.value) == (full.status, full.value)
