import random
from fractions import Fraction
from itertools import permutations
from math import ceil, factorial
from operator import lt

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from symilp import instances
from symilp.errors import BadParams, DegenerateFacet
from symilp.instances import (
    EULER_E,
    WILD_ROW_BUDGET,
    HtcParams,
    cross_polytope_vrep,
    distorted_join_vrep,
    gen_hypertruncated_cube,
    gen_wild,
    hexagon_vrep,
    htc_r,
    orbit_row_count,
    round3,
    round3_sqrt3,
    symmetrize,
    wild_facets,
    _check_facets,
)
from symilp.model import ILPInstance, normalize
from symilp.ratlin import dot
from symilp.symmetry import full_cycle, is_symmetry, transposition
from testkit import (
    htc_vertices,
    join_facet_vertex_sets,
    multiset_permutations,
    rank,
    reference_gen_wild,
    reference_htc,
)


def test_htc_params_window():
    HtcParams(6, 2, Fraction(1, 2))
    with pytest.raises(BadParams):
        HtcParams(6, 1, Fraction(1, 2))
    with pytest.raises(BadParams):
        HtcParams(6, 6, Fraction(1, 2))
    with pytest.raises(BadParams):
        HtcParams(6, 2, Fraction(1, 3))  # lambda <= r/n
    with pytest.raises(BadParams):
        HtcParams(6, 2, Fraction(3, 2))  # lambda >= 1


def test_htc_rows_n6(htc6):
    assert htc6.m == 24
    # deletion family: coefficient 1 - 6 + 2/(1/2) = -1
    assert (-1, 1, 1, 1, 1, 1, 2) in htc6.rows
    # contraction family scaled by 2: (3, 1, ..., 1 | 4)
    assert (3, 1, 1, 1, 1, 1, 4) in htc6.rows
    # cube families
    assert (1, 0, 0, 0, 0, 0, 1) in htc6.rows
    assert (-1, 0, 0, 0, 0, 0, 0) in htc6.rows


def test_htc_vertex_count(htc6):
    p = HtcParams(6, 2, Fraction(1, 2))
    vs = htc_vertices(p)
    assert len(vs) == 1 + 6 + 15 + 1


@pytest.mark.parametrize("n,r", [(4, 2), (5, 2), (6, 2), (7, 2), (7, 3), (8, 3)])
@pytest.mark.parametrize("lam", ["mid", "half"])
def test_htc_facets_valid_and_tight(n, r, lam):
    # "mid" sits midway inside the admissible window (r/n, 1)
    value = Fraction(r + n, 2 * n) if lam == "mid" else Fraction(1, 2)
    if not Fraction(r, n) < value < 1:
        pytest.skip("lambda outside the window for these n, r")
    p = HtcParams(n, r, value)
    inst = gen_hypertruncated_cube(p)
    assert inst.m == 4 * n
    verts = htc_vertices(p)
    for row in inst.rows:
        tight = []
        for v in verts:
            s = dot(row[:-1], v)
            assert s <= row[-1]
            if s == row[-1]:
                tight.append(v)
        # a facet certificate: the tight set spans an (n-1)-dim affine hull
        assert len(tight) >= n
        base = tight[0]
        diffs = [tuple(a - b for a, b in zip(v, base)) for v in tight[1:]]
        assert rank(diffs) == n - 1


def test_htc_r_values():
    assert htc_r(100) == 36
    assert htc_r(2000) == 735
    assert float(EULER_E) == pytest.approx(2.718281828459045)


def test_htc_large_smoke():
    inst = gen_hypertruncated_cube(HtcParams(100, htc_r(100), Fraction(1, 2)))
    assert inst.m == 400 and inst.n == 100
    assert (1 - 100 + 2 * 36,) == (-27,)
    assert (-27,) + (1,) * 99 + (36,) in inst.rows


def test_round3_examples():
    assert round3(Fraction(56, 6)) == Fraction(9333, 1000)
    assert round3(Fraction(-11, 12)) == Fraction(-917, 1000)
    assert round3(Fraction(73, 10)) == Fraction(73, 10)
    assert round3_sqrt3(Fraction(14, 3)) == Fraction(8083, 1000)
    assert round3_sqrt3(Fraction(-14, 3)) == Fraction(-8083, 1000)
    assert round3(Fraction(1)) == 1


def test_round3_near_half():
    assert round3(Fraction(6, 10000)) == Fraction(1, 1000)
    assert round3(Fraction(-6, 10000)) == Fraction(-1, 1000)
    assert round3(Fraction(4, 10000)) == 0
    # an exact .0005 tie is a construction bug and must abort loudly
    from symilp.errors import DegenerateFacet

    with pytest.raises(DegenerateFacet):
        round3(Fraction(1, 2000))


def test_hexagon_vertices_rounded():
    vs = hexagon_vrep()
    assert vs[0] == (Fraction(9333, 1000), 0)
    assert vs[1] == (Fraction(4667, 1000), Fraction(8083, 1000))
    assert vs[3] == (Fraction(-9333, 1000), 0)
    assert len(set(vs)) == 6


def test_join_vertex_embedding():
    verts = distorted_join_vrep(3)
    assert len(verts) == 6 + 6
    for v in verts[:6]:
        assert v[-1] == 1 and all(x == 0 for x in v[2:-1])
    for v in verts[6:]:
        assert v[-1] == Fraction(-917, 1000)
        assert v[0] == 0 and v[1] == 0
    mags = {abs(x) for v in verts[6:] for x in v[2:-1] if x}
    assert mags == {Fraction(73, 10)}


def test_join_facet_count():
    assert len(join_facet_vertex_sets(3)) == 6 + 8
    assert len(join_facet_vertex_sets(5)) == 6 + 32


def test_multiset_permutations():
    assert list(multiset_permutations((1, 1, 2))) == [(1, 1, 2), (1, 2, 1), (2, 1, 1)]
    assert len(list(multiset_permutations((1, 2, 3)))) == 6
    assert list(multiset_permutations((5,))) == [(5,)]


def test_symmetrize_examples():
    inst = normalize([(1, 2, 0, 3)], [1, 1, 1])
    out = symmetrize(inst)
    assert out.m == 6
    inst = normalize([(1, 1, 1, 3)], [1, 1, 1])
    assert symmetrize(inst).m == 1
    assert symmetrize(symmetrize(inst)).rows == symmetrize(inst).rows
    # equal sorted coefficients with two right hand sides stay two classes
    inst = normalize([(2, -1, -1, 3), (-1, 2, -1, 4), (0, -1, 1, 0)], [1, 1, 1])
    out = symmetrize(inst)
    assert out.m == 3 + 3 + 6
    assert {(-1, -1, 2, 3), (-1, -1, 2, 4), (1, 0, -1, 0)} <= set(out.rows)


def reference_symmetrize(inst):
    """Every class key's coefficient permutations, deduplicated and sorted."""
    keys = inst.row_classes
    return tuple(sorted({p + key[-1:] for key in keys for p in set(permutations(key[:-1]))}))


def random_classes(rng, n):
    """1 to 4 rows over a small pool with repeated and negative coefficients,
    sometimes with a second b for the same coefficients."""
    pool = rng.sample([-3, -2, -1, 0, 0, 1, 2, 5], rng.randint(1, 4))
    rows = []
    for _ in range(rng.randint(1, 4)):
        a = [rng.choice(pool) for _ in range(n)]
        if not any(a):
            a[0] = 1
        rows.append(tuple(a) + (rng.randint(-4, 4),))
        if rng.random() < 0.3:
            rng.shuffle(a)
            rows.append(tuple(a) + (rng.randint(-4, 4),))
    return normalize(rows, [1] * n)


@pytest.mark.parametrize("suffix_length", [1, 3, instances.SUFFIX_LENGTH])
@pytest.mark.parametrize("seed", range(40))
def test_symmetrize_matches_the_permutation_closure(seed, suffix_length, monkeypatch):
    # the split between trie and shared suffix lists moves nothing
    monkeypatch.setattr(instances, "SUFFIX_LENGTH", suffix_length)
    rng = random.Random(seed)
    inst = random_classes(rng, 1 + seed % 7)
    emitted = []

    def capture(rows, c, name):
        emitted.append(rows)
        return ILPInstance(rows, c, name=name)

    monkeypatch.setattr(instances, "ILPInstance", capture)
    out = symmetrize(inst)
    assert out.rows == reference_symmetrize(inst)
    assert all(map(lt, emitted[0], emitted[0][1:]))  # ascending as emitted: nothing to sort
    assert symmetrize(out).rows == out.rows


def test_symmetrize_one_long_row():
    # 1500 rows of 1500 coefficients: the walk's depth does not grow with n
    n = 1500
    out = symmetrize(normalize([(1,) + (0,) * (n - 1) + (1,)], [1] * n))
    assert out.m == n
    assert out.rows == tuple((0,) * i + (1,) + (0,) * (n - 1 - i) + (1,) for i in reversed(range(n)))


def _htc_cases():
    """(n, r, lambda) in the window: r = 2, r = htc_r(n) and the largest r
    below lambda * n, for n from below SUFFIX_LENGTH to far above it."""
    cases = set()
    for n in (3, 7, 40, 150):
        for lam in (Fraction(1, 2), Fraction(2, 3), Fraction(3, 4)):
            for r in (2, htc_r(n), min(n - 1, ceil(lam * n) - 1)):
                if 2 <= r and Fraction(r, n) < lam:
                    cases.add((n, r, lam))
    return sorted(cases)


@pytest.mark.parametrize("n,r,lam", _htc_cases())
def test_htc_is_the_orbit_expansion_of_its_row_classes(n, r, lam):
    # two routes to the same rows: the generator's four families, and
    # symmetrize over the four class keys
    h = gen_hypertruncated_cube(HtcParams(n, r, lam))
    assert len(h.row_classes) == 4
    assert symmetrize(ILPInstance(list(h.row_classes), h.c)).rows == h.rows


def test_symmetrize_orbit_count_formula():
    # |orbit| of a row = n! / prod(multiplicities!)
    inst = normalize([(2, 1, 1, 0, 5), (3, 3, 3, 3, 1)], [1] * 4)
    out = symmetrize(inst)
    expect = factorial(4) // (factorial(2)) + 1
    assert out.m == expect


def test_wild_d3_counts():
    inst = gen_wild(3)
    n = 6
    # cross-type classes p = 0..3 of multiset {0,0, +-1917 x3, 7300}
    expect = sum(
        factorial(n) // (2 * factorial(p) * factorial(3 - p)) for p in range(4)
    )
    # hexagon-edge classes: two axis rows {0^4, a, h}, four generic
    # rows {0^3, +-c1, +-c2, h}
    expect += 2 * (factorial(n) // factorial(4))
    expect += 4 * (factorial(n) // factorial(3))
    assert inst.m == expect == 1020
    assert inst.n == 6


def test_wild_rows_valid_on_vertices():
    d = 3
    inst = gen_wild(d)
    verts = distorted_join_vrep(d)
    # spot-check validity of all rows on all vertices (symmetrized rows
    # are only guaranteed valid for the symmetrized polytope, so check
    # the facet classes through representatives instead)
    from symilp.instances import _fit_facet

    k = len(verts)
    bary = tuple(sum(v[t] for v in verts) / k for t in range(d + 3))
    for idx in join_facet_vertex_sets(d):
        row = _fit_facet(verts, idx, bary)
        for v in verts:
            assert dot(row[:-1], v) <= row[-1]
        tight = [v for v in verts if dot(row[:-1], v) == row[-1]]
        assert len(tight) == len(idx)  # exactly the defining vertex set


def test_wild_is_fully_symmetric():
    inst = gen_wild(3)
    n = inst.n
    assert is_symmetry(inst, transposition(n, 1, 2))
    assert is_symmetry(inst, full_cycle(n))


def test_wild_rejects_small_d():
    with pytest.raises(BadParams):
        gen_wild(2)


@pytest.mark.parametrize("d", range(3, 9))
def test_gen_wild_matches_the_facet_by_facet_reference(d):
    inst, ref = gen_wild(d), reference_gen_wild(d)
    assert (inst.rows, inst.c, inst.name) == (ref.rows, ref.c, ref.name)
    assert orbit_row_count(wild_facets(d)) == inst.m


@pytest.mark.parametrize("d", [3, 5, 8])
def test_gen_wild_fits_seven_facets(d, monkeypatch):
    calls = []
    fit = instances._fit_facet

    def counting(*args):
        calls.append(args[1])
        return fit(*args)

    monkeypatch.setattr(instances, "_fit_facet", counting)
    gen_wild(d)
    assert len(calls) == 7  # six hexagon edges and the all-plus cross facet


@pytest.mark.parametrize("d,m", [(3, 1020), (6, 18288), (8, 130900), (10, 885768)])
def test_wild_row_count_is_a_sum_of_multinomials(d, m):
    base = wild_facets(d)
    assert base.m == 6 + d + 1  # the cross facets by their number of minus signs
    assert orbit_row_count(base) == m


def _no_expansion(*args):
    raise AssertionError("rows expanded past the budget")


def test_wild_row_budget_refuses_before_expanding(monkeypatch):
    monkeypatch.setattr(instances, "symmetrize", _no_expansion)
    monkeypatch.setattr(instances, "_walk", _no_expansion)
    assert orbit_row_count(wild_facets(16)) == 190_537_092 > WILD_ROW_BUDGET
    with pytest.raises(BadParams, match="190,537,092 rows"):
        gen_wild(16)


def test_facet_check_wants_exactly_the_tight_vertices():
    verts = ((Fraction(1, 2), 0), (0, Fraction(1, 2)), (0, 0))
    row = (2, 2, 1)  # x + y <= 1/2 on the first two vertices
    _check_facets(verts, [(row, [0, 1])])
    with pytest.raises(DegenerateFacet, match="tight"):
        _check_facets(verts, [(row, [0])])
    with pytest.raises(DegenerateFacet, match="convex position"):
        _check_facets(verts, [((2, 2, 0), [2])])


@st.composite
def htc_params(draw, max_n=60):
    """Any HtcParams with n <= max_n and lambda's denominator up to 4n."""
    n = draw(st.integers(3, max_n))
    r = draw(st.integers(2, n - 1))
    den = draw(st.integers(2, 4 * n))
    lo = r * den // n + 1  # the least numerator above r/n
    assume(lo < den)
    return HtcParams(n, r, Fraction(draw(st.integers(lo, den - 1)), den))


@settings(max_examples=150, deadline=None)
@given(htc_params())
# lambda = 2/3: the deletion family (2, 3r + 2 - 2n | 2r) has gcd 2 for even r
@example(HtcParams(9, 4, Fraction(2, 3)))
@example(HtcParams(60, 22, Fraction(2, 3)))
def test_htc_matches_the_normalize_reference(p):
    inst, ref = gen_hypertruncated_cube(p), reference_htc(p)
    assert (inst.rows, inst.c, inst.name) == (ref.rows, ref.c, ref.name)
