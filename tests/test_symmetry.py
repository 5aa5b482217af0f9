from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symilp import symmetry
from symilp.model import ILPInstance, normalize
from symilp.symmetry import (
    GroupSpec,
    SignedPermutation,
    alt_generators,
    basis_orbits,
    conjugate_to_permutations,
    distinct_permutations,
    fixed_space,
    fixing_equations,
    full_cycle,
    is_symmetry,
    orbit,
    read_generators,
    sym_generators,
    transposition,
    verify_symmetric_group_invariance,
    write_generators,
)
from symilp.ratlin import dot
from testkit import (
    group_elements,
    group_order,
    inverse,
    kernel_fixed_space,
    orbit_average,
    orbit_barycenter,
    project_barycenter,
    rank,
    reference_is_symmetry,
    signed_matrix,
    symmetric_lps,
)

SIGNED_4CYCLE = SignedPermutation((2, -4, -1, 3))  # e1->e2, e2->-e4, e4->e3, e3->-e1


def unit(n, i, sign=1):
    v = [0] * n
    v[i] = sign
    return tuple(v)


def test_signed_matrix_action():
    assert SIGNED_4CYCLE.apply(unit(4, 0)) == unit(4, 1)
    assert SIGNED_4CYCLE.apply(unit(4, 1)) == unit(4, 3, -1)
    assert SIGNED_4CYCLE.apply(unit(4, 3)) == unit(4, 2)
    assert SIGNED_4CYCLE.apply(unit(4, 2)) == unit(4, 0, -1)
    ident = SignedPermutation.identity(4)
    assert ident.apply((3, 1, 4, 1)) == (3, 1, 4, 1)


def test_signed_matrix_entries():
    m = signed_matrix(SIGNED_4CYCLE)
    assert m == ((0, 0, -1, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, -1, 0, 0))


def test_compose_inverse_roundtrip():
    g = SIGNED_4CYCLE
    assert g * inverse(g) == SignedPermutation.identity(4)
    assert inverse(g) * g == SignedPermutation.identity(4)
    # the cycle's sign product is +1, so its order is plain 4
    p = g
    k = 1
    while p != SignedPermutation.identity(4):
        p = p * g
        k += 1
    assert k == 4


def test_row_action_matches_matrix_product():
    g = SIGNED_4CYCLE
    row = (3, -1, 4, 2)
    m = signed_matrix(g)
    expect = tuple(dot(row, tuple(m[i][j] for i in range(4))) for j in range(4))
    assert g.apply_to_row(row) == expect


def test_is_symmetry_ex61(ex61):
    assert is_symmetry(ex61, SignedPermutation((2, 3, 1)))
    assert not is_symmetry(ex61, transposition(3, 1, 2))
    assert is_symmetry(ex61, SignedPermutation.identity(3))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_is_symmetry_matches_the_row_loop(corpus, data):
    if data.draw(st.booleans()):
        inst = data.draw(st.sampled_from(corpus))
        gens = sym_generators(inst.n)
    else:
        inst, G = data.draw(symmetric_lps())
        gens = G.generators
    n = inst.n
    if data.draw(st.booleans()):  # c = 0 leaves every verdict to the rows
        inst = normalize(inst.rows, [0] * n, name=inst.name)
    signs = data.draw(st.lists(st.sampled_from((1, 1, -1)), min_size=n, max_size=n))
    perm = data.draw(st.permutations(range(1, n + 1)))
    drawn = [
        SignedPermutation(perm),
        SignedPermutation(s * v for s, v in zip(signs, perm)),
        data.draw(st.sampled_from(gens)),
    ]
    for g in drawn:
        assert is_symmetry(inst, g) == reference_is_symmetry(inst, g)


def test_fixed_space_cyclic():
    G = GroupSpec(3, (full_cycle(3),))
    assert fixed_space(G) == [(1, 1, 1)]


def test_fixed_space_signed_cycle():
    assert fixed_space(GroupSpec(4, (SIGNED_4CYCLE,))) == [(1, 1, -1, -1)]


def test_fixed_space_sign_flip():
    G = GroupSpec(2, (SignedPermutation((-1, 2)),))
    assert fixed_space(G) == [(0, 1)]


def test_fixing_equations_cyclic():
    G = GroupSpec(3, (full_cycle(3),))
    E = fixing_equations(G)
    assert len(E) == 2
    for e in E:
        assert dot(e, (1, 1, 1)) == 0
    assert rank(E) == 2


def test_fixing_equations_trivial_group():
    G = GroupSpec(2, (SignedPermutation.identity(2),))
    assert fixing_equations(G) == ()


def test_fixing_equations_minus_identity():
    G = GroupSpec(2, (SignedPermutation((-1, -2)),))
    E = fixing_equations(G)
    assert rank(E) == 2 and len(E) == 2


def test_project_barycenter_sym3():
    G = GroupSpec(3, sym_generators(3))
    assert project_barycenter(G, (3, 0, 0)) == (1, 1, 1)


def test_project_barycenter_cyclic():
    G = GroupSpec(3, (full_cycle(3),))
    assert project_barycenter(G, (1, 2, 3)) == (2, 2, 2)


def test_project_barycenter_minus_id():
    G = GroupSpec(3, (SignedPermutation((-1, -2, -3)),))
    assert project_barycenter(G, (5, -2, 7)) == (0, 0, 0)


def test_barycenter_idempotent_linear_fixed(corpus):
    G = GroupSpec(4, sym_generators(4))
    x = (Fraction(7, 2), -1, 0, 2)
    y = (0, 2, Fraction(1, 3), -5)
    b = project_barycenter(G, x)
    assert project_barycenter(G, b) == b
    for g in G.generators:
        assert g.apply(b) == b
    xy = tuple(a + c for a, c in zip(x, y))
    by = project_barycenter(G, y)
    assert project_barycenter(G, xy) == tuple(a + c for a, c in zip(b, by))


@st.composite
def signed_groups(draw, max_degree):
    """A group of degree 1..max_degree on 1-3 random signed permutations."""
    n = draw(st.integers(1, max_degree))
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        perm = draw(st.permutations(range(1, n + 1)))
        signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
        gens.append(SignedPermutation(s * p for s, p in zip(signs, perm)))
    return GroupSpec(n, tuple(gens))


@settings(max_examples=300, deadline=None)
@given(signed_groups(7))
def test_fixed_space_is_the_kernel_basis(G):
    # the same vectors as the kernel of the stacked (gamma - id) blocks, in
    # the same order and with the same signs, so solve_lp pivots alike
    assert fixed_space(G) == kernel_fixed_space(G)
    # fixed_space reads an orbit as bipolar (o = -o) when it holds -o[0]
    for o in basis_orbits(G):
        assert (-o[0] in o) == (set(o) == {-v for v in o})


@settings(max_examples=150, deadline=None)
@given(signed_groups(5), st.lists(st.fractions(max_denominator=6), min_size=5, max_size=5))
def test_project_barycenter_is_the_orbit_average(G, x):
    x = x[: G.degree]
    assert project_barycenter(G, x) == orbit_average(G, x)


def test_project_barycenter_rejects_a_wrong_length():
    G = GroupSpec(3, sym_generators(3))
    for x in ((1, 2), (1, 2, 3, 4)):
        with pytest.raises(ValueError, match="length"):
            project_barycenter(G, x)


def test_large_groups_need_no_enumeration():
    assert fixed_space(GroupSpec(500, sym_generators(500))) == [(1,) * 500]
    # the orbit of (0, 1, ..., 11) under Sym(12) has 12! points
    assert project_barycenter(GroupSpec(12, sym_generators(12)), range(12)) == (
        Fraction(11, 2),
    ) * 12


def test_degree_zero():
    G = GroupSpec(0, (SignedPermutation(()),))
    assert fixed_space(G) == []
    assert fixing_equations(G) == ()
    assert project_barycenter(G, ()) == ()
    assert conjugate_to_permutations(G) is None


def test_fixed_space_vectors_are_fixed():
    for G in (
        GroupSpec(4, (SIGNED_4CYCLE,)),
        GroupSpec(3, (full_cycle(3),)),
        GroupSpec(4, sym_generators(4)),
    ):
        for v in fixed_space(G):
            for g in G.generators:
                assert g.apply(v) == v
        E = fixing_equations(G)
        dim = len(fixed_space(G))
        assert (len(E) == 0 and dim == G.degree) or rank(E) + dim == G.degree


def test_basis_orbits_swap():
    G = GroupSpec(2, (transposition(2, 1, 2),))
    orbits = basis_orbits(G)
    assert orbits == [(1, 2), (-1, -2)]


def test_basis_orbits_sign_flip_bipolar():
    G = GroupSpec(1, (SignedPermutation((-1,)),))
    assert basis_orbits(G) == [(1, -1)]


def test_basis_orbits_signed_swap():
    G = GroupSpec(2, (SignedPermutation((-2, -1)),))
    orbits = basis_orbits(G)
    assert [-o[0] in o for o in orbits] == [False, False]  # neither is bipolar
    assert {frozenset(o) for o in orbits} == {
        frozenset({1, -2}),
        frozenset({-1, 2}),
    }


def test_bipolar_barycenter_vanishes():
    G = GroupSpec(2, (SignedPermutation((-1, 2)),))
    orbits = basis_orbits(G)
    for o in orbits:
        bc = orbit_barycenter(o, 2)
        if -o[0] in o:
            assert bc == (0, 0)
        else:
            assert any(bc)


def test_unipolar_barycenters_span_fixed_space():
    for G in (
        GroupSpec(3, (full_cycle(3),)),
        GroupSpec(4, (SIGNED_4CYCLE,)),
        GroupSpec(2, (SignedPermutation((-2, -1)),)),
        GroupSpec(4, sym_generators(4)),
    ):
        n = G.degree
        spanning = [
            orbit_barycenter(o, n)
            for o in basis_orbits(G)
            if -o[0] not in o
        ]
        dim = len(fixed_space(G))
        assert (rank(spanning) if spanning else 0) == dim


def test_conjugate_signed_swap():
    G = GroupSpec(2, (SignedPermutation((-2, -1)),))
    eps, H = conjugate_to_permutations(G)
    assert eps == SignedPermutation((1, -2))
    assert H.generators == (transposition(2, 1, 2),)


def test_conjugate_plain_swap_identity_sign():
    G = GroupSpec(2, (transposition(2, 1, 2),))
    eps, H = conjugate_to_permutations(G)
    assert eps == SignedPermutation.identity(2)
    assert H.generators == G.generators


def test_conjugate_absent_for_bipolar():
    G = GroupSpec(2, (SignedPermutation((-1, -2)),))
    assert conjugate_to_permutations(G) is None


def test_conjugate_signed_three_cycle():
    # e1 -> -e2, e2 -> e3, e3 -> -e1: orbits {e1,-e2,-e3} and its negative
    g = SignedPermutation((-2, 3, -1))
    eps, H = conjugate_to_permutations(GroupSpec(3, (g,)))
    assert eps == SignedPermutation((1, -2, -3))
    assert H.generators[0].is_plain
    assert group_order(H) == group_order(GroupSpec(3, (g,)))


def test_symmetries_closed_under_composition(ex61):
    cyc = SignedPermutation((2, 3, 1))
    assert is_symmetry(ex61, cyc * cyc)
    assert is_symmetry(ex61, inverse(cyc))
    sq = normalize([(1, 0, 1), (0, 1, 1), (-1, 0, 0), (0, -1, 0)], [1, 1])
    sw = transposition(2, 1, 2)
    assert is_symmetry(sq, sw) and is_symmetry(sq, sw * sw)


def test_conjugation_preserves_group_order():
    for gens in [
        (SignedPermutation((-2, -1)),),
        (SignedPermutation((2, -3, 1)),
         SignedPermutation((-2, -1, 3))),
        (SignedPermutation((2, 3, 4, 1)),),
    ]:
        G = GroupSpec(gens[0].degree, gens)
        res = conjugate_to_permutations(G)
        if res is None:
            continue
        _, H = res
        assert group_order(H) == group_order(G)
        assert all(h.is_plain for h in H.generators)


def test_verify_levels(ex61, htc6):
    assert verify_symmetric_group_invariance(htc6) == "full_symmetric"
    # n = 3: the cyclic group IS Alt(3), certified by the generator pair
    assert verify_symmetric_group_invariance(ex61) == "alternating"
    lone = normalize([(1, 2, 3)], [1, 1])
    assert verify_symmetric_group_invariance(lone) == "none"


def test_verify_transitive_only(cyc4):
    # 4-cycle orbit of a row: cyclic but not alternating for n = 4
    cyc = full_cycle(4)
    assert is_symmetry(cyc4, cyc)
    assert verify_symmetric_group_invariance(cyc4) == "transitive_only"


def test_verify_v4_has_no_generator_certificate(v4):
    # transitive of order 4, but no Sym, Alt or n-cycle generator holds
    group = [g for g in map(SignedPermutation, permutations(range(1, 5))) if is_symmetry(v4, g)]
    assert len(group) == 4
    assert {abs(g.image[0]) for g in group} == {1, 2, 3, 4}
    assert verify_symmetric_group_invariance(v4) == "none"


def test_verify_checks_each_permutation_once(monkeypatch, htc6):
    checked = []

    def counting(inst, g):
        checked.append(g)
        return is_symmetry(inst, g)

    monkeypatch.setattr(symmetry, "is_symmetry", counting)
    cases = [
        (normalize([(1, 2, 3)], [1, 1]), 1, "none"),  # the 2-cycle, of the n-cycle tier
        (normalize([(1, 2, 0, 3)], [1, 1, 1]), 1, "none"),  # Alt(3) is the 3-cycle alone
        # Sym({1,2,3}) x Sym({4,5}): the 3-cycle holds, and the 5-cycle, of
        # the Alt(5) and the n-cycle tiers, is checked once
        (normalize([(1, 1, 1, 0, 0, 1), (0, 0, 0, 1, 1, 1)], [1] * 5), 2, "none"),
        (htc6, 0, "full_symmetric"),  # a count of row classes, no generator
    ]
    for inst, calls, level in cases:
        checked.clear()
        assert verify_symmetric_group_invariance(inst) == level
        assert len(checked) == calls == len(set(checked))


@pytest.mark.parametrize("values", [(), (0,), (1, 1, 1), (0, 0, 1, 2, 2), (-2, -1, 0, 3)])
def test_distinct_permutations_counts_the_orderings(values):
    assert distinct_permutations(values) == len(set(permutations(values)))


def test_full_symmetric_counts_distinct_rows():
    # five of the six orderings of (1, 2, 3) <= 4, the first one twice: the
    # constructor drops the repeat, so it cannot stand in for the sixth
    rows = [p + (4,) for p in sorted(permutations((1, 2, 3)))]
    short = ILPInstance(rows[:5] + rows[:1], [1] * 3)
    assert short.m == 5 and short.row_classes == {(1, 2, 3, 4): 5}
    assert verify_symmetric_group_invariance(short) != "full_symmetric"
    assert verify_symmetric_group_invariance(ILPInstance(rows, [1] * 3)) == "full_symmetric"


def test_dropping_any_row_refutes_full_symmetric(htc6, corpus):
    for inst in [htc6] + corpus[:8]:
        assert verify_symmetric_group_invariance(inst) == "full_symmetric"
        for i, row in enumerate(inst.rows):
            rest = ILPInstance(inst.rows[:i] + inst.rows[i + 1 :], inst.c)
            # a row of equal coefficients is an orbit of its own
            alone = len(set(row[:-1])) == 1
            assert (verify_symmetric_group_invariance(rest) == "full_symmetric") == alone
    skewed = ILPInstance(htc6.rows, (2,) + htc6.c[1:])
    assert verify_symmetric_group_invariance(skewed) != "full_symmetric"


def test_verify_alternating_only():
    # Alt(4)-orbit of an asymmetric row is Alt- but not Sym-invariant
    from symilp.instances import symmetrize

    base = (1, 2, 3, 0)
    alt = group_elements(GroupSpec(4, alt_generators(4)))
    rows = sorted({g.apply_to_row(base) + (5,) for g in alt})
    assert len(rows) == 12
    inst = normalize(rows, [1] * 4, name="alt4")
    assert verify_symmetric_group_invariance(inst) == "alternating"
    assert len(symmetrize(inst).rows) == 24


def test_generators_are_listed_once():
    for n in range(1, 9):
        for gens in [sym_generators(n)] + ([alt_generators(n)] if n >= 3 else []):
            assert len(set(gens)) == len(gens)


def test_malformed_generator_lists_are_value_errors():
    with pytest.raises(ValueError, match="nonempty"):
        GroupSpec(3, ())
    with pytest.raises(ValueError, match="degree mismatch"):
        GroupSpec(3, (full_cycle(3), full_cycle(4)))
    with pytest.raises(ValueError, match="n >= 3"):
        alt_generators(2)


def test_group_orders():
    assert group_order(GroupSpec(2, sym_generators(2))) == 2
    assert group_order(GroupSpec(3, alt_generators(3))) == 3
    assert group_order(GroupSpec(3, sym_generators(3))) == 6
    assert group_order(GroupSpec(5, sym_generators(5))) == 120
    assert group_order(GroupSpec(4, alt_generators(4))) == 12
    assert group_order(GroupSpec(5, alt_generators(5))) == 60
    assert group_order(GroupSpec(4, (SIGNED_4CYCLE,))) == 4


def test_generator_file_roundtrip(tmp_path):
    G = GroupSpec(4, (SIGNED_4CYCLE, transposition(4, 1, 3)))
    path = tmp_path / "gens.grp"
    write_generators(G, path)
    text = path.read_text().splitlines()
    assert text[0] == "2 -4 -1 3"
    back = read_generators(path)
    assert back == G


def test_symmetries_of_ones_objective_are_plain(corpus):
    """c = 1 forces sign-free symmetries: c*gamma = c kills every -1."""
    inst = corpus[0]
    n = inst.n
    for perm in permutations(range(1, n + 1)):
        for signs in product((1, -1), repeat=n):
            g = SignedPermutation(tuple(s * p for s, p in zip(signs, perm)))
            if is_symmetry(inst, g):
                assert g.is_plain


def test_orbit_closure():
    gens = sym_generators(5)
    assert orbit([1], gens, lambda g, i: abs(g.image[i - 1])) == {1, 2, 3, 4, 5}
    assert orbit([1, 2], [], lambda g, x: x) == {1, 2}
    assert len(group_elements(GroupSpec(5, gens))) == 120
