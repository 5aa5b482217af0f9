import random
from fractions import Fraction
from functools import partial
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symilp import symdetect
from symilp.errors import ResultCheckFailed, SearchBudgetExceeded
from symilp.instances import HtcParams, gen_hypertruncated_cube, gen_wild
from symilp.model import normalize
from symilp.symdetect import (
    LabeledGraph,
    automorphism_group,
    build_full_graph,
    build_reduced_graph,
    build_search_graph,
    detect,
    is_automorphism,
)
from symilp.symmetry import GroupSpec, SignedPermutation, is_symmetry
from testkit import group_order, neighbour_graph, reference_automorphism_group


def counts(inst):
    n = inst.n
    n_a = len({row[j] for row in inst.rows for j in range(n)})
    n_b = len({row[-1] for row in inst.rows})
    n_c = len(set(inst.c))
    return n_a, n_b, n_c


def test_reduced_graph_ex61(ex61):
    g = build_reduced_graph(ex61)
    assert g.n_nodes == 20
    assert g.n_edges == 33
    assert len(set(g.labels)) == 8


def test_reduced_graph_single_row():
    inst = normalize([(1, 2, 3)], [1, 1])
    g = build_reduced_graph(inst)
    assert g.n_nodes == 9 and g.n_edges == 9


def test_reduced_graph_one_by_one():
    inst = normalize([(1, 1)], [1])
    g = build_reduced_graph(inst)
    assert g.n_nodes == 6 and g.n_edges == 5
    full = build_full_graph(inst)
    # adds colhat, poshat, kappa(-1), mu(-1) and six edges
    assert full.n_nodes == 10 and full.n_edges == 11


def test_count_formulas_randomized():
    rng = random.Random(3)
    for trial in range(50):
        n = rng.randint(1, 4)
        m = rng.randint(1, 5)
        rows = set()
        while len(rows) < m:
            row = tuple(rng.randint(-3, 3) for _ in range(n))
            if any(row):
                rows.add(row + (rng.randint(-2, 4),))
        c = [Fraction(rng.randint(-2, 2)) for _ in range(n)]
        inst = normalize(rows, c, name=f"rand{trial}")
        m_eff = inst.m
        g = build_reduced_graph(inst)
        n_a, n_b, n_c = counts(inst)
        assert g.n_nodes == m_eff * n + m_eff + n + n_a + n_b + n_c
        assert g.n_edges == 3 * m_eff * n + m_eff + n
        assert len(set(g.labels)) == n_a + n_b + n_c + 3


def test_full_graph_ex61_size(ex61):
    g = build_full_graph(ex61)
    red = build_reduced_graph(ex61)
    assert red.n_nodes < g.n_nodes < 2 * red.n_nodes
    # one-time derivation: 20 + 3 colhat + 6 poshat + kappa(-1),(-2) + mu(-1)
    assert g.n_nodes == 32
    # 33 + 4 per nonzero position + 3 zero-position twin edges
    # + 3 colhat-mu + 3 col-colhat
    assert g.n_edges == 66


def test_full_graph_symmetric_coefficients_add_no_nodes():
    inst = normalize([(1, -1, 2), (-1, 1, 2)], [Fraction(0), Fraction(0)])
    g, red = build_full_graph(inst), build_reduced_graph(inst)
    # A-values {1,-1}, c-values {0}: negatives already present, so the full
    # graph adds only the n column twins and the nnz position twins
    nnz = sum(1 for row in inst.rows for a in row[:-1] if a)
    assert (inst.n, nnz) == (2, 4)
    assert g.n_nodes == red.n_nodes + inst.n + nnz


def test_automorphism_group_orders(ex61):
    g = build_reduced_graph(ex61)
    gens, order = automorphism_group(g)
    assert order == 3
    square = normalize(
        [(1, 0, 1), (0, 1, 1), (-1, 0, 0), (0, -1, 0)], [1, 1], name="square"
    )
    _, order2 = automorphism_group(build_reduced_graph(square))
    assert order2 == 2


def test_automorphism_group_rigid():
    inst = normalize([(1, 2, 3)], [2, 1])
    gens, order = automorphism_group(build_reduced_graph(inst))
    assert order == 1 and gens == []


def brute_symmetry_order(inst, signed=True):
    n = inst.n
    count = 0
    signs = list(product((1, -1), repeat=n)) if signed else [(1,) * n]
    for perm in permutations(range(1, n + 1)):
        for sg in signs:
            g = SignedPermutation(tuple(s * p for s, p in zip(sg, perm)))
            if is_symmetry(inst, g):
                count += 1
    return count


def test_detect_ex61_full(ex61):
    det = detect(ex61, "full")
    assert det.order == 3
    assert group_order(det.group) == 3
    assert brute_symmetry_order(ex61) == 3
    for g in det.group.generators:
        assert is_symmetry(ex61, g)


def test_detect_htc5_full_is_sym5():
    inst = gen_hypertruncated_cube(HtcParams(5, 2, Fraction(1, 2)))
    det = detect(inst, "full")
    assert det.order == 120
    assert group_order(det.group) == 120
    assert brute_symmetry_order(inst) == 120


def test_detect_sign_flip_only_in_full_mode():
    # rows symmetric under x1 -> -x1 with c1 = 0
    inst = normalize(
        [(1, 0, 1), (-1, 0, 1), (0, 1, 1)], [Fraction(0), Fraction(1)], name="flip"
    )
    flip = SignedPermutation((-1, 2))
    assert is_symmetry(inst, flip)
    full = detect(inst, "full")
    red = detect(inst, "reduced")
    assert full.order == 2 and red.order == 1
    assert flip in set(full.group.generators)
    assert all(g.is_plain for g in red.group.generators)


def test_detect_completeness_small_instances():
    rng = random.Random(11)
    done = 0
    trial = 0
    while done < 8:
        trial += 1
        n = rng.randint(1, 4)
        m = rng.randint(1, 4)
        rows = set()
        while len(rows) < m:
            row = tuple(rng.randint(-2, 2) for _ in range(n))
            if any(row):
                rows.add(row + (rng.randint(0, 3),))
        c = [Fraction(rng.choice([0, 1, 1, 2]))] * n
        inst = normalize(rows, c, name=f"cmp{trial}")
        det = detect(inst, "full")
        assert det.order == brute_symmetry_order(inst)
        red = detect(inst, "reduced")
        assert red.order == brute_symmetry_order(inst, signed=False)
        for g in det.group.generators + red.group.generators:
            assert is_symmetry(inst, g)
        done += 1


def test_detect_soundness_on_corpus(corpus):
    for inst in corpus[:6]:
        det = detect(inst, "full")
        for g in det.group.generators:
            assert is_symmetry(inst, g)
        # the corpus is symmetrized, so Sym(n) is a subgroup
        assert det.order % group_order(
            GroupSpec(inst.n, det.group.generators)
        ) == 0


def brute_graph_automorphisms(g):
    """All label/adjacency-preserving node bijections, by raw enumeration."""
    n = g.n_nodes
    found = 0
    for perm in permutations(range(n)):
        if any(g.labels[perm[v]] != g.labels[v] for v in range(n)):
            continue
        if all({perm[u] for u in g.edge_labels[v]} == g.edge_labels[perm[v]].keys() for v in range(n)):
            found += 1
    return found


def test_automorphism_engine_vs_brute_on_random_graphs():
    rng = random.Random(5)
    for trial in range(40):
        n = rng.randint(2, 7)
        labels = [rng.randint(0, 2) for _ in range(n)]
        adj = [set() for _ in range(n)]
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.4:
                    adj[u].add(v)
                    adj[v].add(u)
        g = neighbour_graph(labels, adj)
        gens, order = automorphism_group(g)
        assert order == brute_graph_automorphisms(g), (trial, labels, adj)
        for m in gens:
            assert all(g.labels[m[v]] == g.labels[v] for v in range(n))
            assert all({m[u] for u in g.edge_labels[v]} == g.edge_labels[m[v]].keys() for v in range(n))


def test_detect_full_hyperoctahedral():
    # the centered cube with zero objective admits every signed permutation
    rows = []
    for i in range(3):
        e = [0] * 3
        e[i] = 1
        rows.append(tuple(e) + (1,))
        e = [0] * 3
        e[i] = -1
        rows.append(tuple(e) + (1,))
    inst = normalize(rows, [Fraction(0)] * 3, name="cube3")
    det = detect(inst, "full")
    assert det.order == 48 == brute_symmetry_order(inst)
    red = detect(inst, "reduced")
    assert red.order == 6


def test_spent_budget_raises(ex61, monkeypatch):
    big = gen_hypertruncated_cube(HtcParams(8, 3, Fraction(1, 2)))
    monkeypatch.setattr(symdetect, "SEARCH_BUDGET", 2)
    for inst in (ex61, big):
        for mode, build in (("full", build_full_graph), ("reduced", build_reduced_graph)):
            with pytest.raises(SearchBudgetExceeded, match="over 2 refinements"):
                automorphism_group(build(inst))
            with pytest.raises(SearchBudgetExceeded):
                detect(inst, mode)


def _assert_automorphisms(g, gens):
    for m in gens:
        assert all(g.labels[m[v]] == g.labels[v] for v in range(g.n_nodes))
        assert all({m[u] for u in g.edge_labels[v]} == g.edge_labels[m[v]].keys() for v in range(g.n_nodes))


def _graph(n, edges):
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return neighbour_graph([0] * n, adj)


def test_petersen_graph_order():
    # 3-regular: refinement alone splits no cell at the root
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    g = _graph(10, outer + spokes + inner)
    gens, order = automorphism_group(g)
    assert order == 120
    _assert_automorphisms(g, gens)


def test_hexagon_and_two_triangles_order():
    # 2-regular, so refinement cannot tell the 6-cycle's vertices from the
    # triangles'; candidates across the two must fail on the trace
    hexagon = [(i, (i + 1) % 6) for i in range(6)]
    triangles = [(6 + t * 3 + i, 6 + t * 3 + (i + 1) % 3) for t in range(2) for i in range(3)]
    g = _graph(12, hexagon + triangles)
    gens, order = automorphism_group(g)
    assert order == 12 * 72  # D6 times (Sym(3) wr Sym(2))
    _assert_automorphisms(g, gens)


def test_k33_and_prism_order():
    # both 3-regular on 6 nodes, so the root colouring cannot tell them
    # apart; a candidate in the other component fails at a split record
    # that differs from the path's
    k33 = [(u, v) for u in range(3) for v in range(3, 6)]
    prism = [(6 + t * 3 + i, 6 + t * 3 + (i + 1) % 3) for t in range(2) for i in range(3)]
    prism += [(6 + i, 9 + i) for i in range(3)]
    g = _graph(12, k33 + prism)
    gens, order = automorphism_group(g)
    assert order == 72 * 12 == reference_automorphism_group(g)[1]  # Sym(3) wr Sym(2), D3 x Sym(2)
    _assert_automorphisms(g, gens)


def test_rook_and_shrikhande_order():
    # the 4x4 rook's graph and the Shrikhande graph are both SRG(16, 6, 2, 2),
    # so refinement never tells them apart, and a candidate below a wrong
    # node can run out of cells to try (find_first's last return).  The
    # search spends 67,985 of its SEARCH_BUDGET refinements here, about 2 s
    rook = [
        (4 * i + j, 4 * k + l)
        for i, j, k, l in product(range(4), repeat=4)
        if (i, j) < (k, l) and (i == k or j == l)
    ]
    steps = [(1, 0), (0, 1), (1, 1)]  # a Cayley graph of Z4 x Z4
    shrikhande = [
        (16 + 4 * i + j, 16 + 4 * ((i + a) % 4) + (j + b) % 4)
        for i, j in product(range(4), repeat=2)
        for a, b in steps
    ]
    g = _graph(32, rook + shrikhande)
    gens, order = automorphism_group(g)
    assert order == 1152 * 192 == reference_automorphism_group(g)[1]  # Sym(4) wr Sym(2), and 192
    _assert_automorphisms(g, gens)


def _relabelled(labels, edges, perm):
    """The graph with node v renamed perm[v]."""
    n = len(labels)
    new = [None] * n
    for v in range(n):
        new[perm[v]] = labels[v]
    adj = [set() for _ in range(n)]
    for u, v in edges:
        if u != v:
            adj[perm[u]].add(perm[v])
            adj[perm[v]].add(perm[u])
    return neighbour_graph(new, adj)


@st.composite
def circulants(draw):
    # Cayley graphs of Z_k: i ~ i + s for s in a connection set; a label
    # i mod d (d | k) keeps the rotations by multiples of d
    k = draw(st.integers(3, 12))
    jumps = draw(st.sets(st.integers(1, k // 2), min_size=1))
    d = draw(st.sampled_from([d for d in range(1, k + 1) if k % d == 0]))
    edges = [(i, (i + s) % k) for i in range(k) for s in jumps]
    return [i % d for i in range(k)], edges


@st.composite
def unions_of_copies(draw):
    size = draw(st.integers(1, 5))
    copies = draw(st.integers(2, 14 // size))
    labels = draw(st.lists(st.integers(0, 1), min_size=size, max_size=size))
    pairs = [(u, v) for u in range(size) for v in range(u + 1, size)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return (
        labels * copies,
        [(u + c * size, v + c * size) for c in range(copies) for u, v in edges],
    )


@st.composite
def random_graphs(draw):
    n = draw(st.integers(1, 14))
    labels = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return labels, edges


@settings(max_examples=150, deadline=None)
@given(st.one_of(circulants(), unions_of_copies(), random_graphs()), st.randoms())
def test_search_matches_the_round_based_reference(graph, rng):
    # refinement splits little in these graphs, so the search does the work;
    # a random renaming of the nodes must change nothing
    labels, edges = graph
    perm = list(range(len(labels)))
    rng.shuffle(perm)
    g = _relabelled(labels, edges, perm)
    gens, order = automorphism_group(g)
    assert order == reference_automorphism_group(g)[1]
    _assert_automorphisms(g, gens)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_search_matches_the_reference_on_corpus_graphs(corpus, data):
    build = data.draw(st.sampled_from([
        build_reduced_graph,
        build_full_graph,
        partial(build_search_graph, mode="reduced"),
        partial(build_search_graph, mode="full"),
    ]))
    g = build(data.draw(st.sampled_from(corpus)))
    gens, order = automorphism_group(g)
    assert order == reference_automorphism_group(g)[1]
    _assert_automorphisms(g, gens)


def test_refinement_alone_makes_a_marked_path_discrete():
    # an equitable colouring of a path with one marked end is discrete, so
    # the search refines once and individualizes nothing
    g = _relabelled([1] + [0] * 11, [(i, i + 1) for i in range(11)], list(range(12)))
    trace = {}
    assert automorphism_group(g, trace=trace) == ([], 1)
    assert trace["refinements"] == 1 and trace["splits"] > 0


@pytest.mark.parametrize("d, order", [(3, 720), (4, 5040)])
def test_wild_reduced_detection_orders(d, order):
    inst = gen_wild(d)
    det = detect(inst, "reduced")
    assert det.order == order
    assert all(is_symmetry(inst, g) for g in det.group.generators)


def test_detect_emits_generating_set(htc6):
    det = detect(htc6, "full")
    assert det.order == 720
    assert group_order(det.group) == 720


def _swap_nodes(graph, i, j):
    mapping = list(range(graph.n_nodes))
    mapping[i], mapping[j] = j, i
    return tuple(mapping)


def test_detect_rejects_a_mapping_that_is_no_symmetry(ex61, monkeypatch):
    # the transposition (1 2) does not fix the cyclic instance
    m = ex61.m  # column j is node m + j
    bad = _swap_nodes(build_search_graph(ex61, "reduced"), m, m + 1)
    monkeypatch.setattr(symdetect, "automorphism_group", lambda g, trace=None: ([bad], 2))
    with pytest.raises(ResultCheckFailed):
        detect(ex61, "reduced")


def test_detect_rejects_incoherent_twins(ex61, monkeypatch):
    # column 1 stays put while its twin moves to column 2's twin
    m, n = ex61.m, ex61.n  # column j's twin is node m + n + j
    bad = _swap_nodes(build_search_graph(ex61, "full"), m + n, m + n + 1)
    monkeypatch.setattr(symdetect, "automorphism_group", lambda g, trace=None: ([bad], 2))
    with pytest.raises(ResultCheckFailed):
        detect(ex61, "full")


def _random_instances(rng, count):
    """Small random instances, with repeated c values so that symmetry
    and sign flips occur."""
    out = []
    while len(out) < count:
        n = rng.randint(1, 5)
        rows = set()
        for _ in range(rng.randint(1, 6)):
            row = tuple(rng.randint(-3, 3) for _ in range(n))
            if any(row):
                rows.add(row + (rng.randint(-2, 4),))
        if rows:
            c = [Fraction(rng.choice([-1, 0, 0, 1, 1, 2])) for _ in range(n)]
            out.append(normalize(rows, c, name=f"rand{len(out)}"))
    return out


@pytest.mark.parametrize(
    "mode, build", [("reduced", build_reduced_graph), ("full", build_full_graph)]
)
def test_search_graph_finds_the_position_graphs_group(corpus, mode, build):
    # the row/column graph and the paper's position graph stand for one group
    for inst in corpus + _random_instances(random.Random(24), 60):
        det = detect(inst, mode)
        _, order = automorphism_group(build(inst))
        assert det.order == order == group_order(det.group), (inst.name, mode)


def test_detect_refuses_an_unknown_mode(ex61):
    with pytest.raises(ValueError, match="mode must be"):
        detect(ex61, "bogus")


def test_search_graph_size():
    for inst in _random_instances(random.Random(8), 40):
        m, n = inst.m, inst.n
        nnz = sum(1 for row in inst.rows for a in row[:-1] if a)
        red, full = build_search_graph(inst, "reduced"), build_search_graph(inst, "full")
        assert (red.n_nodes, red.n_edges) == (m + n, nnz)
        assert (full.n_nodes, full.n_edges) == (m + 2 * n, 2 * nnz + n)
        trace = {}
        det = detect(inst, "full", trace=trace)
        assert trace["graph_nodes"] == m + 2 * n
        assert trace["graph_edges"] == 2 * nnz + n and trace["group_order"] == det.order


def test_graphs_keep_their_positional_layout(corpus):
    # _translate reads a generator by node position, so the layout is a
    # contract: in the position graphs position (i, j) is node i*n + j, row i
    # node mn + i and column j node mn + m + j; in the search graph row i is
    # node i, column j node m + j (labelled by c_j) and its twin m + n + j
    for inst in corpus + _random_instances(random.Random(30), 40):
        m, n, mn = inst.m, inst.n, inst.m * inst.n
        for g in build_reduced_graph(inst), build_full_graph(inst):
            positions = set(range(mn))
            for j in range(n):
                assert g.edge_labels[mn + m + j].keys() & positions == {i * n + j for i in range(m)}
            for i in range(m):
                assert g.edge_labels[mn + i].keys() & positions == {i * n + j for j in range(n)}
        for mode in "reduced", "full":
            g = build_search_graph(inst, mode)
            assert g.n_nodes == m + n * (1 + (mode == "full"))
            for j, k in product(range(n), repeat=2):
                assert (g.labels[m + j] == g.labels[m + k]) == (inst.c[j] == inst.c[k])
                if mode == "full":
                    assert (g.labels[m + n + j] == g.labels[m + k]) == (-inst.c[j] == inst.c[k])
            assert {g.labels[i] for i in range(m)}.isdisjoint(g.labels[m:])
            for i, row in enumerate(inst.rows):
                assert g.edge_labels[i].keys() & set(range(m, m + n)) == {m + j for j in range(n) if row[j]}


def test_is_automorphism_compares_edge_labels():
    # the path 0 - 1 - 2: reversing it keeps adjacency, and with two edge
    # labels it swaps them
    adj = [{1}, {0, 2}, {1}]
    plain = LabeledGraph([0] * 3, [{1: 0}, {0: 0, 2: 0}, {1: 0}])
    two = LabeledGraph([0] * 3, [{1: 0}, {0: 0, 2: 1}, {1: 1}])
    assert is_automorphism(plain, (2, 1, 0))
    assert is_automorphism(neighbour_graph([0] * 3, adj), (2, 1, 0))
    assert not is_automorphism(two, (2, 1, 0))
    assert is_automorphism(two, (0, 1, 2))
    assert automorphism_group(plain)[1] == 2 and automorphism_group(two) == ([], 1)


def test_htc8_full_search_splits_less_than_half():
    htc8 = gen_hypertruncated_cube(HtcParams(8, 2, Fraction(1, 2)))
    trace, position = {}, {}
    assert detect(htc8, "full", trace=trace).order == 40320
    assert automorphism_group(build_full_graph(htc8), trace=position)[1] == 40320
    # the position graph has one edge label, so its search is unchanged
    assert position == {"refinements": 24, "splits": 2602}
    assert trace["splits"] < position["splits"] / 2


def test_htc9_reduced_position_graph_search_is_unchanged():
    # a position graph has one edge label, of weight 1, so its search makes
    # the same splits as a search by plain neighbour counts
    htc9 = gen_hypertruncated_cube(HtcParams(9, 2, Fraction(1, 2)))
    trace = {}
    assert automorphism_group(build_reduced_graph(htc9), trace)[1] == 362880
    assert trace == {"refinements": 45, "splits": 2246}
