"""Symmetry detection via labeled graph automorphisms.

The reduced ILP graph has one node per matrix position, row, column and
distinct coefficient of A, b, c; its labeled automorphisms are exactly the
coordinate-permutation symmetries of the instance.  The full graph doubles
columns and nonzero positions with "twin" nodes wired to negated
coefficients, which extends the correspondence to all signed permutations.
Zero positions act as their own twins (negating zero changes nothing), so a
column node and its twin always have equal degree.

The automorphism engine is a color-refinement / individualization search
that counts the group order level by level with orbit-stabilizer products.
"""

from dataclasses import dataclass
from itertools import permutations, product
from operator import getitem

from .errors import ResultCheckFailed, SearchBudgetExceeded
from .model import ILPInstance
from .symmetry import GroupSpec, SignedPermutation, is_symmetry, orbit


class LabeledGraph:
    __slots__ = ("labels", "adj", "tags")

    def __init__(self, labels, adj, tags):
        self.labels = tuple(labels)
        self.adj = tuple(frozenset(a) for a in adj)
        self.tags = tuple(tags)

    @property
    def n_nodes(self) -> int:
        return len(self.labels)

    @property
    def n_edges(self) -> int:
        return sum(len(a) for a in self.adj) // 2

    @property
    def n_labels(self) -> int:
        return len(set(self.labels))


class _Builder:
    def __init__(self):
        self.labels = []
        self.adj = []
        self.tags = []
        self.index = {}
        self._label_ids = {}

    def label(self, key) -> int:
        return self._label_ids.setdefault(key, len(self._label_ids))

    def node(self, tag, label_key) -> int:
        v = len(self.labels)
        self.labels.append(self.label(label_key))
        self.adj.append(set())
        self.tags.append(tag)
        self.index[tag] = v
        return v

    def edge(self, u: int, v: int) -> None:
        if u == v:
            return
        self.adj[u].add(v)
        self.adj[v].add(u)

    def graph(self) -> LabeledGraph:
        return LabeledGraph(self.labels, self.adj, self.tags)


def _base_builder(inst: ILPInstance) -> _Builder:
    m, n = inst.m, inst.n
    bd = _Builder()
    for i in range(m):
        for j in range(n):
            bd.node(("pos", i, j), "pos")
    for i in range(m):
        bd.node(("row", i), "row")
    for j in range(n):
        bd.node(("col", j), "col")
    a_values = sorted({row[j] for row in inst.rows for j in range(n)})
    b_values = sorted({row[-1] for row in inst.rows})
    c_values = sorted(set(inst.c))
    for u in a_values:
        bd.node(("cA", u), ("cA", u))
    for v in b_values:
        bd.node(("cb", v), ("cb", v))
    for w in c_values:
        bd.node(("cc", w), ("cc", w))
    for i, row in enumerate(inst.rows):
        ri = bd.index[("row", i)]
        bd.edge(ri, bd.index[("cb", row[-1])])
        for j in range(n):
            p = bd.index[("pos", i, j)]
            bd.edge(p, ri)
            bd.edge(p, bd.index[("col", j)])
            bd.edge(p, bd.index[("cA", row[j])])
    for j in range(n):
        bd.edge(bd.index[("col", j)], bd.index[("cc", inst.c[j])])
    return bd


def build_reduced_graph(inst: ILPInstance) -> LabeledGraph:
    """mn+m+n+n_A+n_b+n_c nodes, 3mn+m+n edges, n_A+n_b+n_c+3 labels."""
    return _base_builder(inst).graph()


def build_full_graph(inst: ILPInstance) -> LabeledGraph:
    """Reduced graph plus column/position twins encoding sign flips."""
    m, n = inst.m, inst.n
    bd = _base_builder(inst)
    a_values = {row[j] for row in inst.rows for j in range(n)}
    c_values = set(inst.c)
    for j in range(n):
        bd.node(("colhat", j), "col")
    for i, row in enumerate(inst.rows):
        for j in range(n):
            if row[j]:
                bd.node(("poshat", i, j), "pos")
    for u in sorted(a_values):
        if u and -u not in a_values:
            bd.node(("cA", -u), ("cA", -u))
    for w in sorted(c_values):
        if w and -w not in c_values:
            bd.node(("cc", -w), ("cc", -w))
    for i, row in enumerate(inst.rows):
        ri = bd.index[("row", i)]
        for j in range(n):
            p = bd.index[("pos", i, j)]
            ch = bd.index[("colhat", j)]
            if row[j]:
                ph = bd.index[("poshat", i, j)]
                bd.edge(ph, ri)
                bd.edge(ph, ch)
                bd.edge(ph, bd.index[("cA", -row[j])])
                bd.edge(p, ph)
            else:
                bd.edge(p, ch)  # a zero position is its own twin
    for j in range(n):
        ch = bd.index[("colhat", j)]
        bd.edge(ch, bd.index[("cc", -inst.c[j])])
        bd.edge(ch, bd.index[("col", j)])
    return bd.graph()


def _cells(colors):
    out = {}
    for v, c in enumerate(colors):
        out.setdefault(c, []).append(v)
    return out


def automorphism_group(g: LabeledGraph, budget: int = 100000):
    """Generators (node mapping tuples) and exact order of the labeled
    automorphism group.

    Refinement-and-individualization backtracking; at each level the first
    nontrivial cell contributes |orbit| * |stabilizer| to the order.  The
    budget caps refinement calls and raising SearchBudgetExceeded tells the
    caller to fall back to brute force.
    """
    adj = g.adj
    n = g.n_nodes
    spent = 0

    def sigs(colors):
        out = []
        for v in range(n):
            cnt = {}
            for u in adj[v]:
                c = colors[u]
                cnt[c] = cnt.get(c, 0) + 1
            out.append((colors[v], tuple(sorted(cnt.items()))))
        return out

    def charge():
        nonlocal spent
        spent += 1
        if spent > budget:
            raise SearchBudgetExceeded(f"automorphism search over {budget} refinements")

    def refine_one(colors):
        charge()
        k = len(set(colors))
        while True:
            ss = sigs(colors)
            order = {s: i for i, s in enumerate(sorted(set(ss)))}
            colors = [order[s] for s in ss]
            if len(order) == k:
                return colors
            k = len(order)

    def refine_pair(cs, ct):
        charge()
        k = len(set(cs))
        while True:
            ss, st = sigs(cs), sigs(ct)
            if sorted(ss) != sorted(st):
                return None
            order = {s: i for i, s in enumerate(sorted(set(ss)))}
            cs = [order[s] for s in ss]
            ct = [order[s] for s in st]
            if len(order) == k:
                return cs, ct
            k = len(order)

    def individualized(colors, v):
        out = list(colors)
        out[v] = max(colors) + 1
        return out

    def first_nontrivial(colors):
        cells = _cells(colors)
        for c in sorted(cells):
            if len(cells[c]) > 1:
                return c, sorted(cells[c])
        return None, None

    def is_automorphism(mapping) -> bool:
        for v in range(n):
            if g.labels[mapping[v]] != g.labels[v]:
                return False
            if {mapping[u] for u in adj[v]} != adj[mapping[v]]:
                return False
        return True

    def extract(cs, ct):
        where = {}
        for v, c in enumerate(ct):
            where[c] = v
        return tuple(where[c] for c in cs)

    def find_first(cs, ct):
        r = refine_pair(cs, ct)
        if r is None:
            return None
        cs, ct = r
        c, cell = first_nontrivial(cs)
        if c is None:
            m = extract(cs, ct)
            return m if is_automorphism(m) else None
        v = cell[0]
        tcells = _cells(ct)
        for w in sorted(tcells[c]):
            m = find_first(individualized(cs, v), individualized(ct, w))
            if m is not None:
                return m
        return None

    def level(colors):
        colors = refine_one(colors)
        c, cell = first_nontrivial(colors)
        if c is None:
            return [], 1
        v = cell[0]
        gens, stab_order = level(individualized(colors, v))
        gens = list(gens)
        reached = {v}
        for w in cell[1:]:
            if w in reached:
                continue
            m = find_first(individualized(colors, v), individualized(colors, w))
            if m is not None:
                gens.append(m)
                reached = orbit(reached, gens, getitem)
        return gens, len(reached) * stab_order

    return level(list(g.labels))


@dataclass(frozen=True)
class Detection:
    group: GroupSpec
    order: int
    mode: str
    graph: LabeledGraph
    by_fallback: bool = False


def _translate(inst: ILPInstance, g: LabeledGraph, mapping: tuple):
    n = inst.n
    tags = g.tags
    col_at = {}
    for v, tag in enumerate(tags):
        if tag[0] in ("col", "colhat"):
            col_at[tag] = v
    image = [0] * n
    for j in range(n):
        w = mapping[col_at[("col", j)]]
        tag = tags[w]
        if tag[0] == "col":
            image[j] = tag[1] + 1
            partner = ("colhat", tag[1])
        else:
            image[j] = -(tag[1] + 1)
            partner = ("col", tag[1])
        if ("colhat", j) in col_at:
            if tags[mapping[col_at[("colhat", j)]]] != partner:
                raise ResultCheckFailed("graph automorphism violates twin coherence")
    return SignedPermutation(image)


def _brute_force_group(inst: ILPInstance, mode: str):
    n = inst.n
    found = []
    signs_iter = [(1,) * n] if mode == "reduced" else product((1, -1), repeat=n)
    signs = list(signs_iter)
    for perm in permutations(range(1, n + 1)):
        for sg in signs:
            cand = SignedPermutation(tuple(s * p for s, p in zip(sg, perm)))
            if is_symmetry(inst, cand):
                found.append(cand)
    return found


def detect(
    inst: ILPInstance,
    mode: str = "full",
    budget: int = 100000,
    fallback_n: int = 5,
) -> Detection:
    """Detect instance symmetries through the chosen ILP graph."""
    if mode not in ("reduced", "full"):
        raise ValueError("mode must be 'reduced' or 'full'")
    graph = build_reduced_graph(inst) if mode == "reduced" else build_full_graph(inst)
    try:
        mappings, order = automorphism_group(graph, budget=budget)
    except SearchBudgetExceeded:
        if inst.n > fallback_n:
            raise
        elements = _brute_force_group(inst, mode)
        gens = tuple(e for e in elements if e != SignedPermutation.identity(inst.n))
        if not gens:
            gens = (SignedPermutation.identity(inst.n),)
        return Detection(
            GroupSpec(inst.n, gens), len(elements), mode, graph, by_fallback=True
        )
    gens = []
    for mapping in mappings:
        sp = _translate(inst, graph, mapping)
        if not is_symmetry(inst, sp):
            raise ResultCheckFailed(f"graph automorphism {sp.image} is not an ILP symmetry")
        if sp != SignedPermutation.identity(inst.n):
            gens.append(sp)
    if not gens:
        gens = [SignedPermutation.identity(inst.n)]
    return Detection(GroupSpec(inst.n, tuple(gens)), order, mode, graph)

