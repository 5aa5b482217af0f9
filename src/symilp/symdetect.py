"""Symmetry detection via labeled graph automorphisms.

``detect`` searches the row/column graph (``build_search_graph``): one node
per row, labelled by b_i, one per column, labelled by c_j, and one edge per
nonzero a_ij, labelled by a_ij.  Its automorphisms are the coordinate
permutations that fix the instance, paired with the row permutations they
induce.  In ``full`` mode each column has a twin, labelled by -c_j, joined
to its column by an edge of its own label and to row i by an edge labelled
-a_ij; a column that maps onto a twin is negated, so the automorphisms are
the signed permutations that fix the instance.

The paper's position graphs (``build_reduced_graph``, ``build_full_graph``)
stand for the same groups with one node per matrix position, plus twins
and coefficient nodes.  They are kept as the paper specifies them, and
only the tests search them.

The automorphism engine is an individualization-refinement search that
counts the group order level by level with orbit-stabilizer products.  It
refines by splitter cells (as nauty and Traces do), from the new cell
alone after an individualization, counting neighbours per edge label,
refines the first path once and drops a candidate at its first split
record that differs from the path's.
"""

from collections import Counter, defaultdict, deque
from dataclasses import dataclass
from itertools import chain
from operator import getitem

from .errors import ResultCheckFailed, SearchBudgetExceeded
from .model import ILPInstance
from .symmetry import GroupSpec, SignedPermutation, is_symmetry, orbit

SEARCH_BUDGET = 100000  # refinements one automorphism search may make


class LabeledGraph:
    """Labelled nodes with tags; ``edge_labels[v][u]`` labels the edge uv
    (by default None, one label on every edge)."""

    __slots__ = ("labels", "adj", "tags", "edge_labels")

    def __init__(self, labels, adj, tags, edge_labels=None):
        self.labels = tuple(labels)
        self.adj = tuple(frozenset(a) for a in adj)
        self.tags = tuple(tags)
        if edge_labels is None:
            edge_labels = map(dict.fromkeys, self.adj)
        self.edge_labels = tuple(map(dict, edge_labels))

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
        self.adj.append({})
        self.tags.append(tag)
        self.index[tag] = v
        return v

    def edge(self, u: int, v: int, label_key=None) -> None:
        self.adj[u][v] = self.adj[v][u] = self.label(("edge", label_key))

    def graph(self) -> LabeledGraph:
        return LabeledGraph(self.labels, self.adj, self.tags, self.adj)


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


def build_search_graph(inst: ILPInstance, mode: str) -> LabeledGraph:
    """The row/column graph that ``detect`` searches: m + n nodes and one
    edge per nonzero a_ij in ``reduced`` mode; m + 2n nodes and 2 nnz + n
    edges in ``full`` mode, whose twins ("colhat") carry the sign flips.
    The nodes are the rows, then the columns, then the twins: ``_translate``
    reads a generator by that position."""
    if mode not in ("reduced", "full"):
        raise ValueError("mode must be 'reduced' or 'full'")
    bd = _Builder()
    rows = [bd.node(("row", i), ("row", row[-1])) for i, row in enumerate(inst.rows)]
    cols = [bd.node(("col", j), ("col", cj)) for j, cj in enumerate(inst.c)]
    twins = [bd.node(("colhat", j), ("col", -cj)) for j, cj in enumerate(inst.c) if mode == "full"]
    for col, twin in zip(cols, twins):
        bd.edge(col, twin, "twin")
    for r, row in zip(rows, inst.rows):
        for j, a in enumerate(row[:-1]):
            if a:
                bd.edge(r, cols[j], a)
                if twins:
                    bd.edge(r, twins[j], -a)
    return bd.graph()


def is_automorphism(g: LabeledGraph, mapping) -> bool:
    """Whether the node mapping keeps node labels, edges and edge labels."""
    labels, edge_labels = g.labels, g.edge_labels
    return all(
        labels[w] == labels[v]
        and {mapping[u]: x for u, x in edge_labels[v].items()} == edge_labels[w]
        for v, w in enumerate(mapping)
    )


def _label_weights(g: LabeledGraph):
    """Per node, its (neighbour, weight) pairs.  The r-th edge label (in
    order of first appearance) weighs W**r with W above every degree, so
    the weighted neighbour count of a node holds its count per edge label
    as base-W digits: two nodes get equal sums exactly when all their
    counts agree."""
    base = 1 + max(map(len, g.adj), default=0)
    ranks = dict.fromkeys(x for e in g.edge_labels for x in e.values())
    weight = {x: base**r for r, x in enumerate(ranks)}
    return tuple(tuple((u, weight[x]) for u, x in e.items()) for e in g.edge_labels)


def automorphism_group(g: LabeledGraph, trace: dict | None = None):
    """Generators (node mapping tuples) and exact order of the labeled
    automorphism group.

    The first path (refine, then individualize the first vertex of the
    first nontrivial cell) is refined once.  At each depth, deepest first,
    the other vertices of that cell are refined against the path's split
    records; the first leaf below one that is an automorphism becomes a
    generator, and each depth multiplies the order by its orbit size.
    SEARCH_BUDGET caps refinement calls (SearchBudgetExceeded); ``trace``
    receives ``refinements`` (the calls spent) and ``splits`` (the cells
    split).
    """
    pairs = _label_weights(g)
    n = g.n_nodes
    spent = splits = 0
    budget = SEARCH_BUDGET

    def refine(colors, queue, expect=None):
        """The equitable refinement of colors (ids 0..k-1, equitable towards
        all cells but the splitters in ``queue``), made in place, and its
        split records.  A splitter S splits each cell holding a neighbour of
        S by the weighted count of N(v) & S (``_label_weights``; |N(v) & S|
        with one edge label): cells in colour order, fragments in count
        order, the first keeping the id and the others numbered on from k,
        and queued (all if the cell was queued, else all but the largest).
        So the ids depend on colours and counts only.  A split records
        ``(splitter, cell, ((count, size), ...))``; given records
        ``expect``, the colouring is None at the first split that differs
        from them."""
        nonlocal spent, splits
        spent += 1
        if spent > budget:
            raise SearchBudgetExceeded(f"automorphism search over {budget} refinements")
        cells = [set() for _ in range(max(colors, default=-1) + 1)]
        for v, c in enumerate(colors):
            cells[c].add(v)
        expect = None if expect is None else iter(expect)
        queued = set(queue)
        queue = deque(queue)
        records = []
        while queue and len(cells) < n:  # a discrete colouring splits no further
            s = queue.popleft()
            queued.discard(s)
            count = defaultdict(int)
            for u, weight in chain.from_iterable(map(pairs.__getitem__, cells[s])):
                count[u] += weight
            touched = {}
            for u in count:
                touched.setdefault(colors[u], []).append(u)
            for c in sorted(touched):
                cell, us = cells[c], touched[c]
                if len(cell) == 1:  # cannot split: skip the grouping
                    continue
                frags = {}
                for u in us:
                    frags.setdefault(count[u], []).append(u)
                frags = sorted(frags.items())
                rest = len(cell) - len(us)  # the fragment of count 0
                shape = ((0, rest),) * (rest > 0) + tuple((k, len(f)) for k, f in frags)
                if len(shape) == 1:
                    continue
                record = (s, c, shape)
                if expect is not None and next(expect, None) != record:
                    return None, records
                records.append(record)
                splits += 1
                ids = [c]
                for _, f in frags if rest else frags[1:]:
                    cell.difference_update(f)
                    for v in f:
                        colors[v] = len(cells)
                    ids.append(len(cells))
                    cells.append(set(f))
                sizes = [size for _, size in shape]
                largest = -1 if c in queued else sizes.index(max(sizes))
                for i, d in enumerate(ids):
                    if i != largest and d not in queued:
                        queue.append(d)
                        queued.add(d)
        if expect is not None and next(expect, None) is not None:
            return None, records
        return colors, records

    def individualize(colors, v, expect=None):
        """Give v a cell of its own and refine from that cell."""
        out = list(colors)
        out[v] = k = max(colors) + 1
        return refine(out, [k], expect)

    def cell(colors, c):
        return [v for v, cv in enumerate(colors) if cv == c]

    # the first path: per depth, the refined colouring, its split records, its
    # cell sizes and the colour of its first nontrivial cell (None at the leaf)
    path = []
    rank = {label: i for i, label in enumerate(sorted(set(g.labels)))}
    colors, records = refine([rank[label] for label in g.labels], range(len(rank)))
    while True:
        sizes = Counter(colors)
        c = min((c for c, k in sizes.items() if k > 1), default=None)
        path.append((colors, records, sizes, c))
        if c is None:
            break
        colors, records = individualize(colors, colors.index(c))

    def find_first(depth, ct, w):
        """First automorphism taking path[depth]'s leaf to a leaf below ct
        with w individualized."""
        cs, records, sizes, c = path[depth]
        ct, _ = individualize(ct, w, records)
        if ct is None or Counter(ct) != sizes:
            return None
        if c is None:
            where = {cv: v for v, cv in enumerate(ct)}
            m = tuple(where[cv] for cv in cs)
            return m if is_automorphism(g, m) else None
        for u in cell(ct, c):
            m = find_first(depth + 1, ct, u)
            if m is not None:
                return m
        return None

    gens = []
    order = 1
    for depth in range(len(path) - 2, -1, -1):
        colors, _, _, c = path[depth]
        first, *rest = cell(colors, c)
        reached = {first}
        for w in rest:
            if w in reached:
                continue
            m = find_first(depth + 1, colors, w)
            if m is not None:
                gens.append(m)
                reached = orbit(reached, gens, getitem)
        order *= len(reached)
    if trace is not None:
        trace.update(refinements=spent, splits=splits)
    return gens, order


@dataclass(frozen=True)
class Detection:
    group: GroupSpec
    order: int


def _translate(inst: ILPInstance, mapping: tuple):
    """The signed permutation of a ``build_search_graph`` automorphism,
    read by position: column j is node m + j and its twin node m + n + j."""
    m, n = inst.m, inst.n
    twins = len(mapping) > m + n
    image = []
    for j in range(n):
        w = mapping[m + j] - m
        if twins and mapping[m + n + j] - m != (w + n) % (2 * n):
            raise ResultCheckFailed("graph automorphism violates twin coherence")
        image.append(w + 1 if w < n else n - w - 1)
    return SignedPermutation(image)


def detect(inst: ILPInstance, mode: str = "full", trace: dict | None = None) -> Detection:
    """Detect instance symmetries by a search of the row/column graph:
    coordinate permutations in ``reduced`` mode, signed ones in ``full``.

    Raises SearchBudgetExceeded when the automorphism search spends
    SEARCH_BUDGET.  ``trace`` receives the search's ``refinements`` and
    ``splits``, the searched graph's ``graph_nodes`` and ``graph_edges``,
    and the ``group_order``.
    """
    graph = build_search_graph(inst, mode)
    mappings, order = automorphism_group(graph, trace=trace)
    if trace is not None:
        trace.update(graph_nodes=graph.n_nodes, graph_edges=graph.n_edges, group_order=order)
    gens = []
    for mapping in mappings:
        sp = _translate(inst, mapping)
        if not is_symmetry(inst, sp):
            raise ResultCheckFailed(f"graph automorphism {sp.image} is not an ILP symmetry")
        if sp != SignedPermutation.identity(inst.n):
            gens.append(sp)
    if not gens:
        gens = [SignedPermutation.identity(inst.n)]
    return Detection(GroupSpec(inst.n, tuple(gens)), order)

