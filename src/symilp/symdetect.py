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

All three graphs are laid out by node position, with no node tags: each
builder lists one label key per node and its edges by node number, and
``_graph`` numbers the keys in order of first appearance.

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
    """Labelled nodes and labelled edges: ``edge_labels[v]`` maps each
    neighbour u of v to the label of the edge uv, so its keys are v's
    neighbours and each edge is listed at both ends."""

    __slots__ = ("labels", "edge_labels")

    def __init__(self, labels, edge_labels):
        self.labels = tuple(labels)
        self.edge_labels = tuple(map(dict, edge_labels))

    @property
    def n_nodes(self) -> int:
        return len(self.labels)

    @property
    def n_edges(self) -> int:
        return sum(map(len, self.edge_labels)) // 2


def _graph(keys, edges) -> LabeledGraph:
    """Node v labelled by ``keys[v]`` and, per ``(u, v, key)`` in ``edges``,
    an edge uv labelled by key.  The keys are numbered in order of first
    appearance, nodes before edges."""
    ids = {}
    labels = [ids.setdefault(key, len(ids)) for key in keys]
    adj = [{} for _ in labels]
    for u, v, key in edges:
        adj[u][v] = adj[v][u] = ids.setdefault(key, len(ids))
    return LabeledGraph(labels, adj)


def _position_layout(inst: ILPInstance):
    """The reduced position graph's node keys, its edges as node pairs, and
    its value nodes by key.  Position (i, j) is node i*n + j, row i node
    mn + i and column j node mn + m + j; the values of a, b and c follow,
    each ascending."""
    m, n, rows = inst.m, inst.n, inst.rows
    row0, col0 = m * n, m * n + m
    keys = ["pos"] * row0 + ["row"] * m + ["col"] * n
    keys += [("cA", u) for u in sorted({a for row in rows for a in row[:-1]})]
    keys += [("cb", v) for v in sorted({row[-1] for row in rows})]
    keys += [("cc", w) for w in sorted(set(inst.c))]
    value = {key: v for v, key in enumerate(keys[col0 + n:], col0 + n)}
    edges = []
    for i, row in enumerate(rows):
        edges.append((row0 + i, value["cb", row[-1]]))
        for j, a in enumerate(row[:-1]):
            p = i * n + j
            edges += (p, row0 + i), (p, col0 + j), (p, value["cA", a])
    edges += [(col0 + j, value["cc", w]) for j, w in enumerate(inst.c)]
    return keys, edges, value


def build_reduced_graph(inst: ILPInstance) -> LabeledGraph:
    """mn+m+n+n_A+n_b+n_c nodes, 3mn+m+n edges, n_A+n_b+n_c+3 labels."""
    keys, edges, _ = _position_layout(inst)
    return _graph(keys, ((u, v, None) for u, v in edges))


def build_full_graph(inst: ILPInstance) -> LabeledGraph:
    """Reduced graph plus twins encoding sign flips: after its nodes come
    the n column twins, the twins of the nonzero positions in row-major
    order, then the negated a and c values that are missing."""
    m, n = inst.m, inst.n
    keys, edges, value = _position_layout(inst)
    row0, col0, twin0 = m * n, m * n + m, len(keys)
    keys += ["col"] * n + ["pos"] * sum(1 for row in inst.rows for a in row[:-1] if a)
    negated = [(kind, -x) for kind, x in value if kind != "cb" and x and (kind, -x) not in value]
    value.update((key, v) for v, key in enumerate(negated, len(keys)))
    keys += negated
    hat = twin0 + n  # the next position twin
    for i, row in enumerate(inst.rows):
        for j, a in enumerate(row[:-1]):
            if a:
                edges += (hat, row0 + i), (hat, twin0 + j), (hat, value["cA", -a]), (i * n + j, hat)
                hat += 1
            else:
                edges.append((i * n + j, twin0 + j))  # a zero position is its own twin
    for j, w in enumerate(inst.c):
        edges += (twin0 + j, value["cc", -w]), (twin0 + j, col0 + j)
    return _graph(keys, ((u, v, None) for u, v in edges))


def build_search_graph(inst: ILPInstance, mode: str) -> LabeledGraph:
    """The row/column graph that ``detect`` searches: m + n nodes and one
    edge per nonzero a_ij in ``reduced`` mode; m + 2n nodes and 2 nnz + n
    edges in ``full`` mode, whose column twins carry the sign flips.
    The nodes are the rows, then the columns, then the twins: ``_translate``
    reads a generator by that position."""
    if mode not in ("reduced", "full"):
        raise ValueError("mode must be 'reduced' or 'full'")
    m, n, twins = inst.m, inst.n, mode == "full"
    keys = [("row", row[-1]) for row in inst.rows] + [("col", cj) for cj in inst.c]
    keys += [("col", -cj) for cj in inst.c if twins]
    edges = [(m + j, m + n + j, "twin") for j in range(n) if twins]
    for i, row in enumerate(inst.rows):
        for j, a in enumerate(row[:-1]):
            if a:
                edges.append((i, m + j, a))
                if twins:
                    edges.append((i, m + n + j, -a))
    return _graph(keys, edges)


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
    base = 1 + max(map(len, g.edge_labels), default=0)
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

    # the first path: per depth, the refined colouring, its split records and
    # the colour of its first nontrivial cell (None at the leaf)
    path = []
    rank = {label: i for i, label in enumerate(sorted(set(g.labels)))}
    colors, records = refine([rank[label] for label in g.labels], range(len(rank)))
    while True:
        c = min((c for c, k in Counter(colors).items() if k > 1), default=None)
        path.append((colors, records, c))
        if c is None:
            break
        colors, records = individualize(colors, colors.index(c))

    def find_first(depth, ct, w):
        """First automorphism taking path[depth]'s leaf to a leaf below ct
        with w individualized; matching split records imply equal cell sizes."""
        cs, records, c = path[depth]
        ct, _ = individualize(ct, w, records)
        if ct is None:
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
        colors, _, c = path[depth]
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


def detect(inst: ILPInstance, mode: str, trace: dict | None = None) -> Detection:
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
        gens.append(sp)
    if not gens:
        gens = [SignedPermutation.identity(inst.n)]
    return Detection(GroupSpec(inst.n, tuple(gens)), order)

