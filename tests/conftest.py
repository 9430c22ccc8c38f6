"""Shared hypothesis strategies for random graphs and arrangements, and
shared reference checks."""

from __future__ import annotations

import itertools

import hypothesis.strategies as st
from hypothesis import settings

from horicert import UnknownVertexError, WeightedMultigraph, contract
from horicert import contraction

settings.register_profile("suite", deadline=None, derandomize=True)
settings.load_profile("suite")


@st.composite
def graphs(draw, min_vertices=1, max_vertices=6, min_weight=-2, max_weight=6, max_mult=3):
    n = draw(st.integers(min_vertices, max_vertices))
    verts = [f"v{i}" for i in range(1, n + 1)]
    weights = {v: draw(st.integers(min_weight, max_weight)) for v in verts}
    edges = []
    for u, v in itertools.combinations(verts, 2):
        m = draw(st.integers(0, max_mult))
        if m:
            edges.append((u, v, m))
    return WeightedMultigraph(weights, edges)


@st.composite
def multipartite_graphs(draw, max_classes=4, max_class_size=3, min_weight=2, max_weight=5, max_mult=3):
    """Completely multipartite graph: constant-0 inside classes, >= 1 across."""
    k = draw(st.integers(2, max_classes))
    sizes = [draw(st.integers(1, max_class_size)) for _ in range(k)]
    parts = []
    idx = 1
    for s in sizes:
        parts.append([f"v{idx + j}" for j in range(s)])
        idx += s
    weights = {v: draw(st.integers(min_weight, max_weight)) for p in parts for v in p}
    edges = []
    for p, q in itertools.combinations(parts, 2):
        for u, v in itertools.product(p, q):
            edges.append((u, v, draw(st.integers(1, max_mult))))
    return WeightedMultigraph(weights, edges)


@st.composite
def certifiable_multipartite_graphs(draw):
    """Multipartite instances meeting the wt >= 2 / rdeg >= 4 preconditions."""
    k = draw(st.integers(2, 5))
    sizes = [draw(st.integers(1, 4)) for _ in range(k)]
    # rdeg(v) = n - |class of v|, so the demand rdeg >= 4 everywhere is
    # exactly n - max(sizes) >= 4; pad with singleton classes until it holds.
    while sum(sizes) - max(sizes) < 4:
        sizes.append(1)
    parts = []
    idx = 1
    for s in sizes:
        parts.append([f"v{idx + j}" for j in range(s)])
        idx += s
    weights = {v: draw(st.integers(2, 5)) for p in parts for v in p}
    edges = []
    for p, q in itertools.combinations(parts, 2):
        for u, v in itertools.product(p, q):
            edges.append((u, v, draw(st.integers(1, 3))))
    return WeightedMultigraph(weights, edges)


def complete_multipartite(parts, weight):
    """Graph with one edge between every cross-part pair, constant weight."""
    part_list = [list(p) for p in parts]
    weights = {v: weight for p in part_list for v in p}
    edges = [(u, v) for p, q in itertools.combinations(part_list, 2) for u in p for v in q]
    return WeightedMultigraph(weights, edges)


def adjacent_pairs(g):
    """Sorted list of adjacent pairs ``(u, v)`` with ``u < v``."""
    return [(u, v) for u, v, _ in g.edge_items()]


def final_graph(cert):
    """The last graph of ``cert.replay()``."""
    *_, g = cert.replay()
    return g


def class_of(part, v):
    """The one class of the partition ``part`` that holds ``v``."""
    [cls] = [c for c in part if v in c]
    return cls


def assert_sorted_layout(g: WeightedMultigraph) -> None:
    """``g`` is laid out as the public constructor lays it out.

    Graphs built internally skip the constructor's sorting, so this checks
    its result directly: vertices in sorted order, one adjacency row per
    vertex in that order, every row symmetric, free of self-loops and zeros
    and iterating in sorted order, and equality (neighbour order included)
    with the same graph rebuilt through the public constructor.
    """
    verts = g.vertices
    assert verts == tuple(sorted(verts))
    assert tuple(g._adj) == verts
    for v in verts:
        nbrs = g.neighbors(v)
        assert list(nbrs) == sorted(nbrs)
        assert v not in nbrs
        assert all(g.multiplicity(x, v) == g.multiplicity(v, x) > 0 for x in nbrs)
    rebuilt = WeightedMultigraph(
        {v: g.weight(v) for v in verts},
        [(u, v, g.multiplicity(u, v)) for u in verts for v in g.neighbors(u) if u < v],
    )
    assert g == rebuilt
    assert all(g.neighbors(v) == rebuilt.neighbors(v) for v in verts)


def reference_verify(cert, require_singleton=True):
    """``verify_certificate`` as a chain of :func:`contract` calls, asking the
    kernel with degrees summed afresh from every intermediate graph."""
    g = cert.initial
    for step in cert.steps:
        v, w = step.pair
        for x in (v, w):
            if x not in g:
                raise UnknownVertexError(x)
        low = {x for x in g.vertices if g.degree(x) < 3}
        bounds = contraction._admissible(
            v, w, g.multiplicity(v, w), g.weight(v), g.weight(w), g.degree(v), g.degree(w), low
        )
        if bounds is None or not bounds[0] <= step.l <= max(bounds[1], bounds[2]):
            return False
        g = contract(g, (v, w), step.merged)
    if require_singleton:
        return g.is_singleton() and g.total_weight() == cert.initial.total_weight()
    return True


def reference_decide(g, memo=None):
    """``decide_contractible`` as a literal search that builds every child
    graph with :func:`contract` and sums each state's degrees afresh; the
    same rules, memo keys, pair order and merged ids, so it must give the
    same certificate and leave the same memo.  Groups are bit masks over
    ``g.vertices``, turned into the search's int key by
    :func:`reference_partition_key`."""
    if g.vertex_count == 0:
        return None
    if g.vertex_count == 1:
        return contraction.ContractionCertificate(g, ())
    if contraction._viability(g) is None:
        return None
    failed = memo if memo is not None else set()
    root = {x: 1 << i for i, x in enumerate(g.vertices)}
    if (g, reference_partition_key(root.values())) in failed:
        return None
    steps = _reference_search(g, failed, g, root, 1)
    return None if steps is None else contraction.ContractionCertificate(g, tuple(steps))


def reference_partition_key(masks):
    """The int that names a partition, given as bit masks over vertex
    indices: for every vertex ``i``, bits ``4i``..``4i + 3`` hold the index
    of the lowest vertex in its group."""
    key = 0
    for mask in masks:
        members = [i for i in range(mask.bit_length()) if mask >> i & 1]
        for i in members:
            key += min(members) * 16**i
    return key


def _reference_search(g, failed, h, groups, name_index):
    deg = {x: h.degree(x) for x in h.vertices}
    k = contraction._fresh_index(h, name_index)
    merged = f"m{k}"
    for u, v, mult in h.edge_items():
        l, hi_uv, hi_vu = contraction._admissible(u, v, mult, h.weight(u), h.weight(v), deg[u], deg[v], ())
        if l <= hi_uv:
            pair = (u, v)
        elif l <= hi_vu:
            pair = (v, u)
        else:
            continue
        if h.vertex_count == 2:
            return [contraction.ContractionStep(pair, l, merged)]
        child = {x: mask for x, mask in groups.items() if x != u and x != v}
        child[merged] = groups[u] | groups[v]
        if (g, reference_partition_key(child.values())) in failed:
            continue
        # The child is judged by the entry rules on the child graph itself,
        # which the recursion then searches.
        child_graph = contract(h, pair, merged)
        if contraction._viability(child_graph) is None:
            continue
        rest = _reference_search(g, failed, child_graph, child, k + 1)
        if rest is not None:
            return [contraction.ContractionStep(pair, l, merged)] + rest
    failed.add((g, reference_partition_key(groups.values())))
    return None


__all__ = [
    "adjacent_pairs",
    "class_of",
    "complete_multipartite",
    "final_graph",
    "graphs",
    "multipartite_graphs",
    "certifiable_multipartite_graphs",
    "assert_sorted_layout",
    "reference_verify",
    "reference_decide",
]
