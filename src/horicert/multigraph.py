"""Vertex-weighted multigraphs: the combinatorial core of the package.

A graph holds a finite set of string vertex ids, an integer weight per
vertex, and a multiplicity per unordered pair of distinct vertices.  The
multiplicity map replaces an explicit set of parallel edges: every
algorithm here only ever needs the number of edges joining two vertices,
never their identities.  Self-loops are not representable.

Instances are immutable after construction and safe to share between
threads.  All derived operations (contraction, certificates, searches)
live in :mod:`horicert.contraction`; this module provides the data type,
structural predicates, canonical forms and the named reference graphs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

DEFAULT_MAX_VERTICES = 12


class GraphError(ValueError):
    """Malformed graph data or misuse of a graph operation."""


class UnknownVertexError(GraphError):
    """A vertex id that is not present in the graph (or in an embedding)."""


class BoundExceededError(GraphError):
    """Input exceeds a configured size bound."""


class WeightedMultigraph:
    """Immutable multigraph with integer vertex weights.

    ``weights`` maps vertex id to an integer weight.  Negative weights are
    allowed; operations that require positivity state it explicitly.
    ``edges`` is an iterable of ``(u, v)`` pairs (one edge each) or
    ``(u, v, mult)`` triples; entries for the same pair accumulate and zero
    multiplicities are dropped.
    """

    __slots__ = ("_weights", "_adj", "_vertices", "_hash")

    def __init__(self, weights: Mapping[str, int], edges: Iterable[tuple] = ()):
        wt: dict[str, int] = {}
        for v in sorted(weights):
            w = weights[v]
            if not isinstance(w, int) or isinstance(w, bool):
                raise GraphError(f"weight of {v!r} must be an integer, got {w!r}")
            wt[str(v)] = w
        adj: dict[str, dict[str, int]] = {v: {} for v in wt}
        for entry in edges:
            if len(entry) == 2:
                u, v = entry
                mult = 1
            elif len(entry) == 3:
                u, v, mult = entry
            else:
                raise GraphError(f"edge entry must be (u, v) or (u, v, mult), got {entry!r}")
            if u not in wt or v not in wt:
                missing = u if u not in wt else v
                raise UnknownVertexError(f"edge endpoint {missing!r} is not a vertex")
            if u == v:
                raise GraphError(f"self-loop at {u!r} is not allowed")
            if not isinstance(mult, int) or isinstance(mult, bool) or mult < 0:
                raise GraphError(f"multiplicity of ({u!r}, {v!r}) must be a non-negative integer")
            if mult == 0:
                continue
            adj[u][v] = adj[u].get(v, 0) + mult
            adj[v][u] = adj[v].get(u, 0) + mult
        self._weights = wt
        self._adj = {v: dict(sorted(nbrs.items())) for v, nbrs in adj.items()}
        self._vertices = tuple(wt)
        self._hash: int | None = None

    @classmethod
    def _from_parts(cls, weights: dict[str, int], adj: dict[str, dict[str, int]]) -> "WeightedMultigraph":
        # Trusted fast path for internal construction; takes ownership of both
        # dicts and re-sorts them so iteration order stays deterministic.
        self = cls.__new__(cls)
        self._weights = dict(sorted(weights.items()))
        self._adj = {v: dict(sorted(adj[v].items())) for v in self._weights}
        self._vertices = tuple(self._weights)
        self._hash = None
        return self

    # ------------------------------------------------------------------ access

    @property
    def vertices(self) -> tuple[str, ...]:
        """Vertex ids in sorted order."""
        return self._vertices

    @property
    def vertex_count(self) -> int:
        return len(self._weights)

    def __contains__(self, v: str) -> bool:
        return v in self._weights

    def weight(self, v: str) -> int:
        try:
            return self._weights[v]
        except KeyError:
            raise UnknownVertexError(f"unknown vertex {v!r}") from None

    def multiplicity(self, u: str, v: str) -> int:
        """Number of edges joining ``u`` and ``v`` (0 when non-adjacent or equal)."""
        try:
            nbrs = self._adj[u]
        except KeyError:
            raise UnknownVertexError(f"unknown vertex {u!r}") from None
        if v not in self._weights:
            raise UnknownVertexError(f"unknown vertex {v!r}")
        return nbrs.get(v, 0)

    def neighbors(self, v: str) -> tuple[str, ...]:
        try:
            return tuple(self._adj[v])
        except KeyError:
            raise UnknownVertexError(f"unknown vertex {v!r}") from None

    def degree(self, v: str) -> int:
        """Number of incident edges, counted with multiplicity."""
        try:
            return sum(self._adj[v].values())
        except KeyError:
            raise UnknownVertexError(f"unknown vertex {v!r}") from None

    def rdeg(self, v: str) -> int:
        """Reduced degree: number of distinct adjacent vertices."""
        try:
            return len(self._adj[v])
        except KeyError:
            raise UnknownVertexError(f"unknown vertex {v!r}") from None

    def adjacent_pairs(self) -> list[tuple[str, str]]:
        """Sorted list of adjacent pairs ``(u, v)`` with ``u < v``."""
        return [(u, v) for u in self._vertices for v in self._adj[u] if u < v]

    def edge_items(self) -> Iterator[tuple[str, str, int]]:
        """Iterate ``(u, v, mult)`` with ``u < v`` in sorted order."""
        for u in self._vertices:
            for v, m in self._adj[u].items():
                if u < v:
                    yield u, v, m

    def total_weight(self) -> int:
        return sum(self._weights.values())

    def total_multiplicity(self) -> int:
        return sum(m for _, _, m in self.edge_items())

    def is_singleton(self) -> bool:
        return len(self._weights) == 1

    # ------------------------------------------------------------------ equality

    def _key(self) -> tuple:
        return (
            tuple(self._weights.items()),
            tuple(self.edge_items()),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeightedMultigraph):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self._key())
        return self._hash

    def __repr__(self) -> str:
        return (
            f"WeightedMultigraph({len(self._weights)} vertices, "
            f"{self.total_multiplicity()} edges)"
        )

    # ------------------------------------------------------------------ formats

    def to_json_dict(self) -> dict:
        return {
            "vertices": [{"id": v, "wt": self._weights[v]} for v in self._vertices],
            "edges": [{"u": u, "v": v, "mult": m} for u, v, m in self.edge_items()],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping, require_positive_weights: bool = False) -> "WeightedMultigraph":
        """Parse the ``{"vertices": [...], "edges": [...]}`` wire format.

        ``require_positive_weights`` rejects weights < 1 at parse time; off by
        default because the graph model itself permits arbitrary integers.
        """
        try:
            vertices = data["vertices"]
            edges = data.get("edges", [])
            items = [(item["id"], item["wt"]) for item in vertices]
            edge_entries = [(e["u"], e["v"], e["mult"]) for e in edges]
        except (KeyError, TypeError) as exc:
            raise GraphError(f"malformed graph document: {exc}") from None
        for v, _ in items:
            if not isinstance(v, str):
                raise GraphError(f"malformed graph document: vertex id must be a string, got {v!r}")
        for u, v, _ in edge_entries:
            for x in (u, v):
                if not isinstance(x, str):
                    raise GraphError(f"malformed graph document: edge endpoint must be a string, got {x!r}")
        weights = dict(items)
        if len(weights) != len(items):
            raise GraphError("duplicate vertex id in graph document")
        if require_positive_weights:
            for v, w in weights.items():
                if w < 1:
                    raise GraphError(f"vertex {v!r} has non-positive weight {w}")
        return cls(weights, edge_entries)

    def to_dot(self, name: str = "G") -> str:
        """Render as DOT: weight inside the node, id outside, one arc per edge."""
        lines = [f'graph "{name}" {{', "  node [shape=circle];"]
        for v in self._vertices:
            lines.append(f'  "{v}" [label="{self._weights[v]}", xlabel="{v}"];')
        for u, v, m in self.edge_items():
            lines.extend([f'  "{u}" -- "{v}";'] * m)
        lines.append("}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Partition:
    """Partition of the vertex set of a completely multipartite graph.

    Classes are the maximal sets of mutually non-adjacent vertices, stored
    sorted by (size, smallest member).
    """

    classes: tuple[frozenset[str], ...]

    def sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.classes)

    def class_of(self, v: str) -> frozenset[str]:
        for c in self.classes:
            if v in c:
                return c
        raise UnknownVertexError(f"unknown vertex {v!r}")


def multipartite_partition(g: WeightedMultigraph) -> Partition | None:
    """Partition ``g`` into mutually non-adjacent classes, or ``None``.

    Returns ``None`` exactly when ``g`` is not completely multipartite,
    i.e. when some vertex is non-adjacent to two vertices that are
    adjacent to each other.
    """
    blocks: dict[frozenset[str], None] = {}
    seen: set[str] = set()
    for v in g.vertices:
        if v in seen:
            continue
        nbrs = set(g.neighbors(v))
        block = frozenset(u for u in g.vertices if u == v or u not in nbrs)
        # Non-adjacency is an equivalence relation iff every member of the
        # block has exactly the complement of the block as neighbours.
        complement = set(g.vertices) - block
        for u in block:
            if set(g.neighbors(u)) != complement:
                return None
        blocks[block] = None
        seen |= block
    classes = sorted(blocks, key=lambda c: (len(c), min(c)))
    return Partition(tuple(classes))


def find_forbidden_triple(g: WeightedMultigraph) -> tuple[str, str, str] | None:
    """Witness of non-multipartiteness: ``(v1, v2, v3)`` with ``v1`` adjacent
    to neither ``v2`` nor ``v3`` while ``v2`` and ``v3`` are adjacent."""
    verts = g.vertices
    for v1 in verts:
        nbrs = set(g.neighbors(v1))
        non = [u for u in verts if u != v1 and u not in nbrs]
        for v2, v3 in itertools.combinations(non, 2):
            if g.multiplicity(v2, v3) >= 1:
                return (v1, v2, v3)
    return None


def is_spanning_submultigraph(
    h: WeightedMultigraph,
    g: WeightedMultigraph,
    embedding: Mapping[str, str],
) -> bool:
    """True iff ``embedding`` exhibits ``h`` as a spanning submultigraph of ``g``.

    The embedding must send the vertices of ``h`` bijectively onto the
    vertices of ``g`` with every weight and every pair multiplicity of
    ``h`` bounded by its image.  Unknown ids raise; a merely injective,
    non-surjective embedding returns ``False``.
    """
    targets: set[str] = set()
    for v in h.vertices:
        if v not in embedding:
            raise UnknownVertexError(f"embedding is missing vertex {v!r}")
        t = embedding[v]
        if t not in g:
            raise UnknownVertexError(f"embedding target {t!r} is not a vertex of the host")
        if t in targets:
            raise GraphError(f"embedding is not injective at {t!r}")
        targets.add(t)
    if len(targets) != g.vertex_count:
        return False
    for v in h.vertices:
        if h.weight(v) > g.weight(embedding[v]):
            return False
    for u, v, m in h.edge_items():
        if m > g.multiplicity(embedding[u], embedding[v]):
            return False
    return True


# ---------------------------------------------------------------------- canon


def _refined_colors(g: WeightedMultigraph) -> dict[str, int]:
    """Stable colouring by iterated (weight, degree, neighbour-signature)."""
    verts = g.vertices
    sig = {v: (g.weight(v), g.degree(v), g.rdeg(v)) for v in verts}
    order = {s: i for i, s in enumerate(sorted(set(sig.values())))}
    color = {v: order[sig[v]] for v in verts}
    while True:
        sig2 = {
            v: (color[v], tuple(sorted((g.multiplicity(v, u), color[u]) for u in g.neighbors(v))))
            for v in verts
        }
        order2 = {s: i for i, s in enumerate(sorted(set(sig2.values())))}
        color2 = {v: order2[sig2[v]] for v in verts}
        if len(order2) == len(set(color.values())):
            return color2
        color = color2


def canonical_form(g: WeightedMultigraph, max_vertices: int = DEFAULT_MAX_VERTICES) -> tuple:
    """Isomorphism-invariant key for ``g``.

    Two graphs receive equal keys iff some vertex bijection preserves
    weights and all pair multiplicities.  Colour refinement first, then a
    lexicographically minimal row encoding searched over the refined
    classes with branch-and-bound pruning.
    """
    n = g.vertex_count
    if n > max_vertices:
        raise BoundExceededError(f"canonical form limited to {max_vertices} vertices, got {n}")
    if n == 0:
        return (0, ())
    color = _refined_colors(g)
    blocks = [
        sorted(v for v in g.vertices if color[v] == c)
        for c in sorted(set(color.values()))
    ]
    mult = g.multiplicity
    rows: list[tuple] = []
    # Each branch is a tuple of already-placed vertices; all active branches
    # share the same (minimal) row prefix by construction.
    branches: list[tuple[str, ...]] = [()]
    all_verts = set(g.vertices)
    for block in blocks:
        for _ in block:
            best_row: tuple | None = None
            extended: list[tuple[str, ...]] = []
            for perm in branches:
                used = set(perm)
                for u in block:
                    if u in used:
                        continue
                    row = (g.weight(u),) + tuple(mult(u, p) for p in perm)
                    if best_row is None or row < best_row:
                        best_row = row
                        extended = [perm + (u,)]
                    elif row == best_row:
                        extended.append(perm + (u,))
            rows.append(best_row)  # type: ignore[arg-type]
            # Two branches with the same remaining set and the same column
            # pattern of every remaining vertex have identical futures.
            dedup: dict[tuple, tuple[str, ...]] = {}
            for perm in extended:
                remaining = all_verts - set(perm)
                key = tuple(sorted((u, tuple(mult(u, p) for p in perm)) for u in remaining))
                dedup.setdefault(key, perm)
            branches = list(dedup.values())
    return (n, tuple(rows))


# ---------------------------------------------------------------------- builtins


def complete_multipartite(parts: Iterable[Iterable[str]], weight: int) -> WeightedMultigraph:
    """Graph with one edge between every cross-part pair, constant weight."""
    part_list = [list(p) for p in parts]
    weights = {v: weight for p in part_list for v in p}
    edges = [
        (u, v)
        for p, q in itertools.combinations(part_list, 2)
        for u in p
        for v in q
    ]
    return WeightedMultigraph(weights, edges)


BUILTIN_NAMES = ("K1", "K2", "K3", "K4", "example-G")


def builtin(name: str) -> WeightedMultigraph:
    """Named reference graphs used throughout the test corpus.

    ``K1``..``K4`` are the four weight-2 seed graphs of the multipartite
    contraction procedure (complete on 5; tripartite 2+2+2; tripartite
    1+3+3; bipartite 4+4).  ``example-G`` is the weight-3 triangle with
    doubled edges used to illustrate a single admissible contraction.
    """
    if name == "K1":
        return complete_multipartite([[f"v{i}"] for i in range(1, 6)], 2)
    if name == "K2":
        return complete_multipartite([["v1", "v4"], ["v2", "v5"], ["v3", "v6"]], 2)
    if name == "K3":
        return complete_multipartite([["v1"], ["v2", "v4", "v6"], ["v3", "v5", "v7"]], 2)
    if name == "K4":
        return complete_multipartite([["v1", "v3", "v5", "v7"], ["v2", "v4", "v6", "v8"]], 2)
    if name == "example-G":
        return WeightedMultigraph(
            {"v1": 3, "v2": 3, "v3": 3},
            [("v1", "v2", 2), ("v1", "v3", 2), ("v2", "v3", 2)],
        )
    raise GraphError(f"unknown builtin graph {name!r}; choose one of {', '.join(BUILTIN_NAMES)}")
