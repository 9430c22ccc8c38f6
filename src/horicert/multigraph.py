"""Vertex-weighted multigraphs: the combinatorial core of the package.

A graph holds a finite set of string vertex ids, an integer weight per
vertex, and a multiplicity per unordered pair of distinct vertices.  The
multiplicity map replaces an explicit set of parallel edges: every
algorithm here only ever needs the number of edges joining two vertices,
never their identities.  Self-loops are not representable.

Instances are immutable after construction and safe to share between
threads.  All derived operations (contraction, certificates, searches)
live in :mod:`horicert.contraction`, and the named reference graphs are
the fixtures' initial graphs (:func:`horicert.fixtures.builtin`); this
module provides the data type and its structural predicates.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from typing import Iterable, Iterator, Mapping


class GraphError(ValueError):
    """Malformed graph data or misuse of a graph operation."""


class UnknownVertexError(GraphError):
    """A vertex id that is not present in the graph (or in an embedding)."""


class BoundExceededError(GraphError):
    """Input exceeds a configured size bound."""


# The most edges to_dot draws: it writes a line per parallel edge, and a shorthand
# like fn:N=1000000000:a=1:b=3 asks for billions.  100,000 lines (about 1.6 MB)
# are three times the 32,640 of the largest line arrangement, lines:P2:m=256.
MAX_DOT_EDGES = 100_000


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
        # Ids, then weights, then edges in order; an exact str or int skips isinstance.
        for v in weights:
            if type(v) is not str and not isinstance(v, str):
                raise GraphError(f"vertex id must be a string, got {v!r}")
        ids = sorted(weights)
        wt = dict(weights) if list(weights) == ids else {v: weights[v] for v in ids}
        for v, w in wt.items():
            if type(w) is not int and (not isinstance(w, int) or isinstance(w, bool)):
                raise GraphError(f"weight of {v!r} must be an integer, got {w!r}")
        adj: dict[str, dict[str, int]] = {v: {} for v in wt}
        row_of = adj.get
        entry = None
        # New pairs arriving as (u, v) with u < v, in increasing order, fill every row sorted.
        in_order, last_u, last_v = True, "", ""
        try:  # one handler for the whole loop: no per-edge cost
            for entry in edges:
                size = len(entry)
                if size == 3:
                    u, v, mult = entry
                elif size == 2:
                    u, v = entry
                    mult = 1
                else:
                    raise GraphError(f"edge entry must be (u, v) or (u, v, mult), got {entry!r}")
                row_u, row_v = row_of(u), row_of(v)
                if row_u is None or row_v is None:
                    missing = u if row_u is None else v
                    raise UnknownVertexError(f"edge endpoint {missing!r} is not a vertex")
                if u == v:
                    raise GraphError(f"self-loop at {u!r} is not allowed")
                if (type(mult) is not int and (not isinstance(mult, int) or isinstance(mult, bool))) or mult < 0:
                    raise GraphError(f"multiplicity of ({u!r}, {v!r}) must be a non-negative integer")
                if v in row_u:  # rows are symmetric, so u is in row_v too
                    row_u[v] += mult
                    row_v[u] += mult
                elif mult:
                    row_u[v] = row_v[u] = +mult  # an int subclass is stored as a plain int
                    in_order = in_order and (v > last_v if u == last_u else last_u < u < v)
                    last_u, last_v = u, v
        except TypeError as exc:  # an unhashable endpoint, or an entry or edge list of the wrong type
            raise GraphError(f"malformed edge entry {entry!r}: {exc}") from None
        if not in_order:  # sort the rows; a row filled in sorted order is kept as it is
            for v, nbrs in adj.items():
                keys = list(nbrs)
                order = sorted(keys)
                if keys != order:
                    adj[v] = {x: nbrs[x] for x in order}
        self._weights = wt
        self._adj = adj
        self._vertices = tuple(wt)
        self._hash: int | None = None

    @classmethod
    def _from_parts(cls, weights: dict[str, int], adj: dict[str, dict[str, int]]) -> "WeightedMultigraph":
        # Trusted fast path, with no checks and no sorting, for its one
        # caller, ``arrangements.dual_graph``, which builds the theorem
        # path's largest graphs (32,640 edges at the size bound) from parts
        # in sorted order; every other graph goes through the constructor.
        # It takes ownership of both dicts, which the caller must build as
        # the public constructor would: ``weights`` and ``adj`` with the same
        # keys in sorted order, every row symmetric, free of zeros and
        # self-loops, and iterating in sorted order.
        self = cls.__new__(cls)
        self._weights = weights
        self._adj = adj
        self._vertices = tuple(weights)
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

    # A lookup of an unhashable id raises TypeError; such an id is never a
    # vertex, so membership is false and the accessors report it as unknown.

    def __contains__(self, v: str) -> bool:
        try:
            return v in self._weights
        except TypeError:
            return False

    def weight(self, v: str) -> int:
        try:
            return self._weights[v]
        except (KeyError, TypeError):
            raise UnknownVertexError(f"unknown vertex {v!r}") from None

    def _row(self, v: str) -> dict[str, int]:
        try:
            return self._adj[v]
        except (KeyError, TypeError):
            raise UnknownVertexError(f"unknown vertex {v!r}") from None

    def multiplicity(self, u: str, v: str) -> int:
        """Number of edges joining ``u`` and ``v`` (0 when non-adjacent or equal)."""
        nbrs = self._row(u)
        if v not in self:
            raise UnknownVertexError(f"unknown vertex {v!r}")
        return nbrs.get(v, 0)

    def neighbors(self, v: str) -> tuple[str, ...]:
        return tuple(self._row(v))

    def degree(self, v: str) -> int:
        """Number of incident edges, counted with multiplicity."""
        return sum(self._row(v).values())

    def rdeg(self, v: str) -> int:
        """Reduced degree: number of distinct adjacent vertices."""
        return len(self._row(v))

    def edge_items(self) -> Iterator[tuple[str, str, int]]:
        """Iterate ``(u, v, mult)`` with ``u < v`` in sorted order."""
        # Every row iterates in sorted order, so its entries after u are a suffix.
        for u in self._vertices:
            row = self._adj[u]
            keys = list(row)
            for v in keys[bisect_right(keys, u):]:
                yield u, v, row[v]

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
    def from_json_dict(cls, data: Mapping) -> "WeightedMultigraph":
        """Parse the ``{"vertices": [...], "edges": [...]}`` wire format.

        Only unpacks the document: a missing key, an unknown field, a
        ``vertices`` or ``edges`` that is not an array, a value of the wrong
        shape, an unhashable id or a repeated id raises :class:`GraphError`
        here, and the constructor checks ids, weights, endpoints and
        multiplicities as it does for every caller.
        """
        try:
            vertices = data["vertices"]
            edges = data.get("edges", [])
            _check_document(data, "graph", ("vertices", "edges"), vertices=vertices, edges=edges)
            items = [(item["id"], item["wt"]) for item in vertices]
            edge_entries = [(e["u"], e["v"], e["mult"]) for e in edges]
            weights = dict(items)
        except (KeyError, TypeError) as exc:
            raise GraphError(f"malformed graph document: {exc}") from None
        if len(weights) != len(items):
            raise GraphError("duplicate vertex id in graph document")
        return cls(weights, edge_entries)

    def to_dot(self, name: str = "G") -> str:
        """Render as DOT: weight inside the node, id outside, one arc per edge,
        at most ``MAX_DOT_EDGES``; quoted strings escape ``\\`` and ``"``."""
        total = self.total_multiplicity()
        if total > MAX_DOT_EDGES:
            raise BoundExceededError(f"DOT output limited to {MAX_DOT_EDGES} edges, got {total}")
        q = {v: _dot_quote(v) for v in self._vertices}
        lines = [f"graph {_dot_quote(name)} {{", "  node [shape=circle];"]
        lines += [f'  {q[v]} [label="{w}", xlabel={q[v]}];' for v, w in self._weights.items()]
        for u, v, m in self.edge_items():
            lines.extend([f"  {q[u]} -- {q[v]};"] * m)
        lines.append("}")
        return "\n".join(lines) + "\n"


def _dot_quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _check_document(data: Mapping, what: str, known: tuple[str, ...], **arrays: object) -> None:
    """Refuse a parsed document with a field outside ``known``, or with a
    field named in ``arrays`` that holds anything but a list (a JSON array)."""
    for key in data:
        if key not in known:
            raise GraphError(f"malformed {what} document: unknown field {key!r}")
    for key, value in arrays.items():
        if not isinstance(value, list):
            raise GraphError(f"malformed {what} document: {key} must be an array, got {type(value).__name__}")


def multipartite_partition(g: WeightedMultigraph) -> tuple[frozenset[str], ...] | None:
    """Partition ``g`` into mutually non-adjacent classes, or ``None``.

    The classes are the maximal sets of mutually non-adjacent vertices,
    sorted by (size, smallest member).  Returns ``None`` exactly when ``g``
    is not completely multipartite, i.e. when some vertex is non-adjacent
    to two vertices that are adjacent to each other.
    """
    adj = g._adj
    n = len(adj)
    blocks = []
    seen: set[str] = set()
    for v in g.vertices:
        if v in seen:
            continue
        nbrs = adj[v].keys()
        if len(nbrs) == n - 1:
            blocks.append(frozenset((v,)))
            continue
        # Non-adjacency is an equivalence relation iff every vertex not
        # adjacent to v (v included) has exactly v's neighbours.
        block = adj.keys() - nbrs
        for u in block:
            if adj[u].keys() != nbrs:
                return None
        blocks.append(frozenset(block))
        seen |= block
    return tuple(sorted(blocks, key=lambda c: (len(c), min(c))))


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
