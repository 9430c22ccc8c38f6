"""Admissible contractions of vertex-weighted multigraphs.

A contraction merges an adjacent pair of vertices: the merged vertex takes
the sum of the two weights, multiplicities to every bystander add up, and
the edges inside the pair disappear.  A contraction is *admissible* for a
non-negative integer ``l`` below the pair multiplicity when

* every bystander vertex has degree at least 3,
* the pair can be ordered ``(v, w)`` with ``wt(v) >= l + 1`` and
  ``wt(w) >= l + 2``, and
* both endpoints keep degree at least 3 after discounting the pair edges
  and adding ``l`` back (``deg - mult + l >= 3``).

A graph is admissibly contractible when some sequence of admissible
contractions reduces it to a single vertex; a
:class:`ContractionCertificate` is a replayable witness of such a
sequence.  This module provides the single-step arithmetic, certificate
verification, an exhaustive decision search, a brute-force test oracle,
and the constructive procedure that certifies every completely
multipartite graph whose vertices all have weight >= 2 and at least four
distinct neighbours.

The search stops at any state with a vertex that can never be merged
(degree <= 3 or weight <= 0, see :func:`decide_contractible`) and keys its
failure memo by the partition of the input's vertices into merged groups,
which fixes the state exactly and costs no canonical form.

The rule above is encoded once, in ``_admissible``, for the search,
verification, absorption and :func:`feasible_l_range`.  The oracle is a
second, literal encoding that shares no code with it or with
:func:`contract`, so it can catch a fault in either.  The seed
certificates ``K1``..``K4`` live only as JSON under ``fixtures/``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .multigraph import (
    DEFAULT_MAX_VERTICES,
    BoundExceededError,
    GraphError,
    Partition,
    UnknownVertexError,
    WeightedMultigraph,
    canonical_form,  # noqa: F401  (unused here; bench/worker.py traces it under this name)
    find_forbidden_triple,
    is_spanning_submultigraph,
    multipartite_partition,
)


class NotAdjacentError(GraphError):
    """Contraction requested on a non-adjacent (or identical) pair."""


class NotSpanningError(GraphError):
    """Certificate lift requested along a non-spanning embedding."""


class PreconditionError(GraphError):
    """A structural precondition failed; ``witness`` names the offender."""

    def __init__(self, message: str, witness: object = None):
        super().__init__(message)
        self.witness = witness


@dataclass(frozen=True)
class ContractionStep:
    """One merge: ``pair`` in the ordering that satisfied the weight bounds,
    the parameter ``l``, and the id given to the merged vertex."""

    pair: tuple[str, str]
    l: int
    merged: str

    def to_json_dict(self) -> dict:
        return {"pair": list(self.pair), "l": self.l, "merged": self.merged}

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "ContractionStep":
        try:
            pair, l, merged = data["pair"], data["l"], data["merged"]
        except (KeyError, TypeError) as exc:
            raise GraphError(f"malformed step document: {exc}") from None
        if not isinstance(pair, (list, tuple)) or len(pair) != 2 or not all(isinstance(x, str) for x in pair):
            raise GraphError(f"malformed step document: pair must be two vertex ids, got {pair!r}")
        if not isinstance(l, int) or isinstance(l, bool):
            raise GraphError(f"malformed step document: l must be an integer, got {l!r}")
        if not isinstance(merged, str):
            raise GraphError(f"malformed step document: merged must be a vertex id, got {merged!r}")
        return cls(tuple(pair), l, merged)


@dataclass(frozen=True)
class ContractionCertificate:
    """Replayable witness that ``initial`` contracts down to a singleton."""

    initial: WeightedMultigraph
    steps: tuple[ContractionStep, ...]

    def __len__(self) -> int:
        return len(self.steps)

    def replay(self) -> list[WeightedMultigraph]:
        """All intermediate graphs, starting at ``initial``."""
        graphs = [self.initial]
        for step in self.steps:
            graphs.append(contract(graphs[-1], step.pair, step.merged))
        return graphs

    def final_graph(self) -> WeightedMultigraph:
        return self.replay()[-1]

    def to_json_dict(self) -> dict:
        return {
            "initial": self.initial.to_json_dict(),
            "steps": [s.to_json_dict() for s in self.steps],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "ContractionCertificate":
        try:
            initial = WeightedMultigraph.from_json_dict(data["initial"])
            steps = tuple(ContractionStep.from_json_dict(s) for s in data["steps"])
        except (KeyError, TypeError) as exc:
            raise GraphError(f"malformed certificate document: {exc}") from None
        return cls(initial, steps)


# ------------------------------------------------------------------ one step


def next_merged_id(g: WeightedMultigraph) -> str:
    """Smallest ``m<k>`` not already used as a vertex id."""
    k = 1
    while f"m{k}" in g:
        k += 1
    return f"m{k}"


def contract(g: WeightedMultigraph, pair: tuple[str, str], merged: str | None = None) -> WeightedMultigraph:
    """Merge an adjacent pair into one vertex.

    The merged vertex weighs ``wt(v) + wt(w)`` and is joined to every
    bystander ``x`` by ``mult(v, x) + mult(w, x)`` edges; the pair's own
    edges vanish.  The result does not depend on any admissibility
    parameter.  ``merged`` defaults to a fresh ``m<k>`` id.
    """
    v, w = pair
    pair_mult = g.multiplicity(v, w)
    if pair_mult < 1:
        raise NotAdjacentError(f"vertices {v!r} and {w!r} are not adjacent")
    if merged is None:
        merged = next_merged_id(g)
    elif merged in g and merged not in (v, w):
        raise GraphError(f"merged id {merged!r} collides with an existing vertex")
    weights = {x: wx for x, wx in g._weights.items() if x != v and x != w}
    weights[merged] = g.weight(v) + g.weight(w)
    adj: dict[str, dict[str, int]] = {merged: {}}
    for x in g.vertices:
        if x == v or x == w:
            continue
        row: dict[str, int] = {}
        to_merged = 0
        for y, m in g._adj[x].items():
            if y == v or y == w:
                to_merged += m
            else:
                row[y] = m
        if to_merged:
            row[merged] = to_merged
            adj[merged][x] = to_merged
        adj[x] = row
    return WeightedMultigraph._from_parts(weights, adj)


def _admissible(g: WeightedMultigraph, u: str, v: str) -> tuple[int, int, int] | None:
    """The admissibility rule for the pair ``{u, v}``, as intervals of ``l``.

    Returns ``None`` when the pair is not adjacent or some bystander has
    degree below 3.  Otherwise returns ``(lo, hi_uv, hi_vu)``: the ordering
    ``(u, v)`` admits exactly ``lo <= l <= hi_uv`` and ``(v, u)`` exactly
    ``lo <= l <= hi_vu`` (an interval may be empty).  The degree conditions
    ``deg - mult + l >= 3`` give the shared lower end; ``l < mult`` and the
    weight bounds ``wt(first) >= l + 1``, ``wt(second) >= l + 2`` give the
    upper ends.  This is the only encoding of the rule on production paths.
    """
    adj = g._adj
    mult = adj[u].get(v, 0)
    if mult < 1:
        return None
    for x in g._vertices:
        if x != u and x != v and sum(adj[x].values()) < 3:
            return None
    lo = max(0, 3 - sum(adj[u].values()) + mult, 3 - sum(adj[v].values()) + mult)
    wt_u = g._weights[u]
    wt_v = g._weights[v]
    return lo, min(mult - 1, wt_u - 1, wt_v - 2), min(mult - 1, wt_v - 1, wt_u - 2)


def feasible_l_range(g: WeightedMultigraph, v: str, w: str) -> tuple[int, ...]:
    """All ``l`` for which contracting the ordered pair ``(v, w)`` is admissible.

    An empty result means this ordering admits no admissible contraction;
    the unordered pair is admissible iff one of its two orderings yields a
    non-empty result.
    """
    if v == w or g.multiplicity(v, w) < 1:
        raise NotAdjacentError(f"vertices {v!r} and {w!r} are not adjacent")
    bounds = _admissible(g, v, w)
    if bounds is None:
        return ()
    lo, hi, _ = bounds
    return tuple(range(lo, hi + 1))


# ------------------------------------------------------------------ verify


def verify_certificate(cert: ContractionCertificate, require_singleton: bool = True) -> bool:
    """Replay a certificate, checking admissibility of every step.

    Each step must record an ``l`` feasible under at least one ordering of
    its pair in the graph the step applies to.  With ``require_singleton``
    the replay must end in a single vertex carrying the full initial
    weight; switch it off to check a certificate prefix.  Steps that name
    unknown vertices raise :class:`UnknownVertexError`.
    """
    g = cert.initial
    for step in cert.steps:
        v, w = step.pair
        if v not in g:
            raise UnknownVertexError(f"step references missing vertex {v!r}")
        if w not in g:
            raise UnknownVertexError(f"step references missing vertex {w!r}")
        bounds = _admissible(g, v, w)
        if bounds is None:
            return False
        lo, hi_vw, hi_wv = bounds
        if not lo <= step.l <= max(hi_vw, hi_wv):
            return False
        g = contract(g, (v, w), step.merged)
    if require_singleton:
        if not g.is_singleton():
            return False
        if g.total_weight() != cert.initial.total_weight():
            return False
    return True


# ------------------------------------------------------------------ search


def decide_contractible(
    g: WeightedMultigraph,
    max_vertices: int = DEFAULT_MAX_VERTICES,
    memo: set | None = None,
) -> ContractionCertificate | None:
    """Exhaustive search for an admissible contraction sequence.

    Depth-first over adjacent pairs in sorted order, taking the minimal
    feasible ``l`` per step, so the returned certificate is deterministic.
    Returns ``None`` only after exhausting every admissible sequence.

    *Viability.*  An endpoint of an admissible step has ``l <= mult - 1``
    and ``deg - mult + l >= 3``, so degree at least 4, and weight at least
    ``l + 1 >= 1``.  A contraction leaves every bystander's weight and
    degree unchanged, so in a graph of two or more vertices a vertex of
    degree <= 3 or weight <= 0 is never merged and the graph is not
    contractible.  The search checks every vertex once on entry; after
    that only the merged vertex of a child is new, its weight is at least
    ``1 + 2``, and a child whose merged vertex has degree <= 3 is skipped.

    *Memo.*  A state reached from ``g`` is fixed by the partition of
    ``g``'s vertices into merged groups, since weights and multiplicities
    add up over groups.  Failed states are recorded as ``(g, partition)``
    (each group a bit mask over ``g.vertices``) in ``memo``, which may be
    shared across calls, also for different graphs, to reuse failure
    knowledge.  Only failing subtrees are cut, so the certificate does not
    depend on the memo.
    """
    if g.vertex_count > max_vertices:
        raise BoundExceededError(
            f"contractibility search limited to {max_vertices} vertices, got {g.vertex_count}"
        )
    if g.vertex_count == 0:
        return None
    if g.vertex_count == 1:
        return ContractionCertificate(g, ())
    if any(g._weights[x] <= 0 or sum(g._adj[x].values()) <= 3 for x in g._vertices):
        return None
    failed = memo if memo is not None else set()

    def search(h: WeightedMultigraph, groups: dict[str, int], name_index: int) -> list[ContractionStep] | None:
        adj = h._adj
        for u, v in h.adjacent_pairs():
            bounds = _admissible(h, u, v)
            if bounds is None:
                continue
            l, hi_uv, hi_vu = bounds
            if l <= hi_uv:
                pair = (u, v)
            elif l <= hi_vu:
                pair = (v, u)
            else:
                continue
            k = name_index
            while f"m{k}" in h:
                k += 1
            merged = f"m{k}"
            if h.vertex_count == 2:
                return [ContractionStep(pair, l, merged)]
            if sum(adj[u].values()) + sum(adj[v].values()) - 2 * adj[u][v] <= 3:
                continue
            child = {x: mask for x, mask in groups.items() if x != u and x != v}
            child[merged] = groups[u] | groups[v]
            if (g, frozenset(child.values())) in failed:
                continue
            rest = search(contract(h, pair, merged), child, k + 1)
            if rest is not None:
                rest.insert(0, ContractionStep(pair, l, merged))
                return rest
        failed.add((g, frozenset(groups.values())))
        return None

    root = {x: 1 << i for i, x in enumerate(g._vertices)}
    if (g, frozenset(root.values())) in failed:
        return None
    steps = search(g, root, 1)
    if steps is None:
        return None
    return ContractionCertificate(g, tuple(steps))


def brute_force_oracle(
    g: WeightedMultigraph,
    max_vertices: int = 5,
    max_total_multiplicity: int = 12,
) -> bool:
    """Independent contractibility oracle: enumerate every sequence.

    Evaluates the definition literally, one candidate ordering and ``l`` at
    a time, on its own weight list and multiplicity matrix with its own
    merge; it shares no code with the search, :func:`contract` or the
    admissibility kernel, so agreement with the search checks both.  A pair
    with some admissible candidate is merged once, since the merged graph
    depends on neither the ordering nor ``l``.  No memoization and no
    pruning.  Size bounds keep the blow-up harmless; both can be raised
    explicitly for exhaustive comparison runs.
    """
    if g.vertex_count > max_vertices:
        raise BoundExceededError(f"oracle limited to {max_vertices} vertices")
    names = g.vertices
    adj = g._adj
    matrix = [[adj[x].get(y, 0) for y in names] for x in names]
    if sum(map(sum, matrix)) > 2 * max_total_multiplicity:
        raise BoundExceededError(f"oracle limited to total multiplicity {max_total_multiplicity}")

    def some_l(wt, deg, a, b, k):
        for x, y in ((a, b), (b, a)):
            for l in range(k):
                if wt[x] >= l + 1 and wt[y] >= l + 2 and deg[x] - k + l >= 3 and deg[y] - k + l >= 3:
                    return True
        return False

    def merge(wt, m, a, b):
        keep = [x for x in range(len(wt)) if x != a and x != b]
        rows = [[m[x][y] for y in keep] + [m[x][a] + m[x][b]] for x in keep]
        rows.append([m[a][y] + m[b][y] for y in keep] + [0])
        return [wt[x] for x in keep] + [wt[a] + wt[b]], rows

    def exhaust(wt, m) -> bool:
        n = len(wt)
        if n == 1:
            return True
        deg = [sum(row) for row in m]
        low = [x for x in range(n) if deg[x] < 3]
        for a in range(n):
            for b in range(a + 1, n):
                k = m[a][b]
                if (
                    k
                    and all(x == a or x == b for x in low)  # every bystander has degree >= 3
                    and some_l(wt, deg, a, b, k)
                    and exhaust(*merge(wt, m, a, b))
                ):
                    return True
        return False

    return exhaust([g._weights[x] for x in names], matrix)


# ------------------------------------------------------------------ lifting


def lift_certificate(
    cert: ContractionCertificate,
    g: WeightedMultigraph,
    embedding: Mapping[str, str],
) -> ContractionCertificate:
    """Transport a certificate along a spanning embedding.

    If ``cert`` verifies for its own graph and that graph is a spanning
    submultigraph of ``g`` via ``embedding``, the same pair sequence with
    the same ``l`` values is admissible in ``g``: weights and
    multiplicities only ever grow under the embedding, and they keep
    growing step by step because contraction adds them up.
    """
    if not is_spanning_submultigraph(cert.initial, g, embedding):
        raise NotSpanningError("embedding does not exhibit a spanning submultigraph")
    if not verify_certificate(cert):
        raise GraphError("certificate does not verify for its own initial graph")
    phi = dict(embedding)
    host = g
    out = []
    name_index = 1
    for step in cert.steps:
        v, w = step.pair
        gv, gw = phi[v], phi[w]
        while f"m{name_index}" in host:
            name_index += 1
        gm = f"m{name_index}"
        name_index += 1
        host = contract(host, (gv, gw), gm)
        del phi[v], phi[w]
        phi[step.merged] = gm
        out.append(ContractionStep((gv, gw), step.l, gm))
    return ContractionCertificate(g, tuple(out))


# ------------------------------------------------------------------ multipartite procedure


def _require_multipartite(g: WeightedMultigraph) -> Partition:
    part = multipartite_partition(g)
    if part is None:
        triple = find_forbidden_triple(g)
        raise PreconditionError(
            f"graph is not completely multipartite; forbidden triple {triple}",
            witness=triple,
        )
    return part


def absorb_submultigraph(
    g: WeightedMultigraph,
    h_vertices: Iterable[str],
) -> tuple[tuple[ContractionStep, ...], WeightedMultigraph]:
    """Contract everything outside ``h_vertices`` into it, one l=0 step at a time.

    Requires ``g`` completely multipartite with all weights >= 2, and every
    mutually non-adjacent subset of ``h_vertices`` no larger than
    ``len(h_vertices) - 4``.  That bound forces at least four neighbours
    inside the kept set for every vertex, so each outside vertex can be
    merged into an adjacent kept vertex admissibly with ``l = 0``.  Returns
    the certificate prefix and the reduced graph, whose vertex set is
    exactly ``h_vertices`` (the kept set then spans it).
    """
    h_set = frozenset(h_vertices)
    for v in h_set:
        if v not in g:
            raise UnknownVertexError(f"unknown vertex {v!r}")
    part = _require_multipartite(g)
    for v in g.vertices:
        if g.weight(v) < 2:
            raise PreconditionError(f"vertex {v!r} has weight {g.weight(v)} < 2", witness=v)
    limit = len(h_set) - 4
    for cls in part.classes:
        inside = tuple(sorted(cls & h_set))
        if len(inside) > limit:
            raise PreconditionError(
                f"mutually non-adjacent set {inside} inside the kept set exceeds size {limit}",
                witness=inside,
            )
    steps: list[ContractionStep] = []
    current = g
    while current.vertex_count > len(h_set):
        w = min(x for x in current.vertices if x not in h_set)
        targets = [u for u in current.neighbors(w) if u in h_set]
        bounds = _admissible(current, w, targets[0]) if targets else None
        if bounds is None or not bounds[0] == 0 <= bounds[1]:
            raise PreconditionError(
                f"absorption step for {w!r} is not admissible", witness=w
            )  # unreachable under the checked preconditions
        v = targets[0]
        steps.append(ContractionStep((w, v), 0, v))
        current = contract(current, (w, v), v)
    return tuple(steps), current


def contract_multipartite(g: WeightedMultigraph) -> ContractionCertificate:
    """Certify any completely multipartite graph with wt >= 2 and rdeg >= 4.

    Sorts the non-adjacency classes by size, chooses representative
    vertices so that one of the seed graphs ``K1``..``K4`` spans the
    absorbed graph, contracts everything else into the chosen set with
    ``l = 0`` steps, and finishes by lifting the seed's certificate along
    the spanning embedding.  Five shapes cover all class counts:

    * five or more classes: one vertex from each of five classes (``K1``);
    * four classes: 1+1+2+2 representatives (``K2``);
    * three classes, all of size >= 2: 2+2+2 (``K2``);
    * three classes, one singleton: 1+3+3 (``K3``);
    * two classes: 4+4 (``K4``).
    """
    part = _require_multipartite(g)
    for v in g.vertices:
        if g.weight(v) < 2:
            raise PreconditionError(f"vertex {v!r} has weight {g.weight(v)} < 2", witness=v)
        if g.rdeg(v) < 4:
            raise PreconditionError(f"vertex {v!r} has reduced degree {g.rdeg(v)} < 4", witness=v)
    classes = [sorted(c) for c in part.classes]  # already (size, min)-sorted
    k = len(classes)
    if k >= 5:
        shape = "K1"
        picks = [classes[i][0] for i in range(5)]
    elif k == 4:
        shape = "K2"
        picks = [
            classes[0][0], classes[2][0], classes[3][0],
            classes[1][0], classes[2][1], classes[3][1],
        ]
    elif k == 3 and len(classes[0]) >= 2:
        shape = "K2"
        picks = [
            classes[0][0], classes[1][0], classes[2][0],
            classes[0][1], classes[1][1], classes[2][1],
        ]
    elif k == 3:
        shape = "K3"
        picks = [
            classes[0][0],
            classes[1][0], classes[2][0],
            classes[1][1], classes[2][1],
            classes[1][2], classes[2][2],
        ]
    elif k == 2:
        shape = "K4"
        picks = [
            classes[0][0], classes[1][0], classes[0][1], classes[1][1],
            classes[0][2], classes[1][2], classes[0][3], classes[1][3],
        ]
    else:
        raise PreconditionError("graph has a single non-adjacency class, so no edges", witness=None)
    from .fixtures import load_certificate  # fixtures imports this module

    prefix, reduced = absorb_submultigraph(g, picks)
    embedding = {f"v{i + 1}": picks[i] for i in range(len(picks))}
    lifted = lift_certificate(load_certificate(shape), reduced, embedding)
    cert = ContractionCertificate(g, prefix + lifted.steps)
    if not verify_certificate(cert):
        raise GraphError("internal error: constructed certificate failed verification")
    return cert

