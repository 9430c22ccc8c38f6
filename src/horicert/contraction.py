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

The search rejects, with proofs in :func:`decide_contractible`, every
state that holds a vertex that can never be merged (weight <= 0, degree
<= 3, or more edges to each neighbour than its weight and degree allow)
or fewer than two vertices of weight >= 2, the two anchors that the last
step needs.  It works on one mutable copy of the input's rows, weights
and degrees: it judges each child in the one pass that builds the
merged row, merges the pair in place, which changes only the rows of the
pair and its neighbours and only the merged vertex's degree, and undoes
the merge exactly on backtrack.  It keys its failure memo by the
partition of the input's vertices into merged groups, as one int of 4
bits per vertex, which fixes the state exactly and needs no isomorphism
test.

Verification and absorption replay their steps without copying or
rewriting the graph: they keep, for each current vertex, the group of
original vertices merged into it, and read a multiplicity as the sum of
the original multiplicities between two groups.  Each pair of original
vertices is summed by the merge that joins it and by no other, so
``m - 1`` steps on ``m`` vertices cost O(m^2) in total.  Absorption
then builds its reduced graph, at most eight vertices, once through the
public constructor.  :func:`contract`, the public one-step function, also
builds its child through that constructor, from the parent's edges with
the pair renamed; neither the search nor verification calls it.
:meth:`ContractionCertificate.replay` calls it once per step and yields
each graph before it builds the next, so printing or drawing a
certificate holds two graphs at a time, not all of them.

The rule above is encoded once, in ``_admissible``, for the search,
verification, absorption and :func:`feasible_l_range`.  The oracle is a
second, literal encoding that shares no code with it or with
:func:`contract`, so it can catch a fault in either.  The seed
certificates ``K1``..``K4`` and their graphs live only as JSON under
``fixtures/``.  :func:`lift_certificate` verifies a certificate object
once while it lives; the fixtures are parsed once per process, so each
seed is verified once per process, and every certificate
:func:`contract_multipartite` builds is still verified in full.
"""

from __future__ import annotations

import weakref
from bisect import insort
from dataclasses import dataclass
from itertools import repeat
from typing import Container, Iterable, Iterator, Mapping

from .multigraph import (
    BoundExceededError,
    GraphError,
    Partition,
    UnknownVertexError,
    WeightedMultigraph,
    find_forbidden_triple,
    is_spanning_submultigraph,
    multipartite_partition,
)

# bench/worker.py patches this name; nothing calls it, and it goes when the benchmark drops that patch.
canonical_form = None


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

    def replay(self) -> Iterator[WeightedMultigraph]:
        """The intermediate graphs, starting at ``initial``, one per step.

        Each graph is built by :func:`contract` from the one before and
        yielded before the next is built, so a caller that keeps none of
        them holds at most two at a time.  Steps are applied as recorded,
        not checked for admissibility (see :func:`verify_certificate`).
        """
        g = self.initial
        yield g
        for step in self.steps:
            g = contract(g, step.pair, step.merged)
            yield g

    def final_graph(self) -> WeightedMultigraph:
        for g in self.replay():
            pass
        return g

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


def _fresh_index(live: Container[str], k: int) -> int:
    """Smallest ``j >= k`` such that ``m<j>`` is not in ``live``."""
    while f"m{k}" in live:
        k += 1
    return k


def contract(g: WeightedMultigraph, pair: tuple[str, str], merged: str | None = None) -> WeightedMultigraph:
    """Merge an adjacent pair into one vertex.

    The merged vertex weighs ``wt(v) + wt(w)`` and is joined to every
    bystander ``x`` by ``mult(v, x) + mult(w, x)`` edges; the pair's own
    edges vanish.  The result does not depend on any admissibility
    parameter.  ``merged`` defaults to a fresh ``m<k>`` id; another
    vertex's id raises :class:`GraphError`, and so does an id that is not
    a string.
    One call renames the pair to ``merged`` in ``g``'s edge list and
    builds the child through the checking constructor, in O(m^2) time
    for ``m`` vertices; to check a list of steps, replay them on one
    ``_Replay`` instead.  The search does not call it: it merges in place
    on one ``_SearchState``.
    """
    v, w = pair
    if g.multiplicity(v, w) < 1:
        raise NotAdjacentError(f"vertices {v!r} and {w!r} are not adjacent")
    if merged is None:
        merged = f"m{_fresh_index(g, 1)}"
    elif not isinstance(merged, str):  # the constructor's message, before an unhashable id meets a dict
        raise GraphError(f"vertex id must be a string, got {merged!r}")
    elif merged in g._weights and merged != v and merged != w:
        raise GraphError(f"merged id {merged!r} collides with an existing vertex")
    weights = {x: k for x, k in g._weights.items() if x != v and x != w}
    weights[merged] = g._weights[v] + g._weights[w]
    pair_ids = {v, w}
    edges = (
        (merged if a in pair_ids else a, merged if b in pair_ids else b, m)
        for a, b, m in g.edge_items()
        if not (a in pair_ids and b in pair_ids)
    )
    return WeightedMultigraph(weights, edges)


def _admissible(
    u: str, v: str, mult: int, wt_u: int, wt_v: int, deg_u: int, deg_v: int, low: Iterable[str]
) -> tuple[int, int, int] | None:
    """The admissibility rule for the pair ``{u, v}``, as intervals of ``l``.

    ``mult`` is the pair's multiplicity, ``wt_*`` and ``deg_*`` are the
    weights and degrees of its endpoints, and ``low`` holds every vertex
    of the graph whose degree is below 3.  Returns ``None`` when the pair
    is not adjacent or ``low`` holds a bystander.  Otherwise returns
    ``(lo, hi_uv, hi_vu)``: the ordering ``(u, v)`` admits exactly
    ``lo <= l <= hi_uv`` and ``(v, u)`` exactly ``lo <= l <= hi_vu`` (an
    interval may be empty).  The degree conditions ``deg - mult + l >= 3``
    give the shared lower end; ``l < mult`` and the weight bounds
    ``wt(first) >= l + 1``, ``wt(second) >= l + 2`` give the upper ends.
    This is the only encoding of the rule on production paths.
    """
    if mult < 1:
        return None
    for x in low:
        if x != u and x != v:
            return None
    lo = max(0, 3 - deg_u + mult, 3 - deg_v + mult)
    return lo, min(mult - 1, wt_u - 1, wt_v - 2), min(mult - 1, wt_v - 1, wt_u - 2)


class _Replay:
    """A graph contracted step by step, for replaying a list of steps.

    Never copies or rewrites an adjacency row: ``rows`` is the original
    graph's adjacency, shared read-only, and ``groups`` maps each current
    vertex to the original vertices merged into it.  Multiplicities add up
    over groups, so ``mult(u, v)`` sums the original multiplicities between
    the two groups.  It also holds the current weights, each vertex's
    degree and the set ``low`` of vertices of degree below 3.  A merge never
    changes a bystander's degree, because ``mult(x, merged) = mult(x, v) +
    mult(x, w)``; the merged vertex's degree is ``deg v + deg w - 2 mult(v,
    w)``.  Each pair of original vertices is joined by one merge only, so
    the pair multiplicities of all the merges of a replay on ``m``
    vertices take at most ``m(m-1)/2`` lookups.
    """

    __slots__ = ("rows", "groups", "weights", "deg", "low")

    def __init__(self, g: WeightedMultigraph):
        self.rows = g._adj
        self.groups = {x: [x] for x in g._vertices}
        self.weights = dict(g._weights)
        self.deg = {x: sum(row.values()) for x, row in g._adj.items()}
        self.low = {x for x, d in self.deg.items() if d < 3}

    def mult(self, u: str, v: str) -> int:
        """Multiplicity of two current vertices (0 when ``u == v``)."""
        if u == v:
            return 0
        small, large = self.groups[u], self.groups[v]
        if len(small) > len(large):
            small, large = large, small
        rows = self.rows
        return sum([sum(map(rows[x].get, large, repeat(0))) for x in small])

    def admissible(self, u: str, v: str, mult: int) -> tuple[int, int, int] | None:
        """:func:`_admissible` for two current vertices joined by ``mult`` edges."""
        wt, deg = self.weights, self.deg
        return _admissible(u, v, mult, wt[u], wt[v], deg[u], deg[v], self.low)

    def merge(self, v: str, w: str, merged: str, mult: int) -> None:
        """Contract the pair of current vertices ``v``, ``w``, joined by
        ``mult >= 1`` edges, into ``merged``; raises :class:`GraphError`
        when ``merged`` is the id of another current vertex."""
        weights, groups = self.weights, self.groups
        if merged in weights and merged != v and merged != w:
            raise GraphError(f"merged id {merged!r} collides with an existing vertex")
        group, other = groups.pop(v), groups.pop(w)
        if len(group) < len(other):
            group, other = other, group
        group += other
        groups[merged] = group
        weights[merged] = weights.pop(v) + weights.pop(w)
        deg = self.deg[merged] = self.deg.pop(v) + self.deg.pop(w) - 2 * mult
        self.low.discard(v)
        self.low.discard(w)
        if deg < 3:
            self.low.add(merged)


def feasible_l_range(g: WeightedMultigraph, v: str, w: str) -> tuple[int, ...]:
    """All ``l`` for which contracting the ordered pair ``(v, w)`` is admissible.

    An empty result means this ordering admits no admissible contraction;
    the unordered pair is admissible iff one of its two orderings yields a
    non-empty result.
    """
    if v == w or g.multiplicity(v, w) < 1:
        raise NotAdjacentError(f"vertices {v!r} and {w!r} are not adjacent")
    bounds = _Replay(g).admissible(v, w, g._adj[v][w])
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
    unknown vertices raise :class:`UnknownVertexError`, and an admissible
    step whose ``merged`` id is another vertex's raises :class:`GraphError`.
    The steps are replayed on merge groups of the initial graph, degrees
    tracked as they change, so a certificate for ``m`` vertices is checked
    in O(m^2) time with no adjacency row copied or rewritten.
    """
    state = _Replay(cert.initial)
    for step in cert.steps:
        v, w = step.pair
        if v not in state.weights:
            raise UnknownVertexError(f"step references missing vertex {v!r}")
        if w not in state.weights:
            raise UnknownVertexError(f"step references missing vertex {w!r}")
        mult = state.mult(v, w)
        bounds = state.admissible(v, w, mult)
        if bounds is None:
            return False
        lo, hi_vw, hi_wv = bounds
        if not lo <= step.l <= max(hi_vw, hi_wv):
            return False
        state.merge(v, w, step.merged, mult)
    if require_singleton:
        if len(state.weights) != 1:
            return False
        if sum(state.weights.values()) != cert.initial.total_weight():
            return False
    return True


# ------------------------------------------------------------------ search

# The largest graph the search takes: its partition key has one 4-bit slot
# per vertex, holding a vertex index below 16.
MAX_SEARCH_VERTICES = 12

# Vertex ``i`` alone, as a group of ``_SearchState``: its lowest index, and
# the int with a 1 in slot ``i`` of the partition key.
_ALONE = tuple((i, 16**i) for i in range(MAX_SEARCH_VERTICES))


def decide_contractible(g: WeightedMultigraph, memo: set | None = None) -> ContractionCertificate | None:
    """Exhaustive search for an admissible contraction sequence.

    Depth-first over adjacent pairs in sorted order, taking the minimal
    feasible ``l`` per step, so the returned certificate is deterministic.
    Returns ``None`` only after exhausting every admissible sequence.
    A graph of more than ``MAX_SEARCH_VERTICES`` (12) vertices raises
    :class:`BoundExceededError`; the bound is fixed.

    Two rules reject a state of two or more vertices as NO.  A contraction
    leaves every bystander's weight and degree unchanged (``mult(x,
    merged) = mult(x, v) + mult(x, w)``), and a contractible state must
    merge each of its vertices at some step.

    *Dead endpoint.*  Let ``x`` have weight ``w`` and degree ``d``, and let
    the step that merges it join it to a partner ``P`` by ``m`` edges.
    ``P`` is a union of the state's vertices, one of them a neighbour
    ``H`` of ``x``, so ``m >= mult(x, H)``.  The step needs an ``l`` with
    ``0 <= l <= m - 1``, ``l <= w - 1`` (as first or second endpoint) and
    ``d - m + l >= 3``; one exists iff ``w >= 1``, ``d >= 4`` and ``m <= d
    + w - 4``.  So ``x`` is dead, and the state NO, when ``w <= 0``, ``d <=
    3`` or no neighbour is *usable*, that is joined by at most ``d + w -
    4`` edges.

    *Two anchors.*  The last step joins two vertices whose degree is their
    multiplicity, so ``l >= 3`` and both weigh at least 4.  Each is a
    vertex of the state, or a group whose first merge joined two vertices
    of the state, the second of weight ``>= l + 2 >= 2``.  So each holds
    an *anchor*, a vertex of the state of weight ``>= 2``, and the two are
    disjoint: a state with fewer than two anchors is NO.

    The search checks both rules on entry, in the same pass that sums the
    degrees it then keeps.  Then every vertex of every state searched has
    weight ``>= 1`` and degree ``>= 4``, so the kernel is asked with an
    empty set of low-degree vertices.  The search works on one
    :class:`_SearchState`, which a merge changes in place and an undo
    restores.  :func:`_child_row` judges a child before its pair is
    merged, from the rows of the pair, and returns the merged row that the
    merge then takes: merging ``u`` and ``v`` (merged weight ``>= 2``)
    removes one anchor iff both weigh ``>= 2``, and only the rows of the
    merged vertex and its neighbours change, so only they are checked; a
    neighbour's row is scanned only when its edges to the merged vertex
    exceed its own bound.

    *Memo.*  A state reached from ``g`` is fixed by the partition of
    ``g``'s vertices into merged groups, since weights and multiplicities
    add up over groups.  The partition is one int below ``16 ** n`` for
    ``n <= 12`` vertices: its 4-bit slot ``i``, hex digit ``i`` from the
    right, holds the index in ``g.vertices`` of the lowest vertex in
    vertex ``i``'s group, so every vertex alone reads ``0x...3210``.
    Merging groups whose lowest indices are ``a < b`` subtracts ``b - a``
    times the int with a 1 in the slot of each member of ``b``'s group.
    Failed states are recorded as ``(g, partition)`` in ``memo``, which
    may be shared across calls, also for different graphs, to reuse
    failure knowledge; a state the rules reject is not recorded.  A child
    found in the memo is skipped before it is judged: most children of a
    long NO search were reached and failed before.  The rules and the memo
    cut only failing subtrees, so the certificate depends on neither.
    """
    if g.vertex_count > MAX_SEARCH_VERTICES:
        raise BoundExceededError(
            f"contractibility search limited to {MAX_SEARCH_VERTICES} vertices, got {g.vertex_count}"
        )
    if g.vertex_count == 0:
        return None
    if g.vertex_count == 1:
        return ContractionCertificate(g, ())
    viable = _viability(g)
    if viable is None:
        return None
    deg, anchors = viable
    failed = memo if memo is not None else set()
    state = _SearchState(g, failed, deg)
    key = int("ba9876543210"[-g.vertex_count:], 16)  # every vertex alone
    if (g, key) in failed:
        return None
    steps = _search(state, key, 1, anchors)
    if steps is None:
        return None
    return ContractionCertificate(g, tuple(steps))


def _viability(h: WeightedMultigraph) -> tuple[dict[str, int], int] | None:
    """``None`` when a state of two or more vertices is NO by the dead
    endpoint or the two-anchor rule of :func:`decide_contractible`;
    otherwise its degrees, as a new dict, and its number of anchors."""
    wt = h._weights
    deg = {}
    anchors = 0
    for x, row in h._adj.items():
        w = wt[x]
        d = deg[x] = sum(row.values())
        if w <= 0 or d <= 3 or min(row.values()) > d + w - 4:
            return None
        anchors += w >= 2
    return (deg, anchors) if anchors >= 2 else None


def _child_row(
    adj: dict[str, dict[str, int]], wt: dict[str, int], deg: dict[str, int], anchors: int, u: str, v: str, mult: int
) -> dict[str, int] | None:
    """The merged vertex's row in the child of merging the pair ``u``,
    ``v`` (joined by ``mult`` edges) of a state of three or more vertices
    that :func:`_viability` accepts with ``anchors``, or ``None`` when
    :func:`_viability` rejects that child; ``adj``, ``wt`` and ``deg`` hold
    the state's rows, weights and degrees.  Decided before the pair is
    merged, and the row is a new dict."""
    if anchors - (wt[u] >= 2 and wt[v] >= 2) < 2:
        return None
    d = deg[u] + deg[v] - 2 * mult
    if d <= 3:
        return None
    row = adj[u].copy()
    del row[v]
    for x, k in adj[v].items():
        if x != u:
            row[x] = row.get(x, 0) + k
    if min(row.values()) > d + wt[u] + wt[v] - 4:
        return None
    for x, m in row.items():
        # x swaps its neighbours u, v for the merged vertex, joined by m
        # edges; it dies if that leaves it no usable neighbour.
        bound_x = deg[x] + wt[x] - 4
        if m > bound_x and all(k > bound_x for y, k in adj[x].items() if y != u and y != v):
            return None
    return row


class _SearchState:
    """The one mutable state of a search from ``g``: merged in place, and
    split again exactly on backtrack.

    ``rows``, ``wt`` and ``deg`` hold the adjacency rows, weights and
    degrees of the current vertices: rows and weights copied once from
    ``g``, so ``g`` is never changed, and the degrees :func:`_viability`
    summed.  ``groups`` maps each current vertex to its group's lowest
    index in ``g.vertices`` and the int with a 1 in each member's slot of
    the partition key; ``live`` lists the current vertices in sorted
    order.  A merge takes its row from :func:`_child_row`, swaps each
    neighbour's entries for the pair for one entry for the merged vertex,
    and changes no degree but the merged vertex's (see :class:`_Replay`).
    """

    __slots__ = ("g", "failed", "rows", "wt", "deg", "groups", "live")

    def __init__(self, g: WeightedMultigraph, failed: set, deg: dict[str, int]):
        self.g = g
        self.failed = failed
        self.rows = {x: row.copy() for x, row in g._adj.items()}
        self.wt = dict(g._weights)
        self.deg = deg
        self.groups = dict(zip(g._vertices, _ALONE))
        self.live = list(g._vertices)

    def merge(self, u: str, v: str, merged: str, mult: int, row: dict[str, int]) -> tuple:
        """Contract the current vertices ``u``, ``v``, joined by ``mult``
        edges, into the new vertex ``merged`` with the row ``row``; returns
        what :meth:`undo` needs to split it again."""
        rows, wt, deg, groups, live = self.rows, self.wt, self.deg, self.groups, self.live
        row_u, row_v = rows.pop(u), rows.pop(v)
        for x, k in row.items():
            nbrs = rows[x]
            nbrs.pop(u, None)
            nbrs.pop(v, None)
            nbrs[merged] = k
        rows[merged] = row
        wt_u, wt_v = wt.pop(u), wt.pop(v)
        deg_u, deg_v = deg.pop(u), deg.pop(v)
        group_u, group_v = groups.pop(u), groups.pop(v)
        wt[merged] = wt_u + wt_v
        deg[merged] = deg_u + deg_v - 2 * mult
        groups[merged] = (min(group_u[0], group_v[0]), group_u[1] + group_v[1])
        live.remove(u)
        live.remove(v)
        insort(live, merged)
        return u, v, merged, row_u, row_v, wt_u, wt_v, deg_u, deg_v, group_u, group_v

    def undo(self, saved: tuple) -> None:
        """Split the vertex made by the :meth:`merge` that returned ``saved``,
        the last merge not yet undone."""
        u, v, merged, row_u, row_v, wt_u, wt_v, deg_u, deg_v, group_u, group_v = saved
        rows, wt, deg, groups, live = self.rows, self.wt, self.deg, self.groups, self.live
        for x in rows.pop(merged):
            nbrs = rows[x]
            del nbrs[merged]
            if x in row_u:
                nbrs[u] = row_u[x]
            if x in row_v:
                nbrs[v] = row_v[x]
        rows[u], rows[v] = row_u, row_v
        del wt[merged], deg[merged], groups[merged]
        wt[u], wt[v] = wt_u, wt_v
        deg[u], deg[v] = deg_u, deg_v
        groups[u], groups[v] = group_u, group_v
        live.remove(merged)
        insort(live, u)
        insort(live, v)


def _search(s: _SearchState, key: int, name_index: int, anchors: int) -> list[ContractionStep] | None:
    """The steps contracting the current state of ``s`` to a point, or
    ``None`` after recording it in ``s.failed`` and leaving ``s`` as it
    was; ``key`` is the state's partition key and the state, which passes
    both rules of :func:`decide_contractible`, has ``anchors`` anchors.  A
    state is left merged only on success."""
    g, failed, rows, wt, deg, groups, live = s.g, s.failed, s.rows, s.wt, s.deg, s.groups, s.live
    k = _fresh_index(wt, name_index)
    merged = f"m{k}"
    # Pairs in sorted order, as edge_items lists them.  Every merge below
    # is undone before the scan goes on, so ``live`` is the same list again.
    for i, u in enumerate(live):
        row_u = rows[u]
        for v in live[i + 1:]:
            mult = row_u.get(v)
            if mult is None:
                continue
            wt_u, wt_v = wt[u], wt[v]
            l, hi_uv, hi_vu = _admissible(u, v, mult, wt_u, wt_v, deg[u], deg[v], ())
            if l <= hi_uv:
                pair = (u, v)
            elif l <= hi_vu:
                pair = (v, u)
            else:
                continue
            if len(live) == 2:
                return [ContractionStep(pair, l, merged)]
            (a, slots_a), (b, slots_b) = groups[u], groups[v]
            child = key - (b - a) * slots_b if a < b else key - (a - b) * slots_a
            if (g, child) in failed or (row := _child_row(rows, wt, deg, anchors, u, v, mult)) is None:
                continue
            saved = s.merge(u, v, merged, mult, row)
            rest = _search(s, child, k + 1, anchors - (wt_u >= 2 and wt_v >= 2))
            if rest is not None:
                rest.insert(0, ContractionStep(pair, l, merged))
                return rest
            s.undo(saved)
    failed.add((g, key))
    return None


ORACLE_MAX_VERTICES = 5


def brute_force_oracle(g: WeightedMultigraph, max_total_multiplicity: int = 12) -> bool:
    """Independent contractibility oracle: enumerate every sequence.

    Evaluates the definition literally, one candidate ordering and ``l`` at
    a time, on its own weight list and multiplicity matrix with its own
    merge; it shares no code with the search, :func:`contract` or the
    admissibility kernel, so agreement with the search checks both.  A pair
    with some admissible candidate is merged once, since the merged graph
    depends on neither the ordering nor ``l``.  No memoization and no
    pruning.  Size bounds keep the blow-up harmless: the vertex bound
    ``ORACLE_MAX_VERTICES`` is fixed, the multiplicity bound can be raised
    for exhaustive comparison runs.
    """
    if g.vertex_count > ORACLE_MAX_VERTICES:
        raise BoundExceededError(f"oracle limited to {ORACLE_MAX_VERTICES} vertices")
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

# The certificates lift_certificate has verified, by identity, while they live.
_VERIFIED: weakref.WeakValueDictionary[int, ContractionCertificate] = weakref.WeakValueDictionary()


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

    ``cert`` is verified the first time this function sees that object,
    and not again while it lives: a certificate is immutable, so a second
    verification could only give the same answer.  So a seed that
    :func:`contract_multipartite` lifts on every call, parsed once per
    process by :func:`horicert.fixtures.load_certificate`, is verified
    once per process; an equal copy is another object and is verified on
    its own.
    """
    if not is_spanning_submultigraph(cert.initial, g, embedding):
        raise NotSpanningError("embedding does not exhibit a spanning submultigraph")
    if _VERIFIED.get(id(cert)) is not cert:
        if not verify_certificate(cert):
            raise GraphError("certificate does not verify for its own initial graph")
        _VERIFIED[id(cert)] = cert
    phi = dict(embedding)
    live = set(g.vertices)
    out = []
    name_index = 1
    for step in cert.steps:
        v, w = step.pair
        gv, gw = phi[v], phi[w]
        name_index = _fresh_index(live, name_index)
        gm = f"m{name_index}"
        name_index += 1
        live -= {gv, gw}
        live.add(gm)
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
    state = _Replay(g)
    kept = sorted(h_set)
    # Every merge keeps the kept vertex's id, so the vertices left outside
    # are those of g not yet absorbed; they go smallest first, each into
    # its smallest adjacent kept vertex.
    for w in [x for x in g.vertices if x not in h_set]:
        v, mult = next(((u, m) for u in kept if (m := state.mult(w, u))), (None, 0))
        bounds = None if v is None else state.admissible(w, v, mult)
        if bounds is None or not bounds[0] == 0 <= bounds[1]:
            raise PreconditionError(
                f"absorption step for {w!r} is not admissible", witness=w
            )  # unreachable under the checked preconditions
        steps.append(ContractionStep((w, v), 0, v))
        state.merge(w, v, v, mult)
    edges = [(u, v, state.mult(u, v)) for i, u in enumerate(kept) for v in kept[i + 1:]]
    return tuple(steps), WeightedMultigraph({x: state.weights[x] for x in kept}, edges)


def contract_multipartite(g: WeightedMultigraph) -> ContractionCertificate:
    """Certify any completely multipartite graph with wt >= 2 and rdeg >= 4.

    Sorts the non-adjacency classes by size, chooses representative
    vertices so that one of the seed graphs ``K1``..``K4`` spans the
    absorbed graph, contracts everything else into the chosen set with
    ``l = 0`` steps, and finishes by lifting the seed's certificate along
    the spanning embedding.  The seed is verified by its first lift in the
    process; the whole certificate built here is verified on every call.
    Five shapes cover all class counts:

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

