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

Verification, absorption and the multipartite certifier check each step
with :meth:`_Replay.step`, on merge groups of the input, never copying
or rewriting its rows, in O(m^2) time in total for ``m`` vertices.
:func:`contract`, the public one-step function, builds its child through
the checking constructor; neither the search nor verification calls it,
and :meth:`ContractionCertificate.replay` calls it once per step.

The rule above is encoded once, in ``_admissible``, for the search,
verification, absorption and :func:`feasible_l_range`.  The oracle is a
second, literal encoding that shares no code with it or with
:func:`contract`, so it can catch a fault in either.  The seed
certificates ``K1``..``K4`` and their graphs live only as JSON under
``fixtures/``.  :func:`lift_certificate` verifies its input on every
call; :func:`contract_multipartite` renames a seed's steps and checks
each step it returns once, on the one replay its absorption starts.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Container, Iterable, Iterator, Mapping

from .multigraph import (
    BoundExceededError,
    GraphError,
    UnknownVertexError,
    WeightedMultigraph,
    _check_document,
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
        _check_document(data, "step", ("pair", "l", "merged"))
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

    def to_json_dict(self) -> dict:
        return {
            "initial": self.initial.to_json_dict(),
            "steps": [s.to_json_dict() for s in self.steps],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "ContractionCertificate":
        try:
            initial, steps = data["initial"], data["steps"]
        except (KeyError, TypeError) as exc:
            raise GraphError(f"malformed certificate document: {exc}") from None
        _check_document(data, "certificate", ("initial", "steps"), steps=steps)
        return cls(WeightedMultigraph.from_json_dict(initial), tuple(ContractionStep.from_json_dict(s) for s in steps))


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
    on one copy of the rows.
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

    def step(self, step: ContractionStep) -> bool:
        """Merge ``step``'s pair if some ordering of it admits ``step.l``, else
        return ``False``; an unknown vertex raises :class:`UnknownVertexError`."""
        v, w = step.pair
        for x in step.pair:
            if x not in self.weights:
                raise UnknownVertexError(f"step references missing vertex {x!r}")
        mult = self.mult(v, w)
        bounds = self.admissible(v, w, mult)
        if bounds is None or not bounds[0] <= step.l <= max(bounds[1:]):
            return False
        self.merge(v, w, step.merged, mult)
        return True


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
    if not all(map(state.step, cert.steps)):
        return False
    weights = state.weights
    return not require_singleton or len(weights) == 1 and sum(weights.values()) == cert.initial.total_weight()


# ------------------------------------------------------------------ search

# The largest graph the search takes: its partition key has one 4-bit slot
# per vertex, holding a vertex index below 16.
MAX_SEARCH_VERTICES = 12

# Vertex ``i`` alone, as a group of the search state: its lowest index, and
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
    empty set of low-degree vertices.  :func:`_search` works on one copy
    of ``g``'s rows and weights, which it merges in place and splits again
    on backtrack.  :func:`_child_row` judges a child before its pair is
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
    n = len(g._weights)
    if n > MAX_SEARCH_VERTICES:
        raise BoundExceededError(f"contractibility search limited to {MAX_SEARCH_VERTICES} vertices, got {n}")
    if n == 0:
        return None
    if n == 1:
        return ContractionCertificate(g, ())
    viable = _viability(g)
    if viable is None:
        return None
    deg, anchors = viable
    failed = memo if memo is not None else set()
    key = int("ba9876543210"[-n:], 16)  # every vertex alone
    if (g, key) in failed:
        return None
    rows = {x: row.copy() for x, row in g._adj.items()}
    state = (g, failed, rows, dict(g._weights), deg, dict(zip(g._vertices, _ALONE)))
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


def _search(s: tuple, key: int, name_index: int, anchors: int) -> list[ContractionStep] | None:
    """The steps contracting the current state to a point, or ``None``
    after recording it in ``failed`` and leaving the state as it was;
    ``key`` is the state's partition key and the state, which passes both
    rules of :func:`decide_contractible`, has ``anchors`` anchors.

    ``s`` is ``(g, failed, rows, wt, deg, groups)``, one per search and
    changed in place.  ``rows``, ``wt`` and ``deg`` hold the adjacency
    rows, weights and degrees of the current vertices: rows and weights
    copied once from ``g``, so ``g`` is never changed, and the degrees
    :func:`_viability` summed.  ``groups`` maps each current vertex to its
    group's lowest index in ``g.vertices`` and the int with a 1 in each
    member's slot of the partition key.  A merge takes its row from
    :func:`_child_row`, swaps each neighbour's entries for the pair for one
    entry for the merged vertex, and changes no degree but the merged
    vertex's (see :class:`_Replay`).  This frame splits the pair again
    from its own locals when the child fails, so a state is left merged
    only on success.
    """
    g, failed, rows, wt, deg, groups = s
    k = _fresh_index(wt, name_index)
    merged = f"m{k}"
    # Pairs in sorted order, as edge_items lists them.  Every merge below
    # is undone before the scan goes on, so one sorted list serves it all.
    order = sorted(wt)
    for i, u in enumerate(order):
        row_u = rows[u]
        for v in order[i + 1:]:
            mult = row_u.get(v)
            if mult is None:
                continue
            wt_u, wt_v, deg_u, deg_v = wt[u], wt[v], deg[u], deg[v]
            l, hi_uv, hi_vu = _admissible(u, v, mult, wt_u, wt_v, deg_u, deg_v, ())
            if l <= hi_uv:
                pair = (u, v)
            elif l <= hi_vu:
                pair = (v, u)
            else:
                continue
            if len(order) == 2:
                return [ContractionStep(pair, l, merged)]
            group_u, group_v = groups[u], groups[v]
            (a, slots_a), (b, slots_b) = group_u, group_v
            child = key - (b - a) * slots_b if a < b else key - (a - b) * slots_a
            if (g, child) in failed or (row := _child_row(rows, wt, deg, anchors, u, v, mult)) is None:
                continue
            # Merge in place; the locals above keep what the split needs.
            row_v = rows.pop(v)
            del rows[u], wt[u], wt[v], deg[u], deg[v], groups[u], groups[v]
            for x, m in row.items():
                nbrs = rows[x]
                nbrs.pop(u, None)
                nbrs.pop(v, None)
                nbrs[merged] = m
            rows[merged] = row
            wt[merged] = wt_u + wt_v
            deg[merged] = deg_u + deg_v - 2 * mult
            groups[merged] = (min(a, b), slots_a + slots_b)
            rest = _search(s, child, k + 1, anchors - (wt_u >= 2 and wt_v >= 2))
            if rest is not None:
                rest.insert(0, ContractionStep(pair, l, merged))
                return rest
            # The child failed: split the pair again.
            for x in rows.pop(merged):
                nbrs = rows[x]
                del nbrs[merged]
                if x in row_u:
                    nbrs[u] = row_u[x]
                if x in row_v:
                    nbrs[v] = row_v[x]
            del wt[merged], deg[merged], groups[merged]
            rows[u], rows[v] = row_u, row_v
            wt[u], wt[v] = wt_u, wt_v
            deg[u], deg[v] = deg_u, deg_v
            groups[u], groups[v] = group_u, group_v
    failed.add((g, key))
    return None


ORACLE_MAX_VERTICES = 5
_ORACLE_PAIRS = [[(a, b) for a in range(n) for b in range(a + 1, n)] for n in range(ORACLE_MAX_VERTICES + 1)]


def brute_force_oracle(g: WeightedMultigraph, max_total_multiplicity: int = 12) -> bool:
    """Independent contractibility oracle: enumerate every sequence.

    Evaluates the definition literally, on its own weight list and
    multiplicity matrix: ``_oracle_exhaust`` tries every adjacent pair of
    every state (from ``_ORACLE_PAIRS``), every ordering and every ``l``,
    and ``_oracle_merge`` merges it.  They share no code with the search,
    :func:`contract` or the admissibility kernel, so agreement with the
    search checks both.  No memo and no pruning; each shortcut is exact.
    A pair with an admissible candidate is merged once: the merged graph
    depends on neither the ordering nor ``l``.  A two-vertex state is
    answered by its one pair, whose merge leaves one vertex.  The root's
    degrees, summed once, also give the multiplicity bound.  The bystander
    rule is read once per state: a pair must hold every vertex of degree
    below 3, so a state with more than two of them has no pair.  The
    vertex bound ``ORACLE_MAX_VERTICES`` is fixed; the multiplicity bound
    can be raised for exhaustive comparison runs.
    """
    if g.vertex_count > ORACLE_MAX_VERTICES:
        raise BoundExceededError(f"oracle limited to {ORACLE_MAX_VERTICES} vertices")
    names = g.vertices
    matrix = [[row.get(y, 0) for y in names] for row in g._adj.values()]
    deg = [sum(row) for row in matrix]
    if sum(deg) > 2 * max_total_multiplicity:
        raise BoundExceededError(f"oracle limited to total multiplicity {max_total_multiplicity}")
    return _oracle_exhaust(list(g._weights.values()), matrix, deg)


def _oracle_exhaust(wt: list[int], m: list[list[int]], deg: list[int]) -> bool:
    n = len(wt)
    if n == 1:
        return True
    low = [x for x in range(n) if deg[x] < 3]
    if (lows := len(low)) > 2:  # every pair leaves a bystander of degree below 3
        return False
    for a, b in _ORACLE_PAIRS[n]:
        k = m[a][b]
        if not k or lows and (a in low) + (b in low) < lows:  # no edge, or a low bystander
            continue
        wa, wb, da, db = wt[a], wt[b], deg[a] - k, deg[b] - k
        for l in range(k):  # orderings (a, b) and (b, a)
            if (wa >= l + 1 and wb >= l + 2 or wb >= l + 1 and wa >= l + 2) and da + l >= 3 and db + l >= 3:
                break
        else:
            continue
        if n == 2 or _oracle_exhaust(*_oracle_merge(wt, m, a, b)):
            return True
    return False


def _oracle_merge(wt: list[int], m: list[list[int]], a: int, b: int) -> tuple[list[int], list[list[int]], list[int]]:
    # a < b: deleting b first keeps a's index.  The merged vertex comes last.
    rows = [row + [row[a] + row[b]] for x, row in enumerate(m) if x != a and x != b]
    rows.append([p + q for p, q in zip(m[a], m[b])] + [0])
    for row in rows:
        del row[b], row[a]
    wt = wt + [wt[a] + wt[b]]
    del wt[b], wt[a]
    return wt, rows, [sum(row) for row in rows]


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
    growing step by step because contraction adds them up.  Both are
    checked on every call.
    """
    if not is_spanning_submultigraph(cert.initial, g, embedding):
        raise NotSpanningError("embedding does not exhibit a spanning submultigraph")
    if not verify_certificate(cert):
        raise GraphError("certificate does not verify for its own initial graph")
    return ContractionCertificate(g, _rename_steps(cert.steps, dict(embedding), set(g.vertices)))


def _rename_steps(steps: Iterable[ContractionStep], phi: dict[str, str], live: set[str]) -> tuple[ContractionStep, ...]:
    """``steps`` with each pair renamed by ``phi`` and each merged vertex
    named by the smallest fresh ``m<k>`` not in ``live``, the current
    vertices; both are updated as the steps go."""
    out = []
    name_index = 1
    for step in steps:
        v, w = step.pair
        gv, gw = phi.pop(v), phi.pop(w)
        name_index = _fresh_index(live, name_index)
        gm = phi[step.merged] = f"m{name_index}"
        name_index += 1
        live -= {gv, gw}
        live.add(gm)
        out.append(ContractionStep((gv, gw), step.l, gm))
    return tuple(out)


# ------------------------------------------------------------------ multipartite procedure


def _require_multipartite(g: WeightedMultigraph, min_rdeg: int) -> tuple[frozenset[str], ...]:
    """``g``'s partition, once ``g`` is completely multipartite and each
    vertex, in order, has weight >= 2 and reduced degree >= ``min_rdeg``."""
    part = multipartite_partition(g)
    if part is None:
        triple = find_forbidden_triple(g)
        raise PreconditionError(f"graph is not completely multipartite; forbidden triple {triple}", witness=triple)
    for v in g.vertices:
        if g.weight(v) < 2:
            raise PreconditionError(f"vertex {v!r} has weight {g.weight(v)} < 2", witness=v)
        if g.rdeg(v) < min_rdeg:
            raise PreconditionError(f"vertex {v!r} has reduced degree {g.rdeg(v)} < {min_rdeg}", witness=v)
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
    limit = len(h_set) - 4
    for cls in _require_multipartite(g, 0):
        inside = tuple(sorted(cls & h_set))
        if len(inside) > limit:
            raise PreconditionError(
                f"mutually non-adjacent set {inside} inside the kept set exceeds size {limit}",
                witness=inside,
            )
    kept = sorted(h_set)
    steps, state = _absorb(g, kept)
    edges = [(u, v, state.mult(u, v)) for i, u in enumerate(kept) for v in kept[i + 1:]]
    return steps, WeightedMultigraph({x: state.weights[x] for x in kept}, edges)


def _absorb(g: WeightedMultigraph, kept: list[str]) -> tuple[tuple[ContractionStep, ...], _Replay]:
    """The absorption steps into the sorted vertex list ``kept``, and the
    replay they leave.  Every merge keeps the kept vertex's id, so the
    vertices left outside are those of ``g`` not yet absorbed; they go
    smallest first, each into its smallest adjacent kept vertex.  As every
    weight is >= 2, ``(w, v)`` admits ``l = 0`` iff ``(v, w)`` does."""
    state = _Replay(g)
    steps = []
    for w in g.vertices:
        if w in kept:
            continue
        v = next((u for u in kept if state.mult(w, u)), None)
        if v is None or not state.step(step := ContractionStep((w, v), 0, v)):  # unreachable under the kept set's bound
            raise PreconditionError(f"absorption step for {w!r} is not admissible", witness=w)
        steps.append(step)
    return tuple(steps), state


def contract_multipartite(g: WeightedMultigraph) -> ContractionCertificate:
    """Certify any completely multipartite graph with wt >= 2 and rdeg >= 4.

    Sorts the non-adjacency classes by size, chooses representative
    vertices so that one of the seed graphs ``K1``..``K4`` spans the
    absorbed graph, contracts everything else into the chosen set with
    ``l = 0`` steps, and finishes by lifting the seed's certificate along
    the spanning embedding.  It partitions ``g`` once and builds no
    reduced graph; each step is checked once, on the replay that the
    absorption leaves, so the seed and the embedding are checked there.
    Five shapes cover all class counts:

    * five or more classes: one vertex from each of five classes (``K1``);
    * four classes: 1+1+2+2 representatives (``K2``);
    * three classes, all of size >= 2: 2+2+2 (``K2``);
    * three classes, one singleton: 1+3+3 (``K3``);
    * two classes: 4+4 (``K4``).
    """
    classes = [sorted(c) for c in _require_multipartite(g, 4)]  # already (size, min)-sorted
    k = len(classes)
    # picks[i] becomes the seed's vertex v<i + 1>.
    if k >= 5:
        shape, picks = "K1", [c[0] for c in classes[:5]]
    elif k == 4:
        c0, c1, c2, c3 = classes
        shape, picks = "K2", [c0[0], c2[0], c3[0], c1[0], c2[1], c3[1]]
    elif k == 3 and len(classes[0]) >= 2:
        c0, c1, c2 = classes
        shape, picks = "K2", [c0[0], c1[0], c2[0], c0[1], c1[1], c2[1]]
    elif k == 3:
        c0, c1, c2 = classes
        shape, picks = "K3", [c0[0], c1[0], c2[0], c1[1], c2[1], c1[2], c2[2]]
    elif k == 2:
        c0, c1 = classes
        shape, picks = "K4", [c0[0], c1[0], c0[1], c1[1], c0[2], c1[2], c0[3], c1[3]]
    else:
        raise PreconditionError("graph has a single non-adjacency class, so no edges", witness=None)
    from .fixtures import load_certificate  # fixtures imports this module

    prefix, state = _absorb(g, sorted(picks))
    embedding = {f"v{i}": p for i, p in enumerate(picks, 1)}
    lifted = _rename_steps(load_certificate(shape).steps, embedding, set(picks))
    if not all(map(state.step, lifted)) or len(state.weights) != 1:
        raise GraphError("internal error: constructed certificate failed verification")
    return ContractionCertificate(g, prefix + lifted)

