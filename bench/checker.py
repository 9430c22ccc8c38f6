"""Independent reference for the benchmark's correctness checks.

Everything here is written from the definitions in the top-level README and
shares no code with ``horicert``: graphs arrive in the JSON wire format
(``{"vertices": [...], "edges": [...]}``) and are held as plain dicts.

Contraction rule.  Merging an adjacent pair ``{v, w}`` is admissible for an
integer ``0 <= l < mult(v, w)`` when every other vertex has degree >= 3, the
pair can be ordered ``(a, b)`` with ``wt(a) >= l + 1`` and ``wt(b) >= l + 2``,
and both endpoints have ``deg - mult + l >= 3``.  The merged vertex weighs
``wt(v) + wt(w)`` and meets every other vertex ``x`` in
``mult(v, x) + mult(w, x)`` edges.

Closed forms.  With ``m = d / 2`` and ``L = mH`` on the plane, and
``L = (a/2) F + (b/2) T`` on ``F_N`` (``F.F = 0``, ``F.T = 1``, ``T.T = N``,
``K = (N - 2) F - 2 T``), the double cover branched along ``2L`` has
``c1^2 = 2 (K + L)^2`` and ``chi = 2 + (L.L + K.L) / 2``; the half class has
genus ``(L.L + K.L) / 2 + 1``.
"""

from __future__ import annotations

from typing import Mapping

Weights = dict
Adjacency = dict


class CheckFailure(Exception):
    """A program output disagrees with the independent reference."""


# ---------------------------------------------------------------- graphs


def graph_from_doc(doc: Mapping) -> tuple[Weights, Adjacency]:
    """Weights and symmetric adjacency rows from the graph wire format."""
    weights = {item["id"]: item["wt"] for item in doc["vertices"]}
    adj: Adjacency = {v: {} for v in weights}
    for e in doc.get("edges", []):
        u, v, m = e["u"], e["v"], e["mult"]
        if m:
            adj[u][v] = adj[u].get(v, 0) + m
            adj[v][u] = adj[v].get(u, 0) + m
    return weights, adj


def degrees(adj: Adjacency) -> dict:
    return {x: sum(row.values()) for x, row in adj.items()}


def is_admissible(weights: Weights, adj: Adjacency, v, w, l: int, deg: dict | None = None) -> bool:
    """The contraction rule, condition by condition.

    ``deg`` may pass in :func:`degrees` of the same graph when many pairs
    of one graph are tested.
    """
    if v == w or v not in weights or w not in weights:
        return False
    mult = adj[v].get(w, 0)
    if not isinstance(l, int) or isinstance(l, bool) or not 0 <= l < mult:
        return False
    if deg is None:
        deg = degrees(adj)
    for x, dx in deg.items():
        if x != v and x != w and dx < 3:
            return False
    ordered = (weights[v] >= l + 1 and weights[w] >= l + 2) or (
        weights[w] >= l + 1 and weights[v] >= l + 2
    )
    if not ordered:
        return False
    return deg[v] - mult + l >= 3 and deg[w] - mult + l >= 3


def merge(weights: Weights, adj: Adjacency, v, w, name) -> tuple[Weights, Adjacency]:
    """Merge ``v`` and ``w`` into a vertex called ``name``."""
    new_w = {x: wx for x, wx in weights.items() if x != v and x != w}
    new_w[name] = weights[v] + weights[w]
    new_adj: Adjacency = {name: {}}
    for x, row in adj.items():
        if x == v or x == w:
            continue
        new_row = {}
        joined = 0
        for y, m in row.items():
            if y == v or y == w:
                joined += m
            else:
                new_row[y] = m
        if joined:
            new_row[name] = joined
            new_adj[name][x] = joined
        new_adj[x] = new_row
    return new_w, new_adj


def replay(cert_doc: Mapping, require_singleton: bool = True) -> tuple[Weights, Adjacency]:
    """Replay a certificate document, checking every step literally.

    Returns the final graph; raises :class:`CheckFailure` at the first step
    that is not admissible, whose merged id collides with a bystander, or
    (with ``require_singleton``) when the replay does not end in one vertex
    carrying the total initial weight.
    """
    weights, adj = graph_from_doc(cert_doc["initial"])
    total = sum(weights.values())
    for i, step in enumerate(cert_doc["steps"]):
        v, w = step["pair"]
        name = step["merged"]
        if not is_admissible(weights, adj, v, w, step["l"]):
            raise CheckFailure(f"step {i} {step} is not admissible")
        if name in weights and name not in (v, w):
            raise CheckFailure(f"step {i} reuses the id of bystander {name!r}")
        weights, adj = merge(weights, adj, v, w, name)
    if require_singleton:
        if len(weights) != 1:
            raise CheckFailure(f"replay ends in {len(weights)} vertices, not one")
        if sum(weights.values()) != total:
            raise CheckFailure("final vertex does not carry the total weight")
    return weights, adj


class BudgetExceeded(Exception):
    """The literal search visited more states than it was allowed."""


def is_contractible(weights: Weights, adj: Adjacency, max_states: int | None = None) -> bool:
    """Literal exhaustive search for an admissible sequence to one vertex.

    A state is the partition of the original vertices into merged blocks;
    the graph it stands for is fully determined by that partition, so
    remembering failed partitions is exact.  Every admissible merge is
    tried, with no shortcut and no pruning.  Raises :class:`BudgetExceeded`
    once ``max_states`` states have failed.
    """
    if not weights:
        return False
    failed: set = set()

    def quotient(blocks):
        q_w = {b: sum(weights[x] for x in b) for b in blocks}
        q_adj: Adjacency = {b: {} for b in blocks}
        owner = {x: b for b in blocks for x in b}
        for x, row in adj.items():
            bx = owner[x]
            for y, m in row.items():
                by = owner[y]
                if bx != by:
                    q_adj[bx][by] = q_adj[bx].get(by, 0) + m
        return q_w, q_adj

    def search(blocks: frozenset) -> bool:
        if len(blocks) == 1:
            return True
        if blocks in failed:
            return False
        if max_states is not None and len(failed) >= max_states:
            raise BudgetExceeded(f"more than {max_states} states")
        q_w, q_adj = quotient(blocks)
        deg = degrees(q_adj)
        order = sorted(blocks, key=sorted)
        for i, b in enumerate(order):
            for c in order[i + 1:]:
                mult = q_adj[b].get(c, 0)
                if any(is_admissible(q_w, q_adj, b, c, l, deg) for l in range(mult)):
                    if search((blocks - {b, c}) | {b | c}):
                        return True
        failed.add(blocks)
        return False

    return search(frozenset(frozenset([v]) for v in weights))


def relabel_doc(doc: Mapping, mapping: Mapping) -> dict:
    """The same graph document with every vertex id renamed."""
    return {
        "vertices": [{"id": mapping[v["id"]], "wt": v["wt"]} for v in doc["vertices"]],
        "edges": [{"u": mapping[e["u"]], "v": mapping[e["v"]], "mult": e["mult"]} for e in doc["edges"]],
    }


# ---------------------------------------------------------------- closed forms


def plane_yes(d: int) -> bool:
    """The plane's YES boundary: even branch degree ``d >= 10``."""
    return d % 2 == 0 and d >= 10


def ruled_yes(N: int, a: int, b: int) -> bool:
    """The YES boundary on ``F_N`` for an even bidegree ``(a, b)``."""
    if a % 2 or b % 2:
        return False
    if N == 0:
        return a >= 8 and b >= 8
    return a >= 6 and b >= 8


def plane_cover(m: int) -> dict:
    """Chern data and half-class genus of the cover branched in degree ``2m``."""
    c1_sq = 2 * (m - 3) ** 2
    chi = 2 + (m * m - 3 * m) // 2
    return {"c1_sq": c1_sq, "chi": chi, "c2": 12 * chi - c1_sq, "half_genus": (m - 1) * (m - 2) // 2}


def ruled_cover(N: int, p: int, q: int) -> dict:
    """Same data on ``F_N`` for the half class ``L = pF + qT``.

    ``K + L = (p + N - 2) F + (q - 2) T``, so
    ``(K + L)^2 = 2 (p + N - 2)(q - 2) + N (q - 2)^2``;
    ``L.L = 2pq + N q^2`` and ``K.L = -2p - (N + 2) q``.
    """
    c1_sq = 2 * (2 * (p + N - 2) * (q - 2) + N * (q - 2) ** 2)
    half = (2 * p * q + N * q * q - 2 * p - (N + 2) * q) // 2
    chi = 2 + half
    return {"c1_sq": c1_sq, "chi": chi, "c2": 12 * chi - c1_sq, "half_genus": half + 1}


def horikawa_even(c1_sq: int, c2: int) -> bool:
    """``c2 = 5 c1^2 + 36`` with even ``c1^2``: the Noether-line equality."""
    return c1_sq % 2 == 0 and c2 == 5 * c1_sq + 36


def check_plane_dual_graph(doc: Mapping, m: int) -> None:
    """The plane dual graph is ``K_m``: every weight 3, every multiplicity 1."""
    weights, adj = graph_from_doc(doc)
    if len(weights) != m:
        raise CheckFailure(f"dual graph has {len(weights)} vertices, expected {m}")
    if any(w != 3 for w in weights.values()):
        raise CheckFailure("a line has -K.H != 3")
    for v, row in adj.items():
        if len(row) != m - 1 or any(x != 1 for x in row.values()):
            raise CheckFailure(f"line {v!r} does not meet every other line once")


def check_ruled_dual_graph(doc: Mapping, N: int, p: int, q: int) -> None:
    """Dual graph of ``p`` fibers and ``q`` sections on ``F_N``.

    Fibers weigh 2 and miss each other; sections weigh ``N + 2`` and meet
    each other ``N`` times; a fiber meets a section once.  Fibers are told
    apart from sections by their neighbourhoods alone, so the check does
    not depend on vertex names.
    """
    weights, adj = graph_from_doc(doc)
    if len(weights) != p + q:
        raise CheckFailure(f"dual graph has {len(weights)} vertices, expected {p + q}")
    if N > 0:
        fibers = {v for v in weights if weights[v] == 2}
    elif p != q:
        fibers = {v for v in weights if len(adj[v]) == q}
    else:
        # The two sides of K_{p,p} are interchangeable: take the side of
        # one vertex, i.e. that vertex and its non-neighbours.
        v0 = min(weights)
        fibers = {v for v in weights if v not in adj[v0]}
    if len(fibers) != p:
        raise CheckFailure(f"found {len(fibers)} fiber vertices, expected {p}")
    for v, row in adj.items():
        is_fiber = v in fibers
        if weights[v] != (2 if is_fiber else N + 2):
            raise CheckFailure(f"vertex {v!r} has weight {weights[v]}")
        for x in weights:
            if x == v:
                continue
            if is_fiber and x in fibers:
                want = 0
            elif is_fiber or x in fibers:
                want = 1
            else:
                want = N
            if row.get(x, 0) != want:
                raise CheckFailure(f"multiplicity of ({v!r}, {x!r}) is {row.get(x, 0)}, expected {want}")
