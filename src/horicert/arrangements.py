"""Curve arrangements on the base surfaces and their dual graphs.

An arrangement is a count of components in each of three
base-point-free roles: lines on the plane, fibers and sections on a ruled
surface.  A component's class is its role's (``Surface.line_class()``,
``fiber_class()`` or ``section_class()``), so all class arithmetic is done
once per role or pair of roles, not per component.  Each role's class is
built once, when the arrangement is checked, and kept with it:
``role_classes()`` hands out a copy of what was kept, and the dual graph,
the total class and the node count all read it.  The components are
assumed to be chosen generally (pairwise transversal, no triple points);
that assumption is recorded in every report, not verified, and it is what
makes the dual graph well defined: one vertex per component weighted by
``-K.C``, joined by ``C_i.C_j`` edges.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .multigraph import BoundExceededError, WeightedMultigraph
from .report import Obligation, axiom, check, group
from .surfaces import DivClass, P2, Surface, canonical_class, hirzebruch, intersect
from . import contraction


# Largest arrangement built, and the largest certificate ``cert-verify``
# reads: the YES path costs about m^2 time and memory in the number m of
# components (the dual graph has m(m-1)/2 edges, built one row per role
# and copied per vertex, and absorbing and verifying its certificate sum
# each pair of components once over m - 1 merges).
MAX_COMPONENTS = 256


class Role(enum.Enum):
    LINE = "line"
    FIBER = "fiber"
    SECTION = "section"

    def cls(self, surface: Surface) -> DivClass:
        """The class of every component in this role; raises
        :class:`SurfaceMismatchError` on the wrong kind of surface."""
        by_role = {Role.LINE: surface.line_class, Role.FIBER: surface.fiber_class, Role.SECTION: surface.section_class}
        return by_role[self]()


_ID_PREFIX = {Role.LINE: "L", Role.FIBER: "F", Role.SECTION: "T"}


@dataclass(frozen=True)
class Arrangement:
    """General-position arrangement: ``counts`` holds ``(role, n)`` pairs,
    each role at most once, for ``n`` components in that role, and at
    least one component in all.

    Only the three roles are constructible, so transversality and
    base-point-freeness rest on the recorded general-position assumption
    rather than on unverifiable claims about equations.  The check builds
    each counted role's class and keeps it for :meth:`role_classes`; the
    kept classes are not fields, so equality and hashing see only
    ``surface`` and ``counts``.
    """

    surface: Surface
    counts: tuple[tuple[Role, int], ...]

    def __post_init__(self):
        if len(dict(self.counts)) != len(self.counts):
            raise ValueError("each role may be counted only once")
        classes = {}
        for role, n in self.counts:
            cls = role.cls(self.surface)  # a role on the wrong kind of surface raises here
            if not isinstance(n, int) or isinstance(n, bool) or n < 0:
                raise ValueError(f"count of role {role.value!r} must be a non-negative integer, got {n!r}")
            if n:
                classes[role] = (cls, n)
        object.__setattr__(self, "_role_classes", classes)
        if self.size < 1:
            raise ValueError("an arrangement needs at least one component")
        if self.size > MAX_COMPONENTS:
            raise BoundExceededError(f"arrangement limited to {MAX_COMPONENTS} components, got {self.size}")

    @property
    def size(self) -> int:
        return sum(n for _, n in self.counts)

    def role_classes(self) -> dict[Role, tuple[DivClass, int]]:
        """Each role with at least one component, in the order of
        ``counts``, with its class and its number of components: a new
        dict of the classes built when the arrangement was checked, so a
        caller that changes it changes nothing kept."""
        return dict(self._role_classes)

    def components(self) -> list[tuple[str, Role]]:
        """``(id, role)`` of every component, in the order of ``counts``:
        lines ``L1``.., fibers ``F1``.. and sections ``T1``.."""
        return [(f"{_ID_PREFIX[role]}{i}", role) for role, n in self.counts for i in range(1, n + 1)]


def general_lines(m: int) -> Arrangement:
    """``m`` lines in general position in the plane, ``1 <= m <= MAX_COMPONENTS``."""
    if m < 1:
        raise ValueError(f"need at least one line, got {m}")
    return Arrangement(P2, ((Role.LINE, m),))


def fibers_and_sections(N: int, a: int, b: int) -> Arrangement:
    """``a`` general fibers and ``b`` general sections on ``F_N``, with
    ``1 <= a + b <= MAX_COMPONENTS``."""
    if a < 0 or b < 0 or a + b < 1:
        raise ValueError(f"need non-negative counts with at least one component, got {a}, {b}")
    return Arrangement(hirzebruch(N), ((Role.FIBER, a), (Role.SECTION, b)))


def _shorthand_fields(parts: list[str], names: tuple[str, ...]) -> list[int]:
    fields = dict(p.split("=", 1) for p in parts)
    if len(fields) != len(parts) or fields.keys() != set(names):
        raise ValueError(f"fields must be {', '.join(names)}, each once")
    return [int(fields[name]) for name in names]


def from_shorthand(text: str) -> Arrangement:
    """Parse the CLI shorthand ``lines:P2:m=5`` / ``fn:N=1:a=3:b=4``, each
    field given once in any order."""
    parts = text.split(":")
    try:
        if parts[0] == "lines" and parts[1] == "P2":
            return general_lines(*_shorthand_fields(parts[2:], ("m",)))
        if parts[0] == "fn":
            return fibers_and_sections(*_shorthand_fields(parts[1:], ("N", "a", "b")))
    except (ValueError, IndexError) as exc:
        raise ValueError(f"bad arrangement shorthand {text!r}: {exc}") from None
    raise ValueError(f"bad arrangement shorthand {text!r}")


# ------------------------------------------------------------------ numbers


def dual_graph(arr: Arrangement) -> WeightedMultigraph:
    """Dual graph: one vertex per component, weight ``-K.C``, multiplicity
    ``C_i.C_j``, each computed once per role or pair of roles.

    Components of one role have the same row: the multiplicity to every
    other component, in id order.  So each role's row is built once and
    each vertex's row is a copy of it without the vertex itself.
    """
    role_classes = arr.role_classes()
    classes = [cls for cls, _ in role_classes.values()]
    index = {role: k for k, role in enumerate(role_classes)}
    minus_k = -canonical_class(arr.surface)
    weight = [intersect(minus_k, cls) for cls in classes]
    comps = sorted(arr.components())
    ids = [x for x, _ in comps]
    kinds = [index[role] for _, role in comps]
    role_rows = []
    for cls in classes:
        mult = [intersect(cls, other) for other in classes]
        role_rows.append({x: mult[k] for x, k in zip(ids, kinds) if mult[k]})
    weights, adj = {}, {}
    for x, k in zip(ids, kinds):
        weights[x] = weight[k]
        row = adj[x] = role_rows[k].copy()
        row.pop(x, None)
    return WeightedMultigraph._from_parts(weights, adj)


def total_class(arr: Arrangement) -> DivClass:
    """Sum of the component classes."""
    terms = [n * cls for cls, n in arr.role_classes().values()]
    return sum(terms[1:], terms[0])


def pairwise_nodes(arr: Arrangement) -> int:
    """Number of pairwise intersection points: ``(T.T - sum C_i.C_i) / 2``
    with ``T`` the total class."""
    total = total_class(arr)
    squares = sum(n * intersect(cls, cls) for cls, n in arr.role_classes().values())
    return (intersect(total, total) - squares) // 2


def contracted_singularities(arr: Arrangement) -> int:
    """Nodes surviving a full contraction of the dual graph: each of the
    ``m - 1`` merges smooths one intersection point."""
    return pairwise_nodes(arr) - (arr.size - 1)


# ------------------------------------------------------------------ obligations


def check_arrangement_smoothing(arr: Arrangement) -> tuple[Obligation, contraction.ContractionCertificate | None]:
    """Can the arrangement be smoothed into one hyperbolic-genus curve?

    Checks the combinatorial hypotheses: base-point-free roles, every
    component with ``-K.C >= 2`` and at least four neighbours, a dual
    graph that certifiably contracts to a point, and the smoothing bounds
    ``-K.C_total >= 8`` with at least four surviving nodes.  Returns the
    obligation tree plus the contraction certificate when one exists.
    """
    graph = dual_graph(arr)
    minus_k_values = {v: graph.weight(v) for v in graph.vertices}
    rdeg_values = {v: graph.rdeg(v) for v in graph.vertices}

    roles_ok = check(
        "lemma.zai_gen.classes_base_point_free",
        True,
        detail="components restricted to line/fiber/section roles",
        roles=sorted(role.value for role in arr.role_classes()),
    )
    min_wt = min(minus_k_values.values())
    wt_ok = check(
        "lemma.zai_gen.weights_ge_2",
        min_wt >= 2,
        detail="-K.C_i >= 2 for every component",
        min_weight=min_wt,
        witness=min(minus_k_values, key=lambda v: (minus_k_values[v], v)),
    )
    min_rdeg = min(rdeg_values.values())
    rdeg_ok = check(
        "lemma.zai_gen.rdeg_ge_4",
        min_rdeg >= 4,
        detail="every component meets at least four others",
        min_rdeg=min_rdeg,
        witness=min(rdeg_values, key=lambda v: (rdeg_values[v], v)),
    )

    cert = None
    if wt_ok.passed and rdeg_ok.passed:
        try:
            cert = contraction.contract_multipartite(graph)
            contract_ok = check(
                "lemma.zai_gen.contractible",
                True,
                detail="dual graph admissibly contracts to a singleton",
                steps=len(cert.steps),
            )
        except contraction.PreconditionError as exc:
            contract_ok = check(
                "lemma.zai_gen.contractible", False, detail=str(exc), witness=repr(exc.witness)
            )
    else:
        contract_ok = check(
            "lemma.zai_gen.contractible",
            False,
            detail="not attempted: weight or neighbour bound already failed",
        )

    minus_k_total = graph.total_weight()
    nodes = pairwise_nodes(arr)
    sing = nodes - (arr.size - 1)  # contracted_singularities(arr), nodes counted once
    smooth_deg = check(
        "lemma.hypsmooth.minus_k_ge_8",
        minus_k_total >= 8,
        detail="-K.C >= 8 for the contracted curve",
        minus_k_total=minus_k_total,
    )
    smooth_sing = check(
        "lemma.hypsmooth.sing_ge_4",
        sing >= 4,
        detail="contracted curve keeps at least 4 nodes",
        singular_points=sing,
        pairwise_nodes=nodes,
        components=arr.size,
    )
    assumption = axiom(
        "assumption.general_position",
        "components chosen generally: pairwise transversal, no triple points",
    )
    node = group(
        "lemma.zai_gen",
        (roles_ok, wt_ok, rdeg_ok, contract_ok, smooth_deg, smooth_sing, assumption),
        detail="arrangement smooths to a single hyperbolic curve",
        surface=str(arr.surface),
        components=arr.size,
    )
    return node, cert
