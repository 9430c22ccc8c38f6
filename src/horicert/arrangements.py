"""Curve arrangements on the base surfaces and their dual graphs.

An arrangement is a list of components, each in one of three
base-point-free roles: lines on the plane, fibers and sections on a ruled
surface.  A component's class is its role's (``Surface.line_class()``,
``fiber_class()`` or ``section_class()``), so all class arithmetic is done
once per role or pair of roles, not per component.  The components are
assumed to be chosen generally (pairwise transversal, no triple points);
that assumption is recorded in every report, not verified, and it is what
makes the dual graph well defined: one vertex per component weighted by
``-K.C``, joined by ``C_i.C_j`` edges.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass

from .multigraph import BoundExceededError, WeightedMultigraph
from .report import Obligation, axiom, check, group
from .surfaces import DivClass, P2, Surface, canonical_class, hirzebruch, intersect
from . import contraction


# Largest arrangement built: the YES path costs about m^2 time and memory
# in the number m of components (the dual graph has m(m-1)/2 edges, built
# one row per role and copied per vertex, and absorbing and verifying its
# certificate sum each pair of components once over m - 1 merges).
MAX_COMPONENTS = 256


def _check_size(m: int) -> None:
    if m > MAX_COMPONENTS:
        raise BoundExceededError(f"arrangement limited to {MAX_COMPONENTS} components, got {m}")


class Role(enum.Enum):
    LINE = "line"
    FIBER = "fiber"
    SECTION = "section"

    def cls(self, surface: Surface) -> DivClass:
        """The class of every component in this role; raises
        :class:`SurfaceMismatchError` on the wrong kind of surface."""
        by_role = {Role.LINE: surface.line_class, Role.FIBER: surface.fiber_class, Role.SECTION: surface.section_class}
        return by_role[self]()


@dataclass(frozen=True)
class Component:
    id: str
    role: Role


@dataclass(frozen=True)
class Arrangement:
    """General-position arrangement of role-tagged components.

    Only the three roles are constructible, so transversality and
    base-point-freeness rest on the recorded general-position assumption
    rather than on unverifiable claims about equations.
    """

    surface: Surface
    components: tuple[Component, ...]

    def __post_init__(self):
        ids = set()
        for comp in self.components:
            if comp.id in ids:
                raise ValueError(f"duplicate component id {comp.id!r}")
            ids.add(comp.id)
        self.role_classes()  # a role on the wrong kind of surface raises here

    @property
    def size(self) -> int:
        return len(self.components)

    def role_classes(self) -> dict[Role, tuple[DivClass, int]]:
        """Each role present, in order of first appearance, with its class
        and its number of components."""
        counts = Counter(c.role for c in self.components)
        return {role: (role.cls(self.surface), n) for role, n in counts.items()}


def general_lines(m: int) -> Arrangement:
    """``m`` lines in general position in the plane, ``1 <= m <= MAX_COMPONENTS``."""
    if m < 1:
        raise ValueError(f"need at least one line, got {m}")
    _check_size(m)
    return Arrangement(P2, tuple(Component(f"L{i}", Role.LINE) for i in range(1, m + 1)))


def fibers_and_sections(N: int, a: int, b: int) -> Arrangement:
    """``a`` general fibers and ``b`` general sections on ``F_N``, with
    ``1 <= a + b <= MAX_COMPONENTS``."""
    if a < 0 or b < 0 or a + b < 1:
        raise ValueError(f"need non-negative counts with at least one component, got {a}, {b}")
    _check_size(a + b)
    comps = [Component(f"F{i}", Role.FIBER) for i in range(1, a + 1)]
    comps += [Component(f"T{j}", Role.SECTION) for j in range(1, b + 1)]
    return Arrangement(hirzebruch(N), tuple(comps))


def from_shorthand(text: str) -> Arrangement:
    """Parse the CLI shorthand ``lines:P2:m=5`` / ``fn:N=1:a=3:b=4``."""
    parts = text.split(":")
    try:
        if parts[0] == "lines" and parts[1] == "P2":
            fields = dict(p.split("=", 1) for p in parts[2:])
            return general_lines(int(fields["m"]))
        if parts[0] == "fn":
            fields = dict(p.split("=", 1) for p in parts[1:])
            return fibers_and_sections(int(fields["N"]), int(fields["a"]), int(fields["b"]))
    except (KeyError, ValueError, IndexError) as exc:
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
    comps = sorted(arr.components, key=lambda c: c.id)
    ids = [c.id for c in comps]
    kinds = [index[c.role] for c in comps]
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
    minus_k_values = {c.id: graph.weight(c.id) for c in arr.components}
    rdeg_values = {v: graph.rdeg(v) for v in graph.vertices}

    roles_ok = check(
        "lemma.zai_gen.classes_base_point_free",
        True,
        detail="components restricted to line/fiber/section roles",
        roles=sorted({c.role.value for c in arr.components}),
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
    sing = contracted_singularities(arr)
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
