"""Curve arrangements on the base surfaces and their dual graphs.

An arrangement is a list of divisor classes in one of three base-point-free
roles: lines on the plane, fibers and sections on a ruled surface.  The
components are assumed to be chosen generally (pairwise transversal, no
triple points); that assumption is recorded, not verified, and it is what
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


# Largest arrangement built: the YES path costs about m^3 time and m^2
# memory in the number m of components.
MAX_COMPONENTS = 256


def _check_size(m: int) -> None:
    if m > MAX_COMPONENTS:
        raise BoundExceededError(f"arrangement limited to {MAX_COMPONENTS} components, got {m}")


class Role(enum.Enum):
    LINE = "line"
    FIBER = "fiber"
    SECTION = "section"


_ROLE_CLASS = {
    Role.LINE: lambda s: s.div(1),
    Role.FIBER: lambda s: s.div(1, 0),
    Role.SECTION: lambda s: s.div(0, 1),
}


@dataclass(frozen=True)
class Component:
    id: str
    role: Role
    cls: DivClass


@dataclass(frozen=True)
class Arrangement:
    """General-position arrangement of role-tagged components.

    Only the three roles are constructible, so transversality and
    base-point-freeness rest on the recorded general-position assumption
    rather than on unverifiable claims about equations.
    """

    surface: Surface
    components: tuple[Component, ...]
    general_position: bool = True

    def __post_init__(self):
        ids = set()
        for comp in self.components:
            if comp.id in ids:
                raise ValueError(f"duplicate component id {comp.id!r}")
            ids.add(comp.id)
            if comp.role is Role.LINE and not self.surface.is_plane:
                raise ValueError("lines live on the plane")
            if comp.role is not Role.LINE and self.surface.is_plane:
                raise ValueError(f"{comp.role.value} components live on a ruled surface")
            expected = _ROLE_CLASS[comp.role](self.surface)
            if comp.cls != expected:
                raise ValueError(
                    f"component {comp.id!r} has class {comp.cls}, expected {expected} for role {comp.role.value}"
                )

    @property
    def size(self) -> int:
        return len(self.components)

    def to_json_dict(self) -> dict:
        return {
            "surface": self.surface.to_json_dict(),
            "components": [
                {"id": c.id, "role": c.role.value, "class": c.cls.to_json_dict()["class"]}
                for c in self.components
            ],
            "general_position": self.general_position,
        }

    @classmethod
    def from_json_dict(cls, data) -> "Arrangement":
        try:
            surface = Surface.from_json_dict(data["surface"])
            comps = []
            for item in data["components"]:
                body = item["class"]
                div = surface.div(body["d"]) if surface.is_plane else surface.div(body["a"], body["b"])
                comps.append(Component(item["id"], Role(item["role"]), div))
            return cls(surface, tuple(comps), data.get("general_position", True))
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed arrangement document: {exc}") from None


def general_lines(m: int) -> Arrangement:
    """``m`` lines in general position in the plane, ``1 <= m <= MAX_COMPONENTS``."""
    if m < 1:
        raise ValueError(f"need at least one line, got {m}")
    _check_size(m)
    line = P2.div(1)
    comps = tuple(Component(f"L{i}", Role.LINE, line) for i in range(1, m + 1))
    return Arrangement(P2, comps)


def fibers_and_sections(N: int, a: int, b: int) -> Arrangement:
    """``a`` general fibers and ``b`` general sections on ``F_N``, with
    ``1 <= a + b <= MAX_COMPONENTS``."""
    if a < 0 or b < 0 or a + b < 1:
        raise ValueError(f"need non-negative counts with at least one component, got {a}, {b}")
    _check_size(a + b)
    s = hirzebruch(N)
    comps = [Component(f"F{i}", Role.FIBER, s.div(1, 0)) for i in range(1, a + 1)]
    comps += [Component(f"T{j}", Role.SECTION, s.div(0, 1)) for j in range(1, b + 1)]
    return Arrangement(s, tuple(comps))


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
    ``C_i.C_j``.  Requires the general-position assumption."""
    if not arr.general_position:
        raise ValueError("dual graph needs the general-position assumption")
    minus_k = -canonical_class(arr.surface)
    weights = {c.id: intersect(minus_k, c.cls) for c in arr.components}
    edges = [
        (ci.id, cj.id, intersect(ci.cls, cj.cls))
        for i, ci in enumerate(arr.components)
        for cj in arr.components[i + 1:]
    ]
    return WeightedMultigraph(weights, edges)


def total_class(arr: Arrangement) -> DivClass:
    """Sum of the component classes."""
    total = arr.components[0].cls
    for c in arr.components[1:]:
        total = total + c.cls
    return total


def pairwise_nodes(arr: Arrangement) -> int:
    """Number of pairwise intersection points, counted by class arithmetic."""
    return sum(
        intersect(ci.cls, cj.cls)
        for i, ci in enumerate(arr.components)
        for cj in arr.components[i + 1:]
    )


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
        pairwise_nodes=pairwise_nodes(arr),
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
