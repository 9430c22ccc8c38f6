"""End-to-end obligation checking for double covers of the base surfaces.

The deciders reproduce both directions of the classification of Brody
hyperbolic double covers: the positive direction assembles the full chain
of combinatorial and numerical hypotheses (degree bounds, dual-graph
contraction certificate, genus of the half-degree curve, Chern data of
the cover), recording every analytic ingredient as an explicit axiom
node; the negative direction computes the rational or elliptic curve that
obstructs hyperbolicity.  Nothing here decides hyperbolicity itself: a
``YES`` certifies the hypotheses, with the axioms as its trust base.
"""

from __future__ import annotations

import math

from .arrangements import Arrangement, check_arrangement_smoothing, fibers_and_sections, general_lines
from .multigraph import BoundExceededError
from .report import Obligation, ObligationReport, Verdict, axiom, check, group
from .surfaces import (
    SPLIT,
    DivClass,
    P2,
    Surface,
    SurfaceMismatchError,
    adjunction_genus,
    double_cover_chern,
    hirzebruch,
    intersect,
    rh_pullback_genus,
)


# ------------------------------------------------------------------ fragments


def check_degeneration_bounds(surface: Surface, half_class: DivClass, full_class: DivClass) -> Obligation:
    """Degree bounds allowing the two-stage arrangement degeneration.

    Plane: the half class must contain at least five lines (``m >= 5``)
    and the full class degree at least 4.  Ruled surface with the half
    class ``(a, b)`` and full class ``(c, d)``: all four at least 4 when
    ``N = 0``; ``a, c >= 3`` and ``b, d >= 4`` when ``N >= 1``.
    """
    if half_class.surface != surface or full_class.surface != surface:
        raise SurfaceMismatchError("degree-bound check needs both classes on the given surface")
    if surface.is_plane:
        m, d = half_class.d, full_class.d
        return group(
            "corollary.zai_p2",
            (
                check("corollary.zai_p2.m_ge_5", m >= 5, m=m),
                check("corollary.zai_p2.d_ge_4", d >= 4, d=d),
            ),
            detail="line-arrangement degeneration bounds on the plane",
        )
    bullet, ac_min = ("bullet1", 4) if surface.N == 0 else ("bullet2", 3)
    name = f"corollary.zai_fn.{bullet}"
    bounds = (
        ("a", half_class.a, ac_min),
        ("b", half_class.b, 4),
        ("c", full_class.a, ac_min),
        ("d", full_class.b, 4),
    )
    stability = axiom(
        "assumption.stable_subarrangements",
        "dropping any one component keeps the rest stable; granted by the neighbour counts",
    )
    return group(
        name,
        tuple(check(f"{name}.{k}_ge_{lo}", v >= lo, **{k: v}) for k, v, lo in bounds) + (stability,),
        detail=f"degeneration bounds on F_{surface.N}",
    )


def check_cyclic_cover_setup(surface: Surface, c_class: DivClass, s_class: DivClass, n: int) -> Obligation:
    """Checkable hypotheses for passing hyperbolicity to a cyclic cover.

    The branch class must be ``n`` times the curve class, and the curve
    class must have genus at least 2 (the computable reason the curve
    itself is hyperbolic).
    """
    if c_class.surface != surface or s_class.surface != surface:
        raise SurfaceMismatchError("cover-setup check needs both classes on the given surface")
    divisible = s_class == n * c_class
    genus = adjunction_genus(c_class)
    return group(
        "lemma.finaldef",
        (
            check(
                "lemma.finaldef.branch_is_nth_multiple",
                divisible,
                n=n,
                c_class=str(c_class),
                s_class=str(s_class),
            ),
            check("lemma.finaldef.curve_genus_ge_2", genus >= 2, genus=genus),
        ),
        detail="cyclic-cover degeneration hypotheses",
    )


def _analytic_axioms() -> tuple[Obligation, ...]:
    return (
        axiom(
            "axiom.stability_of_intersections",
            "a limit of entire curves keeps meeting every divisor the approximants met",
        ),
        axiom(
            "axiom.arrangement_complement_hyperbolic",
            "the complement of the chosen line/fiber arrangement is Brody hyperbolic (classical)",
        ),
        axiom(
            "axiom.pencil_degeneration",
            "hyperbolicity survives replacing a pencil member supported on the arrangement by a nearby smooth one",
        ),
        axiom(
            "axiom.rational_tree_smoothing",
            "a transversal union of rational curves with enough -K degree deforms to an irreducible rational nodal curve",
        ),
        axiom(
            "axiom.cover_degeneration",
            "hyperbolicity passes from the split limit cover to nearby smooth cyclic covers",
        ),
    )


def _genus_value(g) -> object:
    return "SPLIT" if g is SPLIT else g


def _decide_yes(surface: Surface, half: DivClass, full: DivClass, arr: Arrangement) -> ObligationReport:
    """The YES report: degree bounds, arrangement smoothing, cover setup,
    the analytic axioms, and the Chern data and certificate attached."""
    bounds = check_degeneration_bounds(surface, half, full)
    smoothing, cert = check_arrangement_smoothing(arr)
    cover = check_cyclic_cover_setup(surface, half, full, 2)
    # The cover check computed the half class's genus; attach that value.
    genus = next(n for n in cover.children if n.name == "lemma.finaldef.curve_genus_ge_2")
    chern = double_cover_chern(surface, half)
    attachments = {
        "chern": chern.to_json_dict(),
        "half_genus": dict(genus.values)["genus"],
        "horikawa_case": chern.horikawa_case(),
    }
    if cert is not None:
        attachments["certificate"] = cert.to_json_dict()
    obligations = (bounds, smoothing, cover) + _analytic_axioms()
    # Every obligation holds on the deciders' YES ranges; the report constructor
    # enforces that, so a failure here means a defect in the chain itself.
    return ObligationReport(Verdict.YES, obligations, attachments)


# ------------------------------------------------------------------ deciders


def decide_plane_double_cover(d: int) -> ObligationReport:
    """Classify the double cover of the plane branched in degree ``d``.

    Even ``d >= 10`` certifies the hypothesis chain (``YES``); even
    ``d <= 8`` computes the obstruction (``NO``: rational for ``d <= 4``,
    a K3 for ``d = 6``, an elliptic bitangent pullback for ``d = 8``).
    Odd degrees are outside the decided family (``NOT-COVERED``).
    """
    if not isinstance(d, int) or isinstance(d, bool) or d < 2:
        raise ValueError(f"branch degree must be an integer >= 2, got {d!r}")
    if d % 2 != 0:
        return ObligationReport(
            Verdict.NOT_COVERED,
            (
                check(
                    "not_covered.odd_degree",
                    True,
                    detail="no double cover is branched along an odd-degree curve",
                    d=d,
                ),
            ),
        )
    if d <= 8:
        chern = double_cover_chern(P2, P2.div(d // 2))
        if d <= 4:
            obstruction = check(
                "obstruction.rational_surface",
                True,
                detail="branch degree <= 4 makes the double cover rational",
                d=d,
            )
        elif d == 6:
            obstruction = check(
                "obstruction.k3_surface",
                True,
                detail="branch degree 6 makes the double cover a K3 surface",
                d=d,
                c1_sq=chern.c1_sq,
            )
        else:
            transverse = d - 4  # a bitangent line meets the branch curve off the two tangencies
            genus = rh_pullback_genus(transverse)
            obstruction = check(
                "obstruction.bitangent_elliptic",
                True,
                detail="the pullback of a bitangent line is an elliptic curve",
                d=d,
                transverse_points=transverse,
                pullback_genus=_genus_value(genus),
            )
        return ObligationReport(Verdict.NO, (obstruction,), {"chern": chern.to_json_dict()})
    m = d // 2
    return _decide_yes(P2, P2.div(m), P2.div(d), general_lines(m))


def decide_ruled_double_cover(N: int, a: int, b: int) -> ObligationReport:
    """Classify the double cover of ``F_N`` branched in bidegree ``(a, b)``.

    Even bidegrees certify (``YES``) exactly for ``a, b >= 8`` on ``F_0``
    and ``a >= 6, b >= 8`` on ``F_N`` with ``N >= 1``; otherwise the
    computed obstruction is a rational or elliptic pullback of a fiber, of
    a fiber of the other ruling (``N = 0``, by symmetry), or of the
    negative section (``N >= 1``).  Odd bidegrees are ``NOT-COVERED``.
    """
    for name, value in (("N", N), ("a", a), ("b", b)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if N < 0:
        raise ValueError(f"N must be >= 0, got {N}")
    if a < 2 or b < 2:
        raise ValueError(f"branch bidegree must have a, b >= 2, got ({a}, {b})")
    if a % 2 != 0 or b % 2 != 0:
        return ObligationReport(
            Verdict.NOT_COVERED,
            (
                check(
                    "not_covered.odd_bidegree",
                    True,
                    detail="no double cover is branched along an odd-bidegree curve",
                    a=a,
                    b=b,
                ),
            ),
        )
    surface = hirzebruch(N)
    branch = surface.div(a, b)
    hyperbolic_range = (N == 0 and a >= 8 and b >= 8) or (N >= 1 and a >= 6 and b >= 8)
    if not hyperbolic_range:
        chern = double_cover_chern(surface, surface.div(a // 2, b // 2))
        fiber_count = intersect(branch, surface.fiber_class())
        if b <= 6:
            genus = rh_pullback_genus(fiber_count - 2)
            obstruction = check(
                "obstruction.tangent_fiber",
                True,
                detail="a fiber tangent to the branch curve pulls back to genus <= 1",
                b=fiber_count,
                transverse_points=fiber_count - 2,
                pullback_genus=_genus_value(genus),
            )
        elif N == 0:
            other_count = intersect(branch, surface.section_class())
            genus = rh_pullback_genus(other_count - 2)
            obstruction = check(
                "obstruction.tangent_fiber_other_ruling",
                True,
                detail="same tangent-fiber obstruction in the second ruling of F_0",
                a=other_count,
                transverse_points=other_count - 2,
                pullback_genus=_genus_value(genus),
                inferred_by_symmetry=True,
            )
        else:
            neg_count = intersect(branch, surface.negative_section_class())
            genus = rh_pullback_genus(neg_count)
            obstruction = check(
                "obstruction.negative_section",
                True,
                detail="the negative section meets the branch curve in <= 4 points, so pulls back to genus <= 1",
                negative_section_intersection=neg_count,
                pullback_genus=_genus_value(genus),
            )
        return ObligationReport(Verdict.NO, (obstruction,), {"chern": chern.to_json_dict()})
    half = surface.div(a // 2, b // 2)
    return _decide_yes(surface, half, branch, fibers_and_sections(N, a // 2, b // 2))


MAX_FACTOR_DEGREE = 10**12


def cyclic_cover_factorization(d: int) -> tuple[int, int] | None:
    """Factor ``d = d1 * d2`` with ``d1 >= 2`` and ``d2 >= 5``, smallest ``d1``.

    Such a split is what lets a degree-``d`` cyclic cover of the plane be
    built over a degree-``d1`` cover with hyperbolic genus bounds on the
    degree-``d2`` half; ``None`` means no admissible split exists.  Every
    divisor ``d1 >= 2`` is at least the smallest prime factor ``p`` of
    ``d``, so the answer is ``(p, d // p)`` when ``d // p >= 5`` and
    ``None`` otherwise; ``p`` is found by trial division up to ``isqrt(d)``,
    and ``d`` is limited to ``MAX_FACTOR_DEGREE`` so that stays fast.
    """
    if not isinstance(d, int) or isinstance(d, bool) or d < 2:
        raise ValueError(f"degree must be an integer >= 2, got {d!r}")
    if d > MAX_FACTOR_DEGREE:
        raise BoundExceededError(f"factorization limited to degree {MAX_FACTOR_DEGREE}, got {d}")
    p = next((q for q in range(2, math.isqrt(d) + 1) if d % q == 0), d)
    return (p, d // p) if d // p >= 5 else None
