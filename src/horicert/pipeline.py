"""End-to-end obligation checking for double covers of the base surfaces.

The deciders reproduce both directions of the classification of Brody
hyperbolic double covers.  The verdict is the degree-bound obligation
(:func:`check_degeneration_bounds`): where it passes, the positive
direction assembles the full chain of combinatorial and numerical
hypotheses (degree bounds, dual-graph contraction certificate, genus of
the half-degree curve, Chern data of the cover), recording every analytic
ingredient as an explicit axiom node; where it fails, the negative
direction computes the rational or elliptic curve that obstructs
hyperbolicity.  Nothing here decides hyperbolicity itself: a ``YES``
certifies the hypotheses, with the axioms as its trust base.
"""

from __future__ import annotations

import math

from .arrangements import check_arrangement_smoothing, fibers_and_sections, general_lines
from .multigraph import BoundExceededError
from .report import Obligation, ObligationReport, Verdict, axiom, check, group
from .surfaces import (
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


_STABILITY = (
    axiom(
        "assumption.stable_subarrangements",
        "dropping any one component keeps the rest stable; granted by the neighbour counts",
    ),
)


def check_degeneration_bounds(surface: Surface, half_class: DivClass, full_class: DivClass) -> Obligation:
    """Degree bounds allowing the two-stage arrangement degeneration.

    Plane: the half class must contain at least five lines (``m >= 5``)
    and the full class degree at least 4.  Ruled surface with the half
    class ``(a, b)`` and full class ``(c, d)``: all four at least 4 when
    ``N = 0``; ``a, c >= 3`` and ``b, d >= 4`` when ``N >= 1``.

    This obligation is the deciders' verdict: an even branch class is
    ``YES`` exactly when it passes, and ``NO`` otherwise.
    """
    if half_class.surface != surface or full_class.surface != surface:
        raise SurfaceMismatchError("degree-bound check needs both classes on the given surface")
    if surface.is_plane:
        name, detail, extra = "corollary.zai_p2", "line-arrangement degeneration bounds on the plane", ()
        bounds = (("m", half_class.d, 5), ("d", full_class.d, 4))
    else:
        bullet, ac_min = ("bullet1", 4) if surface.N == 0 else ("bullet2", 3)
        name, detail, extra = f"corollary.zai_fn.{bullet}", f"degeneration bounds on F_{surface.N}", _STABILITY
        (a, b), (c, d) = half_class.coeffs, full_class.coeffs
        bounds = (("a", a, ac_min), ("b", b, 4), ("c", c, ac_min), ("d", d, 4))
    checks = tuple(check(f"{name}.{k}_ge_{lo}", v >= lo, **{k: v}) for k, v, lo in bounds)
    return group(name, checks + extra, detail=detail)


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


_ANALYTIC_AXIOMS = (
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


def _decide_yes(surface: Surface, half: DivClass, full: DivClass, bounds: Obligation) -> ObligationReport:
    """The YES report: the passed degree bounds, arrangement smoothing,
    cover setup, the analytic axioms, and the Chern data and certificate
    attached.  The arrangement is built only here, from the half class."""
    arr = general_lines(half.d) if surface.is_plane else fibers_and_sections(surface.N, half.a, half.b)
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
    # Every obligation holds once the bounds pass; the report constructor
    # enforces that, so a failure here means a defect in the chain itself.
    return ObligationReport(Verdict.YES, (bounds, smoothing, cover) + _ANALYTIC_AXIOMS, attachments)


def _plane_obstruction(d: int, c1_sq: int) -> Obligation:
    if d <= 4:
        detail = "branch degree <= 4 makes the double cover rational"
        return check("obstruction.rational_surface", True, detail=detail, d=d)
    if d == 6:
        return check(
            "obstruction.k3_surface",
            True,
            detail="branch degree 6 makes the double cover a K3 surface",
            d=d,
            c1_sq=c1_sq,
        )
    transverse = d - 4  # a bitangent line meets the branch curve off the two tangencies
    return check(
        "obstruction.bitangent_elliptic",
        True,
        detail="the pullback of a bitangent line is an elliptic curve",
        d=d,
        transverse_points=transverse,
        pullback_genus=rh_pullback_genus(transverse),
    )


def _ruled_obstruction(full: DivClass) -> Obligation:
    surface = full.surface
    fiber_count = intersect(full, surface.fiber_class())
    if full.b <= 6:
        return check(
            "obstruction.tangent_fiber",
            True,
            detail="a fiber tangent to the branch curve pulls back to genus <= 1",
            b=fiber_count,
            transverse_points=fiber_count - 2,
            pullback_genus=rh_pullback_genus(fiber_count - 2),
        )
    if surface.N == 0:
        other_count = intersect(full, surface.section_class())
        return check(
            "obstruction.tangent_fiber_other_ruling",
            True,
            detail="same tangent-fiber obstruction in the second ruling of F_0",
            a=other_count,
            transverse_points=other_count - 2,
            pullback_genus=rh_pullback_genus(other_count - 2),
            inferred_by_symmetry=True,
        )
    neg_count = intersect(full, surface.negative_section_class())
    return check(
        "obstruction.negative_section",
        True,
        detail="the negative section meets the branch curve in <= 4 points, so pulls back to genus <= 1",
        negative_section_intersection=neg_count,
        pullback_genus=rh_pullback_genus(neg_count),
    )


def _decide(surface: Surface, half: DivClass, full: DivClass) -> ObligationReport:
    """YES when the degree bounds pass; otherwise NO with the surface's
    obstruction and the cover's Chern data attached."""
    bounds = check_degeneration_bounds(surface, half, full)
    if bounds.passed:
        return _decide_yes(surface, half, full, bounds)
    chern = double_cover_chern(surface, half)
    obstruction = _plane_obstruction(full.d, chern.c1_sq) if surface.is_plane else _ruled_obstruction(full)
    return ObligationReport(Verdict.NO, (obstruction,), {"chern": chern.to_json_dict()})


def _not_covered(what: str, **values) -> ObligationReport:
    """The NOT-COVERED report for an odd ``what`` (degree or bidegree)."""
    detail = f"no double cover is branched along an odd-{what} curve"
    return ObligationReport(Verdict.NOT_COVERED, (check(f"not_covered.odd_{what}", True, detail=detail, **values),))


# ------------------------------------------------------------------ deciders


def decide_plane_double_cover(d: int) -> ObligationReport:
    """Classify the double cover of the plane branched in degree ``d``.

    Even degrees are decided by :func:`check_degeneration_bounds`: it
    passes for ``d >= 10``, which certifies the hypothesis chain (``YES``);
    for ``d <= 8`` the obstruction is computed (``NO``: rational for
    ``d <= 4``, a K3 for ``d = 6``, an elliptic bitangent pullback for
    ``d = 8``).  Odd degrees are outside the decided family (``NOT-COVERED``).
    """
    if not isinstance(d, int) or isinstance(d, bool) or d < 2:
        raise ValueError(f"branch degree must be an integer >= 2, got {d!r}")
    if d % 2 != 0:
        return _not_covered("degree", d=d)
    return _decide(P2, P2.div(d // 2), P2.div(d))


def decide_ruled_double_cover(N: int, a: int, b: int) -> ObligationReport:
    """Classify the double cover of ``F_N`` branched in bidegree ``(a, b)``.

    Even bidegrees are decided by :func:`check_degeneration_bounds`: it
    passes (``YES``) exactly for ``a, b >= 8`` on ``F_0`` and ``a >= 6,
    b >= 8`` on ``F_N`` with ``N >= 1``; otherwise the computed obstruction
    is a rational or elliptic pullback of a fiber, of a fiber of the other
    ruling (``N = 0``, by symmetry), or of the negative section
    (``N >= 1``).  Odd bidegrees are ``NOT-COVERED``.
    """
    for name, value in (("N", N), ("a", a), ("b", b)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if N < 0:
        raise ValueError(f"N must be >= 0, got {N}")
    if a < 2 or b < 2:
        raise ValueError(f"branch bidegree must have a, b >= 2, got ({a}, {b})")
    if a % 2 != 0 or b % 2 != 0:
        return _not_covered("bidegree", a=a, b=b)
    surface = hirzebruch(N)
    return _decide(surface, surface.div(a // 2, b // 2), surface.div(a, b))


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
