"""Exact intersection arithmetic on the plane and the Hirzebruch surfaces.

Divisor classes are integer vectors: a degree ``d`` on the projective
plane, or a bidegree ``(a, b)`` meaning ``a*F + b*T`` on the ruled surface
``F_N`` with fiber ``F`` and a section ``T`` of self-intersection ``N``
(so ``F.F = 0``, ``F.T = 1``, ``T.T = N``).  Everything here is plain
integer arithmetic; no floating point is used anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass


class SurfaceMismatchError(ValueError):
    """Classes from different base surfaces were combined."""


@dataclass(frozen=True)
class Surface:
    """The projective plane (``kind="P2"``) or a Hirzebruch surface
    (``kind="FN"`` with ``N >= 0``)."""

    kind: str
    N: int = 0

    def __post_init__(self):
        if self.kind not in ("P2", "FN"):
            raise ValueError(f"unknown surface kind {self.kind!r}")
        if not isinstance(self.N, int) or isinstance(self.N, bool):
            raise ValueError(f"Hirzebruch parameter must be an integer, got {self.N!r}")
        if self.kind == "P2" and self.N != 0:
            raise ValueError("the plane takes no ruling parameter")
        if self.N < 0:
            raise ValueError(f"Hirzebruch parameter must be >= 0, got {self.N}")

    @property
    def is_plane(self) -> bool:
        return self.kind == "P2"

    def div(self, *coeffs: int) -> "DivClass":
        """Divisor class from coefficients: ``div(d)`` on P2, ``div(a, b)`` on F_N."""
        expected = 1 if self.is_plane else 2
        if len(coeffs) != expected:
            raise ValueError(f"{self} takes {expected} coefficient(s), got {len(coeffs)}")
        if not all(isinstance(c, int) and not isinstance(c, bool) for c in coeffs):
            raise ValueError(f"coefficients must be integers, got {coeffs!r}")
        return DivClass(self, tuple(coeffs))

    # The fixed classes below are literals, so they skip ``div``'s checks,
    # which are for coefficients from outside.

    def line_class(self) -> "DivClass":
        if not self.is_plane:
            raise SurfaceMismatchError("line class lives on the plane")
        return DivClass(self, (1,))

    def fiber_class(self) -> "DivClass":
        if self.is_plane:
            raise SurfaceMismatchError("fiber class lives on a ruled surface")
        return DivClass(self, (1, 0))

    def section_class(self) -> "DivClass":
        if self.is_plane:
            raise SurfaceMismatchError("section class lives on a ruled surface")
        return DivClass(self, (0, 1))

    def negative_section_class(self) -> "DivClass":
        """The class ``T - N*F`` of the section with self-intersection ``-N``."""
        if self.is_plane:
            raise SurfaceMismatchError("negative section lives on a ruled surface")
        return DivClass(self, (-self.N, 1))

    def to_json_dict(self) -> dict:
        if self.is_plane:
            return {"kind": "P2"}
        return {"kind": "FN", "N": self.N}

    @classmethod
    def from_json_dict(cls, data) -> "Surface":
        if not isinstance(data, dict):
            raise ValueError(f"surface must be an object, got {data!r}")
        kind = data.get("kind")
        if kind not in ("P2", "FN"):
            raise ValueError(f"unknown surface kind {kind!r}")
        what = "a P2 surface" if kind == "P2" else "an FN surface"
        _refuse_unknown(data, ("kind",) if kind == "P2" else ("kind", "N"), what)
        return P2 if kind == "P2" else cls("FN", _int_field(data, "N", what))

    def __str__(self) -> str:
        return "P2" if self.is_plane else f"F{self.N}"


P2 = Surface("P2")


def _int_field(data: dict, key: str, what: str) -> int:
    """``data[key]`` of a parsed JSON object, which must be an integer."""
    if key not in data:
        raise ValueError(f"{what} needs the integer field {key!r}")
    value = data[key]
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{what} needs an integer {key!r}, got {value!r}")
    return value


def _refuse_unknown(data: dict, keys: tuple[str, ...], what: str) -> None:
    """Refuse a parsed JSON object with a field outside ``keys``."""
    unknown = [k for k in data if k not in keys]
    if unknown:
        raise ValueError(f"{what} has unknown field(s) {', '.join(map(repr, unknown))}")


def hirzebruch(N: int) -> Surface:
    return Surface("FN", N)


@dataclass(frozen=True)
class DivClass:
    """Integer divisor class on a fixed base surface."""

    surface: Surface
    coeffs: tuple[int, ...]

    @property
    def d(self) -> int:
        if not self.surface.is_plane:
            raise SurfaceMismatchError("degree coefficient is a plane notion")
        return self.coeffs[0]

    @property
    def a(self) -> int:
        if self.surface.is_plane:
            raise SurfaceMismatchError("bidegree coefficients live on a ruled surface")
        return self.coeffs[0]

    @property
    def b(self) -> int:
        if self.surface.is_plane:
            raise SurfaceMismatchError("bidegree coefficients live on a ruled surface")
        return self.coeffs[1]

    def _same_surface(self, other: "DivClass") -> None:
        # Classes of one decision share one surface object: identity first.
        if self.surface is not other.surface and self.surface != other.surface:
            raise SurfaceMismatchError(f"classes on {self.surface} and {other.surface} do not mix")

    def __add__(self, other: "DivClass") -> "DivClass":
        self._same_surface(other)
        return DivClass(self.surface, tuple(x + y for x, y in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "DivClass") -> "DivClass":
        self._same_surface(other)
        return DivClass(self.surface, tuple(x - y for x, y in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "DivClass":
        return DivClass(self.surface, tuple(-x for x in self.coeffs))

    def __mul__(self, n: int) -> "DivClass":
        if not isinstance(n, int) or isinstance(n, bool):
            raise TypeError("divisor classes scale by integers only")
        return DivClass(self.surface, tuple(n * x for x in self.coeffs))

    __rmul__ = __mul__

    def to_json_dict(self) -> dict:
        body = {"d": self.coeffs[0]} if self.surface.is_plane else {"a": self.coeffs[0], "b": self.coeffs[1]}
        return {"surface": self.surface.to_json_dict(), "class": body}

    @classmethod
    def from_json_dict(cls, data) -> "DivClass":
        if not isinstance(data, dict) or not isinstance(data.get("class"), dict):
            raise ValueError(f"class literal needs a \"surface\" and a \"class\" object, got {data!r}")
        _refuse_unknown(data, ("surface", "class"), "a class literal")
        surface = Surface.from_json_dict(data.get("surface"))
        names, what = ("d",) if surface.is_plane else ("a", "b"), f"a class on {surface}"
        _refuse_unknown(data["class"], names, what)
        return surface.div(*(_int_field(data["class"], k, what) for k in names))

    def __str__(self) -> str:
        if self.surface.is_plane:
            return f"O({self.coeffs[0]})"
        return f"({self.coeffs[0]},{self.coeffs[1]})"


def intersect(c1: DivClass, c2: DivClass) -> int:
    """Intersection number of two classes on the same surface.

    Plane: ``d1*d2``.  Ruled: ``a1*b2 + a2*b1 + N*b1*b2``.
    """
    c1._same_surface(c2)
    if c1.surface.is_plane:
        return c1.coeffs[0] * c2.coeffs[0]
    a1, b1 = c1.coeffs
    a2, b2 = c2.coeffs
    return a1 * b2 + a2 * b1 + c1.surface.N * b1 * b2


def canonical_class(surface: Surface) -> DivClass:
    """Canonical class: ``-3H`` on the plane, ``(N-2)F - 2T`` on ``F_N``.

    Pinned by adjunction: ``-K.F = 2`` and ``-K.T = N + 2`` because fibers
    and sections are rational, and ``-K.H = 3`` for a line.
    """
    if surface.is_plane:
        return DivClass(surface, (-3,))
    return DivClass(surface, (surface.N - 2, -2))


def adjunction_genus(cls: DivClass) -> int:
    """Arithmetic genus ``(C.C + K.C)/2 + 1`` of the class."""
    k = canonical_class(cls.surface)
    value = intersect(cls, cls) + intersect(k, cls)
    # Parity always works out on these lattices: C.C + K.C is even.
    return value // 2 + 1


@dataclass(frozen=True)
class ChernData:
    """Chern numbers of a surface, with the holomorphic Euler characteristic."""

    c1_sq: int
    c2: int
    chi: int

    def __post_init__(self):
        if self.c1_sq + self.c2 != 12 * self.chi:
            raise ValueError(
                f"inconsistent Chern data: {self.c1_sq} + {self.c2} != 12 * {self.chi}"
            )

    def horikawa_case(self) -> str | None:
        """Which Noether-line equality holds, if any.

        Returns ``"even"`` for ``c2 = 5*c1^2 + 36`` with even ``c1^2``,
        ``"odd"`` for ``c2 = 5*c1^2 + 30`` with odd ``c1^2``, else ``None``.
        The odd case is recognised arithmetically only; no cover model
        here produces it.
        """
        if self.c1_sq % 2 == 0 and self.c2 == 5 * self.c1_sq + 36:
            return "even"
        if self.c1_sq % 2 == 1 and self.c2 == 5 * self.c1_sq + 30:
            return "odd"
        return None

    def to_json_dict(self) -> dict:
        return {"c1_sq": self.c1_sq, "c2": self.c2, "chi": self.chi}


def double_cover_chern(surface: Surface, half_class: DivClass) -> ChernData:
    """Chern numbers of the double cover branched along ``2 * half_class``.

    For a rational base (``chi(O) = 1``):

    * ``c1^2 = 2 * (K + L)^2``,
    * ``chi  = 2 + (L.L + L.K) / 2``,
    * ``c2   = 2 * c2(S) + B.(B + K)``, ``B = 2L``, from the Euler number
      (``c2(P2) = 3``, ``c2(F_N) = 4``), which Noether's formula checks,

    with ``L = half_class``, for which ``|2L|`` must have a smooth member.
    On the plane that means ``d >= 0``.  On ``F_N``, ``L`` must be
    effective (``b >= 0`` and ``a + N*b >= 0``; the effective cone is
    spanned by ``F`` and the negative section ``E = T - N*F``), and since
    ``2L.E = 2a``, ``E`` is a fixed part of ``|2L|`` when ``a < 0``: then a
    smooth member is ``E`` plus a disjoint member of ``|(2b-1)T|``, which
    needs ``2a == -N`` and ``b >= 1``.
    """
    if half_class.surface != surface:
        raise SurfaceMismatchError(f"class {half_class} does not live on {surface}")
    if surface.is_plane:
        effective = smooth = half_class.d >= 0
    else:
        a, b, N = half_class.a, half_class.b, surface.N
        effective = b >= 0 and a + N * b >= 0
        smooth = a >= 0 or (2 * a == -N and b >= 1)
    if not effective:
        raise ValueError(f"half class {half_class} on {surface} is not effective")
    if not smooth:
        raise ValueError(f"twice the half class {half_class} on {surface} has no smooth member")
    k = canonical_class(surface)
    kl = k + half_class
    c1_sq = 2 * intersect(kl, kl)
    chi = 2 + (intersect(half_class, half_class) + intersect(half_class, k)) // 2
    b = 2 * half_class  # the branch curve
    return ChernData(c1_sq=c1_sq, c2=2 * (3 if surface.is_plane else 4) + intersect(b, b + k), chi=chi)


# The genus of a split double cover: empty branch divisor, two disjoint rational copies.
SPLIT = "SPLIT"


def rh_pullback_genus(transverse_points: int):
    """Genus of the normalized double cover of a rational curve.

    ``transverse_points`` counts the reduced branch points; Riemann-Hurwitz
    gives ``2g - 2 = -4 + transverse_points``.  Zero branch points return
    :data:`SPLIT` (the cover disconnects).  Odd counts are impossible for a
    double cover and raise.
    """
    if not isinstance(transverse_points, int) or isinstance(transverse_points, bool):
        raise ValueError("branch point count must be an integer")
    if transverse_points < 0 or transverse_points % 2 != 0:
        raise ValueError(f"branch point count must be even and >= 0, got {transverse_points}")
    if transverse_points == 0:
        return SPLIT
    return transverse_points // 2 - 1
