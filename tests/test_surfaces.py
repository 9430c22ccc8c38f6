import itertools

import pytest

from horicert import (
    SPLIT,
    ChernData,
    DivClass,
    P2,
    SurfaceMismatchError,
    adjunction_genus,
    canonical_class,
    double_cover_chern,
    hirzebruch,
    intersect,
    rh_pullback_genus,
)
from horicert.surfaces import Surface


class TestSurfaceType:
    def test_plane_takes_no_parameter(self):
        with pytest.raises(ValueError):
            Surface("P2", 1)

    def test_negative_ruling_parameter(self):
        with pytest.raises(ValueError):
            hirzebruch(-1)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            Surface("P3")

    @pytest.mark.parametrize("N", [1.5, True, "1", None])
    def test_ruling_parameter_must_be_an_integer(self, N):
        with pytest.raises(ValueError, match="must be an integer"):
            hirzebruch(N)

    def test_fixed_classes_are_the_checked_classes(self):
        assert P2.line_class() == P2.div(1)
        assert canonical_class(P2) == P2.div(-3)
        for N in range(5):
            s = hirzebruch(N)
            assert s.fiber_class() == s.div(1, 0)
            assert s.section_class() == s.div(0, 1)
            assert s.negative_section_class() == s.div(-N, 1)
            assert canonical_class(s) == s.div(N - 2, -2)

    def test_json_round_trip(self):
        for s in (P2, hirzebruch(0), hirzebruch(5)):
            assert Surface.from_json_dict(s.to_json_dict()) == s

    def test_div_arity(self):
        with pytest.raises(ValueError):
            P2.div(1, 2)
        with pytest.raises(ValueError):
            hirzebruch(1).div(3)


class TestIntersect:
    def test_fiber_extracts_second_coefficient(self):
        for N in range(4):
            s = hirzebruch(N)
            assert intersect(s.div(3, 4), s.fiber_class()) == 4

    def test_negative_section_extracts_first_coefficient(self):
        for N in range(1, 5):
            s = hirzebruch(N)
            assert intersect(s.div(3, 4), s.negative_section_class()) == 3

    def test_plane_lines(self):
        assert intersect(P2.div(1), P2.div(1)) == 1

    def test_ruling_form(self):
        s = hirzebruch(2)
        assert intersect(s.fiber_class(), s.fiber_class()) == 0
        assert intersect(s.fiber_class(), s.section_class()) == 1
        assert intersect(s.section_class(), s.section_class()) == 2

    def test_symmetry_and_bilinearity(self):
        s = hirzebruch(3)
        grid = [s.div(a, b) for a in range(-2, 3) for b in range(-2, 3)]
        for c1, c2 in itertools.product(grid[:8], grid[8:16]):
            assert intersect(c1, c2) == intersect(c2, c1)
            assert intersect(c1 + c2, c2) == intersect(c1, c2) + intersect(c2, c2)
            assert intersect(3 * c1, c2) == 3 * intersect(c1, c2)

    def test_surface_mismatch(self):
        with pytest.raises(SurfaceMismatchError):
            intersect(P2.div(1), hirzebruch(0).div(1, 1))
        with pytest.raises(SurfaceMismatchError):
            intersect(hirzebruch(0).div(1, 1), hirzebruch(1).div(1, 1))
        with pytest.raises(SurfaceMismatchError):
            hirzebruch(0).fiber_class() + hirzebruch(1).fiber_class()

    def test_equal_surfaces_that_are_different_objects_mix(self):
        s, t = hirzebruch(2), hirzebruch(2)
        assert s is not t
        assert intersect(s.section_class(), t.section_class()) == 2
        assert s.fiber_class() + t.section_class() == s.div(1, 1)
        assert s.fiber_class() - t.section_class() == t.div(1, -1)


class TestCanonicalClass:
    def test_fiber_weight(self):
        for N in range(6):
            s = hirzebruch(N)
            assert intersect(-canonical_class(s), s.fiber_class()) == 2

    def test_section_weight(self):
        for N in range(6):
            s = hirzebruch(N)
            assert intersect(-canonical_class(s), s.section_class()) == N + 2

    def test_line_weight(self):
        assert intersect(-canonical_class(P2), P2.div(1)) == 3

    def test_canonical_self_intersection(self):
        assert intersect(canonical_class(P2), canonical_class(P2)) == 9
        for N in range(5):
            k = canonical_class(hirzebruch(N))
            assert intersect(k, k) == 8


class TestAdjunctionGenus:
    def test_quintic(self):
        assert adjunction_genus(P2.div(5)) == 6

    def test_biquartic(self):
        assert adjunction_genus(hirzebruch(0).div(4, 4)) == 9

    def test_ruled_three_four(self):
        for N in range(1, 11):
            assert adjunction_genus(hirzebruch(N).div(3, 4)) == 6 * N + 6

    def test_line(self):
        assert adjunction_genus(P2.div(1)) == 0

    def test_parity_always_even(self):
        for d in range(-3, 8):
            cls = P2.div(d)
            assert (intersect(cls, cls) + intersect(canonical_class(P2), cls)) % 2 == 0
        for N in range(4):
            s = hirzebruch(N)
            for a, b in itertools.product(range(-2, 5), repeat=2):
                cls = s.div(a, b)
                assert (intersect(cls, cls) + intersect(canonical_class(s), cls)) % 2 == 0


class TestDoubleCoverChern:
    def test_branch_degree_ten(self):
        data = double_cover_chern(P2, P2.div(5))
        assert (data.c1_sq, data.chi, data.c2) == (8, 7, 76)
        assert data.c2 == 5 * data.c1_sq + 36
        assert data.horikawa_case() == "even"

    def test_branch_degree_six_is_k3(self):
        data = double_cover_chern(P2, P2.div(3))
        assert data.c1_sq == 0
        assert data.chi == 2
        assert data.c2 == 24

    def test_ruled_branch_six_six(self):
        for N in range(21):
            s = hirzebruch(N)
            data = double_cover_chern(s, s.div(3, 3))
            assert data.c1_sq == 6 * N + 4
            assert data.c2 == 30 * N + 56
            assert data.c2 == 5 * data.c1_sq + 36
            assert data.horikawa_case() == "even"

    def test_invariant_holds_by_construction(self):
        for d in range(1, 9):
            data = double_cover_chern(P2, P2.div(d))
            assert data.c1_sq + data.c2 == 12 * data.chi

    def test_mismatch(self):
        with pytest.raises(SurfaceMismatchError):
            double_cover_chern(P2, hirzebruch(0).div(1, 1))

    def test_inconsistent_chern_data_rejected(self):
        with pytest.raises(ValueError):
            ChernData(c1_sq=1, c2=1, chi=1)

    def test_odd_case_flag(self):
        assert ChernData(c1_sq=5, c2=55, chi=5).horikawa_case() == "odd"
        assert ChernData(c1_sq=18, c2=114, chi=11).horikawa_case() is None


class TestPullbackGenus:
    def test_bitangent_line(self):
        assert rh_pullback_genus(4) == 1

    def test_two_points(self):
        assert rh_pullback_genus(2) == 0

    def test_six_points(self):
        assert rh_pullback_genus(6) == 2

    def test_unramified_cover_splits(self):
        assert rh_pullback_genus(0) is SPLIT

    def test_odd_count_rejected(self):
        with pytest.raises(ValueError):
            rh_pullback_genus(3)
        with pytest.raises(ValueError):
            rh_pullback_genus(-2)

    def test_tangent_fiber_boundary(self):
        # One tangency leaves at most b - 2 transverse points, so a branch
        # curve meeting a fiber b <= 6 times always yields genus <= 1 (or a
        # split cover); b = 8 is the first value that escapes to genus 2.
        for b in (2, 4, 6):
            genus = rh_pullback_genus(b - 2)
            assert genus is SPLIT or genus <= 1
        assert rh_pullback_genus(8 - 2) == 2


class TestDivClass:
    def test_arithmetic(self):
        s = hirzebruch(1)
        c = s.div(1, 2) + s.div(2, 2)
        assert c == s.div(3, 4)
        assert 2 * s.div(1, 2) == s.div(2, 4)
        assert -s.div(1, 2) == s.div(-1, -2)
        assert s.div(3, 4) - s.div(1, 1) == s.div(2, 3)

    def test_mixed_surface_arithmetic_rejected(self):
        with pytest.raises(SurfaceMismatchError):
            P2.div(1) + hirzebruch(0).div(1, 1)

    def test_coefficient_accessors(self):
        assert P2.div(5).d == 5
        cls = hirzebruch(2).div(3, 4)
        assert (cls.a, cls.b) == (3, 4)
        with pytest.raises(SurfaceMismatchError):
            _ = P2.div(5).a
        with pytest.raises(SurfaceMismatchError):
            _ = cls.d

    def test_json_round_trip(self):
        for cls in (P2.div(5), hirzebruch(1).div(3, 4)):
            assert DivClass.from_json_dict(cls.to_json_dict()) == cls
