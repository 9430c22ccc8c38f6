import hashlib
import json

import pytest

from horicert import (
    ContractionCertificate,
    ObligationReport,
    P2,
    SurfaceMismatchError,
    Verdict,
    check_cyclic_cover_setup,
    check_degeneration_bounds,
    cyclic_cover_factorization,
    decide_plane_double_cover,
    decide_ruled_double_cover,
    hirzebruch,
    verify_certificate,
)
from horicert.report import check


def node_values(report, name):
    return dict(report.find(name).values)


class TestDegenerationBounds:
    def test_plane_pass(self):
        node = check_degeneration_bounds(P2, P2.div(5), P2.div(10))
        assert node.passed

    def test_ruled_pass_bullet2(self):
        s = hirzebruch(1)
        node = check_degeneration_bounds(s, s.div(3, 4), s.div(6, 8))
        assert node.passed
        assert node.name == "corollary.zai_fn.bullet2"

    def test_ruled_fail_bullet1(self):
        s = hirzebruch(0)
        node = check_degeneration_bounds(s, s.div(3, 4), s.div(6, 8))
        assert not node.passed
        assert node.name == "corollary.zai_fn.bullet1"
        failing = [n.name for n in node.walk() if n.kind == "check" and not n.passed]
        assert "corollary.zai_fn.bullet1.a_ge_4" in failing

    def test_plane_fail_small_m(self):
        node = check_degeneration_bounds(P2, P2.div(4), P2.div(8))
        assert not node.passed

    def test_mismatch(self):
        with pytest.raises(SurfaceMismatchError):
            check_degeneration_bounds(P2, hirzebruch(0).div(1, 1), P2.div(4))


class TestCoverSetup:
    def test_plane_pass(self):
        node = check_cyclic_cover_setup(P2, P2.div(5), P2.div(10), 2)
        assert node.passed
        genus = dict(next(n for n in node.walk() if n.name.endswith("genus_ge_2")).values)["genus"]
        assert genus == 6

    def test_ruled_pass(self):
        for N in range(1, 5):
            s = hirzebruch(N)
            node = check_cyclic_cover_setup(s, s.div(3, 4), s.div(6, 8), 2)
            assert node.passed
            genus = dict(next(n for n in node.walk() if n.name.endswith("genus_ge_2")).values)["genus"]
            assert genus == 6 * N + 6

    def test_conic_fails(self):
        node = check_cyclic_cover_setup(P2, P2.div(2), P2.div(4), 2)
        assert not node.passed
        genus = dict(next(n for n in node.walk() if n.name.endswith("genus_ge_2")).values)["genus"]
        assert genus == 0

    def test_wrong_multiple_fails(self):
        node = check_cyclic_cover_setup(P2, P2.div(5), P2.div(11), 2)
        assert not node.passed


class TestPlaneDecider:
    def test_boundary(self):
        for d in (2, 4, 6, 8):
            assert decide_plane_double_cover(d).verdict is Verdict.NO
        for d in range(10, 31, 2):
            assert decide_plane_double_cover(d).verdict is Verdict.YES

    def test_low_degree_obstructions(self):
        assert decide_plane_double_cover(2).find("obstruction.rational_surface")
        assert decide_plane_double_cover(4).find("obstruction.rational_surface")

    def test_k3_obstruction_attaches_vanishing_c1(self):
        report = decide_plane_double_cover(6)
        assert node_values(report, "obstruction.k3_surface")["c1_sq"] == 0
        assert report.attachments["chern"]["c1_sq"] == 0

    def test_bitangent_obstruction(self):
        report = decide_plane_double_cover(8)
        values = node_values(report, "obstruction.bitangent_elliptic")
        assert values["transverse_points"] == 4
        assert values["pullback_genus"] == 1

    def test_yes_report_contents(self):
        report = decide_plane_double_cover(10)
        assert report.verdict is Verdict.YES
        cert = ContractionCertificate.from_json_dict(report.attachments["certificate"])
        assert verify_certificate(cert)
        assert report.attachments["chern"] == {"c1_sq": 8, "c2": 76, "chi": 7}
        assert report.attachments["horikawa_case"] == "even"
        assert report.attachments["half_genus"] == 6
        axioms = [n.name for n in report.all_nodes() if n.kind == "axiom"]
        assert "axiom.stability_of_intersections" in axioms
        assert "axiom.cover_degeneration" in axioms

    def test_only_degree_ten_is_horikawa(self):
        assert decide_plane_double_cover(12).attachments["horikawa_case"] is None

    def test_odd_degree_not_covered(self):
        report = decide_plane_double_cover(11)
        assert report.verdict is Verdict.NOT_COVERED
        assert report.exit_code() == 2

    def test_bad_input(self):
        for d in (0, 1, -2, "10"):
            with pytest.raises(ValueError):
                decide_plane_double_cover(d)


class TestRuledDecider:
    def test_boundary_table(self):
        for N in range(4):
            for a in range(2, 13, 2):
                for b in range(2, 13, 2):
                    expected = (N == 0 and a >= 8 and b >= 8) or (N >= 1 and a >= 6 and b >= 8)
                    verdict = decide_ruled_double_cover(N, a, b).verdict
                    assert (verdict is Verdict.YES) == expected, (N, a, b)

    def test_tangent_fiber_obstruction(self):
        report = decide_ruled_double_cover(2, 8, 6)
        values = node_values(report, "obstruction.tangent_fiber")
        assert values["b"] == 6
        assert values["pullback_genus"] == 1

    def test_tangent_fiber_splits_at_minimal_bidegree(self):
        report = decide_ruled_double_cover(0, 8, 2)
        values = node_values(report, "obstruction.tangent_fiber")
        assert values["pullback_genus"] == "SPLIT"

    def test_other_ruling_symmetry_flagged(self):
        report = decide_ruled_double_cover(0, 6, 8)
        values = node_values(report, "obstruction.tangent_fiber_other_ruling")
        assert values["a"] == 6
        assert values["inferred_by_symmetry"] is True

    def test_negative_section_obstruction(self):
        report = decide_ruled_double_cover(1, 4, 8)
        values = node_values(report, "obstruction.negative_section")
        assert values["negative_section_intersection"] == 4
        assert values["pullback_genus"] == 1

    def test_yes_report_contents(self):
        report = decide_ruled_double_cover(2, 6, 8)
        assert report.verdict is Verdict.YES
        cert = ContractionCertificate.from_json_dict(report.attachments["certificate"])
        assert verify_certificate(cert)
        assert report.attachments["half_genus"] == 18  # genus of (3, 4) on F_2

    def test_odd_bidegree_not_covered(self):
        assert decide_ruled_double_cover(1, 3, 8).verdict is Verdict.NOT_COVERED
        assert decide_ruled_double_cover(0, 8, 9).verdict is Verdict.NOT_COVERED

    def test_bad_input(self):
        with pytest.raises(ValueError):
            decide_ruled_double_cover(-1, 8, 8)
        with pytest.raises(ValueError):
            decide_ruled_double_cover(0, 0, 8)


class TestFactorization:
    def test_examples(self):
        assert cyclic_cover_factorization(10) == (2, 5)
        assert cyclic_cover_factorization(25) == (5, 5)
        assert cyclic_cover_factorization(7) is None

    def test_small_composites_without_split(self):
        for d in (4, 6, 8, 9):
            assert cyclic_cover_factorization(d) is None

    def test_brute_force_up_to_10000(self):
        for d in range(2, 10001):
            expected = None
            for d2 in range(5, d + 1):
                if d % d2 == 0 and d // d2 >= 2:
                    d1 = d // d2
                    expected = True
                    break
            got = cyclic_cover_factorization(d)
            if expected is None:
                assert got is None, d
            else:
                assert got is not None, d
                assert got[0] * got[1] == d
                assert got[0] >= 2 and got[1] >= 5
                # smallest admissible first factor
                for smaller in range(2, got[0]):
                    assert not (d % smaller == 0 and d // smaller >= 5), d

    def test_matches_the_literal_loop(self):
        for d in range(2, 5001):
            literal = next(((d1, d // d1) for d1 in range(2, d // 5 + 1) if d % d1 == 0), None)
            assert cyclic_cover_factorization(d) == literal, d

    def test_semiprime_near_the_bound(self):
        # 999983 and 1000003 are the primes on either side of 10**6.
        assert cyclic_cover_factorization(999983 * 1000003) == (999983, 1000003)
        assert cyclic_cover_factorization(10**12) == (2, 5 * 10**11)

    def test_bad_input(self):
        with pytest.raises(ValueError):
            cyclic_cover_factorization(1)
        with pytest.raises(ValueError, match="limited"):
            cyclic_cover_factorization(10**12 + 1)


class TestReportBytes:
    """The reports' JSON bytes, pinned by SHA-256 over every report of a
    family in order, each document followed by a newline."""

    @staticmethod
    def digest(reports) -> str:
        h = hashlib.sha256()
        for report in reports:
            h.update(json.dumps(report.to_json_dict(), indent=2).encode())
            h.update(b"\n")
        return h.hexdigest()

    def test_plane_reports(self):
        reports = (decide_plane_double_cover(d) for d in range(2, 61))
        assert self.digest(reports) == "e8950dedd9bb21764c25c2256892127446440d825c37a2883c1387bc22987c16"

    def test_ruled_reports(self):
        sides = (4, 6, 8, 14)
        reports = (decide_ruled_double_cover(N, a, b) for N in range(3) for a in sides for b in sides)
        assert self.digest(reports) == "d7d20178eeb50905bae2e9b5c3e0dec65f68ccd5d89c3ee8803793092070dc53"

    def test_ruled_not_covered_reports(self):
        sides = (3, 4, 5, 8, 9)
        reports = (
            decide_ruled_double_cover(N, a, b) for N in range(3) for a in sides for b in sides if a % 2 or b % 2
        )
        assert self.digest(reports) == "775cf5baea9083bf628ad63f3cd4d2e4158d710bf429afc411b4dd2ff7ad5ad7"

    @staticmethod
    def text_digest(reports) -> str:
        h = hashlib.sha256()
        for report in reports:
            h.update(report.render_text().encode())
            h.update(b"\n")
        return h.hexdigest()

    def test_plane_text(self):
        reports = (decide_plane_double_cover(d) for d in range(2, 61))
        assert self.text_digest(reports) == "a0fbb264a800ecfe3fce0b003c549a663fe95da916216548014523e29e23f06f"

    def test_ruled_text(self):
        sides = (4, 6, 8, 14)
        reports = (decide_ruled_double_cover(N, a, b) for N in range(3) for a in sides for b in sides)
        assert self.text_digest(reports) == "14dd9cb39d0264260dc1eeb9c832078e61391d3cb7efc08eba53d16690c6cf10"


class TestVerdictIsTheBounds:
    """The degree bounds are the verdict: an even class is YES exactly when
    ``check_degeneration_bounds`` passes on the decider's half and full class."""

    @staticmethod
    def assert_decided_by_bounds(report, surface, half, full):
        passed = check_degeneration_bounds(surface, half, full).passed
        assert (report.verdict is Verdict.YES) == passed
        if not passed:
            assert report.verdict is Verdict.NO
            assert not any(n.name.startswith("corollary.") for n in report.all_nodes())

    def test_plane(self):
        for d in range(2, 81, 2):
            self.assert_decided_by_bounds(decide_plane_double_cover(d), P2, P2.div(d // 2), P2.div(d))

    def test_ruled(self):
        for N in range(6):
            surface = hirzebruch(N)
            for a in range(2, 21, 2):
                for b in range(2, 21, 2):
                    report = decide_ruled_double_cover(N, a, b)
                    self.assert_decided_by_bounds(report, surface, surface.div(a // 2, b // 2), surface.div(a, b))

    def test_no_past_the_size_bound_builds_no_arrangement(self):
        # 500 + 2 components would exceed the arrangement bound; a NO never builds one
        assert decide_ruled_double_cover(1, 1000, 4).verdict is Verdict.NO


class TestReportInvariants:
    def test_yes_requires_all_passed(self):
        with pytest.raises(ValueError):
            ObligationReport(Verdict.YES, (check("lemma.x", False),))

    def test_no_requires_obstruction(self):
        with pytest.raises(ValueError):
            ObligationReport(Verdict.NO, (check("lemma.x", True),))

    def test_json_shape(self):
        report = decide_plane_double_cover(10)
        doc = report.to_json_dict()
        assert doc["verdict"] == "YES"
        names = {ob["name"] for ob in doc["obligations"]}
        assert "corollary.zai_p2" in names
        assert "lemma.zai_gen" in names

    def test_exit_codes(self):
        assert decide_plane_double_cover(10).exit_code() == 0
        assert decide_plane_double_cover(8).exit_code() == 1
        assert decide_plane_double_cover(9).exit_code() == 2
