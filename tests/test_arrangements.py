import pytest

from horicert import (
    P2,
    BoundExceededError,
    adjunction_genus,
    check_arrangement_smoothing,
    contracted_singularities,
    dual_graph,
    fibers_and_sections,
    general_lines,
    hirzebruch,
    multipartite_partition,
    pairwise_nodes,
    total_class,
    verify_certificate,
)
from horicert.arrangements import MAX_COMPONENTS, Arrangement, Component, Role, from_shorthand


class TestBuilders:
    def test_lines_need_plane_roles(self):
        arr = general_lines(5)
        assert arr.surface == P2
        assert all(c.role is Role.LINE for c in arr.components)

    def test_role_class_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Arrangement(P2, (Component("L1", Role.LINE, P2.div(2)),))
        s = hirzebruch(1)
        with pytest.raises(ValueError):
            Arrangement(s, (Component("F1", Role.FIBER, s.div(0, 1)),))
        with pytest.raises(ValueError):
            Arrangement(P2, (Component("F1", Role.FIBER, s.div(1, 0)),))

    def test_duplicate_ids_rejected(self):
        line = P2.div(1)
        with pytest.raises(ValueError):
            Arrangement(P2, (Component("L1", Role.LINE, line), Component("L1", Role.LINE, line)))

    def test_counts_validated(self):
        with pytest.raises(ValueError):
            general_lines(0)
        with pytest.raises(ValueError):
            fibers_and_sections(0, 0, 0)

    def test_size_bound(self):
        assert general_lines(MAX_COMPONENTS).size == MAX_COMPONENTS
        assert fibers_and_sections(1, 100, MAX_COMPONENTS - 100).size == MAX_COMPONENTS
        with pytest.raises(BoundExceededError):
            general_lines(MAX_COMPONENTS + 1)
        with pytest.raises(BoundExceededError):
            fibers_and_sections(1, 100, MAX_COMPONENTS - 99)

    def test_shorthand(self):
        assert from_shorthand("lines:P2:m=5").size == 5
        arr = from_shorthand("fn:N=1:a=3:b=4")
        assert arr.surface == hirzebruch(1)
        assert arr.size == 7
        for bad in ("lines:P3:m=5", "fn:N=1", "squiggles", "lines:P2:m=x"):
            with pytest.raises(ValueError):
                from_shorthand(bad)

    def test_json_round_trip(self):
        for arr in (general_lines(3), fibers_and_sections(2, 3, 4)):
            assert Arrangement.from_json_dict(arr.to_json_dict()) == arr
        with pytest.raises(ValueError):
            Arrangement.from_json_dict({"surface": {"kind": "P2"}})


class TestDualGraph:
    def test_five_lines(self):
        g = dual_graph(general_lines(5))
        assert g.vertex_count == 5
        assert {g.weight(v) for v in g.vertices} == {3}
        assert all(m == 1 for _, _, m in g.edge_items())
        assert g.total_multiplicity() == 10

    def test_bipartite_arrangement(self):
        g = dual_graph(fibers_and_sections(0, 4, 4))
        assert {g.weight(v) for v in g.vertices} == {2}
        assert g.multiplicity("F1", "F2") == 0
        assert g.multiplicity("T1", "T2") == 0
        assert g.multiplicity("F1", "T1") == 1

    def test_mixed_arrangement(self):
        g = dual_graph(fibers_and_sections(1, 3, 4))
        assert g.weight("F1") == 2
        assert g.weight("T1") == 3
        assert g.multiplicity("F1", "F2") == 0
        assert g.multiplicity("T1", "T2") == 1
        assert g.multiplicity("F1", "T1") == 1

    def test_section_multiplicity_grows_with_ruling(self):
        g = dual_graph(fibers_and_sections(2, 3, 4))
        assert g.multiplicity("T1", "T2") == 2
        assert g.weight("T1") == 4

    def test_general_position_required(self):
        arr = general_lines(5)
        degenerate = Arrangement(arr.surface, arr.components, general_position=False)
        with pytest.raises(ValueError):
            dual_graph(degenerate)

    def test_dual_graphs_are_multipartite(self):
        for arr in (
            general_lines(3),
            general_lines(7),
            fibers_and_sections(0, 2, 5),
            fibers_and_sections(1, 4, 2),
            fibers_and_sections(3, 1, 4),
        ):
            assert multipartite_partition(dual_graph(arr)) is not None

    def test_rdeg_identities(self):
        for N in range(4):
            for a in range(1, 6):
                for b in range(1, 6):
                    g = dual_graph(fibers_and_sections(N, a, b))
                    for i in range(1, a + 1):
                        assert g.rdeg(f"F{i}") == b
                    expected = a if N == 0 else a + b - 1
                    for j in range(1, b + 1):
                        assert g.rdeg(f"T{j}") == expected


class TestCounts:
    def test_five_lines(self):
        arr = general_lines(5)
        assert total_class(arr) == P2.div(5)
        assert pairwise_nodes(arr) == 10
        assert contracted_singularities(arr) == 6

    def test_mixed_arrangement(self):
        arr = fibers_and_sections(1, 3, 4)
        assert total_class(arr) == hirzebruch(1).div(3, 4)
        assert pairwise_nodes(arr) == 18
        assert contracted_singularities(arr) == 12

    def test_single_component(self):
        arr = general_lines(1)
        assert pairwise_nodes(arr) == 0
        assert contracted_singularities(arr) == 0

    def test_genus_identity(self):
        for arr in (
            general_lines(5),
            general_lines(8),
            fibers_and_sections(0, 4, 4),
            fibers_and_sections(1, 3, 4),
            fibers_and_sections(2, 3, 4),
        ):
            expected = pairwise_nodes(arr) - (arr.size - 1)
            assert adjunction_genus(total_class(arr)) == expected


class TestSmoothingCheck:
    def test_five_lines_pass(self):
        node, cert = check_arrangement_smoothing(general_lines(5))
        assert node.passed
        assert cert is not None and verify_certificate(cert)
        by_name = {n.name: n for n in node.walk()}
        assert dict(by_name["lemma.hypsmooth.minus_k_ge_8"].values)["minus_k_total"] == 15
        assert dict(by_name["lemma.hypsmooth.sing_ge_4"].values)["singular_points"] == 6
        assert dict(by_name["lemma.zai_gen.rdeg_ge_4"].values)["min_rdeg"] == 4

    def test_bipartite_pass(self):
        node, cert = check_arrangement_smoothing(fibers_and_sections(0, 4, 4))
        assert node.passed
        assert verify_certificate(cert)

    def test_four_lines_fail_rdeg(self):
        node, cert = check_arrangement_smoothing(general_lines(4))
        assert not node.passed
        assert cert is None
        by_name = {n.name: n for n in node.walk()}
        assert not by_name["lemma.zai_gen.rdeg_ge_4"].passed
        assert dict(by_name["lemma.zai_gen.rdeg_ge_4"].values)["min_rdeg"] == 3
        assert not by_name["lemma.zai_gen.contractible"].passed

    def test_tiny_arrangement_fails_smoothing_bounds(self):
        node, _ = check_arrangement_smoothing(fibers_and_sections(0, 1, 2))
        by_name = {n.name: n for n in node.walk()}
        assert not by_name["lemma.hypsmooth.minus_k_ge_8"].passed
        assert not by_name["lemma.hypsmooth.sing_ge_4"].passed

    def test_assumption_recorded(self):
        node, _ = check_arrangement_smoothing(general_lines(5))
        kinds = {n.name: n.kind for n in node.walk()}
        assert kinds["assumption.general_position"] == "axiom"
