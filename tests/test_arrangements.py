import pytest

from conftest import assert_sorted_layout
from horicert import (
    P2,
    BoundExceededError,
    PreconditionError,
    SurfaceMismatchError,
    WeightedMultigraph,
    absorb_submultigraph,
    adjunction_genus,
    canonical_class,
    check_arrangement_smoothing,
    contract,
    contracted_singularities,
    dual_graph,
    fibers_and_sections,
    general_lines,
    hirzebruch,
    intersect,
    multipartite_partition,
    pairwise_nodes,
    total_class,
    verify_certificate,
)
from horicert.arrangements import MAX_COMPONENTS, Arrangement, Role, from_shorthand


class TestBuilders:
    def test_lines_need_plane_roles(self):
        arr = general_lines(5)
        assert arr.surface == P2
        assert arr.components() == [(f"L{i}", Role.LINE) for i in range(1, 6)]

    def test_role_class_mismatch_rejected(self):
        s = hirzebruch(1)
        for surface, role in ((P2, Role.FIBER), (P2, Role.SECTION), (s, Role.LINE)):
            with pytest.raises(SurfaceMismatchError):
                Arrangement(surface, ((role, 1),))
        with pytest.raises(SurfaceMismatchError):
            Arrangement(P2, ((Role.LINE, 1), (Role.FIBER, 1)))
        with pytest.raises(SurfaceMismatchError):
            Arrangement(P2, ((Role.LINE, 1), (Role.FIBER, 0)))

    def test_role_classes(self):
        s = hirzebruch(2)
        assert Role.LINE.cls(P2) == P2.div(1)
        assert Role.FIBER.cls(s) == s.div(1, 0)
        assert Role.SECTION.cls(s) == s.div(0, 1)
        assert fibers_and_sections(2, 3, 4).role_classes() == {
            Role.FIBER: (s.div(1, 0), 3),
            Role.SECTION: (s.div(0, 1), 4),
        }

    def test_stored_role_classes_cannot_be_corrupted(self):
        arr = fibers_and_sections(2, 3, 4)
        expected, graph = arr.role_classes(), dual_graph(arr)
        handed_out = arr.role_classes()
        handed_out[Role.FIBER] = (hirzebruch(2).div(5, 5), 9)
        del handed_out[Role.SECTION]
        assert arr.role_classes() == expected
        assert dual_graph(arr) == graph
        assert total_class(arr) == hirzebruch(2).div(3, 4)
        # the kept classes are not fields: equality and hashing see surface and counts only
        assert arr == fibers_and_sections(2, 3, 4) and hash(arr) == hash(fibers_and_sections(2, 3, 4))

    def test_components_are_named_per_role(self):
        assert fibers_and_sections(1, 2, 3).components() == [
            ("F1", Role.FIBER), ("F2", Role.FIBER),
            ("T1", Role.SECTION), ("T2", Role.SECTION), ("T3", Role.SECTION),
        ]
        assert fibers_and_sections(1, 0, 2).components() == [("T1", Role.SECTION), ("T2", Role.SECTION)]

    @pytest.mark.parametrize(
        "counts, message",
        [
            (((Role.LINE, -1),), "count of role 'line' must be a non-negative integer, got -1"),
            (((Role.LINE, 2.0),), "count of role 'line' must be a non-negative integer, got 2.0"),
            (((Role.LINE, True),), "count of role 'line' must be a non-negative integer, got True"),
            (((Role.LINE, 2), (Role.LINE, 3)), "each role may be counted only once"),
            (((Role.LINE, 0),), "an arrangement needs at least one component"),
            ((), "an arrangement needs at least one component"),
        ],
    )
    def test_direct_construction_checks_counts(self, counts, message):
        with pytest.raises(ValueError) as err:
            Arrangement(P2, counts)
        assert type(err.value) is ValueError
        assert str(err.value) == message

    def test_direct_construction_checks_size(self):
        s = hirzebruch(1)
        assert Arrangement(s, ((Role.FIBER, 0), (Role.SECTION, MAX_COMPONENTS))).size == MAX_COMPONENTS
        for surface, counts in (
            (P2, ((Role.LINE, MAX_COMPONENTS + 1),)),
            (s, ((Role.FIBER, 1), (Role.SECTION, MAX_COMPONENTS))),
            (s, ((Role.FIBER, 10**12),)),
        ):
            with pytest.raises(BoundExceededError) as err:
                Arrangement(surface, counts)
            assert str(err.value) == f"arrangement limited to {MAX_COMPONENTS} components, got {sum(n for _, n in counts)}"

    def test_counts_validated(self):
        with pytest.raises(ValueError):
            general_lines(0)
        with pytest.raises(ValueError):
            fibers_and_sections(0, 0, 0)

    def test_empty_arrangement_keeps_the_builder_messages(self):
        # the builders refuse an empty arrangement before constructing one
        with pytest.raises(ValueError, match=r"^need at least one line, got 0$"):
            general_lines(0)
        with pytest.raises(ValueError, match=r"^need non-negative counts with at least one component, got 0, 0$"):
            fibers_and_sections(1, 0, 0)
        with pytest.raises(ValueError, match="an arrangement needs at least one component"):
            Arrangement(hirzebruch(1), ((Role.FIBER, 0), (Role.SECTION, 0)))

    def test_size_bound(self):
        assert general_lines(MAX_COMPONENTS).size == MAX_COMPONENTS
        assert fibers_and_sections(1, 100, MAX_COMPONENTS - 100).size == MAX_COMPONENTS
        with pytest.raises(BoundExceededError, match="^arrangement limited to 256 components, got 257$"):
            general_lines(MAX_COMPONENTS + 1)
        with pytest.raises(BoundExceededError, match="^arrangement limited to 256 components, got 257$"):
            fibers_and_sections(1, 100, MAX_COMPONENTS - 99)

    def test_shorthand(self):
        assert from_shorthand("lines:P2:m=5").size == 5
        arr = from_shorthand("fn:N=1:a=3:b=4")
        assert arr.surface == hirzebruch(1)
        assert arr.size == 7
        for bad in (
            "lines:P3:m=5",
            "fn:N=1",
            "squiggles",
            "lines:P2:m=x",
            "lines:P2:m=5:m=7",
            "fn:N=1:a=3:b=4:zz=9",
            "fn:N=1:a=3:a=4:b=4",
        ):
            with pytest.raises(ValueError):
                from_shorthand(bad)


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


# The class of each role, written out here rather than taken from the
# module, for the literal per-component references below.
_ROLE_COEFFS = {Role.LINE: (1,), Role.FIBER: (1, 0), Role.SECTION: (0, 1)}


def _literal_dual_graph(arr):
    """The dual graph built component by component: one ``intersect`` per
    weight and per pair, through the public constructor."""
    classes = [(cid, arr.surface.div(*_ROLE_COEFFS[role])) for cid, role in arr.components()]
    minus_k = -canonical_class(arr.surface)
    weights = {cid: intersect(minus_k, cls) for cid, cls in classes}
    edges = [
        (ci, cj, intersect(cls_i, cls_j))
        for k, (ci, cls_i) in enumerate(classes)
        for cj, cls_j in classes[k + 1:]
    ]
    return WeightedMultigraph(weights, edges), edges, [cls for _, cls in classes]


def _reference_arrangements():
    for m in range(1, 41):
        yield general_lines(m)
    for N in range(6):
        for a in range(13):
            for b in range(13):
                if a + b >= 1:
                    yield fibers_and_sections(N, a, b)


class TestClosedForms:
    """``dual_graph``, ``total_class`` and ``pairwise_nodes`` work per role;
    each must equal the per-component construction it replaced."""

    def test_dual_graph_is_the_literal_construction(self):
        for arr in _reference_arrangements():
            expected, _, _ = _literal_dual_graph(arr)
            got = dual_graph(arr)
            assert got == expected, str(arr.surface)
            assert got.vertices == expected.vertices
            assert got.to_json_dict() == expected.to_json_dict()

    def test_derived_graphs_keep_the_sorted_layout(self):
        # dual_graph and contract build their graphs without the public
        # constructor's sorting.  "G" sorts between the fiber and the
        # line/section ids.  absorb_submultigraph goes through it.
        for arr in _reference_arrangements():
            g = dual_graph(arr)
            assert_sorted_layout(g)
            pairs = g.adjacent_pairs()
            if pairs:
                u, v = pairs[len(pairs) // 2]
                for merged in ("G", "m1", u, v):
                    assert_sorted_layout(contract(g, (u, v), merged))
            try:
                _, reduced = absorb_submultigraph(g, g.vertices[-6:])
            except PreconditionError:
                continue
            assert_sorted_layout(reduced)

    def test_counts_are_the_literal_sums(self):
        for arr in _reference_arrangements():
            _, edges, classes = _literal_dual_graph(arr)
            nodes = sum(mult for _, _, mult in edges)
            assert pairwise_nodes(arr) == nodes, (str(arr.surface), arr.size)
            assert total_class(arr) == sum(classes[1:], classes[0])
            assert contracted_singularities(arr) == nodes - (arr.size - 1)


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

    @pytest.mark.parametrize(
        "arr",
        [general_lines(5), general_lines(9), fibers_and_sections(0, 4, 4), fibers_and_sections(3, 2, 7),
         fibers_and_sections(0, 1, 2), fibers_and_sections(5, 0, 6)],
        ids=lambda arr: "-".join([str(arr.surface)] + [f"{role.value}{n}" for role, n in arr.counts]),
    )
    def test_node_counts_are_the_public_ones(self, arr):
        node, _ = check_arrangement_smoothing(arr)
        values = dict(next(n for n in node.walk() if n.name == "lemma.hypsmooth.sing_ge_4").values)
        assert values["pairwise_nodes"] == pairwise_nodes(arr)
        assert values["singular_points"] == contracted_singularities(arr)

    def test_assumption_recorded(self):
        node, _ = check_arrangement_smoothing(general_lines(5))
        kinds = {n.name: n.kind for n in node.walk()}
        assert kinds["assumption.general_position"] == "axiom"
