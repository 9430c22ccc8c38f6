"""Property suites over randomly generated graphs and arrangements."""

import itertools

import hypothesis.strategies as st
from hypothesis import assume, given, settings

from conftest import (
    adjacent_pairs,
    assert_sorted_layout,
    class_of,
    certifiable_multipartite_graphs,
    graphs,
    multipartite_graphs,
    reference_decide,
    reference_verify,
)
from horicert import (
    ContractionCertificate,
    ContractionStep,
    GraphError,
    PreconditionError,
    WeightedMultigraph,
    absorb_submultigraph,
    adjunction_genus,
    brute_force_oracle,
    contract,
    contract_multipartite,
    decide_contractible,
    feasible_l_range,
    fibers_and_sections,
    general_lines,
    lift_certificate,
    multipartite_partition,
    pairwise_nodes,
    total_class,
    verify_certificate,
)
from horicert import contraction

BIG = settings(max_examples=1000, deadline=None, derandomize=True)


@BIG
@given(graphs(min_vertices=2), st.data())
def test_contract_conserves_weight_and_counts(g, data):
    pairs = adjacent_pairs(g)
    assume(pairs)
    u, v = data.draw(st.sampled_from(pairs))
    h = contract(g, (u, v))
    assert h.total_weight() == g.total_weight()
    assert h.vertex_count == g.vertex_count - 1
    assert h.total_multiplicity() == g.total_multiplicity() - g.multiplicity(u, v)


@BIG
@given(graphs(min_vertices=2), st.data())
def test_contract_is_the_literal_merge(g, data):
    # Built through the public constructor, so the expected graph shares
    # no code with contract's in-place merge; neighbours must come out in
    # the same sorted order.
    pairs = adjacent_pairs(g)
    assume(pairs)
    u, v = data.draw(st.sampled_from(pairs))
    merged = data.draw(st.sampled_from(["m1", "zz", u, v]))
    assume(merged not in g or merged in (u, v))
    rest = [x for x in g.vertices if x not in (u, v)]
    weights = {x: g.weight(x) for x in rest}
    weights[merged] = g.weight(u) + g.weight(v)
    edges = [(x, y, m) for x, y, m in g.edge_items() if x in rest and y in rest]
    edges += [(x, merged, g.multiplicity(x, u) + g.multiplicity(x, v)) for x in rest]
    expected = WeightedMultigraph(weights, [e for e in edges if e[2]])
    h = contract(g, (u, v), merged)
    assert h == expected
    assert h.vertices == expected.vertices
    assert all(h.neighbors(x) == expected.neighbors(x) for x in h.vertices)


@BIG
@given(graphs(min_vertices=2, max_vertices=7), st.data())
def test_derived_graphs_keep_the_sorted_layout(g, data):
    # contract builds its graphs without the public constructor's sorting;
    # a merged id may sort first, last or between two others.  Replaying
    # the same merges, _Replay must hold the same weights, degrees and
    # multiplicities.
    assert_sorted_layout(g)
    h, state = g, contraction._Replay(g)
    for i in range(data.draw(st.integers(0, g.vertex_count - 1))):
        pairs = adjacent_pairs(h)
        if not pairs:
            break
        u, v = data.draw(st.sampled_from(pairs))
        merged = data.draw(st.sampled_from([f"m{i}", "a", "zz", "v3x", u, v]))
        assume(merged not in h or merged in (u, v))
        h = contract(h, (u, v), merged)
        state.merge(u, v, merged, state.mult(u, v))
        assert_sorted_layout(h)
        assert sorted(state.weights.items()) == [(x, h.weight(x)) for x in h.vertices]
        assert state.deg == {x: h.degree(x) for x in h.vertices}
        for x, y in itertools.combinations(h.vertices, 2):
            assert state.mult(x, y) == h.multiplicity(x, y)


@given(graphs(max_vertices=7), st.data())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_constructor_ignores_how_the_input_is_listed(g, data):
    # The same graph listed any other way: entries shuffled, each with
    # either orientation, some multiplicities split over two entries or
    # written as repeated 2-tuples, zero-multiplicity entries mixed in, and
    # the weights inserted in shuffled order.  ``g`` is the canonical build.
    entries = []
    for u, v, m in g.edge_items():
        k = data.draw(st.integers(0, m - 1))
        for part in (k, m - k) if k else (m,):
            x, y = data.draw(st.sampled_from([(u, v), (v, u)]))
            entries += [(x, y)] * part if part <= 2 and data.draw(st.booleans()) else [(x, y, part)]
    pairs = list(itertools.permutations(g.vertices, 2))
    if pairs:
        entries += [(x, y, 0) for x, y in data.draw(st.lists(st.sampled_from(pairs), max_size=3))]
    entries = data.draw(st.permutations(entries))
    weights = {v: g.weight(v) for v in data.draw(st.permutations(g.vertices))}
    h = WeightedMultigraph(weights, entries)
    assert h == g
    assert all(h.neighbors(x) == g.neighbors(x) for x in g.vertices)
    assert_sorted_layout(h)


@given(certifiable_multipartite_graphs(), st.data())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_absorbed_graph_keeps_the_sorted_layout(g, data):
    keep = data.draw(st.lists(st.sampled_from(g.vertices), min_size=4, max_size=8, unique=True))
    try:
        _, reduced = absorb_submultigraph(g, keep)
    except PreconditionError:
        assume(False)
    assert reduced.vertices == tuple(sorted(keep))
    assert_sorted_layout(reduced)


@BIG
@given(multipartite_graphs(), st.data())
def test_contraction_preserves_complete_multipartiteness(g, data):
    pairs = adjacent_pairs(g)
    assume(pairs)
    u, v = data.draw(st.sampled_from(pairs))
    h = contract(g, (u, v))
    assert multipartite_partition(h) is not None


@BIG
@given(certifiable_multipartite_graphs(), st.data())
def test_lift_survives_random_augmentation(g, data):
    cert = contract_multipartite(g)
    assert verify_certificate(cert)
    # augment: raise some weights and multiplicities, add edges anywhere
    verts = g.vertices
    weights = {v: g.weight(v) + data.draw(st.integers(0, 2)) for v in verts}
    bumps = data.draw(
        st.lists(
            st.tuples(st.sampled_from(verts), st.sampled_from(verts), st.integers(1, 2)),
            max_size=6,
        )
    )
    edges = [(u, v, m) for u, v, m in g.edge_items()]
    edges += [(u, v, m) for u, v, m in bumps if u != v]
    host = WeightedMultigraph(weights, edges)
    lifted = lift_certificate(cert, host, {v: v for v in verts})
    assert verify_certificate(lifted)
    assert [s.l for s in lifted.steps] == [s.l for s in cert.steps]


@BIG
@given(
    st.sampled_from(["lines", "fn"]),
    st.integers(0, 3),
    st.integers(1, 7),
    st.integers(0, 6),
)
def test_dual_graph_genus_identity(kind, N, a, b):
    if kind == "lines":
        arr = general_lines(a)
    else:
        assume(a + b >= 1)
        arr = fibers_and_sections(N, a, b)
    expected = pairwise_nodes(arr) - (arr.size - 1)
    assert adjunction_genus(total_class(arr)) == expected


@given(graphs(min_vertices=2, max_vertices=5, min_weight=0))
@settings(max_examples=1000, deadline=None, derandomize=True)
def test_feasible_range_is_the_predicted_interval(g):
    for u, v in adjacent_pairs(g):
        mult = g.multiplicity(u, v)
        others_ok = all(g.degree(x) >= 3 for x in g.vertices if x not in (u, v))
        for a, b in ((u, v), (v, u)):
            got = feasible_l_range(g, a, b)
            if not others_ok:
                assert got == ()
                continue
            lo = max(0, 3 - g.degree(a) + mult, 3 - g.degree(b) + mult)
            hi = min(mult - 1, g.weight(a) - 1, g.weight(b) - 2)
            assert got == tuple(range(lo, hi + 1))


@given(graphs(max_vertices=4, min_weight=0, max_weight=5))
@settings(max_examples=500, deadline=None, derandomize=True)
def test_search_matches_oracle_on_random_graphs(g):
    cert = decide_contractible(g)
    assert (cert is not None) == brute_force_oracle(g, max_total_multiplicity=30)
    if cert is not None:
        assert verify_certificate(cert)


def _rules_reject(h):
    """The two rules that reject a search state, read off the definition:
    some vertex could not be an endpoint of an admissible step even with a
    partner joined by as few edges as its sparsest neighbour (it keeps its
    weight and degree until it is merged), or fewer than two vertices
    weigh 2 or more (both final vertices need weight >= 4)."""
    for x in h.vertices:
        w, d = h.weight(x), h.degree(x)
        if not any(
            l <= w - 1 and d - m + l >= 3 for m in (h.multiplicity(x, y) for y in h.neighbors(x)) for l in range(m)
        ):
            return True
    return sum(h.weight(x) >= 2 for x in h.vertices) < 2


@BIG
@given(graphs(min_vertices=2, max_vertices=6, min_weight=-1, max_weight=5))
def test_viability_is_the_two_rules(g):
    assert (contraction._viability(g) is None) == _rules_reject(g)


@given(graphs(min_vertices=2, max_vertices=5, min_weight=0, max_weight=5))
@settings(max_examples=500, deadline=None, derandomize=True)
def test_states_rejected_on_entry_are_no(g):
    if contraction._viability(g) is None:
        assert decide_contractible(g) is None
        assert not brute_force_oracle(g, max_total_multiplicity=30)


@st.composite
def searched_states(draw):
    """Graphs on 3..6 vertices, most of which pass the entry check: weights
    1..5 (shrinking to 2) and multiplicities 1..3 with an occasional 0."""
    n = draw(st.integers(3, 6))
    names = [f"v{i}" for i in range(1, n + 1)]
    weights = {v: draw(st.sampled_from((2, 1, 3, 4, 5))) for v in names}
    edges = [(u, v, draw(st.sampled_from((1, 2, 3, 0)))) for u, v in itertools.combinations(names, 2)]
    return WeightedMultigraph(weights, edges)


@BIG
@given(searched_states())
def test_children_rejected_by_the_search_are_no(g):
    # The search judges a child before building it; that judgement must be
    # the entry check on the built child, and a rejected child must be NO.
    viable = contraction._viability(g)
    assume(viable is not None)
    deg, anchors = viable
    for u, v, mult in g.edge_items():
        child = contract(g, (u, v), "m")
        row = contraction._child_row(g._adj, g._weights, deg, anchors, u, v, mult)
        killed = row is None
        assert killed == (contraction._viability(child) is None)
        if killed:
            assert not brute_force_oracle(child, max_total_multiplicity=45)
        else:
            assert row == child._adj["m"]


# Ids in which the merged ids m<k> are taken, skipped or sort between live ids.
_SEARCH_IDS = ("a", "m1", "m2", "m3", "m10", "m2x", "v1", "v2", "v3", "v4", "v5", "z")


@st.composite
def search_inputs(draw):
    """Graphs on 2..10 vertices, most of which pass the entry check and
    many of which backtrack: weights 1..3 and multiplicities 1..3 with an
    occasional 0, on ids drawn from ``_SEARCH_IDS`` in a random order."""
    n = draw(st.integers(2, 10))
    names = draw(st.permutations(_SEARCH_IDS))[:n]
    weights = {v: draw(st.sampled_from((2, 1, 3))) for v in names}
    edges = [(u, v, draw(st.sampled_from((1, 2, 3, 0)))) for u, v in itertools.combinations(names, 2)]
    return WeightedMultigraph(weights, edges)


@given(search_inputs())
@settings(max_examples=400, deadline=None, derandomize=True)
def test_search_matches_the_reference_search(g):
    # The search merges in place; the reference builds every child graph.
    memo, reference_memo = set(), set()
    assert decide_contractible(g, memo=memo) == reference_decide(g, reference_memo)
    assert memo == reference_memo


@given(st.lists(search_inputs(), min_size=1, max_size=4))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_search_matches_the_reference_with_a_shared_memo(gs):
    # Each graph is decided twice, the second time against its own failures.
    memo, reference_memo = set(), set()
    for g in gs + gs:
        assert decide_contractible(g, memo=memo) == reference_decide(g, reference_memo)
    assert memo == reference_memo


@given(graphs(max_vertices=6))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_search_certificates_always_verify(g):
    cert = decide_contractible(g)
    if cert is not None:
        assert verify_certificate(cert)
        assert cert.initial == g


@given(certifiable_multipartite_graphs())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_multipartite_certificates_always_verify(g):
    cert = contract_multipartite(g)
    assert verify_certificate(cert)
    assert cert.initial == g


@given(graphs())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_graph_json_round_trip(g):
    doc = g.to_json_dict()
    assert WeightedMultigraph.from_json_dict(doc) == g


@given(certifiable_multipartite_graphs())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_certificate_json_round_trip(g):
    cert = contract_multipartite(g)
    again = ContractionCertificate.from_json_dict(cert.to_json_dict())
    assert again == cert


@given(multipartite_graphs(max_classes=4, max_class_size=3))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_partition_matches_non_adjacency(g):
    part = multipartite_partition(g)
    assert part is not None
    for u, v in itertools.combinations(g.vertices, 2):
        same = class_of(part, u) == class_of(part, v)
        assert same == (g.multiplicity(u, v) == 0)


@given(graphs(min_vertices=2, max_vertices=6, min_weight=1))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_rdeg_degree_relation(g):
    for v in g.vertices:
        assert g.rdeg(v) <= g.degree(v)
        simple = all(m == 1 for u, w, m in g.edge_items() if v in (u, w))
        assert (g.rdeg(v) == g.degree(v)) == simple


FAULTS = ("none", "l", "non_adjacent", "same_vertex", "unknown_vertex", "bystander_id")


@st.composite
def step_lists(draw):
    """A graph of 2..7 vertices and a walk of merges on it, mostly
    admissible, ending in at most one faulty step of a drawn kind."""
    g = draw(
        st.one_of(
            graphs(min_vertices=2, max_vertices=7, min_weight=0),
            graphs(min_vertices=2, max_vertices=7, min_weight=3, max_weight=9, max_mult=4),
        )
    )
    fault = draw(st.sampled_from(FAULTS))
    fault_at = draw(st.integers(0, g.vertex_count - 2))
    h, steps = g, []
    for i in range(g.vertex_count - 1):
        pairs = adjacent_pairs(h)
        if not pairs:
            break
        u, v = draw(st.sampled_from(pairs))
        feasible = [(a, b, l) for a, b in ((u, v), (v, u)) for l in feasible_l_range(h, a, b)]
        if feasible and draw(st.integers(0, 7)):
            pair_l = draw(st.sampled_from(feasible))
        else:
            pair_l = (u, v, draw(st.integers(0, 3)))
        a, b, l = pair_l
        merged = f"m{i + 1}"
        if i == fault_at and fault != "none":
            others = [x for x in h.vertices if x not in (a, b)]
            apart = [(x, y) for x, y in itertools.combinations(h.vertices, 2) if not h.multiplicity(x, y)]
            if fault == "l":
                ls = {l for _, _, l in feasible}
                l = draw(st.sampled_from([x for x in range(-1, h.multiplicity(a, b) + 2) if x not in ls]))
            elif fault == "non_adjacent" and apart:
                a, b = draw(st.sampled_from(apart))
            elif fault == "same_vertex":
                b = a
            elif fault == "unknown_vertex":
                a, b = draw(st.sampled_from([(a, "zz"), ("zz", b)]))
            elif fault == "bystander_id" and others:
                merged = draw(st.sampled_from(others))
            steps.append(ContractionStep((a, b), l, merged))
            break
        steps.append(ContractionStep((a, b), l, merged))
        h = contract(h, (a, b), merged)
    return ContractionCertificate(g, tuple(steps))


def _outcome(verify, cert, require_singleton):
    try:
        return verify(cert, require_singleton)
    except GraphError as exc:
        return type(exc)


@given(step_lists(), st.booleans())
@settings(max_examples=1000, deadline=None, derandomize=True)
def test_verify_matches_the_contract_chain(cert, require_singleton):
    assert _outcome(verify_certificate, cert, require_singleton) == _outcome(
        reference_verify, cert, require_singleton
    )
