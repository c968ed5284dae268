"""Gradient/flow analysis, degree bounds, width bounds, censuses."""

from __future__ import annotations

import itertools
import random

import pytest

from ascentlab.analysis import (
    AnalysisError,
    UnsupportedLandscapeError,
    degree_bound_report,
    differing_odd_entries_below,
    flow_change_norm,
    gradient,
    gradient_by_full_evaluations,
    local_optima_census,
    pathwidth_upper_bound,
    treewidth_exact,
    verify_gradient_formulas,
    verify_pathwidth,
    winding_peak_pairs,
)
from ascentlab.counting import SymbolCountingLandscape, make_counting_boolean_instance
from ascentlab.landscapes import VcspLandscape, make_pairs_instance
from ascentlab.vcsp import ConstraintGraph, SoftConstraint, VcspInstance
from ascentlab.winding import StepSchedule, WindingLandscape


def boolean_random_instance(rng, num_vars=10, num_constraints=8, max_arity=3):
    domains = (2,) * num_vars
    constraints = []
    for _ in range(num_constraints):
        arity = rng.randint(1, max_arity)
        scope = tuple(rng.sample(range(num_vars), arity))
        values = tuple(rng.randint(0, 9) for _ in range(2 ** arity))
        constraints.append(SoftConstraint(scope, rng.randint(1, 4), values))
    return VcspInstance(domains, tuple(constraints))


# -- gradients ----------------------------------------------------------------

def test_constant_landscape_gradient_is_zero():
    inst = VcspInstance(domains=(2, 2, 2),
                        constraints=(SoftConstraint((0, 1), 3, (5, 5, 5, 5)),))
    landscape = VcspLandscape(inst)
    assert gradient(landscape, (0, 1, 0)) == (0, 0, 0)


def test_gradient_rejects_non_boolean():
    with pytest.raises(UnsupportedLandscapeError):
        gradient(SymbolCountingLandscape(3), ("0", "0", "0"))


def test_origin_gradient_matches_closed_form():
    for factory in (StepSchedule.semismooth, StepSchedule.root2path):
        for n in range(1, 9):
            landscape = WindingLandscape(n, factory(n))
            got = gradient(landscape, landscape.origin())
            assert got == landscape.origin_gradient_expected()
            sched = landscape.schedule
            expected = [sched.s_plus[0], sched.s_minus[0]]
            for i in range(1, n):
                expected += [sched.s_minus[i]] * 2
            assert list(got) == expected


def test_peak_gradients_match_closed_form_and_finite_differences():
    for factory in (StepSchedule.semismooth, StepSchedule.root2path):
        for n in range(1, 7):
            landscape = WindingLandscape(n, factory(n))
            for k in range(1, n + 1):
                peak = landscape.peak_state(k)
                got = gradient(landscape, peak)
                assert got == landscape.peak_gradient_expected(k)
                assert got == gradient_by_full_evaluations(landscape, peak)


def test_gradient_delta_route_equals_full_evaluation_route():
    rng = random.Random(3)
    inst = boolean_random_instance(rng)
    landscape = VcspLandscape(inst)
    for _ in range(40):
        x = tuple(rng.randint(0, 1) for _ in range(10))
        assert gradient(landscape, x) == gradient_by_full_evaluations(landscape, x)


# -- flow-change norms and degree bounds ---------------------------------------

def test_flow_change_norm_zero_for_equal_states():
    landscape = WindingLandscape(3)
    x = (0, 1, 0, 0, 1, 1)
    assert flow_change_norm(landscape, x, x) == 0
    with pytest.raises(AnalysisError):
        flow_change_norm(landscape, x, x + (0,))


def test_flow_norm_lower_bounds_degrees_on_random_vcsps():
    # the flow argument, checked against actual constraint graphs: on a
    # random 10-variable instance, for every adjacent pair of states the
    # flipped variable's degree bounds the gradient change
    rng = random.Random(17)
    inst = boolean_random_instance(rng, num_vars=10, num_constraints=9)
    landscape = VcspLandscape(inst)
    degrees = inst.constraint_graph().degrees
    grads = {
        x: gradient(landscape, x) for x in itertools.product((0, 1), repeat=10)
    }
    for x, gx in grads.items():
        for i in range(10):
            if x[i] == 0:
                y = x[:i] + (1,) + x[i + 1:]
                norm = sum(a != b for a, b in zip(gx, grads[y]))
                assert degrees[i] >= norm


def test_flow_norm_bounds_hold_on_nonadjacent_pairs():
    rng = random.Random(23)
    inst = boolean_random_instance(rng, num_vars=7, num_constraints=6)
    landscape = VcspLandscape(inst)
    degrees = inst.constraint_graph().degrees
    for _ in range(200):
        x = tuple(rng.randint(0, 1) for _ in range(7))
        y = tuple(rng.randint(0, 1) for _ in range(7))
        differing = [i for i in range(7) if x[i] != y[i]]
        if differing:
            assert sum(degrees[i] for i in differing) >= flow_change_norm(landscape, x, y)


def test_winding_peak_family_bounds():
    landscape = WindingLandscape(8)
    report = degree_bound_report(landscape, winding_peak_pairs(landscape))
    assert len(report.rows) == 8
    for k, row in enumerate(report.rows, start=1):
        assert row.differing == (2 * k - 2, 2 * k - 1)
        assert row.bound >= k - 1
    assert report.total >= 7 * 8 // 2
    counts = [differing_odd_entries_below(landscape, k) for k in range(1, 9)]
    assert counts == [k - 1 for k in range(1, 9)]


def test_counting_boolean_bounds_respect_actual_degrees():
    inst = make_counting_boolean_instance(4)
    landscape = VcspLandscape(inst)
    degrees = inst.constraint_graph().degrees
    rng = random.Random(5)
    for _ in range(30):
        x = tuple(rng.randint(0, 1) for _ in range(16))
        y = tuple(rng.randint(0, 1) for _ in range(16))
        differing = [i for i in range(16) if x[i] != y[i]]
        report = degree_bound_report(landscape, [(x, y)])
        assert report.rows[0].bound <= sum(degrees[i] for i in differing) or not differing


def test_constant_landscape_bounds_are_zero():
    inst = VcspInstance(domains=(2, 2),
                        constraints=(SoftConstraint((0, 1), 2, (3, 3, 3, 3)),))
    landscape = VcspLandscape(inst)
    report = degree_bound_report(landscape, [((0, 0), (1, 1)), ((0, 1), (1, 0))])
    assert report.total == 0


# -- width bounds ---------------------------------------------------------------

def test_pathwidth_single_edge():
    g = ConstraintGraph(2, (frozenset({1}), frozenset({0})))
    assert pathwidth_upper_bound(g, [0, 1]) == 1


def test_pathwidth_validates_order():
    g = ConstraintGraph(2, (frozenset({1}), frozenset({0})))
    with pytest.raises(AnalysisError):
        pathwidth_upper_bound(g, [0, 0])


def test_pathwidth_pairs_forest():
    g = make_pairs_instance(10, 2).constraint_graph()
    assert pathwidth_upper_bound(g, range(10)) == 1


def test_pathwidth_encoded_counting_is_seven():
    for n in range(3, 11):
        g = make_counting_boolean_instance(n).constraint_graph()
        assert pathwidth_upper_bound(g, range(g.num_vertices)) == 7


def test_treewidth_known_graphs():
    path = ConstraintGraph(5, tuple(
        frozenset(x for x in (i - 1, i + 1) if 0 <= x < 5) for i in range(5)))
    assert treewidth_exact(path) == 1
    cycle = ConstraintGraph(6, tuple(
        frozenset({(i - 1) % 6, (i + 1) % 6}) for i in range(6)))
    assert treewidth_exact(cycle) == 2
    k5 = ConstraintGraph(5, tuple(
        frozenset(j for j in range(5) if j != i) for i in range(5)))
    assert treewidth_exact(k5) == 4
    with pytest.raises(AnalysisError):
        treewidth_exact(ConstraintGraph(20, tuple(frozenset() for _ in range(20))))


def test_treewidth_never_exceeds_ordering_width():
    rng = random.Random(31)
    for _ in range(10):
        n = rng.randint(3, 9)
        adj = [set() for _ in range(n)]
        for _ in range(rng.randint(2, 2 * n)):
            u, v = rng.sample(range(n), 2)
            adj[u].add(v)
            adj[v].add(u)
        g = ConstraintGraph(n, tuple(frozenset(a) for a in adj))
        tw = treewidth_exact(g)
        order = list(range(n))
        rng.shuffle(order)
        assert tw <= pathwidth_upper_bound(g, order)


def _grid_graph(w, h):
    def idx(x, y):
        return y * w + x

    adj = [set() for _ in range(w * h)]
    for x in range(w):
        for y in range(h):
            if x + 1 < w:
                adj[idx(x, y)].add(idx(x + 1, y))
                adj[idx(x + 1, y)].add(idx(x, y))
            if y + 1 < h:
                adj[idx(x, y)].add(idx(x, y + 1))
                adj[idx(x, y + 1)].add(idx(x, y))
    return ConstraintGraph(w * h, tuple(frozenset(a) for a in adj))


def test_ordering_width_stays_valid_where_back_degree_fails():
    # on a 4x3 grid, a peel-low-degree-first construction order has maximum
    # back-degree 2, below the treewidth 3; the vertex-separation width of
    # the same order must not underestimate
    g = _grid_graph(4, 3)
    assert treewidth_exact(g) == 3
    remaining = set(range(12))
    elimination = []
    while remaining:
        v = min(remaining,
                key=lambda v: (sum(u in remaining for u in g.adjacency[v]), v))
        elimination.append(v)
        remaining.discard(v)
    order = list(reversed(elimination))
    back_degrees = [
        sum(order.index(u) < order.index(v) for u in g.adjacency[v]) for v in order
    ]
    assert max(back_degrees) == 2
    assert pathwidth_upper_bound(g, order) >= 3


# -- censuses ---------------------------------------------------------------------

def test_pairs_census_ratio_alpha():
    landscape = VcspLandscape(make_pairs_instance(6, 4))
    census = local_optima_census(landscape, 64)
    assert census.local_maxima == 8
    assert census.global_max == 12
    assert census.worst_local_max == 3
    num, den = census.ratio_exact
    assert num == 4 * den


def test_monotone_unary_single_variable():
    inst = VcspInstance(domains=(4,), constraints=(SoftConstraint((0,), 1, (0, 1, 2, 3)),))
    census = local_optima_census(VcspLandscape(inst), 10)
    assert census.local_maxima == 1
    assert census.global_max == 3


def test_counting_symbol_census_snapshot():
    # recorded as a derived artifact; regression-pinned after exhaustive runs
    census = local_optima_census(SymbolCountingLandscape(3), 1000)
    assert census.states == 1000
    assert census.local_maxima == 198
    assert census.global_max == 105
    assert census.worst_local_max == 0


def test_census_capacity_error():
    with pytest.raises(AnalysisError):
        local_optima_census(SymbolCountingLandscape(5), 1000)


# -- verification suites ------------------------------------------------------------

def test_verify_gradient_suite_passes():
    report = verify_gradient_formulas(2, 4, aggregate_n=6)
    assert report.passed


def test_verify_pathwidth_suite_passes():
    report = verify_pathwidth(3, 6)
    assert report.passed
    assert "8-clique [0, 1, 2, 3, 4, 5, 6, 7]" in report.checks[1].detail


def test_verify_pathwidth_fires_on_a_scope_missing_one_edge():
    # drop the edge {0, 1} of the lowest scope's 8-clique
    def without_edge(instance):
        adjacency = list(instance.constraint_graph().adjacency)
        adjacency[0] -= {1}
        adjacency[1] -= {0}
        return ConstraintGraph(len(adjacency), tuple(adjacency))

    report = verify_pathwidth(2, 4, graph_of=without_edge)
    assert not report.passed
    failed = [c for c in report.checks if not c.ok]
    assert [c.label for c in failed] == [f"width exactly 7, N={n}" for n in (2, 3, 4)]
    assert all("no edge (0, 1)" in c.detail for c in failed)
