"""Acceptance suite: one test per headline claim, at its stated tolerance.

Everything here is exact integer arithmetic; there are no tolerances to
tune.  A summary table of PASS/FAIL lines is printed at the end of the
pytest run (see conftest.py).
"""

from __future__ import annotations

import itertools

from ascentlab.analysis import (
    degree_bound_report,
    differing_odd_entries_below,
    gradient,
    gradient_by_full_evaluations,
    local_optima_census,
    pathwidth_upper_bound,
    treewidth_exact,
    winding_peak_pairs,
)
from ascentlab.counting import (
    SymbolCountingLandscape,
    make_counting_boolean_instance,
    zero_state,
)
from ascentlab.landscapes import VcspLandscape, make_pairs_instance
from ascentlab.rules import (
    verify_cpp_closure,
    verify_rule_arithmetic,
    verify_steepest_equals_rules,
)
from ascentlab.search import LOCAL_OPTIMUM, steepest_ascent
from ascentlab.symbols import decode_bits, encode_state
from ascentlab.winding import StepSchedule, WindingLandscape

from conftest import counting_path
from test_search import GOLDEN_N7


def check_winding_path(factory):
    """Steepest ascent from the all-zero state takes exactly 2^(n+1) - 2
    steps for n = 1..14, reaches the level-k sub-cube peak at step
    2^(k+1) - 2 for every k, and ends at the level-n peak value."""
    for n in range(1, 15):
        landscape = WindingLandscape(n, factory(n))
        trace = steepest_ascent(landscape, landscape.origin(),
                                max_steps=2 ** (n + 1))
        assert trace.num_steps == 2 ** (n + 1) - 2, n
        assert trace.terminal == LOCAL_OPTIMUM
        for k in range(1, n + 1):
            assert trace.steps[2 ** (k + 1) - 2].state == landscape.peak_state(k), (n, k)
        assert trace.final_fitness == landscape.peak_value[n], n


def test_winding_path_length_semismooth():
    check_winding_path(StepSchedule.semismooth)


def test_winding_path_length_root2path():
    check_winding_path(StepSchedule.root2path)


def test_golden_counting_trace():
    # the canonical 20-step increment segment for N = 7, state for state
    landscape = SymbolCountingLandscape(7)
    states = [tuple(r.split()) for r in GOLDEN_N7]
    trace = steepest_ascent(landscape, states[0], max_steps=len(states) - 1)
    assert trace.states() == states


def test_appendix_arithmetic():
    report = verify_rule_arithmetic()
    assert report.passed, "\n".join(report.lines())
    rendered = "\n".join(report.lines())
    for chain in ("22 23 24", "381 384", "144 148", "36 37"):
        assert chain in rendered


def test_closure_and_rule_coverage_exhaustive():
    # all 10^N states for N = 3 and 4: improving flips from admissible
    # states stay admissible, and improving flips equal rule transitions
    # at every counting-path state; zero counterexamples
    for n in (3, 4):
        report = verify_cpp_closure(n)
        assert report.passed, "\n".join(report.lines())


def test_lockstep_steepest_equals_rules():
    # identical sequences from 0^N for N = 2..12 under fail-on-tie, within
    # a 2^(N+4) budget; no tie and no priority ambiguity ever fires.  The
    # path to 01^(N-1) takes R(N) = 7*2^(N-1) - 4N - 4 steps (a measured fit)
    for n in range(2, 13):
        report = verify_steepest_equals_rules(n, budget=2 ** (n + 4))
        assert report.passed, "\n".join(report.lines())
        steps = 7 * 2 ** (n - 1) - 4 * n - 4
        assert report.checks[-1].detail.startswith(f"{steps} identical steps "), n


def test_counting_path_counts_in_binary():
    # the plain-bit states on the rule path from 0^N to 01^(N-1), read as
    # binary with X_N first, are 0, 1, ..., 2^(N-1) - 1, each once and in
    # order, for N = 2..10
    for n in range(2, 11):
        counted = [int("".join(state), 2) for state in counting_path(n)
                   if set(state) <= {"0", "1"}]
        assert counted == list(range(2 ** (n - 1))), n


def test_boolean_lift_lockstep():
    # Boolean steepest ascent on the arity-8 instance decodes step for step
    # to the symbol-level trace; every step is a single bit flip
    for n in range(2, 5):
        symbol = SymbolCountingLandscape(n)
        boolean = VcspLandscape(make_counting_boolean_instance(n))
        budget = 2 ** (n + 5)
        symbol_trace = steepest_ascent(symbol, zero_state(n), max_steps=budget)
        boolean_trace = steepest_ascent(
            boolean, encode_state(zero_state(n)), max_steps=budget)
        assert symbol_trace.terminal == LOCAL_OPTIMUM
        assert boolean_trace.terminal == LOCAL_OPTIMUM
        assert boolean_trace.num_steps == symbol_trace.num_steps
        # T(N) = (35*2^N - 30N - 27 + (-1)^N) / 6 steps to the top (a measured fit)
        assert boolean_trace.num_steps == (35 * 2 ** n - 30 * n - 27 + (-1) ** n) // 6, n
        for sym_step, bit_step in zip(symbol_trace.steps, boolean_trace.steps):
            assert decode_bits(bit_step.state) == sym_step.state
            assert bit_step.fitness == sym_step.fitness
        for prev, cur in zip(boolean_trace.steps, boolean_trace.steps[1:]):
            assert sum(a != b for a, b in zip(prev.state, cur.state)) == 1


def test_pathwidth_seven():
    # lexicographic ordering width exactly 7 for N = 3..10, each arity-8
    # scope an 8-clique (so treewidth >= 7), and exact treewidth on the
    # 12-vertex N = 3 graph is 7
    for n in range(3, 11):
        instance = make_counting_boolean_instance(n)
        graph = instance.constraint_graph()
        assert pathwidth_upper_bound(graph, range(graph.num_vertices)) == 7
        for c in instance.constraints:
            assert len(c.scope) == 8
            assert all(set(c.scope) - {v} <= graph.adjacency[v] for v in c.scope)
    graph3 = make_counting_boolean_instance(3).constraint_graph()
    assert graph3.num_vertices == 12
    assert treewidth_exact(graph3) == 7


def test_gradient_formulas():
    # the origin gradient and all sub-cube peak gradients match their
    # closed forms entry-wise against finite differences for n = 2..6;
    # the changed-odd-entry count is >= k - 1 per peak and the aggregate
    # implied total degree at n = 8 is >= 28
    for factory in (StepSchedule.semismooth, StepSchedule.root2path):
        for n in range(2, 7):
            landscape = WindingLandscape(n, factory(n))
            origin = landscape.origin()
            assert (gradient(landscape, origin)
                    == landscape.origin_gradient_expected()
                    == gradient_by_full_evaluations(landscape, origin))
            for k in range(1, n + 1):
                peak = landscape.peak_state(k)
                assert (gradient(landscape, peak)
                        == landscape.peak_gradient_expected(k)
                        == gradient_by_full_evaluations(landscape, peak))
        landscape = WindingLandscape(8, factory(8))
        for k in range(1, 9):
            assert differing_odd_entries_below(landscape, k) >= k - 1
        report = degree_bound_report(landscape, winding_peak_pairs(landscape))
        assert report.total >= 28


def test_multimodality_census():
    # pairs instance N = 6, alpha = 4: exactly 2^(N/2) = 8 local maxima,
    # global maximum 12, worst local maximum 3, ratio exactly alpha
    landscape = VcspLandscape(make_pairs_instance(6, 4))
    census = local_optima_census(landscape, 64, keep_maxima=True)
    assert census.local_maxima == 8
    assert census.global_max == 12
    assert census.worst_local_max == 3
    assert census.global_max == 4 * census.worst_local_max
    # independent oracle: direct exhaustive scan over all 64 states
    inst = make_pairs_instance(6, 4)
    maxima = []
    for state in itertools.product((0, 1), repeat=6):
        value = inst.evaluate(state)
        neighbors = (
            inst.evaluate(state[:i] + (1 - state[i],) + state[i + 1:])
            for i in range(6)
        )
        if all(value >= w for w in neighbors):
            maxima.append(value)
    assert len(maxima) == 8
    assert max(maxima) == 12 and min(maxima) == 3
