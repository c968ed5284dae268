"""Ascent engines: steepest, first-improvement, traces, tie handling."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ascentlab.counting import SymbolCountingLandscape, zero_state
from ascentlab.landscapes import VcspLandscape, make_pairs_instance
from ascentlab.search import (
    FAIL_ON_TIE,
    LOCAL_OPTIMUM,
    LOWEST_INDEX,
    STEP_BUDGET,
    TieError,
    TraceStep,
    _below,
    first_improvement_ascent,
    is_local_maximum,
    steepest_ascent,
    trace_table,
)
from ascentlab.vcsp import SoftConstraint, VcspInstance
from ascentlab.winding import StepSchedule, WindingLandscape

# The canonical 20-step counting segment for N = 7: incrementing the state
# encoding 15 to the one encoding 16, every intermediate symbol included.
GOLDEN_N7 = [
    "0 0 0 1 1 1 1",
    "0 0 0 1 1 1 i1C",
    "0 0 0 1 1 1 C",
    "0 0 0 1 1 i1C C",
    "0 0 0 1 1 C C",
    "0 0 0 1 1 C iC0",
    "0 0 0 1 1 C 0",
    "0 0 0 1 i1C C 0",
    "0 0 0 1 C C 0",
    "0 0 0 1 C iC0 0",
    "0 0 0 1 C 0 0",
    "0 0 0 i1C C 0 0",
    "0 0 0 C C 0 0",
    "0 0 0 C iC0 0 0",
    "0 0 0 C 0 0 0",
    "0 0 i0X C 0 0 0",
    "0 0 X C 0 0 0",
    "0 0 X iC0 0 0 0",
    "0 0 X 0 0 0 0",
    "0 0 iX1 0 0 0 0",
    "0 0 1 0 0 0 0",
]


def test_golden_counting_segment_n7():
    landscape = SymbolCountingLandscape(7)
    states = [tuple(row.split()) for row in GOLDEN_N7]
    trace = steepest_ascent(landscape, states[0], max_steps=len(states) - 1)
    assert trace.states() == states
    assert trace.num_steps == 20
    deltas = [s.delta for s in trace.steps[1:]]
    assert all(d > 0 for d in deltas)


def test_empty_trace_at_local_maximum():
    landscape = VcspLandscape(make_pairs_instance(4, 2))
    trace = steepest_ascent(landscape, (1, 1, 1, 1), max_steps=100)
    assert trace.num_steps == 0
    assert trace.terminal == LOCAL_OPTIMUM


def test_winding_path_length_n5():
    landscape = WindingLandscape(5)  # default semismooth schedule
    trace = steepest_ascent(landscape, landscape.origin(), max_steps=100)
    assert trace.num_steps == 62
    assert trace.terminal == LOCAL_OPTIMUM
    assert trace.final_state == landscape.peak_state(5)


def test_winding_path_visits_subcube_peaks_in_order():
    for factory in (StepSchedule.semismooth, StepSchedule.root2path):
        n = 8
        landscape = WindingLandscape(n, factory(n))
        trace = steepest_ascent(landscape, landscape.origin(), max_steps=2 ** (n + 1))
        states = trace.states()
        positions = [states.index(landscape.peak_state(k)) for k in range(1, n + 1)]
        assert positions == sorted(positions)
        assert positions[-1] == len(states) - 1
        # the half-then-return shape: peak k sits T_k steps before the point
        # where the level-(k+1) pair starts moving
        assert positions == [2 ** (k + 1) - 2 for k in range(1, n + 1)]


def test_budget_termination():
    landscape = WindingLandscape(4)
    trace = steepest_ascent(landscape, landscape.origin(), max_steps=5)
    assert trace.num_steps == 5
    assert trace.terminal == STEP_BUDGET


def test_fail_on_tie_raises_with_culprits():
    # two independent variables with identical unary gains tie at (0, 0)
    inst = VcspInstance(
        domains=(2, 2),
        constraints=(
            SoftConstraint((0,), 1, (0, 3)),
            SoftConstraint((1,), 1, (0, 3)),
        ),
    )
    landscape = VcspLandscape(inst)
    with pytest.raises(TieError) as err:
        steepest_ascent(landscape, (0, 0), FAIL_ON_TIE, max_steps=10)
    assert err.value.state == (0, 0)
    assert err.value.moves == [(0, 1), (1, 1)]
    trace = steepest_ascent(landscape, (0, 0), LOWEST_INDEX, max_steps=10)
    assert trace.states()[1] == (1, 0)
    assert trace.final_state == (1, 1)


def test_first_improvement_examples():
    landscape = VcspLandscape(make_pairs_instance(4, 2))
    trace = first_improvement_ascent(landscape, (0, 0, 0, 0), seed=1, max_steps=50)
    assert trace.num_steps == 0
    assert trace.terminal == LOCAL_OPTIMUM

    counting = SymbolCountingLandscape(5)
    fi = first_improvement_ascent(counting, zero_state(5), seed=11, max_steps=4096)
    sa = steepest_ascent(counting, zero_state(5), max_steps=4096)
    assert fi.terminal == LOCAL_OPTIMUM
    assert sa.terminal == LOCAL_OPTIMUM
    # both land on local maxima; first-improvement wanders off the main path
    assert is_local_maximum(counting, fi.final_state)
    assert fi.num_steps > 0


def test_first_improvement_deterministic_per_seed():
    counting = SymbolCountingLandscape(4)
    a = first_improvement_ascent(counting, zero_state(4), seed=5, max_steps=500)
    b = first_improvement_ascent(counting, zero_state(4), seed=5, max_steps=500)
    assert a.states() == b.states()


def test_below_accepts_each_value_of_its_range_once():
    # for each k, the patterns of k.bit_length() bits below k are accepted
    # after one read, each giving itself, and every other pattern is read
    # again: so a draw from uniform bits is uniform over range(k)
    for k in range(2, 18):
        bits = k.bit_length()
        accepted = []
        for pattern in range(2 ** bits):
            reads = [pattern, k - 1]

            def getrandbits(asked):
                assert asked == bits
                return reads.pop(0)

            j = _below(k, getrandbits)
            if len(reads) == 1:
                accepted.append(j)
            else:
                assert pattern >= k and j == k - 1 and reads == [], (k, pattern)
        assert accepted == list(range(k)), k


def test_below_draws_of_one_seed_are_pinned():
    # first-improvement's seeded traces rest on this stream
    rng = random.Random(2020)
    assert [_below(k, rng.getrandbits) for k in range(2, 18)] == [
        0, 2, 3, 3, 3, 2, 6, 8, 2, 9, 1, 7, 12, 3, 6, 13]
    assert rng.getrandbits(32) == 2878628057


def test_counting_full_ascent_terminals_recorded():
    # where the full ascent ends after the counting path's endpoint is not
    # specified by the construction; pin the observed terminals as derived
    # artifacts (an iX1 head, then an alternating 0/C tail)
    expected = {
        2: ("iX1 0", 9),
        3: ("iX1 0 C", 27),
        4: ("iX1 0 C 0", 69),
        5: ("iX1 0 C 0 C", 157),
        6: ("iX1 0 C 0 C 0", 339),
    }
    for n, (terminal, steps) in expected.items():
        landscape = SymbolCountingLandscape(n)
        trace = steepest_ascent(landscape, zero_state(n), max_steps=2 ** (n + 4))
        assert trace.terminal == LOCAL_OPTIMUM
        assert trace.final_state == tuple(terminal.split())
        assert trace.num_steps == steps
        assert is_local_maximum(landscape, trace.final_state)


def test_is_local_maximum_examples():
    pairs = VcspLandscape(make_pairs_instance(6, 3))
    assert is_local_maximum(pairs, (1,) * 6)
    zero_inst = VcspInstance(
        domains=(2, 2), constraints=(SoftConstraint((0, 1), 1, (0, 0, 0, 0)),))
    flat = VcspLandscape(zero_inst)
    for s in itertools.product((0, 1), repeat=2):
        assert is_local_maximum(flat, s)
    winding = WindingLandscape(3)
    maxima = [
        x for x in itertools.product((0, 1), repeat=6)
        if is_local_maximum(winding, x)
    ]
    assert maxima == [(0, 0, 0, 0, 1, 1)]


def test_trace_invariants_on_winding():
    landscape = WindingLandscape(4)
    trace = steepest_ascent(landscape, landscape.origin(), max_steps=100)
    for prev, cur in zip(trace.steps, trace.steps[1:]):
        assert cur.fitness > prev.fitness
        assert sum(a != b for a, b in zip(prev.state, cur.state)) == 1
        assert cur.fitness == landscape.evaluate(cur.state)
        # steepest choice: recorded delta is the maximum over all moves
        best = max(landscape.delta(prev.state, m) for m in landscape.moves(prev.state))
        assert cur.delta == best


def test_trace_table_format():
    landscape = VcspLandscape(make_pairs_instance(2, 2))
    trace = steepest_ascent(landscape, (0, 1), max_steps=10)
    text = trace_table(landscape, trace)
    lines = text.strip().splitlines()
    assert lines[0] == "step\tflipped_variable\tdelta\tfitness\tstate"
    assert lines[1] == "0\t\t0\t0\t01"
    assert lines[-1].startswith("# terminal")


def test_trace_step_is_a_named_tuple_record():
    assert TraceStep._fields == ("state", "fitness", "move", "delta")
    step = TraceStep(("0", "i01"), 1, (1, "i01"), 1)
    assert repr(step) == "TraceStep(state=('0', 'i01'), fitness=1, move=(1, 'i01'), delta=1)"
    assert (step.state, step.fitness, step.move, step.delta) == (("0", "i01"), 1, (1, "i01"), 1)
    with pytest.raises(AttributeError):
        step.fitness = 2
    assert step == TraceStep(("0", "i01"), 1, (1, "i01"), 1)
    assert step != TraceStep(("0", "i01"), 1, (1, "i01"), 2)
    start = steepest_ascent(SymbolCountingLandscape(2), ("0", "0"), max_steps=0).steps[0]
    assert start == TraceStep(("0", "0"), 0, None, 0)


@pytest.mark.parametrize("seed", [None, -3, True, 1.5, "abc"])
def test_first_improvement_refuses_a_seed_that_is_not_a_non_negative_int(seed):
    # None would run unseeded, -3 would run as seed 3 (random.Random seeds
    # by the absolute value), and True, 1.5 and "abc" would each seed a run
    landscape = SymbolCountingLandscape(3)
    with pytest.raises(ValueError, match="seed must be a non-negative int"):
        first_improvement_ascent(landscape, zero_state(3), seed, max_steps=10)


@pytest.mark.parametrize("max_steps", [True, 2.5, -1, "10", None])
def test_ascents_refuse_a_budget_that_is_not_a_non_negative_int(max_steps):
    # True would run one step; 2.5 would fail inside itertools.islice
    landscape = SymbolCountingLandscape(3)
    with pytest.raises(ValueError, match="max_steps must be a non-negative int"):
        steepest_ascent(landscape, zero_state(3), max_steps=max_steps)
    with pytest.raises(ValueError, match="max_steps must be a non-negative int"):
        first_improvement_ascent(landscape, zero_state(3), 1, max_steps=max_steps)


def test_max_steps_is_mandatory():
    landscape = VcspLandscape(make_pairs_instance(2, 2))
    with pytest.raises(TypeError):
        steepest_ascent(landscape, (0, 0))  # noqa: missing max_steps on purpose


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 12 - 1), st.integers(0, 2 ** 31))
def test_property_ascents_terminate_at_local_maxima(bits, seed):
    # arbitrary starts may produce genuine steepest ties, so use the
    # index-based policy here; fail-on-tie is for the canonical starts
    landscape = WindingLandscape(6, StepSchedule.root2path(6))
    start = tuple(bits >> i & 1 for i in range(12))
    trace = steepest_ascent(landscape, start, LOWEST_INDEX, max_steps=4096)
    assert trace.terminal == LOCAL_OPTIMUM
    assert is_local_maximum(landscape, trace.final_state)
    fi = first_improvement_ascent(landscape, start, seed=seed, max_steps=4096)
    assert fi.terminal == LOCAL_OPTIMUM
    assert is_local_maximum(landscape, fi.final_state)
