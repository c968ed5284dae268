"""The batched move scan: ``move_deltas`` equals ``delta`` move by move on
every landscape family and agrees with an independent evaluator, and steepest
ascent over it takes the same path, or raises the same tie, as a per-move
reference loop."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ascentlab.analysis import gradient
from ascentlab.counting import SymbolCountingLandscape, count_end_state, zero_state
from ascentlab.landscapes import VcspLandscape
from ascentlab.rules import verify_steepest_equals_rules
from ascentlab.search import (
    FAIL_ON_TIE,
    LOCAL_OPTIMUM,
    LOWEST_INDEX,
    STEP_BUDGET,
    TieError,
    steepest_ascent,
)
from ascentlab.symbols import SYMBOLS
from ascentlab.vcsp import SoftConstraint, VcspError, VcspInstance
from ascentlab.winding import StepSchedule, WindingLandscape

from conftest import random_assignment, random_instance
from test_winding import straight_line_reference

PRESETS = (StepSchedule.semismooth, StepSchedule.root2path)


@st.composite
def schedules(draw, max_n=5, min_n=1):
    """Schedules that StepSchedule accepts, with steps small enough that
    steepest-move ties are common."""
    n = draw(st.integers(min_n, max_n))
    s_plus = sorted(draw(st.sets(st.integers(1, 39), min_size=n, max_size=n)))
    s_minus = [draw(st.integers(-20, min(s_plus[k], s_plus[max(k - 1, 0)]) - 1))
               for k in range(n)]
    return StepSchedule(tuple(s_plus), tuple(s_minus))


def per_move(landscape, state):
    return [(m, landscape.delta(state, m)) for m in landscape.moves(state)]


def by_values(landscape, value, state):
    """The scan recomputed from an independent evaluator ``value``."""
    here = value(state)
    return [(m, value(landscape.apply(state, m)) - here) for m in landscape.moves(state)]


def winding_value(landscape):
    s = landscape.schedule
    return straight_line_reference(landscape.n, s.s_plus, s.s_minus)


def check_winding_states(landscape, states):
    value = winding_value(landscape)
    for x in states:
        scan = landscape.move_deltas(x)
        assert scan == per_move(landscape, x)
        assert scan == by_values(landscape, value, x), x


# -- the hook equals delta on every family ------------------------------------

@pytest.mark.parametrize("factory", PRESETS)
def test_winding_scan_on_every_state_up_to_n5(factory):
    for n in range(1, 6):
        landscape = WindingLandscape(n, factory(n))
        check_winding_states(landscape, itertools.product((0, 1), repeat=2 * n))


@settings(max_examples=40, deadline=None)
@given(schedules())
def test_winding_scan_on_every_state_under_drawn_schedules(schedule):
    landscape = WindingLandscape(schedule.n, schedule)
    check_winding_states(landscape, itertools.product((0, 1), repeat=2 * schedule.n))


@settings(max_examples=30, deadline=None)
@given(st.integers(6, 12), st.integers(0, 2 ** 32))
def test_winding_scan_on_random_states_of_larger_landscapes(n, seed):
    rng = random.Random(seed)
    landscape = WindingLandscape(n, PRESETS[seed % 2](n))
    check_winding_states(
        landscape, [tuple(rng.randint(0, 1) for _ in range(2 * n)) for _ in range(20)])


def walk_up_states(n, rng):
    """States 0^(2(j-1)) p 0^(2r) q rest for every pair j, every p and every
    m = j+r+1 with q one of 01, 10, 11, and with q left out (no m): the
    flips of pair j make it 00, 11 or mixed and change the values of every
    level from j up to min(n, m+1).  Random states seldom start with 00."""
    for j in range(1, n + 1):
        below = (0,) * (2 * (j - 1))
        for p in itertools.product((0, 1), repeat=2):
            yield below + p + (0,) * (2 * (n - j))
            for m in range(j + 1, n + 1):
                for q in ((0, 1), (1, 0), (1, 1)):
                    rest = tuple(rng.randint(0, 1) for _ in range(2 * (n - m)))
                    yield below + p + (0,) * (2 * (m - j - 1)) + q + rest


@pytest.mark.parametrize("factory", PRESETS)
def test_winding_scan_walking_up_over_zero_pairs(factory):
    rng = random.Random(7)
    for n in range(6, 13):
        check_winding_states(WindingLandscape(n, factory(n)), walk_up_states(n, rng))


@settings(max_examples=10, deadline=None)
@given(schedules(max_n=12, min_n=6), st.integers(0, 2 ** 32))
def test_winding_scan_walking_up_under_drawn_schedules(schedule, seed):
    landscape = WindingLandscape(schedule.n, schedule)
    check_winding_states(landscape, walk_up_states(schedule.n, random.Random(seed)))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_vcsp_scan_on_random_instances(seed):
    rng = random.Random(seed)
    instance = random_instance(rng)
    landscape = VcspLandscape(instance)
    for _ in range(10):
        a = random_assignment(rng, instance)
        scan = landscape.move_deltas(a)
        assert scan == per_move(landscape, a)
        assert scan == by_values(landscape, instance.evaluate, a)


def test_vcsp_scan_checks_the_assignment():
    landscape = VcspLandscape(random_instance(random.Random(5)))
    with pytest.raises(VcspError):
        landscape.move_deltas((0,) * (landscape.num_variables - 1))
    with pytest.raises(VcspError):
        landscape.move_deltas((0,) * (landscape.num_variables - 1) + (9,))


def test_counting_default_scan_matches_delta():
    rng = random.Random(11)
    landscape = SymbolCountingLandscape(5)
    instance = landscape.instance
    value = lambda s: instance.evaluate(landscape.to_assignment(s))  # noqa: E731
    for _ in range(300):
        state = tuple(rng.choice(SYMBOLS) for _ in range(5))
        scan = landscape.move_deltas(state)
        assert scan == per_move(landscape, state)
        assert scan == by_values(landscape, value, state)


@pytest.mark.parametrize("landscape, corrupted, move", [
    (VcspLandscape(random_instance(random.Random(3))), (0, 1), (0, 1)),
    (SymbolCountingLandscape(4), (0, SYMBOLS.index("i01")), (3, "i01")),
])
def test_scan_against_delta_catches_a_corrupted_kernel(monkeypatch, landscape,
                                                        corrupted, move):
    # the kernel off by one on the instance move ``corrupted`` (the
    # landscape's ``move``) wherever it is asked: ``delta`` reads two
    # evaluations, not the kernel, so the scan and ``delta`` disagree there
    kernel = VcspInstance._move_deltas

    def off_by_one(self, assignment, moves):
        return [(m, d + (m == corrupted)) for m, d in kernel(self, assignment, moves)]

    monkeypatch.setattr(VcspInstance, "_move_deltas", off_by_one)
    state = landscape.zero_state()
    scan, reference = landscape.move_deltas(state), per_move(landscape, state)
    assert [m for (m, d), entry in zip(scan, reference) if (m, d) != entry] == [move]


def test_gradient_reads_one_scan():
    class Scanned(WindingLandscape):
        scans = 0

        def move_deltas(self, state):
            self.scans += 1
            return super().move_deltas(state)

    landscape = Scanned(4)
    peak = landscape.peak_state(3)
    assert gradient(landscape, peak) == landscape.peak_gradient_expected(3)
    assert landscape.scans == 1


# -- steepest ascent over the scan equals a per-move reference loop -----------

def reference_ascent(landscape, value, start, policy, max_steps):
    """Steepest ascent with every delta taken from ``value`` move by move:
    ((state, fitness, move, delta) per step, terminal), or TieError."""

    def maximal(state):
        here = value(state)
        best, best_delta = [], 0
        for move in landscape.moves(state):
            d = value(landscape.apply(state, move)) - here
            if d > best_delta:
                best, best_delta = [move], d
            elif d == best_delta and d > 0:
                best.append(move)
        return best, best_delta

    state = tuple(start)
    fitness = value(state)
    steps = [(state, fitness, None, 0)]
    for _ in range(max_steps):
        best, delta = maximal(state)
        if not best:
            return steps, LOCAL_OPTIMUM
        if len(best) > 1 and policy == FAIL_ON_TIE:
            raise TieError(state, best, delta, landscape.format_state(state))
        state = landscape.apply(state, best[0])
        fitness += delta
        steps.append((state, fitness, best[0], delta))
    return steps, LOCAL_OPTIMUM if not maximal(state)[0] else STEP_BUDGET


def outcome(run):
    """A trace as comparable tuples, or the tie's (state, moves, delta)."""
    try:
        result = run()
    except TieError as tie:
        return ("tie", tie.state, tie.moves, tie.delta)
    if isinstance(result, tuple):
        return result
    return ([(s.state, s.fitness, s.move, s.delta) for s in result.steps], result.terminal)


def check_same_ascent(landscape, value, start, policy, max_steps):
    got = outcome(lambda: steepest_ascent(landscape, start, policy, max_steps=max_steps))
    want = outcome(lambda: reference_ascent(landscape, value, start, policy, max_steps))
    assert got == want


@settings(max_examples=80, deadline=None)
@given(schedules(), st.integers(0, 2 ** 10 - 1),
       st.sampled_from([FAIL_ON_TIE, LOWEST_INDEX]), st.integers(0, 70))
def test_winding_ascent_equals_per_move_reference(schedule, bits, policy, max_steps):
    n = schedule.n
    landscape = WindingLandscape(n, schedule)
    start = tuple(bits >> i & 1 for i in range(2 * n))
    check_same_ascent(landscape, winding_value(landscape), start, policy, max_steps)
    check_same_ascent(landscape, winding_value(landscape), landscape.origin(), policy,
                      2 ** (n + 1))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32), st.sampled_from([FAIL_ON_TIE, LOWEST_INDEX]))
def test_vcsp_ascent_equals_per_move_reference(seed, policy):
    rng = random.Random(seed)
    instance = random_instance(rng)
    landscape = VcspLandscape(instance)
    check_same_ascent(landscape, instance.evaluate, random_assignment(rng, instance),
                      policy, 200)


def test_tie_prone_schedule_still_ties_at_the_origin():
    # the origin gradient is [s+_1, s-_1, s-_2, s-_2, ..., s-_4, s-_4]; the
    # validator accepts this schedule, yet s-_4 = 22 tops it twice
    landscape = WindingLandscape(4, StepSchedule((12, 24, 27, 36), (3, -15, 8, 22)))
    with pytest.raises(TieError) as err:
        steepest_ascent(landscape, landscape.origin(), FAIL_ON_TIE, max_steps=100)
    assert err.value.state == landscape.origin()
    assert err.value.moves == [(6, 1), (7, 1)]
    assert err.value.delta == 22


def test_steepest_ascent_reports_a_tie_and_checks_its_policy_on_entry():
    landscape = VcspLandscape(VcspInstance(
        domains=(2, 2),
        constraints=(SoftConstraint((0,), 1, (0, 3)), SoftConstraint((1,), 1, (0, 3)))))
    with pytest.raises(TieError) as err:
        steepest_ascent(landscape, (0, 0), max_steps=5)
    assert (err.value.state, err.value.moves, err.value.delta) == ((0, 0), [(0, 1), (1, 1)], 3)
    trace = steepest_ascent(landscape, (0, 0), LOWEST_INDEX, max_steps=5)
    assert (trace.steps[1].move, trace.steps[1].delta) == ((0, 1), 3)
    for max_steps in (0, 5):
        with pytest.raises(ValueError):
            steepest_ascent(landscape, (0, 0), "no-such-policy", max_steps=max_steps)


def test_ties_inside_and_across_neighbourhood_runs_match_the_reference():
    # variables 0 and 1 share one table, 2 and 3 another: two neighbourhood
    # runs of two variables.  From 0000, (0, 1) and (1, 1) tie inside the
    # first run; from 1000, (1, 1) and (2, 1) tie across the two runs.
    instance = VcspInstance(domains=(2, 2, 2, 2), constraints=(
        SoftConstraint((0, 1), 1, (0, 5, 5, 7)), SoftConstraint((2, 3), 1, (0, 1, 2, 3))))
    landscape = VcspLandscape(instance)
    assert [landscape.affected(var) for var in range(4)] == [(0, 1)] * 2 + [(2, 3)] * 2
    for start, moves, delta in (((0, 0, 0, 0), [(0, 1), (1, 1)], 5),
                                ((1, 0, 0, 0), [(1, 1), (2, 1)], 2)):
        with pytest.raises(TieError) as got:
            steepest_ascent(landscape, start, FAIL_ON_TIE, max_steps=10)
        with pytest.raises(TieError) as want:
            reference_ascent(landscape, instance.evaluate, start, FAIL_ON_TIE, 10)
        assert (got.value.state, got.value.moves, got.value.delta) == (start, moves, delta)
        assert (want.value.state, want.value.moves, want.value.delta) == (start, moves, delta)
        shown = "".join(map(str, start))
        assert str(got.value) == str(want.value) == (
            f"steepest-move tie at {shown}: moves {moves} all improve by {delta}")
    # lowest-index takes the first tied move in canonical order each time
    trace = steepest_ascent(landscape, (0, 0, 0, 0), LOWEST_INDEX, max_steps=10)
    assert [s.move for s in trace.steps[1:]] == [(0, 1), (1, 1), (2, 1), (3, 1)]
    check_same_ascent(landscape, instance.evaluate, (0, 0, 0, 0), LOWEST_INDEX, 10)


# -- the lockstep oracle computes each delta once -------------------------------

def test_lockstep_reads_each_delta_once():
    # one full scan of the start, then per step only the moves of those
    # neighbours of the flipped position whose own neighbourhood takes
    # values not seen before on the path
    class Counted(SymbolCountingLandscape):
        scanned = 0

        def _rescan(self, state, variables):
            scan = super()._rescan(state, variables)
            self.scanned += len(scan)
            return scan

        def delta(self, state, move):
            raise AssertionError("the lockstep oracle reads deltas from scans")

    n = 5
    landscape = Counted(n)
    report = verify_steepest_equals_rules(n, landscape=landscape)
    assert report.passed
    healthy = SymbolCountingLandscape(n)
    steps = steepest_ascent(healthy, zero_state(n), max_steps=2 ** (n + 4)).steps
    to_end = [s.state for s in steps].index(count_end_state(n))

    def seen_key(state, var):
        return var, tuple(state[q] for q in healthy.affected(var))

    seen = {seen_key(steps[0].state, var) for var in range(n)}
    rescanned = 0
    for s in steps[1:to_end + 1]:
        for var in healthy.affected(s.move[0]):
            key = seen_key(s.state, var)
            if key not in seen:
                seen.add(key)
                rescanned += len(healthy._rescan(s.state, (var,)))
    assert 0 < rescanned
    assert landscape.scanned == len(healthy.move_deltas(zero_state(n))) + rescanned
