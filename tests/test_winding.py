"""Winding landscape: recursion values, schedules, peaks, serialization."""

from __future__ import annotations

import itertools

import pytest

from ascentlab.analysis import degree_bound_report, winding_peak_pairs
from ascentlab.search import steepest_ascent
from ascentlab.winding import (
    StepSchedule,
    WindingError,
    WindingLandscape,
    winding_from_obj,
    winding_to_obj,
)


def straight_line_reference(n, s_plus, s_minus):
    """Independent implementation: literal memoized recursion over prefixes.

    Kept deliberately naive (dictionary memo, explicit XOR) so it shares no
    code or shortcuts with the production evaluator.
    """
    memo = {(): 0}

    def peak(k):
        return tuple([0] * (2 * (k - 1)) + [1, 1]) if k >= 1 else ()

    def f(x):
        if x in memo:
            return memo[x]
        level = len(x) // 2
        prefix, a, b = x[:-2], x[-2], x[-1]
        pk = peak(level - 1)
        if a == 0 and b == 0:
            v = f(prefix)
        elif a != b and prefix != pk:
            v = f(prefix) + s_minus[level - 1]
        elif a == 0 and b == 1:
            v = f(pk) + s_minus[level - 1]
        elif a == 1 and b == 0:
            v = f(pk) + s_plus[level - 1]
        else:
            xor = tuple(xi ^ pi for xi, pi in zip(prefix, pk))
            v = f(xor) + f(pk) + 2 * s_plus[level - 1]
        memo[x] = v
        return v

    return f


def test_schedule_validation():
    with pytest.raises(WindingError):
        StepSchedule((0,), (0,))       # s+ must be positive
    with pytest.raises(WindingError):
        StepSchedule((2, 2), (1, 1))   # strictly increasing
    with pytest.raises(WindingError):
        StepSchedule((2, 3), (2, 1))   # s- < s+
    with pytest.raises(WindingError):
        StepSchedule((2, 3), (1, 2))   # s+_k > s-_(k+1)
    for steps in (((True, 2), (0, 1)), ((1, 2), (0, 1.0)), ((1, 2.5), (0, 1))):
        with pytest.raises(WindingError):
            StepSchedule(*steps)       # steps are exact ints, never a bool or a float
    StepSchedule.semismooth(8)
    StepSchedule.root2path(8)


def test_refusals_name_what_is_wrong():
    landscape = WindingLandscape(3)
    for build, message in (
        (lambda: StepSchedule((), ()), "schedule needs equal-length, non-empty step sequences"),
        (lambda: StepSchedule((2, 3), (1,)),
         "schedule needs equal-length, non-empty step sequences"),
        (lambda: WindingLandscape(3, StepSchedule.semismooth(2)),
         "schedule has 2 levels, landscape needs 3"),
        (lambda: landscape.peak_state(0), "k must be in 1..3"),
        (lambda: landscape.peak_gradient_expected(4), "k must be in 1..3"),
        (lambda: winding_from_obj(dict(winding_to_obj(landscape), format="vcsp-instance/v1")),
         "not a winding-landscape/v1 document"),
    ):
        with pytest.raises(WindingError) as refused:
            build()
        assert str(refused.value) == message


def test_landscape_refuses_a_level_count_that_is_not_an_exact_integer():
    for n in (True, 1.0, 2.0, "1", None):
        with pytest.raises(WindingError, match="exact integer"):
            WindingLandscape(n, StepSchedule((1,), (0,)))
    with pytest.raises(WindingError):
        WindingLandscape(0, StepSchedule((1,), (0,)))


def test_single_level_values():
    landscape = WindingLandscape(1, StepSchedule((5,), (2,)))
    assert landscape.evaluate((1, 0)) == 5   # fittest step
    assert landscape.evaluate((0, 1)) == 2   # barrier step
    assert landscape.evaluate((0, 0)) == 0
    assert landscape.evaluate((1, 1)) == 10


def test_all_zero_state_is_zero():
    for n in (1, 3, 6):
        landscape = WindingLandscape(n)
        assert landscape.evaluate((0,) * (2 * n)) == 0


def test_full_table_against_independent_implementation():
    schedule = StepSchedule((2, 3, 4), (1, 1, 1))
    landscape = WindingLandscape(3, schedule)
    ref = straight_line_reference(3, schedule.s_plus, schedule.s_minus)
    for x in itertools.product((0, 1), repeat=6):
        assert landscape.evaluate(x) == ref(x)


def test_full_table_root2path_and_negative_barriers():
    for schedule in (StepSchedule.root2path(4), StepSchedule((1, 3, 5, 7), (-2, -2, -1, 0))):
        landscape = WindingLandscape(4, schedule)
        ref = straight_line_reference(4, schedule.s_plus, schedule.s_minus)
        for x in itertools.product((0, 1), repeat=8):
            assert landscape.evaluate(x) == ref(x)


def test_delta_consistency():
    landscape = WindingLandscape(4)
    for x in itertools.islice(itertools.product((0, 1), repeat=8), 64):
        for move in landscape.moves(x):
            assert landscape.delta(x, move) == (
                landscape.evaluate(landscape.apply(x, move)) - landscape.evaluate(x))


def test_subcube_peak_is_unique_maximum():
    # exhaustive over the level-k sub-cube for k <= 6, both presets
    for schedule_factory in (StepSchedule.semismooth, StepSchedule.root2path):
        for k in range(1, 7):
            landscape = WindingLandscape(k, schedule_factory(k))
            peak = landscape.peak_state(k)
            peak_value = landscape.evaluate(peak)
            assert peak_value == landscape.peak_value[k]
            for x in itertools.product((0, 1), repeat=2 * k):
                if x != peak:
                    assert landscape.evaluate(x) < peak_value


def test_invalid_states():
    landscape = WindingLandscape(2)
    with pytest.raises(WindingError):
        landscape.evaluate((0, 1, 0))   # odd length
    with pytest.raises(WindingError):
        landscape.evaluate((0, 1))      # wrong width
    for state in ((2, 0, 0, 0), (0, 0, -1, 0), (0, 1, 1, 3)):  # not bits
        with pytest.raises(WindingError):
            landscape.evaluate(state)
        with pytest.raises(WindingError):
            landscape.move_deltas(state)
        with pytest.raises(WindingError):
            landscape.delta(state, (0, 1))
    with pytest.raises(WindingError):
        landscape.delta((0, 0, 0, 0), (1, 2))  # a move to a non-bit


def test_move_deltas_evaluate_and_delta_refuse_a_bad_state_alike():
    landscape = WindingLandscape(2)
    landscape.move_deltas((0, 0, 0, 0))  # a memo in place does not let a bad state by
    cases = [
        ((0, 1, 0), "winding states have even length"),
        ((0, 1), "state has 2 bits, expected 4"),
        ((0, 0, 0, 0, 0, 0), "state has 6 bits, expected 4"),
        ((2, 0, 0, 0), "winding states hold only bits 0 and 1, got (2, 0, 0, 0)"),
        ([0, 0, -1, 0], "winding states hold only bits 0 and 1, got (0, 0, -1, 0)"),
    ]
    for state, message in cases:
        for call in (landscape.move_deltas, landscape.evaluate,
                     lambda s: landscape.delta(s, (0, 1))):
            with pytest.raises(WindingError) as refused:
                call(state)
            assert str(refused.value) == message, (state, call)


def test_delta_reads_the_memo_of_an_equal_state_and_still_checks_its_input():
    landscape = WindingLandscape(4)
    state = landscape.peak_state(2)
    expected = [landscape.evaluate(landscape.apply(state, (var, 1 - bit)))
                - landscape.evaluate(state) for var, bit in enumerate(state)]
    landscape.move_deltas(state)  # leaves `state` in the memo
    twin = tuple(list(state))
    assert twin == state and twin is not state
    for var, bit in enumerate(state):
        flip = (var, 1 - bit)
        assert landscape.delta(state, flip) == expected[var]
        assert landscape.delta(twin, flip) == expected[var]
        assert landscape.delta(list(state), flip) == expected[var]
        assert landscape.delta(state, (var, bit)) == 0
    for value in (2, -1, None):
        with pytest.raises(WindingError):
            landscape.delta(state, (0, value))
    for wrong in (state[:-2], state + (0, 0), state[:-1]):
        landscape.delta(state, (0, 1))
        with pytest.raises(WindingError):
            landscape.delta(wrong, (0, 1))
    assert landscape.delta(state, (0, 1)) == expected[0]


def alternating_schedule(n):
    """s+_k = 3k + 5 and s-_k = (-1)^k (k + 2): barrier steps of both signs."""
    return StepSchedule(tuple(3 * k + 5 for k in range(1, n + 1)),
                        tuple((-1) ** k * (k + 2) for k in range(1, n + 1)))


SCHEDULES = (StepSchedule.semismooth, StepSchedule.root2path, alternating_schedule)


def full_pass(landscape, state):
    f0, _, deltas = landscape._level_pass(state)
    return f0[-1], tuple(deltas)


def memo_mismatches(landscape, states):
    """The states whose memoised level pass differs from the full pass."""
    return [s for s in states if landscape._level_scan(s) != full_pass(landscape, s)]


def test_memoised_level_pass_equals_the_full_pass_and_the_reference_on_every_state():
    for n in range(1, 9):
        states = list(itertools.product((0, 1), repeat=2 * n))
        flips = [1 << (2 * n - 1 - i) for i in range(2 * n)]  # state index bit of each variable
        for factory in SCHEDULES:
            schedule = factory(n)
            landscape = WindingLandscape(n, schedule)
            ref = straight_line_reference(n, schedule.s_plus, schedule.s_minus)
            values = [ref(x) for x in states]
            expected = [(v, tuple(values[i ^ bit] - v for bit in flips))
                        for i, v in enumerate(values)]
            assert [full_pass(landscape, x) for x in states] == expected
            for visit in ("cold", "warm"):
                assert [landscape._level_scan(x) for x in states] == expected, (n, visit)
            # from n = 6 on some low halves have at least two non-00 pairs below K
            served = sum(1 for sides in landscape._lows.values() for entry in sides if entry)
            assert (served > 0) == (n >= 6), n


def test_memoised_level_pass_equals_the_full_pass_along_both_long_paths():
    for factory in (StepSchedule.semismooth, StepSchedule.root2path):
        landscape = WindingLandscape(14, factory(14))
        states = steepest_ascent(landscape, landscape.origin(), max_steps=2 ** 15).states()
        assert len(states) == 2 ** 15 - 1
        assert memo_mismatches(landscape, states) == []


def test_a_corrupted_memo_entry_is_caught_by_the_equality_check():
    landscape = WindingLandscape(6, alternating_schedule(6))
    states = list(itertools.product((0, 1), repeat=12))
    assert memo_mismatches(landscape, states) == []
    sides = next(sides for sides in landscape._lows.values() if sides[0])
    x, y, deltas = entry = sides[0]
    sides[0] = (x, y, (deltas[0] + 1,) + deltas[1:])
    assert memo_mismatches(landscape, states)
    sides[0] = entry
    assert memo_mismatches(landscape, states) == []
    highs = landscape._highs
    key = next(iter(highs))
    side, a, cs, es = entry = highs[key]
    highs[key] = (side, a, (cs[0] + 1,) + cs[1:], es)
    assert memo_mismatches(landscape, states)
    highs[key] = entry


def test_the_memo_holds_at_most_one_entry_per_half_key():
    for n in (6, 7):
        k = n // 2
        landscape = WindingLandscape(n)
        for state in itertools.product((0, 1), repeat=2 * n):
            landscape.move_deltas(state)
        highs = len(landscape._highs)
        lows = sum(entry is not None for sides in landscape._lows.values() for entry in sides)
        assert highs <= 4 ** (n - k) and lows <= 2 * 4 ** k
        assert highs + lows <= 2 * 4 ** k + 4 ** (n - k)


def test_the_degree_bounds_leave_no_memo_entry():
    # the origin and every peak have at most one non-00 pair, so each low
    # half takes the full pass and neither half of the memo stores an entry
    landscape = WindingLandscape(40)
    report = degree_bound_report(landscape, winding_peak_pairs(landscape))
    assert report.total >= 39 * 40 // 2
    assert landscape._highs == {} and landscape._lows == {}


def test_serialization_round_trip():
    landscape = WindingLandscape(5, StepSchedule.root2path(5))
    obj = winding_to_obj(landscape)
    again = winding_from_obj(obj)
    assert again.n == 5
    assert again.schedule == landscape.schedule
    assert obj == {
        "format": "winding-landscape/v1",
        "n": 5,
        "s_plus": [1, 2, 3, 4, 5],
        "s_minus": [0, 0, 0, 0, 0],
    }
