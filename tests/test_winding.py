"""Winding landscape: recursion values, schedules, peaks, serialization."""

from __future__ import annotations

import itertools

import pytest

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
    StepSchedule.semismooth(8)
    StepSchedule.root2path(8)


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
