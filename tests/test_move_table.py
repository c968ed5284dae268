"""The ascent loop's move -> delta table: after every step it equals a fresh
scan on every landscape family, a neighbourhood narrowed below the true one
is caught, and first-improvement over the table takes the same path as the
per-move loop it replaced."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ascentlab.counting import (
    SymbolCountingLandscape,
    make_counting_boolean_instance,
    zero_state,
)
from ascentlab.landscapes import VcspLandscape, make_pairs_instance
from ascentlab.search import (
    LOCAL_OPTIMUM,
    STEP_BUDGET,
    _MoveTable,
    first_improvement_ascent,
)
from ascentlab.symbols import SYMBOLS, encode_state
from ascentlab.winding import StepSchedule, WindingLandscape

from conftest import random_assignment, random_instance


def table_mismatch(landscape, start, rng, steps):
    """The number of random moves after which the table first differs from
    a fresh ``move_deltas`` scan, or None if it never does."""
    table = _MoveTable(landscape, start)
    for i in range(steps + 1):
        fresh = landscape.move_deltas(table.state)
        if list(table.entries()) != fresh:
            return i
        groups = table.by_variable()
        if any(move[0] != var for var, group in enumerate(groups) for move, _ in group):
            return i
        table.step(rng.choice(fresh)[0])
    return None


class Narrowed:
    """Mixin: claim that a move changes only its own variable's deltas."""

    def affected(self, var):
        return (var,)


class NarrowedVcsp(Narrowed, VcspLandscape):
    pass


class NarrowedSymbols(Narrowed, SymbolCountingLandscape):
    pass


def boolean_lift(n):
    return VcspLandscape(make_counting_boolean_instance(n))


# -- the table equals a fresh scan after every step ---------------------------

@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_table_on_random_instances(seed):
    rng = random.Random(seed)
    instance = random_instance(rng, max_domain=5)
    landscape = VcspLandscape(instance)
    assert table_mismatch(landscape, random_assignment(rng, instance), rng, 40) is None


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 7), st.integers(0, 2 ** 32))
def test_table_on_the_symbol_landscape(n, seed):
    rng = random.Random(seed)
    landscape = SymbolCountingLandscape(n)
    start = tuple(rng.choice(SYMBOLS) for _ in range(n))
    assert table_mismatch(landscape, start, rng, 60) is None


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 5), st.integers(0, 2 ** 32))
def test_table_on_the_boolean_lift(n, seed):
    rng = random.Random(seed)
    landscape = boolean_lift(n)
    start = tuple(rng.randint(0, 1) for _ in range(4 * n))
    assert table_mismatch(landscape, start, rng, 60) is None


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2 ** 32))
def test_table_on_winding(n, seed):
    rng = random.Random(seed)
    preset = (StepSchedule.semismooth, StepSchedule.root2path)[seed % 2]
    landscape = WindingLandscape(n, preset(n))
    start = tuple(rng.randint(0, 1) for _ in range(2 * n))
    table = _MoveTable(landscape, start)
    assert not table.local  # a black box: one full scan per step
    assert table_mismatch(landscape, start, rng, 40) is None


def test_scan_of_some_variables_is_the_full_scan_restricted_to_them():
    rng = random.Random(8)
    instance = random_instance(rng)
    landscapes = [(WindingLandscape(4), (0, 1, 1, 0, 0, 0, 1, 0)),
                  (SymbolCountingLandscape(5), ("0", "C", "i01", "1", "X")),
                  (VcspLandscape(instance), random_assignment(rng, instance))]
    for landscape, state in landscapes:
        full = landscape.move_deltas(state)
        for variables in ((), (0,), (1, 3), tuple(range(landscape.num_variables))):
            assert landscape.move_deltas(state, variables) == [
                entry for entry in full if entry[0][0] in variables]


def test_vcsp_neighbourhood_is_the_constraint_graph_neighbourhood():
    rng = random.Random(3)
    for _ in range(20):
        instance = random_instance(rng)
        landscape = VcspLandscape(instance)
        graph = instance.constraint_graph()
        for v in range(instance.num_variables):
            assert landscape.affected(v) == tuple(sorted(graph.adjacency[v] | {v}))
    # an interior bit of the Boolean lift meets 11 other bits, whatever N is
    assert len(boolean_lift(10).affected(17)) == 12


# -- the check fires on a neighbourhood narrowed below the true one -----------

@pytest.mark.parametrize("landscape, start", [
    (NarrowedVcsp(make_pairs_instance(6, 3)), (0,) * 6),
    (NarrowedVcsp(make_counting_boolean_instance(3)), encode_state(zero_state(3))),
    (NarrowedSymbols(4), zero_state(4)),
])
def test_table_check_fires_on_a_narrowed_neighbourhood(landscape, start):
    assert table_mismatch(landscape, start, random.Random(1), 60) is not None


# -- first-improvement over the table equals the per-move loop ----------------

def reference_first_improvement(landscape, start, seed, max_steps):
    """First-improvement ascent asking ``delta`` move by move, in the
    seeded variable order: ((state, fitness, move, delta) per step,
    terminal)."""
    rng = random.Random(seed)
    state = tuple(start)
    fitness = landscape.evaluate(state)
    steps = [(state, fitness, None, 0)]
    for _ in range(max_steps):
        by_var: dict[int, list[tuple]] = {}
        for move in landscape.moves(state):
            by_var.setdefault(move[0], []).append(move)
        order = sorted(by_var)
        rng.shuffle(order)
        taken = None
        for var in order:
            for move in by_var[var]:
                d = landscape.delta(state, move)
                if d > 0:
                    taken = (move, d)
                    break
            if taken:
                break
        if taken is None:
            return steps, LOCAL_OPTIMUM
        move, delta = taken
        state = landscape.apply(state, move)
        fitness += delta
        steps.append((state, fitness, move, delta))
    improving = any(landscape.delta(state, m) > 0 for m in landscape.moves(state))
    return steps, STEP_BUDGET if improving else LOCAL_OPTIMUM


def check_same_first_improvement(landscape, start, seed, max_steps):
    trace = first_improvement_ascent(landscape, start, seed, max_steps=max_steps)
    got = ([(s.state, s.fitness, s.move, s.delta) for s in trace.steps], trace.terminal)
    assert got == reference_first_improvement(landscape, start, seed, max_steps)


@pytest.mark.parametrize("seed", [0, 1, 7, 42, 2 ** 31 - 1])
@pytest.mark.parametrize("max_steps", [0, 5, 10_000])
def test_first_improvement_equals_the_per_move_loop(seed, max_steps):
    symbols = SymbolCountingLandscape(6)
    check_same_first_improvement(symbols, zero_state(6), seed, max_steps)
    bits = boolean_lift(4)
    check_same_first_improvement(bits, encode_state(zero_state(4)), seed, max_steps)
    winding = WindingLandscape(4)
    check_same_first_improvement(winding, winding.origin(), seed, max_steps)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(0, 2 ** 32))
def test_first_improvement_equals_the_per_move_loop_on_random_instances(seed, fi_seed):
    rng = random.Random(seed)
    instance = random_instance(rng, max_domain=5)
    check_same_first_improvement(VcspLandscape(instance),
                                 random_assignment(rng, instance), fi_seed, 200)
