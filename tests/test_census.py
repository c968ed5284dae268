"""The local-optima census walks the states depth first and drops each
prefix on which a neighbourhood run already has an improving move; it
equals the per-state census on every landscape family, also where it drops
most prefixes, stores in the memo only what a fresh scan gives, and is
caught when a landscape's neighbourhood leaves out a scope partner.  A VCSP
assignment is checked once per ascent, and once per local maximum in a
census.  The Gray-code walk the tests use to reach every state visits each
once."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ascentlab.analysis import CensusResult, local_optima_census
from ascentlab.cli import EXIT_INVALID, main
from ascentlab.counting import (
    F_NONZERO,
    H_NONZERO,
    SymbolCountingLandscape,
    make_counting_boolean_instance,
)
from ascentlab.landscapes import VcspLandscape, make_pairs_instance
from ascentlab.search import LOWEST_INDEX, first_improvement_ascent, steepest_ascent
from ascentlab.symbols import SYMBOLS
from ascentlab.vcsp import VcspError, VcspInstance
from ascentlab.winding import SCHEDULE_PRESETS, WindingLandscape

from conftest import dump_instance, gray_steps, random_instance


def reference_census(landscape, keep_maxima=True) -> CensusResult:
    """The census as one evaluation and one delta per move of every state,
    in ``iter_states`` order: the oracle for the depth-first walk."""
    count = 0
    global_max = None
    worst_local = None
    kept = []
    for state in landscape.iter_states():
        value = landscape.evaluate(state)
        if global_max is None or value > global_max:
            global_max = value
        if all(landscape.delta(state, m) <= 0 for m in landscape.moves(state)):
            count += 1
            if worst_local is None or value < worst_local:
                worst_local = value
            if keep_maxima:
                kept.append((state, value))
    return CensusResult(count, global_max, worst_local, landscape.state_count(),
                        tuple(kept))


def census_mismatch(landscape):
    """The fields in which the census differs from the reference one."""
    got = local_optima_census(landscape, landscape.state_count(), keep_maxima=True)
    want = reference_census(landscape)
    return [name for name in ("local_maxima", "global_max", "worst_local_max",
                              "states", "maxima")
            if getattr(got, name) != getattr(want, name)]


def corrupted_tables(rng):
    f_table = dict(F_NONZERO)
    for _ in range(rng.randint(1, 6)):
        f_table[(rng.choice(SYMBOLS), rng.choice(SYMBOLS))] = rng.randint(0, 30)
    h_table = dict(H_NONZERO)
    h_table[rng.choice(SYMBOLS)] = rng.randint(0, 9)
    return f_table, h_table


# -- the walk equals the per-state census --------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2 ** 32))
def test_census_on_random_instances(num_vars, seed):
    rng = random.Random(seed)
    instance = random_instance(rng, num_vars=num_vars, max_domain=4)
    assert census_mismatch(VcspLandscape(instance)) == []


@settings(max_examples=15, deadline=None)
@given(st.integers(2, 3), st.booleans(), st.integers(0, 2 ** 32))
def test_census_on_the_symbol_landscape(n, corrupt, seed):
    tables = corrupted_tables(random.Random(seed)) if corrupt else (None, None)
    assert census_mismatch(SymbolCountingLandscape(n, *tables)) == []


@pytest.mark.parametrize("preset", sorted(SCHEDULE_PRESETS))
@pytest.mark.parametrize("n", [1, 2, 3])
def test_census_on_winding(preset, n):
    assert census_mismatch(WindingLandscape(n, SCHEDULE_PRESETS[preset](n))) == []


# Landscapes on which most prefixes have an improving neighbourhood run, so
# the census drops them before their last variable is set.
PRUNED = {
    "symbols-4": lambda: SymbolCountingLandscape(4),
    "symbols-4-C0-12": lambda: SymbolCountingLandscape(4, {**F_NONZERO, ("C", "0"): 12}),
    "boolean-lift-3": lambda: VcspLandscape(make_counting_boolean_instance(3)),
}


@pytest.mark.parametrize("make", PRUNED.values(), ids=PRUNED)
def test_census_where_pruning_drops_most_prefixes(make):
    assert census_mismatch(make()) == []


@pytest.mark.parametrize("make", PRUNED.values(), ids=PRUNED)
def test_every_memo_entry_a_census_stores_equals_a_fresh_scan(make):
    landscape = make()
    local_optima_census(landscape, landscape.state_count())
    zero = landscape.zero_state()
    stored = 0
    for values, memo, variables, _ in landscape._runs[0]:
        hood = landscape.affected(variables[0])
        for key, entries in memo.items():
            state = list(zero)
            for var, value in zip(hood, key if len(hood) > 1 else (key,)):
                state[var] = value
            state = tuple(state)
            assert values(state) == key
            assert entries == tuple(entry for entry in landscape.move_deltas(state)
                                    if entry[0][0] in variables and entry[1] > 0)
            stored += 1
    assert stored > 0


@pytest.mark.parametrize("make", PRUNED.values(), ids=PRUNED)
def test_an_ascent_after_a_census_equals_one_on_a_fresh_landscape(make):
    landscape = make()
    local_optima_census(landscape, landscape.state_count())
    rng = random.Random(3)
    states = list(landscape.iter_states())
    for start in [landscape.zero_state(), *rng.sample(states, 6)]:
        assert (steepest_ascent(landscape, start, LOWEST_INDEX, max_steps=10_000)
                == steepest_ascent(make(), start, LOWEST_INDEX, max_steps=10_000))


class DroppedPartner(VcspLandscape):
    """Claims that a move on ``var`` leaves the moves of ``partner``, which
    shares a scope with it, as they were: ``affected(var)`` drops it."""

    def __init__(self, instance, var, partner):
        super().__init__(instance)
        self.var, self.partner = var, partner

    def affected(self, var):
        hood = super().affected(var)
        return tuple(u for u in hood if u != self.partner) if var == self.var else hood


@pytest.mark.parametrize("var, partner", [(0, 7), (11, 10)])
def test_census_oracle_fires_on_a_dropped_scope_partner(var, partner):
    instance = make_counting_boolean_instance(3)
    assert partner in VcspLandscape(instance).affected(var)
    assert census_mismatch(DroppedPartner(instance, var, partner)) != []


def test_census_maxima_follow_iter_states_order():
    census = local_optima_census(VcspLandscape(make_pairs_instance(6, 4)), 64,
                                 keep_maxima=True)
    states = [state for state, _ in census.maxima]
    assert states == sorted(states) and len(states) == 8
    assert census.maxima[0] == ((0,) * 6, 3)
    assert census.maxima[-1] == ((1,) * 6, 12)


# -- the Gray-code walk -----------------------------------------------------------

@pytest.mark.parametrize("landscape", [
    VcspLandscape(make_pairs_instance(4, 2)),
    VcspLandscape(random_instance(random.Random(5), num_vars=4)),
    SymbolCountingLandscape(3),
    WindingLandscape(3),
])
def test_gray_walk_visits_every_state_once(landscape):
    domains = landscape.domains()
    state = landscape.zero_state()
    visited = [state]
    for var, value in gray_steps(domains):
        before = domains[var].index(state[var])
        assert abs(domains[var].index(value) - before) == 1
        state = landscape.apply(state, (var, value))
        visited.append(state)
    assert len(visited) == len(set(visited)) == landscape.state_count()
    assert set(visited) == set(landscape.iter_states())


def test_gray_walk_skips_single_value_domains():
    domains = ((0,), (0, 1, 2), ("a",), (5, 6))
    steps = list(gray_steps(domains))
    assert len(steps) == 3 * 2 - 1
    assert {var for var, _ in steps} == {1, 3}
    assert steps[:3] == [(3, 6), (1, 1), (3, 5)]


def test_zero_state_is_the_first_value_of_every_domain():
    assert VcspLandscape(make_pairs_instance(4, 2)).zero_state() == (0,) * 4
    assert SymbolCountingLandscape(3).zero_state() == ("0",) * 3
    winding = WindingLandscape(3)
    assert winding.zero_state() == winding.origin()
    assert next(iter(winding.iter_states())) == winding.zero_state()
    assert winding.state_count() == 4 ** 3


# -- a VCSP assignment is checked at the start and at each local maximum -----------

@pytest.fixture
def checks(monkeypatch):
    calls = []
    check = VcspInstance._check_assignment

    def counted(self, assignment):
        calls.append(assignment)
        return check(self, assignment)

    monkeypatch.setattr(VcspInstance, "_check_assignment", counted)
    return calls


def test_census_checks_the_zero_state_and_each_local_maximum_once(checks):
    landscape = VcspLandscape(make_pairs_instance(8, 3))
    census = local_optima_census(landscape, 256, keep_maxima=True)
    # the table's first full scan, then the evaluation of each local
    # maximum, in walk order; no other state is checked
    maxima = [state for state, _ in census.maxima]
    assert checks[0] == (0,) * 8 and len(checks) == 1 + len(maxima) == 17
    walk = list(landscape.iter_states())
    assert checks[1:] == [state for state in walk if state in maxima]


def test_ascent_checks_the_start_only(checks):
    landscape = VcspLandscape(random_instance(random.Random(2), num_vars=6))
    start = (1,) * 6
    trace = steepest_ascent(landscape, start, "lowest-index", max_steps=50)
    assert trace.num_steps > 1
    assert checks == [start, start]
    checks.clear()
    first_improvement_ascent(landscape, start, seed=4, max_steps=50)
    assert checks == [start, start]


def test_ascents_reject_an_out_of_domain_start():
    landscape = VcspLandscape(make_pairs_instance(4, 2))
    with pytest.raises(VcspError):
        steepest_ascent(landscape, (0, 2, 0, 0), max_steps=5)
    with pytest.raises(VcspError):
        first_improvement_ascent(landscape, (0, 0, -1, 0), seed=1, max_steps=5)


def test_run_rejects_an_out_of_domain_start(tmp_path, capsys):
    path = tmp_path / "pairs.json"
    dump_instance(make_pairs_instance(4, 2), path)
    code = main(["run", str(path), "--start", "0 3 0 0", "--max-steps", "5"])
    captured = capsys.readouterr()
    assert code == EXIT_INVALID
    assert "out of domain range" in captured.err and captured.out == ""
