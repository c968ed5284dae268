"""The ascent loop's table of improving entries: after every step each
neighbourhood run's improving entries equal a fresh scan's improving moves
on the run, on every landscape family, also on walks that revisit states
and so reinstall memoised runs; its neighbourhood runs tile the variables
and make up every neighbourhood, a neighbourhood of every variable is the
black box, a neighbourhood narrowed below the true one is caught, and
first-improvement over the table takes the same path as a per-move loop
that draws by the same rule, whose law is a uniformly shuffled scan's.
The memo is the landscape's: a later walk on it reinstalls what an earlier
one scanned, gives the walk a fresh landscape gives, and never reads
another landscape's memo."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ascentlab import search
from ascentlab.analysis import local_optima_census
from ascentlab.counting import (
    F_NONZERO,
    SymbolCountingLandscape,
    make_counting_boolean_instance,
    zero_state,
)
from ascentlab.landscapes import VcspLandscape, make_pairs_instance
from ascentlab.search import (
    LOCAL_OPTIMUM,
    LOWEST_INDEX,
    STEP_BUDGET,
    _MoveTable,
    _below,
    first_improvement_ascent,
    steepest_ascent,
)
from ascentlab.symbols import SYMBOLS, encode_state
from ascentlab.vcsp import SoftConstraint, VcspInstance
from ascentlab.winding import StepSchedule, WindingLandscape

from conftest import gray_steps, random_assignment, random_instance


def moves(table):
    """Every move from the table's state, in canonical order."""
    return list(table.landscape.moves(table.state))


def run_variables(table):
    """The variables of each of the table's neighbourhood runs, by the run's
    index in ``table.improving``, as ``table.run_of`` assigns them."""
    runs = {}
    for var, index in enumerate(table.run_of):
        runs.setdefault(index, []).append(var)
    return runs


def replaced_variables(table, var):
    """The variables of the runs that a move on ``var`` replaces: every
    variable in a black box."""
    if not table.local:
        return tuple(range(table.landscape.num_variables))
    return tuple(itertools.chain.from_iterable(run[2] for run in table._plans[var]))


def table_differs(landscape, table):
    """Whether the table differs from a fresh ``move_deltas`` scan: its
    improving entries, the run of any of them, or any run's improving
    entries, the tuple of the scan's entries on the run's variables with
    delta > 0."""
    improving = [entry for entry in landscape.move_deltas(table.state) if entry[1] > 0]
    if list(table.improving_entries()) != improving:
        return True
    if any(table.run_of[move[0]] != index
           for index, run in enumerate(table.improving) for move, _ in run):
        return True
    runs = run_variables(table)
    if sorted(runs) != list(range(len(table.improving))):
        return True
    return any(
        table.improving[index] != tuple(
            entry for entry in improving if entry[0][0] in variables)
        for index, variables in runs.items())


def table_mismatch(landscape, start, rng, steps):
    """The number of random moves after which the table first differs from
    a fresh ``move_deltas`` scan, or None if it never does."""
    table = _MoveTable(landscape, start)
    for i in range(steps + 1):
        if table_differs(landscape, table):
            return i
        table.step(rng.choice(moves(table)))
    return None


def table_runs(table):
    """The neighbourhood runs of the layout of a table's landscape that
    names them, each as its variables, ascending."""
    plans = table.landscape._runs[2]
    return sorted({tuple(run[2]) for touched in plans for run in touched})


def revisiting_walk(landscape, start, rng, rounds):
    """A walk on one table that revisits states: per round a random move,
    its undo and a random move kept; every fifth round instead restarts
    from a random state, one variable at a time.  Returns the number of
    steps after which the table first differs from a fresh scan (None if
    it never does) and the memo hits: variables of replaced runs that
    ``step`` did not rescan, a rescan of None counting every variable."""
    rescan = landscape._rescan
    rescanned = 0

    def counted(state, variables):
        nonlocal rescanned
        rescanned += landscape.num_variables if variables is None else len(variables)
        return rescan(state, variables)

    table = _MoveTable(landscape, start)
    domains = landscape.domains()
    replaced = steps = 0
    if table_differs(landscape, table):
        return steps, 0
    for r in range(rounds):
        if r % 5 == 4:
            plan = [(var, rng.choice(values)) for var, values in enumerate(domains)]
        else:
            choices = moves(table)
            move = rng.choice(choices)
            plan = [move, (move[0], table.state[move[0]]), rng.choice(choices)]
        for move in plan:
            replaced += len(replaced_variables(table, move[0]))
            landscape._rescan = counted  # only the rescans that step makes
            try:
                table.step(move)
            finally:
                del landscape._rescan
            steps += 1
            if table_differs(landscape, table):
                return steps, replaced - rescanned
    return None, replaced - rescanned


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


def test_a_neighbourhood_of_every_variable_makes_a_black_box():
    # one constraint on all six variables: a move changes every delta, and
    # a walk that never revisits a state would only fill a memo
    rng = random.Random(5)
    domains = (2, 3, 2, 2, 3, 2)
    size = 2 ** 4 * 3 ** 2
    instance = VcspInstance(domains, (
        SoftConstraint(tuple(range(6)), 1, tuple(rng.randint(0, 9) for _ in range(size))),))
    landscape = VcspLandscape(instance)
    start = (0,) * 6
    assert all(landscape.affected(var) == tuple(range(6)) for var in range(6))
    table = _MoveTable(landscape, start)
    runs, _, plans = landscape._runs
    assert not table.local and runs == () and plans is None  # no memo
    assert len(table.improving) == 1 and table.run_of == [0] * 6
    assert table_mismatch(landscape, start, random.Random(2), 40) is None
    mismatch, hits = revisiting_walk(landscape, start, random.Random(3), 30)
    assert mismatch is None and hits == 0


# -- the memo: revisited neighbourhoods reinstall their improving entries -----

@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_memo_on_revisiting_walks_of_random_instances(seed):
    rng = random.Random(seed)
    instance = random_instance(rng, max_domain=5)
    landscape = VcspLandscape(instance)
    mismatch, hits = revisiting_walk(landscape, random_assignment(rng, instance), rng, 30)
    assert mismatch is None and hits > 0


@pytest.mark.parametrize("seed", range(6))
def test_memo_on_revisiting_walks_of_the_counting_landscapes(seed):
    rng = random.Random(seed)
    n = 2 + seed
    symbols = SymbolCountingLandscape(n)
    start = tuple(rng.choice(SYMBOLS) for _ in range(n))
    mismatch, hits = revisiting_walk(symbols, start, rng, 40)
    assert mismatch is None
    # at N = 2 every neighbourhood is every variable: a black box, no memo
    assert not _MoveTable(symbols, start).local if n == 2 else hits > 0
    bits = boolean_lift(min(n, 5))
    start = tuple(rng.randint(0, 1) for _ in range(bits.num_variables))
    mismatch, hits = revisiting_walk(bits, start, rng, 40)
    assert mismatch is None
    assert not _MoveTable(bits, start).local if n == 2 else hits > 0


# -- neighbourhood runs: one memo key per run of equal neighbourhoods ---------

@pytest.mark.parametrize("n", range(3, 7))
def test_the_boolean_lift_has_one_run_per_block(n):
    landscape = boolean_lift(n)
    table = _MoveTable(landscape, encode_state(zero_state(n)))
    assert table_runs(table) == [tuple(range(4 * i, 4 * i + 4)) for i in range(n)]
    for var in range(landscape.num_variables):
        touched = table._plans[var]
        assert replaced_variables(table, var) == landscape.affected(var)
        # a bit of an interior block touches its block and the two beside it
        assert len(touched) == (3 if 4 <= var < 4 * n - 4 else 2)
    symbols = SymbolCountingLandscape(n)
    table = _MoveTable(symbols, zero_state(n))
    assert table_runs(table) == [(var,) for var in range(n)]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_a_neighbourhood_is_a_union_of_whole_runs(seed):
    rng = random.Random(seed)
    instance = random_instance(rng, max_domain=3, num_constraints=rng.randint(1, 5))
    landscape = VcspLandscape(instance)
    table = _MoveTable(landscape, random_assignment(rng, instance))
    runs = table_runs(table)
    affected = landscape.affected
    # the runs tile the variables, and each is a maximal run of equal neighbourhoods
    assert [var for run in runs for var in run] == list(range(instance.num_variables))
    for run in runs:
        assert len({affected(var) for var in run}) == 1
    for run, after in zip(runs, runs[1:]):
        assert affected(run[-1]) != affected(after[0])
    for var in range(instance.num_variables):
        assert replaced_variables(table, var) == affected(var)


def test_runs_apart_with_one_neighbourhood_keep_their_own_memo():
    # variables 0, 2 and 4 share the neighbourhood (0, 2, 4), and 1 and 3
    # share (1, 3), yet no two of them are consecutive: five runs of one
    rng = random.Random(4)
    instance = VcspInstance((2, 3, 2, 3, 2), (
        SoftConstraint((0, 2, 4), 1, tuple(rng.randint(0, 9) for _ in range(8))),
        SoftConstraint((3, 1), 2, tuple(rng.randint(0, 9) for _ in range(9))),
        SoftConstraint((2,), 3, (0, 5)),
    ))
    landscape = VcspLandscape(instance)
    assert landscape.affected(0) == landscape.affected(2) == (0, 2, 4)
    assert landscape.affected(1) == landscape.affected(3) == (1, 3)
    start = (0, 0, 0, 0, 0)
    assert table_runs(_MoveTable(landscape, start)) == [(var,) for var in range(5)]
    assert table_mismatch(landscape, start, random.Random(2), 60) is None
    mismatch, hits = revisiting_walk(landscape, start, random.Random(3), 40)
    assert mismatch is None and hits > 0


def test_scan_of_some_variables_is_the_full_scan_restricted_to_them():
    rng = random.Random(8)
    instance = random_instance(rng)
    # only the landscapes that name neighbourhoods are asked for a partial scan
    landscapes = [(SymbolCountingLandscape(5), ("0", "C", "i01", "1", "X")),
                  (VcspLandscape(instance), random_assignment(rng, instance))]
    for landscape, state in landscapes:
        full = landscape.move_deltas(state)
        for variables in ((), (0,), (1, 3), tuple(range(landscape.num_variables))):
            assert landscape._rescan(state, variables) == [
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
    # a memo hit does not hide the narrowed neighbourhood
    assert revisiting_walk(landscape, start, random.Random(1), 60)[0] is not None


# -- first-improvement over the table equals the per-move loop ----------------

def law_violations(n, orders):
    """The (S, v), S a nonempty subset of range(n) as a bit mask, at which
    the share of ``orders`` (orders of range(n)) in which v comes before
    the rest of S is not 1/|S| for v in S and 0 for v outside it."""
    counts = [[0] * n for _ in range(2 ** n)]
    total = 0
    for order in orders:
        total += 1
        seen = 0
        for v in order:
            # the S in which v comes first: v's bit and none of the bits seen
            free = (2 ** n - 1) & ~seen & ~(1 << v)
            sub = free
            while True:
                counts[sub | 1 << v][v] += 1
                if not sub:
                    break
                sub = (sub - 1) & free
            seen |= 1 << v
    found = []
    for mask in range(1, 2 ** n):
        size = bin(mask).count("1")
        for v in range(n):
            law = Fraction(1, size) if mask >> v & 1 else 0
            if Fraction(counts[mask][v], total) != law:
                found.append((mask, v))
    return found


@pytest.mark.parametrize("n", range(1, 8))
def test_the_first_of_a_set_in_a_uniform_order_is_uniform_over_it(n):
    # over all n! orders: the law that makes one uniform draw among the k
    # improving variables the same process as taking the first improving
    # variable of a uniformly shuffled order of every variable
    assert law_violations(n, itertools.permutations(range(n))) == []


def test_the_law_check_fires_on_a_biased_order():
    orders = list(itertools.permutations(range(4)))
    assert law_violations(4, orders[6:]) != []  # 0 never first
    assert law_violations(4, orders + orders[:1]) != []  # one order twice


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_every_variable_has_a_move_from_every_state(seed):
    # so "every variable" and "the variables with a move" are one set: a
    # shuffle of it, as first-improvement once drew, puts first an improving
    # variable that is uniform over the improving ones (the law above), as
    # the one draw among them that first-improvement now makes is
    rng = random.Random(seed)
    instance = random_instance(rng, max_domain=5)
    n = rng.randint(2, 7)
    preset = (StepSchedule.semismooth, StepSchedule.root2path)[seed % 2]
    bits = boolean_lift(rng.randint(2, 4))
    cases = [
        (VcspLandscape(instance), random_assignment(rng, instance)),
        (bits, tuple(rng.randint(0, 1) for _ in range(bits.num_variables))),
        (SymbolCountingLandscape(n), tuple(rng.choice(SYMBOLS) for _ in range(n))),
        (WindingLandscape(n, preset(n)), tuple(rng.randint(0, 1) for _ in range(2 * n))),
    ]
    for landscape, state in cases:
        assert {move[0] for move in landscape.moves(state)} == set(
            range(landscape.num_variables))


def reference_below(k, getrandbits):
    """A uniform index of range(k): k.bit_length() bits, read again while
    they are k or more."""
    while True:
        j = getrandbits(k.bit_length())
        if j < k:
            return j


def reference_first_improvement(landscape, start, seed, max_steps):
    """First-improvement ascent asking ``delta`` move by move: per step, the
    variables with an improving move in ascending order, each with its
    first improving move, and one of them drawn by ``reference_below``
    when there are two or more: ((state, fitness, move, delta) per step,
    terminal)."""
    rng = random.Random(seed)
    state = tuple(start)
    fitness = landscape.evaluate(state)
    steps = [(state, fitness, None, 0)]
    for _ in range(max_steps):
        first: dict[int, tuple] = {}
        for move in landscape.moves(state):
            if move[0] not in first:
                d = landscape.delta(state, move)
                if d > 0:
                    first[move[0]] = (move, d)
        improving = [first[var] for var in sorted(first)]
        if not improving:
            return steps, LOCAL_OPTIMUM
        j = reference_below(len(improving), rng.getrandbits) if len(improving) > 1 else 0
        move, delta = improving[j]
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


def off_by_one(k, getrandbits):
    return (_below(k, getrandbits) + 1) % k


def one_bit_more(k, getrandbits):
    # still uniform over range(k), but from another stream
    while True:
        j = getrandbits(k.bit_length() + 1)
        if j < k:
            return j


@pytest.mark.parametrize("seed", [0, 1, 42])
def test_first_improvement_check_fires_on_a_drifted_order(seed, monkeypatch):
    # the per-move reference, which draws by its own loop, must catch a
    # draw that picks the next index, or one that reads another stream
    for drift in (off_by_one, one_bit_more):
        monkeypatch.setattr(search, "_below", drift)
        with pytest.raises(AssertionError):
            check_same_first_improvement(SymbolCountingLandscape(6), zero_state(6),
                                         seed, 10_000)
        with pytest.raises(AssertionError):
            check_same_first_improvement(boolean_lift(4), encode_state(zero_state(4)),
                                         seed, 10_000)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(0, 2 ** 32))
def test_first_improvement_equals_the_per_move_loop_on_random_instances(seed, fi_seed):
    rng = random.Random(seed)
    instance = random_instance(rng, max_domain=5)
    check_same_first_improvement(VcspLandscape(instance),
                                 random_assignment(rng, instance), fi_seed, 200)


# -- the memo is the landscape's: later walks reuse what earlier ones scanned --

def reference_steepest(landscape, start, max_steps):
    """Lowest-index steepest ascent from a fresh ``move_deltas`` scan per
    step, which reads no memo: ((state, fitness, move, delta) per step,
    terminal)."""
    state = tuple(start)
    fitness = landscape.evaluate(state)
    steps = [(state, fitness, None, 0)]
    for _ in range(max_steps):
        move, delta = max(landscape.move_deltas(state), key=lambda entry: entry[1])
        if delta <= 0:
            return steps, LOCAL_OPTIMUM
        state = landscape.apply(state, move)
        fitness += delta
        steps.append((state, fitness, move, delta))
    improving = any(d > 0 for _, d in landscape.move_deltas(state))
    return steps, STEP_BUDGET if improving else LOCAL_OPTIMUM


def partial_rescans(landscape, walk):
    """The variable lists of the partial ``_rescan`` calls that ``walk()``
    makes on ``landscape``, with what ``walk()`` returns."""
    rescan = landscape._rescan
    calls = []

    def counted(state, variables):
        if variables is not None:
            calls.append(variables)
        return rescan(state, variables)

    landscape._rescan = counted
    try:
        return calls, walk()
    finally:
        del landscape._rescan


@pytest.mark.parametrize("landscape, start", [
    (lambda: SymbolCountingLandscape(8), zero_state(8)),
    (lambda: boolean_lift(5), encode_state(zero_state(5))),
], ids=["symbols-8", "boolean-lift-5"])
def test_a_second_identical_ascent_rescans_nothing_but_its_start(landscape, start):
    landscape = landscape()

    def walk():
        return steepest_ascent(landscape, start, max_steps=2 ** 12)

    first_calls, first = partial_rescans(landscape, walk)
    second_calls, second = partial_rescans(landscape, walk)
    assert first.terminal == LOCAL_OPTIMUM and first_calls
    assert second_calls == [] and second == first


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_walks_in_any_order_on_one_landscape_equal_walks_on_fresh_ones(seed):
    rng = random.Random(seed)
    instance = random_instance(rng, max_domain=4)
    starts = [random_assignment(rng, instance) for _ in range(3)]
    walks = ([("census",)] + [("steepest", start) for start in starts]
             + [("first", start, rng.randrange(2 ** 32)) for start in starts])
    rng.shuffle(walks)

    def run(landscape, walk):
        if walk[0] == "census":
            return local_optima_census(landscape, landscape.state_count(), keep_maxima=True)
        if walk[0] == "steepest":
            return steepest_ascent(landscape, walk[1], LOWEST_INDEX, max_steps=5_000)
        return first_improvement_ascent(landscape, walk[1], walk[2], max_steps=5_000)

    shared = VcspLandscape(instance)
    for walk in walks:
        assert run(shared, walk) == run(VcspLandscape(instance), walk)


def walk_every_state(landscape):
    """Step one move table through every state of ``landscape``, from its
    zero state, one variable per step."""
    table = _MoveTable(landscape, landscape.zero_state())
    for move in gray_steps(landscape.domains()):
        table.step(move)


def test_a_census_keeps_one_memo_entry_per_neighbourhood_value():
    landscape = SymbolCountingLandscape(4)
    walk_every_state(landscape)
    runs = landscape._runs[0]
    sizes = [len(memo) for _, memo, _, _ in runs]
    for values, memo, variables, _ in runs:
        hood = landscape.affected(variables[0])
        # the walk meets every value tuple of the neighbourhood, once each
        assert len(memo) == len(SYMBOLS) ** len(hood)
        for key, entries in memo.items():
            state = list(zero_state(4))
            for pos, symbol in zip(hood, key if len(hood) > 1 else (key,)):
                state[pos] = symbol
            state = tuple(state)
            assert values(state) == key
            assert entries == tuple(entry for entry in landscape.move_deltas(state)
                                    if entry[0][0] in variables and entry[1] > 0)
    # walking the landscape again adds no entry
    walk_every_state(landscape)
    local_optima_census(landscape, 10 ** 4)
    steepest_ascent(landscape, zero_state(4), max_steps=100)
    assert [len(memo) for _, memo, _, _ in runs] == sizes


def test_a_corrupted_landscape_walked_after_a_shipped_one_reads_its_own_memo():
    # a walk on a corrupted table after walks on the shipped table of the
    # same N, in either order and again, is the walk a memo-free loop takes
    f_table = {**F_NONZERO, ("C", "0"): 12}
    start = zero_state(5)

    def walks(landscape):
        steepest = steepest_ascent(landscape, start, LOWEST_INDEX, max_steps=2 ** 10)
        first = first_improvement_ascent(landscape, start, 3, max_steps=2 ** 12)
        return [(trace.steps, trace.terminal) for trace in (steepest, first)]

    def references(landscape):
        return [reference_steepest(landscape, start, 2 ** 10),
                reference_first_improvement(landscape, start, 3, 2 ** 12)]

    shipped = references(SymbolCountingLandscape(5))
    corrupted = references(SymbolCountingLandscape(5, f_table))
    assert shipped[0] != corrupted[0] and shipped[1] != corrupted[1]
    for _ in range(2):
        assert walks(SymbolCountingLandscape(5)) == shipped
        assert walks(SymbolCountingLandscape(5, f_table)) == corrupted
