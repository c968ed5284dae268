"""Deterministic ascent engines over single-variable move neighborhoods.

Steepest ascent repeatedly applies the strictly improving move with the
largest exact delta.  Tie handling is a policy: the default for the
constructed landscapes is to fail loudly, because on those landscapes a tie
among maximal improving moves would mean the construction is broken, and
silently breaking it could mask exactly the bug the verification suites are
meant to catch.  ``max_steps`` has no default anywhere: expected path lengths
are exponential by design, so the caller must say what budget they mean.
"""

from __future__ import annotations

import functools
import itertools
import operator
import random
from dataclasses import dataclass
from typing import NamedTuple

from .landscapes import Landscape

FAIL_ON_TIE = "fail-on-tie"
LOWEST_INDEX = "lowest-index"
TIE_POLICIES = (FAIL_ON_TIE, LOWEST_INDEX)

LOCAL_OPTIMUM = "local-optimum"
STEP_BUDGET = "step-budget"


class TieError(RuntimeError):
    """Raised under fail-on-tie when several moves share the maximal delta.
    The message names the state as ``shown``, its landscape's display form."""

    def __init__(self, state, moves, delta, shown):
        self.state = state
        self.moves = list(moves)
        self.delta = delta
        super().__init__(
            f"steepest-move tie at {shown}: moves {self.moves} all improve by {delta}")


class TraceStep(NamedTuple):
    """One record of an ascent, built once per step: a named tuple, cheap
    to build and to hold."""

    state: tuple
    fitness: int
    move: tuple | None  # (variable, new_value); None on the start record
    delta: int


@dataclass
class AscentTrace:
    steps: list[TraceStep]
    terminal: str  # LOCAL_OPTIMUM or STEP_BUDGET

    @property
    def num_steps(self) -> int:
        return len(self.steps) - 1

    @property
    def final_state(self):
        return self.steps[-1].state

    @property
    def final_fitness(self) -> int:
        return self.steps[-1].fitness

    def states(self) -> list[tuple]:
        return [s.state for s in self.steps]


def _steepest(policy, table):
    """Steepest ascent's move from ``table.state``: the strictly improving
    move of maximal delta, as (move, delta), or (None, 0) at a local maximum.
    Several maximal moves are a tie, settled by ``policy``: the first in
    canonical move order, or a ``TieError`` under fail-on-tie.  ``policy``
    comes first so that a positional ``functools.partial`` binds it: a
    keyword one costs more per call."""
    best_delta = 0
    best = None
    tied = False
    for move, d in table.improving_entries():
        if d >= best_delta:  # one test for the moves below the maximum so far
            if d > best_delta:
                best_delta, best, tied = d, move, False
            else:
                tied = True
    if tied and policy == FAIL_ON_TIE:
        state = table.state
        moves = [move for move, d in table.improving_entries() if d == best_delta]
        raise TieError(state, moves, best_delta, table.landscape.format_state(state))
    return best, best_delta


def _improving(scan):
    """The (move, delta) pairs of ``scan`` with delta > 0, in its order."""
    return tuple([entry for entry in scan if entry[1] > 0])


def _layout(landscape: Landscape):
    """(runs, run_of, plans) of ``landscape``.  A run is a maximal block of
    consecutive variables with equal ``affected``, as (the getter of its
    neighbourhood's values, its memo of improving entries by them, its
    variables, its index in ``improving``); ``run_of`` gives each variable's
    run and ``plans`` per variable the runs a move on it replaces.  A black
    box is one run, none listed, with ``plans`` None: no memo."""
    n = landscape.num_variables
    hoods = [landscape.affected(var) for var in range(n)]
    if not any(hood is not None and len(hood) < n for hood in hoods):
        return (), [0] * n, None
    cuts = [var for var in range(1, n) if hoods[var] != hoods[var - 1]]
    runs, run_of = [], []
    for lo, hi in zip([0, *cuts], [*cuts, n]):
        runs.append((operator.itemgetter(*hoods[lo]), {}, range(lo, hi), len(runs)))
        run_of += [len(runs) - 1] * (hi - lo)
    return runs, run_of, [[runs[r] for r in dict.fromkeys(run_of[u] for u in hood)]
                          for hood in hoods]


class _MoveTable:
    """The ascent loop's table of improving entries: the moves from
    ``state`` with delta > 0, each with its delta, carried from step to
    step.

    ``improving`` holds one tuple per neighbourhood run (``_layout``; the 4
    bits of a block of the Boolean lift are one run): the run's improving
    entries in canonical order.  ``run_of`` gives each variable's run.  By
    symmetry, ``affected(v)`` is a union of whole runs, so a move on ``v``
    replaces those runs whole.  A run's improving entries depend only on
    the values of its neighbourhood, and its memo keeps them under those
    values: a run whose values are in the memo is reinstalled, and the
    rest are rescanned together, each entry of delta > 0 sent to its run.
    A black box is rescanned whole after every move, with no memo, since a
    walk that never revisits a state would only fill it.  Either way the
    tuples chain into the scan's improving moves in canonical order, and no
    tuple changes after the step that built it.

    The start is checked by ``move_deltas``, the table's first full scan.
    The refresh after a move calls the private ``_rescan``, which does not
    check the state again: ``_rescan(state, None)`` for the black box, or
    ``_rescan(state, misses)`` for the variables of the memo's misses.  The
    layout and its memo belong to the landscape, built by its first table
    into its ``_runs``: every later walk on it, from any start and by any
    move choice, reinstalls what earlier ones scanned, which is sound while
    its costs stay as built.  ``improving`` and ``state`` are the table's.
    """

    def __init__(self, landscape: Landscape, state):
        self.landscape = landscape
        self.state = state
        if "_runs" not in vars(landscape):
            landscape._runs = _layout(landscape)
        runs, self.run_of, self._plans = landscape._runs
        self.local = self._plans is not None
        scan = landscape.move_deltas(state)
        if not self.local:
            self.improving = [_improving(scan)]
            return
        self.improving = [[] for _ in runs]
        self._install(scan, [(memo, values(state), index) for values, memo, _, index in runs])

    def _install(self, scan, missed):
        """Send each entry of ``scan`` with delta > 0 to its run's list in
        ``improving``, then turn the lists of the ``missed`` runs, each as
        (memo, key, index), into tuples and memoise them: a tuple holds no
        spare capacity, and a run with no entry gets the one empty tuple
        the interpreter shares."""
        improving, run_of = self.improving, self.run_of
        for entry in scan:
            if entry[1] > 0:
                improving[run_of[entry[0][0]]].append(entry)
        for memo, key, index in missed:
            improving[index] = memo[key] = tuple(improving[index])

    def improving_entries(self):
        """The (move, delta) pairs of the current state with delta > 0, in
        canonical order."""
        improving = self.improving
        if len(improving) == 1:  # one run, as a black box has: its tuple, unchained
            return improving[0]
        return itertools.chain.from_iterable(improving)

    def step(self, move):
        """Set ``move``'s variable to its value (a move of the table or any
        other value of that variable's domain) and bring the table up to
        date."""
        landscape = self.landscape
        self.state = state = landscape.apply(self.state, move)
        improving = self.improving
        if not self.local:
            improving[0] = _improving(landscape._rescan(state, None))
            return
        missed = ()  # the two lists are built on the first miss only
        for values, memo, variables, index in self._plans[move[0]]:
            key = values(state)
            hit = memo.get(key)
            if hit is None:
                if not missed:
                    misses, missed = [], []
                misses += variables
                missed.append((memo, key, index))
                improving[index] = []  # filled by the rescan below
            else:
                improving[index] = hit
        if missed:
            self._install(landscape._rescan(state, misses), missed)


def _walk(table, choose):
    """The ascent loop: take the (move, delta) that ``choose(table)`` picks
    from ``table.state`` until it returns (None, 0) at a local maximum.
    Yields each move with its delta once the table has taken it."""
    while True:
        move, delta = choose(table)
        if move is None:
            return
        table.step(move)
        yield move, delta


def _ascend(landscape: Landscape, start, choose, max_steps: int) -> AscentTrace:
    """Record the walk of ``choose`` from ``start``, at most ``max_steps`` steps."""
    if type(max_steps) is not int or max_steps < 0:
        raise ValueError(f"max_steps must be a non-negative int, not {max_steps!r}")
    state = tuple(start)
    fitness = landscape.evaluate(state)
    steps = [TraceStep(state, fitness, None, 0)]
    table = _MoveTable(landscape, state)
    record = tuple.__new__  # a TraceStep from one tuple, with no Python-level call
    for move, delta in itertools.islice(_walk(table, choose), max_steps):
        fitness += delta
        steps.append(record(TraceStep, (table.state, fitness, move, delta)))
    # the walk stops at a local maximum or is cut by the budget, possibly
    # at the top already: the table tells which
    improving = any(table.improving)
    return AscentTrace(steps, STEP_BUDGET if improving else LOCAL_OPTIMUM)


def steepest_ascent(landscape: Landscape, start, policy: str = FAIL_ON_TIE,
                    *, max_steps: int) -> AscentTrace:
    """Run steepest ascent from ``start`` until a local maximum or the step
    budget; the trace records every visited state."""
    if policy not in TIE_POLICIES:
        raise ValueError(f"unknown tie policy {policy!r}")
    return _ascend(landscape, start, functools.partial(_steepest, policy),
                   max_steps)


def _below(k: int, getrandbits) -> int:
    """A uniform draw from range(k), k >= 1, from ``getrandbits`` alone:
    read k.bit_length() bits until the number is below k.  Written here
    rather than taken from ``random.Random.randrange``, whose stream
    CPython does not promise across versions."""
    bits = k.bit_length()
    j = getrandbits(bits)
    while j >= k:
        j = getrandbits(bits)
    return j


def first_improvement_ascent(landscape: Landscape, start, seed: int,
                             *, max_steps: int) -> AscentTrace:
    """Arbitrary-improving-flip baseline: per step, take the variables with
    a strictly improving move, in canonical order, and draw one of them
    uniformly with ``_below`` from one ``random.Random(seed)`` for the
    whole ascent (no draw when there is only one); the step takes that
    variable's first improving move.  The first of k improving variables in
    a uniformly shuffled order is uniform over them, so this is the ascent
    that scans the variables in a fresh random order each step, with fewer
    draws.  ``seed`` must be a non-negative int."""
    if type(seed) is not int or seed < 0:
        raise ValueError(f"seed must be a non-negative int, not {seed!r}")
    getrandbits = random.Random(seed).getrandbits

    def first_improving(table):
        firsts, last = [], None
        for entry in table.improving_entries():
            if entry[0][0] != last:  # a variable's first improving move
                last = entry[0][0]
                firsts.append(entry)
        if len(firsts) > 1:
            return firsts[_below(len(firsts), getrandbits)]
        return firsts[0] if firsts else (None, 0)

    return _ascend(landscape, start, first_improving, max_steps)


def is_local_maximum(landscape: Landscape, state) -> bool:
    return all(d <= 0 for _, d in landscape.move_deltas(state))


def trace_table(landscape: Landscape, trace: AscentTrace) -> str:
    """Tab-separated table: step, flipped_variable, delta, fitness, state."""
    lines = ["step\tflipped_variable\tdelta\tfitness\tstate"]
    for i, s in enumerate(trace.steps):
        flipped = "" if s.move is None else str(s.move[0])
        lines.append("\t".join([
            str(i), flipped, str(s.delta), str(s.fitness),
            landscape.format_state(s.state),
        ]))
    lines.append(f"# terminal\t{trace.terminal}")
    return "\n".join(lines) + "\n"
