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

import itertools
import random
from dataclasses import dataclass

from .landscapes import Landscape

FAIL_ON_TIE = "fail-on-tie"
LOWEST_INDEX = "lowest-index"
TIE_POLICIES = (FAIL_ON_TIE, LOWEST_INDEX)

LOCAL_OPTIMUM = "local-optimum"
STEP_BUDGET = "step-budget"


class TieError(RuntimeError):
    """Raised under fail-on-tie when several moves share the maximal delta."""

    def __init__(self, state, moves, delta):
        self.state = state
        self.moves = list(moves)
        self.delta = delta
        super().__init__(
            f"steepest-move tie at {state!r}: moves {self.moves} all improve by {delta}"
        )


@dataclass(frozen=True)
class TraceStep:
    state: tuple
    fitness: int
    move: tuple | None  # (variable, new_value); None on the start record
    delta: int

    @property
    def flipped_variable(self):
        return None if self.move is None else self.move[0]


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


def _maximal_moves(scan):
    """All strictly improving moves of maximal delta in a ``move_deltas``
    scan, in scan order, plus that delta (0 and [] when none improves)."""
    best_delta = 0
    best: list[tuple] = []
    for move, d in scan:
        if d > best_delta:
            best_delta = d
            best = [move]
        elif d == best_delta and d > 0:
            best.append(move)
    return best, best_delta


def _steepest_of(state, moves, delta, policy):
    """Steepest ascent's pick among the maximal ``moves`` of ``state``."""
    if policy not in TIE_POLICIES:
        raise ValueError(f"unknown tie policy {policy!r}")
    if not moves:
        return None, 0
    if len(moves) > 1 and policy == FAIL_ON_TIE:
        raise TieError(state, moves, delta)
    return moves[0], delta


def best_moves(landscape: Landscape, state):
    """All strictly improving moves of maximal delta, in canonical move
    order, plus that delta (0 and [] at a local maximum)."""
    return _maximal_moves(landscape.move_deltas(state))


def steepest_choice(state, scan, policy: str = FAIL_ON_TIE):
    """The move steepest ascent takes from ``state`` given its
    ``move_deltas`` scan: (move, delta), or (None, 0) at a local maximum."""
    return _steepest_of(state, *_maximal_moves(scan), policy)


def steepest_move(landscape: Landscape, state, policy: str = FAIL_ON_TIE):
    """The move steepest ascent takes from ``state``, or None at a local
    maximum.  Returns (move, delta)."""
    return _steepest_of(state, *best_moves(landscape, state), policy)


class _MoveTable:
    """The ascent loop's move -> delta table: every move from ``state`` with
    its delta, carried from step to step.

    When the landscape names neighbourhoods (``Landscape.affected``), the
    table holds one group of (move, delta) pairs per variable, and a move on
    ``v`` rescans only the groups of ``affected(v)``.  Otherwise it is one
    group, rescanned whole after every move.  Either way the groups chain
    into the full scan in canonical order.
    """

    def __init__(self, landscape: Landscape, state):
        self.landscape = landscape
        self.state = state
        self.local = landscape.affected(0) is not None
        scan = landscape.move_deltas(state)
        self.groups = self._by_variable(scan) if self.local else [scan]

    def _by_variable(self, scan):
        groups = [[] for _ in range(self.landscape.num_variables)]
        for entry in scan:
            groups[entry[0][0]].append(entry)
        return groups

    def entries(self):
        """The (move, delta) pairs of the current state, in canonical order."""
        if not self.local:
            return self.groups[0]
        return itertools.chain.from_iterable(self.groups)

    def by_variable(self):
        """The (move, delta) pairs grouped per variable, indexed by variable."""
        return self.groups if self.local else self._by_variable(self.groups[0])

    def step(self, move):
        """Apply ``move`` and bring the table up to date; returns the new state."""
        landscape = self.landscape
        self.state = state = landscape.apply(self.state, move)
        if not self.local:
            self.groups = [landscape.move_deltas(state)]
            return state
        affected = landscape.affected(move[0])
        groups = self.groups
        for var in affected:
            groups[var] = []
        for entry in landscape.move_deltas(state, affected):
            groups[entry[0][0]].append(entry)
        return state


def _ascend(landscape: Landscape, start, choose, max_steps: int) -> AscentTrace:
    """The ascent loop: ``choose(table)`` returns the (move, delta) to take
    from ``table.state``, or (None, 0) to stop at a local maximum."""
    if max_steps < 0:
        raise ValueError("max_steps must be >= 0")
    state = tuple(start)
    fitness = landscape.evaluate(state)
    steps = [TraceStep(state, fitness, None, 0)]
    table = _MoveTable(landscape, state)
    for _ in range(max_steps):
        move, delta = choose(table)
        if move is None:
            return AscentTrace(steps, LOCAL_OPTIMUM)
        state = table.step(move)
        fitness += delta
        steps.append(TraceStep(state, fitness, move, delta))
    # budget exhausted; report whether we happen to already be at the top
    improving = any(d > 0 for _, d in table.entries())
    return AscentTrace(steps, STEP_BUDGET if improving else LOCAL_OPTIMUM)


def steepest_ascent(landscape: Landscape, start, policy: str = FAIL_ON_TIE,
                    *, max_steps: int) -> AscentTrace:
    """Run steepest ascent from ``start`` until a local maximum or the step
    budget; the trace records every visited state."""

    def steepest(table):
        return _steepest_of(table.state, *_maximal_moves(table.entries()), policy)

    return _ascend(landscape, start, steepest, max_steps)


def first_improvement_ascent(landscape: Landscape, start, seed: int,
                             *, max_steps: int) -> AscentTrace:
    """Arbitrary-improving-flip baseline: per step, scan variables in a
    seeded random order and take the first strictly improving move."""
    rng = random.Random(seed)

    def first_improving(table):
        groups = table.by_variable()
        order = [var for var, group in enumerate(groups) if group]
        rng.shuffle(order)
        for var in order:
            for move, d in groups[var]:
                if d > 0:
                    return move, d
        return None, 0

    return _ascend(landscape, start, first_improving, max_steps)


def is_local_maximum(landscape: Landscape, state) -> bool:
    return all(landscape.delta(state, m) <= 0 for m in landscape.moves(state))


def trace_table(landscape: Landscape, trace: AscentTrace, sep: str = "\t") -> str:
    """Delimited text table: step, flipped_variable, delta, fitness, state."""
    lines = [sep.join(["step", "flipped_variable", "delta", "fitness", "state"])]
    for i, s in enumerate(trace.steps):
        flipped = "" if s.move is None else str(s.move[0])
        lines.append(sep.join([
            str(i), flipped, str(s.delta), str(s.fitness),
            landscape.format_state(s.state),
        ]))
    lines.append(f"# terminal{sep}{trace.terminal}")
    return "\n".join(lines) + "\n"
