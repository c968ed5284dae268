"""Fitness landscapes: an evaluable plus a single-variable move structure.

The search engine needs six things from a landscape: deterministic
iteration over candidate moves, exact evaluation, exact move deltas, the
batched scan ``move_deltas``, the locality hook ``affected``, and move
application.  Moves are (variable, new_value) pairs; the canonical order is
variables ascending, values ascending, which is also what the
lowest-variable-index tie-break policy refers to.

``move_deltas(state, variables=None)`` returns ``[(move, delta), ...]`` for
every move from ``state`` in canonical order, each delta equal to
``delta(state, move)``; given ``variables`` (ascending), only the moves of
those variables.  The default asks ``delta`` move by move; the VCSP
landscape overrides it to check the assignment and read each constraint's
table index once per scan, and the winding landscape's ``delta`` reads
every flip of a state from one level pass.

``affected(var)`` names, in ascending order, every variable whose moves or
move deltas a move on ``var`` may change: the variable itself and the
variables that share a cost term with it.  The ascent engines keep a
move -> delta table from step to step and, after a move on ``var``,
rescan only ``move_deltas(state, affected(var))``.  The default, ``None``,
means every variable: a black-box landscape gets one full scan per step.
A landscape names a neighbourhood for every variable or for none.
"""

from __future__ import annotations

import itertools

from .vcsp import SoftConstraint, VcspError, VcspInstance


class Landscape:
    """Base interface; subclasses fix the state shape and move set."""

    num_variables: int

    def evaluate(self, state) -> int:
        raise NotImplementedError

    def moves(self, state):
        """Deterministically ordered candidate moves from ``state``."""
        raise NotImplementedError

    def apply(self, state, move):
        var, value = move
        return state[:var] + (value,) + state[var + 1:]

    def delta(self, state, move) -> int:
        return self.evaluate(self.apply(state, move)) - self.evaluate(state)

    def move_deltas(self, state, variables=None) -> list[tuple]:
        """Every move from ``state`` with its delta, in canonical order;
        only the moves of ``variables`` when given."""
        moves = self.moves(state)
        if variables is not None:
            wanted = set(variables)
            moves = (move for move in moves if move[0] in wanted)
        return [(move, self.delta(state, move)) for move in moves]

    def affected(self, var):
        """The variables whose moves or deltas a move on ``var`` may
        change, ascending; None when that may be any variable."""
        return None

    def iter_states(self):
        raise NotImplementedError

    def state_count(self) -> int:
        raise NotImplementedError

    def is_boolean(self) -> bool:
        return False

    def format_state(self, state) -> str:
        return "".join(str(v) for v in state)


class VcspLandscape(Landscape):
    """A table VCSP under single-variable value-change moves.

    For Boolean instances the move set degenerates to bit flips.
    """

    def __init__(self, instance: VcspInstance):
        self.instance = instance
        self.num_variables = instance.num_variables

    def evaluate(self, state) -> int:
        return self.instance.evaluate(state)

    def delta(self, state, move) -> int:
        var, value = move
        return self.instance.delta_evaluate(state, var, value)

    def move_deltas(self, state, variables=None) -> list[tuple]:
        return self.instance._move_deltas(state, self.moves(state, variables))

    def affected(self, var):
        return self.instance._neighbourhoods[var]

    def moves(self, state, variables=None):
        """Every move from ``state``, or of ``variables`` only when given."""
        domains = self.instance.domains
        for var in range(len(domains)) if variables is None else variables:
            cur = state[var]
            for value in range(domains[var]):
                if value != cur:
                    yield (var, value)

    def iter_states(self):
        return itertools.product(*(range(d) for d in self.instance.domains))

    def state_count(self) -> int:
        total = 1
        for d in self.instance.domains:
            total *= d
        return total

    def is_boolean(self) -> bool:
        return all(d == 2 for d in self.instance.domains)

    def zero_state(self) -> tuple[int, ...]:
        return (0,) * self.num_variables


def make_pairs_instance(n: int, alpha: int) -> VcspInstance:
    """The multimodal pairs landscape: N Boolean variables, one binary
    constraint per disjoint pair with table {(0,0): 1, (1,1): alpha, else 0}.

    Every repeated-bits tuple is a local maximum; the global-to-worst local
    maximum ratio is alpha and the constraint graph is a perfect matching.
    """
    if n < 2 or n % 2 != 0:
        raise VcspError("pairs instance needs an even number of variables >= 2")
    if not isinstance(alpha, int) or alpha <= 1:
        raise VcspError("alpha must be an integer > 1")
    table = (1, 0, 0, alpha)  # row-major over (a, b)
    constraints = tuple(
        SoftConstraint(scope=(2 * i, 2 * i + 1), weight=1, values=table)
        for i in range(n // 2)
    )
    return VcspInstance(
        domains=(2,) * n,
        constraints=constraints,
        metadata={"kind": "pairs", "n": n, "alpha": alpha},
    )
