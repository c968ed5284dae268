"""Fitness landscapes: an evaluable plus a single-variable move structure.

The search engine needs six things from a landscape: deterministic
iteration over candidate moves, exact evaluation, exact move deltas, the
batched scan ``move_deltas``, the locality hook ``affected``, and move
application.  Moves are (variable, new_value) pairs; the canonical order is
variables ascending, values ascending, which is also what the
lowest-variable-index tie-break policy refers to.

``move_deltas(state)`` returns ``[(move, delta), ...]`` for every move from
``state`` in canonical order, each delta equal to ``delta(state, move)``,
which the base class writes as two evaluations: the scan's oracle, sharing
no code with it (winding alone overrides it, from its level pass).  The
base class writes ``move_deltas`` once too: the family's ``_check_state``
hook, then the private ``_rescan(state, None)``.  Each family has one delta
kernel behind ``_rescan``: the VCSP landscape, and the symbol landscape
that views one, read each constraint's table index once per scan; the
winding level pass yields every flip's delta at once.

``affected(var)`` names, in ascending order, every variable whose moves or
move deltas a move on ``var`` may change: the variable itself and the
variables that share a cost term with it.  Sharing a cost term is
symmetric, so the contract also holds the other way round: ``var``'s own
moves and deltas depend only on the values of ``affected(var)``.  The
ascent engines rely on both directions.  They keep a table of improving
entries (the moves of delta > 0, with their deltas) from step to step, one
tuple per neighbourhood run (consecutive variables with equal
``affected``), and after a move on ``var`` replace only the runs of
``affected(var)``.  The landscape keeps one memo per run for its lifetime
(built by its first table, in its ``_runs``), of the run's tuple under the
values of its neighbourhood, so it is bounded by the neighbourhood values
met; every walk on the landscape rescans only the runs whose values are
new to it, through ``_rescan(state, variables)``: only a landscape that
names neighbourhoods is asked for a partial scan.  That needs a
landscape's costs to stay as they were built.  By symmetry,
``affected(var)`` is a union of whole runs, so a move replaces a run
whole.  The default, ``None``, means every variable: a black-box
landscape gets one full ``_rescan`` per step, with no memo, and so does a
landscape whose every ``affected(var)`` names every variable.
A landscape names a neighbourhood for every variable or for none.  The
table's ``_rescan`` calls check nothing: the state was checked where the
ascent entered, and a move keeps it in its domains.

``domains()`` gives, per variable, the values it can take, in enumeration
order.  The first value of each is the variable's value in ``zero_state()``;
``iter_states`` (the product of the domains, the last variable fastest),
``state_count`` and ``is_boolean`` are derived from it, and the local-optima
census sets the variables depth first in that order.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property

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
        """The exact fitness change of ``move`` from ``state``."""
        if not 0 <= move[0] < self.num_variables:  # apply would count it from the end
            raise VcspError(f"variable index {move[0]} out of range")
        return self.evaluate(self.apply(state, move)) - self.evaluate(state)

    def move_deltas(self, state) -> list[tuple]:
        """Every move from ``state`` with its delta, in canonical order."""
        self._check_state(state)
        return self._rescan(state, None)

    def _check_state(self, state) -> None:
        """Refuse a state outside the landscape."""

    def _rescan(self, state, variables):
        """``move_deltas`` without a check of ``state``; only the moves of
        ``variables`` (ascending) unless None, which only a landscape that
        names neighbourhoods is asked for."""
        raise NotImplementedError

    def affected(self, var):
        """The variables whose moves or deltas a move on ``var`` may
        change, ascending; None when that may be any variable.  They are
        also the variables whose values ``var``'s moves and deltas depend
        on."""
        return None

    def domains(self) -> tuple:
        """Per variable, its values in enumeration order."""
        raise NotImplementedError

    def iter_states(self):
        return itertools.product(*self.domains())

    def state_count(self) -> int:
        return math.prod(len(values) for values in self.domains())

    def zero_state(self) -> tuple:
        """The first state of ``iter_states``: every variable at its first value."""
        return next(self.iter_states())

    def is_boolean(self) -> bool:
        return all(tuple(values) == (0, 1) for values in self.domains())

    def format_state(self, state) -> str:
        return self._state_separator.join(map(str, state))

    def parse_state(self, text: str) -> tuple:
        """The state that ``format_state`` prints as ``text``, commas read as
        spaces, refused as ``evaluate`` refuses a state outside the landscape."""
        tokens = text.replace(",", " ").split()
        state = tuple(map(int, tokens if self._state_separator else "".join(tokens)))
        self._check_state(state)
        return state

    @cached_property
    def _state_separator(self) -> str:
        """One digit per value, unless a domain has more than 10 values:
        then the values are space-separated."""
        return " " if any(len(values) > 10 for values in self.domains()) else ""


class VcspLandscape(Landscape):
    """A table VCSP under single-variable value-change moves.

    For Boolean instances the move set degenerates to bit flips.
    """

    def __init__(self, instance: VcspInstance):
        self.instance = instance
        self.num_variables = instance.num_variables

    def evaluate(self, state) -> int:
        return self.instance.evaluate(state)

    def _check_state(self, state) -> None:
        self.instance._check_assignment(state)

    def _rescan(self, state, variables):
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

    def domains(self) -> tuple:
        return tuple(range(d) for d in self.instance.domains)


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
