"""The counting landscape: a bounded-arity VCSP whose steepest ascent embeds
binary counting, at the symbol level (domain 10) and as an arity-8 Boolean
encoding.

Cost structure
--------------
A binary table f is applied to each adjacent symbol pair (X_{i+1}, X_i) with
weight 4**(i-1), i = 1..N-1.  A small trigger table h (nonzero only on i01
and i1C) is applied at the low end with weight 1; h pays only when X_2 is a
plain bit.  That guard matters: h's sole job is to fire the increment rules,
whose guards require X_2 in {0, 1}, and an ungated h would also reward
starting a fresh increment under unresolved carry machinery (e.g. flipping
the final 0 of <X, iC0, 0> to i01), creating strictly improving moves that no
transition rule covers.  h is therefore a binary constraint on (X_2, X_1).

The Boolean form replaces each symbol variable with its 4-bit code; each
symbol-pair constraint becomes one arity-8 constraint over two adjacent
blocks (h folds into the lowest one).  Blocks that do not decode to a symbol
cost 0, which makes any flip into a non-symbol pattern non-improving under
strict ascent.

The symbol landscape holds no costs of its own: it is a view of the
symbol-level instance, and every value and delta it gives is read from the
instance's tables.
"""

from __future__ import annotations

import itertools
import operator
from functools import cached_property

from .landscapes import Landscape
from .symbols import (
    ADJACENT_SYMBOLS,
    CODE_TO_SYMBOL,
    SYMBOL_INDEX,
    SYMBOLS,
    format_symbol_state,
)
from .vcsp import SoftConstraint, VcspError, VcspInstance

# Nonzero entries of the pair cost table f(a, b); all other pairs cost 0.
F_NONZERO = {
    ("0", "1"): 4,
    ("1", "1"): 4,
    ("0", "C"): 6,
    ("1", "C"): 6,
    ("C", "0"): 13,
    ("X", "0"): 13,
    ("C", "iC0"): 8,
    ("X", "C"): 8,
    ("X", "iC0"): 12,
    ("i0X", "C"): 7,
    ("i1C", "C"): 23,
    ("iX1", "0"): 14,
}

# Increment triggers; paid only when the symbol above is a plain bit.
H_NONZERO = {"i01": 1, "i1C": 5}


def zero_state(n: int) -> tuple[str, ...]:
    return ("0",) * n

def count_end_state(n: int) -> tuple[str, ...]:
    """The counting path's endpoint 01^(N-1)."""
    return ("0",) + ("1",) * (n - 1)


def make_counting_symbol_instance(n: int, f_table=None, h_table=None) -> VcspInstance:
    """Symbol-level counting VCSP: N variables with domain 10.

    Variable i (0-based) is X_{i+1}.  Pair constraint on (X_{i+1}, X_i) has
    weight 4**(i-1); the trigger constraint sits on (X_2, X_1) with weight 1.
    ``f_table``/``h_table`` exist so verification oracles can probe corrupted
    cost tables.
    """
    if n < 2:
        raise VcspError("counting instance needs at least 2 symbol variables")
    f = dict(F_NONZERO) if f_table is None else dict(f_table)
    h = dict(H_NONZERO) if h_table is None else dict(h_table)

    pair_values = tuple(
        f.get((a, b), 0) for a in SYMBOLS for b in SYMBOLS
    )
    constraints = []
    for i in range(1, n):  # pair (X_{i+1}, X_i); there are N-1 adjacent pairs
        constraints.append(
            SoftConstraint(scope=(i, i - 1), weight=4 ** (i - 1), values=pair_values)
        )
    trigger_values = tuple(
        (h.get(b, 0) if a in ("0", "1") else 0)
        for a in SYMBOLS
        for b in SYMBOLS
    )
    constraints.append(SoftConstraint(scope=(1, 0), weight=1, values=trigger_values))
    return VcspInstance(
        domains=(10,) * n,
        constraints=tuple(constraints),
        metadata={"kind": "counting-symbol", "n": n},
    )


# Per 4-bit pattern, its symbol's value index; None for non-symbols.
_BLOCKS = [SYMBOL_INDEX.get(CODE_TO_SYMBOL.get(bits))
           for bits in itertools.product((0, 1), repeat=4)]
# Reads an arity-8 table's entries, per pair of 4-bit patterns, from a symbol
# pair table with a 0 appended: the entry of the pair's symbols, or the 0
# when either pattern is not a symbol.
_LIFT = operator.itemgetter(*(len(SYMBOLS) ** 2 if a is None or b is None
                              else len(SYMBOLS) * a + b
                              for a in _BLOCKS for b in _BLOCKS))


def make_counting_boolean_instance(n: int) -> VcspInstance:
    """Arity-8 Boolean encoding of the counting VCSP on 4N bit variables: the
    symbol instance's tables lifted onto 4-bit blocks.

    Bit x_{a,i} has flat index 4*(i-1) + (a-1), so blocks are ordered from
    X_1 upward and the lexicographic variable order of the treewidth argument
    is just the index order.  Each pair constraint covers blocks i+1 and i;
    non-symbol blocks cost 0, and the trigger (with its X_2-gate) folds into
    the lowest pair table.
    """
    *pairs, trigger = make_counting_symbol_instance(n).constraints
    lowest = _LIFT((*map(operator.add, pairs[0].values, trigger.values), 0))
    upper = _LIFT((*pairs[0].values, 0))  # every pair constraint has the same table
    constraints = tuple(
        SoftConstraint(scope=tuple(4 * v + k for v in c.scope for k in range(4)),
                       weight=c.weight, values=upper if i else lowest)
        for i, c in enumerate(pairs))
    return VcspInstance(
        domains=(2,) * (4 * n),
        constraints=constraints,
        metadata={"kind": "counting-boolean", "n": n},
    )


class SymbolCountingLandscape(Landscape):
    """Counting landscape over symbol states (display order, X_1 rightmost):
    a symbol-codec view of a counting-symbol :class:`VcspInstance`.

    Moves change one symbol to an adjacent one under the 4-bit encoding
    (main <-> intermediate), which is exactly the single-bit-flip
    neighborhood of the Boolean form restricted to symbol-decodable states.
    Position ``pos`` is the instance's variable ``n - 1 - pos``, and every
    value and delta is read from the instance's tables: the one from
    :func:`make_counting_symbol_instance`, built on first use, or a file's
    own through :meth:`of_instance`.
    """

    def __init__(self, n: int, f_table=None, h_table=None):
        if n < 2:
            raise VcspError("counting landscape needs at least 2 symbol variables")
        self.n = n
        self.num_variables = n
        self._tables = (f_table, h_table)

    @classmethod
    def of_instance(cls, instance: VcspInstance) -> "SymbolCountingLandscape":
        """The view of ``instance``, whose variables must all range over the
        10 symbols; its tables, weights and scopes may be any."""
        n = instance.num_variables
        if instance.domains != (len(SYMBOLS),) * n:
            raise VcspError(
                f"a counting-symbol instance has domain {len(SYMBOLS)} on every "
                f"variable, got domains {list(instance.domains)}")
        landscape = cls(n)
        landscape.__dict__["instance"] = instance  # preset the cached property
        return landscape

    @cached_property
    def instance(self) -> VcspInstance:
        """The counting-symbol instance the view reads, built on first use."""
        return make_counting_symbol_instance(self.n, *self._tables)

    @cached_property
    def _affected(self) -> tuple[tuple[int, ...], ...]:
        """Per position, the instance's neighbourhood of its variable, as
        positions, ascending."""
        last = self.n - 1
        return tuple(tuple(last - var for var in reversed(neighbourhood))
                     for neighbourhood in reversed(self.instance._neighbourhoods))

    @cached_property
    def _instance_moves(self) -> tuple[dict, ...]:
        """Per position, per symbol there: the instance's (variable, value)
        moves from it, in canonical order."""
        last = self.n - 1
        return tuple(
            {s: tuple((last - pos, SYMBOL_INDEX[t]) for t in ADJACENT_SYMBOLS[s])
             for s in SYMBOLS}
            for pos in range(self.n))

    @cached_property
    def _symbol_move(self) -> dict:
        """The symbol move that each instance move is."""
        last = self.n - 1
        return {(last - pos, i): (pos, t)
                for pos in range(self.n) for i, t in enumerate(SYMBOLS)}

    def to_assignment(self, state: tuple[str, ...]) -> tuple[int, ...]:
        """The instance's assignment of a symbol state: value indices, X_1 first."""
        return tuple(map(SYMBOL_INDEX.__getitem__, reversed(state)))

    def _check_state(self, state) -> None:
        if len(state) != self.n:
            raise VcspError(f"state has {len(state)} symbols, expected {self.n}")
        for sym in state:
            if sym not in SYMBOL_INDEX:
                raise VcspError(f"{sym!r} is not a symbol of the alphabet")

    def evaluate(self, state) -> int:
        self._check_state(state)
        return self.instance.evaluate(self.to_assignment(state))

    def _rescan(self, state, variables):
        instance_moves = self._instance_moves
        moves = []
        for pos in range(self.n) if variables is None else variables:
            moves += instance_moves[pos][state[pos]]
        symbol_move = self._symbol_move
        scan = self.instance._move_deltas(self.to_assignment(state), moves)
        return [(symbol_move[move], d) for move, d in scan]

    def affected(self, var):
        return self._affected[var]

    def moves(self, state):
        for pos, sym in enumerate(state):
            for t in ADJACENT_SYMBOLS[sym]:
                yield (pos, t)

    def domains(self) -> tuple:
        return (SYMBOLS,) * self.n

    def format_state(self, state) -> str:
        return format_symbol_state(state)

    def parse_state(self, text: str) -> tuple[str, ...]:
        state = tuple(text.replace(",", " ").split())
        self._check_state(state)
        return state
