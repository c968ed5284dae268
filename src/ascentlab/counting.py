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
"""

from __future__ import annotations

import itertools

from .landscapes import Landscape
from .symbols import (
    ADJACENT_SYMBOLS,
    SYMBOL_INDEX,
    SYMBOLS,
    decode_block,
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


def f_cost(a: str, b: str) -> int:
    return F_NONZERO.get((a, b), 0)


def h_cost(above: str, last: str) -> int:
    if above in ("0", "1"):
        return H_NONZERO.get(last, 0)
    return 0


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


def make_counting_boolean_instance(n: int) -> VcspInstance:
    """Arity-8 Boolean encoding of the counting VCSP on 4N bit variables.

    Bit x_{a,i} has flat index 4*(i-1) + (a-1), so blocks are ordered from
    X_1 upward and the lexicographic variable order of the treewidth argument
    is just the index order.  Each pair constraint covers blocks i+1 and i;
    non-symbol blocks cost 0, and h (with its X_2-gate) folds into the
    lowest pair table.
    """
    if n < 2:
        raise VcspError("counting instance needs at least 2 symbol variables")

    def block_scope(i: int) -> tuple[int, ...]:
        return tuple(range(4 * (i - 1), 4 * i))

    patterns = [(b1, b2, b3, b4) for b1 in (0, 1) for b2 in (0, 1)
                for b3 in (0, 1) for b4 in (0, 1)]
    constraints = []
    for i in range(1, n):
        include_h = i == 1
        values = []
        for left in patterns:          # block of X_{i+1}
            a = decode_block(left)
            for right in patterns:     # block of X_i
                b = decode_block(right)
                cost = 0
                if a is not None and b is not None:
                    cost = f_cost(a, b)
                    if include_h:
                        cost += h_cost(a, b)
                values.append(cost)
        constraints.append(
            SoftConstraint(
                scope=block_scope(i + 1) + block_scope(i),
                weight=4 ** (i - 1),
                values=tuple(values),
            )
        )
    return VcspInstance(
        domains=(2,) * (4 * n),
        constraints=tuple(constraints),
        metadata={"kind": "counting-boolean", "n": n},
    )


class SymbolCountingLandscape(Landscape):
    """Counting landscape over symbol states (display order, X_1 rightmost).

    Moves change one symbol to an adjacent one under the 4-bit encoding
    (main <-> intermediate), which is exactly the single-bit-flip
    neighborhood of the Boolean form restricted to symbol-decodable states.
    Deltas are computed natively from the f/h tables; the instance from
    :func:`make_counting_symbol_instance` provides the independent
    table-driven route for cross-checking.
    """

    def __init__(self, n: int, f_table=None, h_table=None):
        if n < 2:
            raise VcspError("counting landscape needs at least 2 symbol variables")
        self.n = n
        self.num_variables = n
        self._f = dict(F_NONZERO) if f_table is None else dict(f_table)
        self._h = dict(H_NONZERO) if h_table is None else dict(h_table)
        # weight of the pair (state[k], state[k+1]) in display coordinates
        self._pair_weight = tuple(4 ** (n - 2 - k) for k in range(n - 1))

    def instance(self) -> VcspInstance:
        return make_counting_symbol_instance(self.n, self._f, self._h)

    def to_assignment(self, state: tuple[str, ...]) -> tuple[int, ...]:
        n = self.n
        return tuple(SYMBOL_INDEX[state[n - 1 - i]] for i in range(n))

    def _fv(self, a: str, b: str) -> int:
        return self._f.get((a, b), 0)

    def _hv(self, above: str, last: str) -> int:
        if above in ("0", "1"):
            return self._h.get(last, 0)
        return 0

    def _check_length(self, state) -> None:
        if len(state) != self.n:
            raise VcspError(f"state has {len(state)} symbols, expected {self.n}")

    def _check_state(self, state) -> None:
        self._check_length(state)
        for sym in state:
            if sym not in SYMBOL_INDEX:
                raise VcspError(f"{sym!r} is not a symbol of the alphabet")

    def evaluate(self, state) -> int:
        self._check_state(state)
        total = 0
        f = self._f
        for k in range(self.n - 1):
            total += self._pair_weight[k] * f.get((state[k], state[k + 1]), 0)
        total += self._hv(state[-2], state[-1])
        return total

    def delta(self, state, move) -> int:
        # Only the length is checked: the closure oracle calls this on
        # every move of every enumerated state.
        self._check_length(state)
        pos, new = move
        old = state[pos]
        if new == old:
            return 0
        d = 0
        f = self._f
        if pos > 0:
            w = self._pair_weight[pos - 1]
            above = state[pos - 1]
            d += w * (f.get((above, new), 0) - f.get((above, old), 0))
        if pos < self.n - 1:
            w = self._pair_weight[pos]
            below = state[pos + 1]
            d += w * (f.get((new, below), 0) - f.get((old, below), 0))
        # trigger constraint on the last two positions
        if pos == self.n - 1:
            d += self._hv(state[-2], new) - self._hv(state[-2], old)
        elif pos == self.n - 2:
            d += self._hv(new, state[-1]) - self._hv(old, state[-1])
        return d

    def move_deltas(self, state, variables=None) -> list[tuple]:
        self._check_state(state)
        scan = []
        for pos in range(self.n) if variables is None else variables:
            for t in ADJACENT_SYMBOLS[state[pos]]:
                move = (pos, t)
                scan.append((move, self.delta(state, move)))
        return scan

    def affected(self, var):
        # every cost term joins adjacent positions
        return range(max(var - 1, 0), min(var + 2, self.n))

    def moves(self, state):
        for pos, sym in enumerate(state):
            for t in ADJACENT_SYMBOLS[sym]:
                yield (pos, t)

    def iter_states(self):
        return itertools.product(SYMBOLS, repeat=self.n)

    def state_count(self) -> int:
        return 10 ** self.n

    def zero_state(self) -> tuple[str, ...]:
        return zero_state(self.n)

    def format_state(self, state) -> str:
        return format_symbol_state(state)
