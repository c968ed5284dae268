"""Reference semantics for the counting landscape: admissibility, the 14
prioritized transition rules, and exhaustive verification oracles.

Admissibility
-------------
A symbol state is *admissible* when it is reachable from the all-zero state
by strictly improving single-flip moves.  That set is regular: the
recognizer below is a 13-state left-to-right scan (most significant symbol
first) that was extracted from the exhaustively computed improving-flip
closure and re-verified to match it exactly for N = 2..8 (10, 40, 166, 714,
3132, 13828 and 61174 states).  Beyond single-carry-block states, the
closure also contains stacked carry machinery: improving but non-steepest
flips can start a fresh increment in the zeros below an unresolved carry,
so admissible states may hold several blocks in flight at once (e.g.
<X C 0 C> or <X iC0 iC0>).  All of those resolve without ever leaving the
set, which is exactly what verify_cpp_closure demonstrates.

Transition rules
----------------
Rules 1a..7b are syntactic guards over (X_{i+1}, X_i) pairs, or over the
last symbol with X_2 a plain bit; guard matching never requires
admissibility.  Priorities form a partial order: each of rule groups 3..7
beats groups 1 and 2, and group 5 beats 3 and 4.  The prioritized successor
must be unique, and the oracle treats any residual ambiguity as an error
rather than picking silently.
"""

from __future__ import annotations

from dataclasses import dataclass

from .counting import (
    SymbolCountingLandscape,
    count_end_state,
    f_cost,
    zero_state,
)
from .report import Report
from .search import _MoveTable, steepest_choice
from .symbols import format_symbol_state


class RuleError(ValueError):
    pass


class AmbiguousPriorityError(RuntimeError):
    def __init__(self, state, candidates):
        self.state = state
        self.candidates = candidates
        super().__init__(
            f"priority does not single out a rule at {format_symbol_state(state)}: {candidates}"
        )


# ---------------------------------------------------------------------------
# The rules.  Pair rules are keyed by the (X_{i+1}, X_i) guard; `changes`
# says which of the two rewrites.  Last-symbol rules require X_2 in {0, 1}.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Rule:
    rule_id: str
    group: int
    kind: str            # "last" or "pair"
    guard: tuple         # last: (old,); pair: (above, below)
    changes: str         # "last", "above", "below"
    new_symbol: str
    description: str


RULES: dict[str, Rule] = {}


def _add(rule_id, kind, guard, changes, new_symbol, description):
    RULES[rule_id] = Rule(rule_id, int(rule_id[0]), kind, guard, changes,
                          new_symbol, description)


_add("1a", "last", ("0",), "last", "i01", "increment: last 0 -> i01")
_add("1b", "last", ("i01",), "last", "1", "increment: last i01 -> 1")
_add("2a", "last", ("1",), "last", "i1C", "start carry: last 1 -> i1C")
_add("2b", "last", ("i1C",), "last", "C", "start carry: last i1C -> C")
_add("3a", "pair", ("1", "C"), "above", "i1C", "carry into 1: 1C -> i1C C")
_add("3b", "pair", ("i1C", "C"), "above", "C", "carry into 1: i1C C -> CC")
_add("4a", "pair", ("0", "C"), "above", "i0X", "carry into 0: 0C -> i0X C")
_add("4b", "pair", ("i0X", "C"), "above", "X", "carry into 0: i0X C -> XC")
_add("5a", "pair", ("C", "C"), "below", "iC0", "drop carry after C: CC -> C iC0")
_add("5b", "pair", ("C", "iC0"), "below", "0", "drop carry after C: C iC0 -> C0")
_add("6a", "pair", ("X", "C"), "below", "iC0", "drop carry after X: XC -> X iC0")
_add("6b", "pair", ("X", "iC0"), "below", "0", "drop carry after X: X iC0 -> X0")
_add("7a", "pair", ("X", "0"), "above", "iX1", "use the carry: X0 -> iX1 0")
_add("7b", "pair", ("iX1", "0"), "above", "1", "use the carry: iX1 0 -> 10")


@dataclass(frozen=True)
class RuleApplication:
    rule_id: str
    variable: int        # 1-based index of the variable the rule rewrites
    new_symbol: str

    def apply(self, state: tuple[str, ...]) -> tuple[str, ...]:
        pos = len(state) - self.variable  # display index
        return state[:pos] + (self.new_symbol,) + state[pos + 1:]


def applicable_rules(state: tuple[str, ...]) -> list[RuleApplication]:
    """All rule instances whose guards match, lowest variable first.

    Matching is purely syntactic.  (Family-level applicability tables,
    which describe whole pattern families at once, are unions of these
    per-state match sets over the family's members.)
    """
    n = len(state)
    out = []
    last = state[n - 1]
    if n == 1 or state[n - 2] in ("0", "1"):
        # the X_2 guard of rule groups 1-2; vacuous for a lone variable
        for rule in RULES.values():
            if rule.kind == "last" and rule.guard == (last,):
                out.append(RuleApplication(rule.rule_id, 1, rule.new_symbol))
    for k in range(n - 1):  # display pair (state[k], state[k+1]) = (X_{i+1}, X_i)
        above_var = n - k  # 1-based variable index of state[k]
        pair = (state[k], state[k + 1])
        for rule in RULES.values():
            if rule.kind == "pair" and rule.guard == pair:
                var = above_var if rule.changes == "above" else above_var - 1
                out.append(RuleApplication(rule.rule_id, var, rule.new_symbol))
    out.sort(key=lambda a: (a.variable, a.rule_id))
    return out


def _beats(g1: int, g2: int) -> bool:
    if g2 in (1, 2) and g1 in (3, 4, 5, 6, 7):
        return True
    return g1 == 5 and g2 in (3, 4)


def rule_successor(state: tuple[str, ...]):
    """Apply the unique highest-priority applicable rule.

    Returns (next_state, RuleApplication), or None when no rule applies
    (the halt signal).  Raises AmbiguousPriorityError when the priority
    order leaves more than one candidate; that never happens on states
    reachable from the all-zero state, and the oracles prove it rather than
    assume it.
    """
    candidates = applicable_rules(state)
    if not candidates:
        return None
    groups = [RULES[c.rule_id].group for c in candidates]
    maximal = [
        c for c, g in zip(candidates, groups)
        if not any(_beats(h, g) for h in groups if h != g)
    ]
    if len(maximal) != 1:
        raise AmbiguousPriorityError(state, [(c.rule_id, c.variable) for c in maximal])
    chosen = maximal[0]
    return chosen.apply(state), chosen


def counting_path(n: int, start=None, stop=None) -> list[tuple[str, ...]]:
    """The rule-driven counting path from ``start`` (default 0^N) to ``stop``
    (default 01^(N-1)), inclusive."""
    state = zero_state(n) if start is None else tuple(start)
    stop = count_end_state(n) if stop is None else tuple(stop)
    path = [state]
    budget = 2 ** (n + 5)
    while state != stop:
        step = rule_successor(state)
        if step is None:
            raise RuleError(f"rules halt at {format_symbol_state(state)} before reaching stop")
        state = step[0]
        path.append(state)
        if len(path) > budget:
            raise RuleError("counting path exceeded its budget; construction broken")
    return path


# ---------------------------------------------------------------------------
# Admissibility recognizer.
# ---------------------------------------------------------------------------

# Scanner contexts.  "Plain" contexts sit above any machinery; once a 1 or a
# carry block has been read, the zeros below it live in the "sub" contexts,
# which additionally admit re-entrant machinery (fresh increments started
# below an unresolved block) and orphaned iC0s from collapsed carry cascades.
_START = "start"
_ZEROS = "zeros"            # 0+ and nothing else yet
_BIT1 = "bit1"              # last symbol 1
_BIT0 = "bit0"              # last symbol 0, below earlier non-zero content
_X_TOP = "x-top"            # X entered from the leading zeros
_X_SUB = "x-sub"            # X entered below earlier content
_PRE_CARRY_TOP = "pre-carry-top"  # i0X / mid-carry i1C that must precede C
_PRE_CARRY_SUB = "pre-carry-sub"
_IX1 = "ix1"                # iX1, must precede 0
_CARRY = "carry"            # C-run context
_CARRY_SUB = "carry-sub"    # C / iC0 context below machinery
_I01_END = "i01-end"        # i01 at X_1
_I1C_END = "i1c-end"        # i1C at X_1

_DFA = {
    _START: {"0": _ZEROS, "X": _X_TOP, "i0X": _PRE_CARRY_TOP, "iX1": _IX1},
    _ZEROS: {"0": _ZEROS, "1": _BIT1, "C": _CARRY, "X": _X_TOP,
             "i01": _I01_END, "i0X": _PRE_CARRY_TOP, "i1C": _I1C_END,
             "iX1": _IX1},
    _BIT1: {"0": _BIT0, "1": _BIT1, "C": _CARRY, "X": _X_SUB,
            "i01": _I01_END, "i0X": _PRE_CARRY_SUB, "i1C": _I1C_END,
            "iX1": _IX1},
    _BIT0: {"0": _BIT0, "1": _BIT1, "C": _CARRY_SUB, "X": _X_SUB,
            "i01": _I01_END, "i0X": _PRE_CARRY_SUB, "i1C": _I1C_END,
            "iC0": _CARRY_SUB, "iX1": _IX1},
    _X_TOP: {"0": _BIT0, "C": _CARRY, "iC0": _CARRY_SUB},
    _X_SUB: {"0": _BIT0, "C": _CARRY_SUB, "iC0": _CARRY_SUB},
    _PRE_CARRY_TOP: {"C": _CARRY},
    _PRE_CARRY_SUB: {"C": _CARRY_SUB},
    _IX1: {"0": _BIT0},
    _CARRY: {"0": _BIT0, "C": _CARRY, "i1C": _PRE_CARRY_TOP, "iC0": _CARRY_SUB},
    _CARRY_SUB: {"0": _BIT0, "C": _CARRY, "X": _X_SUB, "i0X": _PRE_CARRY_SUB,
                 "i1C": _PRE_CARRY_TOP, "iC0": _CARRY_SUB, "iX1": _IX1},
    _I01_END: {},
    _I1C_END: {"C": _CARRY},
}

_ACCEPTING = {_ZEROS, _BIT1, _BIT0, _CARRY, _CARRY_SUB, _I01_END, _I1C_END}

MAIN_FAMILIES = {
    1: "{01}+",
    2: "{01}*1C...",
    3: "{01}*0C...",
    4: "{01}*CC...",
    5: "{01}*XC...",
    6: "{01}*X0...",
}
INTERMEDIATE_FAMILIES = (
    "i01", "i1C", "i1CC", "i0XC", "CiC0", "XiC0", "iX1",
    # orphaned carry-drop: the head of a CiC0/XiC0 block resolved first,
    # leaving the iC0 directly below plain bits
    "iC0",
)


@dataclass(frozen=True)
class AdmissibleClass:
    admissible: bool
    kind: str | None = None        # "main" or "intermediate"
    family: str | None = None
    main_index: int | None = None  # 1..6 for the main families

    @property
    def inadmissible(self) -> bool:
        return not self.admissible


INADMISSIBLE = AdmissibleClass(False)


def _family_of(state: tuple[str, ...]) -> AdmissibleClass:
    """Label an admissible state by its topmost block."""
    first = next((k for k, s in enumerate(state) if s not in ("0", "1")), None)
    if first is None:
        return AdmissibleClass(True, "main", MAIN_FAMILIES[1], 1)
    s = state[first]
    after = state[first + 1] if first + 1 < len(state) else None
    if s == "C":
        if after == "C":
            idx = 4
        elif after == "iC0":
            return AdmissibleClass(True, "intermediate", "CiC0")
        else:
            idx = 2 if state[first - 1] == "1" else 3
        return AdmissibleClass(True, "main", MAIN_FAMILIES[idx], idx)
    if s == "X":
        if after == "C":
            return AdmissibleClass(True, "main", MAIN_FAMILIES[5], 5)
        if after == "iC0":
            return AdmissibleClass(True, "intermediate", "XiC0")
        return AdmissibleClass(True, "main", MAIN_FAMILIES[6], 6)
    if s == "i1C":
        family = "i1CC" if after == "C" else "i1C"
        return AdmissibleClass(True, "intermediate", family)
    if s == "i01":
        return AdmissibleClass(True, "intermediate", "i01")
    if s == "i0X":
        return AdmissibleClass(True, "intermediate", "i0XC")
    if s == "iX1":
        return AdmissibleClass(True, "intermediate", "iX1")
    if s == "iC0":
        return AdmissibleClass(True, "intermediate", "iC0")
    raise AssertionError(f"unlabelled admissible state {state}")


def classify(state: tuple[str, ...]) -> AdmissibleClass:
    """Admissibility plus family label of a symbol state.

    Lone variables are a degenerate case outside normal use: the X_2 guard
    of the increment rules is vacuous there, so bits and the two trigger
    intermediates count as admissible.
    """
    if len(state) == 1:
        if state[0] in ("0", "1", "i01", "i1C"):
            return _family_of(state) if state[0] in ("0", "1") else AdmissibleClass(
                True, "intermediate", state[0])
        return INADMISSIBLE
    ctx = _START
    for sym in state:
        ctx = _DFA[ctx].get(sym)
        if ctx is None:
            return INADMISSIBLE
    if ctx not in _ACCEPTING:
        return INADMISSIBLE
    return _family_of(state)


def is_admissible(state: tuple[str, ...]) -> bool:
    return classify(state).admissible


# ---------------------------------------------------------------------------
# Verification oracles.
# ---------------------------------------------------------------------------

def _chain(report, label, values, expected, strict_pairs=None):
    """Assert a computed inequality chain has the expected values and
    actually increases (non-strict steps may be listed in strict_pairs)."""
    ok = list(values) == list(expected)
    rel = []
    for i in range(len(values) - 1):
        strict = strict_pairs[i] if strict_pairs is not None else True
        holds = values[i] < values[i + 1] if strict else values[i] <= values[i + 1]
        rel.append(holds)
        ok = ok and holds
    report.add(label, ok, " ".join(f"{v}" for v in values))


def verify_rule_arithmetic() -> Report:
    """Mechanically evaluate every inequality chain behind the rule system
    from the shipped cost tables (exact integers, zero tolerance)."""
    rep = Report("rule arithmetic")
    f = f_cost
    h_values = {"i01": 1, "i1C": 5}

    def hv(sym):
        # every chain below has a plain bit above X_1, so the trigger pays
        return h_values.get(sym, 0)

    for a in ("0", "1"):
        _chain(
            rep, f"increment chain (rules 1-2), a={a}",
            [f(a, "0") + hv("0"), f(a, "i01") + hv("i01"), f(a, "1") + hv("1"),
             f(a, "i1C") + hv("i1C"), f(a, "C") + hv("C")],
            [0, 1, 4, 5, 6],
        )
        _chain(
            rep, f"carry into 1 (rule 3), a={a}",
            [4 * f(a, "1") + f("1", "C"),
             4 * f(a, "i1C") + f("i1C", "C"),
             4 * f(a, "C") + f("C", "C")],
            [22, 23, 24],
        )
        _chain(
            rep, f"carry into 0 (rule 4), a={a}",
            [4 * f(a, "0") + f("0", "C"),
             4 * f(a, "i0X") + f("i0X", "C"),
             4 * f(a, "X") + f("X", "C")],
            [6, 7, 8],
        )
        _chain(
            rep, f"use the carry (rule 7), a={a}",
            [4 * f(a, "X") + f("X", "0"),
             4 * f(a, "iX1") + f("iX1", "0"),
             4 * f(a, "1") + f("1", "0")],
            [13, 14, 16],
            strict_pairs=[True, False],
        )
    _chain(
        rep, "drop carry after X (rule 6), zeros below",
        [4 * f("X", "C") + f("C", "0"),
         4 * f("X", "iC0") + f("iC0", "0"),
         4 * f("X", "0") + f("0", "0")],
        [45, 48, 52],
    )
    _chain(rep, "drop carry after X (rule 6), at the end",
           [f("X", "C"), f("X", "iC0"), f("X", "0")], [8, 12, 13])
    _chain(
        rep, "drop carry after C (rule 5), zeros below",
        [4 * f("C", "C") + f("C", "0"),
         4 * f("C", "iC0") + f("iC0", "0"),
         4 * f("C", "0") + f("0", "0")],
        [13, 32, 52],
    )
    _chain(rep, "drop carry after C (rule 5), at the end",
           [f("C", "C"), f("C", "iC0"), f("C", "0")], [0, 8, 13])

    # conflict chains: the preferred rule's successor exceeds the other's
    for a in ("0", "1"):
        _chain(
            rep, f"conflict 3a vs 5a, a={a}",
            [64 * f(a, "i1C") + 16 * f("i1C", "C") + 4 * f("C", "C") + f("C", "0"),
             64 * f(a, "1") + 16 * f("1", "C") + 4 * f("C", "iC0") + f("iC0", "0")],
            [381, 384],
        )
        _chain(
            rep, f"conflict 3a vs 5a at the end, a={a}",
            [16 * f(a, "i1C") + 4 * f("i1C", "C") + f("C", "C"),
             16 * f(a, "1") + 4 * f("1", "C") + f("C", "iC0")],
            [92, 96],
        )
        _chain(
            rep, f"conflict 3a vs 5b, a={a}",
            [64 * f(a, "i1C") + 16 * f("i1C", "C") + 4 * f("C", "iC0") + f("iC0", "0"),
             64 * f(a, "1") + 16 * f("1", "C") + 4 * f("C", "0") + f("0", "0")],
            [400, 404],
        )
        _chain(
            rep, f"conflict 3a vs 5b at the end, a={a}",
            [16 * f(a, "i1C") + 4 * f("i1C", "C") + f("C", "iC0"),
             16 * f(a, "1") + 4 * f("1", "C") + f("C", "0")],
            [100, 101],
        )
        _chain(
            rep, f"conflict 4a vs 5a, a={a}",
            [64 * f(a, "i0X") + 16 * f("i0X", "C") + 4 * f("C", "C") + f("C", "0"),
             64 * f(a, "0") + 16 * f("0", "C") + 4 * f("C", "iC0") + f("iC0", "0")],
            [125, 128],
        )
        _chain(
            rep, f"conflict 4a vs 5a at the end, a={a}",
            [16 * f(a, "i0X") + 4 * f("i0X", "C") + f("C", "C"),
             16 * f(a, "0") + 4 * f("0", "C") + f("C", "iC0")],
            [28, 32],
        )
        _chain(
            rep, f"conflict 4a vs 5b, a={a}",
            [64 * f(a, "i0X") + 16 * f("i0X", "C") + 4 * f("C", "iC0") + f("iC0", "0"),
             64 * f(a, "0") + 16 * f("0", "C") + 4 * f("C", "0") + f("0", "0")],
            [144, 148],
        )
        _chain(
            rep, f"conflict 4a vs 5b at the end, a={a}",
            [16 * f(a, "i0X") + 4 * f("i0X", "C") + f("C", "iC0"),
             16 * f(a, "0") + 4 * f("0", "C") + f("C", "0")],
            [36, 37],
        )

    # rule 1 loses every conflict: in any admissible state ending with at
    # least two zeros, rule 1a gains exactly 1 and every other applicable
    # rule gains strictly more
    templates = [
        ("0", "C"), ("1", "C"), ("X",), ("iX1",),
        ("0", "C", "C"), ("1", "C", "C"), ("X", "C"),
        ("0", "C", "iC0"), ("1", "C", "iC0"),
        ("i1C", "C"), ("i0X", "C"), ("X", "iC0"),
    ]
    for body in templates:
        state = ("0",) + body + ("0", "0")
        landscape = SymbolCountingLandscape(len(state))
        apps = applicable_rules(state)
        delta_by_rule = {}
        for app in apps:
            pos = len(state) - app.variable
            delta_by_rule[app.rule_id] = landscape.delta(state, (pos, app.new_symbol))
        others = {r: d for r, d in delta_by_rule.items() if r != "1a"}
        ok = delta_by_rule.get("1a") == 1 and others and all(d > 1 for d in others.values())
        rep.add(
            f"rule 1a loses in <{format_symbol_state(state)}>",
            ok,
            f"delta(1a)={delta_by_rule.get('1a')} others=" +
            ", ".join(f"{r}:{d}" for r, d in sorted(others.items())),
        )
    return rep


def verify_cpp_closure(n: int, landscape: SymbolCountingLandscape | None = None,
                       max_counterexamples: int = 20) -> Report:
    """Exhaustive closure and rule-coverage oracle over all 10^N states.

    Checks (a) every strictly improving flip from an admissible state lands
    in an admissible state, and (b) along the counting path from 0^N to
    01^(N-1) the set of strictly improving flips equals the set of
    guard-matching rule transitions.  Passing a corrupted landscape breaks
    (b) (and possibly (a)), which is how the oracle's own sensitivity is
    tested.
    """
    if landscape is None:
        landscape = SymbolCountingLandscape(n)
    rep = Report(f"counting-path closure, N={n}")

    admissible_count = 0
    violations = []
    for state in landscape.iter_states():
        if not classify(state).admissible:
            continue
        admissible_count += 1
        for move in landscape.moves(state):
            if landscape.delta(state, move) > 0:
                successor = landscape.apply(state, move)
                if not classify(successor).admissible:
                    violations.append((state, successor))
    violations.sort()
    ok = not violations
    detail = f"{admissible_count} admissible states of {landscape.state_count()}"
    if violations:
        shown = "; ".join(
            f"{format_symbol_state(s)} -> {format_symbol_state(t)}"
            for s, t in violations[:max_counterexamples]
        )
        detail += f"; {len(violations)} counterexamples: {shown}"
    rep.add("improving flips preserve admissibility", ok, detail)

    mismatches = []
    try:
        path = counting_path(n)
    except (RuleError, AmbiguousPriorityError) as exc:
        rep.add("improving flips match rules on the counting path", False, str(exc))
        return rep
    for state in path:
        improving = {
            (move[0], move[1])
            for move in landscape.moves(state)
            if landscape.delta(state, move) > 0
        }
        by_rule = {
            (len(state) - app.variable, app.new_symbol)
            for app in applicable_rules(state)
        }
        if improving != by_rule:
            mismatches.append((state, improving, by_rule))
    ok = not mismatches
    detail = f"{len(path)} path states"
    if mismatches:
        s, imp, byr = mismatches[0]
        detail += (
            f"; {len(mismatches)} mismatches, first at {format_symbol_state(s)}: "
            f"improving-only={sorted(imp - byr)} rule-only={sorted(byr - imp)}"
        )
    rep.add("improving flips match rules on the counting path", ok, detail)
    return rep


def verify_steepest_equals_rules(n: int, start=None, budget: int | None = None,
                                 landscape: SymbolCountingLandscape | None = None) -> Report:
    """Lockstep oracle: from ``start`` (default 0^N), steepest ascent under
    fail-on-tie and the prioritized rules must produce the same state
    sequence up to the counting path's endpoint 01^(N-1), with the improving
    flips at every visited state exactly the guard-matching transitions.
    Both sets come from the ascent loop's move table, which after each step
    recomputes only the deltas near the flipped position."""
    if landscape is None:
        landscape = SymbolCountingLandscape(n)
    if budget is None:
        budget = 2 ** (n + 4)
    state = zero_state(n) if start is None else tuple(start)
    end = count_end_state(n)
    rep = Report(f"steepest-ascent / rule lockstep, N={n}")
    steps = 0
    table = _MoveTable(landscape, state)
    while state != end:
        improving = {m for m, d in table.entries() if d > 0}
        by_rule = {
            (len(state) - app.variable, app.new_symbol)
            for app in applicable_rules(state)
        }
        if improving != by_rule:
            rep.add(
                "lockstep", False,
                f"improving flips differ from rules at {format_symbol_state(state)} "
                f"(step {steps}): improving-only={sorted(improving - by_rule)} "
                f"rule-only={sorted(by_rule - improving)}")
            return rep
        move, _ = steepest_choice(state, table.entries())  # fail-on-tie
        if move is None:
            rep.add("lockstep", False,
                    f"steepest ascent halts at {format_symbol_state(state)} (step {steps})")
            return rep
        successor = rule_successor(state)
        by_steepest = table.step(move)
        if successor is None or successor[0] != by_steepest:
            got = "halt" if successor is None else format_symbol_state(successor[0])
            rep.add(
                "lockstep", False,
                f"divergence at step {steps}, state {format_symbol_state(state)}: "
                f"steepest -> {format_symbol_state(by_steepest)}, rules -> {got}")
            return rep
        state = by_steepest
        steps += 1
        if steps > budget:
            rep.add("lockstep", False, f"budget {budget} exhausted before 01^(N-1)")
            return rep
    rep.add("lockstep", True,
            f"{steps} identical steps from start to 01^(N-1), no tie, no ambiguity")
    return rep
