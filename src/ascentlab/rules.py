"""Reference semantics for the counting landscape: admissibility, the 14
prioritized transition rules, and exhaustive verification oracles.

Admissibility
-------------
A symbol state is *admissible* when it is reachable from the all-zero state
by strictly improving single-flip moves.  The recognizer below is a
13-state left-to-right scan (most significant symbol first) that was
extracted from the exhaustively computed improving-flip closure; the tests
check that it matches it exactly for N = 2..6 (10, 40, 166, 714 and 3132
states).  Beyond single-carry-block states, the closure also contains
stacked carry machinery: improving but non-steepest flips can start a fresh
increment in the zeros below an unresolved carry, so admissible states may
hold several blocks in flight at once (e.g. <X C 0 C> or <X iC0 iC0>).  All
of those resolve without ever leaving the set, which is exactly what
verify_cpp_closure demonstrates.  An admissible state's one label is its
``family``, read off its topmost block: a value of MAIN_FAMILIES, whose key
is the main family's index, or one of INTERMEDIATE_FAMILIES.

Transition rules
----------------
Rules 1a..7b are syntactic guards over (X_{i+1}, X_i) pairs, or over the
last symbol with X_2 a plain bit; a rule's ``changes`` names the symbol it
rewrites ("above", "below" or "last"), and guard matching never requires
admissibility.  The rules are matched from one guard table per value of
``changes``, so the rules that rewrite a position are read from it and its
two neighbours alone, and the applications of a state are listed from X_1
up.  Priorities form a partial order: each of rule groups 3..7 beats
groups 1 and 2, and group 5 beats 3 and 4.  The prioritized successor must
be unique, and the oracle treats any residual ambiguity as an error rather
than picking silently.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass

from .counting import SymbolCountingLandscape, count_end_state, zero_state
from .report import Report
from .search import FAIL_ON_TIE, TieError, _MoveTable, _steepest, _walk
from .symbols import format_symbol_state


class AmbiguousPriorityError(RuntimeError):
    def __init__(self, state, candidates):
        self.state = state
        self.candidates = candidates
        super().__init__(
            f"priority does not single out a rule at {format_symbol_state(state)}: {candidates}"
        )


# ---------------------------------------------------------------------------
# The rules.  Pair rules are keyed by the (X_{i+1}, X_i) guard; `changes`
# says which of the two rewrites.  A rule that changes the "last" symbol
# is guarded by X_1 alone and requires X_2 in {0, 1}.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Rule:
    rule_id: str
    group: int
    guard: tuple         # last: (old,); pair: (above, below)
    changes: str         # "last", "above", "below"
    new_symbol: str
    description: str


RULES: dict[str, Rule] = {}


def _add(rule_id, guard, changes, new_symbol, description):
    RULES[rule_id] = Rule(rule_id, int(rule_id[0]), guard, changes, new_symbol, description)


_add("1a", ("0",), "last", "i01", "increment: last 0 -> i01")
_add("1b", ("i01",), "last", "1", "increment: last i01 -> 1")
_add("2a", ("1",), "last", "i1C", "start carry: last 1 -> i1C")
_add("2b", ("i1C",), "last", "C", "start carry: last i1C -> C")
_add("3a", ("1", "C"), "above", "i1C", "carry into 1: 1C -> i1C C")
_add("3b", ("i1C", "C"), "above", "C", "carry into 1: i1C C -> CC")
_add("4a", ("0", "C"), "above", "i0X", "carry into 0: 0C -> i0X C")
_add("4b", ("i0X", "C"), "above", "X", "carry into 0: i0X C -> XC")
_add("5a", ("C", "C"), "below", "iC0", "drop carry after C: CC -> C iC0")
_add("5b", ("C", "iC0"), "below", "0", "drop carry after C: C iC0 -> C0")
_add("6a", ("X", "C"), "below", "iC0", "drop carry after X: XC -> X iC0")
_add("6b", ("X", "iC0"), "below", "0", "drop carry after X: X iC0 -> X0")
_add("7a", ("X", "0"), "above", "iX1", "use the carry: X0 -> iX1 0")
_add("7b", ("iX1", "0"), "above", "1", "use the carry: iX1 0 -> 10")


@dataclass(frozen=True)
class RuleApplication:
    rule_id: str
    variable: int        # 1-based index of the variable the rule rewrites
    new_symbol: str

    def apply(self, state: tuple[str, ...]) -> tuple[str, ...]:
        pos = len(state) - self.variable  # display index
        return state[:pos] + (self.new_symbol,) + state[pos + 1:]


def _guard_table(changes: str) -> dict[tuple, tuple]:
    """Per guard of the rules whose ``changes`` is ``changes``: the (rule
    id, new symbol) pairs of its rules, in rule-id order."""
    table: dict[tuple, tuple] = {}
    for rule in RULES.values():
        if rule.changes == changes:
            table[rule.guard] = table.get(rule.guard, ()) + ((rule.rule_id, rule.new_symbol),)
    return table


_ABOVE, _BELOW, _LAST = map(_guard_table, ("above", "below", "last"))


def applicable_rules(state: tuple[str, ...]) -> list[RuleApplication]:
    """All rule instances whose guards match, in (variable, rule id) order.

    Matching is purely syntactic.  (Family-level applicability tables,
    which describe whole pattern families at once, are unions of these
    per-state match sets over the family's members.)  The applications are
    read with ``_rewriting`` position by position from X_1 up, so they come
    in order without a sort.
    """
    return [app for pos in range(len(state) - 1, -1, -1) for app in _rewriting(state, pos)]


def _rewriting(state, pos):
    """The applications of the rules that rewrite position ``pos`` of
    ``state``, from the guard tables: the above-rules by the pair below it
    or, at X_1, the last-symbol rules under the X_2 guard, then the
    below-rules by the pair above it; so from positions pos - 1, pos and
    pos + 1 alone.  They come in rule-id order: a below-rule's guard reads
    C or iC0 at ``pos`` and no other rule's guard does."""
    n = len(state)
    found = ()
    if pos + 1 < n:
        found = _ABOVE.get(state[pos:pos + 2], ())
    elif n == 1 or state[n - 2] in ("0", "1"):  # the X_2 guard of rule groups 1-2
        found = _LAST.get(state[pos:], ())
    if pos:
        found += _BELOW.get(state[pos - 1:pos + 1], ())
    return [RuleApplication(rule_id, n - pos, new_symbol)
            for rule_id, new_symbol in found] if found else []


# Each rule group and the groups it beats
_BEATEN = {1: (), 2: (), 3: (1, 2), 4: (1, 2), 5: (1, 2, 3, 4), 6: (1, 2), 7: (1, 2)}


def _choose(state, candidates):
    """The one highest-priority application among ``candidates``, the rule
    applications of ``state``, of which there is at least one.  A lone
    candidate is chosen without a priority pass; several unbeaten ones
    raise AmbiguousPriorityError, listed in the candidates' order."""
    if len(candidates) > 1:
        groups = [RULES[c.rule_id].group for c in candidates]
        beaten = {h for g in groups for h in _BEATEN[g]}
        candidates = [c for c, g in zip(candidates, groups) if g not in beaten]
        if len(candidates) != 1:
            raise AmbiguousPriorityError(state, [(c.rule_id, c.variable) for c in candidates])
    return candidates[0]


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

MAIN_FAMILIES = {1: "{01}+", 2: "{01}*1C...", 3: "{01}*0C...",
                 4: "{01}*CC...", 5: "{01}*XC...", 6: "{01}*X0..."}
INTERMEDIATE_FAMILIES = (
    "i01", "i1C", "i1CC", "i0XC", "CiC0", "XiC0", "iX1",
    # orphaned carry-drop: the head of a CiC0/XiC0 block resolved first,
    # leaving the iC0 directly below plain bits
    "iC0",
)


@dataclass(frozen=True)
class AdmissibleClass:
    admissible: bool
    family: str | None = None  # a value of MAIN_FAMILIES, or in INTERMEDIATE_FAMILIES


INADMISSIBLE = AdmissibleClass(False)
_LABELS = {f: AdmissibleClass(True, f) for f in (*MAIN_FAMILIES.values(), *INTERMEDIATE_FAMILIES)}
# The family of an admissible state by its topmost symbol that is not a plain
# bit and the symbol below it, else by that symbol alone; a C so labelled
# heads family 2 instead when the bit above it is a 1.
_FAMILY_BY_PAIR = {("C", "C"): MAIN_FAMILIES[4], ("X", "C"): MAIN_FAMILIES[5],
                   ("C", "iC0"): "CiC0", ("X", "iC0"): "XiC0", ("i1C", "C"): "i1CC"}
_FAMILY_BY_TOP = {"C": MAIN_FAMILIES[3], "X": MAIN_FAMILIES[6], "i01": "i01", "i1C": "i1C",
                  "i0X": "i0XC", "iX1": "iX1", "iC0": "iC0"}


def _family_of(state: tuple[str, ...]) -> AdmissibleClass:
    """Label an admissible state by its topmost block."""
    first = next((k for k, s in enumerate(state) if s not in ("0", "1")), None)
    if first is None:
        return _LABELS[MAIN_FAMILIES[1]]
    family = _FAMILY_BY_PAIR.get(state[first:first + 2]) or _FAMILY_BY_TOP.get(state[first])
    if family is None:
        raise AssertionError(f"unlabelled admissible state {state}")
    if family == MAIN_FAMILIES[3] and state[first - 1] == "1":
        family = MAIN_FAMILIES[2]
    return _LABELS[family]


def classify(state: tuple[str, ...]) -> AdmissibleClass:
    """Admissibility plus family label of a symbol state.

    Lone variables are a degenerate case outside normal use: the X_2 guard
    of the increment rules is vacuous there, so bits and the two trigger
    intermediates count as admissible.
    """
    if len(state) == 1:
        return _family_of(state) if state[0] in ("0", "1", "i01", "i1C") else INADMISSIBLE
    ctx = _START
    for sym in state:
        ctx = _DFA[ctx].get(sym)
        if ctx is None:
            return INADMISSIBLE
    if ctx not in _ACCEPTING:
        return INADMISSIBLE
    return _family_of(state)


# ---------------------------------------------------------------------------
# Verification oracles.
# ---------------------------------------------------------------------------

# The inequality chains behind the rule system.  Each chain lists symbol
# windows (display order, X_1 rightmost), scored as whole states by the
# counting landscape; "{a}" is a plain bit on top, tried as 0 and as 1.  A
# chain names its expected values and the steps that need not be strict.
_CHAIN_GROUPS = (
    (("0", "1"), (
        # a plain bit sits above X_1, so the trigger pays
        ("increment chain (rules 1-2), a={a}",
         ("{a} 0", "{a} i01", "{a} 1", "{a} i1C", "{a} C"), (0, 1, 4, 5, 6), ()),
        ("carry into 1 (rule 3), a={a}",
         ("{a} 1 C", "{a} i1C C", "{a} C C"), (22, 23, 24), ()),
        ("carry into 0 (rule 4), a={a}",
         ("{a} 0 C", "{a} i0X C", "{a} X C"), (6, 7, 8), ()),
        ("use the carry (rule 7), a={a}",
         ("{a} X 0", "{a} iX1 0", "{a} 1 0"), (13, 14, 16), (1,)),
    )),
    ((None,), (
        ("drop carry after X (rule 6), zeros below",
         ("X C 0", "X iC0 0", "X 0 0"), (45, 48, 52), ()),
        ("drop carry after X (rule 6), at the end",
         ("X C", "X iC0", "X 0"), (8, 12, 13), ()),
        ("drop carry after C (rule 5), zeros below",
         ("C C 0", "C iC0 0", "C 0 0"), (13, 32, 52), ()),
        ("drop carry after C (rule 5), at the end",
         ("C C", "C iC0", "C 0"), (0, 8, 13), ()),
    )),
    # conflict chains: the preferred rule's successor exceeds the other's
    (("0", "1"), (
        ("conflict 3a vs 5a, a={a}", ("{a} i1C C C 0", "{a} 1 C iC0 0"), (381, 384), ()),
        ("conflict 3a vs 5a at the end, a={a}", ("{a} i1C C C", "{a} 1 C iC0"), (92, 96), ()),
        ("conflict 3a vs 5b, a={a}", ("{a} i1C C iC0 0", "{a} 1 C 0 0"), (400, 404), ()),
        ("conflict 3a vs 5b at the end, a={a}", ("{a} i1C C iC0", "{a} 1 C 0"), (100, 101), ()),
        ("conflict 4a vs 5a, a={a}", ("{a} i0X C C 0", "{a} 0 C iC0 0"), (125, 128), ()),
        ("conflict 4a vs 5a at the end, a={a}", ("{a} i0X C C", "{a} 0 C iC0"), (28, 32), ()),
        ("conflict 4a vs 5b, a={a}", ("{a} i0X C iC0 0", "{a} 0 C 0 0"), (144, 148), ()),
        ("conflict 4a vs 5b at the end, a={a}", ("{a} i0X C iC0", "{a} 0 C 0"), (36, 37), ()),
    )),
)


def verify_rule_arithmetic() -> Report:
    """Mechanically evaluate every inequality chain behind the rule system
    with the counting landscape's evaluator (exact integers, zero tolerance)."""
    rep = Report("rule arithmetic")
    for bits, chains in _CHAIN_GROUPS:
        for a in bits:
            for label, windows, expected, weak in chains:
                states = [tuple(w.format(a=a).split()) for w in windows]
                values = [SymbolCountingLandscape(len(s)).evaluate(s) for s in states]
                ok = values == list(expected) and all(
                    x <= y if k in weak else x < y
                    for k, (x, y) in enumerate(zip(values, values[1:])))
                rep.add(label.format(a=a), ok, " ".join(map(str, values)))

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
        delta_by_rule = {
            a.rule_id: landscape.delta(state, (landscape.n - a.variable, a.new_symbol))
            for a in applicable_rules(state)}
        others = {r: d for r, d in delta_by_rule.items() if r != "1a"}
        ok = delta_by_rule.get("1a") == 1 and others and all(d > 1 for d in others.values())
        rep.add(
            f"rule 1a loses in <{format_symbol_state(state)}>",
            ok,
            f"delta(1a)={delta_by_rule.get('1a')} others=" +
            ", ".join(f"{r}:{d}" for r, d in sorted(others.items())),
        )
    return rep


CLOSURE_MAX_STATES = 10 ** 8   # verify_cpp_closure reads every state: 10^8 is N = 8


def verify_cpp_closure(n: int, landscape: SymbolCountingLandscape | None = None) -> Report:
    """Exhaustive closure and rule-coverage oracle over all 10^N states.

    Checks (a) every strictly improving flip from an admissible state lands
    in an admissible state: ``classify`` reads every state, and the
    admissible ones are walked in ``iter_states`` order on one move table,
    built at the first and stepped at each later one on every position
    whose symbol changed, so their improving flips come from the
    landscape's per-run memo; and (b) the lockstep from 0^N on the same
    landscape (``verify_steepest_equals_rules``): at every state steepest
    ascent visits up to 01^(N-1), the strictly improving flips equal the
    guard-matching rule transitions and steepest ascent takes the rules'
    prioritized move, reaching 01^(N-1) at step R(N); on a pass, the detail
    counts the R(N) + 1 path states, and on a failure it is the lockstep's.
    Passing a corrupted landscape breaks (b) (and possibly (a)), which is
    how the oracle's own sensitivity is tested.  The detail of (a) shows the
    first 20 counterexamples.  A landscape of more than CLOSURE_MAX_STATES
    states is refused before any is read.
    """
    if landscape is None:
        landscape = SymbolCountingLandscape(n)
    if landscape.state_count() > CLOSURE_MAX_STATES:
        raise ValueError(f"state space has {landscape.state_count()} states, "
                         f"over the cap {CLOSURE_MAX_STATES}")
    rep = Report(f"counting-path closure, N={n}")

    admissible_count = 0
    violations = []
    table = None
    for state in landscape.iter_states():
        if not classify(state).admissible:
            continue
        admissible_count += 1
        if table is None:
            table = _MoveTable(landscape, state)
        else:
            for pos, (old, new) in enumerate(zip(table.state, state)):
                if old != new:
                    table.step((pos, new))
        for move, _ in table.improving_entries():
            successor = landscape.apply(state, move)
            if not classify(successor).admissible:
                violations.append((state, successor))
    violations.sort()
    ok = not violations
    detail = f"{admissible_count} admissible states of {landscape.state_count()}"
    if violations:
        shown = "; ".join(
            f"{format_symbol_state(s)} -> {format_symbol_state(t)}"
            for s, t in violations[:20]
        )
        detail += f"; {len(violations)} counterexamples: {shown}"
    rep.add("improving flips preserve admissibility", ok, detail)

    lockstep = verify_steepest_equals_rules(n, landscape=landscape).checks[0]
    rep.add("improving flips match rules on the counting path", lockstep.ok,
            f"{lockstep_steps(n) + 1} path states" if lockstep.ok else lockstep.detail)
    return rep


# The lockstep takes R(N) steps, about 7.5 us each on a 2-core host with
# Python 3.11: 8 * 10^6 admits N = 21 (7,339,944 steps, 55 s) and refuses
# N = 22 (14,679,972 steps)
LOCKSTEP_MAX_STEPS = 8 * 10 ** 6


def lockstep_steps(n: int) -> int:
    """R(N), the steps of the counting path from 0^N to 01^(N-1)."""
    return 7 * 2 ** (n - 1) - 4 * n - 4


def check_lockstep_size(n: int) -> None:
    """Refuse a lockstep whose path to 01^(N-1) is over LOCKSTEP_MAX_STEPS."""
    if lockstep_steps(n) > LOCKSTEP_MAX_STEPS:
        raise ValueError(f"the lockstep at N={n} takes {lockstep_steps(n)} steps, "
                         f"over the cap {LOCKSTEP_MAX_STEPS}")


def _window_runs(table, n: int):
    """Per neighbourhood run of ``table``: the getter of its key positions,
    its memo, its positions and its index in ``table.improving``; and per
    position, the runs whose key holds it.  A run's key positions are its
    ``affected`` neighbourhood and the rule windows p - 1..p + 1 of its
    positions p."""
    keys = [set() for _ in table.improving]
    for pos, index in enumerate(table.run_of):
        keys[index].update(table.landscape.affected(pos) or range(n),
                           range(max(pos - 1, 0), min(pos + 2, n)))
    runs = [(operator.itemgetter(*sorted(key)), {},
             [pos for pos, r in enumerate(table.run_of) if r == index], index)
            for index, key in enumerate(keys)]
    return runs, [[run for run, key in zip(runs, keys) if pos in key] for pos in range(n)]


def verify_steepest_equals_rules(n: int, start=None, budget: int | None = None,
                                 landscape: SymbolCountingLandscape | None = None) -> Report:
    """Lockstep oracle: from ``start`` (default 0^N), steepest ascent under
    fail-on-tie and the prioritized rules must produce the same state
    sequence up to the counting path's endpoint 01^(N-1), with the improving
    flips at every visited state, 01^(N-1) included, exactly the
    guard-matching transitions.

    The check is made per window.  Steepest ascent's own move table keeps
    the improving moves per neighbourhood run; a run passes when they equal
    the moves of the rules that rewrite its positions.  That verdict depends
    only on the values at the run's ``affected`` neighbourhood and at its
    rule windows (p - 1, p and p + 1 for each position p; X_1's rules read
    X_2, which is its p - 1), so it is memoised under them, with the run's
    rule applications, in a memo of this call; after each step only the
    runs whose key holds the flipped position are checked again.  The
    rules' prioritized choice among the runs' applications, taken in
    ``applicable_rules``' order, is compared with the move the walk took.
    A failed verdict, a halt, a tie or an ambiguous priority is reported as
    a failed check, in terms of the whole state's sets as
    ``applicable_rules`` gives them.  From the default start, reaching
    01^(N-1) at a step other than R(N) (``lockstep_steps``) fails the
    check too; R(N) counts from 0^N only, so a custom ``start`` skips
    that test.  A ``budget`` that is not a non-negative int is refused,
    and so is an N whose path to 01^(N-1) is over LOCKSTEP_MAX_STEPS,
    before any step."""
    check_lockstep_size(n)
    if landscape is None:
        landscape = SymbolCountingLandscape(n)
    if budget is None:
        budget = 2 ** (n + 4)
    elif type(budget) is not int or budget < 0:
        raise ValueError(f"budget must be a non-negative int, not {budget!r}")
    state = zero_state(n) if start is None else tuple(start)
    end = count_end_state(n)
    rep = Report(f"steepest-ascent / rule lockstep, N={n}")
    steps = 0
    table = _MoveTable(landscape, state)
    walk = _walk(table, functools.partial(_steepest, FAIL_ON_TIE))
    size = len(state)
    stale, stale_by_position = _window_runs(table, size)
    apps = [()] * len(stale)  # per run: the rule applications at its positions
    while True:
        for values, memo, positions, index in stale:
            key = values(state)
            hit = memo.get(key)
            if hit is None:
                hit = [app for pos in reversed(positions) for app in _rewriting(state, pos)]
                if ({(size - app.variable, app.new_symbol) for app in hit}
                        != {move for move, _ in table.improving[index]}):
                    improving = {move for move, _ in table.improving_entries()}
                    by_rule = {(size - app.variable, app.new_symbol)
                               for app in applicable_rules(state)}
                    rep.add(
                        "lockstep", False,
                        f"improving flips differ from rules at {format_symbol_state(state)} "
                        f"(step {steps}): improving-only={sorted(improving - by_rule)} "
                        f"rule-only={sorted(by_rule - improving)}")
                    return rep
                memo[key] = hit  # only a passing verdict is stored
            apps[index] = hit
        if state == end:
            break
        # runs from the highest position down: applicable_rules' order
        candidates = list(itertools.chain.from_iterable(reversed(apps)))
        if not candidates:
            rep.add("lockstep", False,
                    f"steepest ascent halts at {format_symbol_state(state)} (step {steps})")
            return rep
        try:
            move, _ = next(walk)
            chosen = _choose(state, candidates)
        except (TieError, AmbiguousPriorityError) as exc:
            rep.add("lockstep", False, f"{exc} (step {steps})")
            return rep
        if (size - chosen.variable, chosen.new_symbol) != move:
            rep.add(
                "lockstep", False,
                f"divergence at step {steps}, state {format_symbol_state(state)}: "
                f"steepest -> {format_symbol_state(table.state)}, "
                f"rules -> {format_symbol_state(chosen.apply(state))}")
            return rep
        state = table.state
        steps += 1
        if steps > budget:
            rep.add("lockstep", False, f"budget {budget} exhausted before 01^(N-1)")
            return rep
        stale = stale_by_position[move[0]]
    if start is None and steps != lockstep_steps(n):
        rep.add("lockstep", False,
                f"01^(N-1) reached at step {steps}, not at R(N) = {lockstep_steps(n)}")
        return rep
    rep.add("lockstep", True,
            f"{steps} identical steps from start to 01^(N-1), no tie, no ambiguity")
    return rep
