"""Admissibility recognizer, transition rules, priorities, and the oracles."""

from __future__ import annotations

import functools
import hashlib
import itertools
import random
from collections import Counter, deque

import pytest

from ascentlab import counting, rules
from ascentlab.counting import (
    F_NONZERO,
    SymbolCountingLandscape,
    count_end_state,
    make_counting_symbol_instance,
    zero_state,
)
from ascentlab.report import Report
from ascentlab.rules import (
    AmbiguousPriorityError,
    INTERMEDIATE_FAMILIES,
    MAIN_FAMILIES,
    RULES,
    RuleApplication,
    applicable_rules,
    classify,
    verify_cpp_closure,
    verify_rule_arithmetic,
    lockstep_steps,
    verify_steepest_equals_rules,
)
from ascentlab.search import (
    FAIL_ON_TIE,
    LOWEST_INDEX,
    TieError,
    _MoveTable,
    _steepest,
    _walk,
    steepest_ascent,
)
from ascentlab.symbols import SYMBOLS, format_symbol_state
from ascentlab.vcsp import SoftConstraint, VcspInstance

from conftest import RuleError, counting_path, rule_successor


def S(text: str) -> tuple[str, ...]:
    return tuple(text.split())


def rule_ids(state) -> set[str]:
    return {a.rule_id for a in applicable_rules(state)}


# -- classify -----------------------------------------------------------------

def test_classify_examples():
    c = classify(S("0 0 1 1"))
    assert c.admissible and c.family == MAIN_FAMILIES[1]
    c = classify(S("0 X C 0"))
    assert c.admissible and c.family == MAIN_FAMILIES[5]
    assert not classify(S("i1C C iC0")).admissible


def test_classify_main_families():
    assert classify(S("0 1 0 1")).family == MAIN_FAMILIES[1]
    assert classify(S("0 1 C")).family == MAIN_FAMILIES[2]
    assert classify(S("0 0 C 0")).family == MAIN_FAMILIES[3]
    assert classify(S("0 C C 0")).family == MAIN_FAMILIES[4]
    assert classify(S("0 X C 0 0")).family == MAIN_FAMILIES[5]
    assert classify(S("0 X 0 0")).family == MAIN_FAMILIES[6]


def test_classify_intermediate_families():
    cases = {
        "0 1 i01": "i01",
        "0 0 i1C": "i1C",
        "0 i1C C 0": "i1CC",
        "0 i0X C 0": "i0XC",
        "0 C iC0 0": "CiC0",
        "0 X iC0 0": "XiC0",
        "0 iX1 0 0": "iX1",
        "0 1 0 iC0": "iC0",  # orphaned carry-drop from a collapsed cascade
    }
    for text, family in cases.items():
        c = classify(S(text))
        assert c.admissible and c.family == family
    assert set(cases.values()) == set(INTERMEDIATE_FAMILIES)


def test_classify_rejects_unreachable_states():
    for text in ("1 0 0", "C 0 0", "0 X 1", "0 0 iCX", "0 i01 0",
                 "i1C C C", "0 C i1C", "0 X iC0 1"):
        assert not classify(S(text)).admissible, text


# Per N: the admissible states per family, and the sha256 of the sorted
# (state, family) pairs, one "symbols<TAB>family" line each.  Recorded from
# the labeller that stored a main/intermediate kind and a main index beside
# the family, so the one remaining field still names every state alike.
FAMILY_CENSUS = {
    2: ({"{01}+": 2, "{01}*0C...": 1, "{01}*XC...": 1, "{01}*X0...": 1,
         "i01": 1, "i1C": 1, "i0XC": 1, "XiC0": 1, "iX1": 1},
        "cc334334b427dbca5e3f6fdf4c07d0d7c247b479f43d1001752938240db92541"),
    3: ({"{01}+": 4, "{01}*1C...": 1, "{01}*0C...": 2, "{01}*CC...": 1, "{01}*XC...": 4,
         "{01}*X0...": 7, "i01": 2, "i1C": 2, "i1CC": 1, "i0XC": 4, "CiC0": 1, "XiC0": 4,
         "iX1": 7},
        "37362df01e9a2dd150e06ac8b4f055b4944704fc66e5af99846de34addd1f73f"),
    4: ({"{01}+": 8, "{01}*1C...": 3, "{01}*0C...": 10, "{01}*CC...": 5, "{01}*XC...": 18,
         "{01}*X0...": 31, "i01": 4, "i1C": 4, "i1CC": 5, "i0XC": 18, "CiC0": 5, "XiC0": 23,
         "iX1": 31, "iC0": 1},
        "6f2af2982b28e581178b4ad7167efac2b2eb8a0a99a5fc220db020895fa161e0"),
    5: ({"{01}+": 16, "{01}*1C...": 13, "{01}*0C...": 39, "{01}*CC...": 23, "{01}*XC...": 80,
         "{01}*X0...": 142, "i01": 8, "i1C": 8, "i1CC": 23, "i0XC": 80, "CiC0": 28,
         "XiC0": 106, "iX1": 142, "iC0": 6},
        "02999a4725d81b0ec1553b40a83e507b81156c88e7e386f8ea35f8404cfc22f2"),
    6: ({"{01}+": 32, "{01}*1C...": 52, "{01}*0C...": 173, "{01}*CC...": 103,
         "{01}*XC...": 359, "{01}*X0...": 633, "i01": 16, "i1C": 16, "i1CC": 103,
         "i0XC": 359, "CiC0": 134, "XiC0": 485, "iX1": 633, "iC0": 34},
        "3c498fdab01f675ade58cd96d6c737b2bc61bfc7b5191005c49c0cf84d3ed416"),
}


def test_every_state_keeps_its_recorded_family():
    labels = set(MAIN_FAMILIES.values()) | set(INTERMEDIATE_FAMILIES)
    total = 0
    for n, (counts, digest) in FAMILY_CENSUS.items():
        pairs = []
        for state in itertools.product(SYMBOLS, repeat=n):
            c = classify(state)
            assert (c.family is None) == (not c.admissible), state
            if c.admissible:
                assert c.family in labels, state
                pairs.append((state, c.family))
        pairs.sort()
        text = "\n".join(" ".join(state) + "\t" + family for state, family in pairs)
        assert Counter(family for _, family in pairs) == counts, n
        assert hashlib.sha256(text.encode()).hexdigest() == digest, n
        total += len(pairs)
    assert total == 4_062


def test_an_accepted_word_without_a_family_is_an_error(monkeypatch):
    # a transition the scan accepts but no family table names
    monkeypatch.setitem(rules._DFA[rules._ZEROS], "iCX", rules._BIT0)
    with pytest.raises(AssertionError, match=r"unlabelled admissible state \('0', 'iCX'\)"):
        classify(S("0 iCX"))


def improving_flip_closure(landscape, start, per_move=False):
    """The states reachable from ``start`` by strictly improving moves: a
    breadth-first search over ``move_deltas``, or over ``delta`` asked move
    by move when ``per_move``."""
    reachable = {start}
    queue = deque(reachable)
    while queue:
        state = queue.popleft()
        entries = ([(move, landscape.delta(state, move)) for move in landscape.moves(state)]
                   if per_move else landscape.move_deltas(state))
        for move, d in entries:
            if d > 0:
                nxt = landscape.apply(state, move)
                if nxt not in reachable:
                    reachable.add(nxt)
                    queue.append(nxt)
    return reachable


def dfa_words(n):
    """The words of length n that ``rules._DFA`` accepts, by walking its
    transitions from the start context."""
    layer = {(): rules._START}
    for _ in range(n):
        layer = {word + (sym,): nxt for word, ctx in layer.items()
                 for sym, nxt in rules._DFA[ctx].items()}
    return {word for word, ctx in layer.items() if ctx in rules._ACCEPTING}


def test_classify_matches_improving_flip_closure_exhaustively():
    # the recognizer accepts exactly the states reachable from 0^N by
    # strictly improving moves: over all 10^N states for N <= 4 (the
    # closure by per-move deltas), and for N = 5, 6 (by the scan, for time)
    # as the words its scan accepts, which are the states that classify
    # accepts, since classify runs the same scan
    sizes = {2: 10, 3: 40, 4: 166, 5: 714, 6: 3132}
    for n, size in sizes.items():
        reachable = improving_flip_closure(SymbolCountingLandscape(n), zero_state(n),
                                           per_move=n <= 4)
        assert reachable == dfa_words(n) and len(reachable) == size, n
        if n <= 4:
            for state in itertools.product(SYMBOLS, repeat=n):
                assert classify(state).admissible == (state in reachable), state
        else:
            assert all(classify(state).admissible for state in reachable)


def test_closure_check_fires_on_a_dropped_or_an_added_transition(monkeypatch):
    # a scan that loses one transition, or gains one, accepts other words
    # than the closure at N = 5
    reachable = improving_flip_closure(SymbolCountingLandscape(5), zero_state(5))
    dropped = {ctx: dict(edges) for ctx, edges in rules._DFA.items()}
    added = {ctx: dict(edges) for ctx, edges in rules._DFA.items()}
    del dropped[rules._CARRY]["iC0"]
    added[rules._IX1]["1"] = rules._BIT1
    monkeypatch.setattr(rules, "_DFA", dropped)
    assert dfa_words(5) < reachable
    monkeypatch.setattr(rules, "_DFA", added)
    assert dfa_words(5) > reachable


def test_classify_single_variable_degenerate_case():
    assert classify(("0",)).admissible
    assert classify(("i01",)).admissible
    assert not classify(("C",)).admissible


# -- applicable rules and the successor ------------------------------------------

def test_applicable_rules_examples():
    assert rule_ids(S("0 0 0 0")) == {"1a"}
    assert rule_ids(S("0 X iC0 1")) == {"6b"}
    # per-state truth for one CC family member; the family-level union
    # over all of {01}*CC{01}*0 additionally picks up 1a and 3a
    apps = applicable_rules(S("0 C C 0"))
    assert [(a.rule_id, a.variable) for a in apps] == [("5a", 2), ("4a", 4)]


def applicable_by_scan(state):
    """``applicable_rules`` by testing every rule at every position."""
    n = len(state)
    out = []
    for rule in RULES.values():
        if rule.changes == "last":
            if (n == 1 or state[n - 2] in ("0", "1")) and rule.guard == (state[n - 1],):
                out.append(RuleApplication(rule.rule_id, 1, rule.new_symbol))
            continue
        for k in range(n - 1):
            if rule.guard == (state[k], state[k + 1]):
                var = n - k if rule.changes == "above" else n - k - 1
                out.append(RuleApplication(rule.rule_id, var, rule.new_symbol))
    return sorted(out, key=lambda a: (a.variable, a.rule_id))


def test_rule_match_equals_a_scan_of_every_rule():
    for n in range(1, 5):
        for state in itertools.product(SYMBOLS, repeat=n):
            assert applicable_rules(state) == applicable_by_scan(state), state
    rng = random.Random(12)
    for _ in range(500):
        state = tuple(rng.choice(SYMBOLS) for _ in range(12))
        assert applicable_rules(state) == applicable_by_scan(state), state
    rng = random.Random(2031)
    for n in range(5, 15):
        for _ in range(1_000):
            state = tuple(rng.choice(SYMBOLS) for _ in range(n))
            assert applicable_rules(state) == applicable_by_scan(state), state


def test_the_rules_at_a_position_read_only_its_window():
    # the lockstep memoises a run's rule applications under the values at
    # the windows p - 1..p + 1 of its positions p, so a symbol outside a
    # window must not change the rules that rewrite its position
    rng = random.Random(2032)
    for n in range(2, 13):
        for _ in range(100):
            state = tuple(rng.choice(SYMBOLS) for _ in range(n))
            for pos in range(n):
                expected = rules._rewriting(state, pos)
                for other in range(n):
                    if abs(other - pos) < 2:
                        continue
                    for symbol in SYMBOLS:
                        redrawn = state[:other] + (symbol,) + state[other + 1:]
                        assert rules._rewriting(redrawn, pos) == expected, (state, pos, redrawn)


def paper_beats(g1: int, g2: int) -> bool:
    """The paper's partial order on rule groups: each of groups 3..7 beats
    groups 1 and 2, and group 5 beats 3 and 4."""
    return g2 in (1, 2) and g1 in (3, 4, 5, 6, 7) or g1 == 5 and g2 in (3, 4)


def beaten_table(beats):
    """``rules._BEATEN`` for the order ``beats``: per group 1..7, the other
    groups it beats."""
    return {g: tuple(h for h in range(1, 8) if h != g and beats(g, h)) for g in range(1, 8)}


def successor_by_priority(state, candidates):
    """``rule_successor`` with the paper's priority pass run on every
    candidate list, comparing the groups pair by pair."""
    if not candidates:
        return None
    groups = [RULES[c.rule_id].group for c in candidates]
    maximal = [c for c, g in zip(candidates, groups)
               if not any(paper_beats(h, g) for h in groups if h != g)]
    if len(maximal) != 1:
        raise AmbiguousPriorityError(state, [(c.rule_id, c.variable) for c in maximal])
    return maximal[0].apply(state), maximal[0]


def test_lone_candidate_successor_agrees_with_the_priority_pass():
    lone = 0
    for n in range(1, 11):
        for state in counting_path(n):
            candidates = applicable_rules(state)
            lone += len(candidates) == 1
            assert rule_successor(state) == successor_by_priority(state, candidates), state
    assert lone > 0


def test_the_priority_table_is_the_papers_partial_order():
    assert rules._BEATEN == beaten_table(paper_beats)


def test_rule_successor_is_the_pairwise_priority_pass_on_every_small_state():
    # every state for N <= 4, most of them off the counting path, where
    # several candidates can stay unbeaten
    ambiguous = 0
    for n in range(1, 5):
        for state in itertools.product(SYMBOLS, repeat=n):
            candidates = applicable_rules(state)
            try:
                expected = successor_by_priority(state, candidates)
            except AmbiguousPriorityError as exc:
                ambiguous += 1
                with pytest.raises(AmbiguousPriorityError) as raised:
                    rule_successor(state)
                assert raised.value.candidates == exc.candidates, state
                continue
            assert rule_successor(state) == expected, state
    assert ambiguous > 0


def test_lockstep_fails_when_one_position_of_the_index_drops_a_rule(monkeypatch):
    assert verify_steepest_equals_rules(6).passed
    # the last pair: CC -> C iC0 at X_2 X_1 no longer offers rule 5a there
    rewriting = rules._rewriting
    monkeypatch.setattr(rules, "_rewriting", lambda state, pos: [
        app for app in rewriting(state, pos) if (app.rule_id, app.variable) != ("5a", 1)])
    report = verify_steepest_equals_rules(6)
    assert not report.passed
    assert report.lines()[1].startswith("[FAIL] lockstep: improving flips differ from rules")
    assert "improving-only=[(5, 'iC0')]" in report.lines()[1]


def test_applicability_tables_reproduced_as_family_unions():
    # main-symbol table
    rows = [
        (["0 1 0", "0 0 1 0"], {"1a"}),
        (["0 1", "0 1 1"], {"2a"}),
        (["0 1 C 0", "1 C 1 0"], {"1a", "3a"}),
        (["0 0 C 0", "0 C 1 0"], {"1a", "4a"}),
        (["0 C C 0", "1 C C 0", "0 C C 1 0"], {"1a", "3a", "4a", "5a"}),
        (["0 X C 0", "0 X C 0 0"], {"1a", "6a"}),
        (["0 X 0 0", "0 X 0 0 0"], {"1a", "7a"}),
    ]
    for members, expected in rows:
        union = set()
        for text in members:
            union |= rule_ids(S(text))
        assert union == expected, members
    # intermediate-symbol table
    rows = [
        (["0 1 i01"], {"1b"}),
        (["0 0 i1C"], {"2b"}),
        (["0 i1C C", "0 i1C C 0"], {"3b"}),
        (["0 i0X C"], {"4b"}),
        (["0 i0X C 0", "0 i0X C 0 0"], {"1a", "4b"}),
        (["0 C iC0", "1 C iC0"], {"3a", "4a", "5b"}),
        (["0 C iC0 0", "1 C iC0 1 0"], {"1a", "3a", "4a", "5b"}),
        (["0 X iC0 0"], {"6b"}),
    ]
    for members, expected in rows:
        union = set()
        for text in members:
            union |= rule_ids(S(text))
        assert union == expected, members
    # short X iC0 members admit only rule 6b; once two zeros trail, the
    # increment rule joins in (it conflicts with, and loses to, 6b):
    assert rule_ids(S("0 X iC0 0 0")) == {"6b", "1a"}


def test_rule_successor_examples():
    nxt, app = rule_successor(S("0 C C 0"))
    assert app.rule_id == "5a" and nxt == S("0 C iC0 0")
    nxt, app = rule_successor(S("0 0 0 C 0 0 0"))
    assert app.rule_id == "4a" and nxt == S("0 0 i0X C 0 0 0")
    nxt, app = rule_successor(S("0 0 1 0 0 0 0"))
    assert app.rule_id == "1a" and nxt == S("0 0 1 0 0 0 i01")


def test_rule_successor_halt_and_priorities():
    assert rule_successor(S("0 0 X")) is None  # no guard fires anywhere
    nxt, app = rule_successor(S("0 X C 0 0"))
    assert app.rule_id == "6a"  # beats the applicable 1a
    nxt, app = rule_successor(S("0 1 C C 0"))
    assert app.rule_id == "5a"  # beats 1a, 3a, 4a


def test_rule_successor_ambiguity_is_loud():
    with pytest.raises(AmbiguousPriorityError):
        rule_successor(S("0 C C C"))  # 5a fires at two positions


def test_priority_determinism_along_rule_paths():
    # exactly one highest-priority rule at every state the rule system
    # visits from 0^N
    for n in range(2, 11):
        for state in counting_path(n):
            rule_successor(state)  # would raise on ambiguity


def test_rule_effects_are_one_bit_flips():
    from ascentlab.symbols import ADJACENT_SYMBOLS

    for rule in RULES.values():
        old = rule.guard[0] if rule.changes in ("last", "above") else rule.guard[1]
        assert rule.new_symbol in ADJACENT_SYMBOLS[old]


# -- counting path ---------------------------------------------------------------

def test_counting_path_endpoints_and_admissibility():
    for n in (2, 3, 4, 5):
        path = counting_path(n)
        assert path[0] == zero_state(n)
        assert path[-1] == ("0",) + ("1",) * (n - 1)
        assert all(classify(s).admissible for s in path)


def test_counting_path_length_recurrence():
    lengths = {n: len(counting_path(n)) - 1 for n in range(2, 11)}
    assert lengths[2] == 2
    # R(N) = 2 R(N-1) + 4(N - 1), the path length to 01^(N-1): exponential
    # in the symbol count
    for n in range(3, 11):
        assert lengths[n] == 2 * lengths[n - 1] + 4 * (n - 1)
    assert lengths[10] == 3540


# -- oracles ----------------------------------------------------------------------

def test_verify_rule_arithmetic_all_chains():
    report = verify_rule_arithmetic()
    assert report.passed
    rendered = "\n".join(report.lines())
    for fragment in ("0 1 4 5 6", "22 23 24", "6 7 8", "45 48 52", "8 12 13",
                     "13 32 52", "0 8 13", "13 14 16", "381 384", "92 96",
                     "400 404", "100 101", "125 128", "28 32", "144 148",
                     "36 37"):
        assert fragment in rendered, fragment


def test_every_chain_expects_values_that_rise_by_its_step_pattern():
    # a chain passes only when its values equal the typed-in constants, so
    # the constants themselves must rise: strictly, or weakly where named
    chains = [chain for _, group in rules._CHAIN_GROUPS for chain in group]
    assert len(chains) == 16
    for label, windows, expected, weak in chains:
        assert len(expected) == len(windows) >= 2, label
        assert set(weak) <= set(range(len(expected) - 1)), label
        for k, (x, y) in enumerate(zip(expected, expected[1:])):
            assert x <= y if k in weak else x < y, (label, k)


def test_verify_rule_arithmetic_reads_the_shipped_trigger_table(monkeypatch):
    monkeypatch.setitem(counting.H_NONZERO, "i01", 4)
    report = verify_rule_arithmetic()
    assert not report.passed
    failed = [c.label for c in report.checks if not c.ok]
    assert "increment chain (rules 1-2), a=0" in failed
    assert "increment chain (rules 1-2), a=1" in failed


def test_verify_rule_arithmetic_reads_the_shipped_pair_table(monkeypatch):
    monkeypatch.setitem(counting.F_NONZERO, ("i1C", "C"), 22)
    report = verify_rule_arithmetic()
    assert not report.passed
    failed = {c.label for c in report.checks if not c.ok}
    for a in ("0", "1"):
        assert f"carry into 1 (rule 3), a={a}" in failed
        for other in ("5a", "5a at the end", "5b", "5b at the end"):
            assert f"conflict 3a vs {other}, a={a}" in failed
    assert not any(label.startswith("conflict 4a") for label in failed)


def test_cpp_closure_small():
    for n in (2, 3):
        report = verify_cpp_closure(n)
        assert report.passed, "\n".join(report.lines())


@pytest.mark.parametrize("n, admissible", [(5, 714), (6, 3_132)])
def test_cpp_closure_at_five_and_six_symbols(n, admissible):
    report = verify_cpp_closure(n)
    assert report.passed, "\n".join(report.lines())
    assert f"{admissible} admissible states of {10 ** n}" in report.checks[0].detail


def test_cpp_closure_refuses_a_landscape_over_its_cap_before_reading_it(monkeypatch):
    monkeypatch.setattr(rules, "CLOSURE_MAX_STATES", 10 ** 3)
    assert verify_cpp_closure(3).passed
    with pytest.raises(ValueError) as refused:
        verify_cpp_closure(4)
    assert str(refused.value) == "state space has 10000 states, over the cap 1000"


def test_cpp_closure_detects_corrupted_table():
    corrupted = dict(F_NONZERO)
    corrupted[("i1C", "C")] = 0
    landscape = SymbolCountingLandscape(4, f_table=corrupted)
    report = verify_cpp_closure(4, landscape=landscape)
    assert not report.passed
    rendered = "\n".join(report.lines())
    assert "FAIL" in rendered


def closure_row_by_scan(landscape):
    """Row (a) of ``verify_cpp_closure`` as it was before it read a move
    table, kept as its oracle: a fresh ``move_deltas`` scan of every
    admissible state.  Returns the row's detail."""
    admissible = [s for s in landscape.iter_states() if classify(s).admissible]
    violations = sorted(
        (state, successor) for state in admissible
        for successor in (landscape.apply(state, move)
                          for move, d in landscape.move_deltas(state) if d > 0)
        if not classify(successor).admissible)
    detail = f"{len(admissible)} admissible states of {landscape.state_count()}"
    if violations:
        detail += f"; {len(violations)} counterexamples: " + "; ".join(
            f"{format_symbol_state(s)} -> {format_symbol_state(t)}" for s, t in violations[:20])
    return detail


def test_the_closure_row_on_a_move_table_equals_the_scan_of_every_admissible_state():
    cases = [(n, F_NONZERO) for n in range(2, 6)]
    cases += [(n, {**F_NONZERO, pair: value}) for pair, value in MUTATIONS for n in (3, 4)]
    cases += [(n, {**F_NONZERO, ("C", "i01"): 14}) for n in (3, 4, 5)]  # 3, 20, 128 failures
    for n, f_table in cases:
        check = verify_cpp_closure(n, SymbolCountingLandscape(n, f_table)).checks[0]
        assert check.label == "improving flips preserve admissibility"
        assert check.detail == closure_row_by_scan(SymbolCountingLandscape(n, f_table)), (n, f_table)
        assert check.ok == ("counterexamples" not in check.detail)
        assert check.ok or f_table is not F_NONZERO


def test_the_closure_row_fails_by_itself():
    # rewarding an i01 under a C adds an improving flip that leaves the
    # admissible set, and none on the counting path at N = 3
    f_table = {**F_NONZERO, ("C", "i01"): 14}
    closure, rule_row = verify_cpp_closure(3, SymbolCountingLandscape(3, f_table)).checks
    assert not closure.ok and rule_row.ok
    assert closure.detail == closure_row_by_scan(SymbolCountingLandscape(3, f_table)) == (
        "40 admissible states of 1000; 3 counterexamples: 0 C 0 -> 0 C i01; "
        "X C 0 -> X C i01; i0X C 0 -> i0X C i01")


@pytest.mark.parametrize("f_table", [F_NONZERO, {**F_NONZERO, ("C", "i01"): 14}],
                         ids=["shipped", "C-i01"])
def test_an_ascent_after_the_closure_equals_one_on_a_fresh_landscape(f_table):
    # the closure's table steps through states no ascent visits, and leaves
    # its scans in the landscape's memo for every later walk to reinstall
    walked = SymbolCountingLandscape(5, f_table)
    verify_cpp_closure(5, walked)
    after, fresh = (steepest_ascent(landscape, zero_state(5), LOWEST_INDEX, max_steps=10 ** 4)
                    for landscape in (walked, SymbolCountingLandscape(5, f_table)))
    assert after.steps == fresh.steps and after.terminal == fresh.terminal


def test_lockstep_small_and_midpath_start():
    for n in (2, 3, 4):
        assert verify_steepest_equals_rules(n).passed
    report = verify_steepest_equals_rules(7, start=S("0 0 0 1 1 1 1"))
    assert report.passed


def test_lockstep_checks_r_of_n_from_the_default_start_only(monkeypatch):
    # R(N) counts from 0^N: off by one, it fails the default start and is
    # not read from a start midway along the path
    steps = lockstep_steps
    monkeypatch.setattr(rules, "lockstep_steps", lambda n: steps(n) + 1)
    report = verify_steepest_equals_rules(7)
    assert not report.passed
    assert report.lines()[1] == (
        f"[FAIL] lockstep: 01^(N-1) reached at step {steps(7)}, not at R(N) = {steps(7) + 1}")
    assert verify_steepest_equals_rules(7, start=S("0 0 0 1 1 1 1")).passed


def test_lockstep_detects_corrupted_table():
    # the corrupted entry first matters at N = 4, where the counting path
    # first carries through a 1; at N = 3 the oracles correctly stay green
    corrupted = dict(F_NONZERO)
    corrupted[("i1C", "C")] = 0
    landscape = SymbolCountingLandscape(3, f_table=corrupted)
    assert verify_steepest_equals_rules(3, landscape=landscape).passed
    landscape = SymbolCountingLandscape(4, f_table=corrupted)
    report = verify_steepest_equals_rules(4, landscape=landscape)
    assert not report.passed


def test_lockstep_reports_a_tie_an_ambiguity_or_a_halt_as_a_failure():
    # a raised C0 cost makes (1, i0X) and (3, 0) both improve by 4 at <0 0 C iC0>
    corrupted = dict(F_NONZERO)
    corrupted[("C", "0")] = 12
    landscape = SymbolCountingLandscape(4, f_table=corrupted)
    report = verify_steepest_equals_rules(4, landscape=landscape)
    assert not report.passed
    assert report.lines()[1] == (
        "[FAIL] lockstep: steepest-move tie at 0 0 C iC0: "
        "moves [(1, 'i0X'), (3, '0')] all improve by 4 (step 17)")
    # two carries into 1 of the same priority group, off the counting path
    report = verify_steepest_equals_rules(4, start=S("1 C 1 C"))
    assert not report.passed
    assert report.lines()[1] == (
        "[FAIL] lockstep: priority does not single out a rule at 1 C 1 C: "
        "[('3a', 2), ('3a', 4)] (step 0)")
    # no improving flip and no rule, short of 01^(N-1)
    report = verify_steepest_equals_rules(3, start=S("0 0 X"))
    assert not report.passed
    assert report.lines()[1] == "[FAIL] lockstep: steepest ascent halts at 0 0 X (step 0)"


def test_lockstep_reports_a_divergence_as_a_failure(monkeypatch):
    # at <0 X 0 0> rules 1a and 7a apply and steepest takes 7a; a priority
    # under which group 1 wins makes the rules take 1a
    assert verify_steepest_equals_rules(4, start=S("0 X 0 0")).passed
    monkeypatch.setattr(rules, "_BEATEN", beaten_table(lambda g1, g2: g1 == 1))
    report = verify_steepest_equals_rules(4, start=S("0 X 0 0"))
    assert not report.passed
    assert report.lines()[1] == (
        "[FAIL] lockstep: divergence at step 0, state 0 X 0 0: "
        "steepest -> 0 iX1 0 0, rules -> 0 X 0 i01")


def test_lockstep_reports_an_exhausted_budget_as_a_failure():
    assert verify_steepest_equals_rules(4, budget=40).passed
    report = verify_steepest_equals_rules(4, budget=3)
    assert not report.passed
    assert report.lines()[1] == "[FAIL] lockstep: budget 3 exhausted before 01^(N-1)"


@pytest.mark.parametrize("budget", [-1, -5, True, 2.5, "8"])
def test_lockstep_refuses_a_budget_that_is_not_a_non_negative_int(budget):
    with pytest.raises(ValueError) as excinfo:
        verify_steepest_equals_rules(4, budget=budget)
    assert str(excinfo.value) == f"budget must be a non-negative int, not {budget!r}"


def test_cpp_closure_reports_a_rule_path_error_as_a_failure(monkeypatch):
    label = "improving flips match rules on the counting path"
    # no last-symbol rule: the rules halt at once, where the increment improves
    monkeypatch.setattr(rules, "_LAST", {})
    report = verify_cpp_closure(3)
    assert not report.passed
    assert report.lines()[2] == (
        f"[FAIL] {label}: improving flips differ from rules at 0 0 0 (step 0): "
        "improving-only=[(2, 'i01')] rule-only=[]")
    monkeypatch.undo()
    # a priority that never decides: two candidates stay (AmbiguousPriorityError)
    monkeypatch.setattr(rules, "_BEATEN", beaten_table(lambda g1, g2: False))
    report = verify_cpp_closure(4)
    assert not report.passed
    assert report.lines()[2] == (
        f"[FAIL] {label}: priority does not single out a rule at 0 0 C C: "
        "[('5a', 1), ('4a', 3)] (step 16)")


def test_counting_path_stops_rules_that_cycle_at_its_budget(monkeypatch):
    # 1b rewrites i01 back to 0, so the last symbol cycles 0 -> i01 -> 0
    monkeypatch.setitem(rules._LAST, ("i01",), (("1b", "0"),))
    with pytest.raises(RuleError) as refused:
        counting_path(3)
    assert str(refused.value) == "counting path exceeded its budget; construction broken"


def test_lockstep_refuses_an_n_over_its_cap_before_any_step(monkeypatch):
    monkeypatch.setattr(rules, "LOCKSTEP_MAX_STEPS", lockstep_steps(5))
    assert verify_steepest_equals_rules(5).passed

    def no_table(*args):
        raise AssertionError("a step was taken")

    monkeypatch.setattr(rules, "_MoveTable", no_table)
    with pytest.raises(ValueError) as refused:
        verify_steepest_equals_rules(6)
    assert str(refused.value) == "the lockstep at N=6 takes 196 steps, over the cap 88"


# -- the whole-state lockstep, kept as the per-window lockstep's oracle -------

def lockstep_by_whole_state(n, start=None, budget=None, landscape=None):
    """``verify_steepest_equals_rules`` as it was before its per-window
    check: at every state, 01^(N-1) included, the whole state's improving
    flips against all of ``applicable_rules``, and up to 01^(N-1) the
    rules' successor state against steepest ascent's."""
    if landscape is None:
        landscape = SymbolCountingLandscape(n)
    if budget is None:
        budget = 2 ** (n + 4)
    state = zero_state(n) if start is None else tuple(start)
    end = count_end_state(n)
    rep = Report(f"steepest-ascent / rule lockstep, N={n}")
    steps = 0
    table = _MoveTable(landscape, state)
    walk = _walk(table, functools.partial(_steepest, FAIL_ON_TIE))
    while True:
        improving = {m for m, _ in table.improving_entries()}
        candidates = applicable_rules(state)
        by_rule = {(len(state) - app.variable, app.new_symbol) for app in candidates}
        if improving != by_rule:
            rep.add(
                "lockstep", False,
                f"improving flips differ from rules at {format_symbol_state(state)} "
                f"(step {steps}): improving-only={sorted(improving - by_rule)} "
                f"rule-only={sorted(by_rule - improving)}")
            return rep
        if state == end:
            break
        if not improving:
            rep.add("lockstep", False,
                    f"steepest ascent halts at {format_symbol_state(state)} (step {steps})")
            return rep
        try:
            next(walk)
            successor = rule_successor(state)
        except (TieError, AmbiguousPriorityError) as exc:
            rep.add("lockstep", False, f"{exc} (step {steps})")
            return rep
        by_steepest = table.state
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


def assert_same_lockstep(n, **kwargs):
    """The per-window and the whole-state lockstep print the same report."""
    lines = verify_steepest_equals_rules(n, **kwargs).lines()
    assert lines == lockstep_by_whole_state(n, **kwargs).lines(), (n, kwargs)
    return lines


# the pair-table edits of ROADMAP item 1, each of which some check must see
MUTATIONS = [(("C", "0"), 12), (("X", "iC0"), 11), (("i1C", "C"), 0), (("0", "1"), 5)]
STARTS = ["1 C 1 C", "0 0 X", "0 X 0 0", "0 0 0 1 1 1 1"]
# pair-table edits that change the improving flips of 01^(N-1) at N = 3 and of
# no earlier state on the path: the walk's last state must be checked too
END_EDITS = [(("1", "1"), 5), (("1", "iX1"), 5), (("i1C", "1"), 21), (("iX1", "1"), 21)]


def rule_walk_row(n, landscape):
    """Row (b) of ``verify_cpp_closure`` as it was before it read the
    lockstep, kept as its oracle: the rules' own walk from 0^N
    (``counting_path``), and at each of its states the whole state's
    improving flips against the guard-matching rule transitions.  Returns
    (passed, path states)."""
    try:
        path = counting_path(n)
    except (RuleError, AmbiguousPriorityError):
        return False, None
    return all({move for move, d in landscape.move_deltas(state) if d > 0}
               == {(n - app.variable, app.new_symbol) for app in applicable_rules(state)}
               for state in path), len(path)


def closure_rule_row(n, landscape):
    """Row (b) of ``verify_cpp_closure(n, landscape)``.  Row (a)'s walk over
    every state is given no states: row (b) does not read it, and at N = 7
    it takes seconds."""
    landscape.iter_states = lambda: iter(())
    check = verify_cpp_closure(n, landscape=landscape).checks[1]
    assert check.label == "improving flips match rules on the counting path"
    return check


def test_the_closure_rule_row_fails_wherever_the_rule_walk_fails(monkeypatch):
    for n in range(2, 8):  # the shipped tables: R(N) + 1 path states both ways
        check = closure_rule_row(n, SymbolCountingLandscape(n))
        assert check.ok and check.detail == f"{lockstep_steps(n) + 1} path states", n
        assert rule_walk_row(n, SymbolCountingLandscape(n)) == (True, lockstep_steps(n) + 1)
    verdicts = []

    def compare(n, f_table=F_NONZERO):
        old, _ = rule_walk_row(n, SymbolCountingLandscape(n, f_table=f_table))
        new = closure_rule_row(n, SymbolCountingLandscape(n, f_table=f_table))
        assert old or not new.ok, (n, new.detail)
        verdicts.append((old, new.ok))

    for pair, value in MUTATIONS:
        for n in range(3, 7):
            compare(n, {**F_NONZERO, pair: value})
    for pair, value in END_EDITS:
        compare(3, {**F_NONZERO, pair: value})
    # the rules halt at 0^N; a priority that never decides; rules that cycle
    # 0 -> i01 -> 0 at X_1
    for name, table in (("_LAST", {}), ("_BEATEN", beaten_table(lambda g1, g2: False)),
                        ("_LAST", {**rules._LAST, ("i01",): (("1b", "0"),)})):
        with monkeypatch.context() as patched:
            patched.setattr(rules, name, table)
            for n in range(3, 7):
                compare(n)
    # the new row also fails the tie that ("C", "0") = 12 makes at N = 4..6,
    # which the rule walk cannot see
    assert Counter(verdicts) == {(False, False): 25, (True, False): 3, (True, True): 4}


def test_per_window_lockstep_prints_the_whole_state_report():
    for n in range(2, 10):  # the shipped tables
        assert assert_same_lockstep(n)[-1] == "result: PASS"
    verdicts = []
    for pair, value in MUTATIONS:
        f_table = {**F_NONZERO, pair: value}
        for n in range(3, 7):
            lines = assert_same_lockstep(n, landscape=SymbolCountingLandscape(n, f_table=f_table))
            verdicts.append(lines[-1])
    assert "result: FAIL" in verdicts  # each mutation fails somewhere
    for pair, value in END_EDITS:
        lines = assert_same_lockstep(
            3, landscape=SymbolCountingLandscape(3, f_table={**F_NONZERO, pair: value}))
        assert lines[1].startswith(
            "[FAIL] lockstep: improving flips differ from rules at 0 1 1 (step 12): "), pair
    for text in STARTS:
        state = S(text)
        assert_same_lockstep(len(state), start=state)
    assert_same_lockstep(4, budget=3)


@pytest.mark.parametrize("beats", [lambda g1, g2: g1 == 1, lambda g1, g2: False,
                                   lambda g1, g2: g1 > g2], ids=["group-1-wins", "none", "higher"])
def test_per_window_lockstep_prints_the_whole_state_report_under_another_priority(
        beats, monkeypatch):
    monkeypatch.setattr(rules, "_BEATEN", beaten_table(beats))
    failed = 0
    for n in range(2, 7):
        failed += assert_same_lockstep(n)[-1] == "result: FAIL"
    for text in STARTS:
        state = S(text)
        failed += assert_same_lockstep(len(state), start=state)[-1] == "result: FAIL"
    assert failed


def narrowed_instance(n, keep):
    """The counting instance with only the pair constraints on (X_{i+1}, X_i)
    for which ``keep(i)``, and the trigger only if ``keep(0)``: scopes
    narrower than the rule windows."""
    *pairs, trigger = make_counting_symbol_instance(n).constraints
    return VcspInstance((len(SYMBOLS),) * n, tuple(
        [c for c in pairs if keep(c.scope[0])] + ([trigger] if keep(0) else [])))


def test_the_memo_key_holds_the_rule_windows_where_scopes_are_narrower():
    # Dropped constraints make some neighbourhoods narrower than the rule
    # windows, so a key of the neighbourhood alone would reinstall a verdict
    # made under other rules: at <0 X iC0 C> with the pair (X_3, X_2)
    # dropped, such a key let the mismatch at step 1 pass, and the report
    # named step 6 instead.
    for n in (3, 4):
        starts = [s for s in itertools.product(SYMBOLS, repeat=n) if classify(s).admissible]
        # no trigger, odd pairs only, even pairs only, no top pair
        for keep in (lambda i: i != 0, lambda i: i % 2 == 1, lambda i: i % 2 == 0,
                     lambda i: i != n - 1):
            landscape = SymbolCountingLandscape.of_instance(narrowed_instance(n, keep))
            for start in starts:
                assert_same_lockstep(n, start=start, landscape=landscape)
    landscape = SymbolCountingLandscape.of_instance(narrowed_instance(4, lambda i: i % 2))
    assert assert_same_lockstep(4, start=S("0 X iC0 C"), landscape=landscape)[1] == (
        "[FAIL] lockstep: improving flips differ from rules at 0 X 0 C (step 1): "
        "improving-only=[] rule-only=[(1, 'iX1')]")


def test_a_run_of_several_positions_lists_an_ambiguity_in_applicable_rules_order():
    # a zero table over every variable makes every neighbourhood every
    # variable: the move table has one run, whose rules span positions 0..3
    instance = make_counting_symbol_instance(4)
    wide = VcspInstance(instance.domains, instance.constraints + (
        SoftConstraint(tuple(range(4)), 1, (0,) * len(SYMBOLS) ** 4),))
    landscape = SymbolCountingLandscape.of_instance(wide)
    assert assert_same_lockstep(4, start=S("1 C 1 C"), landscape=landscape)[1] == (
        "[FAIL] lockstep: priority does not single out a rule at 1 C 1 C: "
        "[('3a', 2), ('3a', 4)] (step 0)")
    assert assert_same_lockstep(4, landscape=landscape)[-1] == "result: PASS"


def test_lockstep_calls_keep_no_state_between_them():
    # a call on a corrupted table and one on the shipped table, in either
    # order and again, give the reports each gives alone
    f_table = {**F_NONZERO, ("C", "0"): 12}
    corrupted = verify_steepest_equals_rules(5, landscape=SymbolCountingLandscape(5, f_table))
    shipped = verify_steepest_equals_rules(5)
    assert not corrupted.passed and shipped.passed
    for _ in range(2):
        assert verify_steepest_equals_rules(
            5, landscape=SymbolCountingLandscape(5, f_table)).lines() == corrupted.lines()
        assert verify_steepest_equals_rules(5).lines() == shipped.lines()
    assert corrupted.lines() == lockstep_by_whole_state(
        5, landscape=SymbolCountingLandscape(5, f_table)).lines()
