"""Shared test fixtures and the acceptance-criteria summary hook."""

from __future__ import annotations

import json
import random
from pathlib import Path

from ascentlab import rules
from ascentlab.counting import count_end_state, zero_state
from ascentlab.symbols import format_symbol_state
from ascentlab.vcsp import SoftConstraint, VcspInstance, instance_from_obj, instance_to_obj

_acceptance_results: list[tuple[str, bool]] = []


def pytest_runtest_logreport(report):
    if report.when == "call" and "test_acceptance.py" in report.nodeid:
        _acceptance_results.append((report.nodeid.split("::")[-1], report.passed))


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_results:
        return
    terminalreporter.section("acceptance criteria")
    for name, ok in _acceptance_results:
        terminalreporter.write_line(f"{'PASS' if ok else 'FAIL'}  {name}")


def random_instance(rng: random.Random, num_vars=6, max_domain=4,
                    num_constraints=5, max_arity=3, max_weight=5,
                    max_cost=9) -> VcspInstance:
    """Small random table VCSP for oracle cross-checks."""
    domains = tuple(rng.randint(2, max_domain) for _ in range(num_vars))
    constraints = []
    for _ in range(num_constraints):
        arity = rng.randint(1, min(max_arity, num_vars))
        scope = tuple(rng.sample(range(num_vars), arity))
        size = 1
        for v in scope:
            size *= domains[v]
        values = tuple(rng.randint(0, max_cost) for _ in range(size))
        constraints.append(SoftConstraint(scope, rng.randint(0, max_weight), values))
    return VcspInstance(domains, tuple(constraints))


def random_assignment(rng: random.Random, instance: VcspInstance):
    return tuple(rng.randrange(d) for d in instance.domains)


def dump_instance(instance: VcspInstance, path) -> None:
    """Write ``instance`` to ``path`` with the bytes ``ascentlab gen -o`` writes."""
    Path(path).write_text(json.dumps(instance_to_obj(instance), indent=1, sort_keys=True) + "\n",
                          encoding="utf-8")


def load_instance(path) -> VcspInstance:
    """The instance of the document at ``path``."""
    return instance_from_obj(json.loads(Path(path).read_text(encoding="utf-8")))


# -- the rules' own reference walker ----------------------------------------

class RuleError(ValueError):
    """The rules halt, or run past their budget, before 01^(N-1)."""


def rule_successor(state):
    """Apply the unique highest-priority applicable rule: (next state, the
    application), or None when no rule applies (the halt signal).  Raises
    AmbiguousPriorityError when the priority order leaves more than one
    candidate."""
    candidates = rules.applicable_rules(state)
    if not candidates:
        return None
    chosen = rules._choose(state, candidates)
    return chosen.apply(state), chosen


def counting_path(n: int) -> list[tuple[str, ...]]:
    """The rule-driven counting path from 0^N to 01^(N-1), inclusive, walked
    by the rules alone."""
    state, stop = zero_state(n), count_end_state(n)
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


# -- a walk through every state ---------------------------------------------

def gray_steps(domains):
    """The moves of a walk through every state of ``domains`` from its zero
    state, in reflected mixed-radix Gray-code order: each move changes one
    variable by one position in its domain, the last variable fastest
    (Knuth, TAOCP 4A, 7.2.1.1, Algorithm H).  Yields (variable, value)."""
    digits = [v for v in reversed(range(len(domains))) if len(domains[v]) > 1]
    radices = [len(domains[v]) for v in digits]
    a = [0] * len(digits)           # each digit's position in its domain
    o = [1] * len(digits)           # each digit's direction
    f = list(range(len(digits) + 1))  # focus pointers
    while True:
        j = f[0]
        f[0] = 0
        if j == len(digits):
            return
        a[j] += o[j]
        var = digits[j]
        yield var, domains[var][a[j]]
        if a[j] == 0 or a[j] == radices[j] - 1:
            o[j] = -o[j]
            f[j] = f[j + 1]
            f[j + 1] = j + 1
