"""The benchmark's four workloads, each a set-up and a round of timed calls.

A round makes the workload's calls into ascentlab one after another (a
closed loop: each call starts when the previous one returns) and then checks
every output against the construction's exact claims.  Only the library
calls are timed; the checks run between them, off the clock and untraced.
The library is reached through the package namespace (``ascentlab.name``),
so a traced round calls the wrappers the tracer installs there.

Sizes follow ROADMAP aim 1.  The sizes are parameters so that the
benchmark's own tests can run the same checks on small instances.
"""

from __future__ import annotations

import gc
import random
import re
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

import ascentlab

from tracing import Tracer


def reference_loop() -> int:
    """A fixed amount of interpreter work of the kind the library does:
    stores and lookups of small tuples in a dict."""
    table: dict = {}
    total = 0
    for i in range(20_000):
        table[i & 255] = (i, i + 1)
        total += table.get((i * 7) & 255, (0,))[0]
    return total


def reference_s() -> float:
    """Time of one reference loop now, with the collector off so that a
    collection of the library's objects is not charged to the loop."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        reference_loop()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


@dataclass
class Round:
    """Timed calls, correctness checks and exact counts of one round."""

    tracer: Tracer | None = None
    measure_traces: bool = False
    wall_s: float = 0.0
    unit_s: float = 0.0       # time of the calls whose work `Workload.unit` counts
    checks: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    # per call: (seconds, reference loop seconds around it, counts_units)
    durations: list = field(default_factory=list)
    trace_bytes: int = 0
    trace_steps: int = 0

    def call(self, fn, *args, counts_units: bool = False, **kwargs):
        """Make one timed library call, with a reference loop timed just
        before and after it.  An exception fails the call's check and
        returns None."""
        run = fn if self.tracer is None else self.tracer.call
        args = args if self.tracer is None else (fn, *args)
        before = reference_s()
        start = time.perf_counter()
        try:
            result = run(*args, **kwargs)
        except Exception as exc:  # a broken landscape may raise anything
            self.check(f"{getattr(fn, '__name__', 'call')} returns", False,
                       f"{type(exc).__name__}: {exc}")
            return None
        elapsed = time.perf_counter() - start
        self.durations.append((elapsed, (before + reference_s()) / 2, counts_units))
        self.wall_s += elapsed
        if counts_units:
            self.unit_s += elapsed
        return result

    def check(self, label: str, ok: bool, detail: str = "") -> bool:
        self.checks.append((label, bool(ok), detail))
        return bool(ok)

    def count(self, key: str, value: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    @property
    def failed(self) -> int:
        return sum(1 for _, ok, _ in self.checks if not ok)

    def ascent(self, landscape, trace, label: str, calls: int = 1) -> bool:
        """Record an ascent's steps, made in ``calls`` engine calls, and
        check that it ends at a local optimum; False if a call failed."""
        if not self.check(f"{label} returned a trace", trace is not None):
            return False
        steps = trace.num_steps
        self.count("steps", steps)
        self.count("states", len(trace.steps))
        self.count("ascents", 1)
        self.count("engine_calls", calls)
        self.check(f"{label} ends at a local optimum",
                   trace.terminal == ascentlab.LOCAL_OPTIMUM
                   and ascentlab.is_local_maximum(landscape, trace.final_state),
                   f"terminal {trace.terminal} after {steps} steps")
        if self.measure_traces:
            self.trace_bytes += deep_size(trace)
            self.trace_steps += steps
        return True


def deep_size(obj) -> int:
    """Bytes held by ``obj`` and everything it references, each object once."""
    seen = set()
    stack = [obj]
    total = 0
    while stack:
        o = stack.pop()
        if id(o) in seen:
            continue
        seen.add(id(o))
        total += sys.getsizeof(o)
        if isinstance(o, (tuple, list, set, frozenset)):
            stack.extend(o)
        elif isinstance(o, dict):
            stack.extend(o.keys())
            stack.extend(o.values())
        elif hasattr(o, "__dict__"):
            stack.append(vars(o))
    return total


# First-improvement runs per round on counting-path and boolean-lift.
FI_SEEDS = 4
# The census instance's global/worst ratio, and the counting instance whose
# constraint graph `treewidth_exact` solves.
PAIRS_ALPHA = 4
TREEWIDTH_N = 3


def derive_seeds(seed: int, k: int) -> list[int]:
    """First-improvement seeds derived from the workload seed."""
    rng = random.Random(seed)
    return [rng.randrange(2 ** 32) for _ in range(k)]


def _parse_count(pattern: str, text: str) -> int | None:
    m = re.search(pattern, text)
    return int(m.group(1)) if m else None


# ---------------------------------------------------------------------------
# winding-path
# ---------------------------------------------------------------------------

def winding_setup(seed: int, n: int = 14) -> dict:
    landscapes = [ascentlab.WindingLandscape(n, ascentlab.SCHEDULE_PRESETS[p](n))
                  for p in ("semismooth", "root2path")]
    return {
        "n": n,
        "runs": [(name, L, L.origin(), {2 ** (k + 1) - 2: L.peak_state(k)
                                        for k in range(1, n + 1)})
                 for name, L in zip(("semismooth", "root2path"), landscapes)],
    }


# Each ascent is timed in pieces of this many steps, each piece a
# steepest_ascent call from where the previous one stopped (steepest ascent
# keeps no state between steps, so the path is the same).  A 6 s call
# would get the reference loop only at its two ends.
WINDING_PIECE = 2 ** 11


def winding_round(r: Round, ctx: dict) -> None:
    n = ctx["n"]
    expected_steps = 2 ** (n + 1) - 2
    for name, L, origin, peaks in ctx["runs"]:
        label = f"winding {name} n={n}"
        pieces = []
        state = origin
        while len(pieces) <= expected_steps // WINDING_PIECE:
            piece = r.call(ascentlab.steepest_ascent, L, state, ascentlab.FAIL_ON_TIE,
                           max_steps=WINDING_PIECE, counts_units=True)
            if piece is None:
                break
            pieces.append(piece)
            state = piece.final_state
            if piece.terminal == ascentlab.LOCAL_OPTIMUM:
                break
        trace = ascentlab.AscentTrace(
            pieces[0].steps + [s for p in pieces[1:] for s in p.steps[1:]],
            pieces[-1].terminal) if pieces else None
        calls = len(pieces)
        del pieces
        if not r.ascent(L, trace, label, calls=calls):
            continue
        r.check(f"{label} takes 2^(n+1)-2 steps", trace.num_steps == expected_steps,
                f"{trace.num_steps} steps, expected {expected_steps}")
        for step, peak in peaks.items():
            r.check(f"{label} at peak {step.bit_length() - 1} on step {step}",
                    step < len(trace.steps) and trace.steps[step].state == peak)
        r.check(f"{label} final fitness", trace.final_fitness == L.peak_value[n],
                f"{trace.final_fitness}, expected {L.peak_value[n]}")
        del trace  # hold one trace at a time


# ---------------------------------------------------------------------------
# counting-path
# ---------------------------------------------------------------------------

def counting_setup(seed: int, n: int = 12, to_end: int = 14_284, steps: int = 23_829,
                   f_table=None) -> dict:
    """``to_end`` and ``steps`` are the exact step counts to 01^(N-1) and to
    the local optimum; ``f_table`` substitutes a pair cost table, for testing
    that the checks fire."""
    S = ascentlab.SymbolCountingLandscape(n, f_table=f_table)
    return {"n": n, "S": S, "start": S.zero_state(), "end": ascentlab.count_end_state(n),
            "seeds": derive_seeds(seed, FI_SEEDS), "to_end": to_end, "steps": steps}


def counting_round(r: Round, ctx: dict) -> None:
    n, S, start, end = ctx["n"], ctx["S"], ctx["start"], ctx["end"]
    label = f"counting steepest N={n}"
    trace = r.call(ascentlab.steepest_ascent, S, start, ascentlab.FAIL_ON_TIE,
                   max_steps=2 ** (n + 3), counts_units=True)
    if r.ascent(S, trace, label):
        states = trace.states()
        reached = states.index(end) if end in states else None
        r.check(f"{label} passes 01^(N-1) at step {ctx['to_end']}",
                reached == ctx["to_end"], f"reached at step {reached}")
        r.check(f"{label} takes {ctx['steps']} steps", trace.num_steps == ctx["steps"],
                f"{trace.num_steps} steps")
        del trace, states

    report = r.call(ascentlab.verify_steepest_equals_rules, n, landscape=S)
    if r.check(f"lockstep N={n} returned a report", report is not None):
        detail = "; ".join(c.detail for c in report.checks)
        r.check(f"lockstep N={n} passes", report.passed, detail)
        lockstep_steps = _parse_count(r"(\d+) identical steps", detail)
        r.count("lockstep_steps", lockstep_steps or 0)
        r.check(f"lockstep N={n} takes {ctx['to_end']} steps",
                lockstep_steps == ctx["to_end"], detail)

    for seed in ctx["seeds"]:
        trace = r.call(ascentlab.first_improvement_ascent, S, start, seed,
                       max_steps=2 ** (n + 8), counts_units=True)
        r.ascent(S, trace, f"counting first-improvement N={n} seed={seed}")


# ---------------------------------------------------------------------------
# boolean-lift
# ---------------------------------------------------------------------------

def boolean_setup(seed: int, n: int = 10) -> dict:
    B = ascentlab.VcspLandscape(ascentlab.make_counting_boolean_instance(n))
    S = ascentlab.SymbolCountingLandscape(n)
    return {"n": n, "B": B, "start": ascentlab.encode_state(ascentlab.zero_state(n)),
            "S": S, "symbol_start": S.zero_state(), "seeds": derive_seeds(seed, FI_SEEDS)}


def _decode_all(trace):
    return [ascentlab.decode_bits(step.state) for step in trace.steps]


def boolean_round(r: Round, ctx: dict) -> None:
    n, B, S, start = ctx["n"], ctx["B"], ctx["S"], ctx["start"]
    budget = 2 ** (n + 4)
    label = f"boolean-lift steepest N={n}"
    bits = r.call(ascentlab.steepest_ascent, B, start, ascentlab.FAIL_ON_TIE,
                  max_steps=budget, counts_units=True)
    # The reference the bit trace is checked against: untimed and untraced,
    # so that the workload's figures are the bit landscape's alone.
    symbols = ascentlab.steepest_ascent(S, ctx["symbol_start"], ascentlab.FAIL_ON_TIE,
                                        max_steps=budget)
    if r.ascent(B, bits, label):
        decoded = r.call(_decode_all, bits)
        r.check(f"{label} has the symbol trace's length",
                len(bits.steps) == len(symbols.steps),
                f"{bits.num_steps} bit steps, {symbols.num_steps} symbol steps")
        r.check(f"{label} decodes step for step to the symbol trace",
                decoded is not None and len(decoded) == len(symbols.steps) and all(
                    d == s.state and b.fitness == s.fitness
                    for d, b, s in zip(decoded, bits.steps, symbols.steps)))
        r.check(f"{label} flips exactly one bit per step", all(
            sum(x != y for x, y in zip(a.state, b.state)) == 1
            for a, b in zip(bits.steps, bits.steps[1:])))
    del bits, symbols

    for seed in ctx["seeds"]:
        trace = r.call(ascentlab.first_improvement_ascent, B, start, seed,
                       max_steps=2 ** (n + 8), counts_units=True)
        r.ascent(B, trace, f"boolean-lift first-improvement N={n} seed={seed}")


# ---------------------------------------------------------------------------
# exhaustive
# ---------------------------------------------------------------------------

def exhaustive_setup(seed: int, closure_n: int = 6, admissible: int = 3_132,
                     census_n: int = 16, width_ns=range(3, 11)) -> dict:
    return {
        "closure_n": closure_n,
        "admissible": admissible,
        "closure": ascentlab.SymbolCountingLandscape(closure_n),
        "census_n": census_n,
        "pairs": ascentlab.VcspLandscape(ascentlab.make_pairs_instance(census_n, PAIRS_ALPHA)),
        "treewidth_graph":
            ascentlab.make_counting_boolean_instance(TREEWIDTH_N).constraint_graph(),
        "width_graphs": {n: ascentlab.make_counting_boolean_instance(n).constraint_graph()
                         for n in width_ns},
    }


def _ordering_widths(graphs: dict) -> dict:
    return {n: ascentlab.pathwidth_upper_bound(g, range(g.num_vertices))
            for n, g in graphs.items()}


def exhaustive_round(r: Round, ctx: dict) -> None:
    n, closure = ctx["closure_n"], ctx["closure"]
    report = r.call(ascentlab.verify_cpp_closure, n, landscape=closure, counts_units=True)
    if r.check(f"closure N={n} returned a report", report is not None):
        detail = "; ".join(c.detail for c in report.checks)
        admissible = _parse_count(r"(\d+) admissible states", detail)
        r.check(f"closure N={n} passes", report.passed, detail)
        r.check(f"closure N={n} finds {ctx['admissible']} admissible states",
                admissible == ctx["admissible"], f"{admissible}")
        r.count("admissible", admissible or 0)
        r.count("closure_states", closure.state_count())
        r.count("states", closure.state_count())

    pairs = ctx["pairs"]
    census = r.call(ascentlab.local_optima_census, pairs, pairs.state_count(), counts_units=True)
    if r.check(f"census n={ctx['census_n']} returned", census is not None):
        maxima = 2 ** (ctx["census_n"] // 2)
        r.check(f"census finds {maxima} local maxima", census.local_maxima == maxima,
                f"{census.local_maxima}")
        r.check(f"census global/worst ratio is exactly {PAIRS_ALPHA}",
                census.global_max == PAIRS_ALPHA * census.worst_local_max,
                f"{census.global_max}/{census.worst_local_max}")
        r.count("census_states", census.states)
        r.count("states", census.states)

    tw = r.call(ascentlab.treewidth_exact, ctx["treewidth_graph"])
    r.check(f"exact treewidth N={TREEWIDTH_N} is 7", tw == 7, f"{tw}")
    widths = r.call(_ordering_widths, ctx["width_graphs"])
    r.check("every ordering width is 7",
            widths is not None and all(w == 7 for w in widths.values()), f"{widths}")


@dataclass(frozen=True)
class Workload:
    name: str
    unit: str            # the count that `Round.unit_s` is spent on: steps or states
    setup: Callable[..., dict]
    round: Callable[[Round, dict], None]


WORKLOADS = {w.name: w for w in (
    Workload("winding-path", "steps", winding_setup, winding_round),
    Workload("counting-path", "steps", counting_setup, counting_round),
    Workload("boolean-lift", "steps", boolean_setup, boolean_round),
    Workload("exhaustive", "states", exhaustive_setup, exhaustive_round),
)}
