"""Command-line front end: generate instances, run ascents, verify claims,
export analysis tables.

Exit codes: 0 success, 2 invalid input, 3 steepest-move tie, 4 step budget
exhausted, 5 verification failure.  All outputs are deterministic for fixed
arguments (and seed), byte for byte.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import analysis, rules
from .counting import (
    SymbolCountingLandscape,
    make_counting_boolean_instance,
    make_counting_symbol_instance,
)
from .landscapes import VcspLandscape, make_pairs_instance
from .report import Report
from .search import (
    FAIL_ON_TIE,
    STEP_BUDGET,
    TIE_POLICIES,
    TieError,
    first_improvement_ascent,
    steepest_ascent,
    trace_table,
)
from .symbols import SYMBOLS, parse_symbol_state
from .vcsp import VcspError, dump_instance, instance_from_obj, instance_to_obj
from .winding import (
    SCHEDULE_PRESETS,
    StepSchedule,
    WindingError,
    WindingLandscape,
    winding_from_obj,
    winding_to_obj,
)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_TIE = 3
EXIT_BUDGET = 4
EXIT_VERIFY_FAILED = 5


class CliError(Exception):
    pass


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.replace(",", " ").split())


def _schedule_from_args(args, n: int) -> StepSchedule:
    if args.s_plus or args.s_minus:
        if not (args.s_plus and args.s_minus):
            raise CliError("--s-plus and --s-minus must be given together")
        return StepSchedule(_parse_int_list(args.s_plus), _parse_int_list(args.s_minus))
    return SCHEDULE_PRESETS[args.schedule](n)


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


# -- gen --------------------------------------------------------------------

def cmd_gen(args) -> int:
    if args.kind == "winding":
        schedule = _schedule_from_args(args, args.n)
        landscape = WindingLandscape(args.n, schedule)
        obj = winding_to_obj(landscape)
        _write_text(args.output, json.dumps(obj, indent=1, sort_keys=True) + "\n")
        print(f"winding landscape: n={args.n} variables={2 * args.n} "
              f"s_plus={list(schedule.s_plus)} s_minus={list(schedule.s_minus)}")
        return EXIT_OK
    if args.kind == "pairs":
        if args.alpha is None:
            raise CliError("pairs needs --alpha")
        instance = make_pairs_instance(args.n, args.alpha)
    elif args.kind == "counting-symbol":
        instance = make_counting_symbol_instance(args.n)
    elif args.kind == "counting-boolean":
        instance = make_counting_boolean_instance(args.n)
    else:  # pragma: no cover - argparse restricts choices
        raise CliError(f"unknown kind {args.kind}")
    if args.output and args.output != "-":
        dump_instance(instance, args.output)
    else:
        json.dump(instance_to_obj(instance), sys.stdout, indent=1, sort_keys=True)
        sys.stdout.write("\n")
    arities = sorted({c.arity for c in instance.constraints})
    weights = sorted({c.weight for c in instance.constraints})
    print(f"{args.kind}: variables={instance.num_variables} "
          f"constraints={len(instance.constraints)} arities={arities} "
          f"weights={weights[:4]}{'...' if len(weights) > 4 else ''} "
          f"metadata={json.dumps(instance.metadata, sort_keys=True)}")
    return EXIT_OK


# -- run --------------------------------------------------------------------

def _load_landscape(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    fmt = obj.get("format")
    if fmt == "winding-landscape/v1":
        return winding_from_obj(obj)
    if fmt == "vcsp-instance/v1":
        instance = instance_from_obj(obj)
        if instance.metadata.get("kind") == "counting-symbol":
            return _symbol_landscape_from_instance(instance)
        return VcspLandscape(instance)
    raise CliError(f"unrecognized document format {fmt!r}")


def _symbol_landscape_from_instance(instance) -> SymbolCountingLandscape:
    """Rebuild the symbol landscape from the file's tables, so edited (for
    example deliberately corrupted) instances run with their own costs.

    The landscape has one pair table for every adjacent pair and the
    generator's weights; it is read from the lowest pair's table and the
    trigger's X_2 = 0 row.  A file whose other tables or weights disagree
    with those is refused rather than run with costs it does not hold."""
    n = instance.num_variables
    constraints = instance.constraints
    if (instance.domains != (len(SYMBOLS),) * n or len(constraints) < 2
            or constraints[0].scope != (1, 0) or constraints[-1].scope != (1, 0)):
        raise CliError("not a counting-symbol instance: its first (pair) and last "
                       "(trigger) tables must sit on (X_2, X_1) over the symbols")
    pair = constraints[0]
    trigger = constraints[-1]
    f_table = {}
    for i, a in enumerate(SYMBOLS):
        for j, b in enumerate(SYMBOLS):
            v = pair.values[i * 10 + j]
            if v:
                f_table[(a, b)] = v
    h_table = {}
    zero_row = SYMBOLS.index("0")
    for j, b in enumerate(SYMBOLS):
        v = trigger.values[zero_row * 10 + j]
        if v:
            h_table[b] = v
    landscape = SymbolCountingLandscape(n, f_table=f_table, h_table=h_table)
    if landscape.instance() != instance:
        raise CliError(
            "counting-symbol instance differs from the symbol landscape rebuilt "
            "from its lowest pair table and trigger row: every pair table must "
            "be the same, and the weights and scopes those of the generator")
    return landscape


def _parse_start(landscape, text: str | None):
    if isinstance(landscape, SymbolCountingLandscape):
        if text is None:
            return landscape.zero_state()
        state = parse_symbol_state(text)
        if len(state) != landscape.n:
            raise CliError(f"start state needs {landscape.n} symbols")
        return state
    width = landscape.num_variables
    if text is None:
        return (0,) * width
    cleaned = text.replace(",", " ").split()
    bits = tuple(int(b) for b in ("".join(cleaned) if len(cleaned) > 1 else cleaned[0]))
    if len(bits) != width:
        raise CliError(f"start state needs {width} values")
    return bits


def cmd_run(args) -> int:
    landscape = _load_landscape(args.instance)
    start = _parse_start(landscape, args.start)
    try:
        if args.engine == "steepest":
            trace = steepest_ascent(landscape, start, args.policy,
                                    max_steps=args.max_steps)
        else:
            if args.seed is None:
                raise CliError("first-improvement needs --seed")
            trace = first_improvement_ascent(landscape, start, args.seed,
                                             max_steps=args.max_steps)
    except TieError as exc:
        print(f"tie: {exc}", file=sys.stderr)
        return EXIT_TIE
    if args.trace_out:
        _write_text(args.trace_out, trace_table(landscape, trace))
    print(f"steps={trace.num_steps} final_fitness={trace.final_fitness} "
          f"terminal={trace.terminal} "
          f"final_state={landscape.format_state(trace.final_state)}")
    return EXIT_BUDGET if trace.terminal == STEP_BUDGET else EXIT_OK


# -- verify -----------------------------------------------------------------

def _emit_report(report: Report, fmt: str) -> int:
    if fmt == "json":
        print(json.dumps(report.to_obj(), indent=1, sort_keys=True))
    else:
        print("\n".join(report.lines()))
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


def cmd_verify(args) -> int:
    suite = args.suite
    if suite == "arithmetic":
        report = rules.verify_rule_arithmetic()
    elif suite == "cpp":
        n = args.n or 4
        report = rules.verify_cpp_closure(n)
    elif suite == "lockstep":
        n = args.n or 8
        report = rules.verify_steepest_equals_rules(n, budget=args.budget)
    elif suite == "gradient":
        report = analysis.verify_gradient_formulas(2, args.n or 6)
    elif suite == "pathwidth":
        report = analysis.verify_pathwidth(3, max(args.n or 10, 3))
    elif suite == "all":
        report = Report("all verification suites")
        report.extend(rules.verify_rule_arithmetic())
        for n in (3, 4):
            report.extend(rules.verify_cpp_closure(n))
        for n in range(2, (args.n or 8) + 1):
            report.extend(rules.verify_steepest_equals_rules(n))
        report.extend(analysis.verify_gradient_formulas())
        report.extend(analysis.verify_pathwidth())
    else:  # pragma: no cover
        raise CliError(f"unknown suite {suite}")
    return _emit_report(report, args.format)


# -- analyze ----------------------------------------------------------------

def cmd_analyze(args) -> int:
    if args.what == "scaling":
        schedule_name = args.schedule
        rows = ["n\tvariables\tsteps\tclosed_form"]
        for n in range(1, args.max_n + 1):
            landscape = WindingLandscape(n, SCHEDULE_PRESETS[schedule_name](n))
            trace = steepest_ascent(landscape, landscape.origin(),
                                    max_steps=2 ** (n + 1))
            rows.append(f"{n}\t{2 * n}\t{trace.num_steps}\t{2 ** (n + 1) - 2}")
        _write_text(args.out, "\n".join(rows) + "\n")
        return EXIT_OK

    if args.what == "gradient":
        landscape = WindingLandscape(args.n, _schedule_from_args(args, args.n))
        if args.at == "origin":
            state = landscape.origin()
        elif args.at.startswith("peak:"):
            state = landscape.peak_state(int(args.at.split(":", 1)[1]))
        else:
            state = tuple(int(b) for b in args.at)
        grad = analysis.gradient(landscape, state)
        rows = ["variable\tentry"]
        rows.extend(f"{i + 1}\t{g}" for i, g in enumerate(grad))
        _write_text(args.out, "\n".join(rows) + "\n")
        return EXIT_OK

    if args.what == "degree-bounds":
        landscape = WindingLandscape(args.n, _schedule_from_args(args, args.n))
        report = analysis.degree_bound_report(
            landscape, analysis.winding_peak_pairs(landscape))
        rows = ["k\tdiffering_variables\tflow_bound\tchanged_odd_entries"]
        for k, row in enumerate(report.rows, start=1):
            odd = analysis.differing_odd_entries_below(landscape, k)
            rows.append(
                f"{k}\t{','.join(str(v + 1) for v in row.differing)}\t{row.bound}\t{odd}")
        floor = (landscape.n - 1) * landscape.n // 2
        rows.append(f"# aggregate\t{report.total}\t(closed-form floor {floor})")
        _write_text(args.out, "\n".join(rows) + "\n")
        return EXIT_OK

    if args.what == "census":
        if args.instance:
            landscape = _load_landscape(args.instance)
        elif args.kind == "pairs":
            landscape = VcspLandscape(make_pairs_instance(args.n, args.alpha or 2))
        elif args.kind == "counting-symbol":
            landscape = SymbolCountingLandscape(args.n)
        else:
            raise CliError("census needs --instance or --kind")
        result = analysis.local_optima_census(landscape, args.max_states)
        print(f"states={result.states} local_maxima={result.local_maxima} "
              f"global_max={result.global_max} worst_local_max={result.worst_local_max}")
        if result.worst_local_max:
            num, den = result.ratio_exact
            if num % den == 0:
                print(f"ratio={num // den}")
            else:
                print(f"ratio={num}/{den}")
        return EXIT_OK

    raise CliError(f"unknown analysis {args.what}")  # pragma: no cover


# -- parser -----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ascentlab",
        description="Hard landscapes for steepest ascent: generation, search, "
                    "analysis, and mechanical verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an instance or landscape file")
    gen.add_argument("kind", choices=["pairs", "counting-symbol",
                                      "counting-boolean", "winding"])
    gen.add_argument("--n", type=int, required=True,
                     help="variable count (symbol count, or half the bits for winding)")
    gen.add_argument("--alpha", type=int, help="pairs: value of the (1,1) cell")
    gen.add_argument("--schedule", choices=sorted(SCHEDULE_PRESETS),
                     default="semismooth")
    gen.add_argument("--s-plus", help="explicit fittest steps, comma separated")
    gen.add_argument("--s-minus", help="explicit barrier steps, comma separated")
    gen.add_argument("-o", "--output", help="output file (default stdout)")
    gen.set_defaults(func=cmd_gen)

    run = sub.add_parser("run", help="run an ascent on an instance file")
    run.add_argument("instance", help="instance or winding document")
    run.add_argument("--max-steps", type=int, required=True,
                     help="step budget (mandatory: path lengths are exponential by design)")
    run.add_argument("--start", help="start state (symbols or bits; default all zeros)")
    run.add_argument("--policy", choices=list(TIE_POLICIES), default=FAIL_ON_TIE)
    run.add_argument("--engine", choices=["steepest", "first-improvement"],
                     default="steepest")
    run.add_argument("--seed", type=int, help="seed for first-improvement")
    run.add_argument("--trace-out", help="write the trace table here")
    run.set_defaults(func=cmd_run)

    verify = sub.add_parser("verify", help="run a verification suite")
    verify.add_argument("suite", choices=["cpp", "arithmetic", "lockstep",
                                          "gradient", "pathwidth", "all"])
    verify.add_argument("--n", type=int, help="size parameter of the suite")
    verify.add_argument("--budget", type=int, help="lockstep step budget")
    verify.add_argument("--format", choices=["text", "json"], default="text")
    verify.set_defaults(func=cmd_verify)

    analyze = sub.add_parser("analyze", help="emit analysis tables")
    analyze.add_argument("what", choices=["scaling", "gradient",
                                          "degree-bounds", "census"])
    analyze.add_argument("--max-n", type=int, default=14,
                         help="scaling: largest winding level")
    analyze.add_argument("--n", type=int, help="size parameter")
    analyze.add_argument("--alpha", type=int)
    analyze.add_argument("--kind", choices=["pairs", "counting-symbol"])
    analyze.add_argument("--instance", help="census an instance file")
    analyze.add_argument("--max-states", type=int, default=1_000_000)
    analyze.add_argument("--schedule", choices=sorted(SCHEDULE_PRESETS),
                         default="semismooth")
    analyze.add_argument("--s-plus")
    analyze.add_argument("--s-minus")
    analyze.add_argument("--at", default="origin",
                         help="gradient location: origin, peak:K, or a bit string")
    analyze.add_argument("--out", help="output table file (default stdout)")
    analyze.set_defaults(func=cmd_analyze)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, VcspError, WindingError, analysis.AnalysisError,
            rules.RuleError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    raise SystemExit(main())
