"""Command-line front end: generate instances, run ascents, verify claims,
export analysis tables.

Exit codes: 0 success, 2 invalid input, 3 steepest-move tie, 4 step budget
exhausted, 5 verification failure.  All outputs are deterministic for fixed
arguments (and seed), byte for byte.
"""

from __future__ import annotations

import argparse
import json
import os
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
from .symbols import parse_symbol_state
from .vcsp import INSTANCE_FORMAT, VcspError, instance_from_obj, instance_to_obj
from .winding import (
    SCHEDULE_PRESETS,
    WINDING_FORMAT,
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


def _check_output(path: str | None) -> None:
    """Refuse an output file in a directory that does not exist, or one that
    is a directory, before the command does its work."""
    if path is not None and path != "-":
        directory = os.path.dirname(path) or "."
        if not os.path.isdir(directory):
            raise CliError(f"cannot write {path}: no directory {directory}")
        if os.path.isdir(path):
            raise CliError(f"cannot write {path}: it is a directory")


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc.strerror or exc}") from exc


# -- gen --------------------------------------------------------------------

def cmd_gen(args) -> int:
    _check_output(args.output)
    if args.kind == "winding":
        schedule = _schedule_from_args(args, args.n)
        obj = winding_to_obj(WindingLandscape(args.n, schedule))
        summary = (f"winding landscape: n={args.n} variables={2 * args.n} "
                   f"s_plus={list(schedule.s_plus)} s_minus={list(schedule.s_minus)}")
    else:
        if args.kind == "pairs":
            if args.alpha is None:
                raise CliError("pairs needs --alpha")
            instance = make_pairs_instance(args.n, args.alpha)
        elif args.kind == "counting-symbol":
            instance = make_counting_symbol_instance(args.n)
        else:  # counting-boolean; argparse restricts the choices
            instance = make_counting_boolean_instance(args.n)
        obj = instance_to_obj(instance)
        arities = sorted({c.arity for c in instance.constraints})
        weights = sorted({c.weight for c in instance.constraints})
        summary = (f"{args.kind}: variables={instance.num_variables} "
                   f"constraints={len(instance.constraints)} arities={arities} "
                   f"weights={weights[:4]}{'...' if len(weights) > 4 else ''} "
                   f"metadata={json.dumps(instance.metadata, sort_keys=True)}")
    _write_text(args.output, json.dumps(obj, indent=1, sort_keys=True) + "\n")
    print(summary)
    return EXIT_OK


# -- run --------------------------------------------------------------------

def _load_landscape(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc.strerror or exc}") from exc
    if type(obj) is not dict:
        raise CliError(f"{path} holds a JSON {type(obj).__name__}, not a document object")
    fmt = obj.get("format")
    if fmt == WINDING_FORMAT:
        return winding_from_obj(obj)
    if fmt == INSTANCE_FORMAT:
        instance = instance_from_obj(obj)
        if instance.metadata.get("kind") == "counting-symbol":
            return SymbolCountingLandscape.of_instance(instance)
        return VcspLandscape(instance)
    raise CliError(f"unrecognized document format {fmt!r}")


def _parse_start(landscape, text: str | None):
    if text is None:
        return landscape.zero_state()
    if isinstance(landscape, SymbolCountingLandscape):
        state = parse_symbol_state(text)
        if len(state) != landscape.n:
            raise CliError(f"start state needs {landscape.n} symbols")
        return state
    width = landscape.num_variables
    tokens = text.replace(",", " ").split()
    if all(len(values) <= 10 for values in landscape.domains()):
        tokens = "".join(tokens)  # every value is one digit: one per character
    values = tuple(int(token) for token in tokens)
    if len(values) != width:
        raise CliError(f"start state needs {width} values")
    return values


def cmd_run(args) -> int:
    _check_output(args.trace_out)
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
    size = {"cpp": 4, "lockstep": 8, "gradient": 6, "pathwidth": 10,
            "all": 8}.get(suite) if args.n is None else args.n
    # below these sizes a suite would check less than asked and still pass
    least = {"gradient": 2, "all": 2, "pathwidth": 3}.get(suite)
    if least is not None and size < least:
        raise CliError(f"verify {suite} needs --n >= {least}")
    if suite == "arithmetic":
        report = rules.verify_rule_arithmetic()
    elif suite == "cpp":
        report = rules.verify_cpp_closure(size)
    elif suite == "lockstep":
        report = rules.verify_steepest_equals_rules(size, budget=args.budget)
    elif suite == "gradient":
        report = analysis.verify_gradient_formulas(size)
    elif suite == "pathwidth":
        report = analysis.verify_pathwidth(3, size)
    elif suite == "all":
        report = Report("all verification suites")
        report.extend(rules.verify_rule_arithmetic())
        for n in (3, 4):
            report.extend(rules.verify_cpp_closure(n))
        for n in range(2, size + 1):
            report.extend(rules.verify_steepest_equals_rules(n))
        report.extend(analysis.verify_gradient_formulas())
        report.extend(analysis.verify_pathwidth())
    else:  # pragma: no cover
        raise CliError(f"unknown suite {suite}")
    return _emit_report(report, args.format)


# -- analyze ----------------------------------------------------------------

def cmd_analyze(args) -> int:
    _check_output(args.out)
    if args.n is None and (args.what in ("gradient", "degree-bounds")
                           or args.what == "census" and args.kind and not args.instance):
        raise CliError(f"{args.what} needs --n")
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
            landscape = VcspLandscape(make_pairs_instance(args.n, args.alpha))
        elif args.kind == "counting-symbol":
            landscape = SymbolCountingLandscape(args.n)
        else:
            raise CliError("census needs --instance or --kind")
        result = analysis.local_optima_census(landscape, args.max_states)
        print(f"states={result.states} local_maxima={result.local_maxima} "
              f"global_max={result.global_max} worst_local_max={result.worst_local_max}")
        if result.worst_local_max:
            num, den = result.global_max, result.worst_local_max
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
    analyze.add_argument("--alpha", type=int, default=2)
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
