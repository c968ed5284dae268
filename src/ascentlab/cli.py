"""Command-line front end: generate instances, run ascents, verify claims,
export analysis tables.

Each command declares only the options it reads, given after its
subcommand (``verify cpp --n 4``); any other is refused.  Exit codes: 0
success, 2 invalid input (every refusal is one ``error:`` line), 3
steepest-move tie, 4 step budget exhausted, 5 verification failure.  All
outputs are deterministic for fixed arguments (and seed), byte for byte.
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
from .vcsp import INSTANCE_FORMAT, instance_from_obj, instance_to_obj
from .winding import (
    SCHEDULE_PRESETS,
    WINDING_FORMAT,
    StepSchedule,
    WindingLandscape,
    winding_from_obj,
    winding_to_obj,
)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_TIE = 3
EXIT_BUDGET = 4
EXIT_VERIFY_FAILED = 5


class CliError(ValueError):
    """Invalid input, refused here; the library refuses with a ValueError too."""


class CliParser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)

    def parse_known_args(self, args=None, namespace=None):
        # before a subcommand, an option's value would read as the subcommand
        option = args[0] if self._subparsers and args else ""
        if option[:1] == "-" and option not in ("-h", "--help", "--"):
            self.error(f"option {option.split('=')[0]} goes after the subcommand of {self.prog}")
        return super().parse_known_args(args, namespace)


def _schedule_from_args(args, n: int) -> StepSchedule:
    if args.s_plus is None and args.s_minus is None:
        return SCHEDULE_PRESETS[args.schedule or "semismooth"](n)
    if args.s_plus is None or args.s_minus is None:
        raise CliError("--s-plus and --s-minus must be given together")
    if args.schedule is not None:
        raise CliError("--schedule and --s-plus/--s-minus exclude each other")
    steps = (tuple(int(x) for x in text.replace(",", " ").split())
             for text in (args.s_plus, args.s_minus))
    return StepSchedule(*steps)


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

_INSTANCES = {
    "pairs": lambda a: make_pairs_instance(a.n, a.alpha),
    "counting-symbol": lambda a: make_counting_symbol_instance(a.n),
    "counting-boolean": lambda a: make_counting_boolean_instance(a.n),
}


def cmd_gen(args) -> int:
    _check_output(args.output)
    if args.kind == "winding":
        schedule = _schedule_from_args(args, args.n)
        obj = winding_to_obj(WindingLandscape(args.n, schedule))
        summary = (f"winding landscape: n={args.n} variables={2 * args.n} "
                   f"s_plus={list(schedule.s_plus)} s_minus={list(schedule.s_minus)}")
    else:
        instance = _INSTANCES[args.kind](args)
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


def cmd_run(args) -> int:
    if args.engine == "steepest" and args.seed is not None:
        raise CliError("steepest takes no --seed")
    if args.engine == "first-improvement" and (args.seed is None or args.policy is not None):
        raise CliError("first-improvement needs --seed and takes no --policy")
    _check_output(args.trace_out)
    landscape = _load_landscape(args.instance)
    start = (landscape.zero_state() if args.start is None
             else landscape.parse_state(args.start))
    try:
        if args.engine == "steepest":
            trace = steepest_ascent(landscape, start, args.policy or FAIL_ON_TIE,
                                    max_steps=args.max_steps)
        else:
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

def _verify_all(args) -> Report:
    rules.check_lockstep_size(args.n)
    report = Report("all verification suites")
    for part in (rules.verify_rule_arithmetic(), *map(rules.verify_cpp_closure, (3, 4)),
                 *map(rules.verify_steepest_equals_rules, range(2, args.n + 1)),
                 analysis.verify_gradient_formulas(), analysis.verify_pathwidth()):
        report.extend(part)
    return report


# suite: (its report from the parsed arguments, default --n or None for none,
# least --n: below it a suite would check less than asked and still pass)
_SUITES = {
    "arithmetic": (lambda a: rules.verify_rule_arithmetic(), None, None),
    "cpp": (lambda a: rules.verify_cpp_closure(a.n), 4, None),
    "lockstep": (lambda a: rules.verify_steepest_equals_rules(a.n, budget=a.budget), 8, None),
    "gradient": (lambda a: analysis.verify_gradient_formulas(a.n), 6, 2),
    "pathwidth": (lambda a: analysis.verify_pathwidth(a.n), 10, 3),
    "all": (_verify_all, 8, 2),
}


def cmd_verify(args) -> int:
    check, _, least = _SUITES[args.suite]
    if least is not None and args.n < least:
        raise CliError(f"verify {args.suite} needs --n >= {least}")
    report = check(args)
    if args.format == "json":
        print(json.dumps(report.to_obj(), indent=1, sort_keys=True))
    else:
        print("\n".join(report.lines()))
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


# -- analyze ----------------------------------------------------------------

# scaling holds each whole trace of 2^(n+1) - 2 steps: 97 MB peak RSS and 5 s
# at n = 16 on a 2-core host, both doubling with each n
SCALING_MAX_N = 16
# degree-bounds takes four gradients of 2n entries per peak, n peaks: on the
# same host n = 1,000 took 7.8 s and 36 MB peak RSS and the cap, n = 2,400,
# 50 s and 113 MB (resource.getrusage of its own process)
DEGREE_BOUNDS_MAX_N = 2400


def _scaling(args) -> list[str]:
    if args.max_n < 1:
        raise CliError("scaling needs --max-n >= 1")
    if args.max_n > SCALING_MAX_N:
        raise CliError(f"scaling to --max-n {args.max_n} is over the cap {SCALING_MAX_N}")
    rows = ["n\tvariables\tsteps\tclosed_form"]
    for n in range(1, args.max_n + 1):
        landscape = WindingLandscape(n, SCHEDULE_PRESETS[args.schedule or "semismooth"](n))
        trace = steepest_ascent(landscape, landscape.origin(), max_steps=2 ** (n + 1))
        rows.append(f"{n}\t{2 * n}\t{trace.num_steps}\t{2 ** (n + 1) - 2}")
    return rows


def _gradient(args) -> list[str]:
    landscape = WindingLandscape(args.n, _schedule_from_args(args, args.n))
    if args.at == "origin":
        state = landscape.origin()
    elif args.at.startswith("peak:"):
        state = landscape.peak_state(int(args.at.split(":", 1)[1]))
    else:
        state = landscape.parse_state(args.at)
    grad = analysis.gradient(landscape, state)
    return ["variable\tentry", *(f"{i + 1}\t{g}" for i, g in enumerate(grad))]


def _degree_bounds(args) -> list[str]:
    if args.n > DEGREE_BOUNDS_MAX_N:
        raise CliError(f"degree bounds to --n {args.n} are over the cap {DEGREE_BOUNDS_MAX_N}")
    landscape = WindingLandscape(args.n, _schedule_from_args(args, args.n))
    report = analysis.degree_bound_report(landscape, analysis.winding_peak_pairs(landscape))
    rows = ["k\tdiffering_variables\tflow_bound\tchanged_odd_entries"]
    for k, row in enumerate(report.rows, start=1):
        odd = analysis.differing_odd_entries_below(landscape, k)
        rows.append(f"{k}\t{','.join(str(v + 1) for v in row.differing)}\t{row.bound}\t{odd}")
    floor = (landscape.n - 1) * landscape.n // 2
    rows.append(f"# aggregate\t{report.total}\t(closed-form floor {floor})")
    return rows


def _census(args) -> list[str]:
    if args.alpha is not None and args.kind != "pairs":
        raise CliError("census takes --alpha with --kind pairs only")
    if args.instance is not None:
        if args.n is not None:
            raise CliError("census takes no --n with --instance")
        landscape = _load_landscape(args.instance)
    elif args.n is None:
        raise CliError("census needs --n")
    elif args.kind == "pairs":
        alpha = 2 if args.alpha is None else args.alpha
        landscape = VcspLandscape(make_pairs_instance(args.n, alpha))
    else:
        landscape = SymbolCountingLandscape(args.n)
    result = analysis.local_optima_census(landscape, args.max_states)
    rows = [f"states={result.states} local_maxima={result.local_maxima} "
            f"global_max={result.global_max} worst_local_max={result.worst_local_max}"]
    if result.worst_local_max:
        num, den = result.global_max, result.worst_local_max
        rows.append(f"ratio={num // den}" if num % den == 0 else f"ratio={num}/{den}")
    return rows


_TABLES = {"scaling": _scaling, "gradient": _gradient,
           "degree-bounds": _degree_bounds, "census": _census}


def cmd_analyze(args) -> int:
    _check_output(args.out)
    _write_text(args.out, "\n".join(_TABLES[args.table](args)) + "\n")
    return EXIT_OK


# -- parser -----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = CliParser(
        prog="ascentlab",
        description="Hard landscapes for steepest ascent: generation, search, "
                    "analysis, and mechanical verification.")
    sub = parser.add_subparsers(dest="command", required=True)
    preset = CliParser(add_help=False)
    preset.add_argument("--schedule", choices=sorted(SCHEDULE_PRESETS),
                        help="step schedule preset (default semismooth)")
    schedule = CliParser(add_help=False, parents=[preset])
    schedule.add_argument("--s-plus", help="explicit fittest steps, comma separated")
    schedule.add_argument("--s-minus", help="explicit barrier steps, comma separated")

    gen = sub.add_parser("gen", help="generate an instance or landscape file")
    kinds = gen.add_subparsers(dest="kind", required=True)
    for kind in (*_INSTANCES, "winding"):
        p = kinds.add_parser(kind, parents=[schedule] if kind == "winding" else [])
        p.add_argument("--n", type=int, required=True,
                       help="variable count (symbol count, or half the bits for winding)")
        if kind == "pairs":
            p.add_argument("--alpha", type=int, required=True, help="value of the (1,1) cell")
        p.add_argument("-o", "--output", help="output file (default stdout)")
        p.set_defaults(func=cmd_gen)

    run = sub.add_parser("run", help="run an ascent on an instance file")
    run.add_argument("instance", help="instance or winding document")
    run.add_argument("--max-steps", type=int, required=True,
                     help="step budget (mandatory: path lengths are exponential by design)")
    run.add_argument("--start", help="start state (symbols or bits; default all zeros)")
    run.add_argument("--engine", choices=["steepest", "first-improvement"], default="steepest")
    run.add_argument("--policy", choices=list(TIE_POLICIES),
                     help=f"steepest: tie policy (default {FAIL_ON_TIE})")
    run.add_argument("--seed", type=int, help="first-improvement: seed")
    run.add_argument("--trace-out", help="write the trace table here")
    run.set_defaults(func=cmd_run)

    verify = sub.add_parser("verify", help="run a verification suite")
    suites = verify.add_subparsers(dest="suite", required=True)
    for suite, (_, size, _) in _SUITES.items():
        p = suites.add_parser(suite)
        if size is not None:
            p.add_argument("--n", type=int, default=size,
                           help=f"size parameter of the suite (default {size})")
        if suite == "lockstep":
            p.add_argument("--budget", type=int, help="step budget")
        p.add_argument("--format", choices=["text", "json"], default="text")
        p.set_defaults(func=cmd_verify)

    analyze = sub.add_parser("analyze", help="emit analysis tables")
    tables = analyze.add_subparsers(dest="table", required=True)
    tables.add_parser("scaling", parents=[preset]).add_argument(
        "--max-n", type=int, default=14, help="largest winding level")
    gradient = tables.add_parser("gradient", parents=[schedule])
    gradient.add_argument("--at", default="origin",
                          help="gradient location: origin, peak:K, or a state")
    for p in (gradient, tables.add_parser("degree-bounds", parents=[schedule])):
        p.add_argument("--n", type=int, required=True, help="winding level count")
    census = tables.add_parser("census")
    source = census.add_mutually_exclusive_group(required=True)
    source.add_argument("--kind", choices=["pairs", "counting-symbol"])
    source.add_argument("--instance", help="census an instance file")
    census.add_argument("--n", type=int, help="--kind: size parameter")
    census.add_argument("--alpha", type=int,
                        help="--kind pairs: value of the (1,1) cell (default 2)")
    census.add_argument("--max-states", type=int, default=1_000_000)
    for p in tables.choices.values():
        p.add_argument("--out", help="output table file (default stdout)")
        p.set_defaults(func=cmd_analyze)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(sys.argv[1:] if argv is None else argv)
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    raise SystemExit(main())
