"""ascentlab benchmark: one workload per run, a closed loop of rounds.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the library is imported from ``src/`` next
to this directory.  The run sets the workload up several times (timing each
set-up), then repeats rounds of the workload's timed calls until ``--seconds``
have passed, checking every output.  With ``--trace 0`` it reports the
end-to-end metrics; with ``--trace 1`` it spends half the time untraced and
half with every layer wrapped, and reports the per-layer metrics and the
tracing overhead.  End-to-end times are in reference seconds (see
``reference_seconds``).  The last line of standard output is the result object;
the line before it holds the header (interpreter, machine, seed, timer), the
exact counts and the check summary.

Exit status 0 means the run completed; a failed check still exits 0 and
shows as ``correct: false``.  Exit status 2 means the library could not be
imported, and nothing is printed on standard output.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

from tracing import ASCENT_SPANS, BENCH, DELTA_SPANS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 9          # set-up samples before the first round
SETUP_SAMPLES_PER_ROUND = 3
SETUP_SAMPLE_S = 0.005
# The reference loop's time on the benchmark's host in its fast phases
# (2.8 to 3.4 ms measured); one reference second is 1/REFERENCE_LOOP_S loops.
REFERENCE_LOOP_S = 0.003

# Per-layer metric -> (span name, field).  The span of a method is
# layer.Class.method; the metric drops the class, as the module's public
# surface names it.
SPAN_METRICS = {
    "search.best_moves.calls": ("search.best_moves", "calls"),
    "search.best_moves.self_s": ("search.best_moves", "self_s"),
    "search.steepest_ascent.self_s": ("search.steepest_ascent", "self_s"),
    "search.first_improvement_ascent.self_s": ("search.first_improvement_ascent", "self_s"),
    "winding.delta.calls": ("winding.WindingLandscape.delta", "calls"),
    "winding.delta.self_s": ("winding.WindingLandscape.delta", "self_s"),
    "winding.evaluate.calls": ("winding.WindingLandscape.evaluate", "calls"),
    "winding.evaluate.self_s": ("winding.WindingLandscape.evaluate", "self_s"),
    "counting.delta.calls": ("counting.SymbolCountingLandscape.delta", "calls"),
    "counting.delta.self_s": ("counting.SymbolCountingLandscape.delta", "self_s"),
    "counting.evaluate.calls": ("counting.SymbolCountingLandscape.evaluate", "calls"),
    "counting.make_counting_boolean_instance.self_s":
        ("counting.make_counting_boolean_instance", "self_s"),
    "vcsp.delta_evaluate.calls": ("vcsp.VcspInstance.delta_evaluate", "calls"),
    "vcsp.delta_evaluate.self_s": ("vcsp.VcspInstance.delta_evaluate", "self_s"),
    "vcsp.evaluate.calls": ("vcsp.VcspInstance.evaluate", "calls"),
    "vcsp.evaluate.self_s": ("vcsp.VcspInstance.evaluate", "self_s"),
    "vcsp.constraint_graph.self_s": ("vcsp.VcspInstance.constraint_graph", "self_s"),
    "landscapes.moves.yielded": ("landscapes.VcspLandscape.moves", "yielded"),
    "landscapes.delta.self_s": ("landscapes.VcspLandscape.delta", "self_s"),
    "rules.applicable_rules.calls": ("rules.applicable_rules", "calls"),
    "rules.applicable_rules.self_s": ("rules.applicable_rules", "self_s"),
    "rules.rule_successor.calls": ("rules.rule_successor", "calls"),
    "rules.rule_successor.self_s": ("rules.rule_successor", "self_s"),
    "rules.classify.calls": ("rules.classify", "calls"),
    "rules.classify.self_s": ("rules.classify", "self_s"),
    "analysis.local_optima_census.self_s": ("analysis.local_optima_census", "self_s"),
    "analysis.treewidth_exact.self_s": ("analysis.treewidth_exact", "self_s"),
    "analysis.pathwidth_upper_bound.self_s": ("analysis.pathwidth_upper_bound", "self_s"),
    "symbols.decode_bits.calls": ("symbols.decode_bits", "calls"),
    "symbols.decode_bits.self_s": ("symbols.decode_bits", "self_s"),
    "trace.bench_self_s": (BENCH, "self_s"),
}


def import_library():
    """Import ascentlab from this checkout's src/."""
    src = ROOT / "src"
    if not (src / "ascentlab" / "__init__.py").is_file():
        raise ImportError(f"no ascentlab package under {src}")
    sys.path.insert(0, str(src))
    import ascentlab
    if Path(ascentlab.__file__).resolve().parent != src / "ascentlab":
        raise ImportError(f"imported ascentlab from {ascentlab.__file__}, not {src}")


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def code_hash() -> str:
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src" / "ascentlab").rglob("*.py"), *HERE.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_fingerprint(workload: str, seed: int, counts: dict) -> tuple[bool, str]:
    """Compare exact counts with earlier runs of the same code and seed in
    this checkout (kept in .perfbench/); a count that differs fails."""
    store = ROOT / ".perfbench" / "fingerprints.json"
    key = f"{code_hash()}:{workload}:{seed}"
    try:
        known = json.loads(store.read_text())
    except (OSError, ValueError):
        known = {}
    earlier = known.get(key, {})
    differ = {k: (earlier[k], v) for k, v in counts.items() if k in earlier and earlier[k] != v}
    known[key] = {**earlier, **counts}
    store.parent.mkdir(exist_ok=True)
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, sort_keys=True))
    os.replace(tmp, store)
    if differ:
        return False, f"counts differ from an earlier run: {differ}"
    return True, f"{len(earlier)} counts compared with earlier runs"


def timed_setups(workload, seed: int, samples: int, times: list):
    """Append ``samples`` set-up samples (seconds per set-up, reference loop
    seconds around the sample).  A sample repeats the set-up until
    SETUP_SAMPLE_S have passed, so that a set-up of a few microseconds is not
    lost in timer noise."""
    from workloads import reference_s

    for _ in range(samples):
        before = reference_s()
        count = 0
        start = time.perf_counter()
        while True:
            ctx = workload.setup(seed)
            count += 1
            elapsed = time.perf_counter() - start
            if elapsed >= SETUP_SAMPLE_S:
                break
        times.append((elapsed / count, (before + reference_s()) / 2))
    return ctx


def run_rounds(workload, seed: int, seconds: float, traced: bool,
               setup_times: list) -> list:
    """Rounds until ``seconds`` have passed, each on a fresh set-up; the
    set-ups are spread over the run so that they meet the same phases of
    the host's speed as the rounds."""
    from workloads import Round

    rounds = []
    deadline = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < deadline:
        ctx = timed_setups(workload, seed, SETUP_SAMPLES_PER_ROUND, setup_times)
        gc.collect()
        if traced:
            tracer = Tracer()
            r = Round(tracer=tracer, measure_traces=not rounds)
            with tracer.installed():
                workload.round(r, ctx)
        else:
            r = Round()
            workload.round(r, ctx)
        rounds.append(r)
    return rounds


def reference_seconds(samples) -> float:
    """Median of (seconds, reference loop seconds) samples, in reference
    seconds: each time is divided by the reference loop's time around it and
    multiplied by REFERENCE_LOOP_S.

    The CPU of the shared host this benchmark was built on changes speed by
    up to 1.9x, in phases from under a second to minutes long, so the same
    run read 2.2 s or 3.8 s a few minutes apart.  The reference loop slows
    down with the library, and the ratio stays steady."""
    return statistics.median(t / ref for t, ref in samples) * REFERENCE_LOOP_S


def round_time(rounds) -> tuple[float, float]:
    """Reference seconds of a round, and of its calls whose work the
    workload's unit counts: each timed call's median over the rounds.

    Only rounds without a failed check are paired call by call: a failed
    call adds no duration and may end an ascent early, so a failed round's
    calls do not line up with a clean round's.  If every round failed, the
    first round alone is timed."""
    clean = [r for r in rounds if not r.failed] or rounds[:1]
    calls = list(zip(*(r.durations for r in clean)))
    wall = sum(reference_seconds((t, ref) for t, ref, _ in c) for c in calls)
    unit = sum(reference_seconds((t, ref) for t, ref, _ in c) for c in calls if c[0][2])
    return wall, unit


def layer_metrics(rounds, setup_tracer, untraced_wall: float) -> tuple[dict, dict]:
    """Per-layer values for one set-up plus one round (the mean over the
    traced rounds), and the self-time accounting of the traced rounds."""
    n = len(rounds)
    totals = [r.tracer.totals() for r in rounds]
    setup_totals = setup_tracer.totals()

    def value(span, fld):
        per_round = sum(t.get(span, {}).get(fld, 0) for t in totals) / n
        v = setup_totals.get(span, {}).get(fld, 0) + per_round
        return round(v) if fld != "self_s" else v

    metrics = {name: value(span, fld) for name, (span, fld) in SPAN_METRICS.items()}
    first = rounds[0]
    counts = first.counts
    iterations = counts.get("steps", 0) + counts.get("engine_calls", 0)
    under_ascent = first.tracer.calls_under(DELTA_SPANS, ASCENT_SPANS)
    metrics["search.delta_calls_per_step"] = under_ascent / iterations if iterations else 0
    metrics["search.trace_bytes_per_step"] = (
        first.trace_bytes / first.trace_steps if first.trace_steps else 0)
    metrics["rules.admissible_ratio"] = (
        counts.get("admissible", 0) / counts["closure_states"]
        if counts.get("closure_states") else 0)
    census = first.tracer.calls_under(DELTA_SPANS, ["analysis.local_optima_census"])
    metrics["analysis.census_delta_calls_per_state"] = (
        census / counts["census_states"] if counts.get("census_states") else 0)
    traced_wall, _ = round_time(rounds)
    metrics["trace.overhead_s"] = traced_wall - untraced_wall

    # The self times of all spans, the layers' and the benchmark's own
    # (the root span's), must add up to each traced round's wall time.
    gaps = [abs(r.tracer.self_s_total() - r.wall_s) for r in rounds]
    accounting = {
        "traced_wall_s": traced_wall,
        "untraced_wall_s": untraced_wall,
        "max_gap_s": max(gaps),
        "ok": all(g <= 1e-3 * r.wall_s + 1e-6 for g, r in zip(gaps, rounds)),
    }
    return metrics, accounting


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        import_library()
        from workloads import WORKLOADS
    except ImportError as exc:
        print(f"perfbench: cannot import the library: {exc}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]

    header = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "loadavg_start": os.getloadavg(),
        "timer": "time.perf_counter, per call divided by the reference loop around it",
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    setup_times: list[tuple[float, float]] = []
    timed_setups(workload, args.seed, SETUP_SAMPLES, setup_times)
    if args.trace:
        untraced = run_rounds(workload, args.seed, args.seconds / 2, False,
                              setup_times)
        setup_tracer = Tracer()
        with setup_tracer.installed():
            setup_tracer.call(workload.setup, args.seed)
        traced = run_rounds(workload, args.seed, args.seconds / 2, True,
                            setup_times)
        rounds = untraced + traced
    else:
        rounds = run_rounds(workload, args.seed, args.seconds, False,
                            setup_times)

    # Every round repeats the same calls, so every exact count must repeat.
    counts = dict(rounds[0].counts)
    checks = [c for r in rounds for c in r.checks]
    checks.append(("counts repeat in every round", all(r.counts == counts for r in rounds),
                   f"{counts}"))
    if args.trace:
        deltas = {sum(r.tracer.totals().get(s, {}).get("calls", 0) for s in DELTA_SPANS)
                  for r in traced}
        checks.append(("delta calls repeat in every traced round", len(deltas) == 1,
                       f"{sorted(deltas)}"))
        counts["delta_calls"] = min(deltas)
        untraced_wall, _ = round_time(untraced)
        metrics, accounting = layer_metrics(traced, setup_tracer, untraced_wall)
        checks.append(("self times add up to the traced wall time", accounting["ok"],
                       f"{accounting}"))
    checks.append(("counts repeat across runs", *check_fingerprint(
        workload.name, args.seed, counts)))

    failed = sum(1 for _, ok, _ in checks if not ok)
    timed = untraced if args.trace else rounds
    wall_s, unit_s = round_time(timed)
    end_to_end = {
        "wall_s": (wall_s, "s"),
        "setup_s": (reference_seconds(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "work_per_s": (counts.get(workload.unit, 0) / unit_s if unit_s > 0 else 0.0, "1/s"),
    }
    # The same figures under the names each workload gives them, with the
    # share of failed checks.
    named = {**end_to_end, f"{workload.unit}_per_s": end_to_end["work_per_s"],
             "fail_frac": (failed / len(checks), "ratio")}
    del named["work_per_s"]
    if args.trace:
        named["traced_wall_s"] = (accounting["traced_wall_s"], "s")
        named["trace.overhead_s"] = (metrics["trace.overhead_s"], "s")
        named["trace.bench_self_s"] = (metrics["trace.bench_self_s"], "s")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        result = {m["name"]: (metrics[m["name"]], m["unit"]) for m in spec["per_layer"]}
    else:
        result = end_to_end
    detail = {
        "header": header,
        "rounds": len(rounds),
        "measured_wall_s_per_round": [r.wall_s for r in rounds],
        "measured_setup_s": statistics.median(t for t, _ in setup_times),
        "reference_loop_s": statistics.median(ref for r in rounds for _, ref, _ in r.durations),
        "counts": counts,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "tracing": accounting if args.trace else None,
        "failures": [f"{label}: {why}" for label, ok, why in checks if not ok][:20],
    }
    print(json.dumps(detail, default=str))
    print(json.dumps({"correct": failed == 0, "attempted": len(checks), "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
