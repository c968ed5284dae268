"""The benchmark's own tests: its correctness gates pass on a clean library,
fire on a corrupted cost table, its tracer accounts for the traced time, and
it refuses to run without the library."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import ascentlab
import run
from tracing import DELTA_SPANS, Tracer
from workloads import WORKLOADS, Round

SMALL = {
    "winding-path": {"n": 4},
    "counting-path": {"n": 5, "to_end": 88, "steps": 157},
    "boolean-lift": {"n": 4},
    "exhaustive": {"closure_n": 3, "admissible": 40, "census_n": 6,
                   "width_ns": range(3, 5)},
}


def small_round(name: str, seed: int = 7, tracer=None, **overrides) -> Round:
    workload = WORKLOADS[name]
    ctx = workload.setup(seed, **{**SMALL[name], **overrides})
    r = Round(tracer=tracer)
    if tracer is None:
        workload.round(r, ctx)
    else:
        with tracer.installed():
            workload.round(r, ctx)
    return r


def fail_frac(r: Round) -> float:
    return r.failed / len(r.checks)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_clean_small_run_has_no_failed_check(name):
    r = small_round(name)
    assert r.checks and r.counts[WORKLOADS[name].unit] > 0 and r.unit_s > 0
    assert fail_frac(r) == 0, [c for c in r.checks if not c[1]]


def test_corrupted_cost_table_fails_counting_checks():
    f_table = dict(ascentlab.counting.F_NONZERO)
    f_table[("C", "0")] = 0
    r = small_round("counting-path", f_table=f_table)
    assert fail_frac(r) > 0


def test_counts_repeat_for_the_same_seed():
    first = small_round("counting-path", seed=3, tracer=Tracer())
    second = small_round("counting-path", seed=3, tracer=Tracer())
    assert first.counts == second.counts
    assert first.tracer.totals().keys() == second.tracer.totals().keys()
    for span in DELTA_SPANS:
        assert (first.tracer.totals().get(span, {}).get("calls")
                == second.tracer.totals().get(span, {}).get("calls"))


def test_traced_self_times_add_up_to_the_traced_wall_time():
    tracer = Tracer()
    r = small_round("boolean-lift", tracer=tracer)
    totals = tracer.totals()
    assert totals["search.steepest_ascent"]["calls"] == 1  # the symbol reference is untraced
    assert totals["landscapes.VcspLandscape.moves"]["yielded"] > 0
    assert tracer.self_s_total() == pytest.approx(r.wall_s, rel=1e-2)
    # the wrappers are gone once the round is over
    assert ascentlab.steepest_ascent is ascentlab.search.steepest_ascent
    assert not hasattr(ascentlab.steepest_ascent, "__wrapped__")
    assert not hasattr(ascentlab.VcspLandscape.delta, "__wrapped__")


def test_round_time_pairs_calls_of_clean_rounds_only():
    ref = run.REFERENCE_LOOP_S
    clean = Round(durations=[(1.0, ref, True), (2.0, ref, False)])
    failed = Round(durations=[(5.0, ref, False)])
    failed.check("ascent returns", False)
    assert run.round_time([failed, clean]) == pytest.approx((3.0, 1.0))
    assert run.round_time([failed]) == pytest.approx((5.0, 0.0))


def test_delta_calls_per_step_on_winding_is_the_move_count():
    tracer = Tracer()
    r = small_round("winding-path", tracer=tracer)
    n = SMALL["winding-path"]["n"]
    calls = tracer.calls_under(DELTA_SPANS, ["search.steepest_ascent"])
    assert r.counts["engine_calls"] == 2  # one piece per preset at this size
    assert calls == 2 * n * (r.counts["steps"] + r.counts["engine_calls"])


def test_traced_run_reports_every_per_layer_metric_of_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    setup_tracer = Tracer()
    with setup_tracer.installed():
        setup_tracer.call(WORKLOADS["exhaustive"].setup, 1, **SMALL["exhaustive"])
    traced = [small_round("exhaustive", tracer=Tracer()) for _ in range(2)]
    metrics, accounting = run.layer_metrics(traced, setup_tracer, untraced_wall=0.0)
    assert accounting["ok"]
    assert {m["name"] for m in spec["per_layer"]} == set(metrics)
    assert metrics["rules.admissible_ratio"] == 40 / 1000
    assert metrics["rules.classify.calls"] >= 1000
    assert metrics["vcsp.constraint_graph.self_s"] > 0


def test_exits_nonzero_without_the_library(tmp_path):
    here = Path(__file__).resolve().parent
    shutil.copytree(here, tmp_path / here.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(here.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{here.name}/run.py", "--workload", "exhaustive",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
