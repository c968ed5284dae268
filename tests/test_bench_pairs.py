"""The paired-run script's summary, on fixed run results: medians,
quartiles, the change in percent and the wins, a tie counting for neither
side; and its line count of a source tree.  No benchmark is run."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

METRICS = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
           {"name": "work_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}]


def runs(walls, works):
    return [{"wall_s": w, "work_per_s": k} for w, k in zip(walls, works)]


def test_summary_of_fixed_pairs():
    parent = runs([1.0, 2.0, 3.0, 4.0, 5.0], [10, 20, 30, 40, 50])
    change = runs([0.5, 2.0, 2.5, 4.5, 4.0], [11, 20, 29, 41, 60])
    summary = bench_pairs.summarize(parent, change, METRICS)
    wall = summary["wall_s"]
    assert wall["parent"] == {"median": 3.0, "q1": 2.0, "q3": 4.0}
    assert wall["change"] == {"median": 2.5, "q1": 2.0, "q3": 4.0}
    assert wall["change_pct"] == pytest.approx(-100 / 6)
    # lower is better: pairs 1, 3 and 5 won, pair 2 a tie, pair 4 lost
    assert (wall["wins"], wall["pairs"], wall["unit"], wall["better"]) == (3, 5, "s", "lower")
    work = summary["work_per_s"]
    assert work["parent"]["median"] == 30 and work["change"]["median"] == 29
    # higher is better: pairs 1, 4 and 5 won, pair 2 a tie, pair 3 lost
    assert work["wins"] == 3


def test_summary_keeps_each_sides_values_in_pair_order():
    parent = runs([3.0, 1.0, 2.0], [30, 10, 20])
    change = runs([2.5, 0.5, 2.0], [31, 12, 19])
    summary = bench_pairs.summarize(parent, change, METRICS)
    assert summary["wall_s"]["values"] == {"parent": [3.0, 1.0, 2.0], "change": [2.5, 0.5, 2.0]}
    assert summary["work_per_s"]["values"] == {"parent": [30, 10, 20], "change": [31, 12, 19]}
    # the values give back the summary's figures
    for name, m in summary.items():
        again = bench_pairs.summarize(runs(*(m["values"]["parent"],) * 2),
                                      runs(*(m["values"]["change"],) * 2), METRICS)[name]
        assert again == m, name


def test_claim_rule_needs_nine_tenths_of_the_pairs_and_a_gain_over_the_parents_spread():
    parent = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9]  # q1 1.225, q3 1.675
    faster = [x - 0.5 for x in parent]  # every pair won, medians 0.5 apart
    slower_last = faster[:9] + [parent[9]]  # a tie: nine of ten won
    slower_two = faster[:8] + parent[8:]  # eight of ten won
    closer = [x - 0.4 for x in parent]  # every pair won, 0.4 < 0.45 apart

    def rule(change):
        summary = bench_pairs.summarize(runs(parent, parent), runs(change, change), METRICS)
        return summary["wall_s"]["meets_claim_rule"], summary["work_per_s"]["meets_claim_rule"]

    # lower wall time is better, higher work rate is better
    assert rule(faster) == (True, False)
    assert rule(slower_last) == (True, False)
    assert rule(slower_two) == (False, False)
    assert rule(closer) == (False, False)
    assert rule([x + 0.5 for x in parent]) == (False, True)
    summary = bench_pairs.summarize(runs(parent, parent), runs(parent, parent), METRICS)
    assert summary["wall_s"]["meets_claim_rule"] is False


def test_summary_of_one_pair_and_of_a_zero_median():
    summary = bench_pairs.summarize(runs([2.0], [0]), runs([1.0], [0]), METRICS)
    assert summary["wall_s"]["parent"] == {"median": 2.0, "q1": 2.0, "q3": 2.0}
    assert summary["wall_s"]["change_pct"] == -50.0 and summary["wall_s"]["wins"] == 1
    assert summary["work_per_s"]["change_pct"] is None and summary["work_per_s"]["wins"] == 0


def test_table_row_per_workload_and_metric():
    summary = {"boolean-lift": bench_pairs.summarize(
        runs([0.07, 0.08], [100, 100]), runs([0.06, 0.06], [120, 90]), METRICS)}
    rows = bench_pairs.table(summary)
    assert rows[2] == "| boolean-lift | wall_s | 0.075 [0.0725, 0.0775] | 0.06 [0.06, 0.06] | -20.0 | 2/2 |"
    assert rows[3] == "| boolean-lift | work_per_s | 100 [100, 100] | 105 [97.5, 112.5] | +5.0 | 1/2 |"


def test_src_lines_counts_the_package_modules_only(tmp_path):
    package = tmp_path / "src" / "ascentlab"
    (package / "sub").mkdir(parents=True)
    (package / "a.py").write_text("x = 1\n\ny = 2\n")
    (package / "b.py").write_text("z = 3\nw = 4")  # no newline at the end, as wc -l reads it
    (package / "notes.txt").write_text("not\ncounted\n")
    (package / "sub" / "c.py").write_text("not counted\n")
    (tmp_path / "src" / "other.py").write_text("not counted\n")
    assert bench_pairs.src_lines(tmp_path) == 4
