"""Paired benchmark runs: a parent checkout against this one.

    python3 scripts/bench_pairs.py --parent DIR --out FILE [--pairs 10]
                                   [--seconds S] [--workloads NAME ...]

Pair i (seeds 1..K) runs ``perfbench/run.py --workload W --seed i
--seconds S --trace 0`` once in DIR and once in this checkout, the parent
first in odd pairs and this checkout first in even ones.  A run that exits
non-zero or reports ``correct: false`` stops the script with exit 1.  FILE
(JSON) holds, per workload and end-to-end metric of ``BENCHMARK.json``,
each side's median and quartiles, the change of the medians in percent,
the pairs this checkout won (a tie counts for neither side) and
``meets_claim_rule``: whether it won at least nine tenths of the pairs
and its median beats the parent's by more than the parent's q3 - q1; and
``src_lines``, the line count of ``src/ascentlab/*.py`` on each side.  A
Markdown table of the figures but the rule goes to standard output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), inclusive method."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def summarize(parent: list[dict], change: list[dict], metrics: list[dict]) -> dict:
    """Per metric of ``metrics`` (``BENCHMARK.json``'s end-to-end entries:
    name, unit, better), the two sides' medians and quartiles over the pairs
    of ``parent`` and ``change`` (one dict of metric values per run, in pair
    order), the change of the medians in percent, the change's wins, and
    whether they meet the rule for claiming a gain: at least nine tenths of
    the pairs won, and the medians apart in the better direction by more
    than the parent's interquartile range."""
    out = {}
    for metric in metrics:
        name = metric["name"]
        before = [run[name] for run in parent]
        after = [run[name] for run in change]
        sign = 1 if metric["better"] == "higher" else -1
        wins = sum(1 for b, a in zip(before, after) if sign * (a - b) > 0)
        sides = {}
        for side, values in (("parent", before), ("change", after)):
            q1, median, q3 = quartiles(values)
            sides[side] = {"median": median, "q1": q1, "q3": q3}
        base = sides["parent"]["median"]
        gain = sign * (sides["change"]["median"] - base)
        spread = sides["parent"]["q3"] - sides["parent"]["q1"]
        out[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            **sides,
            "change_pct": 100 * (sides["change"]["median"] - base) / base if base else None,
            "wins": wins,
            "pairs": len(before),
            "meets_claim_rule": 10 * wins >= 9 * len(before) and gain > spread,
        }
    return out


def table(summary: dict) -> list[str]:
    """Markdown rows: workload, metric, each side's median [q1, q3], change, wins."""
    rows = ["| workload | metric | parent | change | change % | wins |",
            "| --- | --- | --- | --- | --- | --- |"]
    for workload, by_metric in summary.items():
        for name, m in by_metric.items():
            sides = [f"{m[s]['median']:.4g} [{m[s]['q1']:.4g}, {m[s]['q3']:.4g}]"
                     for s in ("parent", "change")]
            pct = "n/a" if m["change_pct"] is None else f"{m['change_pct']:+.1f}"
            rows.append(f"| {workload} | {name} | {sides[0]} | {sides[1]} | {pct} "
                        f"| {m['wins']}/{m['pairs']} |")
    return rows


def src_lines(checkout: Path) -> int:
    """The line count of ``src/ascentlab/*.py`` in ``checkout``, as ``wc -l``
    counts it."""
    return sum(path.read_bytes().count(b"\n")
               for path in (checkout / "src" / "ascentlab").glob("*.py"))


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``--trace 0`` run in ``checkout``: the metric values of its result."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"bench_pairs: {workload} seed {seed} in {checkout} exited "
                         f"{done.returncode}: {done.stderr.strip()[-500:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"bench_pairs: {workload} seed {seed} in {checkout} failed "
                         f"{result['failed']} of {result['attempted']} checks: {lines[-2][-500:]}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True,
                        help="a checkout of the parent commit")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--out", type=Path, required=True, help="the JSON file to write")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    summary = {}
    for workload in args.workloads:
        runs = {"parent": [], "change": []}
        for seed in range(1, args.pairs + 1):
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            for side in order:
                checkout = args.parent if side == "parent" else ROOT
                runs[side].append(run_once(checkout, workload, seed, args.seconds))
        summary[workload] = summarize(runs["parent"], runs["change"], spec["end_to_end"])
    lines = {"parent": src_lines(args.parent), "change": src_lines(ROOT)}
    args.out.write_text(json.dumps({"pairs": args.pairs, "seconds": args.seconds,
                                    "src_lines": lines, "workloads": summary}, indent=1) + "\n")
    print("\n".join(table(summary)))
    print(f"\nsrc/ascentlab lines: parent {lines['parent']}, change {lines['change']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
