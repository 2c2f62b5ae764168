#!/usr/bin/env python3
"""Run the benchmark on two trees in alternating pairs and write a
BENCH_<n>.json record.

    python scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --out BENCH_14.json \\
        --pairs verify_light=10 --pairs qstats_showcase=5 --pairs simulate_vg=5 \\
        [--first-seed 41] [--what TEXT] [--claim TEXT]

PARENT_DIR and CHANGE_DIR are two copies of the repository (for example
made with ``git archive``).  Pair i of a workload runs
``perfbench/run.py --workload W --seed FIRST_SEED + i --seconds S --trace 0``
(S the ``run_seconds`` of BENCHMARK.json) once in each tree, the parent
first in even pairs and the change first in odd ones.  Each run's last
output line (the result) and the line before it (the run context) are
kept; nothing under ``perfbench/`` is touched.  After its pairs, each
workload is run once more per tree with ``--trace 1`` at seed FIRST_SEED,
and the per-layer medians it reports are kept.

The record holds ``what`` and ``claim`` as given, a ``summary`` per
workload and end-to-end metric of BENCHMARK.json (each side's median and
quartiles, ``statistics.quantiles`` inclusive, the change of the medians
in percent, ``change_better_pairs``: the pairs in which the change beat
the parent, ties counting for neither, and ``within_bound``: whether the
change's median is worse than the parent's by at most the metric's
``bound``, a fraction of the parent's median, in the direction ``better``,
and ``gain_rule_met``: whether the change won at least nine tenths of all
the pairs run, ties and failed pairs counting for neither side, and its
median beats the parent's by more than the parent's quartile spread), the
workload's ``failed_runs`` (command runs that failed, both sides),
every run, and ``layers``: per workload and side, the traced run's
per-layer metric values (None when it failed).  A summary is also
printed, one line per workload and metric, and the traced CSV export
layer of each workload.  The exit code is 1 when a median is out of its
bound, else 0.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

#: context fields copied into the record; the rest (config text, per-command
#: timings) stays in perfbench's own output
_CONTEXT_KEYS = (
    "config_seed", "config_sha256", "cpu_model", "cpus", "nproc", "replications", "seed",
    "source_sha256", "threads", "versions",
)


def run_one(tree: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """One perfbench run in ``tree``: its exit code, context and result."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    context, result = {}, None
    if proc.returncode == 0 and len(lines) >= 2:
        context = json.loads(lines[-2])["context"]
        result = json.loads(lines[-1])
    return {"exit": proc.returncode, "context": {k: context.get(k) for k in _CONTEXT_KEYS}, "result": result}


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per metric: each side's median and quartiles, and the pairs won."""
    out: dict = {}
    sides = {"parent": {}, "change": {}}
    for r in runs:
        if r["result"] is not None:
            sides[r["side"]][r["pair"]] = r["result"]["metrics"]
    pairs = sorted(set(sides["parent"]) & set(sides["change"]))
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        parent = [sides["parent"][p][name]["value"] for p in pairs]
        change = [sides["change"][p][name]["value"] for p in pairs]
        if not pairs:
            continue
        won = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        row = {"pairs": len(pairs)}
        for side, values in (("parent", parent), ("change", change)):
            row[f"{side}_median"] = statistics.median(values)
            row[f"{side}_quartiles"] = (
                statistics.quantiles(values, n=4, method="inclusive")[::2] if len(values) > 1 else [values[0]] * 2
            )
        row["change_better_pairs"] = won
        row["median_change_pct"] = 100.0 * (row["change_median"] / row["parent_median"] - 1.0)
        limit = row["parent_median"] * (1.0 + m["bound"] if lower else 1.0 - m["bound"])
        row["within_bound"] = row["change_median"] <= limit if lower else row["change_median"] >= limit
        gain = (row["parent_median"] - row["change_median"]) * (1.0 if lower else -1.0)
        q1, q3 = row["parent_quartiles"]
        row["gain_rule_met"] = 10 * won >= 9 * len({r["pair"] for r in runs}) and gain > q3 - q1
        out[name] = row
    out["failed_runs"] = sum(r["result"]["failed"] if r["result"] else 1 for r in runs)
    return out


def layer_values(run: dict) -> dict | None:
    """A traced run's per-layer metrics, name -> value, or None if it failed."""
    if run["result"] is None:
        return None
    return {name: m["value"] for name, m in run["result"]["metrics"].items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--pairs", action="append", required=True, metavar="WORKLOAD=N")
    parser.add_argument("--first-seed", type=int, default=41)
    parser.add_argument("--what", default="")
    parser.add_argument("--claim", default="")
    args = parser.parse_args(argv)
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics, seconds = bench["end_to_end"], bench["run_seconds"]

    runs: list[dict] = []
    summary: dict = {}
    layers: dict = {}
    for spec in args.pairs:
        workload, _, count = spec.partition("=")
        wl_runs = []
        for pair in range(int(count)):
            seed = args.first_seed + pair
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                got = run_one(getattr(args, side), workload, seed, seconds)
                wl_runs.append({"pair": pair, "side": side, "workload": workload, **got})
                print(f"{workload} pair {pair} {side}: exit {got['exit']}", file=sys.stderr, flush=True)
        summary[workload] = summarize(wl_runs, metrics)
        runs += wl_runs
        for name, row in summary[workload].items():
            if name != "failed_runs":
                print(f"{workload} {name}: {row['parent_median']:.6g} -> {row['change_median']:.6g} "
                      f"({row['median_change_pct']:+.1f}%), change better in {row['change_better_pairs']}"
                      f"/{row['pairs']} pairs, parent quartiles {row['parent_quartiles']}, "
                      f"within bound: {row['within_bound']}, gain rule met: {row['gain_rule_met']}")
        print(f"{workload} failed_runs: {summary[workload]['failed_runs']}")
        layers[workload] = {}
        for side in ("parent", "change"):
            traced = run_one(getattr(args, side), workload, args.first_seed, seconds, trace=1)
            layers[workload][side] = layer_values(traced)
            print(f"{workload} traced {side}: exit {traced['exit']}", file=sys.stderr, flush=True)
        if all(layers[workload].values()):
            for name in ("cli.csv_self_s", "cli.csv_rows_per_s"):
                print(f"{workload} {name}: {layers[workload]['parent'][name]:.6g} -> "
                      f"{layers[workload]['change'][name]:.6g} (traced)")

    record = {"what": args.what, "claim": args.claim, "summary": summary, "runs": runs, "layers": layers}
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    rows = [row for wl in summary.values() for name, row in wl.items() if name != "failed_runs"]
    return 0 if all(row["within_bound"] for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
