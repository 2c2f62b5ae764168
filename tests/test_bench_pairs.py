"""scripts/bench_pairs.py's summary of alternating benchmark pairs, on
synthetic runs."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [{"name": "wall_s", "better": "lower"}, {"name": "replications_per_s", "better": "higher"}]


def _run(pair, side, wall, rate, failed=0):
    result = None if wall is None else {
        "failed": failed, "metrics": {"wall_s": {"value": wall}, "replications_per_s": {"value": rate}},
    }
    return {"pair": pair, "side": side, "result": result}


def test_summarize_counts_wins_ties_and_failures():
    runs = [
        # pair 0 ties on both metrics
        _run(0, "parent", 1.0, 10.0), _run(0, "change", 1.0, 10.0),
        # pair 1: the change is faster and does more replications per second
        _run(1, "change", 0.9, 12.0), _run(1, "parent", 1.0, 10.0),
        # pair 2: the change is slower but still does more replications per second
        _run(2, "parent", 1.0, 10.0), _run(2, "change", 1.1, 11.0),
        # pair 3: the change's run gave no result
        _run(3, "change", None, None), _run(3, "parent", 0.1, 99.0, failed=2),
    ]
    got = bench_pairs.summarize(runs, METRICS)
    wall, rate = got["wall_s"], got["replications_per_s"]
    assert wall["pairs"] == rate["pairs"] == 3
    assert wall["change_better_pairs"] == 1  # the tie counts for neither side
    assert rate["change_better_pairs"] == 2  # higher is better: 12 and 11 beat 10
    assert wall["parent_median"] == 1.0 and wall["change_median"] == 1.0
    assert rate["parent_median"] == 10.0 and rate["change_median"] == 11.0
    # the missing result counts once, beside the failures a result reports
    assert got["failed_runs"] == 3
