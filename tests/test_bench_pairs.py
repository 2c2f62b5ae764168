"""scripts/bench_pairs.py's summary of alternating benchmark pairs, on
synthetic runs."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [
    {"name": "wall_s", "better": "lower", "bound": 0.1}, {"name": "replications_per_s", "better": "higher", "bound": 0.1},
]


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


def test_within_bound_judges_each_median_in_its_direction():
    """A median 11% worse than a bound of 0.1 is out of bound, 9% worse is
    within it; a higher-is-better metric is worse when it falls."""
    def within(wall, rate):
        runs = [_run(0, "parent", 1.0, 100.0), _run(0, "change", wall, rate)]
        got = bench_pairs.summarize(runs, METRICS)
        return got["wall_s"]["within_bound"], got["replications_per_s"]["within_bound"]

    assert within(1.11, 89.0) == (False, False)
    assert within(1.09, 91.0) == (True, True)
    # each metric in its own direction: a much lower wall time and a much
    # higher rate are improvements, never out of bound
    assert within(0.5, 150.0) == (True, True)
    assert within(1.11, 150.0) == (False, True)
    assert within(0.5, 89.0) == (True, False)


def test_layer_values_keep_each_traced_metric_or_none():
    traced = {"result": {"failed": 0, "metrics": {
        "cli.csv_self_s": {"value": 0.1, "unit": "s"}, "cli.csv_rows_per_s": {"value": 1e6, "unit": "1/s"},
    }}}
    assert bench_pairs.layer_values(traced) == {"cli.csv_self_s": 0.1, "cli.csv_rows_per_s": 1e6}
    assert bench_pairs.layer_values({"result": None}) is None
