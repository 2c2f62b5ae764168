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


def test_gain_rule_needs_nine_tenths_of_the_pairs_and_a_gap_past_the_parent_quartiles():
    """A gain needs the change to win at least 9 of 10 pairs, ties and
    failed runs counting for neither side, and its median to beat the
    parent's by more than the parent's quartile spread."""
    parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]  # quartiles 0.98 .. 1.02

    def met(change, lost=()):
        runs = []
        for i, (p, c) in enumerate(zip(parent, change)):
            runs += [_run(i, "parent", p, 1 / p), _run(i, "change", None if i in lost else c, None if i in lost else 1 / c)]
        got = bench_pairs.summarize(runs, METRICS)
        return got["wall_s"]["gain_rule_met"], got["replications_per_s"]["gain_rule_met"]

    faster = [p - 0.1 for p in parent]
    assert met(faster) == (True, True)
    # one loss of ten is allowed, two are not; a tie counts as no win
    assert met(faster[:9] + [1.05]) == (True, True)
    assert met(faster[:8] + [1.05, 1.05]) == (False, False)
    assert met(faster[:9] + [parent[9]]) == (True, True)
    assert met(faster[:8] + [parent[8], parent[9]]) == (False, False)
    # a failed run is a pair the change did not win
    assert met(faster, lost=(3, 7)) == (False, False)
    # winning every pair by less than the parent's quartile spread is no gain
    assert met([p - 0.01 for p in parent]) == (False, False)
    # a change that is slower in every pair never meets the rule
    assert met([p + 0.1 for p in parent]) == (False, False)


def test_layer_values_keep_each_traced_metric_or_none():
    traced = {"result": {"failed": 0, "metrics": {
        "cli.csv_self_s": {"value": 0.1, "unit": "s"}, "cli.csv_rows_per_s": {"value": 1e6, "unit": "1/s"},
    }}}
    assert bench_pairs.layer_values(traced) == {"cli.csv_self_s": 0.1, "cli.csv_rows_per_s": 1e6}
    assert bench_pairs.layer_values({"result": None}) is None
