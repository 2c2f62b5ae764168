"""Tests of the benchmark itself (not of supcogarch).

    python3 -m pytest -q perfbench/tests
"""

import json
import re
import statistics
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import sampler  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from tracer import Span, self_times, span_metrics  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _spans(names, rows):
    """rows: (idx, name, start, end, parent[, n, m]) -> raw span tuples."""
    ids = {n: i for i, n in enumerate(names)}
    out = []
    for idx, name, start, end, parent, *nm in rows:
        n, m = (nm + [0, 0])[:2]
        out.append((idx, ids[name], start, end, parent, 0, n, m))
    return out


def test_self_time_subtracts_union_of_children():
    spans = [
        Span(1, 0, 0.0, 10.0, 0, 0, 0, 0),
        Span(2, 0, 1.0, 3.0, 1, 0, 0, 0),
        Span(3, 0, 2.0, 5.0, 1, 0, 0, 0),  # overlaps span 2, as on a thread pool
        Span(4, 0, 8.0, 9.0, 1, 0, 0, 0),
        Span(5, 0, 1.5, 2.0, 2, 0, 0, 0),  # grandchild: not subtracted from span 1 twice
        Span(6, 0, 9.5, 11.0, 1, 0, 0, 0),  # runs past its parent: clipped
    ]
    got = self_times(spans)
    assert got[1] == pytest.approx(10.0 - (4.0 + 1.0 + 0.5))
    assert got[2] == pytest.approx(2.0 - 0.5)
    assert got[3] == pytest.approx(3.0)
    assert got[5] == pytest.approx(0.5)
    assert got[6] == pytest.approx(1.5)


def test_span_metrics_sum_self_times_per_layer_and_rates():
    names = ["superpos.bundle", "levy.simulate", "levy.restrict", "cogarch.recursion",
             "analysis.run_replications", "analysis.replication", "cli.csv", "cogarch.query"]
    rows = [
        (1, "analysis.run_replications", 0.0, 4.0, 0, 2),
        (2, "analysis.replication", 0.0, 2.0, 1, 1),
        (3, "superpos.bundle", 0.0, 2.0, 2, 10),
        (4, "levy.simulate", 0.0, 0.5, 3, 12),
        (5, "levy.restrict", 0.1, 0.2, 4),
        (6, "cogarch.recursion", 0.5, 1.5, 3, 10),
        (7, "analysis.replication", 2.0, 4.0, 1, 1),
        (8, "superpos.bundle", 2.0, 3.0, 7, 20),
        (9, "cli.csv", 5.0, 7.0, 0, 100, 4000),
        (10, "cogarch.query", 5.5, 6.0, 9, 50),
    ]
    m = span_metrics(names, _spans(names, rows))
    assert m["superpos.bundles"] == 2
    assert m["superpos.events"] == 30
    assert m["superpos.self_s"] == pytest.approx(0.5 + 1.0)
    assert m["superpos.bundles_per_s"] == pytest.approx(2 / 3.0)
    assert m["levy.paths"] == 1 and m["levy.marks"] == 12 and m["levy.restrict_calls"] == 1
    assert m["levy.self_s"] == pytest.approx(0.5)
    assert m["levy.marks_per_s"] == pytest.approx(12 / 0.5)
    assert m["cogarch.marks_per_s"] == pytest.approx(10.0)
    assert m["analysis.replications"] == 2
    assert m["analysis.replication_wall_s"] == pytest.approx(4.0)
    assert m["analysis.replication_busy_s"] == pytest.approx(4.0)
    assert m["analysis.replication_ms_p50"] == pytest.approx(2000.0)
    assert m["cli.csv_rows"] == 100 and m["cli.csv_bytes"] == 4000
    assert m["cli.csv_self_s"] == pytest.approx(1.5)
    assert m["cli.csv_rows_per_s"] == pytest.approx(50.0)
    assert m["cogarch.queries"] == 1 and m["cogarch.query_points"] == 50
    assert m["verify.price_s"] == 0.0


def test_span_metrics_cover_every_per_layer_metric():
    m = span_metrics([], [])
    expected = {name for name, _ in tracer.PER_LAYER} - {"trace.wall_s", "trace.overhead_s"}
    assert set(m) == expected


def test_speed_averages_the_samples_in_the_widened_span():
    ref = sampler.REFERENCE_S
    samples = [(9.0, 8 * ref), (10.2, ref), (11.0, 3 * ref), (12.4, ref), (14.0, 8 * ref)]
    # the command spans 10.5 to 12.0; samples up to MARGIN_S outside it count
    assert sampler.speed(samples, 10.5, 12.0) == pytest.approx(1.0 / statistics.mean([1.0, 3.0, 1.0]))
    with pytest.raises(ValueError):
        sampler.speed(samples, 20.0, 21.0)


def _write_outputs(out: Path) -> None:
    out.mkdir()
    (out / "a.csv").write_text("x,y\n1,2\n")
    (out / "verification_checks.csv").write_text(
        "name,value,requirement,pass\nident,0,<= 1e-12,True\nband,3,\"sweep within (1, 4)\",True\n"
    )


def test_tampered_output_is_a_failed_run(tmp_path):
    out = tmp_path / "out"
    _write_outputs(out)
    recorded = workloads.output_digests(out)
    good = run.CommandRun("timed0", rc=0, digests=workloads.output_digests(out))
    good.expect(recorded, "differs")
    assert good.ok

    (out / "a.csv").write_text("x,y\n1,3\n")
    tampered = run.CommandRun("timed1", rc=0, digests=workloads.output_digests(out))
    tampered.expect(recorded, "differs")
    assert not tampered.ok
    assert "a.csv" in tampered.problems[0]

    (out / "a.csv").unlink()
    missing = run.CommandRun("timed2", rc=0, digests=workloads.output_digests(out))
    missing.expect(recorded, "differs")
    assert not missing.ok
    assert sum(not r.ok for r in (good, tampered, missing)) == 2


def test_failed_verification_check_rows_are_reported(tmp_path):
    out = tmp_path / "out"
    _write_outputs(out)
    assert workloads.failed_checks(out) == []
    text = (out / "verification_checks.csv").read_text().replace("ident,0,<= 1e-12,True", "ident,1,<= 1e-12,False")
    (out / "verification_checks.csv").write_text(text)
    assert workloads.failed_checks(out) == ["ident"]


def test_metric_names_and_caps_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    layers = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert e2e == list(run.END_TO_END)
    assert layers == list(tracer.PER_LAYER)
    assert len(e2e) <= 16 and len(layers) <= 128
    names = [n for n, _ in e2e + layers] + [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64 and name[0].isalnum(), name
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert "setup_s" in dict(e2e)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_set_key_replaces_or_inserts_within_its_section():
    text = "[simulation]\nseed = 1\n\n[output]\nout_dir = out/x\n"
    text = workloads.set_key(text, "simulation", "seed", "7")
    text = workloads.set_key(text, "simulation", "burn_in", "9")
    text = workloads.set_key(text, "output", "out_dir", "out")
    assert text == "[simulation]\nburn_in = 9\nseed = 7\n\n[output]\nout_dir = out\n"


def test_generated_configs_parse_with_the_workload_seed_and_threads():
    sys.path.insert(0, str(ROOT / "src"))
    from supcogarch.config import parse_config

    for wl in workloads.WORKLOADS.values():
        cfg = parse_config(workloads.generate_config(ROOT, wl, 5, threads=1))
        assert cfg.seed == workloads.SHIPPED_SEED + 5
        assert cfg.threads == 1
        assert cfg.out_dir == workloads.OUT_DIR


def test_install_traces_every_module_that_imported_a_name():
    script = textwrap.dedent(
        f"""
        import json, sys
        sys.path[:0] = [{str(ROOT / "src")!r}, {str(BENCH)!r}]
        import supcogarch.cli
        from supcogarch import levy, superpos, verify
        import tracer
        rec = tracer.Recorder()
        missing = tracer.install(rec)
        same = superpos.simulate_levy_path is verify.simulate_levy_path is levy.simulate_levy_path
        wrapped = levy.simulate_levy_path.__wrapped__ is not None
        bundle = superpos.simulate_bundle(
            superpos.Variant.SUP2, superpos.Mixture.from_atoms([(0.1, 1.0)]), 1.0, 1.0,
            levy.CompoundPoisson(1.0, levy.STANDARD_NORMAL), (0.0, 5.0), 3)
        names = [rec.names[s[1]] for s in rec.spans]
        by_idx = {{s[0]: rec.names[s[1]] for s in rec.spans}}
        parents = {{rec.names[s[1]]: by_idx.get(s[4]) for s in rec.spans}}
        print(json.dumps({{"missing": missing, "same": same, "wrapped": wrapped,
                          "names": names, "parents": parents}}))
        """
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    assert got["missing"] == []
    assert got["same"] and got["wrapped"]
    assert got["names"].count("superpos.bundle") == 1
    assert "levy.simulate" in got["names"] and "cogarch.recursion" in got["names"]
    assert got["parents"]["levy.simulate"] == "superpos.bundle"
    assert got["parents"]["superpos.bundle"] is None
