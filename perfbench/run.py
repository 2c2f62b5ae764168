"""supcogarch benchmark: real CLI subcommands on generated workloads.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  Each command runs in a fresh interpreter
(child.py), one after another, for about S seconds.  With --trace 0 the
last stdout line reports the end-to-end metrics as medians over those
runs, timings scaled to a reference machine speed (sampler.py); with
--trace 1 one untraced run is followed by traced runs and the last line
reports the per-layer metrics.  The line before it holds the run
context.  Every run is checked (see README.md); a run that fails a check
counts in ``failed``.  Exit code 0 when a result was printed, 1 when no run
succeeded, 2 when the repository is not there.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer
from sampler import read_samples, speed
from workloads import (
    DEFAULT_SEED,
    OUT_DIR,
    SHIPPED_SEED,
    WORKLOADS,
    Workload,
    csv_rows,
    digest_mismatches,
    failed_checks,
    failed_verdicts,
    generate_config,
    output_digests,
    recorded_digests,
    sha256_bytes,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: at least this many timed (or traced) command runs, however short --seconds is
MIN_RUNS = 3
MIN_TRACED_RUNS = 2
#: wall-clock budget of one benchmark run; a command still running then is killed
DEADLINE_S = 170.0

END_TO_END: tuple[tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("replications_per_s", "1/s"),
    ("csv_rows_per_s", "1/s"),
)


class BenchError(RuntimeError):
    pass


@dataclass
class CommandRun:
    tag: str
    rc: int | None = None
    timings: dict | None = None
    digests: dict[str, str] = field(default_factory=dict)
    rows: int = 0
    spans: Path | None = None
    problems: list[str] = field(default_factory=list)
    verdicts: list[str] = field(default_factory=list)  # statistical rows verify failed
    speed: tuple[float, float] = (1.0, 1.0)  # machine-speed factors over set-up and command

    @property
    def ok(self) -> bool:
        return not self.problems

    def scaled(self, key: str) -> float:
        """A timing in seconds at the reference machine speed (see sampler.py)."""
        return self.timings[key] * self.speed[0 if key == "setup_s" else 1]

    def expect(self, digests: dict[str, str], what: str) -> None:
        """Record a failure when this run's output files differ from ``digests``."""
        if self.rc is None:
            return
        bad = digest_mismatches(digests, self.digests)
        if bad:
            self.problems.append(f"{what}: {', '.join(bad)}")


class Runner:
    """Runs the workload's command in child interpreters under ``work``,
    one after another, with the machine-speed sampler running alongside."""

    def __init__(self, workload: Workload, work: Path, deadline: float) -> None:
        self.workload = workload
        self.work = work
        self.deadline = deadline
        self.runs: list[CommandRun] = []
        #: one CPU per replication thread; commands and samplers are pinned to them
        self.cpus = sorted(os.sched_getaffinity(0))[: max(1, workload.threads)]
        self._samplers: list[subprocess.Popen] = []

    def _samples_path(self, cpu: int) -> Path:
        return self.work / f"speed-{cpu}.txt"

    def __enter__(self) -> "Runner":
        self.work.mkdir(parents=True)
        for cpu in self.cpus:
            argv = [sys.executable, str(HERE / "sampler.py"), str(self._samples_path(cpu)), str(cpu)]
            self._samplers.append(subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL))
        return self

    def __exit__(self, *exc) -> None:
        for proc in self._samplers:
            proc.terminate()
        for proc in self._samplers:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()

    def measure_speed(self) -> None:
        """Speed factors of every finished run from the samplers' records."""
        samples = [s for cpu in self.cpus for s in read_samples(self._samples_path(cpu))]
        for r in self.runs:
            if r.timings:
                t = r.timings
                try:
                    r.speed = (speed(samples, t["spawned"], t["ready"]), speed(samples, t["start"], t["end"]))
                except ValueError as exc:
                    raise BenchError(f"speed sampler: {exc}") from exc

    def run(self, config_text: str, tag: str, trace: bool = False) -> CommandRun:
        run = CommandRun(tag)
        self.runs.append(run)
        d = self.work / tag
        d.mkdir(parents=True)
        config = d / "workload.cfg"
        config.write_text(config_text)
        result = d / "result.json"
        spans = d / "spans.json"
        timeout = self.deadline - time.monotonic()
        if timeout <= 0.0:
            run.problems.append("not started: benchmark deadline reached")
            return run
        argv = [sys.executable, str(HERE / "child.py"), str(result), str(ROOT / "src"),
                self.workload.command, str(config)]
        try:
            argv += [repr(time.monotonic()), ",".join(map(str, self.cpus))]
            proc = subprocess.run(argv + ([str(spans)] if trace else []), cwd=d,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            run.problems.append(f"killed after {timeout:.0f} s")
            return run
        run.rc = proc.returncode
        verdict_exit = self.workload.command == "verify" and proc.returncode == 2
        if proc.returncode != 0 and not verdict_exit:
            last = proc.stderr.strip().splitlines()[-1:] or [""]
            run.problems.append(f"exit code {proc.returncode}: {last[0]}")
        if result.exists():
            run.timings = json.loads(result.read_text())
        elif not run.problems:
            run.problems.append("no timings written")
        out = d / OUT_DIR
        if out.is_dir():
            run.digests = output_digests(out)
            run.rows = csv_rows(out)
            run.problems += [f"check failed: {name}" for name in failed_checks(out)]
            run.verdicts = failed_verdicts(out)
            shutil.rmtree(out)
        if verdict_exit and not run.verdicts and run.ok:
            run.problems.append("exit code 2 but no failed row")
        run.spans = spans if trace and spans.exists() else None
        return run


def _median(values: list[float]) -> float:
    return float(statistics.median(values))


def timed_run(runner: Runner, seed: int, seconds: float) -> dict:
    wl = runner.workload
    text = generate_config(ROOT, wl, seed)
    start = time.monotonic()
    timed: list[CommandRun] = []
    while len(timed) < MIN_RUNS or time.monotonic() - start < seconds:
        timed.append(runner.run(text, f"timed{len(timed)}"))
    if seed == DEFAULT_SEED:
        reference = recorded_digests(wl.name)
    else:
        reference = next((r.digests for r in timed if r.ok), {})
    for r in timed:
        r.expect(reference, "output differs from the recorded/first run")
    checks = []
    if seed != DEFAULT_SEED:
        r = runner.run(generate_config(ROOT, wl, DEFAULT_SEED), "default_seed")
        r.expect(recorded_digests(wl.name), "default-seed output differs from digests.json")
        checks.append(r)
    if wl.threads > 1:
        r = runner.run(generate_config(ROOT, wl, seed, threads=1), "threads1")
        r.expect(reference, f"--threads 1 output differs from --threads {wl.threads}")
        checks.append(r)

    good = [r for r in timed if r.ok]
    if not good:
        raise BenchError("no timed run succeeded: " + "; ".join(p for r in timed for p in r.problems))
    runner.measure_speed()
    wall_s = _median([r.scaled("wall_s") for r in good])
    values = {
        "setup_s": _median([r.scaled("setup_s") for r in good + [c for c in checks if c.ok]]),
        "wall_s": wall_s,
        "cpu_s": _median([r.scaled("cpu_s") for r in good]),
        "peak_rss_mb": _median([r.timings["peak_rss_mb"] for r in good]),
        "replications_per_s": wl.replications() / wall_s,
        "csv_rows_per_s": _median([r.rows for r in good]) / wall_s,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def trace_run(runner: Runner, seed: int, seconds: float) -> tuple[dict, list[str]]:
    wl = runner.workload
    text = generate_config(ROOT, wl, seed)
    base = runner.run(text, "untraced")
    if seed == DEFAULT_SEED:
        base.expect(recorded_digests(wl.name), "output differs from digests.json")
    start = time.monotonic()
    traced: list[CommandRun] = []
    while len(traced) < MIN_TRACED_RUNS or time.monotonic() - start < seconds:
        traced.append(runner.run(text, f"traced{len(traced)}", trace=True))

    runner.measure_speed()
    measured: list[tuple[CommandRun, dict]] = []
    missing: list[str] = []
    for r in traced:
        r.expect(base.digests, "traced output differs from untraced")
        if r.spans is None:
            if r.ok:
                r.problems.append("no spans written")
            continue
        dump = json.loads(r.spans.read_text())
        r.spans.unlink()
        missing = dump["missing"]
        m = tracer.scale_times(tracer.span_metrics(dump["names"], dump["spans"]), r.speed[1])
        m["trace.wall_s"] = r.scaled("wall_s")
        m["trace.overhead_s"] = r.scaled("wall_s") - base.scaled("wall_s") if base.timings else 0.0
        # the replication count derived from the config must match the traced one
        counted = "superpos.bundles" if wl.command == "simulate" else "analysis.replications"
        if "analysis.run_replications" not in missing and m[counted] != wl.replications():
            r.problems.append(f"{counted} = {m[counted]}, config gives {wl.replications()}")
        if measured:
            diff = [k for k in tracer.COUNT_METRICS if m[k] != measured[0][1][k]]
            if diff:
                r.problems.append(f"counts differ between traced runs: {', '.join(diff)}")
        measured.append((r, m))
    good = [m for r, m in measured if r.ok]
    if not good:
        raise BenchError("no traced run succeeded: " + "; ".join(p for r in traced for p in r.problems))
    metrics = {
        name: {"value": _median([m[name] for m in good]), "unit": unit} for name, unit in tracer.PER_LAYER
    }
    return metrics, missing


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() or None


def _source_sha256() -> str:
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def context(runner: Runner, seed: int, trace: bool, missing: list[str]) -> dict:
    wl = runner.workload
    text = generate_config(ROOT, wl, seed)
    versions = next((r.timings["versions"] for r in runner.runs if r.timings), None)
    return {
        "workload": wl.name,
        "command": wl.command,
        "why": wl.why,
        "seed": seed,
        "config_seed": SHIPPED_SEED + seed,
        "threads": wl.threads,
        "trace": trace,
        "replications": wl.replications(),
        "config_sha256": sha256_bytes(text.encode()),
        "config": text,
        "git_sha": _git_sha(),
        "source_sha256": _source_sha256(),
        "nproc": os.cpu_count(),
        "cpus": runner.cpus,
        "cpu_model": _cpu_model(),
        "versions": versions,
        "untraced_targets": missing,
        "runs": [
            {"tag": r.tag, "rc": r.rc, "rows": r.rows, "problems": r.problems, "verdicts": r.verdicts,
             "speed": r.speed, **{k: r.timings[k] for k in ("setup_s", "wall_s", "cpu_s", "peak_rss_mb")}}
            if r.timings else {"tag": r.tag, "rc": r.rc, "problems": r.problems}
            for r in runner.runs
        ],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    if not (ROOT / "src" / "supcogarch" / "cli.py").is_file() or not (ROOT / workload.config).is_file():
        print(f"error: {ROOT} holds no supcogarch source or no {workload.config}", file=sys.stderr)
        return 2
    # a fresh checkout has no bytecode yet; compiling it here keeps that
    # one-off cost out of the first command's set-up time
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    work = ROOT / ".bench_work" / f"{workload.name}-{os.getpid()}"
    runner = Runner(workload, work, time.monotonic() + DEADLINE_S)
    try:
        missing: list[str] = []
        with runner:
            if args.trace:
                metrics, missing = trace_run(runner, args.seed, args.seconds)
            else:
                metrics = timed_run(runner, args.seed, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    failed = sum(not r.ok for r in runner.runs)
    print(json.dumps({"context": context(runner, args.seed, bool(args.trace), missing)}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(runner.runs),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
