"""Spans around the public functions of each supcogarch module, recorded
from outside the package, and the per-layer metrics computed from them.

``install`` wraps every target function or method and rebinds the wrapper
under every name that refers to the original in any loaded supcogarch
module, so ``from .levy import simulate_levy_path`` in ``superpos`` and
``verify`` is traced as well.  A span records (index, name, start, end,
parent, run id, n, m); ``n`` and ``m`` are the work counts of the call (for
example marks produced, or rows and bytes written).  Spans live in memory
and are written out once, when the traced command has returned.

Span names are ``layer.group``.  Groups marked nested=False record only the
outermost call, so ``PathRecord.value_at`` calling ``PathRecord.values`` is
one query, not two.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import pathlib
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, NamedTuple

PACKAGE = "supcogarch"


def _arg(args, kwargs, i: int, name: str):
    return args[i] if len(args) > i else kwargs[name]


def _points(x) -> int:
    size = getattr(x, "size", None)
    if size is not None:
        return int(size)
    return len(x) if hasattr(x, "__len__") else 1


def _len_result(args, kwargs, result):
    return len(result), 0


def _s_path_marks(args, kwargs, result):
    return len(_arg(args, kwargs, 1, "s_path")), 0


def _query_points(args, kwargs, result):
    return _points(args[1] if len(args) > 1 else next(iter(kwargs.values()))), 0


def _samples(args, kwargs, result):
    return _points(args[0] if args else next(iter(kwargs.values()))), 0


def _jackknife_samples(args, kwargs, result):
    return _points(_arg(args, kwargs, 1, "arrays")[0]), 0


def _bundle_events(args, kwargs, result):
    return len(result.aggregate), 0


def _csv_rows_bytes(args, kwargs, result):
    return result.count("\n"), len(result.encode())


def _write_bytes(args, kwargs, result):
    return 0, len(_arg(args, kwargs, 1, "data").encode())


_CHAREXP = ("psi", "log_moment", "phi_max", "kappa_of_phi", "phi_max_kappa", "h_cross", "h_kappa")
_ESTIMATORS = (
    "mc_mean", "mc_variance", "mc_second_moment", "mc_covariance",
    "grouped_jackknife", "hill_estimator", "hill_sweep",
)
_FAMILIES = ("cogarch", "cross", "sup", "price", "q", "tail", "identity")
_CSV = (
    ("levy", "jump_path_to_csv"), ("cogarch", "path_to_csv"), ("price", "price_to_csv"),
    ("superpos", "bundle_to_csv"), ("superpos", "chosen_marks_to_csv"),
    ("analysis", "reports_to_csv"), ("analysis", "histogram_to_csv"),
    ("verify", "checks_to_csv"), ("verify", "price_rows_to_csv"),
)


class Target(NamedTuple):
    span: str  # span name, layer.group
    module: str  # module under the package
    attr: str  # function name, or Class.method
    count: Callable | None = None
    nested: bool = True  # False: skip calls made inside a span of the same name


TARGETS: tuple[Target, ...] = (
    Target("config.parse", "config", "parse_config", nested=False),
    Target("config.parse", "config", "ExperimentConfig.validate", nested=False),
    *(Target("charexp.call", "charexp", f, nested=False) for f in _CHAREXP),
    Target("levy.simulate", "levy", "simulate_levy_path", _len_result),
    Target("levy.squared_jumps", "levy", "squared_jumps"),
    Target("levy.restrict", "levy", "JumpPath.restrict"),
    Target("levy.jump_path", "levy", "JumpPath.__post_init__"),
    Target("levy.substream", "levy", "substream", nested=False),
    Target("levy.substream", "levy", "rng_from", nested=False),
    Target("cogarch.recursion", "cogarch", "simulate_cogarch", _s_path_marks),
    Target("cogarch.recursion", "cogarch", "evolve_value", _s_path_marks),
    *(
        Target("cogarch.query", "cogarch", f"PathRecord.{m}", _query_points, nested=False)
        for m in ("values", "left_limits", "value_at", "left_limit_at")
    ),
    Target("superpos.bundle", "superpos", "simulate_bundle", _bundle_events),
    Target("price.simulate", "price", "simulate_price", _len_result),
    *(
        Target("price.query", "price", f"PricePath.{m}", _query_points, nested=False)
        for m in ("values_at", "value_at", "increment")
    ),
    *(
        Target("analysis.estimator", "analysis", f,
               _jackknife_samples if f == "grouped_jackknife" else _samples, nested=False)
        for f in _ESTIMATORS
    ),
    Target("analysis.q", "analysis", "extract_q", _len_result),
    Target("analysis.q", "analysis", "jump_tally"),
    Target("analysis.q", "analysis", "check_q_bounds"),
    Target("verify.run", "verify", "run_verification"),
    *(Target(f"verify.{f}", "verify", f"_{f}_family") for f in _FAMILIES),
    Target("verify.checks", "verify", "bundle_identity_checks"),
    Target("verify.checks", "verify", "price_identity_checks"),
    Target("verify.draws", "verify", "stationary_component_draws"),
    *(Target("cli.cmd", "cli", f"cmd_{c}") for c in ("simulate", "analytics", "verify", "qstats")),
    *(Target("cli.csv", m, f, _csv_rows_bytes) for m, f in _CSV),
)

_RUN_REPLICATIONS = ("analysis", "run_replications")


class Span(NamedTuple):
    idx: int
    name: int
    start: float
    end: float
    parent: int
    run: int
    n: int
    m: int


class Recorder:
    """In-memory span store.  Each thread keeps its own stack of open
    spans; index 0 is the implicit root, run id 0 the command itself, and
    every replication gets a fresh run id shared by the spans inside it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[tuple] = []
        self._next_idx = itertools.count(1)
        self._next_run = itertools.count(1)
        self._local = threading.local()

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _stack(self) -> list[tuple[int, int, int]]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = [(0, -1, 0)]  # (span index, name id, run id)
            return self._local.stack

    def inside(self, name_id: int) -> bool:
        return self._stack()[-1][1] == name_id

    def open(self, name_id: int, parent: int | None = None, run: int | None = None) -> tuple:
        stack = self._stack()
        top_idx, _, top_run = stack[-1]
        idx = next(self._next_idx)
        parent = top_idx if parent is None else parent
        run = top_run if run is None else run
        stack.append((idx, name_id, run))
        return (idx, name_id, parent, run, time.perf_counter())

    def close(self, token: tuple, n: int = 0, m: int = 0) -> None:
        end = time.perf_counter()
        self._stack().pop()
        idx, name_id, parent, run, start = token
        self.spans.append((idx, name_id, start, end, parent, run, n, m))

    def new_run(self) -> int:
        return next(self._next_run)

    def dump(self, path: str, missing: list[str]) -> None:
        with open(path, "w") as fh:
            json.dump({"names": self.names, "missing": missing, "spans": self.spans}, fh)


def _wrap(rec: Recorder, fn: Callable, target: Target) -> Callable:
    name_id = rec.name_id(target.span)
    count, nested = target.count, target.nested

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not nested and rec.inside(name_id):
            return fn(*args, **kwargs)
        token = rec.open(name_id)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            rec.close(token)
            raise
        rec.close(token, *(count(args, kwargs, result) if count else (0, 0)))
        return result

    return traced


def _wrap_run_replications(rec: Recorder, fn: Callable) -> Callable:
    outer = rec.name_id("analysis.run_replications")
    inner = rec.name_id("analysis.replication")

    @functools.wraps(fn)
    def traced(one, n, threads=1):
        token = rec.open(outer)

        def replication(i):
            rep = rec.open(inner, parent=token[0], run=rec.new_run())
            try:
                return one(i)
            finally:
                rec.close(rep, 1)

        try:
            result = fn(replication, n, threads)
        except BaseException:
            rec.close(token)
            raise
        rec.close(token, n)
        return result

    return traced


def _rebind(modules: list, original: Callable, wrapped: Callable) -> None:
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapped)


def install(rec: Recorder) -> list[str]:
    """Wrap every target in the loaded package; returns the targets that
    no longer exist, so a renamed function shows up instead of silently
    reading zero."""
    modules = [m for k, m in sys.modules.items() if k == PACKAGE or k.startswith(PACKAGE + ".")]
    missing = []
    for target in TARGETS:
        mod = sys.modules.get(f"{PACKAGE}.{target.module}")
        owner_name, _, attr = target.attr.rpartition(".")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        original = vars(owner).get(attr) if owner is not None else None
        if original is None:
            missing.append(f"{target.module}.{target.attr}")
            continue
        wrapped = _wrap(rec, original, target)
        if owner_name:
            setattr(owner, attr, wrapped)
        else:
            _rebind(modules, original, wrapped)
    mod = sys.modules.get(f"{PACKAGE}.{_RUN_REPLICATIONS[0]}")
    original = getattr(mod, _RUN_REPLICATIONS[1], None)
    if original is None:
        missing.append(".".join(_RUN_REPLICATIONS))
    else:
        _rebind(modules, original, _wrap_run_replications(rec, original))
    write_text = pathlib.Path.write_text
    pathlib.Path.write_text = _wrap(rec, write_text, Target("cli.write", "pathlib", "Path.write_text", _write_bytes))
    return missing


# ---------------------------------------------------------------------------
# metrics from spans


def self_times(spans: list[Span]) -> dict[int, float]:
    """Duration of each span minus the part of its interval that its child
    spans cover.  Children may overlap (replications on a thread pool), so
    the covered part is the length of the union of their intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered, lo, hi = 0.0, None, None
        for c_lo, c_hi in sorted(children.get(s.idx, ())):
            c_lo, c_hi = max(c_lo, s.start), min(c_hi, s.end)
            if c_hi <= c_lo:
                continue
            if hi is None or c_lo > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = c_lo, c_hi
            else:
                hi = max(hi, c_hi)
        if hi is not None:
            covered += hi - lo
        out[s.idx] = (s.end - s.start) - covered
    return out


#: (metric, unit) reported by a traced run, in BENCHMARK.json order
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("config.parse_s", "s"),
    ("charexp.calls", "count"),
    ("charexp.self_s", "s"),
    ("levy.paths", "count"),
    ("levy.marks", "count"),
    ("levy.self_s", "s"),
    ("levy.marks_per_s", "1/s"),
    ("levy.restrict_calls", "count"),
    ("levy.substream_calls", "count"),
    ("levy.jump_path_calls", "count"),
    ("cogarch.paths", "count"),
    ("cogarch.marks", "count"),
    ("cogarch.self_s", "s"),
    ("cogarch.marks_per_s", "1/s"),
    ("cogarch.queries", "count"),
    ("cogarch.query_points", "count"),
    ("cogarch.query_self_s", "s"),
    ("superpos.bundles", "count"),
    ("superpos.events", "count"),
    ("superpos.self_s", "s"),
    ("superpos.bundles_per_s", "1/s"),
    ("price.paths", "count"),
    ("price.jumps", "count"),
    ("price.self_s", "s"),
    ("price.queries", "count"),
    ("analysis.estimator_calls", "count"),
    ("analysis.estimator_samples", "count"),
    ("analysis.estimator_self_s", "s"),
    ("analysis.q_calls", "count"),
    ("analysis.q_samples", "count"),
    ("analysis.q_self_s", "s"),
    ("analysis.replications", "count"),
    ("analysis.replication_wall_s", "s"),
    ("analysis.replication_busy_s", "s"),
    ("analysis.replication_ms_p50", "ms"),
    ("analysis.replication_ms_p99", "ms"),
    *((f"verify.{f}_s", "s") for f in _FAMILIES),
    ("verify.self_s", "s"),
    ("cli.cmd_self_s", "s"),
    ("cli.csv_calls", "count"),
    ("cli.csv_rows", "count"),
    ("cli.csv_bytes", "bytes"),
    ("cli.csv_self_s", "s"),
    ("cli.csv_rows_per_s", "1/s"),
    ("cli.write_s", "s"),
    ("trace.spans", "count"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
)


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0.0 else 0.0


def span_metrics(names: list[str], raw_spans: list) -> dict[str, float]:
    """Per-layer metrics derived from one traced command (every PER_LAYER
    entry except the trace.* ones, which need the untraced run).

    ``*_self_s`` sums self times over a layer's spans.  ``*_per_s`` divides
    work by the inclusive duration of the spans that did it.
    """
    spans = [Span(*s) for s in raw_spans]
    selfs = self_times(spans)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[names[s.name]].append(s)

    def calls(name: str) -> int:
        return len(by_name[name])

    def n(name: str) -> int:
        return sum(s.n for s in by_name[name])

    def total(name: str) -> float:
        return sum(s.end - s.start for s in by_name[name])

    def self_s(*groups: str) -> float:
        return sum(selfs[s.idx] for g in groups for s in by_name[g])

    def layer_self(layer: str) -> float:
        return self_s(*(g for g in by_name if g.startswith(layer + ".")))

    reps = [(s.end - s.start) * 1e3 for s in by_name["analysis.replication"]]
    out = {
        "config.parse_s": total("config.parse"),
        "charexp.calls": calls("charexp.call"),
        "charexp.self_s": self_s("charexp.call"),
        "levy.paths": calls("levy.simulate"),
        "levy.marks": n("levy.simulate"),
        "levy.self_s": layer_self("levy"),
        "levy.marks_per_s": _rate(n("levy.simulate"), total("levy.simulate")),
        "levy.restrict_calls": calls("levy.restrict"),
        "levy.substream_calls": calls("levy.substream"),
        "levy.jump_path_calls": calls("levy.jump_path"),
        "cogarch.paths": calls("cogarch.recursion"),
        "cogarch.marks": n("cogarch.recursion"),
        "cogarch.self_s": self_s("cogarch.recursion"),
        "cogarch.marks_per_s": _rate(n("cogarch.recursion"), total("cogarch.recursion")),
        "cogarch.queries": calls("cogarch.query"),
        "cogarch.query_points": n("cogarch.query"),
        "cogarch.query_self_s": self_s("cogarch.query"),
        "superpos.bundles": calls("superpos.bundle"),
        "superpos.events": n("superpos.bundle"),
        "superpos.self_s": layer_self("superpos"),
        "superpos.bundles_per_s": _rate(calls("superpos.bundle"), total("superpos.bundle")),
        "price.paths": calls("price.simulate"),
        "price.jumps": n("price.simulate"),
        "price.self_s": layer_self("price"),
        "price.queries": calls("price.query"),
        "analysis.estimator_calls": calls("analysis.estimator"),
        "analysis.estimator_samples": n("analysis.estimator"),
        "analysis.estimator_self_s": self_s("analysis.estimator"),
        "analysis.q_calls": calls("analysis.q"),
        "analysis.q_samples": n("analysis.q"),
        "analysis.q_self_s": self_s("analysis.q"),
        "analysis.replications": calls("analysis.replication"),
        "analysis.replication_wall_s": total("analysis.run_replications"),
        "analysis.replication_busy_s": sum(reps) / 1e3,
        "analysis.replication_ms_p50": _percentile(reps, 50),
        "analysis.replication_ms_p99": _percentile(reps, 99),
        **{f"verify.{f}_s": total(f"verify.{f}") for f in _FAMILIES},
        "verify.self_s": layer_self("verify"),
        "cli.cmd_self_s": self_s("cli.cmd"),
        "cli.csv_calls": calls("cli.csv"),
        "cli.csv_rows": n("cli.csv"),
        "cli.csv_bytes": sum(s.m for s in by_name["cli.csv"]),
        "cli.csv_self_s": self_s("cli.csv"),
        "cli.csv_rows_per_s": _rate(n("cli.csv"), total("cli.csv")),
        "cli.write_s": total("cli.write"),
        "trace.spans": len(spans),
    }
    return out


def scale_times(metrics: dict[str, float], speed: float) -> dict[str, float]:
    """Times to seconds at the reference machine speed (see sampler.py);
    rates accordingly; counts unchanged."""
    units = dict(PER_LAYER)
    factor = {"s": speed, "ms": speed, "1/s": 1.0 / speed}
    return {k: v * factor.get(units[k], 1.0) for k, v in metrics.items()}


#: metrics that count work; two traced runs of one config must agree on them
COUNT_METRICS = tuple(name for name, unit in PER_LAYER if unit in ("count", "bytes"))
