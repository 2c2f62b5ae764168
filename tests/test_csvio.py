"""The shared CSV writer: byte equality of the column-wise path exporters
with the scalar per-cell exporters they replaced, and the formatting
identity the writer rests on."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supcogarch.cogarch import CogarchParams, evolve_value, path_to_csv, simulate_cogarch
from supcogarch.csvio import G17, columns_to_csv, csv_text
from supcogarch.levy import CompoundPoisson, JumpPath, VarianceGamma, squared_jumps
from supcogarch.superpos import Mixture, Variant, bundle_to_csv, simulate_bundle

MIX = Mixture.from_atoms([(0.5, 0.75), (0.95, 0.25)])
CP = CompoundPoisson(1.0)
# marks on the grid k/8, so every export grid point of step 0.5 is an event
VG = VarianceGamma(1.0, 0.5, grid_step=0.125)


def scalar_bundle_to_csv(bundle, grid_step=None):
    """The per-cell exporter the column-wise one replaced, kept as an oracle."""
    fmt = lambda x: format(float(x), ".17g")
    agg = bundle.aggregate
    header = ["time", "aggregate"] + [f"component_{phi:g}" for phi in bundle.mixture.phis]
    query = [(agg.t0, False)]
    if grid_step is not None:
        event_set = set(agg.times.tolist())
        for t in np.arange(agg.t0 + grid_step, agg.t1 + 1e-12, grid_step).tolist():
            if t not in event_set:
                query.append((t, False))
    for t in agg.times.tolist():
        query.append((t, True))
    query.sort(key=lambda q: q[0])
    lines = [",".join(header)]
    for t, is_event in query:
        if is_event:
            k = int(np.searchsorted(agg.times, t))
            row_l = [fmt(t), fmt(agg.left[k])]
            row_p = [fmt(t), fmt(agg.post[k])]
            for c in bundle.components:
                row_l.append(fmt(c.left_limit_at(t)))
                row_p.append(fmt(c.value_at(t)))
            lines.append(",".join(row_l))
            lines.append(",".join(row_p))
        else:
            row = [fmt(t), fmt(agg.value_at(t))]
            for c in bundle.components:
                row.append(fmt(c.value_at(t)))
            lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def scalar_path_to_csv(record, grid_step=None):
    """The row-sorting exporter the column-wise one replaced, kept as an oracle."""
    rows = [(record.t0, record.v0, 0)]
    if grid_step is not None:
        grid = np.arange(record.t0 + grid_step, record.t1 + 1e-12, grid_step)
    else:
        grid = np.array([record.t1])
    gvals = record.values(grid)
    event_set = set(record.times.tolist())
    for t, v in zip(grid.tolist(), gvals.tolist()):
        if t not in event_set:
            rows.append((t, v, 0))
    for t, vl, vp in zip(record.times.tolist(), record.left.tolist(), record.post.tolist()):
        rows.append((t, vl, 1))
        rows.append((t, vp, 1))
    rows.sort(key=lambda r: r[0])
    lines = ["time,value,is_jump"]
    fmt = lambda x: format(float(x), ".17g")
    for t, v, j in rows:
        lines.append(f"{fmt(t)},{fmt(v)},{j}")
    return "\n".join(lines) + "\n"


def _bundle(variant, model, horizon, seed, burn_in):
    return simulate_bundle(variant, MIX, 1.0, 1.0, model, horizon, seed, burn_in)


@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("grid_step", [None, 0.5, 0.3])
def test_bundle_csv_matches_scalar_exporter(variant, grid_step):
    bundle = _bundle(variant, CP, (0.0, 12.0), 31, 20.0)
    assert len(bundle.aggregate) > 0
    assert bundle_to_csv(bundle, grid_step) == scalar_bundle_to_csv(bundle, grid_step)
    for c in bundle.components:
        assert path_to_csv(c, grid_step) == scalar_path_to_csv(c, grid_step)


@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("grid_step", [None, 0.5])
def test_bundle_csv_matches_scalar_exporter_when_grid_hits_events(variant, grid_step):
    bundle = _bundle(variant, VG, (1.0, 4.0), 5, 2.0)
    grid = np.arange(1.5, 4.0 + 1e-12, 0.5)
    assert np.isin(grid, bundle.aggregate.times).any()
    assert bundle.aggregate.times[-1] == 4.0  # path_to_csv drops its t1 row
    assert bundle_to_csv(bundle, grid_step) == scalar_bundle_to_csv(bundle, grid_step)
    for c in bundle.components:
        assert path_to_csv(c, grid_step) == scalar_path_to_csv(c, grid_step)


@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("grid_step", [None, 0.25])
def test_bundle_csv_matches_scalar_exporter_without_events(variant, grid_step):
    bundle = _bundle(variant, CompoundPoisson(1e-3), (0.0, 1.0), 2, 5.0)
    assert len(bundle.aggregate) == 0
    text = bundle_to_csv(bundle, grid_step)
    assert text == scalar_bundle_to_csv(bundle, grid_step)
    assert len(text.splitlines()) == (2 if grid_step is None else 6)
    for c in bundle.components:
        assert path_to_csv(c, grid_step) == scalar_path_to_csv(c, grid_step)


def test_lean_burn_in_matches_recording_recursion():
    params = CogarchParams(1.0, 1.0, 0.9)
    rng = np.random.default_rng(4)
    times = np.sort(rng.uniform(-50.0, 0.0, 400))
    s = squared_jumps(JumpPath(-50.0, 0.0, times, rng.standard_normal(400)))
    record = simulate_cogarch(params, s, 1.3)
    v, t = record.post[-1], record.times[-1]
    expected = params.level + (v - params.level) * math.exp(-params.eta * (0.0 - t))
    assert evolve_value(params, s, 1.3, -50.0, 0.0) == expected


def test_writer_templates():
    assert columns_to_csv("a,b", [0.1, 2.0], np.array([1, -0.0])) == (
        "a,b\n0.10000000000000001,1\n2,-0\n"
    )
    assert columns_to_csv("a", []) == "a\n"
    assert csv_text("n,x,ok", f"%s,{G17},%s", [("r", 1 / 3, True)]) == (
        "n,x,ok\nr,0.33333333333333331,True\n"
    )


@settings(max_examples=2000)
@given(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
def test_g17_template_matches_format(x):
    assert G17 % x == format(x, ".17g")


@settings(max_examples=2000)
@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_g17_template_matches_format_on_bit_patterns(bits):
    x = float(np.array(bits, dtype=np.uint64).view(np.float64))
    assert G17 % x == format(x, ".17g")
