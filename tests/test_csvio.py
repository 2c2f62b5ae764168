"""The shared CSV writer: byte equality of the column-wise path exporters
with the scalar per-cell exporters they replaced, the formatting identity
the writer rests on, and the exactness and scratch of its numeric kernel."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supcogarch.cogarch import CogarchParams, evolve_value, path_to_csv, simulate_cogarch
from supcogarch import csvio
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


@pytest.mark.parametrize("t0, t1, step, n", [
    (0.0, 20000.0, 2.0, 10000),  # t1 + 1e-12 == t1: arange alone stops at 19,998
    (0.0, 30.0, 0.1, 300),  # arange's 300th point is 30.000000000000004, past t1
    (-3.0, 30.0, 0.1, 330),
    (0.0, 50.0, 0.5, 100),
    (0.0, 1.2, 0.5, 2),  # not a whole number of steps: t1 is not a point
    (0.0, 0.3, 0.5, 0),
])
def test_export_grid_ends_at_t1_exactly(t0, t1, step, n):
    grid = csvio.export_grid(t0, t1, step)
    assert grid.size == n and np.all(grid <= t1) and np.all(np.diff(grid) > 0.0)
    # every point but a last t1 is np.arange's, so grids that already ended at t1 keep their bytes
    assert np.array_equal(grid[: n - 1], np.arange(t0 + step, t1 + 2.0 * step, step)[: max(n - 1, 0)])
    if n and math.isclose((t1 - t0) / step, n):
        assert grid[-1] == t1


@pytest.mark.parametrize("t1, step", [(20000.0, 2.0), (30.0, 0.1)])
def test_exports_end_at_t1(t1, step):
    """Neither export stops short of t1 nor queries past it."""
    rec = simulate_cogarch(CogarchParams(1.0, 1.0, 0.5), JumpPath(0.0, t1, [t1 / 3], [0.5]), 1.0)
    last = lambda text: float(text.rstrip("\n").rsplit("\n", 1)[1].split(",")[0])
    assert last(path_to_csv(rec, step)) == t1
    assert last(bundle_to_csv(_bundle(Variant.SUP2, CP, (0.0, t1), 3, 1.0), step)) == t1


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 40), max_size=30), st.lists(st.integers(0, 40), max_size=30))
def test_off_events_is_the_isin_filter(grid, events):
    """The export grid filter is numpy's float np.isin filter, on event
    times that are ascending, empty or repeated."""
    grid, events = np.array(grid, float) / 8, np.sort(np.array(events, float)) / 8
    assert np.array_equal(csvio.off_events(grid, events), grid[~np.isin(grid, events)])


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


# ---------------------------------------------------------------------------
# the numeric kernel behind columns_to_csv against the G17 row template


def assert_kernel_exact(values, ncols=1):
    """columns_to_csv prints ``values`` (as ``ncols`` columns, row-major)
    byte for byte as the ``csv_text`` row template does."""
    table = np.asarray(values, dtype=float).reshape(-1, ncols)
    want = csv_text("x", ",".join([G17] * ncols), map(tuple, table.tolist()))
    assert columns_to_csv("x", *table.T) == want


def _bits(words):
    return np.asarray(words, dtype=np.uint64).view(np.float64)


POWERS = np.array([float(f"1e{k}") for k in range(-323, 309)])
AROUND_POWERS = _bits(POWERS.view(np.uint64)[:, None] + np.arange(-16, 17).astype(np.uint64)).ravel()
SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.2250738585072009e-308,
           2.2250738585072014e-308, 1.7976931348623157e308, 1.0, 0.5, 1e16, 1e17, 1e-4, 1e-5]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=2, max_size=64))
def test_kernel_matches_template_on_bit_patterns(words):
    assert_kernel_exact(_bits(words))
    assert_kernel_exact(_bits(words[: len(words) // 2 * 2]), 2)


def test_kernel_matches_template_around_powers_of_ten():
    """16 ulps either side of every float("1e{k}"), both signs: the cells
    where floor(log10|x|) or the digit count can be off by one."""
    assert_kernel_exact(np.concatenate([AROUND_POWERS, -AROUND_POWERS]), 3)


def test_kernel_matches_template_on_special_and_subnormal_values():
    rng = np.random.default_rng(0)
    subnormal = _bits(rng.integers(1, 2**52, 2000, dtype=np.uint64))
    assert_kernel_exact(np.concatenate([SPECIAL, subnormal, -subnormal]), 2)


def test_kernel_matches_template_on_ties_and_exact_values():
    """Exact decimal ties at the 17th digit (a 15-digit integer plus an odd
    eighth; odd multiples of 2^-25 and 2^-k), which G17 rounds half to even,
    and exact 17-digit values (a 16-digit integer below 2^52 plus one half)."""
    rng = np.random.default_rng(1)
    n15 = rng.integers(10**14, 10**15, 500).astype(float)
    n16 = rng.integers(10**15, 2**52, 500).astype(float)
    dyadic = [m * 2.0**k for k in range(-120, 120) for m in (1, 3, 5, 7)]
    assert_kernel_exact(np.concatenate([n15 + 0.125, n15 + 0.375, n15 + 0.875, n16 + 0.5, dyadic]), 2)


def test_kernel_matches_template_on_vg_grid_times():
    assert_kernel_exact(np.arange(100 * 256 + 1) * 2.0**-8)


def test_kernel_on_empty_and_single_rows():
    assert columns_to_csv("a,b", np.array([]), np.array([])) == "a,b\n"
    assert_kernel_exact([math.pi, -1e-300])
    assert_kernel_exact([math.pi, -1e-300], 2)
    assert columns_to_csv("a,b,c", [2.5], None, [0.0]) == "a,b,c\n2.5,,0\n"
    with pytest.raises(ValueError):
        columns_to_csv("a,b", [1.0, 2.0], [1.0])


@pytest.mark.parametrize("layout", ["N..", ".N.", "..N", "NN.", ".NN", "N.N."])
def test_none_columns_print_empty_cells(layout):
    """None columns first, in the middle, last and side by side print empty
    cells, each numeric cell ``G17`` of its value, across several chunks of
    the kernel (which formats the numeric columns only)."""
    rng = np.random.default_rng(len(layout))
    rows = 3 * csvio._CHUNK // len(layout) + 5
    cols = [None if c == "N" else rng.standard_normal(rows) * 10.0 ** rng.integers(-20, 20, rows) for c in layout]
    next(c for c in cols if c is not None)[:3] = 0.0, -0.0, 1.0  # the kernel's fallback and its old placeholder
    want = ["h", *(",".join("" if c is None else G17 % c[r] for c in cols) for r in range(rows)), ""]
    assert columns_to_csv("h", *cols).split("\n") == want


@pytest.mark.parametrize("shift", [-0.25, 0.25])
def test_kernel_falls_back_where_log10_is_off_by_one(monkeypatch, shift):
    """E comes from float64 log10.  Where E is one too small or too large,
    s leaves [1e16, 1e17 - 1) and the cell falls back: shifting log10 by a
    quarter moves E by one on about a quarter of all cells."""
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: log10(a) + shift)
    rng = np.random.default_rng(3)
    assert_kernel_exact(np.concatenate([AROUND_POWERS, rng.standard_normal(4000) * 10.0 ** rng.integers(-9, 9, 4000)]))


def test_kernel_fallback_alone_prints_the_same(monkeypatch):
    """Without a 64-bit long double significand every cell is printed by
    G17 itself."""
    rng = np.random.default_rng(2)
    values = np.concatenate([SPECIAL, rng.standard_normal(3000) * 10.0 ** rng.integers(-30, 30, 3000)])
    monkeypatch.setattr(csvio, "_EXACT", False)
    assert_kernel_exact(values, 2)


@pytest.mark.skipif(not csvio._EXACT, reason="long double has less than a 64-bit significand")
def test_kernel_scale_table_is_correctly_rounded():
    """Each table entry is 64 10^(16-E) to within 2^-64 relative, the rounding
    the kernel's error bound assumes."""
    for e, entry in zip(range(csvio._E0, 309), csvio._tables()[0]):
        exact = Fraction(10) ** (16 - e) * 64
        assert abs(Fraction(*entry.as_integer_ratio()) / exact - 1) <= Fraction(1, 2**64)


def _csv_scratch(rows: int) -> int:
    """Traced peak of columns_to_csv on ``rows`` x 4 columns above its
    inputs and twice its text: at the end the text is held as its chunks and
    as their join."""
    columns = list(np.random.default_rng(rows).standard_normal((4, rows)))
    tracemalloc.start()
    try:
        text = columns_to_csv("a,b,c,d", *columns)
        return tracemalloc.get_traced_memory()[1] - 2 * len(text)
    finally:
        tracemalloc.stop()


def test_kernel_scratch_does_not_grow_with_rows():
    """The kernel formats one chunk of cells at a time: four times the rows
    add less than 1 MiB of scratch, where one table-sized float array alone
    would add 4.6 MiB."""
    assert _csv_scratch(200_000) < _csv_scratch(50_000) + 2**20
