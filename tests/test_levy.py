import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import serial_oracle
from supcogarch import levy
from supcogarch.levy import (
    CompoundPoisson,
    JumpDistribution,
    JumpPath,
    VarianceGamma,
    jump_path_to_csv,
    l_moments,
    s_moments,
    simulate_levy_path,
    squared_jumps,
    substream,
    substreams,
)

CPP = CompoundPoisson(1.0)
VG = VarianceGamma(1.0, 1.0)


def test_model_validation():
    with pytest.raises(ValueError):
        CompoundPoisson(0.0)
    with pytest.raises(ValueError):
        VarianceGamma(0.0, 1.0)
    with pytest.raises(ValueError):
        VarianceGamma(1.0, -1.0)


def test_custom_jump_distribution_requires_four_moments():
    with pytest.raises(ValueError):
        JumpDistribution("short", lambda rng, n: rng.standard_normal(n), (0.0, 1.0, 0.0))
    four = JumpDistribution("four", lambda rng, n: rng.standard_normal(n), (0.0, 1.0, 0.0, 3.0))
    assert [four.moment(k) for k in range(5)] == [1.0, 0.0, 1.0, 0.0, 3.0]


def test_determinism_bit_identical():
    a = simulate_levy_path(CPP, (0.0, 50.0), 1234)
    b = simulate_levy_path(CPP, (0.0, 50.0), 1234)
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.sizes, b.sizes)
    c = simulate_levy_path(VG, (0.0, 3.0), 99)
    d = simulate_levy_path(VG, (0.0, 3.0), 99)
    assert np.array_equal(c.times, d.times) and np.array_equal(c.sizes, d.sizes)


def test_substream_is_order_free():
    direct = simulate_levy_path(CPP, (0.0, 10.0), substream(7, 3))
    again = simulate_levy_path(CPP, (0.0, 10.0), substream(7, 3))
    other = simulate_levy_path(CPP, (0.0, 10.0), substream(7, 4))
    assert np.array_equal(direct.times, again.times)
    assert not np.array_equal(direct.times, other.times)


_WORDS = st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**70))
_SEEDS = st.one_of(
    st.sampled_from([0, 2**32 - 1, 2**32, 2**64 - 1, -1, -(2**63), -(2**64) - 5]),
    st.integers(-(2**70), 2**70),
    st.builds(
        lambda entropy, key: np.random.SeedSequence(entropy, spawn_key=tuple(key)),
        st.one_of(st.integers(0, 2**140), st.lists(st.integers(0, 2**40), min_size=1, max_size=6)),
        st.lists(_WORDS, max_size=3),
    ),
)


@settings(max_examples=150, deadline=None)
@given(
    seed=_SEEDS,
    key=st.lists(_WORDS, max_size=3),
    first=st.one_of(st.integers(0, 50), st.integers(2**32 - 4, 2**32 + 2), st.integers(2**32, 2**64 - 8)),
    n=st.integers(1, 6),
    suffix=st.lists(_WORDS, max_size=2),
)
def test_substreams_are_substream(seed, key, first, n, suffix):
    rows = range(first, first + n)
    for r, s in zip(rows, substreams(seed, tuple(key), rows, *suffix), strict=True):
        want = substream(seed, *key, r, *suffix).generate_state(4, np.uint64)
        assert np.array_equal(s.generate_state(4, np.uint64), want)


def test_substreams_over_several_row_blocks():
    """Words are derived in blocks of 4096 rows; rows across a block edge
    and across 2**32 (one key word, then two) are each their substream."""
    rows = range(2**32 - 5000, 2**32 + 100)
    got = substreams(3, (2,), rows, 1)
    assert len(got) == len(rows) and len(got[4090:4100]) == 10
    for r, s in zip(rows, got, strict=True):
        assert np.array_equal(s.generate_state(4, np.uint64), substream(3, 2, r, 1).generate_state(4, np.uint64))


@pytest.mark.parametrize("model", [CPP, VarianceGamma(1.0, 1.0, grid_step=0.25)], ids=["cp", "vg"])
def test_substreams_draw_the_substream_marks(model):
    for r, s in zip(range(3, 9), substreams(11, (4, 2), range(3, 9), 1)):
        want = simulate_levy_path(model, (0.0, 20.0), substream(11, 4, 2, r, 1))
        got = serial_oracle.draw_marks(model, 0.0, 20.0, np.random.default_rng(s))
        assert len(got[0]) and all(np.array_equal(a, b) for a, b in zip(got, (want.times, want.sizes)))


def test_a_long_vg_path_holds_few_path_arrays():
    """A single path is the engine's draw at one row.  On a long variance
    gamma path that loses marks to underflow (about 6% of them at nu = 1,
    half at nu = 4), its traced peak is about three grid-length arrays: the
    times and sizes, and the fill's one scratch, the cell shapes, into which
    the second gamma array is drawn.  The drawer keeps no grid, and the tidy
    compacts the one row's kept marks in place by blocks of 2**14.  The
    slack is half an array for numpy's check of the gamma shapes (three
    boolean arrays) and 512 KiB for a block's index and gathered marks.
    The drawer that kept its grid edges and cell shapes, with a tidy that
    gathered the kept marks into new arrays, peaked at five."""
    grid = 510 * 2**8
    for nu, fewest in ((1.0, 110_000), (4.0, 60_000)):
        tracemalloc.start()
        try:
            path = simulate_levy_path(VarianceGamma(1.0, nu), (-480.0, 30.0), substream(20260810, 0, 0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fewest < len(path) < grid  # the tidy dropped some of the grid's increments
        assert peak <= 3.5 * 8 * grid + 2**19


def test_vg_drawer_holds_no_array():
    """The variance gamma drawer, built once per engine call, holds scalars
    only: each fill writes its grid edges into the row's times."""
    count, fill = levy._drawer(VarianceGamma(1.0, 0.5), -8000.0, 40.0)
    cells = [cell.cell_contents for f in (count, fill) for cell in f.__closure__ or ()]
    assert cells and not any(isinstance(x, np.ndarray) for x in cells)
    times, sizes = np.empty(count(None)), np.empty(count(None))
    fill(np.random.default_rng(3), times, sizes)
    assert times[-1] == 40.0 and np.array_equal(times[:-1], -8000.0 + 2.0**-8 * np.arange(1, times.size))


@pytest.mark.parametrize("rows, width, drop", [(1, 200_003, 70_001), (5, 30_000, 7), (3, 1, 0)])
def test_rows_of_one_kept_length_are_compacted_in_place(rows, width, drop):
    """When every row keeps as many marks, the tidy writes them over the
    drawn arrays from their start (across blocks of 2**14 entries and row
    ends): the result is ``a[keep]`` row by row, in the drawn buffers."""
    rng = np.random.default_rng(width)
    times = np.cumsum(rng.random((rows, width)), axis=1)
    sizes = rng.standard_normal((rows, width))
    for r in range(rows):
        sizes[r, rng.choice(width, drop, replace=False)] = 2.0**-600 * rng.choice([-1.0, 1.0], drop)
    keep = np.abs(sizes) > 2.0**-511
    want_t, want_s = times[keep].reshape(rows, -1), sizes[keep].reshape(rows, -1)
    got_t, got_s, kept = levy._tidy_marks(VG, 0.0, math.inf, times, sizes, np.full(rows, width))
    assert np.array_equal(got_t, want_t) and np.array_equal(got_s, want_s)
    assert kept.tolist() == [width - drop] * rows
    assert drop == 0 or np.shares_memory(got_t, times) and np.shares_memory(got_s, sizes)


def test_substreams_answer_only_the_pcg64_request():
    [s] = substreams(5, (1,), [0])
    for args in [(4,), (4, np.uint32), (8, np.uint64), (2, np.uint64)]:
        with pytest.raises(ValueError, match="generate_state"):
            s.generate_state(*args)


#: (t0, t1, n): negative t0, the burn-in start -800, wide, narrow, no draw
UNIFORM_WINDOWS = [(-20.0, 5.0, 400), (-800.0, 40.0, 400), (-1e6, 3e6, 400), (1.0, 1.0 + 1e-13, 400), (0.0, 1.0, 0)]


@pytest.mark.parametrize("t0, t1, n", UNIFORM_WINDOWS)
def test_uniform_is_the_mapped_random(t0, t1, n):
    """The compound Poisson draw takes ``Generator.random`` uniforms and
    maps them to t0 + (t1 - t0) u in ``levy._tidy_marks``; that equals
    ``Generator.uniform(t0, t1, n)`` bit for bit because numpy's
    ``random_uniform`` computes ``low + range * next_double`` with range =
    high - low, two IEEE operations that its X86_V2 baseline build (no FMA)
    does not contract into one.  A numpy or platform that rounds otherwise
    fails here by name instead of moving the output bytes."""
    for seed in (0, 1, 7, 2013, 2**40 + 3):
        want = np.random.default_rng(substream(seed, 3)).uniform(t0, t1, n)
        got = np.random.default_rng(substream(seed, 3)).random(n)
        assert np.array_equal(want, t0 + (t1 - t0) * got)


@pytest.mark.parametrize("nu", [0.5, 4.0])
def test_gamma_is_the_scaled_standard_gamma(nu):
    """The variance gamma fill draws ``Generator.standard_gamma(shape,
    out=buf)`` and scales it in place; that equals ``Generator.gamma(shape,
    scale)`` bit for bit because numpy's ``random_gamma`` is ``scale *
    random_standard_gamma`` on the same stream, element by element, also
    when ``buf`` is the shape array itself (the second draw of a fill).
    The cell shapes here end with a short cell, as a grid's last one."""
    t0, t1, step, scale = -3.0, 7.3, 2.0**-8, 0.7 * math.sqrt(nu / 2.0)
    edges = t0 + step * np.arange(1, math.ceil((t1 - t0) / step) + 1)
    edges[-1] = t1
    shape = np.diff(edges, prepend=t0) / nu
    assert shape[-1] < 0.9 * shape[0]
    for seed in (0, 1, 7, 2013, 2**40 + 3):
        want = np.random.Generator(np.random.PCG64(seed))
        first, second = want.gamma(shape, scale), want.gamma(shape, scale)
        rng, buf, cells = np.random.Generator(np.random.PCG64(seed)), np.empty_like(shape), shape.copy()
        assert np.array_equal(np.multiply(rng.standard_gamma(shape, out=buf), scale, out=buf), first)
        assert np.array_equal(np.multiply(rng.standard_gamma(cells, out=cells), scale, out=cells), second)


def test_poisson_count_matches_rate():
    # horizon length 100, 1000 seeds: mean count within 3*sqrt(100/1000)*sqrt(100)
    counts = [len(simulate_levy_path(CPP, (0.0, 100.0), s)) for s in range(1000)]
    assert abs(np.mean(counts) - 100.0) < 3.0 * math.sqrt(100.0 / 1000.0) * math.sqrt(100.0)


def test_tiny_horizon_gives_empty_path():
    path = simulate_levy_path(CPP, (0.0, 1e-9), 5)
    assert len(path) == 0
    assert squared_jumps(path).times.size == 0


def test_empty_horizon_rejected():
    with pytest.raises(ValueError):
        simulate_levy_path(CPP, (1.0, 1.0), 0)
    with pytest.raises(ValueError):
        JumpPath(0.0, 0.0, np.array([]), np.array([]))


def test_squared_jumps_pointwise():
    path = JumpPath(0.0, 4.0, np.array([1.0, 3.5]), np.array([-2.0, 0.5]))
    sq = squared_jumps(path)
    assert np.array_equal(sq.times, path.times)
    assert np.allclose(sq.sizes, [4.0, 0.25], rtol=0, atol=0)


@given(st.lists(st.tuples(st.floats(0.01, 9.99),
                          st.floats(-5, 5).filter(lambda x: abs(x) > 1e-150)),
                unique_by=lambda p: p[0], min_size=0, max_size=30))
def test_squared_jumps_preserves_marks(pairs):
    pairs.sort()
    times = np.array([t for t, _ in pairs])
    sizes = np.array([s for _, s in pairs])
    path = JumpPath(0.0, 10.0, times, sizes)
    sq = squared_jumps(path)
    assert len(sq) == len(path)
    assert np.array_equal(sq.times, path.times)
    assert np.all(sq.sizes > 0.0)


def test_s_moments_closed_forms():
    assert s_moments(CompoundPoisson(1.0)) == (1.0, 3.0)
    assert s_moments(CompoundPoisson(2.0)) == (2.0, 6.0)
    m1, m2 = s_moments(VG)
    assert m1 == pytest.approx(1.0) and m2 == pytest.approx(3.0)


def test_l_moments_closed_forms():
    e2, e4, third = l_moments(CompoundPoisson(1.0))
    assert e2 == 1.0 and third == 0.0
    assert e4 == pytest.approx(3.0 + 3.0 * 1.0**2)
    e2, _, third = l_moments(VG)
    assert e2 == pytest.approx(1.0) and third == 0.0


def test_empirical_l1_mean_is_zero():
    total = 0.0
    n = 10_000
    for s in range(n):
        total += simulate_levy_path(CPP, (0.0, 1.0), substream(42, s)).sizes.sum()
    # Var[L_1] = 1 for this driver
    assert abs(total / n) < 4.0 / math.sqrt(n)


def test_empirical_s1_mean_matches_m1():
    m1, m2 = s_moments(CPP)
    s1 = np.array(
        [squared_jumps(simulate_levy_path(CPP, (0.0, 1.0), substream(7, s))).sizes.sum()
         for s in range(10_000)]
    )
    se = s1.std(ddof=1) / math.sqrt(s1.size)
    assert abs(s1.mean() - m1) < 4.0 * se


def test_vg_marks_follow_grid():
    path = simulate_levy_path(VG, (0.0, 1.0), 3)
    # one mark per grid increment, minus the occasional underflowing one
    assert 200 <= len(path) <= 256
    grid = set((2.0**-8 * np.arange(1, 257)).tolist())
    assert set(path.times.tolist()) <= grid
    assert np.all(squared_jumps(path).sizes > 0.0)


def test_vg_s1_moments_and_grid_halving():
    # analytic grid bias of the fourth-moment estimate is 3*sigma^4*step < 1%
    assert 3.0 * VG.sigma**4 * VG.grid_step / s_moments(VG)[1] < 0.01

    def estimates(model, n, horizon, base):
        m1s, m2s = [], []
        for s in range(n):
            sq = squared_jumps(simulate_levy_path(model, (0.0, horizon), substream(base, s)))
            m1s.append(sq.sizes.sum() / horizon)
            m2s.append((sq.sizes**2).sum() / horizon)
        return np.array(m1s), np.array(m2s)

    m1a, m2a = estimates(VG, 300, 20.0, 11)
    fine = VarianceGamma(1.0, 1.0, grid_step=VG.grid_step / 2.0)
    m1b, m2b = estimates(fine, 300, 20.0, 12)

    m1, m2 = s_moments(VG)
    for sample, target in ((m1a, m1), (m1b, m1), (m2a, m2), (m2b, m2)):
        se = sample.std(ddof=1) / math.sqrt(sample.size)
        assert abs(sample.mean() - target) < 5.0 * se
    # halving the grid moves the estimates by less than 1% plus joint noise
    for a, b in ((m1a, m1b), (m2a, m2b)):
        joint_se = math.sqrt(a.var(ddof=1) / a.size + b.var(ddof=1) / b.size)
        assert abs(a.mean() - b.mean()) < 0.01 * abs(a.mean()) + 5.0 * joint_se


def test_csv_export_format():
    path = JumpPath(0.0, 2.0, np.array([0.5, 1.5]), np.array([1.0, -0.25]))
    text = jump_path_to_csv(path)
    lines = text.strip().split("\n")
    assert lines[0] == "time,size"
    assert lines[1] == "0.5,1"
    assert lines[2] == "1.5,-0.25"
    t = 1.0 / 3.0
    text = jump_path_to_csv(JumpPath(0.0, 1.0, np.array([t]), np.array([t])))
    assert f"{t:.17g}" in text


def test_negative_seed_accepted():
    path = simulate_levy_path(CPP, (0.0, 5.0), -17)
    again = simulate_levy_path(CPP, (0.0, 5.0), -17)
    assert np.array_equal(path.times, again.times)
