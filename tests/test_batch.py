"""The batched replication engine against the serial path it replaces.

The oracles below are the per-replication closures the verify families ran
before the engine existed: one bundle or COGARCH per replication, built by
the frozen serial simulators of ``serial_oracle`` and queried through
``PathRecord`` and ``PricePath`` (the q family through the frozen serial
``extract_q``, ``jump_tally`` and ``check_q_bounds``).
``superpos.simulate_bundle`` is the engine at one replication, so it is
compared with the same oracle.  Every comparison is ``np.array_equal`` or
``==``: the engine must reproduce each number bit for bit, not
approximately.
"""

import math
import tracemalloc
from dataclasses import replace
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import serial_oracle
from serial_oracle import simulate_bundle, simulate_cogarch
from supcogarch import analysis, batch, cogarch, levy, superpos, verify
from supcogarch.analysis import check_q_bounds, extract_q, jump_tally, run_replications
from supcogarch.batch import simulate_batch
from supcogarch.cogarch import CogarchParams, NonStationaryError, default_burn_in
from supcogarch.config import ExperimentConfig
from supcogarch.levy import (
    CompoundPoisson, JumpDistribution, JumpPath, Stream, VarianceGamma, rng_from, simulate_levy_path,
    squared_jumps, substream, substreams,
)
from supcogarch.price import price_to_csv, simulate_price
from supcogarch.superpos import Mixture, Variant, bundle_to_csv

# ---------------------------------------------------------------------------
# oracles: the serial per-replication closures of the four verify families


def oracle_cogarch(cfg: ExperimentConfig, atom: int, lags: list[float]) -> np.ndarray:
    model = cfg.model()
    params = CogarchParams(cfg.beta, cfg.eta, cfg.phis[atom])
    burn = cfg.burn_in if cfg.burn_in is not None else serial_oracle.default_burn_in(params, model)
    start = serial_oracle.stationary_start(params, model)
    t_hi = max(lags) if lags else 1.0

    def one(rep: int) -> np.ndarray:
        seed = substream(cfg.seed, Stream.COGARCH, atom, rep)
        s = squared_jumps(simulate_levy_path(model, (-burn, t_hi), seed))
        rec = simulate_cogarch(params, s, start)
        return rec.values(np.array([0.0] + lags))

    return np.array(run_replications(one, cfg.replications))


def oracle_cross(cfg: ExperimentConfig, phi_a: float, phi_b: float, lags: list[float]) -> np.ndarray:
    mix = Mixture.from_atoms([(phi_a, 0.5), (phi_b, 0.5)])
    t_hi = max(lags) if lags else 1.0

    def one(rep: int) -> np.ndarray:
        bundle = simulate_bundle(
            Variant.SUP2, mix, cfg.beta, cfg.eta, cfg.model(), (0.0, t_hi),
            substream(cfg.seed, Stream.CROSS, rep), cfg.burn_in,
        )
        ca, cb = bundle.components
        return np.concatenate(([ca.v0, cb.v0], cb.values(np.array(lags))))

    return np.array(run_replications(one, cfg.replications))


def oracle_sup(cfg: ExperimentConfig, variant: Variant, vi: int, lags: list[float]) -> np.ndarray:
    t_hi = max(lags) if lags else 1.0

    def one(rep: int) -> np.ndarray:
        bundle = simulate_bundle(
            variant, cfg.mixture(), cfg.beta, cfg.eta, cfg.model(), (0.0, t_hi),
            substream(cfg.seed, Stream.SUP, vi, rep), cfg.burn_in,
        )
        return bundle.aggregate.values(np.array([0.0] + lags))

    return np.array(run_replications(one, cfg.replications))


def oracle_price(cfg: ExperimentConfig, variant: Variant, vi: int, r: float, hs: list[float]) -> np.ndarray:
    t_hi = (max(hs) if hs else 0.0) + r

    def one(rep: int) -> np.ndarray:
        bundle = simulate_bundle(
            variant, cfg.mixture(), cfg.beta, cfg.eta, cfg.model(), (0.0, t_hi),
            substream(cfg.seed, Stream.PRICE, vi, rep), cfg.burn_in,
        )
        gp = simulate_price(bundle)
        inc0 = gp.increment(0.0, r)
        incs = [gp.increment(h, r) for h in hs]
        vbar_r = bundle.aggregate.value_at(r)
        comps_r = [c.value_at(r) for c in bundle.components]
        return np.array([inc0, *incs, vbar_r, *comps_r])

    return np.array(run_replications(one, cfg.replications))


def oracle_q(cfg: ExperimentConfig, variant: Variant, vi: int) -> list[tuple]:
    mix = cfg.mixture()

    def one(rep: int) -> tuple:
        bundle = simulate_bundle(
            variant, mix, cfg.beta, cfg.eta, cfg.model(), (0.0, cfg.horizon),
            substream(cfg.seed, Stream.Q, vi, rep), cfg.burn_in,
        )
        gp = simulate_price(bundle)
        qs = serial_oracle.extract_q(bundle, gp)
        return qs, serial_oracle.jump_tally(bundle, gp), len(serial_oracle.check_q_bounds(qs, mix).violations)

    return run_replications(one, cfg.q_paths)


# ---------------------------------------------------------------------------
# cases

BASE = ExperimentConfig(phis=(0.12, 0.06), weights=(0.6, 0.4), replications=60, seed=20260810)

CASES = {
    "cp_default_burn": BASE,
    "cp_burn_set": replace(BASE, burn_in=6.0, seed=11),
    # rate 0.5 over a 0.1 burn-in: most replications have no burn-in marks
    "cp_no_burn_marks": replace(BASE, rate=0.5, burn_in=0.1, seed=12),
    # a 0.05 live window: most replications have no live marks
    "cp_no_live_marks": replace(BASE, burn_in=3.0, lags=(0.0, 0.05), increments=(0.02,), seed=13),
    "cp_lag_zero": replace(BASE, lags=(0.0, 1.0, 2.5), seed=14),
    "cp_heavy_atoms": replace(BASE, phis=(0.5, 0.95), weights=(0.75, 0.25), burn_in=20.0, seed=15),
    "vg_short": replace(
        BASE, model_kind="variance_gamma", sigma=1.0, nu=0.5, vg_grid_step=2.0**-4,
        burn_in=3.0, lags=(0.0, 1.0, 2.0), seed=16,
    ),
    "vg_default_burn": replace(
        BASE, model_kind="variance_gamma", sigma=0.5, nu=0.5, vg_grid_step=2.0**-2,
        lags=(1.0, 2.0), replications=30, seed=17,
    ),
}


def _lags(cfg: ExperimentConfig) -> list[float]:
    return sorted(set(cfg.lags))


@pytest.fixture(params=sorted(CASES))
def cfg(request) -> ExperimentConfig:
    return CASES[request.param]


def test_cogarch_family_matches_serial(cfg):
    lags = _lags(cfg)
    for atom in range(len(cfg.phis)):
        assert np.array_equal(verify._cogarch_samples(cfg, atom, lags), oracle_cogarch(cfg, atom, lags))


def test_cross_family_matches_serial(cfg):
    phi_a, phi_b = sorted(cfg.phis)[:2]
    lags = _lags(cfg)
    assert np.array_equal(verify._cross_samples(cfg, phi_a, phi_b, lags), oracle_cross(cfg, phi_a, phi_b, lags))


@pytest.mark.parametrize("variant", list(Variant))
def test_sup_family_matches_serial(cfg, variant):
    lags = _lags(cfg)
    assert np.array_equal(verify._sup_samples(cfg, variant, 1, lags), oracle_sup(cfg, variant, 1, lags))


@pytest.mark.parametrize("variant", list(Variant))
def test_price_family_matches_serial(cfg, variant):
    r = cfg.increments[0]
    hs = sorted({h for h in cfg.lags if h >= r})
    got = verify._price_samples(cfg, variant, 2, r, hs)
    assert np.array_equal(got, oracle_price(cfg, variant, 2, r, hs))


def test_cases_cover_empty_windows():
    """The edge cases above really give replications with no burn-in marks
    and with no live marks: counted on the shared driver that variant 2
    draws in the sup-family test."""
    def counts(cfg: ExperimentConfig) -> tuple[list[int], list[int]]:
        horizon = (-cfg.burn_in, max(cfg.lags))
        paths = [
            simulate_levy_path(cfg.model(), horizon, substream(cfg.seed, Stream.SUP, 1, rep, 0))
            for rep in range(cfg.replications)
        ]
        return [int(np.sum(p.times <= 0.0)) for p in paths], [int(np.sum(p.times > 0.0)) for p in paths]

    assert 0 in counts(CASES["cp_no_burn_marks"])[0]
    assert 0 in counts(CASES["cp_no_live_marks"])[1]


@pytest.mark.parametrize("variant", list(Variant))
def test_bundle_batch_matches_every_path(variant):
    """Beyond the family queries: every component, the aggregate and the
    price level agree with the serial bundle at event times, between
    events and at the window ends."""
    cfg = replace(BASE, phis=(0.0, 0.3, 0.7), weights=(0.2, 0.5, 0.3), burn_in=5.0, seed=21)
    mix, n, horizon = cfg.mixture(), 25, (0.0, 3.0)
    got = simulate_batch(variant, mix, cfg.beta, cfg.eta, cfg.model(), horizon, cfg.seed, (7, 3), n, cfg.burn_in)
    ts = np.linspace(0.0, 3.0, 13)
    for rep in range(n):
        bundle = simulate_bundle(
            variant, mix, cfg.beta, cfg.eta, cfg.model(), horizon, substream(cfg.seed, 7, 3, rep), cfg.burn_in,
        )
        price = simulate_price(bundle)
        events = np.concatenate([ts, bundle.aggregate.times])
        row = lambda a: a[rep: rep + 1]
        pairs = [(got.aggregate, bundle.aggregate)] + list(zip(got.components, bundle.components))
        for pb, rec in pairs:
            q = np.broadcast_to(events, (n, events.size))
            assert np.array_equal(pb.values(q)[rep], rec.values(events))
            assert np.array_equal(pb.left_limits(q)[rep], rec.left_limits(events))
            assert np.array_equal(row(pb.v0), [rec.v0])
        assert np.array_equal(got.price_levels(ts)[rep], price.values_at(ts))
        if variant is Variant.SUP1:
            for d in range(1, len(mix)):
                assert np.array_equal(got.price_levels(ts, d)[rep], simulate_price(bundle, d).values_at(ts))
        count = len(price)
        assert np.array_equal(got.driver_times[0][rep, :count], price.times)


#: few values, so that rows tie inside and across rows; +inf pads rows and
#: is a query (vbar_left ranks padded driver times)
_RANK_VALUES = st.one_of(st.integers(-4, 6).map(lambda k: k / 2.0), st.just(math.inf))


@st.composite
def _rank_cases(draw) -> tuple[np.ndarray, np.ndarray]:
    n, width, q = draw(st.integers(1, 5)), draw(st.integers(1, 9)), draw(st.integers(1, 9))
    row = st.lists(_RANK_VALUES, min_size=width, max_size=width)
    times = np.sort(np.array(draw(st.lists(row, min_size=n, max_size=n)), dtype=float), axis=1)
    if draw(st.booleans()):  # queries shared by every row, as _per_row broadcasts them
        return times, np.broadcast_to(np.array(draw(st.lists(_RANK_VALUES, min_size=q, max_size=q))), (n, q))
    queries = st.lists(st.lists(_RANK_VALUES, min_size=q, max_size=q), min_size=n, max_size=n)
    return times, np.array(draw(queries), dtype=float)


@settings(max_examples=300, deadline=None)
@given(_rank_cases())
@example((np.array([[1.0]]), np.array([[0.5, 1.0, 1.5, math.inf]])))  # one row of width 1
@example((np.array([[math.inf]]), np.array([[0.0, math.inf]])))  # a row with no mark
@example((np.array([[1.0, 1.0, 1.0], [1.0, 1.0, math.inf]]), np.array([[1.0, math.inf], [1.0, 0.5]])))
def test_rank_is_row_wise_searchsorted(case):
    """_rank's branchless search gives np.searchsorted's integers on both
    sides, row by row."""
    times, ts = case
    for side in ("left", "right"):
        want = np.array([np.searchsorted(t, q, side) for t, q in zip(times, ts)])
        assert np.array_equal(batch._rank(times, ts, side), want)


#: variant-1 cases (config, t1): rows with and without live marks, and VG
#: drivers that share their grid times
SUP1_CASES = {
    "cp": (replace(BASE, burn_in=4.0), 3.0),
    "cp_no_live_marks": (CASES["cp_no_live_marks"], 0.05),
    "vg_shared_times": (CASES["vg_short"], 1.0),
}


@pytest.mark.parametrize("case", [*SUP1_CASES, "empty_window"])
def test_sup1_aggregate_is_the_union_of_its_components(case):
    """Variant 1's aggregate, queried from its components, equals the
    materialised union (_union_aggregate) bit for bit: at mark times,
    between and before marks and at the window ends, at the drivers' marks
    (vbar_left, price levels), and in v0, t0, times, left and post."""
    if case == "empty_window":  # t1 == t0: the engine records no mark
        t0 = t1 = 0.0
        got = batch._bundles(
            Variant.SUP1, BASE.mixture(), BASE.beta, BASE.eta, BASE.model(), (t0, t1), 2.0, 5,
            lambda i: substreams(3, (), range(5), i),
        )
    else:
        cfg, t1 = SUP1_CASES[case]
        t0 = 0.0
        got = simulate_batch(
            Variant.SUP1, cfg.mixture(), cfg.beta, cfg.eta, cfg.model(), (t0, t1), cfg.seed, (2,), 12, cfg.burn_in,
        )
    union = batch._union_aggregate(got.aggregate.weights, got.components)
    counts = np.count_nonzero(np.isfinite(union.times), axis=1)
    if case == "vg_shared_times":  # the drivers share their grid: the union drops the repeats
        assert np.all(counts < sum(np.count_nonzero(np.isfinite(c.times), axis=1) for c in got.components))
    if case == "cp_no_live_marks":
        assert 0 in counts and counts.max() > 0
    marks = np.where(np.isfinite(union.times), union.times, t1)
    first = np.where(counts > 0, union.times[:, 0], t1)
    ts = np.column_stack([
        np.full(len(counts), t0), (t0 + first) / 2, marks, (marks[:, :-1] + marks[:, 1:]) / 2,
        np.nextafter(marks, -math.inf), np.full(len(counts), t1),
    ])
    ts = np.clip(ts, t0, t1)
    for query in ("values", "left_limits"):
        assert np.array_equal(getattr(got.aggregate, query)(ts), getattr(union, query)(ts))
    materialised = replace(got, aggregate=union)
    for d, times in enumerate(got.driver_times):
        valid = np.isfinite(times)
        assert np.array_equal(got.vbar_left(d)[valid], materialised.vbar_left(d)[valid])
        assert np.array_equal(got.price_levels(ts, d), materialised.price_levels(ts, d))
    for name in ("v0", "t0", "times", "left", "post"):
        assert np.array_equal(getattr(got.aggregate, name), getattr(union, name)), name


def test_sup1_queries_build_no_union(monkeypatch):
    """The engine's callers read variant 1's aggregate only through its
    queries, so the q, sup and price families never materialise the union;
    a single bundle's record does, once."""
    cfg, real = replace(CASES["cp_burn_set"], q_paths=20, replications=20), batch._union_aggregate

    def refuse(*args):
        raise AssertionError("the union was materialised")

    monkeypatch.setattr(batch, "_union_aggregate", refuse)
    verify.q_columns(cfg, Variant.SUP1, 0)
    verify._sup_samples(cfg, Variant.SUP1, 0, _lags(cfg))
    verify._price_samples(cfg, Variant.SUP1, 0, cfg.increments[0], _lags(cfg))
    calls = []
    monkeypatch.setattr(batch, "_union_aggregate", lambda *args: calls.append(args) or real(*args))
    superpos.simulate_bundle(Variant.SUP1, cfg.mixture(), cfg.beta, cfg.eta, cfg.model(), (0.0, 2.0), 4, 1.0)
    assert len(calls) == 1


BIG = 1 << 30
#: (ROWS_PER_CALL, _CHUNK_MARKS, the block width (_RANK_BLOCK and the
#: engine's MARK_BLOCK), the row-major crossover, rows): the engine's splits,
#: forced small
CHUNKING = {
    "several_calls": (7, BIG, 256, 1, None),
    "several_burn_in_chunks": (BIG, 2000, 256, 1, None),
    "scalar_burn_in": (BIG, 2000, 256, BIG, None),
    "rank_block_of_one": (BIG, BIG, 1, 1, None),
    # rows of about 45 burn-in marks: blocks end inside every row
    "short_rank_blocks": (BIG, BIG, 7, 1, None),
    # 129 rows: three calls of 43, each burned in as chunks of 14, 14 and 15
    # (800 marks take 15 or 16 of the rows of CASES, about 50 drawn marks
    # each; the q paths draw about 134, so a call takes nine chunks of 4 or 5)
    "uneven_split": (64, 800, 256, 1, 129),
}


def _force_chunking(monkeypatch, case) -> tuple[int | None, list[int]]:
    """The case's splits, and the list the rows of each burn-in chunk drawn
    are appended to."""
    rows, chunk_marks, rank_block, min_rows, n = CHUNKING[case]
    chunks: list[int] = []
    monkeypatch.setattr(batch, "run_replications", lambda fn, k: chunks.append(k) or run_replications(fn, k))
    monkeypatch.setattr(batch, "ROWS_PER_CALL", rows)
    monkeypatch.setattr(batch, "_CHUNK_MARKS", chunk_marks)
    monkeypatch.setattr(batch, "_RANK_BLOCK", rank_block)
    monkeypatch.setattr(batch, "MARK_BLOCK", rank_block)
    monkeypatch.setattr(batch, "_MIN_BATCH_ROWS", min_rows)
    return n, chunks


@pytest.mark.parametrize("case", list(CHUNKING))
def test_chunking_matches_serial(monkeypatch, case):
    """Several engine calls per family, several burn-in chunks per call
    (two of 30 replications), the row-major burn-in, rank blocks of one
    and of fewer ranks than a row's marks, and rows that split unevenly all
    give the serial numbers."""
    n, chunks = _force_chunking(monkeypatch, case)
    cfg = CASES["cp_default_burn"]
    cfg = cfg if n is None else replace(cfg, replications=n)
    lags = _lags(cfg)
    for variant in Variant:
        assert np.array_equal(verify._sup_samples(cfg, variant, 0, lags), oracle_sup(cfg, variant, 0, lags))
    assert np.array_equal(
        verify._price_samples(cfg, Variant.SUP1, 0, 1.0, lags[1:]), oracle_price(cfg, Variant.SUP1, 0, 1.0, lags[1:])
    )
    assert np.array_equal(verify._cross_samples(cfg, 0.06, 0.12, lags), oracle_cross(cfg, 0.06, 0.12, lags))
    assert np.array_equal(verify._cogarch_samples(cfg, 0, lags), oracle_cogarch(cfg, 0, lags))
    # rows of each burn-in chunk drawn, per family
    split = {"several_calls": [6, 7, 7] * 3, "several_burn_in_chunks": [30, 30], "scalar_burn_in": [30, 30],
             "uneven_split": [14, 14, 15] * 3}
    assert chunks == split.get(case, [60]) * (len(Variant) + 3)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 5000), st.integers(1, 600))
def test_parts_are_even_and_capped(n, cap):
    """The one split rule of engine calls, burn-in chunks and q calls: the
    fewest consecutive ranges of at most cap rows, one row apart at most."""
    parts = batch._parts(n, cap)
    assert [r for part in parts for r in part] == list(range(n))
    assert len(parts) == -(-n // cap)
    sizes = [len(part) for part in parts]
    assert all(0 < size <= cap for size in sizes)
    assert max(sizes, default=0) - min(sizes, default=0) <= 1


def _burn_in_peak(rows: int, marks: int) -> int:
    """Traced peak, above its inputs, of a burn-in of ``rows`` rows of about
    ``marks`` marks each on two states through _steps."""
    rng = np.random.default_rng(marks)
    times = np.cumsum(rng.exponential(1.0, (rows, marks)), axis=1)
    sizes = rng.standard_normal((rows, marks)) ** 2
    counts = marks - rng.integers(0, 50, rows)
    tracemalloc.start()
    try:
        batch._steps(
            1.0, 1.0, (0.05, 0.1), np.ones((2, rows)), None, np.zeros(rows), times, sizes, counts, None, False, None,
        )
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_padded_burn_in_scratch_does_not_grow_with_marks():
    """The engine builds its per-mark arrays one block of ranks at a time,
    so a burn-in of 64 rows (the rank-major stepper) through 16,000 marks a
    row needs less than twice the traced scratch, above its inputs, of one
    through 2,000 (eight times as much when the arrays spanned all marks)."""
    assert 64 >= batch._MIN_BATCH_ROWS
    assert _burn_in_peak(64, 16000) < 2 * _burn_in_peak(64, 2000)


def test_row_major_burn_in_scratch_does_not_grow_with_marks():
    """One row burns in on the row-major stepper, its block's Python lists
    bounded by MARK_BLOCK marks: through 16,000 marks it needs less than
    twice the traced scratch of one through 2,000."""
    assert 1 < batch._MIN_BATCH_ROWS
    assert _burn_in_peak(1, 16000) < 2 * _burn_in_peak(1, 2000)


def test_padded_burn_in_scratch_does_not_grow_with_rows():
    """Past 128 rows a block takes fewer ranks (16 MARK_BLOCK // rows), so a
    burn-in of 512 rows needs less than twice the traced scratch of one of
    128 (about four times as much with blocks of _RANK_BLOCK ranks)."""
    assert _burn_in_peak(512, 2000) < 2 * _burn_in_peak(128, 2000)


# ---------------------------------------------------------------------------
# simulate_bundle: the engine at one replication

ZERO_MIX = Mixture.from_atoms([(0.0, 0.2), (0.3, 0.5), (0.7, 0.3)])

BUNDLE_CASES = {
    "cp": (BASE.model(), BASE.mixture(), (0.0, 4.0)),
    "cp_zero_atom": (BASE.model(), ZERO_MIX, (0.0, 4.0)),
    "cp_shifted_window": (BASE.model(), ZERO_MIX, (2.5, 6.0)),
    "vg_zero_atom": (VarianceGamma(1.0, 0.5, grid_step=2.0**-4), ZERO_MIX, (0.0, 2.0)),
}


def assert_same_bundle(got: superpos.SupPathBundle, want: superpos.SupPathBundle) -> None:
    assert (got.variant, got.mixture, got.beta, got.eta) == (want.variant, want.mixture, want.beta, want.eta)
    for a, b in [(got.aggregate, want.aggregate), *zip(got.components, want.components, strict=True)]:
        assert (a.t0, a.t1, a.v0, a.beta, a.eta) == (b.t0, b.t1, b.v0, b.beta, b.eta)
        for field in ("times", "left", "post"):
            assert np.array_equal(getattr(a, field), getattr(b, field)), field
    for a, b in zip(got.drivers, want.drivers, strict=True):
        assert (a.t0, a.t1) == (b.t0, b.t1)
        assert np.array_equal(a.times, b.times) and np.array_equal(a.sizes, b.sizes)
    if want.chosen_phis is None:
        assert got.chosen_phis is None
    else:
        assert np.array_equal(got.chosen_phis, want.chosen_phis)
    assert bundle_to_csv(got, 0.25) == bundle_to_csv(want, 0.25)
    assert price_to_csv(simulate_price(got)) == price_to_csv(simulate_price(want))


@pytest.mark.parametrize("burn_in", [None, 2.5], ids=["default_burn", "burn_set"])
@pytest.mark.parametrize("case", sorted(BUNDLE_CASES))
@pytest.mark.parametrize("variant", list(Variant))
def test_simulate_bundle_matches_oracle(variant, case, burn_in):
    model, mix, horizon = BUNDLE_CASES[case]
    for seed in (7, 8, substream(41, 0), substream(41, 1)):
        want = simulate_bundle(variant, mix, 1.0, 1.0, model, horizon, seed, burn_in)
        assert_same_bundle(superpos.simulate_bundle(variant, mix, 1.0, 1.0, model, horizon, seed, burn_in), want)


@pytest.mark.parametrize("variant", list(Variant))
def test_simulate_bundle_empty_live_window(variant):
    """A 0.01 live window at rate 1: most bundles have no live mark."""
    empty = 0
    for i in range(12):
        args = (variant, ZERO_MIX, 1.0, 1.0, BASE.model(), (0.0, 0.01), substream(43, i), 3.0)
        want = simulate_bundle(*args)
        assert_same_bundle(superpos.simulate_bundle(*args), want)
        empty += len(want.aggregate) == 0
    assert empty > 0


@pytest.mark.parametrize("min_rows", [None, 1], ids=["scalar_recording", "padded_recording"])
def test_simulate_bundle_long_vg_row(monkeypatch, min_rows):
    """Thousands of marks in one row: burned in (and, for variant 3,
    recorded) on the row-major stepper, its components recorded by
    simulate_cogarch, and, forced onto the rank-major stepper, with the
    same numbers."""
    if min_rows is not None:
        monkeypatch.setattr(batch, "_MIN_BATCH_ROWS", min_rows)
    model, mix = VarianceGamma(1.0, 1.0), BASE.mixture()
    for vi, variant in enumerate(Variant):
        args = (variant, mix, 1.0, 0.5, model, (0.0, 10.0), substream(44, vi), 10.0)
        want = simulate_bundle(*args)
        assert len(want.aggregate) > 2000
        assert_same_bundle(superpos.simulate_bundle(*args), want)


def test_simulate_bundle_raises_as_the_oracle(monkeypatch):
    model, mix = BASE.model(), BASE.mixture()

    def outcome(sim, args):
        try:
            sim(*args)
        except Exception as exc:
            return type(exc), str(exc)
        return None

    def both(*args):
        want = outcome(simulate_bundle, args)
        assert want is not None and outcome(superpos.simulate_bundle, args) == want
        return want

    too_big = Mixture.from_atoms([(0.5, 0.5), (3.5, 0.5)])
    for variant in Variant:
        assert both(variant, too_big, 1.0, 1.0, model, (0.0, 5.0), 0)[0] is NonStationaryError
        assert both(variant, mix, 1.0, 1.0, model, (1.0, 1.0), 0) == (ValueError, "empty horizon [1.0, 1.0]")
        assert both(variant, mix, 1.0, 1.0, model, (1.0, 0.5), 0, 2.0) == (ValueError, "empty horizon [1.0, 0.5]")
        assert both(variant, mix, 1.0, 1.0, model, (0.0, 1.0), 0, 0.0) == (ValueError, "empty horizon [0.0, 0.0]")
    # a start below zero that a short burn-in cannot lift: simulate_cogarch's
    # check on the components of variants 1 and 2
    for module in (batch, serial_oracle):
        monkeypatch.setattr(module, "stationary_start", lambda params, model: -5.0)
    for variant in (Variant.SUP1, Variant.SUP2):
        kind, message = both(variant, mix, 1.0, 1.0, model, (0.0, 1.0), 0, 0.01)
        assert kind is ValueError and message.startswith("v0 must be > 0, got -")


def test_only_a_single_bundle_records_by_simulate_cogarch(monkeypatch):
    """The engine records through simulate_cogarch (looked up as
    batch.simulate_cogarch) only for one bundle of variant 1 or 2, one call
    a component, so tracing tools still time its cogarch.recursion span; a
    6-row batch of any variant and a single variant-3 bundle record on
    _steps."""
    real, calls = batch.simulate_cogarch, []
    monkeypatch.setattr(batch, "simulate_cogarch", lambda *args: calls.append(args) or real(*args))
    model, mix = BASE.model(), BASE.mixture()
    for vi, variant in enumerate(Variant):
        simulate_batch(variant, mix, 1.0, 1.0, model, (0.0, 5.0), 5, (vi,), 6, 10.0)
        assert calls == [], variant
        superpos.simulate_bundle(variant, mix, 1.0, 1.0, model, (0.0, 5.0), substream(5, vi), 10.0)
        assert len(calls) == (0 if variant is Variant.SUP3 else len(mix.phis)), variant
        calls.clear()


# ---------------------------------------------------------------------------
# both steppers against the serial loops

KERNEL_PHIS = (0.0, 0.3, 0.7)
#: driver and rate eta, stationary at every scale in KERNEL_PHIS
KERNEL_MODELS = {
    "cp": (CompoundPoisson(400.0), 400.0),
    # about half the grid increments fall below 2^-511 and are dropped
    "vg_dropped_marks": (VarianceGamma(1.0, 1.0, grid_step=2.0**-10), 0.8),
}


@pytest.mark.parametrize("min_rows", [1 << 30, 1], ids=["row_major", "rank_major"])
@pytest.mark.parametrize("model, eta", list(KERNEL_MODELS.values()), ids=list(KERNEL_MODELS))
def test_steppers_match_serial_loops(monkeypatch, model, eta, min_rows):
    """Rows of 0, 1 and 2 marks and of one below, at and one above the
    block length, forced onto the row-major or the rank-major stepper, ten
    rows at once and each row alone: burned in and relaxed to t_end, burned
    in and left at the last mark, and recorded, with and without variant
    3's aggregate, each number equal to the serial loops'.  The row-major
    record without an aggregate is the one every few-row component record
    takes (no other test reaches it)."""
    monkeypatch.setattr(batch, "_MIN_BATCH_ROWS", min_rows)
    block, n = batch.MARK_BLOCK, 10
    per_row = max(batch._RANK_BLOCK, block // n)  # the block length of ten rows at once
    counts = np.array([0, 1, 2, per_row - 1, per_row, per_row + 1, block - 1, block, block + 1, 2 * block + 3])
    beta, t_lo, t_hi = 1.3 * eta, -1.0, 14.0
    level = beta / eta
    drawn = [(p.times, p.sizes) for p in (simulate_levy_path(model, (t_lo, t_hi), substream(9, r)) for r in range(n))]
    assert all(len(ts) >= c for (ts, _), c in zip(drawn, counts))
    pad = lambda rows, fill: batch._stack([batch._pad(x, fill) for x in rows], fill)  # noqa: E731
    times = pad([ts[:c] for (ts, _), c in zip(drawn, counts)], math.inf)
    sizes = pad([ls[:c] ** 2 for (_, ls), c in zip(drawn, counts)], 0.0)
    rng = np.random.default_rng(10)
    picks = pad([rng.choice(3, size=c, p=[0.2, 0.5, 0.3]) for c in counts], 0).astype(int)
    v, vbar = rng.uniform(0.5, 2.0, (3, n)), rng.uniform(0.5, 2.0, n)
    t = t_lo - rng.uniform(0.0, 1e-3, n)
    gaps = np.diff(times[-1])
    assert gaps.max() > 1.5 * gaps.min()

    def check(rows: list[int], record: bool, t_end: float | None) -> None:
        args = (t[rows], times[rows], sizes[rows], counts[rows])
        comps = batch._steps(beta, eta, KERNEL_PHIS, v[:, rows], None, *args, None, record, t_end)
        joint = batch._steps(beta, eta, KERNEL_PHIS, v[:, rows], vbar[rows], *args, picks[rows], record, t_end)
        assert np.isfinite(joint[0]).all() and np.isfinite(joint[1]).all()
        for i, r in enumerate(rows):
            c, start = int(counts[r]), float(t[r])
            ts, ss = times[r, :c], sizes[r, :c]
            path = JumpPath(start, t_hi, ts, ss)
            want_v = []
            for a, phi in enumerate(KERNEL_PHIS):
                params = CogarchParams(beta, eta, phi)
                if record:
                    rec = simulate_cogarch(params, path, float(v[a, r]))
                    assert np.array_equal(comps[3].left[a, i, :c], rec.left)
                    assert np.array_equal(comps[3].post[a, i, :c], rec.post)
                elif t_end is None:
                    want_v.append(serial_oracle._evolve_marks(
                        eta, level, phi, float(v[a, r]), start, ts.tolist(), ss.tolist()))
                else:
                    want_v.append(serial_oracle.evolve_value(params, path, float(v[a, r]), start, t_end))
            if not record:
                assert np.array_equal(comps[0][:, i], want_v)
                assert comps[2][i] == (t_end if t_end is not None else ts[-1] if c else start)

            trail: list = []
            w_vbar, w_comps, w_t = serial_oracle._sup3_marks(
                eta, level, KERNEL_PHIS, float(vbar[r]), v[:, r].tolist(), start, ts.tolist(), ss.tolist(),
                picks[r, :c].tolist(), trail,
            )
            if record:
                cols = np.array(trail, dtype=float).reshape(c, 8).T
                rec3 = joint[3]
                assert np.array_equal(rec3.agg_left[i, :c], cols[0])
                assert np.array_equal(rec3.agg_post[i, :c], cols[1])
                assert np.array_equal(rec3.left[:, i, :c], cols[2:5])
                assert np.array_equal(rec3.post[:, i, :c], cols[5:])
                continue
            if t_end is not None:
                decay = math.exp(-eta * (t_end - w_t))
                w_vbar = level + (w_vbar - level) * decay
                w_comps = [level + (x - level) * decay for x in w_comps]
            assert np.array_equal(joint[1][i], w_vbar)
            assert np.array_equal(joint[0][:, i], w_comps)

    for record, t_end in [(False, t_hi), (False, None), (True, t_hi)]:
        check(list(range(n)), record, t_end)
        for r in range(n):
            check([r], record, t_end)


@pytest.mark.parametrize("record", [False, True], ids=["burn_in", "record"])
@pytest.mark.parametrize("phis, agg", [((0.3,), False), ((0.3, 0.7), False), ((0.3, 0.7), True)],
                         ids=["one_component", "two_components", "variant_3"])
def test_one_row_count_picks_the_stepper(monkeypatch, phis, agg, record):
    """_steps steps row by row below _MIN_BATCH_ROWS rows and rank by rank
    from there on, whatever it steps: one or two components or variant 3's
    aggregate, burned in or recorded."""
    taken: list[str] = []
    for name in ("_by_row", "_by_rank"):
        real = getattr(batch, name)
        monkeypatch.setattr(batch, name, lambda *args, _name=name, _real=real: taken.append(_name) or _real(*args))
    for n, want in [(batch._MIN_BATCH_ROWS - 1, "_by_row"), (batch._MIN_BATCH_ROWS, "_by_rank")]:
        taken.clear()
        batch._steps(
            1.0, 1.0, phis, np.ones((len(phis), n)), np.ones(n) if agg else None, np.zeros(n),
            np.tile(np.arange(1.0, 6.0), (n, 1)), np.full((n, 5), 0.01), np.full(n, 5),
            np.zeros((n, 5), int) if agg else None, record, None if record else 6.0,
        )
        assert taken and set(taken) == {want}, (n, taken)


# ---------------------------------------------------------------------------
# stationary draws: the tail family on the engine

STATIONARY_CASES = {
    # at least _MIN_BATCH_ROWS rows: burned in on the rank-major stepper
    "cp_padded": (CompoundPoisson(1.0), CogarchParams(1.0, 1.0, 0.5), 80, 80.0),
    # fewer than _MIN_BATCH_ROWS rows: the row-major stepper, whose
    # recording pass must be skipped on the empty live window
    "vg_scalar": (VarianceGamma(1.0, 1.0, grid_step=2.0**-6), CogarchParams(1.0, 0.05, 0.045), 20, 30.0),
    # phi = 0: every draw is the level beta/eta exactly
    "cp_phi_zero": (CompoundPoisson(1.0), CogarchParams(3.0, 2.0, 0.0), 40, 20.0),
}


@pytest.mark.parametrize("case", sorted(STATIONARY_CASES))
def test_stationary_draws_match_serial(case):
    """Draw r is the serial loop's V(0): from the stationary start at -b
    through the driver on (-b, 0] drawn from substream(seed, family, r)."""
    model, params, n, b = STATIONARY_CASES[case]
    got = verify.stationary_component_draws(params, model, 61, n, b, family=Stream.TAIL)
    start = serial_oracle.stationary_start(params, model)
    want = [
        serial_oracle.evolve_value(
            params, squared_jumps(simulate_levy_path(model, (-b, 0.0), substream(61, Stream.TAIL, r))), start, -b, 0.0,
        )
        for r in range(n)
    ]
    assert np.array_equal(got, want)
    if params.phi == 0.0:
        assert np.all(got == params.level)


@pytest.mark.parametrize("marks", [0, 1, batch.MARK_BLOCK, 2 * batch.MARK_BLOCK + 3])
def test_evolve_value_matches_serial_loop(marks):
    """cogarch.evolve_value and cogarch.simulate_cogarch, a one-row burn-in
    and record of batch._steps in blocks of MARK_BLOCK marks, have the
    serial loops' bits within and across blocks."""
    params = CogarchParams(1.0, 0.05, 0.045)
    drawn = squared_jumps(simulate_levy_path(VarianceGamma(1.0, 1.0, grid_step=2.0**-6), (-80.0, 0.0), 62))
    assert len(drawn) >= marks
    path = JumpPath(-80.0, 0.0, drawn.times[:marks], drawn.sizes[:marks])
    want = serial_oracle.evolve_value(params, path, 1.1, -80.0, 0.5)
    assert cogarch.evolve_value(params, path, 1.1, -80.0, 0.5) == want
    got, want = cogarch.simulate_cogarch(params, path, 1.1), serial_oracle.simulate_cogarch(params, path, 1.1)
    assert len(got) == marks
    assert np.array_equal(got.left, want.left) and np.array_equal(got.post, want.post)


def test_stationary_cases_cover_both_kernels():
    """One case burns in on the rank-major stepper, one on the row-major one
    (the one crossover of every kind, _MIN_BATCH_ROWS rows)."""
    assert STATIONARY_CASES["cp_padded"][2] >= batch._MIN_BATCH_ROWS
    assert STATIONARY_CASES["vg_scalar"][2] < batch._MIN_BATCH_ROWS


Q_CASES = {
    "two_atoms": replace(BASE, horizon=6.0, burn_in=4.0, q_paths=70, seed=31),
    # a 1-unit window at rate 1: about a third of the paths have no live marks
    "zero_atom": replace(BASE, phis=(0.0, 0.3, 0.7), weights=(0.2, 0.5, 0.3), horizon=1.0, q_paths=70, seed=32),
    "only_zero_atom": replace(BASE, phis=(0.0,), weights=(1.0,), horizon=2.0, burn_in=1.0, q_paths=20, seed=33),
    "vg_short": replace(CASES["vg_short"], horizon=2.0, q_paths=12),
}


def assert_q_matches_serial(cfg: ExperimentConfig, variant: Variant, vi: int) -> None:
    got = verify.q_columns(cfg, variant, vi)
    results = oracle_q(cfg, variant, vi)
    samples = [s for qs, _, _ in results for s in qs]
    assert np.array_equal(got.time, [s.time for s in samples])
    assert np.array_equal(got.q, [s.q for s in samples])
    if variant is Variant.SUP3:
        assert np.array_equal(got.chosen_phi, [s.chosen_phi for s in samples])
    else:
        assert got.chosen_phi is None
    for field in ("common", "vol_only", "price_only"):
        assert getattr(got.tally, field) == sum(getattr(t, field) for _, t, _ in results), field
    assert got.violations == sum(v for _, _, v in results)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("case", sorted(Q_CASES))
def test_q_columns_match_serial(case, variant):
    assert_q_matches_serial(Q_CASES[case], variant, 1)


def test_q_cases_cover_empty_windows_and_price_only_jumps():
    cfg = Q_CASES["zero_atom"]
    got = simulate_batch(
        Variant.SUP3, cfg.mixture(), cfg.beta, cfg.eta, cfg.model(), (0.0, cfg.horizon),
        cfg.seed, (Stream.Q, 1), cfg.q_paths, cfg.burn_in,
    )
    assert 0 in got.driver_counts[0]
    assert verify.q_columns(cfg, Variant.SUP3, 1).tally.price_only > 0
    assert verify.q_columns(cfg, Variant.SUP1, 1).tally.price_only > 0


@pytest.mark.parametrize("case", list(CHUNKING))
def test_q_chunking_matches_serial(monkeypatch, case):
    """q_columns splits its paths into engine calls by ROWS_PER_CALL, the
    one row cap of engine calls and burn-in chunks, read from batch at each
    call: the calls and the burn-in chunks split as the case says."""
    n, chunks = _force_chunking(monkeypatch, case)
    cfg = Q_CASES["zero_atom"]
    cfg = cfg if n is None else replace(cfg, q_paths=n)
    for variant in Variant:
        assert_q_matches_serial(cfg, variant, 0)
    split = {"several_calls": [7] * 10, "several_burn_in_chunks": [14] * 5, "scalar_burn_in": [14] * 5,
             "uneven_split": [4, 5, 5, 5, 4, 5, 5, 5, 5] * 3}
    assert chunks == split.get(case, [70]) * len(Variant)


def test_q_bound_violations_counted_as_serial(monkeypatch):
    """A negative slack makes the samples violate the bounds, so the
    batched count is compared on nonzero values."""
    monkeypatch.setattr(analysis, "_Q_BOUND_RTOL", -0.2)
    cfg = Q_CASES["two_atoms"]
    for variant in Variant:
        assert verify.q_columns(cfg, variant, 2).violations > 0
        assert_q_matches_serial(cfg, variant, 2)


@pytest.mark.parametrize("weights", [(0.2, 0.5, 0.3), (0.9, 0.05, 0.05)])
def test_q_bounds_hold_with_a_zero_atom(monkeypatch, weights):
    """V-bar >= V^phi holds path-wise for the smallest atom phi, not for the
    smallest positive one, so the lower bounds of variants 2 and 3 sit at 0
    when the mixture has a phi = 0 atom; a negative slack still breaks them."""
    cfg = replace(BASE, phis=(0.0, 0.3, 0.7), weights=weights, horizon=40.0, q_paths=50)
    for vi, variant in enumerate(Variant):
        got = verify.q_columns(cfg, variant, vi)
        assert got.violations == 0 and (variant is Variant.SUP1 or got.q.size), variant
    monkeypatch.setattr(analysis, "_Q_BOUND_RTOL", -0.2)
    for vi, variant in enumerate(Variant):
        if variant is not Variant.SUP1:
            assert verify.q_columns(cfg, variant, vi).violations > 0, variant


Q_ORACLE_MIXES = {
    "two_atoms": BASE.mixture(),
    "zero_atom": Mixture.from_atoms([(0.0, 0.2), (0.3, 0.5), (0.7, 0.3)]),
    "dirac": Mixture.dirac(0.5),
    "dirac_zero": Mixture.dirac(0.0),
}


@pytest.mark.parametrize("rtol", [analysis._Q_BOUND_RTOL, -0.2], ids=["slack", "negative_slack"])
@pytest.mark.parametrize("window", [0.5, 5.0, 40.0])
@pytest.mark.parametrize("mix", sorted(Q_ORACLE_MIXES))
def test_serial_q_matches_oracle(monkeypatch, mix, window, rtol):
    """extract_q, jump_tally and check_q_bounds on one bundle equal the
    frozen serial ones under ==, for every variant-1 driver atom too; the
    samples of all variants are also checked as one mixed list."""
    monkeypatch.setattr(analysis, "_Q_BOUND_RTOL", rtol)
    mixture = Q_ORACLE_MIXES[mix]
    samples, empty = [], 0
    for variant in Variant:
        for seed in range(3):
            bundle = superpos.simulate_bundle(variant, mixture, 1.0, 1.0, BASE.model(), (0.0, window), seed, 3.0)
            for atom in range(len(mixture)) if variant is Variant.SUP1 else [None]:
                gp = simulate_price(bundle, atom)
                qs = extract_q(bundle, gp)
                assert qs == serial_oracle.extract_q(bundle, gp)
                assert jump_tally(bundle, gp) == serial_oracle.jump_tally(bundle, gp)
                assert check_q_bounds(qs, mixture) == serial_oracle.check_q_bounds(qs, mixture)
                samples += qs
                empty += len(gp) == 0
    report = check_q_bounds(samples, mixture)
    assert report == serial_oracle.check_q_bounds(samples, mixture)
    if window == 0.5:
        assert empty  # a window with no live marks
    if window == 40.0 and rtol < 0.0 and mixture.phi_bar > 0.0:
        assert report.violations


def test_batch_keeps_the_serial_checks():
    cfg = BASE
    with pytest.raises(ValueError, match="empty horizon"):
        simulate_batch(Variant.SUP2, cfg.mixture(), 1.0, 1.0, cfg.model(), (0.0, 0.0), 1, (3,), 5)
    too_big = Mixture.from_atoms([(0.1, 0.5), (50.0, 0.5)])
    with pytest.raises(Exception, match="stationarity"):
        simulate_batch(Variant.SUP1, too_big, 1.0, 1.0, cfg.model(), (0.0, 1.0), 1, (3,), 5)


def test_every_entry_refuses_a_nonstationary_atom():
    """simulate_batch, simulate_bundle, simulate_cogarch_batch and
    stationary_draws refuse an atom beyond the stationarity boundary in one
    place, with one message naming the atom, with or without a burn-in."""
    model, phi = BASE.model(), 3.5
    params, mix = CogarchParams(1.0, 1.0, phi), Mixture.from_atoms([(0.1, 0.5), (phi, 0.5)])
    with pytest.raises(NonStationaryError) as want:
        serial_oracle._require_stationary(mix, 1.0, model)
    assert str(want.value).startswith(f"atom phi={phi} violates the stationarity condition")
    entries = {
        "simulate_batch": lambda b: simulate_batch(Variant.SUP2, mix, 1.0, 1.0, model, (0.0, 1.0), 1, (3,), 5, b),
        "simulate_bundle": lambda b: superpos.simulate_bundle(Variant.SUP3, mix, 1.0, 1.0, model, (0.0, 1.0), 1, b),
        "simulate_cogarch_batch": lambda b: batch.simulate_cogarch_batch(params, model, (0.0, 1.0), 1, (1,), 5, b),
        "stationary_draws": lambda b: batch.stationary_draws(params, model, b, 5, substreams(1, (2,), range(5))),
    }
    for name, entry in entries.items():
        for burn_in in (None, 2.0):
            with pytest.raises(NonStationaryError) as got:
                entry(burn_in)
            assert str(got.value) == str(want.value), (name, burn_in)


@pytest.mark.parametrize("phi", [0.12, 1.5], ids=["mean_exists", "mean_diverges"])
def test_burn_in_none_is_the_default_burn_in(phi):
    """burn_in=None gives the bits of an explicit default_burn_in and of the
    serial loops under the frozen start rules; at phi = 1.5 the mean
    diverges, so the burn-in runs at the Lyapunov rate from beta/eta, and a
    variant-3 aggregate with that atom starts at beta/eta too."""
    model, params, n = BASE.model(), CogarchParams(1.0, 1.0, phi), 6
    b = default_burn_in(params, model)
    assert b == serial_oracle.default_burn_in(params, model)
    start = serial_oracle.stationary_start(params, model)
    qs = np.linspace(0.0, 2.0, 9)
    got = batch.simulate_cogarch_batch(params, model, (0.0, 2.0), 5, (1,), n).values(qs)
    assert np.array_equal(got, batch.simulate_cogarch_batch(params, model, (0.0, 2.0), 5, (1,), n, b).values(qs))
    paths = [squared_jumps(simulate_levy_path(model, (-b, 2.0), substream(5, 1, r))) for r in range(n)]
    assert np.array_equal(got, [simulate_cogarch(params, s, start).values(qs) for s in paths])

    draws = batch.stationary_draws(params, model, None, n, substreams(5, (2,), range(n)))
    assert np.array_equal(draws, batch.stationary_draws(params, model, b, n, substreams(5, (2,), range(n))))
    paths = [squared_jumps(simulate_levy_path(model, (-b, 0.0), substream(5, 2, r))) for r in range(n)]
    assert np.array_equal(draws, [serial_oracle.evolve_value(params, s, start, -b, 0.0) for s in paths])

    mix = Mixture.from_atoms([(0.06, 0.5), (phi, 0.5)])
    got = simulate_batch(Variant.SUP3, mix, 1.0, 1.0, model, (0.0, 1.0), 5, (3,), n).aggregate.values(qs / 2)
    for r in range(n):
        want = simulate_bundle(Variant.SUP3, mix, 1.0, 1.0, model, (0.0, 1.0), substream(5, 3, r))
        assert np.array_equal(got[r], want.aggregate.values(qs / 2))


def test_engine_builds_no_substream_per_replication(monkeypatch):
    """The engine derives a call's streams in one pass (levy.substreams)."""
    calls = []

    def counted(*args):
        calls.append(args)
        return substream(*args)

    for module in (levy, superpos, verify, batch):
        if getattr(module, "substream", None) is substream:
            monkeypatch.setattr(module, "substream", counted)
    model, params, mix = BASE.model(), CogarchParams(1.0, 1.0, 0.1), BASE.mixture()
    for variant in Variant:
        simulate_batch(variant, mix, 1.0, 1.0, model, (0.0, 1.0), 3, (5,), 100, 2.0)
    batch.simulate_cogarch_batch(params, model, (0.0, 1.0), 3, (1,), 100, 2.0)
    verify.stationary_component_draws(params, model, 3, 100, 2.0)
    assert not calls
    superpos.simulate_bundle(Variant.SUP3, mix, 1.0, 1.0, model, (0.0, 1.0), 3, 2.0)
    assert calls  # a single bundle still draws from substream


@pytest.mark.parametrize("weights", [(1.0,), (0.4, 0.6), (0.2, 0.5, 0.3)])
@pytest.mark.parametrize("size", [0, 1, 1000])
def test_pick_draws_are_generator_choice(weights, size):
    """Variant 3's pi-draws repeat the p branch of numpy's Generator.choice;
    a numpy that changes it fails here instead of moving the bytes."""
    for i in range(3):
        want = np.random.default_rng(substream(19, i)).choice(len(weights), size=size, p=np.array(weights))
        u = np.random.default_rng(substream(19, i)).random(size)
        assert np.array_equal(batch._picks(weights)(u), want)


@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("model", [CompoundPoisson(1.0), VarianceGamma(1.0, 1.0, grid_step=0.25)], ids=["cp", "vg"])
def test_engine_rows_draw_the_raw_marks(monkeypatch, model, variant):
    """Each replication's raw marks, as the engine draws them into a
    chunk's padded arrays, are ``serial_oracle.raw_marks`` on
    ``np.random.default_rng`` of the row's stream bit for bit (+inf times
    and zero sizes past them), and variant 3's uniforms ``Generator.random``
    on its pi-draw stream, one a raw mark, zero past them, across calls and
    burn-in chunks that split unevenly."""
    n, chunks = _force_chunking(monkeypatch, "uneven_split")
    raws, uniforms = [], []
    tidy, pick = batch._tidy_marks, batch._picks
    monkeypatch.setattr(batch, "_tidy_marks", lambda m, t0, t1, times, sizes, counts: raws.append(
        (times.copy(), sizes.copy(), counts.copy())) or tidy(m, t0, t1, times, sizes, counts))
    monkeypatch.setattr(batch, "_picks", lambda w: lambda u, _p=pick(w): uniforms.append(u.copy()) or _p(u))
    mix = Mixture.from_atoms([(0.12, 0.6), (0.06, 0.4)])
    seed, key, first, b, t1 = 11, (4, 2), 3, 5.0, 2.0
    simulate_batch(variant, mix, 1.0, 1.0, model, (0.0, t1), seed, key, n, b, first)
    drivers = len(mix) if variant is Variant.SUP1 else 1
    assert len(chunks) > 1 and len(raws) == drivers * len(chunks) and sum(chunks) == n
    assert len(uniforms) == (len(chunks) if variant is Variant.SUP3 else 0)
    for j, (lo, rows) in enumerate(zip(accumulate(chunks, initial=first), chunks)):
        for d in range(drivers):
            times, sizes, counts = raws[drivers * j + d]  # chunk j's driver d, its raw marks padded
            assert len(counts) == rows
            for row, r in enumerate(range(lo, lo + rows)):
                rng = np.random.default_rng(substream(seed, *key, r, d))
                want_t, want_s = serial_oracle.raw_marks(model, -b, t1, rng)
                k = counts[row]
                assert k == want_t.size and np.isinf(times[row, k:]).all() and not sizes[row, k:].any()
                assert np.array_equal(times[row, :k], want_t) and np.array_equal(sizes[row, :k], want_s)
                if variant is Variant.SUP3:
                    u = uniforms[j][row]
                    assert np.array_equal(u[:k], np.random.default_rng(substream(seed, *key, r, 1)).random(k))
                    assert u.size == times.shape[1] and not u[k:].any()


@pytest.mark.parametrize("pi_draws", [False, True], ids=["drivers", "with_pi_draws"])
@pytest.mark.parametrize("model", [CompoundPoisson(45.0), VarianceGamma(1.0, 1.0, grid_step=0.02)], ids=["cp", "vg"])
def test_draws_hold_no_row_arrays(model, pi_draws):
    """A driver's chunk is drawn straight into its padded times and sizes
    (and variant 3's uniforms): the traced peak of the fill, above its
    generators, is about those arrays (no per-row arrays kept for a later
    copy, about 1.5 times as much when every row was drawn into its own
    arrays and then padded)."""
    count, fill = levy._drawer(model, -15.0, 5.0)  # about 900 marks a row
    rngs = [np.random.default_rng(substream(5, r)) for r in range(200)]
    pis = [np.random.default_rng(substream(6, r)) for r in range(200)] if pi_draws else ()
    counts = [count(rng) for rng in rngs]
    assert min(counts) < max(counts) if isinstance(model, CompoundPoisson) else counts[0] == 1000
    tracemalloc.start()
    try:
        times, sizes, u = levy._draws(fill, rngs, counts, pis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (u is not None) == pi_draws
    assert peak <= 1.1 * (times.nbytes + sizes.nbytes + (u.nbytes if pi_draws else 0))


def test_sup3_picks_take_one_byte():
    """Variant 3's atom picks are held in the smallest unsigned dtype of the
    atom count, uint8 for a few atoms (uint16 past 256), with the indices
    of the int64 CDF search; a single bundle's chosen-phi export is still
    ``Generator.choice(len(phis), k, p=weights)`` on its pi-draw stream
    ``substream(seed, 1)``, one draw a raw mark, at the live marks."""
    mix, model, b, seed = ZERO_MIX, CompoundPoisson(1.0), 3.0, 9
    got = simulate_batch(Variant.SUP3, mix, 1.0, 1.0, model, (0.0, 10.0), 5, (2,), 20, b)
    assert got.picks.dtype == np.uint8 and got.picks.max() == len(mix) - 1
    u = np.random.default_rng(4).random(1000)
    for n_atoms, dtype in ((3, np.uint8), (256, np.uint8), (257, np.uint16)):
        weights = np.random.default_rng(n_atoms).random(n_atoms)
        picks = batch._picks(tuple(weights / weights.sum()))(u)
        cdf = np.cumsum(weights / weights.sum())
        assert picks.dtype == dtype and np.array_equal(picks, (cdf / cdf[-1]).searchsorted(u, side="right"))
    bundle = superpos.simulate_bundle(Variant.SUP3, mix, 1.0, 1.0, model, (0.0, 10.0), seed, b)
    path = simulate_levy_path(model, (-b, 10.0), substream(seed, 0))
    k, live = len(path), np.count_nonzero(path.times > 0.0)
    drawn = np.random.default_rng(substream(seed, 1)).choice(len(mix), k, p=mix.weights)
    assert live > 5 and np.array_equal(bundle.chosen_phis, np.asarray(mix.phis)[drawn[k - live:]])


def test_engine_derives_the_streams_once_per_call(monkeypatch):
    """However many burn-in chunks a call draws, it derives its streams in
    one levy.substreams call per driver and one for the pi-draws."""
    calls, chunks = [], []
    monkeypatch.setattr(batch, "substreams", lambda *args: calls.append(args) or substreams(*args))
    monkeypatch.setattr(batch, "run_replications", lambda fn, n: chunks.append(n) or run_replications(fn, n))
    monkeypatch.setattr(batch, "_CHUNK_MARKS", 50)  # 2 rows a chunk: 21 marks a row and driver
    model, mix = BASE.model(), BASE.mixture()
    for variant, want in [(Variant.SUP1, 2), (Variant.SUP2, 1), (Variant.SUP3, 2)]:
        calls.clear(), chunks.clear()
        simulate_batch(variant, mix, 1.0, 1.0, model, (0.0, 1.0), 3, (5,), 40, 20.0)
        assert len(calls) == want and len(chunks) >= 20, variant
    calls.clear(), chunks.clear()
    batch.simulate_cogarch_batch(CogarchParams(1.0, 1.0, 0.1), model, (0.0, 1.0), 3, (1,), 40, 20.0)
    assert len(calls) == 1 and len(chunks) >= 20


# ---------------------------------------------------------------------------
# the tidy pass: a chunk's raw draws sorted and filtered at once


def _rounded_normal_moments() -> tuple[float, ...]:
    """E[Y^k], k = 1..4, of Y = round(Z), Z standard normal."""
    cdf = lambda x: 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))  # noqa: E731
    probs = {j: cdf(j + 0.5) - cdf(j - 0.5) for j in range(-12, 13)}
    return tuple(sum(p * j**k for j, p in probs.items()) for k in range(1, 5))


#: jump sizes that are 0 about 38% of the time
ROUNDED_NORMAL = JumpDistribution(
    "rounded_normal", lambda rng, n: np.round(rng.standard_normal(n)), _rounded_normal_moments()
)
PICK_WEIGHTS = (0.2, 0.5, 0.3)


def _engine_draws(model, t0: float, t1: float, seed: int, n: int):
    """The live window's lower end and the live marks and pi-picks of n
    variant-3 rows of ``simulate_batch`` that burn in for one ulp u, so that
    they draw on (t0, t1] exactly: row r draws its driver from
    ``substream(seed, r, 0)``, its pi-draws from ``substream(seed, r, 1)``.
    The scales are stationary on every driver of these tests."""
    u = math.ulp(max(abs(t0), 1.0))
    assert (t0 + u) - u == t0
    got = simulate_batch(
        Variant.SUP3, Mixture((0.0, 1e-20, 2e-20), PICK_WEIGHTS), 1.0, 1.0, model, (t0 + u, t1), seed, (), n, u
    )
    return t0 + u, got.driver_times[0], got.driver_sizes[0], got.driver_counts[0], got.picks


TIDY_CASES = {
    "zero_sizes": (CompoundPoisson(5.0, ROUNDED_NORMAL), (0.0, 4.0)),
    # about 450 doubles in the window for 40 uniforms a row: times tie
    "tied_times": (CompoundPoisson(4e14), (1.0, 1.0 + 1e-13)),
    # gamma shape 0.001: most increments underflow
    "vg_underflow": (VarianceGamma(1.0, 10.0, grid_step=0.01), (0.0, 0.5)),
}


@pytest.mark.parametrize("case", TIDY_CASES)
def test_tidy_pass_matches_the_per_row_draw(case):
    """The engine's padded marks and variant-3 pi-picks, tidied once per
    chunk, and the one-row draw of a single bundle equal the frozen
    per-row draw and Generator.choice, on rows that lose marks; the
    engine's on its live window.  The compound Poisson cases reach both
    ways of dropping ties: ``zero_sizes`` the running maximum over the kept
    times, ``tied_times`` (no zero size) the comparison with the time
    before."""
    model, (t0, t1) = TIDY_CASES[case]
    seed, n = 17, 12
    lo, times, sizes, counts, picks = _engine_draws(model, t0, t1, seed, n)
    lost = 0
    for r in range(n):
        want_t, want_s = serial_oracle.draw_marks(model, t0, t1, np.random.default_rng(substream(seed, r, 0)))
        want_pk = np.random.default_rng(substream(seed, r, 1)).choice(3, size=want_t.size, p=np.array(PICK_WEIGHTS))
        raw_t, _ = serial_oracle.raw_marks(model, t0, t1, np.random.default_rng(substream(seed, r, 0)))
        lost += raw_t.size - want_t.size
        keep, c = want_t > lo, int(counts[r])
        assert c == np.count_nonzero(keep)
        assert np.array_equal(times[r, :c], want_t[keep]) and np.isinf(times[r, c:]).all()
        assert np.array_equal(sizes[r, :c], want_s[keep]) and not sizes[r, c:].any()
        assert np.array_equal(picks[r, :c], want_pk[keep]) and not picks[r, c:].any()
        one = simulate_levy_path(model, (t0, t1), substream(seed, r, 0))
        assert np.array_equal(one.times, want_t) and np.array_equal(one.sizes, want_s)
    assert lost > 0


def test_a_chunk_that_keeps_no_mark():
    """Sizes all 0: every row keeps nothing, on the engine and on one path
    (the per-row rule before the tidy pass raised IndexError on such a row)."""
    zero = CompoundPoisson(5.0, JumpDistribution("zero", lambda rng, n: 0.0 * rng.standard_normal(n), (0.0,) * 8))
    _, times, sizes, counts, picks = _engine_draws(zero, 0.0, 4.0, 17, 6)
    assert not counts.any() and times.shape == (6, 1) and np.isinf(times).all() and not sizes.any()
    with pytest.raises(IndexError):
        serial_oracle.draw_marks(zero, 0.0, 4.0, np.random.default_rng(substream(17, 0, 0)))
    path = simulate_levy_path(zero, (0.0, 4.0), substream(17, 0, 0))
    assert path.times.size == 0 and path.sizes.size == 0


def test_a_draw_on_t0_moves_to_t1_on_both_routes():
    """A uniform that rounds to t0 is the reflection of one on t1: a single
    path and the engine draw the same marks, all in (t0, t1] (the engine's
    on its live window)."""
    model, (t0, t1) = CompoundPoisson(5e16), (1.0, 1.0 + 1e-13)  # 5000 uniforms a row, a few on t0
    n = 4
    lo, times, sizes, counts, _ = _engine_draws(model, t0, t1, 3, n)
    on_t0 = 0
    for r in range(n):
        u = serial_oracle.raw_marks(model, t0, t1, np.random.default_rng(substream(3, r, 0)))[0]
        on_t0 += np.count_nonzero(t0 + (t1 - t0) * u == t0)
        path = simulate_levy_path(model, (t0, t1), substream(3, r, 0))
        live, c = path.restrict(lo, t1), int(counts[r])
        assert np.array_equal(times[r, :c], live.times) and np.array_equal(sizes[r, :c], live.sizes)
        assert ((path.times > t0) & (path.times <= t1)).all() and path.times[-1] == t1
    assert on_t0 > 0


@pytest.mark.parametrize("n", [0, 1, 7, 1000])
def test_generator_random_fills_in_stream_order(n):
    """The engine draws a row's pi uniforms for all its raw marks and keeps
    the first kept_count; a numpy whose Generator.random(n)[:k] is not
    Generator.random(k) fails here instead of moving the bytes."""
    for k in sorted({0, n // 3, n}):
        head = np.random.default_rng(substream(5, n)).random(n)[:k]
        assert np.array_equal(head, np.random.default_rng(substream(5, n)).random(k))


@pytest.mark.parametrize("entry", ["simulate_batch", "simulate_cogarch_batch", "stationary_draws"])
def test_engine_needs_one_replication(entry):
    model, params, mix = BASE.model(), CogarchParams(1.0, 1.0, 0.1), BASE.mixture()
    calls = {
        "simulate_batch": lambda: simulate_batch(Variant.SUP2, mix, 1.0, 1.0, model, (0.0, 1.0), 1, (3,), 0),
        "simulate_cogarch_batch": lambda: batch.simulate_cogarch_batch(params, model, (0.0, 1.0), 1, (1,), 0, 1.0),
        "stationary_draws": lambda: batch.stationary_draws(
            params, model, 5.0, 0, []
        ),
    }
    with pytest.raises(ValueError, match="n=0"):
        calls[entry]()


def test_mark_invariants_are_checked():
    times = np.array([[0.5, 1.0, np.inf], [0.2, 0.2, 0.9]])
    with pytest.raises(ValueError, match="strictly increasing"):
        batch._check_marks(times, np.array([2, 3]), 0.0, 1.0)
    with pytest.raises(ValueError, match=r"\(t0, t1\]"):
        batch._check_marks(times, np.array([2, 1]), 0.5, 1.0)
    batch._check_marks(times, np.array([2, 1]), 0.0, 1.0)


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 12),
    t_hi=st.floats(0.05, 3.0),
    burn=st.floats(0.05, 8.0),
    phi_a=st.floats(0.0, 0.4),
    gap=st.floats(0.05, 0.5),
    p_a=st.floats(0.1, 0.9),
    variant=st.sampled_from(list(Variant)),
)
def test_batch_equals_serial_property(seed, n, t_hi, burn, phi_a, gap, p_a, variant):
    mix = Mixture.from_atoms([(phi_a, p_a), (phi_a + gap, 1.0 - p_a)])
    model = BASE.model()
    got = simulate_batch(variant, mix, 1.0, 1.0, model, (0.0, t_hi), seed, (3, 0), n, burn)
    ts = np.array([0.0, t_hi / 3.0, t_hi])
    want_agg, want_g = [], []
    for rep in range(n):
        bundle = simulate_bundle(variant, mix, 1.0, 1.0, model, (0.0, t_hi), substream(seed, 3, 0, rep), burn)
        want_agg.append(bundle.aggregate.values(ts))
        want_g.append(simulate_price(bundle).values_at(ts))
    assert np.array_equal(got.aggregate.values(ts), np.array(want_agg))
    assert np.array_equal(got.price_levels(ts), np.array(want_g))


def test_run_replications_ignores_threads():
    fn = lambda i: rng_from(5, i).standard_normal(3).tolist()
    serial = run_replications(fn, 20)
    assert all(run_replications(fn, 20, threads=t) == serial for t in (1, 2, 8))


def test_verify_samples_ignore_threads():
    cfg = CASES["cp_burn_set"]
    lags = _lags(cfg)
    want = verify._sup_samples(cfg, Variant.SUP3, 0, lags)
    assert np.array_equal(verify._sup_samples(replace(cfg, threads=4), Variant.SUP3, 0, lags), want)


def test_stream_ids_are_distinct_and_pinned():
    """The ids are part of every output's bytes: qstats and the verify q
    family share Q = 5, simulate uses 0."""
    ids = [int(s) for s in Stream]
    assert len(set(ids)) == len(ids)
    assert Stream.SIMULATE == 0 and Stream.Q == 5
