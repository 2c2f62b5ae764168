"""The batched replication engine against the serial path it replaces.

The oracles below are the per-replication closures the verify families ran
before the engine existed: one ``simulate_bundle`` / ``simulate_cogarch``
per replication, queried through ``PathRecord`` and ``PricePath``.  Every
comparison is ``np.array_equal``: the engine must reproduce each number bit
for bit, not approximately.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supcogarch import analysis, batch, verify
from supcogarch.analysis import check_q_bounds, extract_q, jump_tally, run_replications
from supcogarch.batch import simulate_batch
from supcogarch.cogarch import CogarchParams, default_burn_in, simulate_cogarch, stationary_mean
from supcogarch.config import ExperimentConfig
from supcogarch.levy import Stream, rng_from, simulate_levy_path, squared_jumps, substream
from supcogarch.price import simulate_price
from supcogarch.superpos import Mixture, Variant, simulate_bundle

# ---------------------------------------------------------------------------
# oracles: the serial per-replication closures of the four verify families


def oracle_cogarch(cfg: ExperimentConfig, atom: int, lags: list[float], mean: float) -> np.ndarray:
    model = cfg.model()
    params = CogarchParams(cfg.beta, cfg.eta, cfg.phis[atom])
    burn = cfg.burn_in if cfg.burn_in is not None else default_burn_in(params, model)
    t_hi = max(lags) if lags else 1.0

    def one(rep: int) -> np.ndarray:
        seed = substream(cfg.seed, Stream.COGARCH, atom, rep)
        s = squared_jumps(simulate_levy_path(model, (-burn, t_hi), seed))
        rec = simulate_cogarch(params, s, mean)
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
        qs = extract_q(bundle, gp)
        return qs, jump_tally(bundle, gp), len(check_q_bounds(qs, mix).violations)

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
    for atom, phi in enumerate(cfg.phis):
        mean = stationary_mean(CogarchParams(cfg.beta, cfg.eta, phi), cfg.model())
        got = verify._cogarch_samples(cfg, atom, lags, mean)
        assert np.array_equal(got, oracle_cogarch(cfg, atom, lags, mean))


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
        count = len(price)
        assert np.array_equal(got.driver_times[rep, :count], price.times)


@pytest.mark.parametrize(
    "rows, chunk_marks, min_rows",
    [(7, 1 << 30, 1), (1 << 30, 2000, 1), (1 << 30, 2000, 1 << 30)],
    ids=["several_calls", "several_burn_in_chunks", "scalar_burn_in"],
)
def test_chunking_matches_serial(monkeypatch, rows, chunk_marks, min_rows):
    """Several engine calls per family, several burn-in chunks per call
    (about 40 replications each) and the scalar burn-in loops all give the
    serial numbers."""
    monkeypatch.setattr(batch, "ROWS_PER_CALL", rows)
    monkeypatch.setattr(batch, "_CHUNK_MARKS", chunk_marks)
    monkeypatch.setattr(batch, "_MIN_BATCH_STEPS", min_rows)
    monkeypatch.setattr(batch, "_MIN_BATCH_ROWS_SUP3", min_rows)
    cfg = CASES["cp_default_burn"]
    lags = _lags(cfg)
    for variant in Variant:
        assert np.array_equal(verify._sup_samples(cfg, variant, 0, lags), oracle_sup(cfg, variant, 0, lags))
    assert np.array_equal(
        verify._price_samples(cfg, Variant.SUP1, 0, 1.0, lags[1:]), oracle_price(cfg, Variant.SUP1, 0, 1.0, lags[1:])
    )
    assert np.array_equal(verify._cross_samples(cfg, 0.06, 0.12, lags), oracle_cross(cfg, 0.06, 0.12, lags))
    mean = stationary_mean(CogarchParams(cfg.beta, cfg.eta, cfg.phis[0]), cfg.model())
    assert np.array_equal(verify._cogarch_samples(cfg, 0, lags, mean), oracle_cogarch(cfg, 0, lags, mean))


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


@pytest.mark.parametrize(
    "rows, chunk_marks, min_rows",
    [(7, 1 << 30, 1), (1 << 30, 200, 1), (1 << 30, 200, 1 << 30)],
    ids=["several_calls", "several_burn_in_chunks", "scalar_burn_in"],
)
def test_q_chunking_matches_serial(monkeypatch, rows, chunk_marks, min_rows):
    monkeypatch.setattr(verify, "_Q_ROWS_PER_CALL", rows)
    monkeypatch.setattr(batch, "_CHUNK_MARKS", chunk_marks)
    monkeypatch.setattr(batch, "_MIN_BATCH_STEPS", min_rows)
    monkeypatch.setattr(batch, "_MIN_BATCH_ROWS_SUP3", min_rows)
    for variant in Variant:
        assert_q_matches_serial(Q_CASES["zero_atom"], variant, 0)


def test_q_bound_violations_counted_as_serial(monkeypatch):
    """A negative slack makes the samples violate the bounds, so the
    batched count is compared on nonzero values."""
    monkeypatch.setattr(analysis, "_Q_BOUND_RTOL", -0.2)
    cfg = Q_CASES["two_atoms"]
    for variant in Variant:
        assert verify.q_columns(cfg, variant, 2).violations > 0
        assert_q_matches_serial(cfg, variant, 2)


def test_batch_keeps_the_serial_checks():
    cfg = BASE
    with pytest.raises(ValueError, match="empty horizon"):
        simulate_batch(Variant.SUP2, cfg.mixture(), 1.0, 1.0, cfg.model(), (0.0, 0.0), 1, (3,), 5)
    too_big = Mixture.from_atoms([(0.1, 0.5), (50.0, 0.5)])
    with pytest.raises(Exception, match="stationarity"):
        simulate_batch(Variant.SUP1, too_big, 1.0, 1.0, cfg.model(), (0.0, 1.0), 1, (3,), 5)
    with pytest.raises(ValueError, match="v0 must be > 0"):
        batch.simulate_cogarch_batch(CogarchParams(1.0, 1.0, 0.1), cfg.model(), (0.0, 1.0), 0.0, 1, (1,), 5, 1.0)


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
