import math

import numpy as np
import pytest

from supcogarch import charexp, verify
from supcogarch.analysis import grouped_jackknife
from supcogarch.cogarch import MomentDivergesError, _try
from supcogarch.config import ExperimentConfig
from supcogarch.levy import CompoundPoisson
from supcogarch.price import (
    PRICE_MOMENTS,
    increment_autocov,
    increment_mean_and_variance,
    lag_kernel,
    price_to_csv,
    simulate_price,
    sq_increment_cov_closed,
    sq_increment_cov_sup3,
    sq_increment_vol_cov,
)
from supcogarch.superpos import Mixture, Variant, simulate_bundle

MODEL = CompoundPoisson(1.0)
FIG_MIX = Mixture.from_atoms([(0.5, 0.75), (0.95, 0.25)])
MOMENT_MIX = Mixture.from_atoms([(0.5, 0.6), (0.2, 0.4)])


def _bundle(variant, mix=FIG_MIX, seed=1, horizon=(0.0, 40.0)):
    return simulate_bundle(variant, mix, 1.0, 1.0, MODEL, horizon, seed)


def test_price_jump_identity():
    for variant in Variant:
        b = _bundle(variant)
        gp = simulate_price(b)
        driver = b.drivers[gp.driver_atom or 0]
        lhs = gp.deltas**2
        rhs = gp.vbar_left * driver.sizes**2
        assert np.allclose(lhs, rhs, rtol=1e-12)
        assert gp.value_at(b.aggregate.t0) == 0.0


def test_sup2_price_jumps_match_volatility_jumps():
    b = _bundle(Variant.SUP2)
    gp = simulate_price(b)
    assert len(gp) == len(b.aggregate)
    assert np.array_equal(gp.times, b.aggregate.times)


def test_sup1_price_jumps_fewer_than_volatility_jumps():
    b = _bundle(Variant.SUP1)
    gp = simulate_price(b)
    assert len(gp) == len(b.drivers[0])
    assert len(gp) < len(b.aggregate)


def test_sup1_driver_atom_selection():
    b = _bundle(Variant.SUP1)
    g0 = simulate_price(b, driver_atom=0)
    g1 = simulate_price(b, driver_atom=1)
    assert len(g0) == len(b.drivers[0])
    assert len(g1) == len(b.drivers[1])
    with pytest.raises(ValueError):
        simulate_price(b, driver_atom=2)
    with pytest.raises(ValueError):
        simulate_price(_bundle(Variant.SUP2), driver_atom=1)


def test_empty_driver_gives_zero_price():
    b = simulate_bundle(Variant.SUP2, MOMENT_MIX, 1.0, 1.0, MODEL, (0.0, 1e-7), 3)
    gp = simulate_price(b)
    assert len(gp) == 0
    assert gp.value_at(1e-7) == 0.0
    assert gp.increment(0.0, 1e-7) == 0.0


def test_increment_moment_values():
    # point mass at 0.2: r * E[L1^2] * beta/(eta - 0.2) = 1.25
    mean, second = increment_mean_and_variance(
        Variant.SUP2, Mixture.dirac(0.2), 1.0, 1.0, MODEL, 1.0
    )
    assert mean == 0.0
    assert second == pytest.approx(1.25)
    # two-atom showcase mixture: r * e2 * 6.5
    for variant in Variant:
        _, second = increment_mean_and_variance(variant, FIG_MIX, 1.0, 1.0, MODEL, 1.0)
        assert second == pytest.approx(6.5)
    # scaling: doubling beta doubles the second moment
    _, doubled = increment_mean_and_variance(Variant.SUP2, FIG_MIX, 2.0, 1.0, MODEL, 1.0)
    assert doubled == pytest.approx(13.0)


def test_increment_autocov_is_zero():
    for variant in Variant:
        assert increment_autocov(variant, MOMENT_MIX, 1.0, 1.0, MODEL, 1.0, 1.0) == 0.0
        assert increment_autocov(variant, MOMENT_MIX, 1.0, 1.0, MODEL, 1.0, 4.0) == 0.0
    with pytest.raises(ValueError):
        increment_autocov(Variant.SUP1, MOMENT_MIX, 1.0, 1.0, MODEL, 1.0, 0.5)


def test_increment_autocov_needs_a_finite_mean():
    # psi(1, 1.5) = 0.5 >= 0: E[Vbar], so E[(dG_r)^2], diverges and the
    # increments have no covariance, although psi(0.5, 1.5) < 0
    mix = Mixture.from_atoms([(0.12, 0.6), (1.5, 0.4)])
    ctx = charexp.ExponentContext(MODEL, 1.0)
    assert charexp.psi(ctx, 0.5, 1.5) < 0.0 < charexp.psi(ctx, 1.0, 1.5)
    for variant in Variant:
        with pytest.raises(MomentDivergesError):
            increment_autocov(variant, mix, 1.0, 1.0, MODEL, 1.0, 2.0)
        assert _try(PRICE_MOMENTS[variant]["increment_cov"], mix, 1.0, 1.0, MODEL, 1.0, 2.0) is None



def test_increment_mean_needs_a_finite_root_moment():
    # psi(0.5, 2.5) = 0.21 >= 0: E[sqrt(Vbar)], so E[dG_r], diverges, though
    # the mixture is stationary; verify's increment_mean rows are then undefined
    mix = Mixture.from_atoms([(0.12, 0.6), (2.5, 0.4)])
    ctx = charexp.ExponentContext(MODEL, 1.0)
    assert charexp.is_stationary(ctx, 2.5) and charexp.psi(ctx, 0.5, 2.5) > 0.2
    for variant in Variant:
        assert _try(PRICE_MOMENTS[variant]["increment_mean"], mix, 1.0, 1.0, MODEL, 1.0) is None
        assert PRICE_MOMENTS[variant]["increment_mean"](MOMENT_MIX, 1.0, 1.0, MODEL, 1.0) == 0.0
    cfg = ExperimentConfig(phis=(0.12, 2.5), weights=(0.6, 0.4), replications=40, burn_in=40.0)
    reports: list = []
    verify._price_family(cfg, reports, [])
    means = [rep for rep in reports if rep.name.endswith(".increment_mean")]
    assert len(means) == 3 and all(rep.analytic is None and rep.passed is None for rep in means)


def test_sup3_consistency_rows_split_the_groups_once():
    """verify's variant-3 consistency rows jackknife every lag on one split
    of the groups; each row's estimate and standard error are those of a
    per-lag ``grouped_jackknife`` on ``np.cov``, bit for bit."""
    cfg = ExperimentConfig(phis=(0.12, 0.06), weights=(0.6, 0.4), replications=120, burn_in=20.0)
    reports: list = []
    verify._price_family(cfg, reports, [])
    rows = {rep.name: rep for rep in reports if ".sq_increment_cov_consistency" in rep.name}
    r = cfg.increments[0]
    hs = sorted({h for h in cfg.lags if h >= r})
    args = (cfg.mixture(), cfg.beta, cfg.eta, cfg.model(), r)
    vi = cfg.variant_list().index(Variant.SUP3)
    vals = verify._price_samples(cfg, Variant.SUP3, vi, r, hs)
    x0sq, vbar, comps = vals[:, 0] ** 2, vals[:, 1 + len(hs)], list(vals[:, 2 + len(hs):].T)
    assert len(rows) == len(hs) > 1
    for j, h in enumerate(hs):

        def diff(a, b, v, *cs, _h=h):
            inner = [float(np.cov(a, c, ddof=1)[0, 1]) for c in cs]
            pred = sq_increment_cov_sup3(*args, _h, float(np.cov(a, v, ddof=1)[0, 1]), inner)
            return pred - float(np.cov(a, b, ddof=1)[0, 1])

        want = grouped_jackknife(diff, [x0sq, vals[:, 1 + j] ** 2, vbar, *comps])
        rep = rows[f"sup3.sq_increment_cov_consistency[h={h:g}]"]
        assert (rep.estimate, rep.std_error) == want


def test_lag_kernel_limits():
    assert lag_kernel(0.0, 2.0, 1.0) == 1.0
    assert lag_kernel(-0.5, 1.0, 1.0) == pytest.approx((math.exp(-0.5) - 1.0) / -0.5)
    # kernel vanishes as the lag grows, for decay rates psi1 < 0 and -eta
    for x in (-0.5, -1.0):
        assert abs(lag_kernel(x, 64.0, 1.0)) < 1e-12


def test_sq_increment_cov_point_mass_degeneracy():
    mix = Mixture.dirac(0.4)
    a = sq_increment_cov_closed(Variant.SUP1, mix, 1.0, 1.0, MODEL, 1.0, 1.0)
    b = sq_increment_cov_closed(Variant.SUP2, mix, 1.0, 1.0, MODEL, 1.0, 1.0)
    assert a == pytest.approx(b, rel=1e-12)
    assert a > 0.0


def test_sq_increment_cov_positive_and_decaying():
    for variant in (Variant.SUP1, Variant.SUP2):
        values = [
            sq_increment_cov_closed(variant, MOMENT_MIX, 1.0, 1.0, MODEL, 1.0, h)
            for h in (1.0, 2.0, 4.0, 8.0)
        ]
        assert all(v > 0.0 for v in values)
        assert values == sorted(values, reverse=True)


def test_sq_increment_cov_gates():
    with pytest.raises(MomentDivergesError):
        sq_increment_cov_closed(Variant.SUP2, FIG_MIX, 1.0, 1.0, MODEL, 1.0, 1.0)
    with pytest.raises(MomentDivergesError):
        sq_increment_cov_closed(Variant.SUP1, Mixture.dirac(0.0), 1.0, 1.0, MODEL, 1.0, 1.0)
    with pytest.raises(ValueError):
        sq_increment_cov_closed(Variant.SUP2, MOMENT_MIX, 1.0, 1.0, MODEL, 1.0, 0.5)
    with pytest.raises(ValueError):
        sq_increment_vol_cov(Variant.SUP3, MOMENT_MIX, 1.0, 1.0, MODEL, 0, 1.0)


def test_sup3_kernel_combination():
    inner_agg, inner_atoms = 2.0, [1.5, 0.25]
    vals = [
        sq_increment_cov_sup3(MOMENT_MIX, 1.0, 1.0, MODEL, 1.0, h, inner_agg, inner_atoms)
        for h in (1.0, 2.0, 4.0, 64.0)
    ]
    assert vals[0] > vals[1] > vals[2] > vals[3]
    assert abs(vals[-1]) < 1e-12  # slowest rate is psi(1, 0.5) = -0.5
    with pytest.raises(ValueError):
        sq_increment_cov_sup3(MOMENT_MIX, 1.0, 1.0, MODEL, 1.0, 1.0, 1.0, [1.0])


def test_price_csv():
    b = _bundle(Variant.SUP2, MOMENT_MIX, seed=4, horizon=(0.0, 5.0))
    gp = simulate_price(b)
    text = price_to_csv(gp)
    lines = text.strip().split("\n")
    assert lines[0] == "time,G"
    assert lines[1] == "0,0"
    assert len(lines) == 2 + len(gp)


def test_lattice_and_replication_estimators_agree():
    # one long stationary path vs independent replications: both estimate
    # E[(dG_r)^2]; a light mixture keeps the comparison sharply calibrated
    from supcogarch.batch import simulate_batch

    mix = Mixture.from_atoms([(0.12, 0.6), (0.06, 0.4)])
    target = increment_mean_and_variance(Variant.SUP2, mix, 1.0, 1.0, MODEL, 1.0)[1]

    long_bundle = simulate_bundle(Variant.SUP2, mix, 1.0, 1.0, MODEL, (0.0, 4000.0), 21)
    # increments G(t + 1) - G(t) on the lattice t = 0, 1, ..., 3999
    lat = np.diff(simulate_price(long_bundle).values_at(np.arange(4001.0))) ** 2
    # batch means over contiguous blocks absorb the weak serial dependence
    batches = np.array([b.mean() for b in np.array_split(lat, 50)])
    lat_est = lat.mean()
    lat_se = batches.std(ddof=1) / np.sqrt(batches.size)

    # replication i is simulate_bundle(..., substream(22, i))
    levels = simulate_batch(Variant.SUP2, mix, 1.0, 1.0, MODEL, (0.0, 1.0), 22, (), 3000).price_levels(
        np.array([0.0, 1.0])
    )
    reps = (levels[:, 1] - levels[:, 0]) ** 2
    rep_est = reps.mean()
    rep_se = reps.std(ddof=1) / np.sqrt(reps.size)

    assert abs(lat_est - target) < 5.0 * lat_se
    assert abs(rep_est - target) < 5.0 * rep_se
    assert abs(lat_est - rep_est) < 5.0 * math.hypot(lat_se, rep_se)


def test_price_increments_align_with_values():
    b = _bundle(Variant.SUP3, MOMENT_MIX, seed=5, horizon=(0.0, 10.0))
    gp = simulate_price(b)
    assert gp.increment(2.0, 3.0) == pytest.approx(gp.value_at(5.0) - gp.value_at(2.0), abs=1e-12)
    # piecewise constant between jumps
    if len(gp) >= 2:
        mid = 0.5 * (gp.times[0] + gp.times[1])
        assert gp.value_at(mid) == gp.values[0]
