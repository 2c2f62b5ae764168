import math

import numpy as np
import pytest

from supcogarch.batch import chunked, simulate_batch, stationary_draws
from supcogarch.charexp import ExponentContext, NoRootError, is_stationary, kappa_of_phi, phi_max
from supcogarch.cogarch import (
    CogarchParams,
    MomentDivergesError,
    NonStationaryError,
    simulate_cogarch,
    stationary_second_moment,
    stationary_variance,
)
from supcogarch.levy import CompoundPoisson, VarianceGamma, squared_jumps, substream
from supcogarch.superpos import (
    Mixture,
    _require_stationary,
    TailLimit,
    Variant,
    bundle_to_csv,
    chosen_marks_to_csv,
    simulate_bundle,
    sup1_acov,
    sup1_mean,
    sup1_var,
    sup2_acov,
    sup2_var,
    sup3_acov,
    sup3_second_moment,
    sup3_var,
    tail_exponent,
)

MODEL = CompoundPoisson(1.0)
CTX = ExponentContext(MODEL, 1.0)
FIG_MIX = Mixture.from_atoms([(0.5, 0.75), (0.95, 0.25)])
MOMENT_MIX = Mixture.from_atoms([(0.5, 0.6), (0.2, 0.4)])
VAR_02 = stationary_variance(CogarchParams(1.0, 1.0, 0.2), MODEL)


def test_mixture_validation():
    with pytest.raises(ValueError):
        Mixture.from_atoms([])
    with pytest.raises(ValueError):
        Mixture.from_atoms([(0.5, 0.6), (0.5, 0.4)])  # duplicate atom
    with pytest.raises(ValueError):
        Mixture.from_atoms([(0.5, 0.6), (0.2, 0.3)])  # weights do not sum to 1
    with pytest.raises(ValueError):
        Mixture.from_atoms([(-0.1, 1.0)])
    mix = Mixture.from_atoms([(0.9, 0.25), (0.1, 0.75)])
    assert mix.phis == (0.1, 0.9)
    assert mix.phi_bar == 0.9


def test_nonstationary_atom_rejected():
    bad = Mixture.from_atoms([(0.5, 0.5), (3.5, 0.5)])
    for variant in Variant:
        with pytest.raises(NonStationaryError):
            simulate_bundle(variant, bad, 1.0, 1.0, MODEL, (0.0, 5.0), 0)


@pytest.mark.parametrize("model", [MODEL, VarianceGamma(1.0, 1.0)], ids=["cp_normal", "vg"])
def test_stationarity_gate_sites(model):
    # the atom check, which every engine entry runs, and the tail-root entry
    # share charexp.is_stationary; each keeps its own way of refusing
    ctx = ExponentContext(model, 1.0)
    inside, outside = 0.6 * phi_max(ctx), 1.2 * phi_max(ctx)  # inside: psi(1, phi) > 0
    _require_stationary(Mixture.from_atoms([(0.0, 0.5), (inside, 0.5)]), 1.0, model)
    with pytest.raises(NonStationaryError):
        _require_stationary(Mixture.from_atoms([(0.0, 0.5), (outside, 0.5)]), 1.0, model)
    assert is_stationary(ctx, inside) and not is_stationary(ctx, outside)
    with pytest.raises(NonStationaryError):
        stationary_draws(CogarchParams(1.0, 1.0, outside), model, 80.0, 1, [substream(0)])
    assert 0.0 < kappa_of_phi(ctx, inside) < 1.0
    with pytest.raises(NoRootError):
        kappa_of_phi(ctx, outside)


def test_sup1_mean_fig1():
    assert sup1_mean(FIG_MIX, 1.0, 1.0, MODEL) == pytest.approx(0.75 * 2.0 + 0.25 * 20.0)


def test_sup1_var_diverges_for_fig1():
    with pytest.raises(MomentDivergesError):
        sup1_var(FIG_MIX, 1.0, 1.0, MODEL)


def test_sup_moment_values_two_atom():
    assert sup1_mean(MOMENT_MIX, 1.0, 1.0, MODEL) == pytest.approx(1.7)
    assert sup1_var(MOMENT_MIX, 1.0, 1.0, MODEL) == pytest.approx(0.36 * 12.0 + 0.16 * VAR_02)
    assert sup2_var(MOMENT_MIX, 1.0, 1.0, MODEL) == pytest.approx(
        0.36 * 12.0 + 2.0 * 0.24 * 0.75 + 0.16 * VAR_02
    )
    # cross terms are nonnegative, so the shared driver can only add variance
    assert sup2_var(MOMENT_MIX, 1.0, 1.0, MODEL) >= sup1_var(MOMENT_MIX, 1.0, 1.0, MODEL)


def test_sup3_second_moment_hand_rolled():
    # double sum of E[V V~] + (beta/eta)(Var[V] - Cov[V, V~]) / E[V]
    e11, e22 = 16.0, stationary_second_moment(CogarchParams(1.0, 1.0, 0.2), MODEL)
    e12 = 3.25
    cov = 0.75
    target = (
        0.36 * e11
        + 0.24 * (e12 + (12.0 - cov) / 2.0)
        + 0.24 * (e12 + (VAR_02 - cov) / 1.25)
        + 0.16 * e22
    )
    assert sup3_second_moment(MOMENT_MIX, 1.0, 1.0, MODEL) == pytest.approx(target, rel=1e-12)
    assert sup3_var(MOMENT_MIX, 1.0, 1.0, MODEL) == pytest.approx(target - 1.7**2, rel=1e-10)


def test_point_mass_degeneracy_of_moments():
    mix = Mixture.dirac(0.4)
    params = CogarchParams(1.0, 1.0, 0.4)
    single_var = stationary_variance(params, MODEL)
    assert sup1_var(mix, 1.0, 1.0, MODEL) == pytest.approx(single_var)
    assert sup2_var(mix, 1.0, 1.0, MODEL) == pytest.approx(single_var)
    assert sup3_second_moment(mix, 1.0, 1.0, MODEL) == pytest.approx(
        stationary_second_moment(params, MODEL)
    )
    for h in (0.5, 2.0):
        single = single_var * math.exp(h * (0.4 - 1.0))
        assert sup1_acov(mix, 1.0, 1.0, MODEL, h) == pytest.approx(single)
        assert sup2_acov(mix, 1.0, 1.0, MODEL, h) == pytest.approx(single)
        assert sup3_acov(mix, 1.0, 1.0, MODEL, h) == pytest.approx(single)


def test_moment_gates():
    with pytest.raises(MomentDivergesError):
        sup2_var(FIG_MIX, 1.0, 1.0, MODEL)
    with pytest.raises(MomentDivergesError):
        sup3_second_moment(FIG_MIX, 1.0, 1.0, MODEL)
    nonmean = Mixture.from_atoms([(1.2, 0.5), (0.2, 0.5)])  # phi=1.2 beyond first-moment region
    with pytest.raises(MomentDivergesError):
        sup1_mean(nonmean, 1.0, 1.0, MODEL)


def _bundles(mix=FIG_MIX, seed=5, horizon=(0.0, 30.0)):
    return {
        variant: simulate_bundle(variant, mix, 1.0, 1.0, MODEL, horizon, seed)
        for variant in Variant
    }


def test_aggregation_identity_sup1_sup2():
    bundles = _bundles()
    for variant in (Variant.SUP1, Variant.SUP2):
        b = bundles[variant]
        agg = b.aggregate
        for arr, comp_fn in ((agg.left, "left_limits"), (agg.post, "values")):
            total = np.zeros(len(agg))
            for w, c in zip(b.mixture.weights, b.components):
                total += w * getattr(c, comp_fn)(agg.times)
            assert np.all(np.abs(arr - total) <= 1e-10 * np.abs(arr))
        # and off the event grid
        grid = np.linspace(agg.t0, agg.t1, 37)
        total = sum(w * c.values(grid) for w, c in zip(b.mixture.weights, b.components))
        assert np.allclose(agg.values(grid), total, rtol=1e-10)


def test_sup1_components_jump_disjointly():
    b = _bundles()[Variant.SUP1]
    times = np.concatenate([d.times for d in b.drivers])
    assert np.unique(times).size == times.size


def test_sup2_cojumping():
    b = _bundles()[Variant.SUP2]
    for c in b.components:
        assert np.array_equal(c.times, b.aggregate.times)
    ds = b.drivers[0].sizes ** 2
    scale = sum(
        w * phi * c.left
        for (phi, w), c in zip(b.mixture.atoms(), b.components)
    )
    dv = b.aggregate.post - b.aggregate.left
    assert np.allclose(dv, scale * ds, rtol=0, atol=1e-12 * b.aggregate.post.max())


def test_sup2_component_ordering():
    b = _bundles()[Variant.SUP2]
    lo, hi = b.components  # mixture sorted ascending in phi
    grid = np.linspace(0.0, 30.0, 200)
    assert np.all(lo.values(grid) <= hi.values(grid) + 1e-12)


def test_sup3_jump_identity_and_choice_frequency():
    b = _bundles(seed=6, horizon=(0.0, 400.0))[Variant.SUP3]
    ds = b.drivers[0].sizes ** 2
    chosen = b.chosen_phis
    dv = b.aggregate.post - b.aggregate.left
    scale = np.empty(len(ds))
    for k, phi in enumerate(chosen.tolist()):
        atom = b.mixture.phis.index(phi)
        scale[k] = phi * b.components[atom].left[k]
    assert np.allclose(dv, scale * ds, rtol=0, atol=1e-12 * b.aggregate.post.max())
    # empirical frequency of the top draw approximates its weight
    p_hi = b.mixture.weights[-1]
    freq = float(np.mean(chosen == b.mixture.phi_bar))
    n = chosen.size
    assert abs(freq - p_hi) < 4.0 * math.sqrt(p_hi * (1 - p_hi) / n)


def test_sup3_relaxes_toward_level_between_marks():
    b = _bundles(seed=7)[Variant.SUP3]
    agg = b.aggregate
    k = len(agg) // 2
    t0, t1 = agg.times[k], agg.times[k + 1]
    t_mid = 0.5 * (t0 + t1)
    expected = 1.0 + (agg.post[k] - 1.0) * math.exp(-(t_mid - t0))
    assert agg.value_at(t_mid) == pytest.approx(expected, rel=1e-12)


def test_point_mass_bundles_degenerate_to_cogarch():
    mix = Mixture.dirac(0.5)
    params = CogarchParams(1.0, 1.0, 0.5)
    for variant in Variant:
        b = simulate_bundle(variant, mix, 1.0, 1.0, MODEL, (0.0, 25.0), 9)
        comp = b.components[0]
        agg = b.aggregate
        assert np.array_equal(agg.times, comp.times)
        assert np.allclose(agg.left, comp.left, rtol=1e-12)
        assert np.allclose(agg.post, comp.post, rtol=1e-12)
        # and the component is exactly the plain COGARCH on the same marks
        s_live = squared_jumps(b.drivers[0])
        rec = simulate_cogarch(params, s_live, comp.v0)
        assert np.allclose(rec.post, comp.post, rtol=1e-12)


def test_shifted_horizon_bundle():
    # the live window need not start at 0; invariants hold on any interval
    b = simulate_bundle(Variant.SUP2, MOMENT_MIX, 1.0, 1.0, MODEL, (5.0, 25.0), 19)
    agg = b.aggregate
    assert agg.t0 == 5.0 and agg.t1 == 25.0
    assert np.all(agg.times > 5.0) and np.all(agg.times <= 25.0)
    grid = np.linspace(5.0, 25.0, 50)
    total = sum(w * c.values(grid) for w, c in zip(b.mixture.weights, b.components))
    assert np.allclose(agg.values(grid), total, rtol=1e-10)


def test_burn_in_override_respected():
    b1 = simulate_bundle(Variant.SUP2, MOMENT_MIX, 1.0, 1.0, MODEL, (0.0, 5.0), 3, burn_in=10.0)
    b2 = simulate_bundle(Variant.SUP2, MOMENT_MIX, 1.0, 1.0, MODEL, (0.0, 5.0), 3, burn_in=10.0)
    b3 = simulate_bundle(Variant.SUP2, MOMENT_MIX, 1.0, 1.0, MODEL, (0.0, 5.0), 3, burn_in=20.0)
    assert b1.aggregate.v0 == b2.aggregate.v0
    assert b1.aggregate.v0 != b3.aggregate.v0


def test_mc_means_match_formula_light_tail():
    mix = Mixture.from_atoms([(0.12, 0.6), (0.06, 0.4)])
    target = sup1_mean(mix, 1.0, 1.0, MODEL)
    for vi, variant in enumerate(Variant):
        # replication i is simulate_bundle(..., substream(31, vi, i))
        draws = chunked(
            lambda first, n: simulate_batch(
                variant, mix, 1.0, 1.0, MODEL, (0.0, 1.0), 31, (vi,), n, None, first
            ).aggregate.v0,
            1500,
        )
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - target) < 4.0 * se, variant


def test_mc_autocovariance_light_tail():
    # lagged autocovariance of the shared-driver and mixture-draw variants,
    # in a regime where the estimator is calibrated
    from supcogarch.analysis import mc_covariance

    mix = Mixture.from_atoms([(0.12, 0.6), (0.06, 0.4)])
    lags = np.array([0.5, 1.0, 2.0])
    for vi, variant, acov_fn in (
        (0, Variant.SUP2, sup2_acov),
        (1, Variant.SUP3, sup3_acov),
    ):
        # replication i is simulate_bundle(..., substream(33, vi, i))
        vals = chunked(
            lambda first, n: simulate_batch(
                variant, mix, 1.0, 1.0, MODEL, (0.0, 2.0), 33, (vi,), n, None, first
            ).aggregate.values(np.concatenate(([0.0], lags))),
            3000,
        )
        for j, h in enumerate(lags):
            est, se = mc_covariance(vals[:, 0], vals[:, 1 + j])
            target = acov_fn(mix, 1.0, 1.0, MODEL, h)
            assert abs(est - target) < 5.0 * se, (variant, h)


def test_tail_exponent_kinds():
    te1 = tail_exponent(Variant.SUP1, FIG_MIX, CTX)
    te3 = tail_exponent(Variant.SUP3, FIG_MIX, CTX)
    assert te1.limit_kind is TailLimit.POSITIVE_CONSTANT
    assert te3.limit_kind is TailLimit.BOUNDED
    assert te1.kappa_bar == te3.kappa_bar  # depends only on the top atom
    # kappa_bar comes from the top of the support, not the weights
    other = Mixture.from_atoms([(0.95, 0.9), (0.1, 0.1)])
    assert tail_exponent(Variant.SUP2, other, CTX).kappa_bar == pytest.approx(
        te1.kappa_bar, abs=1e-9
    )


def test_bundle_csv_shapes():
    b = _bundles(seed=8, horizon=(0.0, 5.0))[Variant.SUP2]
    text = bundle_to_csv(b, grid_step=1.0)
    lines = text.strip().split("\n")
    assert lines[0] == "time,aggregate,component_0.5,component_0.95"
    assert all(len(l.split(",")) == 4 for l in lines[1:])
    b3 = _bundles(seed=8, horizon=(0.0, 5.0))[Variant.SUP3]
    chosen_text = chosen_marks_to_csv(b3)
    assert chosen_text.startswith("time,phi\n")
    assert len(chosen_text.strip().split("\n")) == 1 + len(b3.drivers[0])
    with pytest.raises(ValueError):
        chosen_marks_to_csv(b)
