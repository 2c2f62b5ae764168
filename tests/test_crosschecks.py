"""Structural cross-validation of the closed forms at off-default
parameters: a zero atom in the mixture, both choices of the variant-1
price driver (including the degenerate scale-0 driver), and level/rate
combinations that would expose swapped parameters or missing intensity
factors.  All mixtures are light-tailed so every estimator is calibrated."""

import numpy as np
import pytest

from supcogarch.analysis import (
    grouped_jackknife,
    mc_covariance,
    mc_mean,
    mc_second_moment,
    mc_variance,
)
from supcogarch.batch import chunked, simulate_batch
from supcogarch.levy import CompoundPoisson
from supcogarch.price import (
    increment_mean_and_variance,
    sq_increment_cov_closed,
    sq_increment_cov_sup3,
)
from supcogarch.superpos import (
    Mixture,
    Variant,
    sup1_var,
    sup2_acov,
    sup2_var,
    sup3_acov,
    sup3_second_moment,
)

N = 6000
HS = (1.0, 2.0)

MODEL_A = CompoundPoisson(2.0)
MIX_A = Mixture.from_atoms([(0.0, 0.2), (0.05, 0.5), (0.15, 0.3)])
BETA_A, ETA_A = 2.0, 1.5

MODEL_B = CompoundPoisson(3.0)
MIX_B = Mixture.from_atoms([(0.08, 0.35), (0.21, 0.65)])
BETA_B, ETA_B = 0.7, 2.0


def _batch(variant, mix, beta, eta, model, seed, driver=0):
    """Per replication i, the bundle of ``simulate_bundle(..., substream(seed,
    i))`` priced on driver ``driver``: the aggregate at 0 and the lags, the
    unit price increments from 0 and from each lag, then the aggregate and
    each component at 1."""
    qs = np.array((0.0,) + HS)
    at_one = np.array([1.0])

    def sample(first, n):
        b = simulate_batch(variant, mix, beta, eta, model, (0.0, HS[-1] + 1.0), seed, (), n, None, first)
        levels = b.price_levels(np.concatenate([qs, qs + 1.0]), driver)
        return np.column_stack([
            b.aggregate.values(qs), levels[:, qs.size:] - levels[:, : qs.size],
            b.aggregate.values(at_one), *(c.values(at_one) for c in b.components),
        ])

    return chunked(sample, N)


def _assert_within(est_se, target, k=5.0):
    est, se = est_se
    assert abs(est - target) < k * se, (est, target, se)


@pytest.mark.parametrize("driver", [0, 2])
def test_sup1_zero_atom_mixture_and_driver_choice(driver):
    arr = _batch(Variant.SUP1, MIX_A, BETA_A, ETA_A, MODEL_A, 900 + driver, driver=driver)
    _assert_within(mc_variance(arr[:, 0]), sup1_var(MIX_A, BETA_A, ETA_A, MODEL_A))
    inc0 = arr[:, 3]
    _assert_within(
        mc_second_moment(inc0),
        increment_mean_and_variance(MIX_A, BETA_A, ETA_A, MODEL_A, 1.0)[1],
    )
    x0 = inc0**2
    for j, h in enumerate(HS):
        target = sq_increment_cov_closed(
            Variant.SUP1, MIX_A, BETA_A, ETA_A, MODEL_A, 1.0, h, driver_atom=driver
        )
        _assert_within(mc_covariance(x0, arr[:, 4 + j] ** 2), target)


def test_sup3_zero_atom_moments_and_kernel():
    arr = _batch(Variant.SUP3, MIX_A, BETA_A, ETA_A, MODEL_A, 910)
    v0 = arr[:, 0]
    _assert_within(mc_second_moment(v0), sup3_second_moment(MIX_A, BETA_A, ETA_A, MODEL_A))
    for j, h in enumerate(HS):
        _assert_within(
            mc_covariance(v0, arr[:, 1 + j]), sup3_acov(MIX_A, BETA_A, ETA_A, MODEL_A, h)
        )
    x0 = arr[:, 3] ** 2
    vbar_r = arr[:, 6]
    comps = [arr[:, 7 + i] for i in range(len(MIX_A))]
    for j, h in enumerate(HS):

        def diff(*cols, _h=h):
            x0c, xhc, vbc, *cc = cols
            inner_agg = float(np.cov(x0c, vbc, ddof=1)[0, 1])
            inner = [float(np.cov(x0c, c, ddof=1)[0, 1]) for c in cc]
            pred = sq_increment_cov_sup3(MIX_A, BETA_A, ETA_A, MODEL_A, 1.0, _h, inner_agg, inner)
            return pred - float(np.cov(x0c, xhc, ddof=1)[0, 1])

        d, se = grouped_jackknife(diff, [x0, arr[:, 4 + j] ** 2, vbar_r, *comps])
        assert abs(d) < 5.0 * se, (h, d, se)


def test_sup2_off_default_levels_and_rate():
    arr = _batch(Variant.SUP2, MIX_B, BETA_B, ETA_B, MODEL_B, 920)
    v0 = arr[:, 0]
    _assert_within(mc_variance(v0), sup2_var(MIX_B, BETA_B, ETA_B, MODEL_B))
    for j, h in enumerate(HS):
        _assert_within(
            mc_covariance(v0, arr[:, 1 + j]), sup2_acov(MIX_B, BETA_B, ETA_B, MODEL_B, h)
        )
    inc0 = arr[:, 3]
    _assert_within(mc_mean(inc0), 0.0, k=4.0)
    x0 = inc0**2
    for j, h in enumerate(HS):
        _assert_within(
            mc_covariance(x0, arr[:, 4 + j] ** 2),
            sq_increment_cov_closed(Variant.SUP2, MIX_B, BETA_B, ETA_B, MODEL_B, 1.0, h),
        )
