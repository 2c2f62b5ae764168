import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from supcogarch.batch import stationary_draws
from supcogarch.charexp import ExponentContext, log_moment, phi_max
from supcogarch.cogarch import (
    _exp_decays,
    CogarchParams,
    MomentDivergesError,
    NonStationaryError,
    cross_acov,
    cross_cov,
    cross_moment,
    default_burn_in,
    path_to_csv,
    simulate_cogarch,
    stationary_acov,
    stationary_mean,
    stationary_second_moment,
    stationary_variance,
    stationary_variance_alt,
)
from supcogarch.levy import CompoundPoisson, JumpPath, simulate_levy_path, squared_jumps, substream

MODEL = CompoundPoisson(1.0)


def _s_path(seed: int, horizon=(0.0, 20.0)) -> JumpPath:
    return squared_jumps(simulate_levy_path(MODEL, horizon, seed))


def _bits(x) -> np.ndarray:
    return np.asarray(x, dtype=float).view(np.uint64)


#: exp(x) is 1 at -0.0, subnormal below about -708.4, the least subnormal
#: at -745.13 and 0 from -745.14 on
DECAY_EDGES = [-0.0, -1e-300, -708.4, -708.5, -730.0, -745.0, -745.13, -745.14, -1e4, -math.inf]


#: bit patterns of gaps in [0, +inf], and of gaps in [1e-3, 746], where
#: the results are normal and not 1
GAP_BITS = st.integers(0, 0x7FF0000000000000) | st.integers(int(_bits(1e-3)), int(_bits(746.0)))


@settings(max_examples=300, deadline=None)
@given(st.lists(GAP_BITS, min_size=1, max_size=64))
@example([int(_bits(-x)) for x in DECAY_EDGES])
def test_exp_decays_give_math_exp_bits(patterns):
    """The decay kernel returns math.exp's bits at every x <= 0, as a block
    and one value at a time (gaps -x at eta = 1, where -eta * gap is x)."""
    gaps = np.array(patterns, dtype=np.uint64).view(float)
    want = [math.exp(-g) for g in gaps.tolist()]
    assert np.array_equal(_bits(_exp_decays(1.0, gaps)), _bits(want))
    assert [float(_exp_decays(1.0, g)) for g in gaps.tolist()] == want


@settings(max_examples=100, deadline=None)
@given(st.floats(1e-6, 1e6), st.lists(st.floats(0.0, 1e3), min_size=1, max_size=64))
def test_exp_decays_take_minus_eta_times_gap(eta, gaps):
    want = [math.exp(-eta * g) for g in gaps]
    assert np.array_equal(_bits(_exp_decays(eta, np.array(gaps))), _bits(want))


def test_params_validation():
    for bad in ((0.0, 1.0, 0.5), (1.0, 0.0, 0.5), (1.0, 1.0, -0.1)):
        with pytest.raises(ValueError):
            CogarchParams(*bad)


def test_phi_zero_is_constant_at_level():
    params = CogarchParams(2.0, 4.0, 0.0)
    rec = simulate_cogarch(params, _s_path(1), params.level)
    grid = np.linspace(0.0, 20.0, 50)
    assert np.all(rec.values(grid) == params.level)


def test_pure_relaxation_between_jumps():
    params = CogarchParams(1.0, 1.0, 0.5)
    empty = JumpPath(0.0, 2.0, np.array([]), np.array([]))
    rec = simulate_cogarch(params, empty, 2.0)
    assert rec.value_at(math.log(2.0)) == pytest.approx(1.5, abs=1e-12)


def test_single_mark_multiplicative_jump():
    params = CogarchParams(1.0, 1.0, 0.5)
    path = JumpPath(0.0, 2.0, np.array([1.0]), np.array([4.0]))
    rec = simulate_cogarch(params, path, 2.0)
    assert rec.post[0] == 3.0 * rec.left[0]


def test_rejects_nonpositive_start():
    with pytest.raises(ValueError):
        simulate_cogarch(CogarchParams(1.0, 1.0, 0.5), _s_path(2), 0.0)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_jump_identity_and_positivity(seed):
    params = CogarchParams(1.0, 1.0, 0.5)
    s = _s_path(seed)
    rec = simulate_cogarch(params, s, 2.0)
    dv = rec.post - rec.left
    assert np.allclose(dv, params.phi * rec.left * s.sizes, rtol=0, atol=1e-12 * rec.post.max())
    assert rec.min_value() > 0.0


def test_between_jump_ode_and_accessors():
    params = CogarchParams(1.0, 2.0, 0.5)
    s = _s_path(3)
    rec = simulate_cogarch(params, s, 1.0)
    # numeric derivative at inter-event midpoints satisfies dV/dt = beta - eta*V
    mids = (s.times[:-1] + s.times[1:]) / 2.0
    eps = 1e-6
    v = rec.values(mids)
    dv = (rec.values(mids + eps) - rec.values(mids - eps)) / (2.0 * eps)
    assert np.allclose(dv, params.beta - params.eta * v, rtol=1e-5, atol=1e-5)
    # cadlag semantics at events: values -> post, left_limits -> left
    assert np.array_equal(rec.values(rec.times), rec.post)
    assert np.allclose(rec.left_limits(rec.times), rec.left, rtol=1e-12)


def test_stationary_moment_values():
    params = CogarchParams(1.0, 1.0, 0.5)
    assert stationary_mean(params, MODEL) == pytest.approx(2.0)
    assert stationary_second_moment(params, MODEL) == pytest.approx(16.0)
    assert stationary_variance(params, MODEL) == pytest.approx(12.0)
    assert stationary_mean(CogarchParams(3.0, 2.0, 0.0), MODEL) == pytest.approx(1.5)
    # first moment exists at 0.95 while the second diverges
    edge = CogarchParams(1.0, 1.0, 0.95)
    assert stationary_mean(edge, MODEL) == pytest.approx(20.0)
    with pytest.raises(MomentDivergesError):
        stationary_second_moment(edge, MODEL)
    with pytest.raises(MomentDivergesError):
        stationary_variance_alt(edge, MODEL)


def test_acov_at_zero_is_variance():
    params = CogarchParams(1.0, 1.0, 0.5)
    assert stationary_acov(params, MODEL, 0.0) == pytest.approx(stationary_variance(params, MODEL))
    assert stationary_acov(params, MODEL, 1.0) == pytest.approx(12.0 * math.exp(-0.5))


@given(st.floats(0.01, 0.54))
@settings(max_examples=50, deadline=None)
def test_variance_forms_agree(phi):
    params = CogarchParams(1.3, 1.0, phi)
    a = stationary_variance(params, MODEL)
    b = stationary_variance_alt(params, MODEL)
    assert abs(a - b) <= 1e-12 * max(abs(a), abs(b))


def test_cross_moment_values():
    assert cross_moment(1.0, 1.0, 0.5, 0.2, MODEL) == pytest.approx(3.25)
    assert cross_cov(1.0, 1.0, 0.5, 0.2, MODEL) == pytest.approx(0.75)
    # consistency: E[V V~] = E[V] E[V~] + Cov
    assert 3.25 == pytest.approx(2.0 * 1.25 + 0.75)


def test_cross_degenerates_to_single():
    phi = 0.4
    params = CogarchParams(1.0, 1.0, phi)
    assert cross_moment(1.0, 1.0, phi, phi, MODEL) == pytest.approx(
        stationary_second_moment(params, MODEL)
    )
    assert cross_cov(1.0, 1.0, phi, phi, MODEL) == pytest.approx(
        stationary_variance(params, MODEL)
    )


def test_cross_acov_decay_rate():
    base = cross_acov(1.0, 1.0, 0.5, 0.2, MODEL, 0.0)
    for h in (0.5, 1.0, 2.0):
        ratio = cross_acov(1.0, 1.0, 0.5, 0.2, MODEL, h) / base
        assert ratio == pytest.approx(math.exp(h * (0.2 - 1.0)), rel=1e-12)


def test_cross_symmetry_at_lag_zero():
    assert cross_cov(1.0, 1.0, 0.5, 0.2, MODEL) == pytest.approx(
        cross_cov(1.0, 1.0, 0.2, 0.5, MODEL), rel=1e-14
    )


def test_cross_gate():
    with pytest.raises(MomentDivergesError):
        cross_moment(1.0, 1.0, 0.95, 0.2, MODEL)


def test_draw_stationary_phi_zero_exact():
    params = CogarchParams(3.0, 2.0, 0.0)
    # draw i from substream(i), i = 0, 1, 2, after the default burn-in
    draws = stationary_draws(params, MODEL, None, 3, [substream(i) for i in range(3)])
    assert np.all(draws == params.level)


def test_draw_stationary_rejects_nonstationary():
    with pytest.raises(NonStationaryError):
        stationary_draws(CogarchParams(1.0, 1.0, 3.5), MODEL, 80.0, 1, [substream(0)])


def test_default_burn_in_rates():
    # rate |psi(1, phi)| when the mean exists, else the Lyapunov rate
    # eta - E[log(1 + 1.5 Y^2)] = 0.31399... (quadrature, Y ~ N(0, 1))
    assert default_burn_in(CogarchParams(1.0, 1.0, 0.5), MODEL) == pytest.approx(80.0)
    assert default_burn_in(CogarchParams(1.0, 1.0, 1.5), MODEL) == pytest.approx(40.0 / 0.3139940688)
    with pytest.raises(NonStationaryError):
        default_burn_in(CogarchParams(1.0, 1.0, 3.5), MODEL)


@pytest.mark.parametrize("frac", [0.05, 0.3, 0.5, 0.9, 0.98])
def test_default_burn_in_forgets_the_start(frac):
    # two paths on one driver merge at the Lyapunov rate eta - log_moment,
    # so the start's weight after the burn-in is exp(-rate * b) <= e^-40
    ctx = ExponentContext(MODEL, 1.0)
    phi = frac * phi_max(ctx)
    b = default_burn_in(CogarchParams(1.0, 1.0, phi), MODEL)
    assert math.exp(-(ctx.eta - log_moment(ctx, phi)) * b) <= math.exp(-40.0) * (1.0 + 1e-12)


def test_draw_stationary_mean_light_tail():
    # phi = 0.2 keeps higher moments plentiful, so the CLT check is sharp
    from supcogarch.analysis import mc_mean, mc_variance

    params = CogarchParams(1.0, 1.0, 0.2)
    draws = stationary_draws(params, MODEL, None, 2000, [substream(17, i) for i in range(2000)])
    est, se = mc_mean(draws)
    assert abs(est - stationary_mean(params, MODEL)) < 4.0 * se
    var_est, var_se = mc_variance(draws)
    assert abs(var_est - stationary_variance(params, MODEL)) < 5.0 * var_se


def test_mc_autocovariance_light_tail():
    # lag-h covariance matches exp(h psi1) Var[V] at a scale where the
    # estimator is properly calibrated
    from supcogarch.analysis import mc_covariance
    from supcogarch.batch import simulate_cogarch_batch

    params = CogarchParams(1.0, 1.0, 0.2)
    lags = np.array([0.5, 1.0, 2.0])
    # replication i runs on simulate_levy_path(MODEL, (-50, 2), substream(23, i)) from the mean
    vals = simulate_cogarch_batch(params, MODEL, (0.0, 2.0), 23, (), 3000, 50.0).values(
        np.concatenate(([0.0], lags))
    )
    for j, h in enumerate(lags):
        est, se = mc_covariance(vals[:, 0], vals[:, 1 + j])
        assert abs(est - stationary_acov(params, MODEL, h)) < 5.0 * se, h


def test_draw_stationary_deterministic():
    params = CogarchParams(1.0, 1.0, 0.5)
    draw = lambda: stationary_draws(params, MODEL, None, 2, [substream(11) for _ in range(2)])
    first = draw()
    assert first[0] == first[1] and np.array_equal(first, draw())


def test_vg_driver_stationary_mean():
    # grid-driven variance gamma subordinator feeds the same exact recursion
    from supcogarch.levy import VarianceGamma

    vg = VarianceGamma(1.0, 1.0, grid_step=2.0**-6)
    params = CogarchParams(1.0, 1.0, 0.3)
    target = stationary_mean(params, vg)  # beta / (eta - phi * sigma^2)
    assert target == pytest.approx(1.0 / 0.7)
    draws = stationary_draws(params, vg, None, 400, [substream(29, i) for i in range(400)])
    se = draws.std(ddof=1) / math.sqrt(draws.size)
    assert abs(draws.mean() - target) < 5.0 * se


def test_path_csv_two_rows_per_event():
    params = CogarchParams(1.0, 1.0, 0.5)
    s = _s_path(4, (0.0, 5.0))
    rec = simulate_cogarch(params, s, 2.0)
    text = path_to_csv(rec, grid_step=1.0)
    lines = text.strip().split("\n")
    assert lines[0] == "time,value,is_jump"
    jump_rows = [l for l in lines[1:] if l.endswith(",1")]
    assert len(jump_rows) == 2 * len(rec)
