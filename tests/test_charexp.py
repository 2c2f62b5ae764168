import hashlib
import math
import time
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from supcogarch.charexp import (
    _GH_LEVELS,
    HERMITE_RULES_FILE,
    _REFINE_RTOL,
    DivergentIntegralError,
    ExponentContext,
    NoRootError,
    _hermite_rules,
    _refined,
    _s_integral,
    h_cross,
    h_kappa,
    is_stationary,
    kappa_of_phi,
    log_moment,
    phi_max,
    phi_max_kappa,
    psi,
)
from supcogarch.levy import CompoundPoisson, JumpDistribution, VarianceGamma, l_moments, s_moments

CTX = ExponentContext(CompoundPoisson(1.0), 1.0)
VG_CTX = ExponentContext(VarianceGamma(1.0, 1.0), 1.0)

NORMAL_MOMENTS = (0.0, 1.0, 0.0, 3.0)


def test_psi_closed_forms():
    assert psi(CTX, 1.0, 0.5) == pytest.approx(-0.5, abs=1e-14)
    assert psi(CTX, 2.0, 0.5) == pytest.approx(-0.25, abs=1e-14)
    assert psi(CTX, 2.0, 0.95) == pytest.approx(2.6075, abs=1e-12)


@given(st.floats(0.0, 8.0))
def test_psi_at_phi_zero_is_linear(u):
    assert psi(CTX, u, 0.0) == -CTX.eta * u


def test_psi_quadrature_matches_polynomial_expansion():
    # E[(1 + phi Y^2)^3] = 1 + 3 phi + 9 phi^2 + 15 phi^3 for Y ~ N(0,1)
    phi = 0.5
    expected = -3.0 + (1 + 3 * phi + 9 * phi**2 + 15 * phi**3) - 1.0
    assert psi(CTX, 3.0, phi) == pytest.approx(expected, abs=1e-10)
    assert psi(CTX, 3.0, phi) == pytest.approx(2.625, abs=1e-10)


def test_psi_quadrature_vs_mc_oracle():
    u, phi = 2.5, 0.4
    rng = np.random.default_rng(0)
    y = rng.standard_normal(10**6)
    vals = (1.0 + phi * y * y) ** u - 1.0
    mc = -CTX.eta * u + vals.mean()
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    assert abs(psi(CTX, u, phi) - mc) < 5.0 * se


def test_psi_convex_in_u():
    for u1, u2 in ((0.5, 2.0), (1.0, 3.0), (0.2, 4.0), (2.0, 6.0)):
        mid = psi(CTX, (u1 + u2) / 2.0, 0.4)
        chord = 0.5 * (psi(CTX, u1, 0.4) + psi(CTX, u2, 0.4))
        assert mid <= chord + 1e-10


def test_log_moment_basics():
    assert log_moment(CTX, 0.0) == 0.0
    for phi in (0.1, 0.5, 1.0, 2.0):
        assert 0.0 < log_moment(CTX, phi) < phi * 1.0  # log(1+x) < x


@given(st.floats(0.05, 2.0), st.floats(0.05, 2.0))
@settings(max_examples=30, deadline=None)
def test_psi_and_log_moment_increasing_in_phi(a, b):
    lo, hi = sorted((a, b))
    if lo == hi:
        return
    assert log_moment(CTX, lo) <= log_moment(CTX, hi)
    assert psi(CTX, 1.5, lo) <= psi(CTX, 1.5, hi)


def test_log_moment_vs_mc_oracle():
    rng = np.random.default_rng(1)
    y = rng.standard_normal(10**6)
    vals = np.log1p(y * y)
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    assert abs(log_moment(CTX, 1.0) - vals.mean()) < 5.0 * se


def test_phi_max_properties():
    pm = phi_max(CTX)
    assert pm > 1.0
    assert abs(log_moment(CTX, pm) - CTX.eta) < 1e-8
    bigger = phi_max(ExponentContext(CompoundPoisson(1.0), 2.0))
    assert bigger > pm


def test_phi_max_ends_where_doubles_are_coarser_than_xtol():
    """At sigma = 1e-4 the VG stationarity boundary lies near 5.3e6, where
    adjacent doubles are 9.3e-10 apart, more than the bisection's 1e-10:
    the bisection stops at adjacent doubles around the root."""
    ctx = ExponentContext(VarianceGamma(1e-4, 1.0), 1.0)
    start = time.perf_counter()
    root = phi_max(ctx)
    assert time.perf_counter() - start < 1.0
    assert math.ulp(root) > 1e-10
    g = lambda p: log_moment(ctx, p) - ctx.eta
    below, above = math.nextafter(root, 0.0), math.nextafter(root, math.inf)
    assert (g(below) < 0.0 <= g(root)) or (g(root) < 0.0 <= g(above))


def test_kappa_bracket_and_residual():
    # certified bracket: psi(2, 0.5) < 0 < psi(3, 0.5)
    assert psi(CTX, 2.0, 0.5) < 0.0 < psi(CTX, 3.0, 0.5)
    kappa = kappa_of_phi(CTX, 0.5)
    assert 2.0 < kappa < 3.0
    assert abs(psi(CTX, kappa, 0.5)) < 1e-6


def test_kappa_decreasing_in_phi():
    assert kappa_of_phi(CTX, 0.3) > kappa_of_phi(CTX, 0.5) > kappa_of_phi(CTX, 0.95)


def test_kappa_no_root_beyond_boundary():
    pm = phi_max(CTX)
    with pytest.raises(NoRootError):
        kappa_of_phi(CTX, pm + 0.1)
    with pytest.raises(NoRootError):
        kappa_of_phi(CTX, 3.5)


def test_phi_max_kappa_values_and_nesting():
    assert phi_max_kappa(CTX, 1.0) == pytest.approx(1.0, abs=1e-8)
    assert phi_max_kappa(CTX, 2.0) == pytest.approx((math.sqrt(7.0) - 1.0) / 3.0, abs=1e-8)
    chain = [phi_max_kappa(CTX, 2.0), phi_max_kappa(CTX, 1.0), phi_max(CTX)]
    assert chain[0] < chain[1] < chain[2]


def test_h_cross_value_and_symmetry():
    assert h_cross(CTX, 0.5, 0.2) == pytest.approx(-1.0, abs=1e-14)
    for a, b in ((0.1, 0.9), (0.3, 0.3), (0.0, 0.7)):
        assert h_cross(CTX, a, b) == h_cross(CTX, b, a)
        assert h_cross(CTX, a, a) == pytest.approx(psi(CTX, 2.0, a), abs=1e-12)


def test_h_kappa_consistency():
    assert h_kappa(CTX, 1.0, 0.5, 0.2) == h_cross(CTX, 0.5, 0.2)
    # h_kappa(k, phi, phi) = psi(2k, phi)
    assert h_kappa(CTX, 1.5, 0.4, 0.4) == pytest.approx(psi(CTX, 3.0, 0.4), abs=1e-9)


def test_vg_psi_quadrature():
    # for the symmetric VG driver: int y^6 nu_L(dy) = 15 sigma^6 nu^2 * 2
    # via (2/nu) * 120 / c^6 with c = sqrt(2/nu)/sigma; sigma = nu = 1 -> 30
    phi = 0.3
    expected = -3.0 * VG_CTX.eta + 3 * phi * 1.0 + 3 * phi**2 * 3.0 + phi**3 * 30.0
    assert psi(VG_CTX, 3.0, phi) == pytest.approx(expected, rel=1e-8)
    assert psi(VG_CTX, 2.0, phi) == pytest.approx(2 * phi + 3 * phi**2 - 2.0, abs=1e-12)


def test_vg_log_moment_and_kappa():
    assert log_moment(VG_CTX, 0.0) == 0.0
    lm = log_moment(VG_CTX, 0.5)
    assert 0.0 < lm < 0.5
    kappa = kappa_of_phi(VG_CTX, 0.5)
    assert abs(psi(VG_CTX, kappa, 0.5)) < 1e-6


@pytest.mark.parametrize("sigma, nu", [(1.0, 1.0), (0.5, 0.2), (2.0, 3.0)])
def test_vg_exp_sinh_rule_matches_scipy_quad(sigma, nu):
    from scipy import integrate

    model = VarianceGamma(sigma, nu)
    c = math.sqrt(2.0 / nu) / sigma
    for phi in (0.02, 0.045, 0.2, 0.5, 0.9, 4.0):
        fs = [lambda y: np.log1p(phi * y)]
        fs += [lambda y, u=u: (1.0 + phi * y) ** u - 1.0 for u in (0.5, 2.2, 3.3, 8.0)]
        for f in fs:
            ref, _ = integrate.quad(
                lambda y: 2.0 / nu * f(np.array(y * y)) / y * math.exp(-c * y),
                0.0, np.inf, epsabs=0.0, epsrel=1e-13, limit=1000,
            )
            assert _s_integral(model, f) == pytest.approx(ref, rel=_REFINE_RTOL, abs=0.0)


@pytest.mark.parametrize("ctx", [CTX, VG_CTX], ids=["cp_normal", "vg"])
@pytest.mark.parametrize("u", [150.0, 400.0])
def test_integral_that_overflows_raises(ctx, u):
    # the true values overflow a double: the sums come out inf or nan
    with pytest.raises(DivergentIntegralError):
        psi(ctx, u, 0.5)


def test_custom_jump_law_keeps_closed_forms_and_refuses_integrals():
    """A law other than standard_normal, even with the normal law's moments,
    gets every closed form bit for bit and no integral against nu_S."""
    custom = JumpDistribution("custom_normal", lambda rng, n: rng.standard_normal(n), NORMAL_MOMENTS)
    ctx_custom = ExponentContext(CompoundPoisson(1.0, custom), 1.0)
    for u in (0.0, 1.0, 2.0):
        assert psi(ctx_custom, u, 0.5) == psi(CTX, u, 0.5)
    assert h_cross(ctx_custom, 0.5, 0.2) == h_cross(CTX, 0.5, 0.2)
    assert s_moments(ctx_custom.model) == s_moments(CTX.model)
    assert l_moments(ctx_custom.model) == l_moments(CTX.model)
    assert is_stationary(ctx_custom, 0.5) is is_stationary(CTX, 0.5) is True
    for call in (lambda: psi(ctx_custom, 2.5, 0.5), lambda: psi(ctx_custom, 3.0, 0.5),
                 lambda: log_moment(ctx_custom, 0.5), lambda: kappa_of_phi(ctx_custom, 0.5),
                 lambda: phi_max(ctx_custom), lambda: phi_max_kappa(ctx_custom, 3.0),
                 lambda: h_kappa(ctx_custom, 2.0, 0.5, 0.2)):
        with pytest.raises(ValueError, match="custom_normal"):
            call()


#: sha256 of the shipped rules' float64 table (hermite_rules.npy's data, C order)
HERMITE_RULES_SHA256 = "1426497baa99728b3c7b4d93254e475d73130eb65d768344a971463dc0896d3a"


def test_shipped_hermite_rules_are_pinned():
    """The shipped table, bit for bit: every psi and kappa rests on it."""
    table = np.load(HERMITE_RULES_FILE, allow_pickle=False)
    assert table.dtype == np.dtype("<f8")
    assert hashlib.sha256(np.ascontiguousarray(table).tobytes()).hexdigest() == HERMITE_RULES_SHA256


@pytest.mark.parametrize("n", _GH_LEVELS)
def test_shipped_hermite_rules_match_scipy(n):
    """The shipped rules are scipy's, up to the last bits of scipy's own
    result, which follow numpy's CPU dispatch (with AVX-512 loops off, the
    nodes of the larger rules move by up to 4 ulps of the largest node and
    the weights by up to 4.6e-13 relative)."""
    from scipy.special import roots_hermite

    x, w = roots_hermite(n)
    y, p = _hermite_rules()[_GH_LEVELS.index(n)]
    np.testing.assert_allclose(y, math.sqrt(2.0) * x, rtol=0.0, atol=8 * np.spacing(np.abs(y).max()))
    np.testing.assert_allclose(p, w / math.sqrt(math.pi), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("ctx", [CTX, VG_CTX], ids=["cp_normal", "vg"])
@settings(max_examples=40, deadline=None)
@given(frac=st.floats(0.0, 1.5, exclude_min=True, exclude_max=True))
@example(frac=0.2)  # psi(1, phi) < 0: closed form
@example(frac=0.6)  # psi(1, phi) > 0, stationary: quadrature
@example(frac=1.2)  # beyond phi_max
def test_is_stationary_agrees_with_log_moment(ctx, frac):
    phi = frac * _phi_max(ctx)
    assert is_stationary(ctx, phi) == (log_moment(ctx, phi) < ctx.eta)


@lru_cache(maxsize=None)
def _phi_max(ctx: ExponentContext) -> float:
    return phi_max(ctx)


def test_refined_detects_blowup():
    with pytest.raises(DivergentIntegralError):
        _refined([1.0, 10.0, 1e3, 1e6, 1e12])


def test_context_validation():
    with pytest.raises(ValueError):
        ExponentContext(CompoundPoisson(1.0), 0.0)
    with pytest.raises(ValueError):
        psi(CTX, -1.0, 0.5)
    with pytest.raises(ValueError):
        psi(CTX, 1.0, -0.5)
