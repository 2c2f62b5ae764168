import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from supcogarch.analysis import (
    MomentReport,
    _cov,
    check_q_bounds,
    default_hill_k,
    extract_q,
    grouped_jackknife,
    has_interior_gap,
    hill_estimator,
    hill_sweep,
    histogram,
    histogram_to_csv,
    jump_tally,
    mc_covariance,
    mc_mean,
    mc_variance,
    reports_to_csv,
    run_replications,
)
from supcogarch.levy import CompoundPoisson, rng_from
from supcogarch.price import simulate_price
from supcogarch.superpos import Mixture, Variant, simulate_bundle

MODEL = CompoundPoisson(1.0)


# ---------------------------------------------------------------------------
# estimators


def test_mc_mean_matches_classic_se():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    est, se = mc_mean(x)
    assert est == 2.5
    assert se == pytest.approx(x.std(ddof=1) / 2.0)


def test_mc_variance_jackknife_matches_direct_loo():
    rng = np.random.default_rng(0)
    x = rng.exponential(size=40)
    est, se = mc_variance(x)
    loo = np.array([np.var(np.delete(x, i), ddof=1) for i in range(x.size)])
    direct = math.sqrt((x.size - 1) / x.size * np.sum((loo - loo.mean()) ** 2))
    assert est == pytest.approx(np.var(x, ddof=1))
    assert se == pytest.approx(direct, rel=1e-10)


def test_mc_covariance_jackknife_matches_direct_loo():
    rng = np.random.default_rng(1)
    x = rng.normal(size=35)
    y = 0.5 * x + rng.normal(size=35)
    est, se = mc_covariance(x, y)
    loo = np.array(
        [np.cov(np.delete(x, i), np.delete(y, i), ddof=1)[0, 1] for i in range(x.size)]
    )
    direct = math.sqrt((x.size - 1) / x.size * np.sum((loo - loo.mean()) ** 2))
    assert est == pytest.approx(np.cov(x, y, ddof=1)[0, 1])
    assert se == pytest.approx(direct, rel=1e-10)


def test_jackknife_se_shrinks_like_sqrt_n():
    rng = np.random.default_rng(2)
    x = rng.normal(size=4000)
    _, se_n = mc_variance(x[:1000])
    _, se_4n = mc_variance(x)
    ratio = se_n / se_4n
    assert 1.5 < ratio < 2.7  # ~2 expected


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(1, 400))
def test_cov_is_np_cov_bit_for_bit(data, n):
    """The covariance helper is ``np.cov(x, y, ddof=1)[0, 1]`` to the bit,
    also where one sample leaves no degree of freedom (nan in both)."""
    samples = hnp.arrays(np.float64, n, elements=st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=False))
    x, y = data.draw(samples), data.draw(samples)
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        want = np.cov(x, y, ddof=1)[0, 1]
        got = _cov(x, y)
    assert np.array_equal(got, want, equal_nan=True)


def test_grouped_jackknife_of_several_statistics_is_each_alone():
    """A statistic returning several values is jackknifed on one split of
    the groups: each (estimate, standard error) is that of a call on the
    value alone, bit for bit."""
    rng = np.random.default_rng(4)
    x, y = rng.standard_normal(203), rng.standard_normal(203)
    stats = [lambda a, b: float(np.mean(a * b)), lambda a, b: _cov(a, b ** 2), lambda a, b: float(np.var(a))]
    est, se = grouped_jackknife(lambda a, b: [f(a, b) for f in stats], [x, y])
    assert est.shape == se.shape == (3,)
    for j, f in enumerate(stats):
        assert (est[j], se[j]) == grouped_jackknife(f, [x, y])


def test_grouped_jackknife_mean_agrees_with_classic():
    rng = np.random.default_rng(3)
    x = rng.normal(size=5000)
    est, se = grouped_jackknife(lambda a: float(np.mean(a)), [x])
    assert est == pytest.approx(x.mean())
    assert se == pytest.approx(x.std(ddof=1) / math.sqrt(x.size), rel=0.3)


def test_constant_samples_exact_match():
    est, se = mc_mean(np.full(200, 3.0))
    ok, bad = MomentReport("m", 3.0, est, se, 200), MomentReport("m", 3.1, est, se, 200)
    assert ok.std_error == 0.0 and ok.passed is True
    assert bad.passed is False


# ---------------------------------------------------------------------------
# Hill estimator


def _pareto(alpha: float, n: int, seed: int = 0) -> np.ndarray:
    rng = rng_from(seed)
    return rng.uniform(size=n) ** (-1.0 / alpha)


def test_hill_recovers_pareto_exponent():
    x = _pareto(2.5, 100_000)
    est = hill_estimator(x, 1000)
    assert abs(est - 2.5) < 0.25
    # and within 10% across the default sweep at k = n^0.6
    assert abs(hill_estimator(x, default_hill_k(x.size)) - 2.5) < 0.25


@given(st.floats(0.1, 100.0))
@settings(max_examples=20, deadline=None)
def test_hill_scale_invariance(c):
    x = _pareto(2.0, 2000, seed=5)
    assert hill_estimator(c * x, 100) == pytest.approx(hill_estimator(x, 100), rel=1e-9)


def test_hill_input_validation():
    x = _pareto(2.0, 1000)
    with pytest.raises(ValueError):
        hill_estimator(x, 600)  # k >= n/2
    with pytest.raises(ValueError):
        hill_estimator(np.array([-1.0, 2.0, 3.0] * 10), 3)
    with pytest.raises(ValueError):
        hill_estimator(np.ones(100), 10)  # degenerate ties


def test_hill_sweep_defaults():
    x = _pareto(3.0, 10_000, seed=6)
    sweep = hill_sweep(x)
    ks = [k for k, _ in sweep]
    assert ks == sorted(set(ks))
    assert ks[0] >= int(10_000**0.4) - 1
    assert ks[-1] <= int(10_000**0.7) + 1
    assert all(2.0 < est < 4.0 for _, est in sweep)


# ---------------------------------------------------------------------------
# q-ratio diagnostics


FIG_MIX = Mixture.from_atoms([(0.5, 0.75), (0.95, 0.25)])


def _bundle_and_price(variant, mix=FIG_MIX, seed=11, horizon=(0.0, 60.0)):
    bundle = simulate_bundle(variant, mix, 1.0, 1.0, MODEL, horizon, seed)
    return bundle, simulate_price(bundle)


def test_q_constant_for_point_mass():
    mix = Mixture.dirac(0.5)
    for variant in Variant:
        bundle, price = _bundle_and_price(variant, mix)
        samples = extract_q(bundle, price)
        assert samples, variant
        assert all(s.q == pytest.approx(0.5, rel=1e-9) for s in samples)


def test_q_bounds_hold_pathwise():
    for variant in Variant:
        bundle, price = _bundle_and_price(variant, seed=12)
        samples = extract_q(bundle, price)
        report = check_q_bounds(samples, FIG_MIX)
        assert report.ok, (variant, report.violations[:3])
        assert report.n_checked == len(samples)


def test_q_sup1_below_top_and_long_left_tail():
    bundle, price = _bundle_and_price(Variant.SUP1, seed=13, horizon=(0.0, 300.0))
    qs = np.array([s.q for s in extract_q(bundle, price)])
    assert np.all(qs <= FIG_MIX.phi_bar * (1 + 1e-9))
    # weighted single-component ratio dips well below the lower atom
    assert qs.min() < min(FIG_MIX.phis)


def test_q_sup2_interval():
    bundle, price = _bundle_and_price(Variant.SUP2, seed=14, horizon=(0.0, 300.0))
    qs = np.array([s.q for s in extract_q(bundle, price)])
    assert np.all(qs >= min(FIG_MIX.phis) * (1 - 1e-9))
    assert np.all(qs <= FIG_MIX.phi_bar * (1 + 1e-9))


def test_q_sup3_conditional_bounds_and_clusters():
    bundle, price = _bundle_and_price(Variant.SUP3, seed=15, horizon=(0.0, 400.0))
    samples = extract_q(bundle, price)
    top = [s.q for s in samples if s.chosen_phi == FIG_MIX.phi_bar]
    low = [s.q for s in samples if s.chosen_phi == min(FIG_MIX.phis)]
    assert top and low
    assert min(top) >= FIG_MIX.phi_bar * (1 - 1e-9)
    assert max(low) <= min(FIG_MIX.phis) * (1 + 1e-9)
    counts = [c for _, _, c in histogram(np.log([s.q for s in samples]).tolist(), 40)]
    assert has_interior_gap(counts)


def test_jump_tallies():
    b1, p1 = _bundle_and_price(Variant.SUP1, seed=16)
    t1 = jump_tally(b1, p1)
    assert t1.common == len(b1.drivers[0])
    assert t1.vol_only == len(b1.drivers[1])
    assert t1.price_only == 0

    b2, p2 = _bundle_and_price(Variant.SUP2, seed=16)
    t2 = jump_tally(b2, p2)
    assert t2 == type(t2)(len(p2), 0, 0)

    mix0 = Mixture.from_atoms([(0.0, 0.3), (0.5, 0.7)])
    b3, p3 = _bundle_and_price(Variant.SUP3, mix0, seed=17, horizon=(0.0, 200.0))
    t3 = jump_tally(b3, p3)
    assert t3.price_only > 0  # draws of phi = 0 move the price alone
    assert t3.common + t3.price_only == len(p3)
    # and those marks are excluded from q sampling
    assert len(extract_q(b3, p3)) == t3.common


def test_check_q_bounds_flags_violations(monkeypatch):
    from supcogarch import analysis
    from supcogarch.analysis import QSample, QViolation

    bad = [QSample(Variant.SUP2, 1.0, 2.0), QSample(Variant.SUP2, 2.0, 0.7)]
    report = check_q_bounds(bad, FIG_MIX)
    assert not report.ok
    assert len(report.violations) == 1
    assert report.violations[0].time == 1.0

    # one atom: phi_bar = phi_low = 0.4, and a negative slack lets a
    # top/low draw break both bounds (q < 0.6 and q > 0.2)
    monkeypatch.setattr(analysis, "_Q_BOUND_RTOL", -0.2)
    mix = Mixture.dirac(0.4)
    samples = [
        QSample(Variant.SUP3, 1.0, 0.7, chosen_phi=0.4),  # low bound only
        QSample(Variant.SUP3, 2.0, 0.4, chosen_phi=0.4),  # both bounds
        QSample(Variant.SUP3, 3.0, 0.4, chosen_phi=0.0),  # no bound on a draw of no atom
    ]
    top, low = "q >= phi_bar=0.4 (top draw)", "q <= phi_low=0.4 (low draw)"
    report = check_q_bounds(samples, mix)
    assert report.variant is Variant.SUP3 and report.n_checked == 3
    assert report.violations == (QViolation(1.0, 0.7, low), QViolation(2.0, 0.4, top), QViolation(2.0, 0.4, low))
    # a phi = 0 atom puts the low bound at 0, so the zero draw breaks it
    zero = check_q_bounds(samples, Mixture.from_atoms([(0.0, 0.5), (0.4, 0.5)]))
    assert zero.violations == (QViolation(2.0, 0.4, top), QViolation(3.0, 0.4, "q <= phi_low=0.0 (low draw)"))
    empty = check_q_bounds([], mix)
    assert empty.ok and empty.n_checked == 0 and empty.variant is Variant.SUP1


# ---------------------------------------------------------------------------
# histograms


def test_histogram_counts_and_edges():
    rows = histogram([0.0, 0.5, 1.0, 1.0], bins=2)
    assert rows[0][0] == 0.0 and rows[-1][1] == 1.0
    assert sum(c for _, _, c in rows) == 4


def test_histogram_single_value():
    rows = histogram([2.0] * 7, bins=5)
    assert rows == [(2.0, 2.0, 7)]


def test_histogram_over_too_few_doubles_collapses():
    """A range of a few doubles cannot hold 50 bins of positive width (the
    log q of a one-atom mixture): one full bin, as for a constant sample."""
    lo = math.log(0.3)
    values = [lo, math.nextafter(lo, 0.0), math.nextafter(math.nextafter(lo, 0.0), 0.0)] * 3
    assert histogram(values, bins=50) == [(lo, max(values), 9)]
    assert len(histogram(values, bins=2)) == 2


def test_histogram_rejects_empty():
    with pytest.raises(ValueError):
        histogram([], bins=4)


def test_histogram_csv():
    text = histogram_to_csv(histogram([0.0, 1.0], bins=2))
    assert text.startswith("bin_left,bin_right,count\n")
    assert text.strip().split("\n")[1] == "0,0.5,1"


def test_interior_gap_detector():
    assert has_interior_gap([3, 0, 0, 5])
    assert not has_interior_gap([3, 1, 5])
    assert not has_interior_gap([0, 4, 0])
    assert not has_interior_gap([0, 0])


# ---------------------------------------------------------------------------
# replication harness


def test_run_replications_thread_invariance():
    fn = lambda i: float(np.sin(i))
    assert run_replications(fn, 64, threads=1) == run_replications(fn, 64, threads=4)


def test_moment_report_pass_logic():
    assert MomentReport("x", 1.0, 1.1, 0.05, 100, k=4.0).passed is True
    assert MomentReport("x", 1.0, 1.5, 0.05, 100, k=4.0).passed is False
    assert MomentReport("x", None, 1.5, 0.05, 100).passed is None
    assert MomentReport("x", 1.0, 1.0, 0.0, 100).passed is True
    assert MomentReport("x", 0.0, 0.0, 0.0, 0).passed is None  # no samples, nothing checked
    csv = reports_to_csv([MomentReport("x", None, 1.5, 0.05, 100)])
    assert "diverges" in csv and "undefined" in csv  # diverging target flagged, not judged
