"""Monte Carlo verification battery: every closed-form quantity is paired
with a seeded Monte Carlo estimate, and every path-wise jump identity is
checked on simulated bundles.

The battery is a pure function of the experiment configuration: every
replication derives its random stream from (root seed, family id, variant
id, replication index), with the family ids of ``levy.Stream``.  The
cogarch, cross, sup, price and q families simulate their replications
together on the batched engine (:mod:`supcogarch.batch`), which gives the
numbers of one bundle per replication bit for bit; the identity and tail
families build one bundle or path at a time.

Tolerances: mean-type comparisons use the configured multiplier k (default
4 standard errors); variance/covariance-type comparisons, which face heavy
tails, use k + 1.  Path-wise identities carry fixed machine-precision
tolerances and report as boolean check rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import charexp
from .analysis import (
    MomentReport,
    QColumns,
    default_hill_k,
    extract_q_batch,
    grouped_jackknife,
    has_interior_gap,
    hill_estimator,
    hill_sweep,
    histogram,
    mc_covariance,
    mc_mean,
    mc_second_moment,
    mc_variance,
    run_replications,
)
from .batch import chunked, simulate_batch, simulate_cogarch_batch
from .cogarch import (
    CogarchParams,
    MomentDivergesError,
    NonStationaryError,
    cross_acov,
    cross_cov,
    default_burn_in,
    stationary_acov,
    stationary_mean,
    stationary_start,
    stationary_variance,
    stationary_variance_alt,
)
from .config import ExperimentConfig
from .csvio import G17, csv_text
from .levy import Stream, rng_from, simulate_levy_path, squared_jumps, substream
from .price import (
    PricePath,
    increment_mean_and_variance,
    simulate_price,
    sq_increment_cov_closed,
    sq_increment_cov_sup3,
)
from .superpos import SUP_MOMENTS, Mixture, SupPathBundle, Variant, simulate_bundle

__all__ = [
    "CheckRow",
    "PriceStatRow",
    "VerificationResult",
    "run_verification",
    "bundle_identity_checks",
    "price_identity_checks",
    "stationary_component_draws",
    "q_columns",
    "checks_to_csv",
    "price_rows_to_csv",
]

_IDENTITY_RTOL = 1e-12
_AGG_RTOL = 1e-10
_KAPPA_RESIDUAL = 1e-6
_PARETO_ALPHA = 2.5
_PARETO_RTOL = 0.10
#: loose acceptance band for the Hill estimate around the analytic exponent,
#: applied only when the exponent is small enough to be estimable at desk scale
_HILL_BAND = (-0.8, 1.3)
_HILL_MAX_KAPPA = 4.0
#: replications per engine call of :func:`q_columns`; all q paths of a run
#: at once would raise its peak memory
_Q_ROWS_PER_CALL = 64


@dataclass(frozen=True)
class CheckRow:
    """A non-statistical pass/fail check (path identity, bound, residual)."""

    name: str
    value: float
    requirement: str
    passed: bool


@dataclass(frozen=True)
class PriceStatRow:
    r: float
    h: float | None
    stat: str
    analytic: float | None
    mc: float
    se: float
    passed: bool | None


@dataclass
class VerificationResult:
    reports: list[MomentReport]
    checks: list[CheckRow]
    price_rows: list[PriceStatRow]

    @property
    def passed(self) -> bool:
        defined = [r.passed for r in self.reports if r.passed is not None]
        return all(defined) and all(c.passed for c in self.checks)

    def failures(self) -> list[str]:
        out = [r.name for r in self.reports if r.passed is False]
        out += [c.name for c in self.checks if not c.passed]
        return out


def checks_to_csv(checks: list[CheckRow]) -> str:
    return csv_text(
        "name,value,requirement,pass", f"%s,{G17},%s,%s",
        ((c.name, c.value, c.requirement, c.passed) for c in checks),
    )


def price_rows_to_csv(rows: list[PriceStatRow]) -> str:
    return csv_text(
        "r,h,stat,analytic,mc,se,pass",
        f"{G17},%s,%s,%s,{G17},{G17},%s",
        (
            (row.r, "" if row.h is None else G17 % row.h, row.stat,
             "diverges" if row.analytic is None else G17 % row.analytic, row.mc, row.se,
             "undefined" if row.passed is None else row.passed)
            for row in rows
        ),
    )


def _try(fn, *args):
    try:
        return fn(*args)
    except MomentDivergesError:
        return None


# ---------------------------------------------------------------------------
# path-wise identity checks


def _rel_err(lhs: np.ndarray, rhs: np.ndarray, scale: np.ndarray) -> float:
    if lhs.size == 0:
        return 0.0
    return float(np.max(np.abs(lhs - rhs) / np.maximum(1.0, np.abs(scale))))


def bundle_identity_checks(bundle: SupPathBundle) -> list[CheckRow]:
    """Exact jump algebra on a simulated bundle: component jump identity,
    aggregation identity, variant-specific jump structure, positivity."""
    checks: list[CheckRow] = []
    tag = bundle.variant.value
    agg = bundle.aggregate

    # component jumps: post = left * (1 + phi * ds) against the driver marks
    worst = 0.0
    for i, (phi, _) in enumerate(bundle.mixture.atoms()):
        driver = bundle.drivers[i if bundle.variant is Variant.SUP1 else 0]
        comp = bundle.components[i]
        ds = driver.sizes**2
        worst = max(worst, _rel_err(comp.post - comp.left, phi * comp.left * ds, comp.post))
    checks.append(
        CheckRow(f"{tag}_component_jump_identity", worst, f"<= {_IDENTITY_RTOL}", worst <= _IDENTITY_RTOL)
    )

    # aggregation identity at every event time (variants 1 and 2)
    if bundle.variant in (Variant.SUP1, Variant.SUP2):
        sum_left = np.zeros(len(agg))
        sum_post = np.zeros(len(agg))
        for w, comp in zip(bundle.mixture.weights, bundle.components):
            sum_left += w * comp.left_limits(agg.times)
            sum_post += w * comp.values(agg.times)
        err = max(_rel_err(agg.left, sum_left, agg.left), _rel_err(agg.post, sum_post, agg.post))
        checks.append(
            CheckRow(f"{tag}_aggregation_identity", err, f"<= {_AGG_RTOL}", err <= _AGG_RTOL)
        )

    if bundle.variant is Variant.SUP1:
        # independent drivers almost surely never share a mark time
        all_marks = np.concatenate([d.times for d in bundle.drivers])
        dup = int(all_marks.size - np.unique(all_marks).size)
        checks.append(CheckRow(f"{tag}_jump_disjointness", float(dup), "== 0", dup == 0))
        # each aggregate jump is the single jumping component's scaled jump
        worst = 0.0
        for i, (phi, w) in enumerate(bundle.mixture.atoms()):
            comp = bundle.components[i]
            ds = bundle.drivers[i].sizes**2
            pos = np.searchsorted(agg.times, comp.times)
            dv = agg.post[pos] - agg.left[pos]
            worst = max(worst, _rel_err(dv, w * phi * comp.left * ds, agg.post[pos]))
        checks.append(
            CheckRow(f"{tag}_jump_identity", worst, f"<= {_IDENTITY_RTOL}", worst <= _IDENTITY_RTOL)
        )

    if bundle.variant is Variant.SUP2:
        same = all(np.array_equal(c.times, agg.times) for c in bundle.components)
        checks.append(CheckRow(f"{tag}_cojump", float(same), "aggregate and components share all marks", same))
        ds = bundle.drivers[0].sizes**2
        scale = np.zeros(len(agg))
        for w, (phi, _), comp in zip(bundle.mixture.weights, bundle.mixture.atoms(), bundle.components):
            scale += w * phi * comp.left
        err = _rel_err(agg.post - agg.left, scale * ds, agg.post)
        checks.append(CheckRow(f"{tag}_jump_identity", err, f"<= {_IDENTITY_RTOL}", err <= _IDENTITY_RTOL))

    if bundle.variant is Variant.SUP3:
        ds = bundle.drivers[0].sizes**2
        scale = bundle.chosen_phis * bundle.chosen_lefts()
        err = _rel_err(agg.post - agg.left, scale * ds, agg.post)
        checks.append(CheckRow(f"{tag}_jump_identity", err, f"<= {_IDENTITY_RTOL}", err <= _IDENTITY_RTOL))

    lo = min([agg.min_value()] + [c.min_value() for c in bundle.components])
    checks.append(CheckRow(f"{tag}_positivity", lo, "> 0", lo > 0.0))
    return checks


def price_identity_checks(bundle: SupPathBundle, price: PricePath) -> list[CheckRow]:
    """(dG)^2 = Vbar_- (dL)^2 at every price jump, exactly."""
    tag = bundle.variant.value
    driver = bundle.drivers[price.driver_atom or 0]
    lhs = price.deltas**2
    rhs = price.vbar_left * driver.sizes**2
    err = _rel_err(lhs, rhs, np.maximum(lhs, 1.0))
    return [
        CheckRow(f"{tag}_price_jump_identity", err, f"<= {_IDENTITY_RTOL}", err <= _IDENTITY_RTOL)
    ]


# ---------------------------------------------------------------------------
# replication families


def _cogarch_samples(cfg: ExperimentConfig, atom: int, lags: list[float], mean: float) -> np.ndarray:
    """Per replication: one COGARCH at atom ``atom`` started at its
    stationary mean before the burn-in, queried at 0 and the lags."""
    model = cfg.model()
    params = CogarchParams(cfg.beta, cfg.eta, cfg.phis[atom])
    burn = cfg.burn_in if cfg.burn_in is not None else default_burn_in(params, model)
    qs = np.array([0.0] + lags)
    return chunked(
        lambda first, n: simulate_cogarch_batch(
            params, model, (0.0, max(lags)), mean, cfg.seed, (Stream.COGARCH, atom), n, burn, first,
        ).values(qs),
        cfg.replications,
    )


def _cross_samples(cfg: ExperimentConfig, phi_a: float, phi_b: float, lags: list[float]) -> np.ndarray:
    """Per replication: both components of an equal-weight variant-2 pair
    at 0, and the second one at the lags."""
    mix = Mixture.from_atoms([(phi_a, 0.5), (phi_b, 0.5)])

    def sample(first: int, n: int) -> np.ndarray:
        batch = simulate_batch(
            Variant.SUP2, mix, cfg.beta, cfg.eta, cfg.model(), (0.0, max(lags)),
            cfg.seed, (Stream.CROSS,), n, cfg.burn_in, first,
        )
        ca, cb = batch.components
        return np.column_stack([ca.v0, cb.v0, cb.values(np.array(lags))])

    return chunked(sample, cfg.replications)


def _sup_samples(cfg: ExperimentConfig, variant: Variant, vi: int, lags: list[float]) -> np.ndarray:
    """Per replication: the aggregate at 0 and the lags."""
    qs = np.array([0.0] + lags)
    return chunked(
        lambda first, n: simulate_batch(
            variant, cfg.mixture(), cfg.beta, cfg.eta, cfg.model(), (0.0, max(lags)),
            cfg.seed, (Stream.SUP, vi), n, cfg.burn_in, first,
        ).aggregate.values(qs),
        cfg.replications,
    )


def _price_samples(
    cfg: ExperimentConfig, variant: Variant, vi: int, r: float, hs: list[float]
) -> np.ndarray:
    """Per replication: the price increments over [t, t + r] at t = 0 and
    at the lags ``hs``, then the aggregate and each component at r."""
    starts = np.array([0.0] + hs)
    at_r = np.array([r])

    def sample(first: int, n: int) -> np.ndarray:
        batch = simulate_batch(
            variant, cfg.mixture(), cfg.beta, cfg.eta, cfg.model(), (0.0, (max(hs) if hs else 0.0) + r),
            cfg.seed, (Stream.PRICE, vi), n, cfg.burn_in, first,
        )
        levels = batch.price_levels(np.concatenate([starts, starts + r]))
        return np.column_stack([
            levels[:, len(starts):] - levels[:, : len(starts)],
            batch.aggregate.values(at_r),
            *(c.values(at_r) for c in batch.components),
        ])

    return chunked(sample, cfg.replications)


def q_columns(cfg: ExperimentConfig, variant: Variant, vi: int) -> QColumns:
    """q samples, jump tallies and q-bound violations of the ``q_paths``
    bundles on the stream ``(Stream.Q, vi)``, which ``qstats`` and the q
    family share."""
    mix = cfg.mixture()
    return QColumns.concat([
        extract_q_batch(
            simulate_batch(
                variant, mix, cfg.beta, cfg.eta, cfg.model(), (0.0, cfg.horizon), cfg.seed,
                (Stream.Q, vi), min(_Q_ROWS_PER_CALL, cfg.q_paths - lo), cfg.burn_in, lo,
            ),
            variant, mix,
        )
        for lo in range(0, cfg.q_paths, _Q_ROWS_PER_CALL)
    ])


def _cogarch_family(cfg: ExperimentConfig, reports: list[MomentReport]) -> None:
    model = cfg.model()
    lags = sorted(set(cfg.lags))
    k, kv = cfg.tolerance_k, cfg.tolerance_k + 1.0
    for atom, phi in enumerate(cfg.phis):
        params = CogarchParams(cfg.beta, cfg.eta, phi)
        mean = _try(stationary_mean, params, model)
        if mean is None:
            reports.append(MomentReport(f"cogarch[{phi:g}].mean", None, math.nan, 0.0, 0, k))
            continue
        vals = _cogarch_samples(cfg, atom, lags, mean)
        v0 = vals[:, 0]
        est, se = mc_mean(v0)
        reports.append(MomentReport(f"cogarch[{phi:g}].mean", mean, est, se, v0.size, k))

        var = _try(stationary_variance, params, model)
        est, se = mc_variance(v0)
        reports.append(MomentReport(f"cogarch[{phi:g}].variance", var, est, se, v0.size, kv))
        if var is not None:
            alt = stationary_variance_alt(params, model)
            rel = abs(var - alt) / max(abs(var), abs(alt))
            reports.append(
                MomentReport(f"cogarch[{phi:g}].variance_forms_agree", 1.0,
                             1.0 if rel <= 1e-12 else 0.0, 0.0, 1, k)
            )
        for j, h in enumerate(lags):
            target = _try(stationary_acov, params, model, h)
            est, se = mc_covariance(v0, vals[:, j + 1])
            reports.append(MomentReport(f"cogarch[{phi:g}].acov[h={h:g}]", target, est, se, v0.size, kv))


def _cross_family(cfg: ExperimentConfig, reports: list[MomentReport]) -> None:
    if len(cfg.phis) < 2:
        return
    model = cfg.model()
    phi_a, phi_b = sorted(cfg.phis)[:2]
    k, kv = cfg.tolerance_k, cfg.tolerance_k + 1.0
    target0 = _try(cross_cov, cfg.beta, cfg.eta, phi_a, phi_b, model)
    lags = sorted(set(cfg.lags))
    if target0 is None:
        reports.append(MomentReport(f"cross[{phi_a:g},{phi_b:g}].cov", None, math.nan, 0.0, 0, kv))
        return
    vals = _cross_samples(cfg, phi_a, phi_b, lags)
    est, se = mc_covariance(vals[:, 0], vals[:, 1])
    reports.append(MomentReport(f"cross[{phi_a:g},{phi_b:g}].cov", target0, est, se, vals.shape[0], kv))
    reports.append(
        MomentReport(f"cross[{phi_a:g},{phi_b:g}].cov_nonnegative", 1.0,
                     1.0 if target0 >= 0.0 and est > -kv * se else 0.0, 0.0, 1, k)
    )
    for j, h in enumerate(lags):
        target = cross_acov(cfg.beta, cfg.eta, phi_a, phi_b, model, h)
        est, se = mc_covariance(vals[:, 0], vals[:, 2 + j])
        reports.append(MomentReport(f"cross[{phi_a:g},{phi_b:g}].acov[h={h:g}]", target, est, se, vals.shape[0], kv))


def _sup_family(cfg: ExperimentConfig, reports: list[MomentReport]) -> None:
    model = cfg.model()
    mix = cfg.mixture()
    lags = sorted(set(cfg.lags))
    k, kv = cfg.tolerance_k, cfg.tolerance_k + 1.0
    for vi, variant in enumerate(cfg.variant_list()):
        moments = SUP_MOMENTS[variant]
        vals = _sup_samples(cfg, variant, vi, lags)
        v0 = vals[:, 0]
        tag = variant.value

        est, se = mc_mean(v0)
        target = _try(moments["mean"], mix, cfg.beta, cfg.eta, model)
        reports.append(MomentReport(f"{tag}.mean", target, est, se, v0.size, k))
        # variant 3 checks the second moment, the others the variance
        name, estimator = (("second_moment", mc_second_moment) if variant is Variant.SUP3
                           else ("variance", mc_variance))
        est, se = estimator(v0)
        target = _try(moments[name], mix, cfg.beta, cfg.eta, model)
        reports.append(MomentReport(f"{tag}.{name}", target, est, se, v0.size, kv))
        for j, h in enumerate(lags):
            target = _try(moments["acov"], mix, cfg.beta, cfg.eta, model, h)
            est, se = mc_covariance(v0, vals[:, j + 1])
            reports.append(MomentReport(f"{tag}.acov[h={h:g}]", target, est, se, v0.size, kv))


def _price_family(
    cfg: ExperimentConfig, reports: list[MomentReport], price_rows: list[PriceStatRow]
) -> None:
    model = cfg.model()
    mix = cfg.mixture()
    k, kv = cfg.tolerance_k, cfg.tolerance_k + 1.0
    r = cfg.increments[0]
    hs = sorted({h for h in cfg.lags if h >= r})
    n_atoms = len(mix)

    def emit(stat: str, analytic: float | None, est: float, se: float, n: int, kk: float, h: float | None):
        report = MomentReport(stat, analytic, est, se, n, kk)
        reports.append(report)
        price_rows.append(PriceStatRow(r, h, stat, analytic, est, se, report.passed))

    for vi, variant in enumerate(cfg.variant_list()):
        tag = variant.value
        vals = _price_samples(cfg, variant, vi, r, hs)
        inc0 = vals[:, 0]
        incs = {h: vals[:, 1 + j] for j, h in enumerate(hs)}
        vbar_r = vals[:, 1 + len(hs)]
        comps_r = [vals[:, 2 + len(hs) + i] for i in range(n_atoms)]

        est, se = mc_mean(inc0)
        emit(f"{tag}.increment_mean", 0.0, est, se, inc0.size, k, None)

        second = _try(
            lambda: increment_mean_and_variance(variant, mix, cfg.beta, cfg.eta, model, r)[1]
        )
        est, se = mc_second_moment(inc0)
        emit(f"{tag}.increment_second_moment", second, est, se, inc0.size, k, None)

        for h in hs:
            est, se = mc_covariance(inc0, incs[h])
            emit(f"{tag}.increment_cov[h={h:g}]", 0.0, est, se, inc0.size, k, h)

        x0sq = inc0**2
        if variant in (Variant.SUP1, Variant.SUP2):
            for h in hs:
                closed = _try(
                    sq_increment_cov_closed, variant, mix, cfg.beta, cfg.eta, model, r, h
                )
                est, se = mc_covariance(x0sq, incs[h] ** 2)
                emit(f"{tag}.sq_increment_cov[h={h:g}]", closed, est, se, x0sq.size, kv, h)
                if closed is not None:
                    emit(f"{tag}.sq_increment_cov_positive[h={h:g}]", 1.0,
                         1.0 if closed > 0.0 else 0.0, 0.0, 1, k, h)
        else:
            gated = _try(lambda: sq_increment_cov_sup3(mix, cfg.beta, cfg.eta, model, r, max(hs) if hs else r, 0.0, [0.0] * n_atoms))
            for h in hs:
                if gated is None:
                    emit(f"{tag}.sq_increment_cov_consistency[h={h:g}]", None, math.nan, 0.0, 0, kv, h)
                    continue

                def diff(*cols: np.ndarray, _h=h) -> float:
                    _x0sq, _xhsq, _vbar, *_comps = cols
                    inner_agg = float(np.cov(_x0sq, _vbar, ddof=1)[0, 1])
                    inner_atoms = [float(np.cov(_x0sq, c, ddof=1)[0, 1]) for c in _comps]
                    pred = sq_increment_cov_sup3(
                        mix, cfg.beta, cfg.eta, model, r, _h, inner_agg, inner_atoms
                    )
                    direct = float(np.cov(_x0sq, _xhsq, ddof=1)[0, 1])
                    return pred - direct

                d, se = grouped_jackknife(diff, [x0sq, incs[h] ** 2, vbar_r, *comps_r])
                emit(f"{tag}.sq_increment_cov_consistency[h={h:g}]", 0.0, d, se, x0sq.size, kv, h)
            if gated is not None and hs:
                # direct estimate must be positive up to sampling noise
                est, se = mc_covariance(x0sq, incs[hs[0]] ** 2)
                emit(f"{tag}.sq_increment_cov_positive[h={hs[0]:g}]", 1.0,
                     1.0 if est > -kv * se else 0.0, 0.0, 1, k, hs[0])


def _q_family(
    cfg: ExperimentConfig, reports: list[MomentReport], checks: list[CheckRow]
) -> None:
    k = cfg.tolerance_k
    positive_atoms = [phi for phi in cfg.mixture().phis if phi > 0.0]
    for vi, variant in enumerate(cfg.variant_list()):
        tag = variant.value
        cols = q_columns(cfg, variant, vi)
        reports.append(
            MomentReport(f"{tag}.q_bound_violations", 0.0, float(cols.violations), 0.0,
                         max(cols.q.size, 1), k)
        )
        if variant is Variant.SUP1 and len(positive_atoms) >= 2:
            vol_only = cols.tally.vol_only
            checks.append(
                CheckRow(f"{tag}_volatility_only_jumps", float(vol_only), "> 0", vol_only > 0)
            )
        if variant is Variant.SUP3 and len(positive_atoms) >= 2 and cols.q.size:
            counts = [c for _, _, c in histogram(np.log(cols.q), bins=50)]
            checks.append(
                CheckRow(f"{tag}_logq_two_clusters", float(has_interior_gap(counts)),
                         "interior gap in the log-q histogram", has_interior_gap(counts))
            )


def _tail_family(
    cfg: ExperimentConfig, reports: list[MomentReport], checks: list[CheckRow]
) -> None:
    model = cfg.model()
    mix = cfg.mixture()
    ctx = charexp.ExponentContext(model, cfg.eta)
    phi_bar = mix.phi_bar
    if phi_bar <= 0.0:
        return
    kappa_bar = charexp.kappa_of_phi(ctx, phi_bar)
    residual = abs(charexp.psi(ctx, kappa_bar, phi_bar))
    checks.append(
        CheckRow("tail_kappa_residual", residual, f"<= {_KAPPA_RESIDUAL}", residual <= _KAPPA_RESIDUAL)
    )
    reports.append(MomentReport("tail.kappa_bar", kappa_bar, kappa_bar, 0.0, 1, cfg.tolerance_k))

    # Hill calibration oracle: exact Pareto samples with known exponent.
    # Band is k-aware: the Hill standard error is alpha/sqrt(k), so small
    # configured sample counts get a correspondingly wider requirement.
    rng = rng_from(cfg.seed, Stream.PARETO)
    pareto = rng.uniform(size=cfg.tail_samples) ** (-1.0 / _PARETO_ALPHA)
    k_hill = default_hill_k(cfg.tail_samples)
    est = hill_estimator(pareto, k_hill)
    band = max(_PARETO_RTOL, 4.0 / math.sqrt(k_hill))
    ok = abs(est - _PARETO_ALPHA) <= band * _PARETO_ALPHA
    checks.append(
        CheckRow("hill_pareto_calibration", est,
                 f"within {band:.0%} of {_PARETO_ALPHA}", ok)
    )

    # Hill on stationary component draws at the top atom: noisy, loose band,
    # and only meaningful when the tail dominates at desk sample sizes
    if kappa_bar <= _HILL_MAX_KAPPA:
        params = CogarchParams(cfg.beta, cfg.eta, phi_bar)
        burn = cfg.burn_in if cfg.burn_in is not None else default_burn_in(params, model)
        draws = stationary_component_draws(params, model, cfg.seed, cfg.tail_samples, burn,
                                           cfg.threads, family=Stream.TAIL)
        sweep = hill_sweep(draws)
        lo, hi = kappa_bar + _HILL_BAND[0], kappa_bar + _HILL_BAND[1]
        in_band = all(lo < est < hi for _, est in sweep)
        farthest = max(sweep, key=lambda kv_: abs(kv_[1] - kappa_bar))[1]
        checks.append(
            CheckRow("hill_tail_band", farthest, f"sweep within ({lo:.3g}, {hi:.3g})", in_band)
        )


def stationary_component_draws(
    params: CogarchParams,
    model,
    seed: int,
    n: int,
    burn_in: float,
    threads: int = 1,
    family: int = Stream.TAIL,
) -> np.ndarray:
    """n burned-in stationary draws of one COGARCH (stationarity checked
    once up front, not per draw)."""
    from .cogarch import evolve_value

    if not params.is_stationary_admissible(model):
        raise NonStationaryError(f"phi={params.phi} is not stationary-admissible")
    start = stationary_start(params, model)

    def one(rep: int) -> float:
        s = squared_jumps(
            simulate_levy_path(model, (-burn_in, 0.0), substream(seed, family, rep))
        )
        return evolve_value(params, s, start, -burn_in, 0.0)

    return np.array(run_replications(one, n, threads))


def _identity_family(cfg: ExperimentConfig, checks: list[CheckRow]) -> None:
    model = cfg.model()
    mix = cfg.mixture()
    for vi, variant in enumerate(cfg.variant_list()):
        bundle = simulate_bundle(
            variant, mix, cfg.beta, cfg.eta, model, (0.0, cfg.horizon),
            substream(cfg.seed, Stream.IDENTITY, vi), cfg.burn_in,
        )
        checks.extend(bundle_identity_checks(bundle))
        checks.extend(price_identity_checks(bundle, simulate_price(bundle)))


def run_verification(cfg: ExperimentConfig) -> VerificationResult:
    """Run the full battery; deterministic given the configuration."""
    cfg.validate()
    reports: list[MomentReport] = []
    checks: list[CheckRow] = []
    price_rows: list[PriceStatRow] = []
    _cogarch_family(cfg, reports)
    _cross_family(cfg, reports)
    _sup_family(cfg, reports)
    _price_family(cfg, reports, price_rows)
    _q_family(cfg, reports, checks)
    _tail_family(cfg, reports, checks)
    _identity_family(cfg, checks)
    return VerificationResult(reports, checks, price_rows)
