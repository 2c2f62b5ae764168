"""Monte Carlo verification battery: every closed-form quantity is paired
with a seeded Monte Carlo estimate, and every path-wise jump identity is
checked on simulated bundles.

The battery is a pure function of the experiment configuration: every
replication derives its random stream from (root seed, family id, variant
id, replication index), with the family ids of ``levy.Stream``.  The
cogarch, cross, sup, price, q and tail families simulate their
replications together on the engine (:mod:`supcogarch.batch`), which gives
the numbers of one bundle, COGARCH or stationary draw per replication bit
for bit; the identity family checks one bundle per variant (the engine at
one replication).

Tolerances follow from each row's summand, the quantity averaged over the
replications: k standard errors (``tolerance_k``, default 4) when the
summand is at most linear in V (V, a price increment, its square, the
product of two increments), k + 1 when it is quadratic (V^2, the product of
two V's, the product of two squared increments), whose heavier tails the
wider band absorbs.  Every MomentReport is written by one writer,
:class:`_Rows`, which alone sets the band.  A row whose target diverges
has no verdict; a family whose mean diverges is not sampled at all and
writes one skipped mean row.  Path-wise identities carry
fixed machine-precision tolerances and report as boolean check rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import charexp
from .analysis import (
    MomentReport,
    QColumns,
    _cov,
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
)
from .batch import _calls, chunked, simulate_batch, simulate_cogarch_batch, stationary_draws
from .cogarch import COGARCH_MOMENTS, CogarchParams, _try, cross_acov, cross_cov, stationary_variance_alt
from .config import ExperimentConfig
from .csvio import G17, analytic_cell, csv_text
from .levy import Stream, rng_from, substream, substreams
from .levy import simulate_levy_path  # noqa: F401 -- perfbench/tests checks the tracer rebinds it here
from .price import PRICE_MOMENTS, PricePath, simulate_price, sq_increment_cov_sup3
from .superpos import SUP_MOMENTS, Mixture, SupPathBundle, Variant, _weighted, simulate_bundle

__all__ = [
    "CheckRow",
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


@dataclass(frozen=True)
class CheckRow:
    """A non-statistical pass/fail check (path identity, bound, residual)."""

    name: str
    value: float
    requirement: str
    passed: bool


#: (r, h, report) of one price-increment statistic; h is None for a single increment's moments
PriceRow = tuple[float, float | None, MomentReport]


@dataclass
class VerificationResult:
    reports: list[MomentReport]
    checks: list[CheckRow]
    price_rows: list[PriceRow]

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


def price_rows_to_csv(rows: list[PriceRow]) -> str:
    return csv_text(
        "r,h,stat,analytic,mc,se,pass",
        f"{G17},%s,%s,%s,{G17},{G17},%s",
        (
            (r, "" if h is None else G17 % h, rep.name, analytic_cell(rep.analytic), rep.estimate,
             rep.std_error, "undefined" if rep.passed is None else rep.passed)
            for r, h, rep in rows
        ),
    )


@dataclass
class _Rows:
    """The one writer of the battery's MomentReports, into ``reports``.

    ``order`` is the order in V of a row's summand: 1 when it is at most
    linear, 2 when it is quadratic (see the module docstring)."""

    k: float
    reports: list[MomentReport]

    def band(self, order: int) -> float:
        """Standard errors allowed to a summand of this order."""
        return {1: self.k, 2: self.k + 1.0}[order]

    def _add(self, report: MomentReport) -> MomentReport:
        self.reports.append(report)
        return report

    def compare(self, name: str, target: float | None, estimator, *samples: np.ndarray, order: int = 1) -> MomentReport:
        """``estimator(*samples)`` (estimate, standard error) against
        ``target``, None where it diverges; n is the sample count."""
        est, se = estimator(*samples)
        return self._add(MomentReport(name, target, est, se, samples[0].size, self.band(order)))

    def skip(self, name: str, order: int = 1) -> MomentReport:
        """A row whose target diverges, so that nothing is sampled."""
        return self._add(MomentReport(name, None, math.nan, 0.0, 0, self.band(order)))

    def flag(self, name: str, value: float, target: float = 1.0, n: int = 1) -> MomentReport:
        """An exact row (no standard error; passes iff value == target): a
        yes/no flag (1.0 or 0.0), a count or an exact value."""
        return self._add(MomentReport(name, target, float(value), 0.0, n, self.k))


# ---------------------------------------------------------------------------
# path-wise identity checks


def _at_most(name: str, value: float, tol: float) -> CheckRow:
    return CheckRow(name, value, f"<= {tol}", value <= tol)


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
    checks.append(_at_most(f"{tag}_component_jump_identity", worst, _IDENTITY_RTOL))

    # aggregation identity at every event time (variants 1 and 2)
    if bundle.variant in (Variant.SUP1, Variant.SUP2):
        w, comps = bundle.mixture.weights, bundle.components
        sum_left = _weighted(w, [c.left_limits(agg.times) for c in comps])
        sum_post = _weighted(w, [c.values(agg.times) for c in comps])
        err = max(_rel_err(agg.left, sum_left, agg.left), _rel_err(agg.post, sum_post, agg.post))
        checks.append(_at_most(f"{tag}_aggregation_identity", err, _AGG_RTOL))

    if bundle.variant is Variant.SUP1:
        # independent drivers almost surely never share a mark time
        all_marks = np.sort(np.concatenate([d.times for d in bundle.drivers]))
        dup = int(np.count_nonzero(all_marks[1:] == all_marks[:-1]))
        checks.append(CheckRow(f"{tag}_jump_disjointness", float(dup), "== 0", dup == 0))
        # each aggregate jump is the single jumping component's scaled jump
        worst = 0.0
        for i, (phi, w) in enumerate(bundle.mixture.atoms()):
            comp = bundle.components[i]
            ds = bundle.drivers[i].sizes**2
            pos = np.searchsorted(agg.times, comp.times)
            dv = agg.post[pos] - agg.left[pos]
            worst = max(worst, _rel_err(dv, w * phi * comp.left * ds, agg.post[pos]))
        checks.append(_at_most(f"{tag}_jump_identity", worst, _IDENTITY_RTOL))
    else:
        # one shared driver: the aggregate jumps by scale * dS at every mark
        if bundle.variant is Variant.SUP2:
            same = all(np.array_equal(c.times, agg.times) for c in bundle.components)
            checks.append(CheckRow(f"{tag}_cojump", float(same), "aggregate and components share all marks", same))
            scale = _weighted([w * phi for phi, w in bundle.mixture.atoms()], [c.left for c in bundle.components])
        else:
            scale = bundle.chosen_phis * bundle.chosen_lefts()
        err = _rel_err(agg.post - agg.left, scale * bundle.drivers[0].sizes**2, agg.post)
        checks.append(_at_most(f"{tag}_jump_identity", err, _IDENTITY_RTOL))

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
    return [_at_most(f"{tag}_price_jump_identity", err, _IDENTITY_RTOL)]


# ---------------------------------------------------------------------------
# replication families


def _cogarch_samples(cfg: ExperimentConfig, atom: int, lags: list[float]) -> np.ndarray:
    """Per replication: one COGARCH at atom ``atom`` burned in from its
    stationary start, queried at 0 and the lags."""
    model = cfg.model()
    params = CogarchParams(cfg.beta, cfg.eta, cfg.phis[atom])
    qs = np.array([0.0] + lags)
    return chunked(
        lambda first, n: simulate_cogarch_batch(
            params, model, (0.0, max(lags)), cfg.seed, (Stream.COGARCH, atom), n, cfg.burn_in, first,
        ).values(qs),
        cfg.replications,
    )


def _engine_samples(cfg: ExperimentConfig, variant: Variant, mix: Mixture, key: tuple, t1: float, query) -> np.ndarray:
    """Per replication: ``query(batch)`` of the engine's ``variant`` bundles
    of ``mix`` on [0, t1] on the streams ``key``, simulated in chunks."""
    model = cfg.model()
    return chunked(
        lambda first, n: query(simulate_batch(
            variant, mix, cfg.beta, cfg.eta, model, (0.0, t1), cfg.seed, key, n, cfg.burn_in, first,
        )),
        cfg.replications,
    )


def _cross_samples(cfg: ExperimentConfig, phi_a: float, phi_b: float, lags: list[float]) -> np.ndarray:
    """Per replication: both components of an equal-weight variant-2 pair
    at 0, and the second one at the lags."""
    mix = Mixture.from_atoms([(phi_a, 0.5), (phi_b, 0.5)])

    def query(batch) -> np.ndarray:
        ca, cb = batch.components
        return np.column_stack([ca.v0, cb.v0, cb.values(np.array(lags))])

    return _engine_samples(cfg, Variant.SUP2, mix, (Stream.CROSS,), max(lags), query)


def _sup_samples(cfg: ExperimentConfig, variant: Variant, vi: int, lags: list[float]) -> np.ndarray:
    """Per replication: the aggregate at 0 and the lags."""
    qs = np.array([0.0] + lags)
    return _engine_samples(
        cfg, variant, cfg.mixture(), (Stream.SUP, vi), max(lags), lambda batch: batch.aggregate.values(qs)
    )


def _price_samples(
    cfg: ExperimentConfig, variant: Variant, vi: int, r: float, hs: list[float]
) -> np.ndarray:
    """Per replication: the price increments over [t, t + r] at t = 0 and
    at the lags ``hs``, then the aggregate and each component at r."""
    starts = np.array([0.0] + hs)
    at_r = np.array([r])

    def query(batch) -> np.ndarray:
        levels = batch.price_levels(np.concatenate([starts, starts + r]))
        return np.column_stack([
            levels[:, len(starts):] - levels[:, : len(starts)],
            batch.aggregate.values(at_r),
            *(c.values(at_r) for c in batch.components),
        ])

    return _engine_samples(cfg, variant, cfg.mixture(), (Stream.PRICE, vi), (max(hs) if hs else 0.0) + r, query)


def q_columns(cfg: ExperimentConfig, variant: Variant, vi: int) -> QColumns:
    """q samples, jump tallies and q-bound violations of the ``q_paths``
    bundles on the stream ``(Stream.Q, vi)``, which ``qstats`` and the q
    family share, over the engine calls of :func:`batch.chunked`
    (:func:`batch._calls`); a call's paths burn in as one chunk, one rank
    loop a driver, where their marks fit."""
    mix = cfg.mixture()
    return QColumns.concat([
        extract_q_batch(
            simulate_batch(
                variant, mix, cfg.beta, cfg.eta, cfg.model(), (0.0, cfg.horizon), cfg.seed,
                (Stream.Q, vi), len(part), cfg.burn_in, part.start,
            ),
            variant, mix,
        )
        for part in _calls(cfg.q_paths)
    ])


def _moment_battery(
    rows: _Rows, prefix: str, moments: dict, args: tuple, second: str, sample, lags: list[float], alt=None,
) -> None:
    """The rows of one sampled stationary process against a moment table
    (``COGARCH_MOMENTS`` or a ``SUP_MOMENTS`` entry, called with ``args``):
    the mean, then ``second`` ("variance" or "second_moment"), then the
    autocovariance at each lag.  ``sample()`` gives the process at 0 and at
    the lags; where the mean diverges nothing is sampled and the family is
    one skipped mean row.  ``alt`` is a second closed form of the variance,
    which must agree with the table's to 1e-12 where it is finite."""
    mean = _try(moments["mean"], *args)
    if mean is None:
        rows.skip(f"{prefix}.mean")
        return
    vals = sample()
    v0 = vals[:, 0]
    rows.compare(f"{prefix}.mean", mean, mc_mean, v0)
    target = _try(moments[second], *args)
    estimator = mc_second_moment if second == "second_moment" else mc_variance
    rows.compare(f"{prefix}.{second}", target, estimator, v0, order=2)
    if alt is not None and target is not None:
        other = alt(*args)
        rows.flag(f"{prefix}.variance_forms_agree", abs(target - other) <= 1e-12 * max(abs(target), abs(other)))
    for j, h in enumerate(lags):
        target = _try(moments["acov"], *args, h)
        rows.compare(f"{prefix}.acov[h={h:g}]", target, mc_covariance, v0, vals[:, j + 1], order=2)


def _cogarch_family(cfg: ExperimentConfig, reports: list[MomentReport]) -> None:
    model = cfg.model()
    lags = sorted(set(cfg.lags))
    rows = _Rows(cfg.tolerance_k, reports)
    for atom, phi in enumerate(cfg.phis):
        args = (CogarchParams(cfg.beta, cfg.eta, phi), model)
        _moment_battery(
            rows, f"cogarch[{phi:g}]", COGARCH_MOMENTS, args, "variance",
            partial(_cogarch_samples, cfg, atom, lags), lags, stationary_variance_alt,
        )


def _cross_family(cfg: ExperimentConfig, reports: list[MomentReport]) -> None:
    if len(cfg.phis) < 2:
        return
    model = cfg.model()
    phi_a, phi_b = sorted(cfg.phis)[:2]
    rows = _Rows(cfg.tolerance_k, reports)
    prefix = f"cross[{phi_a:g},{phi_b:g}]"
    target0 = _try(cross_cov, cfg.beta, cfg.eta, phi_a, phi_b, model)
    if target0 is None:
        rows.skip(f"{prefix}.cov", order=2)
        return
    lags = sorted(set(cfg.lags))
    vals = _cross_samples(cfg, phi_a, phi_b, lags)
    cov = rows.compare(f"{prefix}.cov", target0, mc_covariance, vals[:, 0], vals[:, 1], order=2)
    rows.flag(f"{prefix}.cov_nonnegative", target0 >= 0.0 and cov.estimate >= -cov.k * cov.std_error)
    for j, h in enumerate(lags):
        target = cross_acov(cfg.beta, cfg.eta, phi_a, phi_b, model, h)
        rows.compare(f"{prefix}.acov[h={h:g}]", target, mc_covariance, vals[:, 0], vals[:, 2 + j], order=2)


def _sup_family(cfg: ExperimentConfig, reports: list[MomentReport]) -> None:
    args = (cfg.mixture(), cfg.beta, cfg.eta, cfg.model())
    lags = sorted(set(cfg.lags))
    rows = _Rows(cfg.tolerance_k, reports)
    for vi, variant in enumerate(cfg.variant_list()):
        # variant 3 checks the second moment, the others the variance
        second = "second_moment" if variant is Variant.SUP3 else "variance"
        sample = partial(_sup_samples, cfg, variant, vi, lags)
        _moment_battery(rows, variant.value, SUP_MOMENTS[variant], args, second, sample, lags)


def _price_family(cfg: ExperimentConfig, reports: list[MomentReport], price_rows: list[PriceRow]) -> None:
    rows = _Rows(cfg.tolerance_k, reports)
    r = cfg.increments[0]
    args = (cfg.mixture(), cfg.beta, cfg.eta, cfg.model(), r)
    hs = sorted({h for h in cfg.lags if h >= r})

    def emit(report: MomentReport, h: float | None = None) -> None:
        price_rows.append((r, h, report))

    for vi, variant in enumerate(cfg.variant_list()):
        tag = variant.value
        vals = _price_samples(cfg, variant, vi, r, hs)
        inc0 = vals[:, 0]
        incs = {h: vals[:, 1 + j] for j, h in enumerate(hs)}
        vbar_r = vals[:, 1 + len(hs)]
        comps_r = list(vals[:, 2 + len(hs):].T)
        prices = PRICE_MOMENTS[variant]

        emit(rows.compare(f"{tag}.increment_mean", _try(prices["increment_mean"], *args), mc_mean, inc0))
        second = _try(prices["increment_second_moment"], *args)
        emit(rows.compare(f"{tag}.increment_second_moment", second, mc_second_moment, inc0))
        for h in hs:
            cov = _try(prices["increment_cov"], *args, h)
            emit(rows.compare(f"{tag}.increment_cov[h={h:g}]", cov, mc_covariance, inc0, incs[h]), h)

        x0sq = inc0**2
        if "sq_increment_cov" in prices:
            for h in hs:
                closed = _try(prices["sq_increment_cov"], *args, h)
                name = f"{tag}.sq_increment_cov[h={h:g}]"
                emit(rows.compare(name, closed, mc_covariance, x0sq, incs[h] ** 2, order=2), h)
                if closed is not None:
                    emit(rows.flag(f"{tag}.sq_increment_cov_positive[h={h:g}]", closed > 0.0), h)
            continue
        # variant 3 has no closed form: its rows check the conditional one, every lag
        # jackknifed on one split of the groups, the inner covariances made once a group
        gated = _try(sq_increment_cov_sup3, *args, max(hs) if hs else r, 0.0, [0.0] * len(comps_r))
        if gated is not None and hs:

            def diffs(_x0sq: np.ndarray, _vbar: np.ndarray, *cols: np.ndarray) -> list[float]:
                inner_agg, inner_atoms = _cov(_x0sq, _vbar), [_cov(_x0sq, c) for c in cols[: len(comps_r)]]
                return [sq_increment_cov_sup3(*args, h, inner_agg, inner_atoms) - _cov(_x0sq, xhsq)
                        for h, xhsq in zip(hs, cols[len(comps_r):])]

            est, se = grouped_jackknife(diffs, [x0sq, vbar_r, *comps_r, *(incs[h] ** 2 for h in hs)])
        for j, h in enumerate(hs):
            name, jackknifed = f"{tag}.sq_increment_cov_consistency[h={h:g}]", lambda _: (float(est[j]), float(se[j]))
            emit(rows.skip(name, order=2) if gated is None else rows.compare(name, 0.0, jackknifed, x0sq, order=2), h)
        if gated is not None and hs:
            # direct estimate must be positive up to sampling noise
            est, se = mc_covariance(x0sq, incs[hs[0]] ** 2)
            emit(rows.flag(f"{tag}.sq_increment_cov_positive[h={hs[0]:g}]", est > -rows.band(2) * se), hs[0])


def _q_family(
    cfg: ExperimentConfig, reports: list[MomentReport], checks: list[CheckRow]
) -> None:
    rows = _Rows(cfg.tolerance_k, reports)
    positive_atoms = [phi for phi in cfg.mixture().phis if phi > 0.0]
    for vi, variant in enumerate(cfg.variant_list()):
        tag = variant.value
        cols = q_columns(cfg, variant, vi)
        rows.flag(f"{tag}.q_bound_violations", cols.violations, 0.0, cols.q.size)
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
    checks.append(_at_most("tail_kappa_residual", residual, _KAPPA_RESIDUAL))
    _Rows(cfg.tolerance_k, reports).flag("tail.kappa_bar", kappa_bar, kappa_bar)

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
        draws = stationary_component_draws(params, model, cfg.seed, cfg.tail_samples, cfg.burn_in, Stream.TAIL)
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
    burn_in: float | None = None,
    family: int = Stream.TAIL,
) -> np.ndarray:
    """n burned-in stationary draws of one COGARCH on the engine
    (:func:`batch.stationary_draws`; None burns in for the default), draw r
    from ``substream(seed, family, r)``."""
    return stationary_draws(params, model, burn_in, n, substreams(seed, (family,), range(n)))


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
    price_rows: list[PriceRow] = []
    _cogarch_family(cfg, reports)
    _cross_family(cfg, reports)
    _sup_family(cfg, reports)
    _price_family(cfg, reports, price_rows)
    _q_family(cfg, reports, checks)
    _tail_family(cfg, reports, checks)
    _identity_family(cfg, checks)
    return VerificationResult(reports, checks, price_rows)
