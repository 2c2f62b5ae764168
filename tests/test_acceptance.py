"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance is pinned here exactly as stated: mean-type comparisons at
4 standard errors, variance/covariance-type comparisons at 5, path-wise
identities at machine precision, closed forms against the moment
equations at 1e-10 relative, root residuals at 1e-6, Hill calibration at
10%.  The root seed is a fixed constant; all randomness derives from it
through the documented substream rule, so the outcomes are reproducible
bit for bit.

Heavy tails and the statistic behind each verdict.  At the pinned scale
phi = 0.5 the stationary volatility has Pareto exponent kappa ~ 2.2
(`kappa_of_phi`) and E[V^4] is infinite (psi(4, 0.5) > 0).  A sample mean
has a standard error only when its summand has finite variance, so a plain
sample variance, autocovariance, cross moment or squared-increment
covariance, whose summands are quadratic in V with tail index ~1.1, cannot
carry a k-standard-error verdict at any sample size.  Every verdict here
rests on a summand that is bounded or linear in V, and `_within` refuses a
verdict whose summand the charexp exponents do not certify: psi(2, phi_bar)
< 0 for linear summands, h_kappa(2, phi, phi~) < 0 for quadratic ones.

The second-order closed forms of criteria 2, 3, 4 and 7 are checked in two
parts.

* Analytic: each closed form equals an independent solution of the
  generator's moment equations (`_MomentSystem`: a linear solve for the
  stationary moments, matrix exponentials for the lag and price-window
  ODEs, driver moments read off the charexp exponents) to 1e-10 relative.
* Monte Carlo: the simulated draws obey the dynamics those equations
  encode, through identities with bounded or linear summands:
  - the stationary generator identity E[A f(state)] = 0 for the bounded
    f = u_c(x) u_c(y), u_c(v) = v / (1 + v/c), c in {2, 10, 50}, with the
    jump part by Gauss-Hermite quadrature over the driver's jump law:
    x = y = V for criterion 2, the shared-driver pair for criterion 3, and
    x = y = Vbar with the components' jumps for variants 2 and 3 in
    criterion 4;
  - the Markov decay identity Cov(V_h - exp(psi(1, phi) h) V_0, g) = 0 for
    bounded time-0 weights g (criteria 2 and 3);
  - the conditional-moment identity E[((dG_h)^2 - P_h) g] = 0 for g = 1 and
    g = u_10((dG_0)^2), P_h = E[(dG_h)^2 | F_h] being the kernel the
    closed forms are built from (criterion 7).
  Every generator identity must also fail, |t| > k, when evaluated at
  phi = 0.55 instead of 0.5 (every mixture scale times 1.1): a row that
  cannot tell these apart shows nothing.

The replaced sample-moment rows are still printed as diagnostics with their
|t| and summand tail index; they carry no verdict.
"""

import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from numpy.polynomial.hermite_e import hermegauss
from scipy.linalg import expm
from scipy.optimize import brentq

from supcogarch.analysis import (
    check_q_bounds,
    default_hill_k,
    extract_q,
    grouped_jackknife,
    has_interior_gap,
    hill_estimator,
    hill_sweep,
    histogram,
    jump_tally,
    mc_covariance,
    mc_mean,
    mc_second_moment,
    mc_variance,
)
from supcogarch.batch import chunked, simulate_batch, simulate_cogarch_batch
from supcogarch.charexp import ExponentContext, h_kappa, kappa_of_phi, psi
from supcogarch.cli import main as cli_main
from supcogarch.cogarch import (
    CogarchParams,
    cross_acov,
    cross_cov,
    stationary_acov,
    stationary_variance,
    stationary_variance_alt,
)
from supcogarch.levy import CompoundPoisson, rng_from, substream
from supcogarch.price import (
    increment_mean_and_variance,
    simulate_price,
    sq_increment_cov_closed,
    sq_increment_cov_sup3,
)
from supcogarch.superpos import Mixture, Variant, simulate_bundle, sup2_var, sup3_second_moment
from supcogarch.verify import bundle_identity_checks, price_identity_checks, stationary_component_draws

ROOT_SEED = 20260810

MODEL = CompoundPoisson(1.0)
BETA = ETA = 1.0
PHI = 0.5
FIG_MIX = Mixture.from_atoms([(0.5, 0.75), (0.95, 0.25)])
MOMENT_MIX = Mixture.from_atoms([(0.5, 0.6), (0.2, 0.4)])
PAIR = Mixture.from_atoms([(0.5, 0.5), (0.2, 0.5)])

N_DRAWS = 10_000
N_PRICE = 20_000
N_Q_PATHS = 100
N_TAIL = 100_000

LAGS = (0.5, 1.0, 2.0)
PRICE_LAGS = (1.0, 2.0, 4.0)
R = 1.0

# acceptance stream families (disjoint from the verify battery's)
A_COG, A_CROSS, A_SUP, A_PRICE, A_Q, A_TAIL, A_PARETO = range(101, 108)

CTX = ExponentContext(MODEL, ETA)
# E[S_1] (= E[L_1^2] for the pure-jump driver) and Var[S_1] = integral of
# s^2 against nu_S, read off the exponents at unit scale:
# psi(1, 1) = E[S_1] - eta and psi(2, 1) = 2 E[S_1] + Var[S_1] - 2 eta
E_S = psi(CTX, 1.0, 1.0) + ETA
VAR_S = psi(CTX, 2.0, 1.0) + 2.0 * ETA - 2.0 * E_S

GEN_CS = (2.0, 10.0, 50.0)
# the pair's c = 50 product is ~ v * v~ over the bulk of the draws and moves
# by |t| = 4.4 < 5 when only one of its two scales is off: no power
PAIR_CS = (2.0, 10.0)
G_C = 10.0  # bounded weights g = u_10
PHI_ALT = 0.55
SCALE_ALT = PHI_ALT / PHI

# Gauss-Hermite rule for MODEL's standard normal jumps: squared jumps at the
# nodes and rate-weighted probabilities; 96 nodes resolve the jump term of
# every bounded test function here far below its Monte Carlo error
_Y, _W = hermegauss(96)
_S_NODES = (_Y * _Y)[:, None]
_S_WEIGHTS = (MODEL.rate * _W / math.sqrt(2.0 * math.pi))[:, None]


def _criterion(number: int, description: str, failures: list[str], notes: list[str] = ()) -> None:
    verdict = "PASS" if not failures else "FAIL"
    lines = [f"[acceptance] criterion {number}: {verdict} - {description}"]
    lines += [f"    {f}" for f in failures]
    lines += [f"    {n}" for n in notes]
    for line in lines:
        print(line)
        # also reach the live terminal so every criterion's verdict shows up
        # in the run log, not only the captured output of failing tests
        if sys.stdout is not sys.__stdout__ and sys.__stdout__ is not None:
            print(line, file=sys.__stdout__)
    assert not failures, f"criterion {number}: {failures}"


# ---------------------------------------------------------------------------
# k-standard-error rows and their finite-variance preconditions


@dataclass(frozen=True)
class Row:
    """One Monte Carlo estimate against its target.  ``degree`` is the
    summand's power of V (0 bounded, 1 linear, 2 quadratic) and ``phis`` the
    scales whose moments it needs; a one-sided row only bounds the estimate
    from below."""

    name: str
    est: float
    se: float
    target: float
    k: float
    degree: int
    phis: tuple[float, ...] = (PHI,)
    one_sided: bool = False

    @property
    def t(self) -> float:
        return (self.est - self.target) / self.se if self.se else math.inf

    @property
    def passed(self) -> bool:
        if self.one_sided:
            return self.est - self.target > -self.k * self.se
        return abs(self.est - self.target) < self.k * self.se


class Checks(NamedTuple):
    """A criterion's verdict rows, the power rows that must fail, and the
    replaced sample-moment rows kept as diagnostics."""

    verdict: list[Row]
    power: list[Row]
    diagnostic: list[Row]


def _variance_exponent(row: Row) -> tuple[str, float]:
    """The charexp exponent that is negative exactly when the row's summand
    has finite variance: E[V^2] for a linear summand, E[(V V~)^2] for a
    quadratic one."""
    if row.degree == 0:
        return "bounded", -math.inf
    if row.degree == 1:
        phi = max(row.phis)
        return f"psi(2, {phi:g})", psi(CTX, 2.0, phi)
    phi, phi_t = row.phis[0], row.phis[-1]
    return f"h_kappa(2, {phi:g}, {phi_t:g})", h_kappa(CTX, 2.0, phi, phi_t)


def _within(row: Row, failures: list[str]) -> None:
    name, exponent = _variance_exponent(row)
    if not exponent < 0.0:
        failures.append(f"{row.name}: summand variance is infinite ({name} = {exponent:+.3g} >= 0); no verdict")
        return
    if not row.passed:
        bound = f"t < -{row.k:g}" if row.one_sided else f"|t| > {row.k:g}"
        failures.append(f"{row.name}: est={row.est:.6g} target={row.target:.6g} se={row.se:.3g} "
                        f"t={row.t:.2f}, {bound}")


def _summand_tail(phis: tuple[float, ...]) -> float:
    """Tail index of a quadratic summand V^phi V^phi~: the root in k of
    h_kappa(k, phi, phi~) (kappa/2 when the scales agree)."""
    return brentq(lambda k: h_kappa(CTX, k, phis[0], phis[-1]), 1.0, 4.0)


def _apply(checks: Checks, failures: list[str]) -> list[str]:
    """Judge the verdict and power rows; return a summary line and the
    diagnostic lines."""
    for row in checks.verdict:
        _within(row, failures)
    for row in checks.power:
        if not abs(row.t) > row.k:
            failures.append(f"{row.name}: |t|={abs(row.t):.2f} <= {row.k:g} at the wrong scale; no power")
    two_sided = [abs(row.t) for row in checks.verdict if not row.one_sided]
    summary = f"{len(checks.verdict)} verdict rows, two-sided max |t| = {max(two_sided):.2f}"
    if checks.power:
        summary += f"; power rows min |t| = {min(abs(row.t) for row in checks.power):.2f}"
    return [summary] + [
        f"diagnostic {row.name}: est={row.est:.6g} target={row.target:.6g} se={row.se:.3g} "
        f"|t|={abs(row.t):.2f}, summand tail index {_summand_tail(row.phis):.2f} (no verdict)"
        for row in checks.diagnostic
    ]


def _agree(name: str, closed: float, independent: float, failures: list[str]) -> None:
    if not abs(closed - independent) <= 1e-10 * abs(independent):
        failures.append(f"{name}: closed form {float(closed)!r} != moment equations "
                        f"{float(independent)!r} (1e-10)")


# ---------------------------------------------------------------------------
# bounded identities


def _u(v: np.ndarray, c: float) -> np.ndarray:
    return v / (1.0 + v / c)


def _generator_row(name: str, x: np.ndarray, y: np.ndarray, jumps, c: float) -> Row:
    """E[A f] = 0 at stationarity for f = u_c(x) u_c(y), both coordinates
    relaxing as d(.) = (beta - eta (.)) dt between marks; ``jumps`` lists
    (probability, dx, dy), the coordinates' moves per unit squared driver
    jump.  The summand is bounded: 0 <= u_c <= c and
    |(beta - eta v) u_c'(v)| <= beta + eta c / 4."""
    du = lambda v: 1.0 / (1.0 + v / c) ** 2
    fx, fy = _u(x, c), _u(y, c)
    summand = (BETA - ETA * x) * du(x) * fy + (BETA - ETA * y) * fx * du(y)
    for q, dx, dy in jumps:
        moved = _u(x + _S_NODES * dx, c) * _u(y + _S_NODES * dy, c)
        summand = summand + q * np.sum(_S_WEIGHTS * (moved - fx * fy), axis=0)
    est, se = mc_mean(summand)
    return Row(f"{name} generator[c={c:g}]", est, se, 0.0, 5.0, degree=0)


def _decay_row(name: str, v_h: np.ndarray, v_0: np.ndarray, phi: float, h: float, g: np.ndarray) -> Row:
    """E[V_h | F_0] = mean + exp(psi(1, phi) h) (V_0 - mean), so
    V_h - exp(psi(1, phi) h) V_0 is uncorrelated with any time-0 weight g."""
    est, se = mc_covariance(v_h - math.exp(psi(CTX, 1.0, phi) * h) * v_0, g)
    return Row(f"{name} decay[h={h:g}]", est, se, 0.0, 5.0, degree=1, phis=(phi,))


def _price_kernel(variant: Variant, vbar: np.ndarray, comps: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """P_h = E[(dG_h)^2 | F_h] = E[S_1] * integral over (h, h + r] of
    E[Vbar_s | F_h] ds, from Vbar_h and the components V^i_h (the columns of
    ``comps``).  Each component decays to its mean at rate psi(1, phi_i);
    for variant 3 the gap Vbar - sum p_i V^i decays at rate eta."""
    total = 0.0
    for (phi, p), v in zip(MOMENT_MIX.atoms(), comps.T):
        rate = psi(CTX, 1.0, scale * phi)
        mean = -BETA / rate
        total = total + p * (R * mean + (v - mean) * math.expm1(rate * R) / rate)
    if variant is Variant.SUP3:
        gap = vbar - comps @ np.array(MOMENT_MIX.weights)
        total = total - gap * math.expm1(-ETA * R) / ETA
    return E_S * total


# ---------------------------------------------------------------------------
# independent solution of the moment equations


class _MomentSystem:
    """Second-order moment equations of the state w = (V^1, ..., V^n, Vbar)
    of a superposition, solved without the closed forms.

    Between marks every coordinate relaxes as dw = (beta - eta w) dt; a
    mark with squared jump s moves the state by s * J @ w, the map J drawn
    from ``events`` = (probability, J, moves the price).  The generator maps
    linear and quadratic monomials onto themselves,

        A w     = beta 1 + B w,    B = -eta I + E[S_1] sum_J q J,
        A ww^T  = beta (1 w^T + w 1^T) + B ww^T + ww^T B^T
                  + Var[S_1] sum_J q J ww^T J^T,

    so the stationary moments solve linear systems and conditional means
    propagate by exp(B t).
    """

    def __init__(self, variant: Variant, mixture: Mixture):
        n = len(mixture)
        p, phi = np.array(mixture.weights), np.array(mixture.phis)
        atoms = np.arange(n)

        def jmap(moved, agg_row):
            m = np.zeros((n + 1, n + 1))
            m[moved, moved] = phi[moved]
            m[n, :n] = agg_row
            return m

        if variant is Variant.SUP1:  # driver j moves atom j; the price follows driver 0
            events = [(1.0, jmap([j], np.where(atoms == j, p * phi, 0.0)), j == 0) for j in atoms]
        elif variant is Variant.SUP2:  # one shared driver, p-weighted aggregate jump
            events = [(1.0, jmap(atoms, p * phi), True)]
        else:  # shared driver; the aggregate takes atom j's jump with probability p_j
            events = [(p[j], jmap(atoms, np.where(atoms == j, phi, 0.0)), True) for j in atoms]
        d = n + 1
        eye = np.eye(d)
        self.vbar = n
        self.events = events
        self.B = -ETA * eye + E_S * sum(q * m for q, m, _ in events)
        self.mean = np.linalg.solve(self.B, -BETA * np.ones(d))
        op = (np.kron(self.B, eye) + np.kron(eye, self.B)
              + VAR_S * sum(q * np.kron(m, m) for q, m, _ in events))
        rhs = -BETA * np.add.outer(self.mean, self.mean)
        self.second = np.linalg.solve(op, rhs.ravel()).reshape(d, d)

    def cov(self, h: float = 0.0) -> np.ndarray:
        """Cov[w_0, w_h]: rows at time 0, columns at time h."""
        return (self.second - np.outer(self.mean, self.mean)) @ expm(self.B * h).T

    def sq_inner(self, r: float) -> np.ndarray:
        """Cov[(dG_r)^2, w_r] for the price increment U over (0, r].  With
        U_0 = 0, dE[U^2]/dt = E[S_1] E[Vbar], and (odd jump moments
        vanishing for the symmetric driver)

            A(U^2 w) = beta U^2 1 + B U^2 w
                       + sum_price-moving J q (E[S_1] I + Var[S_1] J) Vbar w.
        """
        d = self.vbar + 1
        forcing = sum(q * (E_S * np.eye(d) + VAR_S * m) for q, m, moves in self.events if moves)
        # augmented linear ODE in (E[U^2 w], E[U^2], 1)
        a = np.zeros((d + 2, d + 2))
        a[:d, :d] = self.B
        a[:d, d] = BETA
        a[:d, d + 1] = forcing @ self.second[:, self.vbar]
        a[d, d + 1] = E_S * self.mean[self.vbar]
        z = expm(a * r)[:, d + 1]
        return z[:d] - z[d] * self.mean

    def sq_increment_cov(self, r: float, h: float) -> float:
        """Cov[(dG_r at 0)^2, (dG_r at h)^2] for h >= r: the first squared
        increment's covariance with w carried from r to h by exp(B (h - r)),
        then weighted by the window integral of exp(B t) over [0, r]."""
        d = self.vbar + 1
        a = np.zeros((2 * d, 2 * d))
        a[:d, :d] = self.B
        a[:d, d:] = np.eye(d)
        window = expm(a * r)[:d, d:]
        return float(E_S * (window @ expm(self.B * (h - r)) @ self.sq_inner(r))[self.vbar])


# ---------------------------------------------------------------------------
# shared Monte Carlo batches (module-scoped; one committed root seed)


def _cogarch_batch(seed: int) -> dict:
    """n stationary paths of V^{0.5}; values at times 0 and the lags."""
    params = CogarchParams(BETA, ETA, PHI)
    t0 = time.perf_counter()
    query = np.array((0.0,) + LAGS)
    vals = chunked(
        lambda first, n: simulate_cogarch_batch(
            params, MODEL, (0.0, LAGS[-1]), seed, (A_COG,), n, 80.0, first,
        ).values(query),
        N_DRAWS,
    )
    return {"values": vals, "elapsed": time.perf_counter() - t0}


def _cross_batch(seed: int) -> np.ndarray:
    """Shared-driver pair (0.5, 0.2): V^{0.5}_0, V^{0.2}_0, V^{0.2}_h."""
    query = np.array(LAGS)

    def sample(first: int, n: int) -> np.ndarray:
        b = simulate_batch(Variant.SUP2, PAIR, BETA, ETA, MODEL, (0.0, LAGS[-1]), seed, (A_CROSS,), n,
                           first=first)
        low, high = b.components  # sorted ascending: index 1 is phi = 0.5
        return np.column_stack([high.v0, low.v0, low.values(query)])

    return chunked(sample, N_DRAWS)


def _sup_batch(seed: int) -> dict:
    """Stationary draws per variant for the two-atom moment mixture: the
    aggregate (column 0) and the components (mixture order) at t0."""
    out = {}
    for vi, variant in enumerate(Variant):

        def sample(first: int, n: int, variant=variant, vi=vi) -> np.ndarray:
            b = simulate_batch(variant, MOMENT_MIX, BETA, ETA, MODEL, (0.0, 1.0), seed, (A_SUP, vi), n,
                               first=first)
            return np.column_stack([b.aggregate.v0, *(c.v0 for c in b.components)])

        out[variant] = chunked(sample, N_DRAWS)
    return out


def _price_batch(seed: int) -> dict:
    """Per variant: price increments over (0, r] and (h, h+r] ("inc"), and
    the aggregate ("vbar") and component ("comps", atoms along axis 1)
    volatilities at each h in PRICE_LAGS."""
    out = {}
    t0 = time.perf_counter()
    starts = np.array((0.0,) + PRICE_LAGS)
    lags = np.array(PRICE_LAGS)
    for vi, variant in enumerate(Variant):

        def sample(first: int, n: int, variant=variant, vi=vi) -> np.ndarray:
            b = simulate_batch(variant, MOMENT_MIX, BETA, ETA, MODEL, (0.0, PRICE_LAGS[-1] + R), seed,
                               (A_PRICE, vi), n, first=first)
            levels = b.price_levels(np.concatenate([starts, starts + R]))
            return np.column_stack([
                levels[:, starts.size:] - levels[:, : starts.size],
                b.aggregate.values(lags),
                *(c.values(lags) for c in b.components),
            ])

        inc, vbar, comps = np.split(chunked(sample, N_PRICE), np.cumsum([starts.size, lags.size]), axis=1)
        out[variant] = {"inc": inc, "vbar": vbar, "comps": comps.reshape(N_PRICE, len(MOMENT_MIX), lags.size)}
    out["elapsed"] = time.perf_counter() - t0
    return out


@pytest.fixture(scope="module")
def cogarch_batch():
    return _cogarch_batch(ROOT_SEED)


@pytest.fixture(scope="module")
def cross_batch():
    return _cross_batch(ROOT_SEED)


@pytest.fixture(scope="module")
def sup_batch():
    return _sup_batch(ROOT_SEED)


@pytest.fixture(scope="module")
def price_batch():
    return _price_batch(ROOT_SEED)


@pytest.fixture(scope="module")
def q_batch():
    """100 bundle/price runs per variant at the two-atom showcase parameters."""
    out = {}
    for vi, variant in enumerate(Variant):
        runs = []
        for i in range(N_Q_PATHS):
            b = simulate_bundle(variant, FIG_MIX, BETA, ETA, MODEL, (0.0, 50.0),
                                substream(ROOT_SEED, A_Q, vi, i))
            gp = simulate_price(b)
            runs.append((extract_q(b, gp), jump_tally(b, gp)))
        out[variant] = runs
    return out


@pytest.fixture(scope="module")
def tail_batch():
    """1e5 stationary draws of V^{0.5} for tail-index estimation."""
    params = CogarchParams(BETA, ETA, PHI)
    return stationary_component_draws(params, MODEL, ROOT_SEED, N_TAIL, 80.0, family=A_TAIL)


# ---------------------------------------------------------------------------
# the Monte Carlo rows of criteria 2, 3, 4 and 7 (also run over seed lists
# by scripts/acceptance_calibration.py)


def _criterion2_checks(batch: dict) -> Checks:
    vals = batch["values"]
    v0 = vals[:, 0]
    g = _u(v0, G_C)
    verdict = [_generator_row("V", v0, v0, [(1.0, PHI * v0, PHI * v0)], c) for c in GEN_CS]
    verdict += [_decay_row("V", vals[:, 1 + j], v0, PHI, h, g) for j, h in enumerate(LAGS)]
    power = [_generator_row(f"V at phi={PHI_ALT:g}", v0, v0, [(1.0, PHI_ALT * v0, PHI_ALT * v0)], c)
             for c in GEN_CS]
    est, se = mc_variance(v0)
    diagnostic = [Row("variance", est, se, 12.0, 5.0, degree=2)]
    for j, h in enumerate(LAGS):
        est, se = mc_covariance(v0, vals[:, 1 + j])
        diagnostic.append(Row(f"acov[h={h:g}]", est, se, 12.0 * math.exp(-0.5 * h), 5.0, degree=2))
    return Checks(verdict, power, diagnostic)


def _criterion3_checks(vals: np.ndarray) -> Checks:
    hi, lo = vals[:, 0], vals[:, 1]
    phi_lo, phi_hi = PAIR.phis
    verdict = [_generator_row("pair", hi, lo, [(1.0, phi_hi * hi, phi_lo * lo)], c) for c in PAIR_CS]
    g = _u(hi, G_C)
    verdict += [_decay_row("V^0.2", vals[:, 2 + j], lo, phi_lo, h, g) for j, h in enumerate(LAGS)]
    # both coordinates are increasing functionals of one Poisson driver, so
    # increasing transforms of them are positively associated (Harris-FKG)
    est, se = mc_covariance(g, _u(lo, G_C))
    verdict.append(Row("bounded cross association", est, se, 0.0, 5.0, degree=0, one_sided=True))
    power = [_generator_row(f"pair at phi={PHI_ALT:g}", hi, lo, [(1.0, PHI_ALT * hi, phi_lo * lo)], c)
             for c in PAIR_CS]
    est, se = mc_covariance(hi, lo)
    diagnostic = [Row("cross cov", est, se, 0.75, 5.0, degree=2, phis=PAIR.phis[::-1])]
    for j, h in enumerate(LAGS):
        est, se = mc_covariance(hi, vals[:, 2 + j])
        diagnostic.append(Row(f"lagged cov[h={h:g}]", est, se, 0.75 * math.exp(-0.8 * h), 5.0,
                              degree=2, phis=PAIR.phis[::-1]))
    return Checks(verdict, power, diagnostic)


def _aggregate_generator_rows(variant: Variant, draws: np.ndarray, scale: float) -> list[Row]:
    """Generator identity for Vbar, whose jump per unit squared driver jump
    is sum p_i phi_i V^i (variant 2) or phi_j V^j with probability p_j
    (variant 3)."""
    vbar = draws[:, 0]
    moves = [(p, scale * phi * v) for (phi, p), v in zip(MOMENT_MIX.atoms(), draws[:, 1:].T)]
    if variant is Variant.SUP2:
        step = sum(p * dv for p, dv in moves)
        jumps = [(1.0, step, step)]
    else:
        jumps = [(p, dv, dv) for p, dv in moves]
    tag = variant.value if scale == 1.0 else f"{variant.value} at phi x{scale:g}"
    return [_generator_row(tag, vbar, vbar, jumps, c) for c in GEN_CS]


def _criterion4_checks(batch: dict) -> Checks:
    verdict = []
    for variant in Variant:
        est, se = mc_mean(batch[variant][:, 0])
        verdict.append(Row(f"{variant.value} mean", est, se, 1.7, 4.0, degree=1, phis=MOMENT_MIX.phis))
    power = []
    for variant in (Variant.SUP2, Variant.SUP3):
        verdict += _aggregate_generator_rows(variant, batch[variant], 1.0)
        power += _aggregate_generator_rows(variant, batch[variant], SCALE_ALT)
    top = (MOMENT_MIX.phi_bar,)
    est, se = mc_variance(batch[Variant.SUP2][:, 0])
    diagnostic = [Row("sup2 variance", est, se, sup2_var(MOMENT_MIX, BETA, ETA, MODEL), 5.0,
                      degree=2, phis=top)]
    est, se = mc_second_moment(batch[Variant.SUP3][:, 0])
    diagnostic.append(Row("sup3 second moment", est, se, sup3_second_moment(MOMENT_MIX, BETA, ETA, MODEL),
                          5.0, degree=2, phis=top))
    return Checks(verdict, power, diagnostic)


def _conditional_rows(batch: dict, scale: float = 1.0) -> list[Row]:
    """E[((dG_h)^2 - P_h) g] = 0 for g = 1 and the bounded, F_h-measurable
    g = u_10((dG_0)^2), at every h in PRICE_LAGS; ``scale`` multiplies the
    kernel's scales (power study)."""
    rows = []
    for variant in Variant:
        b = batch[variant]
        weights = (("1", 1.0), (f"u{G_C:g}((dG_0)^2)", _u(b["inc"][:, 0] ** 2, G_C)))
        for j, h in enumerate(PRICE_LAGS):
            resid = b["inc"][:, 1 + j] ** 2 - _price_kernel(variant, b["vbar"][:, j], b["comps"][:, :, j], scale)
            for name, g in weights:
                est, se = mc_mean(resid * g)
                rows.append(Row(f"{variant.value} conditional[h={h:g}, g={name}]", est, se, 0.0, 5.0,
                                degree=1, phis=MOMENT_MIX.phis))
    return rows


def _criterion7_checks(batch: dict) -> Checks:
    top = (MOMENT_MIX.phi_bar,)
    diagnostic = []
    for variant in (Variant.SUP1, Variant.SUP2):
        inc = batch[variant]["inc"]
        for j, h in enumerate(PRICE_LAGS[:2]):  # (r, h) in {(1, 1), (1, 2)}
            est, se = mc_covariance(inc[:, 0] ** 2, inc[:, 1 + j] ** 2)
            closed = sq_increment_cov_closed(variant, MOMENT_MIX, BETA, ETA, MODEL, R, h)
            diagnostic.append(Row(f"{variant.value} sq cov[h={h:g}]", est, se, closed, 5.0, degree=2, phis=top))

    b = batch[Variant.SUP3]
    at_r = PRICE_LAGS.index(R)
    x0sq = b["inc"][:, 0] ** 2
    for j, h in enumerate(PRICE_LAGS):

        def diff(*cols, _h=h):
            x0c, xhc, vbc, *cc = cols
            inner_agg = float(np.cov(x0c, vbc, ddof=1)[0, 1])
            inner_atoms = [float(np.cov(x0c, c, ddof=1)[0, 1]) for c in cc]
            pred = sq_increment_cov_sup3(MOMENT_MIX, BETA, ETA, MODEL, R, _h, inner_agg, inner_atoms)
            return pred - float(np.cov(x0c, xhc, ddof=1)[0, 1])

        cols = [x0sq, b["inc"][:, 1 + j] ** 2, b["vbar"][:, at_r], *b["comps"][:, :, at_r].T]
        d, se_d = grouped_jackknife(diff, cols)
        diagnostic.append(Row(f"sup3 lag consistency[h={h:g}]", d, se_d, 0.0, 5.0, degree=2, phis=top))
    return Checks(_conditional_rows(batch), [], diagnostic)


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_stationary_mean(cogarch_batch):
    failures: list[str] = []
    est, se = mc_mean(cogarch_batch["values"][:, 0])
    _within(Row("mean", est, se, 2.0, 4.0, degree=1), failures)
    if not cogarch_batch["elapsed"] < 60.0:
        failures.append(f"runtime {cogarch_batch['elapsed']:.1f}s >= 60s")
    _criterion(1, f"COGARCH mean 2.0 from {N_DRAWS} stationary draws (4 SE)", failures)


def test_criterion_2_variance_and_autocovariance(cogarch_batch):
    failures: list[str] = []
    params = CogarchParams(BETA, ETA, PHI)
    system = _MomentSystem(Variant.SUP2, Mixture.dirac(PHI))
    _agree("variance", stationary_variance(params, MODEL), system.cov()[0, 0], failures)
    _agree("variance 12", 12.0, system.cov()[0, 0], failures)
    for h in LAGS:
        independent = system.cov(h)[0, 0]
        _agree(f"acov[h={h:g}]", stationary_acov(params, MODEL, h), independent, failures)
        _agree(f"acov[h={h:g}] 12*exp(-0.5h)", 12.0 * math.exp(-0.5 * h), independent, failures)
    notes = _apply(_criterion2_checks(cogarch_batch), failures)

    a = stationary_variance(params, MODEL)
    b = stationary_variance_alt(params, MODEL)
    if not abs(a - b) <= 1e-12 * max(abs(a), abs(b)):
        failures.append(f"variance forms differ: {a!r} vs {b!r}")
    _criterion(2, "COGARCH variance 12 and acov 12*exp(-0.5h): moment equations (1e-10), "
                  "generator and decay identities (5 SE); dual forms at 1e-12", failures, notes)


def test_criterion_3_cross_covariance(cross_batch):
    failures: list[str] = []
    system = _MomentSystem(Variant.SUP2, PAIR)
    phi_lo, phi_hi = PAIR.phis
    independent = system.cov()[1, 0]  # index 1 is phi = 0.5
    _agree("cross cov", cross_cov(BETA, ETA, phi_hi, phi_lo, MODEL), independent, failures)
    _agree("cross cov 0.75", 0.75, independent, failures)
    if not independent >= 0.0:
        failures.append(f"cross covariance not nonnegative: {independent:.4g}")
    for h in LAGS:
        independent = system.cov(h)[1, 0]
        _agree(f"lagged cov[h={h:g}]", cross_acov(BETA, ETA, phi_hi, phi_lo, MODEL, h), independent, failures)
        _agree(f"lagged cov[h={h:g}] 0.75*exp(-0.8h)", 0.75 * math.exp(-0.8 * h), independent, failures)
    notes = _apply(_criterion3_checks(cross_batch), failures)
    _criterion(3, "shared-driver cross covariance 0.75 with exp(-0.8h) decay: moment equations "
                  "(1e-10), pair generator, decay and association (5 SE)", failures, notes)


def test_criterion_4_superposition_moments(sup_batch):
    failures: list[str] = []
    n = len(MOMENT_MIX)
    _agree("sup2 variance", sup2_var(MOMENT_MIX, BETA, ETA, MODEL),
           _MomentSystem(Variant.SUP2, MOMENT_MIX).cov()[n, n], failures)
    _agree("sup3 second moment", sup3_second_moment(MOMENT_MIX, BETA, ETA, MODEL),
           _MomentSystem(Variant.SUP3, MOMENT_MIX).second[n, n], failures)
    notes = _apply(_criterion4_checks(sup_batch), failures)
    _criterion(4, "superposition means 1.7 (4 SE); sup2 variance, sup3 second moment: moment "
                  "equations (1e-10), aggregate generator identities (5 SE)", failures, notes)


def test_criterion_5_pathwise_jump_identities():
    failures: list[str] = []
    for seed_k, mix in ((0, FIG_MIX), (1, MOMENT_MIX)):
        for vi, variant in enumerate(Variant):
            b = simulate_bundle(variant, mix, BETA, ETA, MODEL, (0.0, 60.0),
                                substream(ROOT_SEED, 150, seed_k, vi))
            checks = bundle_identity_checks(b) + price_identity_checks(b, simulate_price(b))
            for c in checks:
                if not c.passed:
                    failures.append(f"{mix.phis}/{c.name}: {c.value:.3g} ({c.requirement})")
    _criterion(5, "path-wise jump identities exact to machine precision", failures)



def test_criterion_6_price_second_order(price_batch):
    failures: list[str] = []
    for variant in Variant:
        inc = price_batch[variant]["inc"]
        inc0 = inc[:, 0]
        tag = variant.value
        est, se = mc_mean(inc0)
        _within(Row(f"{tag} increment mean", est, se, 0.0, 4.0, degree=1, phis=MOMENT_MIX.phis), failures)
        for j, h in enumerate(PRICE_LAGS):
            est, se = mc_covariance(inc0, inc[:, 1 + j])
            _within(Row(f"{tag} disjoint cov[h={h:g}]", est, se, 0.0, 4.0, degree=1, phis=MOMENT_MIX.phis),
                    failures)
        target = increment_mean_and_variance(variant, MOMENT_MIX, BETA, ETA, MODEL, R)[1]
        est, se = mc_second_moment(inc0)
        _within(Row(f"{tag} second moment", est, se, target, 4.0, degree=1, phis=MOMENT_MIX.phis), failures)
    _criterion(6, "price increments: mean 0, disjoint cov 0, E[(dG)^2] = r e2 E[Vbar] (4 SE)", failures)


def test_criterion_7_squared_increment_covariance(price_batch):
    failures: list[str] = []
    n = len(MOMENT_MIX)
    for variant in (Variant.SUP1, Variant.SUP2):
        system = _MomentSystem(variant, MOMENT_MIX)
        for h in PRICE_LAGS[:2]:  # (r, h) in {(1, 1), (1, 2)}
            closed = sq_increment_cov_closed(variant, MOMENT_MIX, BETA, ETA, MODEL, R, h)
            if not closed > 0.0:
                failures.append(f"{variant.value} closed form not positive at h={h:g}")
            _agree(f"{variant.value} sq cov[h={h:g}]", closed, system.sq_increment_cov(R, h), failures)

    # the variant-3 kernel, fed the inner covariances of the moment equations
    system = _MomentSystem(Variant.SUP3, MOMENT_MIX)
    inner = system.sq_inner(R)
    for h in PRICE_LAGS:
        independent = system.sq_increment_cov(R, h)
        if not independent > 0.0:
            failures.append(f"sup3 squared-increment covariance not positive at h={h:g}: {independent:.4g}")
        closed = sq_increment_cov_sup3(MOMENT_MIX, BETA, ETA, MODEL, R, h, inner[n], inner[:n])
        _agree(f"sup3 lag kernel[h={h:g}]", closed, independent, failures)
    notes = _apply(_criterion7_checks(price_batch), failures)

    if not price_batch["elapsed"] < 600.0:
        failures.append(f"criteria 6+7 runtime {price_batch['elapsed']:.0f}s >= 600s")
    _criterion(7, "squared-increment covariance: closed forms and sup3 lag kernel vs moment equations "
                  "(1e-10), conditional-moment identities (5 SE)", failures, notes)


def test_criterion_8_q_bounds_and_jump_structure(q_batch):
    failures: list[str] = []
    for variant in Variant:
        runs = q_batch[variant]
        n_violations = sum(len(check_q_bounds(qs, FIG_MIX).violations) for qs, _ in runs)
        if n_violations:
            failures.append(f"{variant.value}: {n_violations} q-bound violations")
    sup1_vol_only = sum(t.vol_only for _, t in q_batch[Variant.SUP1])
    if not sup1_vol_only > 0:
        failures.append("sup1 recorded no volatility-only jumps")
    logq = np.log([s.q for qs, _ in q_batch[Variant.SUP3] for s in qs])
    counts = [c for _, _, c in histogram(logq.tolist(), bins=50)]
    if not has_interior_gap(counts):
        failures.append("sup3 log-q histogram shows no disjoint clusters")
    _criterion(8, f"q-ratio bounds on {N_Q_PATHS} paths/variant; sup3 clusters; sup1 vol-only jumps", failures)


def test_criterion_9_tail_exponent_and_hill(tail_batch):
    failures: list[str] = []
    ctx = ExponentContext(MODEL, ETA)
    if not (psi(ctx, 2.0, PHI) < 0.0 < psi(ctx, 3.0, PHI)):
        failures.append("analytic bracket for the tail root is broken")
    kappa = kappa_of_phi(ctx, PHI)
    if not 2.0 < kappa < 3.0:
        failures.append(f"kappa_bar {kappa:.4f} outside (2, 3)")
    residual = abs(psi(ctx, kappa, PHI))
    if not residual < 1e-6:
        failures.append(f"root residual {residual:.2e} >= 1e-6")

    sweep = hill_sweep(tail_batch)
    bad = [(k, est) for k, est in sweep if not 1.5 < est < 3.5]
    if bad:
        failures.append(f"hill sweep outside (1.5, 3.5): {bad}")

    rng = rng_from(substream(ROOT_SEED, A_PARETO))
    pareto = rng.uniform(size=N_TAIL) ** (-1.0 / 2.5)
    est = hill_estimator(pareto, default_hill_k(N_TAIL))
    if not abs(est - 2.5) <= 0.25:
        failures.append(f"Pareto calibration {est:.3f} outside 2.5 +- 0.25")
    _criterion(9, f"tail root in (2, 3) at residual 1e-6; Hill sweep on {N_TAIL} draws", failures)


VERIFY_CFG = """
[mixture]
phis = 0.12, 0.06
weights = 0.6, 0.4

[simulation]
variants = sup1, sup2, sup3
horizon = 20.0
replications = 400
q_paths = 10
tail_samples = 2000
seed = 20260810

[analysis]
increments = 1.0
lags = 1.0, 2.0
tolerance_k = 5.0
"""


def test_criterion_10_determinism_and_thread_invariance(tmp_path: Path):
    failures: list[str] = []
    cfg = tmp_path / "verify.cfg"
    cfg.write_text(VERIFY_CFG)
    outs = [tmp_path / name for name in ("run1", "run2", "run4")]
    codes = [
        cli_main(["verify", "--config", str(cfg), "--out", str(outs[0]), "--threads", "1"]),
        cli_main(["verify", "--config", str(cfg), "--out", str(outs[1]), "--threads", "1"]),
        cli_main(["verify", "--config", str(cfg), "--out", str(outs[2]), "--threads", "4"]),
    ]
    if set(codes) != {0}:
        failures.append(f"verify exit codes {codes} != 0")
    for name in ("verification.csv", "verification_checks.csv", "price_increments.csv"):
        blobs = [(out / name).read_bytes() for out in outs]
        if not (blobs[0] == blobs[1] == blobs[2]):
            failures.append(f"{name} differs across runs/threads")
    _criterion(10, "cmd_verify byte-identical across reruns and --threads in {1, 4}", failures)
