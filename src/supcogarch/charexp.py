"""Laplace exponent of the auxiliary process and its boundary equations.

The stationary COGARCH theory runs through the function

    psi(u, phi) = -eta*u + integral((1 + phi*y)^u - 1) nu_S(dy),

finite exactly when E[S_1^u] is finite.  Everything here reduces to
integrals against the subordinator Levy measure nu_S, evaluated per driver:

* compound Poisson with standard normal jumps: Gauss-Hermite quadrature,
  node count doubled until the value is stable to ~1e-11 relative (the
  rules ship in ``hermite_rules.npy``, see scripts/make_hermite_rules.py);
* variance gamma: exp-sinh quadrature (Takahasi & Mori 1974) against the
  closed-form Levy density, step halved from 1/4 to 1/128 until stable.

One loop refines every driver's rules and raises DivergentIntegralError on
a value that is not finite.  For u in {1, 2} the exact closed forms in
(E[S_1], Var[S_1]) override quadrature.  A compound Poisson driver with any
other jump law gets only these closed forms (psi at u in {0, 1, 2} and
h_cross); every integral against its nu_S raises ValueError.  The
stationarity gate :func:`is_stationary` needs no integral inside the
first-moment region.  Root finding is plain bisection after geometric
bracket expansion; the bracketed functions are monotone or convex where
roots are sought.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from .levy import CompoundPoisson, LevyModel, VarianceGamma, s_moments

__all__ = [
    "ExponentContext",
    "NoRootError",
    "DivergentIntegralError",
    "psi",
    "log_moment",
    "is_stationary",
    "phi_max",
    "kappa_of_phi",
    "phi_max_kappa",
    "h_cross",
    "h_kappa",
]

_GH_LEVELS = (64, 128, 256, 512, 1024)
_REFINE_RTOL = 1e-11
_ROOT_XTOL_PHI = 1e-10
_ROOT_XTOL_KAPPA = 1e-12
_BRACKET_CAP = 2.0 ** 60
_EXP_SINH_STEPS = tuple(2.0 ** -k for k in range(2, 8))
_EXP_SINH_XMAX = 740.0
#: raw scipy.special.roots_hermite(n) for n in _GH_LEVELS: shape (2, sum of
#: levels), nodes then weights, written by scripts/make_hermite_rules.py
HERMITE_RULES_FILE = Path(__file__).with_name("hermite_rules.npy")


class NoRootError(ValueError):
    """No positive root exists: the requested regime is nonstationary."""


class DivergentIntegralError(ArithmeticError):
    """Integral against nu_S fails to converge (E[S_1^u] infinite)."""


@dataclass(frozen=True)
class ExponentContext:
    """Driver model plus the mean-reversion rate eta > 0."""

    model: LevyModel
    eta: float

    def __post_init__(self) -> None:
        if not self.eta > 0.0:
            raise ValueError(f"eta must be > 0, got {self.eta}")


@lru_cache(maxsize=None)
def _hermite_rules() -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Per level of _GH_LEVELS, nodes and weights for weight exp(-x^2),
    mapped to N(0,1) by y = sqrt(2) x."""
    table = np.load(HERMITE_RULES_FILE, allow_pickle=False)
    if table.shape != (2, sum(_GH_LEVELS)) or table.dtype != np.float64:
        raise ValueError(f"{HERMITE_RULES_FILE} holds {table.dtype} {table.shape}; regenerate it")
    levels = np.split(table, np.cumsum(_GH_LEVELS)[:-1], axis=1)
    return tuple((math.sqrt(2.0) * x, w / math.sqrt(math.pi)) for x, w in levels)


def _refined(values: Iterable[float]) -> float:
    """Pick the converged value from a refinement sequence; detect blow-up.
    Later values are not computed once two agree."""
    values = iter(values)
    prev, grew = next(values), 0
    for cur in values:
        if abs(cur - prev) <= _REFINE_RTOL * (1.0 + abs(cur)):
            return cur
        grew = grew + 1 if abs(cur) > 2.0 * abs(prev) + 1.0 else 0
        if grew >= 3:
            raise DivergentIntegralError("integral grows without bound under refinement")
        prev = cur
    return prev


@lru_cache(maxsize=None)
def _exp_sinh_rules(c: float) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Exp-sinh rules (Takahasi & Mori 1974) for integral g(y) exp(-c y) dy / y
    over y > 0, one per step h in _EXP_SINH_STEPS: the trapezoid rule in t on
    [-4, 4] after c y = x = exp(pi/2 sinh t), dy / y = (pi/2) cosh t dt.
    Nodes with x >= _EXP_SINH_XMAX, where exp(-x) underflows, are dropped."""
    rules = []
    for h in _EXP_SINH_STEPS:
        k = round(4.0 / h)
        t = h * np.arange(-k, k + 1)
        x = np.exp(0.5 * math.pi * np.sinh(t))
        t, x = t[x < _EXP_SINH_XMAX], x[x < _EXP_SINH_XMAX]
        rules.append((x / c, np.exp(-x) * np.cosh(t) * (0.5 * math.pi * h)))
    return tuple(rules)


def _s_integral(model: LevyModel, f: Callable[[np.ndarray], np.ndarray]) -> float:
    """integral of f against nu_S, i.e. integral of f(y^2) against nu_L.

    Each driver gives a scale and refinement levels (nodes y, weights w)
    with the integral ~ scale * sum(w * f(y^2)) per level.  f must vanish at
    0 and grow at most polynomially where E[S_1^u] is finite; both shipped
    drivers then give convergent integrals.  A value that overflows a
    double counts as divergent.  Compound Poisson integrates only standard
    normal jumps (Gauss-Hermite); any other jump law raises ValueError.
    """
    if isinstance(model, CompoundPoisson):
        if model.jumps.name != "standard_normal":
            raise ValueError(f"no integral rule against nu_S for jump law '{model.jumps.name}'")
        scale, rules = model.rate, _hermite_rules()
    elif isinstance(model, VarianceGamma):
        # nu_L(dy) = (1/(nu |y|)) exp(-c |y|) dy with c = sqrt(2/nu)/sigma, both signs
        scale, rules = 2.0 / model.nu, _exp_sinh_rules(math.sqrt(2.0 / model.nu) / model.sigma)
    else:
        raise TypeError(f"unsupported Levy model: {model!r}")
    with np.errstate(over="ignore", invalid="ignore"):
        val = _refined(scale * float(np.sum(w * f(y * y))) for y, w in rules)
    if not math.isfinite(val):
        raise DivergentIntegralError(f"the integral against nu_S is not finite ({val})")
    return val


def psi(ctx: ExponentContext, u: float, phi: float) -> float:
    """Laplace exponent value psi(u, phi); E[exp(-u X_t)] = exp(t psi(u, phi)).

    Closed forms for u in {1, 2}:

        psi(1, phi) = phi*E[S_1] - eta
        psi(2, phi) = 2*phi*E[S_1] + phi^2*Var[S_1] - 2*eta

    Raises DivergentIntegralError when E[S_1^u] is infinite.
    """
    if u < 0.0:
        raise ValueError(f"u must be >= 0, got {u}")
    if phi < 0.0:
        raise ValueError(f"phi must be >= 0, got {phi}")
    if phi == 0.0 or u == 0.0:
        return -ctx.eta * u
    m1, m2 = s_moments(ctx.model)
    if u == 1.0:
        return phi * m1 - ctx.eta
    if u == 2.0:
        return 2.0 * phi * m1 + phi * phi * m2 - 2.0 * ctx.eta
    integral = _s_integral(ctx.model, lambda y: (1.0 + phi * y) ** u - 1.0)
    return -ctx.eta * u + integral


@lru_cache(maxsize=4096)
def _log_moment_cached(model, phi: float) -> float:
    return _s_integral(model, lambda y: np.log1p(phi * y))


def log_moment(ctx: ExponentContext, phi: float) -> float:
    """integral of log(1 + phi*y) against nu_S; the stationarity condition
    compares this against eta.  Always finite when E[S_1] is (log(1+x) < x)."""
    if phi < 0.0:
        raise ValueError(f"phi must be >= 0, got {phi}")
    if phi == 0.0:
        return 0.0
    return _log_moment_cached(ctx.model, phi)


def is_stationary(ctx: ExponentContext, phi: float) -> bool:
    """The stationarity condition log_moment(ctx, phi) < eta (Klueppelberg,
    Lindner & Maller 2004).  log(1 + x) <= x makes psi(1, phi) < 0
    sufficient, so the quadrature runs only outside the first-moment region."""
    if phi == 0.0 or psi(ctx, 1.0, phi) < 0.0:
        return True
    return log_moment(ctx, phi) < ctx.eta


def _root(g: Callable[[float], float], below: Callable[[float, float], bool], lo: float, hi: float,
          xtol: float, error: Exception) -> float:
    """Root of g: hi doubles while below(g(hi), 0) (``error`` past
    _BRACKET_CAP), then bisection keeps g(lo) < 0 <= g(hi) down to xtol or adjacent doubles."""
    while below(g(hi), 0.0):
        hi *= 2.0
        if hi > _BRACKET_CAP:
            raise error
    while hi - lo > xtol and lo < (mid := 0.5 * (lo + hi)) < hi:
        if g(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def phi_max(ctx: ExponentContext) -> float:
    """Upper boundary of the stationarity interval: the unique root of
    log_moment(phi) = eta.  log_moment is continuous, strictly increasing
    and unbounded in phi, so bracketing plus bisection suffices."""
    g = lambda p: log_moment(ctx, p) - ctx.eta
    return _root(g, operator.lt, 0.0, 1.0, _ROOT_XTOL_PHI, NoRootError("failed to bracket the stationarity boundary"))


def kappa_of_phi(ctx: ExponentContext, phi: float) -> float:
    """The unique kappa > 0 with psi(kappa, phi) = 0: the Pareto tail
    exponent of the stationary volatility with jump scale phi.

    psi(., phi) is convex, starts negative (slope log_moment - eta < 0 for
    phi inside the stationarity region) and eventually turns positive.
    Strictly decreasing in phi.  Raises NoRootError at or beyond the
    stationarity boundary.
    """
    if not phi > 0.0:
        raise ValueError(f"phi must be > 0, got {phi}")
    if not is_stationary(ctx, phi):
        raise NoRootError(
            f"phi={phi} is outside the stationarity region; psi(., phi) has no positive root"
        )
    g = lambda u: psi(ctx, u, phi)
    lo = 1.0
    for _ in range(200):
        if g(lo) < 0.0:
            break
        lo /= 2.0
    else:  # pragma: no cover - defensive
        raise NoRootError("could not find a negative section of psi")
    error = DivergentIntegralError("psi never turns positive; tail root out of reach")
    return _root(g, operator.le, lo, max(2.0 * lo, 1.0), _ROOT_XTOL_KAPPA, error)


def phi_max_kappa(ctx: ExponentContext, kappa: float) -> float:
    """Boundary of the kappa-th moment region: the root in phi of
    psi(kappa, phi) = 0.  Regions are nested (larger kappa, smaller phi)."""
    if not kappa > 0.0:
        raise ValueError(f"kappa must be > 0, got {kappa}")
    g = lambda p: psi(ctx, kappa, p)
    return _root(g, operator.le, 0.0, 1.0, _ROOT_XTOL_PHI, NoRootError("failed to bracket the moment boundary"))


def h_cross(ctx: ExponentContext, phi: float, phi_t: float) -> float:
    """Joint exponent of two COGARCHes sharing one driver:

        h(phi, phi~) = -2*eta + (phi + phi~)*E[S_1] + phi*phi~*Var[S_1].

    Symmetric, and h(phi, phi) = psi(2, phi).
    """
    m1, m2 = s_moments(ctx.model)
    return -2.0 * ctx.eta + (phi + phi_t) * m1 + phi * phi_t * m2


def h_kappa(ctx: ExponentContext, kappa: float, phi: float, phi_t: float) -> float:
    """General-order joint exponent
    -2*eta*kappa + integral(((1+phi*y)(1+phi~*y))^kappa - 1) nu_S(dy);
    order 1 reduces to h_cross and phi~ = phi reduces to psi(2*kappa, phi)."""
    if kappa == 1.0:
        return h_cross(ctx, phi, phi_t)
    integral = _s_integral(
        ctx.model, lambda y: ((1.0 + phi * y) * (1.0 + phi_t * y)) ** kappa - 1.0
    )
    return -2.0 * ctx.eta * kappa + integral
