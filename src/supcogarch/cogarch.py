"""Exact event-driven simulation of a single COGARCH volatility process and
its stationary second-order structure.

The volatility solves dV = (beta - eta*V) dt + phi * V_- dS, with S the
squared-jump subordinator of the driver.  Between marks the path relaxes
deterministically toward beta/eta; at a mark it is multiplied by
(1 + phi * dS).  For finite-activity drivers this scheme is exact: there is
no time-discretisation error anywhere.

Closed forms (valid on the respective moment regions, psi1 = psi(1, phi),
psi2 = psi(2, phi)):

    E[V]        = beta / (eta - phi*E[S_1])        = -beta / psi1
    E[V^2]      = 2*beta^2 / (psi1 * psi2)
    Cov[V_t, V_{t+h}] = exp(h*psi1) * Var[V]

and for two COGARCHes driven by the same subordinator,

    E[V^phi V^phi~]    = beta^2 (psi1 + psi1~) / (psi1 * psi1~ * h(phi, phi~))
    Cov[V^phi, V^phi~] = beta^2 phi phi~ Var[S_1] / (psi1 * psi1~ * (-h(phi, phi~)))
    Cov[V^phi_t, V^phi~_{t+h}] = exp(h * psi1~) * Cov[V^phi_0, V^phi~_0].

The exponents psi1, psi2 and h come from :func:`charexp.psi` and
:func:`charexp.h_cross`.  Infinite moments surface as MomentDivergesError
(raised by :func:`moment_gate`), never as float inf; :func:`_try` turns it
into None.  ``COGARCH_MOMENTS`` is the table of the single-COGARCH closed
forms that the analytics table and the verification battery both read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import charexp
from .csvio import columns_to_csv, event_columns, export_grid, off_events
from .levy import JumpPath, LevyModel, s_moments

__all__ = [
    "MomentDivergesError",
    "NonStationaryError",
    "CogarchParams",
    "PathRecord",
    "evolve_value",
    "simulate_cogarch",
    "stationary_mean",
    "stationary_second_moment",
    "stationary_variance",
    "stationary_variance_alt",
    "stationary_acov",
    "COGARCH_MOMENTS",
    "cross_moment",
    "cross_cov",
    "cross_acov",
    "moment_gate",
    "default_burn_in",
    "stationary_start",
    "path_to_csv",
]

BURN_IN_FACTOR = 40.0
#: E[V^2] - E[V]^2 loses about log10(E[V^2] / Var[V]) digits; beyond this
#: ratio stationary_variance subtracts nothing (see there)
VARIANCE_CANCELLATION_LIMIT = 1e3


class MomentDivergesError(ArithmeticError):
    """The requested stationary moment is infinite for these parameters."""


class NonStationaryError(ValueError):
    """No stationary version exists (phi at or beyond the boundary)."""


@dataclass(frozen=True)
class CogarchParams:
    """COGARCH parameters: level beta > 0, rate eta > 0, jump scale phi >= 0."""

    beta: float
    eta: float
    phi: float

    def __post_init__(self) -> None:
        if not self.beta > 0.0:
            raise ValueError(f"beta must be > 0, got {self.beta}")
        if not self.eta > 0.0:
            raise ValueError(f"eta must be > 0, got {self.eta}")
        if self.phi < 0.0:
            raise ValueError(f"phi must be >= 0, got {self.phi}")

    @property
    def level(self) -> float:
        """Fixed point beta/eta of the between-jump drift."""
        return self.beta / self.eta


@dataclass(frozen=True)
class PathRecord:
    """Piecewise representation of a volatility path on [t0, t1].

    ``times`` are the jump events; ``left`` and ``post`` the values right
    before and after each one.  Between events the path is the exact ODE arc

        V(t) = beta/eta + (V(T_j) - beta/eta) * exp(-eta*(t - T_j)),

    so values anywhere can be reconstructed without a grid.
    """

    t0: float
    t1: float
    v0: float
    beta: float
    eta: float
    times: np.ndarray
    left: np.ndarray
    post: np.ndarray

    def __post_init__(self) -> None:
        for name in ("times", "left", "post"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return int(self.times.size)

    @property
    def level(self) -> float:
        return self.beta / self.eta

    def _piecewise(self, ts: np.ndarray, side: str) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        if self.times.size == 0:
            return _relax(self.level, self.eta, np.full(ts.shape, self.v0), ts - self.t0)
        idx = np.searchsorted(self.times, ts, side=side)
        base_v = np.where(idx > 0, self.post[np.maximum(idx - 1, 0)], self.v0)
        base_t = np.where(idx > 0, self.times[np.maximum(idx - 1, 0)], self.t0)
        return _relax(self.level, self.eta, base_v, ts - base_t)

    def values(self, ts: np.ndarray) -> np.ndarray:
        """Cadlag values at query times (post-jump value exactly at an event)."""
        return self._piecewise(ts, "right")

    def value_at(self, t: float) -> float:
        return float(self.values(np.array([t]))[0])

    def left_limits(self, ts: np.ndarray) -> np.ndarray:
        """Left limits at query times (pre-jump value exactly at an event)."""
        return self._piecewise(ts, "left")

    def left_limit_at(self, t: float) -> float:
        return float(self.left_limits(np.array([t]))[0])

    def final_value(self) -> float:
        return self.value_at(self.t1)

    def min_value(self) -> float:
        lo = min(float(np.min(self.left)), float(np.min(self.post))) if len(self) else self.v0
        return min(lo, self.v0, self.final_value())


def _relax(level: float, eta: float, v: np.ndarray, dt: np.ndarray) -> np.ndarray:
    """The exact arc between marks: state v relaxed toward ``level`` = beta/eta
    for a time dt, the one formula of every path query (float64 ``np.exp``)."""
    return level + (v - level) * np.exp(-eta * dt)


def _exp_decays(eta: float, gaps: np.ndarray) -> np.ndarray:
    """exp(-eta * gap) for each gap with ``math.exp``'s bits, the one decay
    rule of every recursion: complex128 ``np.exp`` at x + 0j calls the C
    library's ``cexp``, whose real part exp(x) cos 0 is ``math.exp``'s libm
    ``exp``; float64 ``np.exp`` rounds differently on 4% of x in [-750, 0]."""
    z = np.zeros(np.shape(gaps), complex)
    np.multiply(-eta, gaps, out=z.real)
    return np.exp(z, out=z).real


def _one_row(params: CogarchParams, s_path: JumpPath, v: float, t_start: float, record: bool, t_end: float | None):
    """:func:`batch._steps`, the engine's one stepping loop, on the marks of
    ``s_path`` as a one-row batch from state ``v`` at ``t_start``."""
    from . import batch  # batch builds on this module

    times, sizes = batch._pad([s_path.times], math.inf), batch._pad([s_path.sizes], 0.0)
    return batch._steps(params.beta, params.eta, (params.phi,), np.full((1, 1), float(v)), None,
                        np.full(1, float(t_start)), times, sizes, np.full(1, len(s_path)), None, record, t_end)


def evolve_value(params: CogarchParams, s_path: JumpPath, v: float, t_start: float, t_end: float) -> float:
    """Exact evolution through the marks of ``s_path`` from ``t_start``,
    relaxed up to ``t_end``; returns V(t_end).  The engine's burn-in on
    ``s_path`` at one row (:func:`_one_row`), so each draw of
    :func:`batch.stationary_draws` equals it on that draw's path."""
    return float(_one_row(params, s_path, v, t_start, False, t_end)[0][0, 0])


def simulate_cogarch(params: CogarchParams, s_path: JumpPath, v0: float) -> PathRecord:
    """Exact path of the COGARCH driven by the subordinator path ``s_path``.

    Deterministic exponential relaxation toward beta/eta between marks and
    the multiplicative update V -> V * (1 + phi * dS) at each mark: the
    engine's record of the live window at one row (:func:`_one_row`).
    """
    if not v0 > 0.0:
        raise ValueError(f"v0 must be > 0, got {v0}")
    rec = _one_row(params, s_path, v0, s_path.t0, True, None)[3]
    left, post = rec.left[0, 0, : len(s_path)], rec.post[0, 0, : len(s_path)]
    return PathRecord(s_path.t0, s_path.t1, v0, params.beta, params.eta, s_path.times.copy(), left, post)


def moment_gate(model: LevyModel, eta: float, phis: Sequence[float], order: float) -> list[float]:
    """psi(order, phi) for each scale in ``phis``; raises MomentDivergesError
    when any scale lies outside the order-``order`` moment region (psi >= 0)."""
    ctx = charexp.ExponentContext(model, eta)
    values = [charexp.psi(ctx, order, phi) for phi in phis]
    bad = [phi for phi, v in zip(phis, values) if v >= 0.0]
    if bad:
        raise MomentDivergesError(
            f"order-{order:g} moments diverge: psi({order:g}, phi) >= 0 at phi = {bad}"
        )
    return values


def stationary_mean(params: CogarchParams, model: LevyModel) -> float:
    (psi1,) = moment_gate(model, params.eta, (params.phi,), 1.0)
    return -params.beta / psi1


def stationary_second_moment(params: CogarchParams, model: LevyModel) -> float:
    (psi2,) = moment_gate(model, params.eta, (params.phi,), 2.0)
    psi1 = charexp.psi(charexp.ExponentContext(model, params.eta), 1.0, params.phi)
    return 2.0 * params.beta**2 / (psi1 * psi2)


def stationary_variance(params: CogarchParams, model: LevyModel) -> float:
    """Var[V] = E[V^2] - E[V]^2.  For small phi the two moments agree in
    more than three digits and the difference is ill-conditioned; there the
    variance is E[V]^2 * phi^2 Var[S_1] / (-psi(2, phi)), which takes
    psi(2, phi) - 2 psi(1, phi) = phi^2 Var[S_1] in closed form."""
    second = stationary_second_moment(params, model)
    mean = stationary_mean(params, model)
    var = second - mean**2
    if var * VARIANCE_CANCELLATION_LIMIT >= second:
        return var
    psi2 = charexp.psi(charexp.ExponentContext(model, params.eta), 2.0, params.phi)
    return mean**2 * (params.phi**2 * s_moments(model)[1] / (-psi2))


def stationary_variance_alt(params: CogarchParams, model: LevyModel) -> float:
    """Equivalent algebraic form beta^2 phi^2 Var[S_1] /
    (psi1^2 * (2*eta - 2*phi*E[S_1] - phi^2*Var[S_1])); must agree with
    :func:`stationary_variance` to floating-point accuracy."""
    (psi2,) = moment_gate(model, params.eta, (params.phi,), 2.0)
    psi1 = charexp.psi(charexp.ExponentContext(model, params.eta), 1.0, params.phi)
    return params.beta**2 * params.phi**2 * s_moments(model)[1] / (psi1**2 * (-psi2))


def stationary_acov(params: CogarchParams, model: LevyModel, h: float) -> float:
    """Cov[V_t, V_{t+h}] = exp(h * psi(1, phi)) * Var[V]."""
    if h < 0.0:
        raise ValueError(f"lag must be >= 0, got {h}")
    psi1 = charexp.psi(charexp.ExponentContext(model, params.eta), 1.0, params.phi)
    return math.exp(h * psi1) * stationary_variance(params, model)


#: the closed-form stationary moments of one COGARCH, keyed by quantity in
#: the row order of the analytics table; "acov" takes the lag h as a third
#: argument
COGARCH_MOMENTS = {
    "mean": stationary_mean, "second_moment": stationary_second_moment, "variance": stationary_variance,
    "acov": stationary_acov,
}


def _try(fn, *args) -> float | None:
    """``fn(*args)``, or None where the moment diverges."""
    try:
        return fn(*args)
    except MomentDivergesError:
        return None


def _cross_gate(
    eta: float, phi: float, phi_t: float, model: LevyModel
) -> tuple[float, float, float]:
    """(psi(1, phi), psi(1, phi~), h(phi, phi~)) once both scales lie in the
    second-moment region."""
    moment_gate(model, eta, (phi, phi_t), 2.0)
    ctx = charexp.ExponentContext(model, eta)
    psi1a, psi1b = charexp.psi(ctx, 1.0, phi), charexp.psi(ctx, 1.0, phi_t)
    return psi1a, psi1b, charexp.h_cross(ctx, phi, phi_t)


def cross_moment(
    beta: float, eta: float, phi: float, phi_t: float, model: LevyModel
) -> float:
    """E[V^phi_t V^phi~_t] for two COGARCHes sharing one driver."""
    psi1a, psi1b, h = _cross_gate(eta, phi, phi_t, model)
    return beta**2 * (psi1a + psi1b) / (psi1a * psi1b * h)


def cross_cov(beta: float, eta: float, phi: float, phi_t: float, model: LevyModel) -> float:
    """Cov[V^phi_t, V^phi~_t]; nonnegative."""
    psi1a, psi1b, h = _cross_gate(eta, phi, phi_t, model)
    return beta**2 * phi * phi_t * s_moments(model)[1] / (psi1a * psi1b * (-h))


def cross_acov(
    beta: float, eta: float, phi: float, phi_t: float, model: LevyModel, h: float
) -> float:
    """Cov[V^phi_t, V^phi~_{t+h}]; the lag decays at the rate of the second
    (lagged) scale."""
    if h < 0.0:
        raise ValueError(f"lag must be >= 0, got {h}")
    psi1b = charexp.psi(charexp.ExponentContext(model, eta), 1.0, phi_t)
    return math.exp(h * psi1b) * cross_cov(beta, eta, phi, phi_t, model)


def default_burn_in(params: CogarchParams, model: LevyModel) -> float:
    """Burn-in long enough that the initialisation bias exp(-40) is far
    below Monte Carlo noise: 40 forgetting times.  The rate is |psi(1, phi)|,
    that of the mean recursion, where the mean exists; beyond that region it
    is the Lyapunov rate eta - log_moment(phi) at which two paths on one
    driver merge (Klueppelberg, Lindner & Maller 2004), which |psi(1, phi)|
    never exceeds (log(1 + x) <= x).  Raises NonStationaryError outside the
    stationarity region, where no rate is positive."""
    ctx = charexp.ExponentContext(model, params.eta)
    if not charexp.is_stationary(ctx, params.phi):
        raise NonStationaryError(f"phi={params.phi} is at or beyond the stationarity boundary")
    psi1 = charexp.psi(ctx, 1.0, params.phi)
    rate = -psi1 if psi1 < 0.0 else params.eta - charexp.log_moment(ctx, params.phi)
    return BURN_IN_FACTOR / rate


def stationary_start(params: CogarchParams, model: LevyModel) -> float:
    """Burn-in start: the stationary mean, or beta/eta where it diverges."""
    mean = _try(stationary_mean, params, model)
    return params.level if mean is None else mean


def path_to_csv(record: PathRecord, grid_step: float | None = None) -> str:
    """CSV rows ``time,value,is_jump``: t0, then the uniform grid (or t1
    alone without ``grid_step``) except points that are event times, and the
    events, each with two rows (left limit then post-jump value)."""
    if grid_step is not None:
        grid = export_grid(record.t0, record.t1, grid_step)
    else:
        grid = np.array([record.t1])
    grid = off_events(grid, record.times)
    n, ones = grid.size + 1, np.ones(len(record))
    columns = event_columns(
        np.concatenate([[record.t0], grid]),
        record.times,
        [(np.concatenate([[record.v0], record.values(grid)]), record.left, record.post),
         (np.zeros(n), ones, ones)],
    )
    return columns_to_csv("time,value,is_jump", *columns)
