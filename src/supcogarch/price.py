"""Integrated price processes of the superposed volatility models.

The price is the stochastic integral G = integral sqrt(Vbar_-) dL against a
driving Levy path: pure-jump, piecewise constant, with dG_T =
sqrt(Vbar_{T-}) * dL_T at every driver mark.  Variant 1 prices are driven
by one chosen atom's Levy path (volatility jumps from other atoms produce
no price jump); variants 2 and 3 are driven by the shared path.

Second-order structure of stationary increments (r = increment length,
h >= r the lag, e2 = E[L_1^2], psi1 = psi(1, phi)):

    E[dG_r]            = 0
    E[(dG_r)^2]        = r * e2 * E[Vbar]
    Cov[dG_r at 0, dG_r at h] = 0
    Cov[(dG_r)^2 at 0, (dG_r)^2 at h]
        = e2 * sum_i p_i K(psi1_i; h, r) * Cov[(dG_r)^2, V_r^{phi_i}]

with kernel K(x; h, r) = (exp(h x) - exp((h-r) x)) / x and the inner
covariance in closed form

    Cov[(dG_r)^2, V_r^phi] = K(psi1; r, r)
        * (e2 * Cov[V^phi, Vbar] + [phi drives G] * phi * Var[S_1] * E[V^phi Vbar]),

where K(psi1; r, r) = (exp(r psi1) - 1) / psi1.

For variant 1 the indicator selects the driving atom only and
Cov[V^phi, Vbar] = p_phi Var[V^phi]; for variant 2 the shared driver keeps
the indicator on for every atom and Cov[V^phi, Vbar] mixes the pairwise
covariances.  For variant 3 the inner covariances have no closed form here;
they are Monte Carlo estimates combined through the two-rate kernel

    e2 * [ K(-eta; h, r) * Cov[(dG_r)^2, Vbar_r]
           + sum_i p_i (K(psi1_i; h, r) - K(-eta; h, r)) * Cov[(dG_r)^2, V_r^{phi_i}] ].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .cogarch import (
    CogarchParams,
    MomentDivergesError,
    cross_cov,
    cross_moment,
    moment_gate,
    stationary_mean,
    stationary_variance,
)
from . import charexp
from .csvio import columns_to_csv
from .levy import LevyModel, l_moments, s_moments
from .superpos import Mixture, SupPathBundle, Variant, sup1_mean

__all__ = [
    "PricePath",
    "simulate_price",
    "increment_mean_and_variance",
    "increment_autocov",
    "lag_kernel",
    "sq_increment_vol_cov",
    "sq_increment_cov_closed",
    "sq_increment_cov_sup3",
    "PRICE_MOMENTS",
    "price_to_csv",
]


@dataclass(frozen=True)
class PricePath:
    """Pure-jump price path: G(t0) = 0, one jump per driver mark.

    ``deltas`` are the jump sizes sqrt(Vbar_{T-}) * dL_T; ``values`` the
    cumulative sums (the post-jump level).  ``vbar_left`` keeps the left
    limit of the aggregate volatility used for each jump.
    """

    variant: Variant
    t0: float
    t1: float
    times: np.ndarray
    deltas: np.ndarray
    values: np.ndarray
    vbar_left: np.ndarray
    driver_atom: int | None = None

    def __post_init__(self) -> None:
        for name in ("times", "deltas", "values", "vbar_left"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return int(self.times.size)

    def values_at(self, ts: np.ndarray) -> np.ndarray:
        """Cadlag piecewise-constant level of G at query times."""
        return np.append(0.0, self.values)[np.searchsorted(self.times, ts, side="right")]

    def value_at(self, t: float) -> float:
        return float(self.values_at(np.array([t]))[0])

    def increment(self, t: float, r: float) -> float:
        """G(t + r) - G(t)."""
        return self.value_at(t + r) - self.value_at(t)


def simulate_price(bundle: SupPathBundle, driver_atom: int | None = None) -> PricePath:
    """Integrate sqrt(Vbar_-) against the chosen driver of a simulated
    bundle.  Variant 1 defaults to the first atom; variants 2 and 3 have a
    single canonical driver."""
    if bundle.variant is Variant.SUP1:
        atom = 0 if driver_atom is None else driver_atom
        if not 0 <= atom < len(bundle.mixture):
            raise ValueError(f"driver_atom {atom} out of range for {len(bundle.mixture)} atoms")
    else:
        if driver_atom not in (None, 0):
            raise ValueError("only variant 1 admits a driver atom choice")
        atom = 0
    driver = bundle.drivers[atom]
    agg = bundle.aggregate

    pos = np.searchsorted(agg.times, driver.times)
    if pos.size and not np.array_equal(agg.times[pos], driver.times):
        raise AssertionError("driver marks must be aggregate event times")
    vbar_left = agg.left[pos] if pos.size else np.array([])
    deltas = np.sqrt(vbar_left) * driver.sizes
    return PricePath(
        variant=bundle.variant,
        t0=agg.t0,
        t1=agg.t1,
        times=driver.times.copy(),
        deltas=deltas,
        values=np.cumsum(deltas),
        vbar_left=vbar_left,
        driver_atom=atom if bundle.variant is Variant.SUP1 else None,
    )


def increment_mean_and_variance(
    variant: Variant,
    mixture: Mixture,
    beta: float,
    eta: float,
    model: LevyModel,
    r: float,
) -> tuple[float, float]:
    """(E[dG_r], E[(dG_r)^2]) = (0, r * E[L_1^2] * E[Vbar]); the mean
    formula is shared by all three variants."""
    mean = _increment_mean(mixture, beta, eta, model, r)
    e2 = l_moments(model)[0]
    mean_bar = sup1_mean(mixture, beta, eta, model)  # same formula for all variants
    return mean, r * e2 * mean_bar


def _increment_mean(mixture: Mixture, beta: float, eta: float, model: LevyModel, r: float) -> float:
    """E[dG_r] = 0 for every variant, where E[sqrt(Vbar)] is finite: the
    moment gate at order 0.5."""
    if not r > 0.0:
        raise ValueError(f"increment length must be > 0, got {r}")
    moment_gate(model, eta, mixture.phis, 0.5)
    return 0.0


def increment_autocov(
    variant: Variant,
    mixture: Mixture,
    beta: float,
    eta: float,
    model: LevyModel,
    r: float,
    h: float,
) -> float:
    """Cov of increments over disjoint windows vanishes for every variant."""
    if not r > 0.0 or h < r:
        raise ValueError(f"need h >= r > 0, got r={r}, h={h}")
    moment_gate(model, eta, mixture.phis, 1.0)  # the increments' second moments, r * E[L_1^2] * E[Vbar]
    return 0.0


def lag_kernel(x: float, h: float, r: float) -> float:
    """K(x; h, r) = (exp(h x) - exp((h - r) x)) / x, the lag weight the
    squared-increment covariances put on a component decaying at rate x."""
    if x == 0.0:
        return r
    return (math.exp(h * x) - math.exp((h - r) * x)) / x


def _sq_gates(mixture: Mixture, eta: float, model: LevyModel) -> None:
    third = l_moments(model)[2]
    if third != 0.0:
        raise MomentDivergesError(
            f"squared-increment covariances need a vanishing third Levy moment, got {third}"
        )
    moment_gate(model, eta, mixture.phis, 2.0)
    if len(mixture) == 1 and mixture.phis[0] == 0.0:
        raise MomentDivergesError("squared-increment covariance vanishes for a point mass at 0")


def sq_increment_vol_cov(
    variant: Variant,
    mixture: Mixture,
    beta: float,
    eta: float,
    model: LevyModel,
    atom_index: int,
    r: float,
    driver_atom: int = 0,
) -> float:
    """Closed-form Cov[(dG_r)^2, V_r^{phi_i}] for variants 1 and 2."""
    if variant is Variant.SUP3:
        raise ValueError("variant 3 inner covariances are estimated, not closed-form")
    if not r > 0.0:
        raise ValueError(f"increment length must be > 0, got {r}")
    _sq_gates(mixture, eta, model)
    e2 = l_moments(model)[0]
    phi_i = mixture.phis[atom_index]
    p_i = mixture.weights[atom_index]
    params_i = CogarchParams(beta, eta, phi_i)
    psi1_i = charexp.psi(charexp.ExponentContext(model, eta), 1.0, phi_i)
    mean_bar = sup1_mean(mixture, beta, eta, model)

    if variant is Variant.SUP1:
        cov_vbar = p_i * stationary_variance(params_i, model)
        ev_vbar = stationary_mean(params_i, model) * mean_bar + cov_vbar
        drives = atom_index == driver_atom
    else:
        cov_vbar = sum(
            w_j * cross_cov(beta, eta, phi_i, phi_j, model)
            for phi_j, w_j in mixture.atoms()
        )
        ev_vbar = sum(
            w_j * cross_moment(beta, eta, phi_i, phi_j, model)
            for phi_j, w_j in mixture.atoms()
        )
        drives = True
    scale = e2 * cov_vbar + (phi_i * s_moments(model)[1] * ev_vbar if drives else 0.0)
    return lag_kernel(psi1_i, r, r) * scale


def sq_increment_cov_closed(
    variant: Variant,
    mixture: Mixture,
    beta: float,
    eta: float,
    model: LevyModel,
    r: float,
    h: float,
    driver_atom: int = 0,
) -> float:
    """Closed-form Cov[(dG_r)^2 at 0, (dG_r)^2 at h] for variants 1 and 2;
    strictly positive on its domain."""
    if not r > 0.0 or h < r:
        raise ValueError(f"need h >= r > 0, got r={r}, h={h}")
    _sq_gates(mixture, eta, model)
    ctx = charexp.ExponentContext(model, eta)
    e2 = l_moments(model)[0]
    total = 0.0
    for i, (phi_i, w_i) in enumerate(mixture.atoms()):
        psi1_i = charexp.psi(ctx, 1.0, phi_i)
        inner = sq_increment_vol_cov(
            variant, mixture, beta, eta, model, i, r, driver_atom
        )
        total += w_i * lag_kernel(psi1_i, h, r) * inner
    return e2 * total


def sq_increment_cov_sup3(
    mixture: Mixture,
    beta: float,
    eta: float,
    model: LevyModel,
    r: float,
    h: float,
    inner_agg: float,
    inner_atoms: "np.ndarray | list[float]",
) -> float:
    """Variant-3 squared-increment covariance at lag h, assembled from the
    lag-independent inner covariances Cov[(dG_r)^2, Vbar_r] (``inner_agg``)
    and Cov[(dG_r)^2, V_r^{phi_i}] (``inner_atoms``), typically Monte Carlo
    estimates made once and reused across lags."""
    if not r > 0.0 or h < r:
        raise ValueError(f"need h >= r > 0, got r={r}, h={h}")
    if len(inner_atoms) != len(mixture):
        raise ValueError("need one inner covariance per atom")
    _sq_gates(mixture, eta, model)
    ctx = charexp.ExponentContext(model, eta)
    e2 = l_moments(model)[0]
    k0 = lag_kernel(-eta, h, r)
    total = k0 * inner_agg
    for (phi_i, w_i), c_i in zip(mixture.atoms(), inner_atoms):
        total += w_i * (lag_kernel(charexp.psi(ctx, 1.0, phi_i), h, r) - k0) * float(c_i)
    return e2 * total


def _increment_second_moment(mixture: Mixture, beta: float, eta: float, model: LevyModel, r: float) -> float:
    return increment_mean_and_variance(Variant.SUP1, mixture, beta, eta, model, r)[1]


def _increment_cov(mixture: Mixture, beta: float, eta: float, model: LevyModel, r: float, h: float) -> float:
    return increment_autocov(Variant.SUP1, mixture, beta, eta, model, r, h)


_SHARED = {
    "increment_mean": _increment_mean, "increment_second_moment": _increment_second_moment,
    "increment_cov": _increment_cov,
}
#: the closed-form price moments of each variant, keyed by quantity:
#: "increment_mean" and "increment_second_moment" take the increment length
#: r as a fifth argument, "increment_cov" and "sq_increment_cov" r and the
#: lag h >= r.  The first three are shared by all three variants (_SHARED);
#: variant 3's squared-increment covariance has no closed form (see
#: :func:`sq_increment_cov_sup3`).
PRICE_MOMENTS = {
    Variant.SUP1: {**_SHARED, "sq_increment_cov": partial(sq_increment_cov_closed, Variant.SUP1)},
    Variant.SUP2: {**_SHARED, "sq_increment_cov": partial(sq_increment_cov_closed, Variant.SUP2)},
    Variant.SUP3: _SHARED,
}


def price_to_csv(path: PricePath) -> str:
    """CSV rows ``time,G``: the initial level followed by the post-jump
    level at each driver mark."""
    return columns_to_csv(
        "time,G", np.concatenate([[path.t0], path.times]), np.concatenate([[0.0], path.values])
    )
