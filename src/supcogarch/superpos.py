"""The three superposed COGARCH volatility processes.

All three mix COGARCH components with distinct jump scales phi_i drawn from
a finitely supported probability measure pi = {(phi_i, p_i)}, sharing one
(beta, eta) pair:

* variant 1: independent drivers, one per atom; the aggregate is the
  p-weighted sum, and almost surely only one component jumps at a time;
* variant 2: a single shared driver; every component and the aggregate
  jump at every mark, the aggregate jump being the p-weighted combination;
* variant 3: a single shared driver for the component family, but the
  aggregate jumps by phi_T * V^{phi_T}_{T-} * dS_T where phi_T is an
  i.i.d. pi-draw made at each mark.

Between marks every aggregate relaxes along dV = (beta - eta*V) dt, exactly
like a single COGARCH, so the same piecewise path record applies.

:func:`simulate_bundle` runs the one simulation engine,
:mod:`supcogarch.batch`, on a single replication and wraps it in those
records.  Stationary starts are approximated by burn-in, by the one start
rule of :func:`batch._bundles`; shared-driver variants burn in jointly so
that the cross-sectional dependence at time t0 is the stationary one.

``SUP_MOMENTS`` maps each variant to its closed-form stationary moments;
the analytics table and the verification battery both read it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from . import charexp
from .cogarch import (
    CogarchParams,
    NonStationaryError,
    PathRecord,
    cross_acov,
    cross_cov,
    cross_moment,
    moment_gate,
    stationary_mean,
    stationary_variance,
)
from .csvio import columns_to_csv, event_columns, export_grid, off_events
from .levy import JumpPath, LevyModel, _check_window, simulate_levy_path, substream

__all__ = [
    "Variant",
    "TailLimit",
    "Mixture",
    "SupPathBundle",
    "simulate_bundle",
    "sup1_mean",
    "sup1_var",
    "sup1_acov",
    "sup2_second_moment",
    "sup2_var",
    "sup2_acov",
    "sup3_second_moment",
    "sup3_var",
    "sup3_acov",
    "SUP_MOMENTS",
    "tail_exponent",
    "bundle_to_csv",
    "chosen_marks_to_csv",
]

_WEIGHT_TOL = 1e-12


class Variant(enum.Enum):
    SUP1 = "sup1"
    SUP2 = "sup2"
    SUP3 = "sup3"


class TailLimit(enum.Enum):
    """Behaviour of x^kappa_bar * P[V > x] at the tail exponent."""

    POSITIVE_CONSTANT = "positive_constant"
    BOUNDED = "bounded"


@dataclass(frozen=True)
class Mixture:
    """Finite superposition measure: atoms (phi_i, p_i), phis strictly
    ascending and pairwise distinct, weights positive and summing to 1."""

    phis: tuple[float, ...]
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.phis:
            raise ValueError("mixture needs at least one atom")
        if len(self.phis) != len(self.weights):
            raise ValueError("phis and weights must have equal length")
        if any(p < 0.0 for p in self.phis):
            raise ValueError("atom scales must be >= 0")
        if any(not w > 0.0 for w in self.weights):
            raise ValueError("weights must be > 0")
        if any(b <= a for a, b in zip(self.phis, self.phis[1:])):
            raise ValueError("atom scales must be strictly ascending and distinct")
        if abs(sum(self.weights) - 1.0) > _WEIGHT_TOL:
            raise ValueError(f"weights must sum to 1, got {sum(self.weights)}")

    @classmethod
    def from_atoms(cls, atoms: Sequence[tuple[float, float]]) -> "Mixture":
        """Build from (phi, weight) pairs in any order."""
        pairs = sorted((float(phi), float(w)) for phi, w in atoms)
        return cls(tuple(p for p, _ in pairs), tuple(w for _, w in pairs))

    @classmethod
    def dirac(cls, phi: float) -> "Mixture":
        return cls((float(phi),), (1.0,))

    def atoms(self) -> Iterator[tuple[float, float]]:
        return iter(zip(self.phis, self.weights))

    def __len__(self) -> int:
        return len(self.phis)

    @property
    def phi_bar(self) -> float:
        """Top of the support."""
        return self.phis[-1]


def _weighted(weights: Sequence[float], parts: Sequence[np.ndarray]) -> np.ndarray:
    """sum_i w_i x_i accumulated from zeros in atom order: the aggregate
    Vbar = sum_i p_i V^{phi_i} of component values, and every other
    weighted sum over atoms of path arrays."""
    acc = np.zeros(parts[0].shape)
    for w, x in zip(weights, parts):
        acc += w * x
    return acc


@dataclass(frozen=True)
class SupPathBundle:
    """A simulated superposition on [t0, t1]: the aggregate path, the
    component paths (one per atom, same order as the mixture), and the
    driving Levy paths restricted to the live window.

    For variant 1 ``drivers`` holds one L-path per atom; for variants 2
    and 3 a single shared one.  For variant 3 ``chosen_phis`` records the
    i.i.d. pi-draw at each shared mark (aligned with ``drivers[0].times``).
    """

    variant: Variant
    mixture: Mixture
    beta: float
    eta: float
    aggregate: PathRecord
    components: tuple[PathRecord, ...]
    drivers: tuple[JumpPath, ...]
    chosen_phis: np.ndarray | None = None

    def chosen_lefts(self) -> np.ndarray:
        """Variant 3: the left limit V^{phi_T}_{T-} of the drawn atom's
        component at each shared mark."""
        atom = np.searchsorted(np.asarray(self.mixture.phis), self.chosen_phis)
        lefts = np.array([c.left for c in self.components])
        return lefts[atom, np.arange(atom.size)]


def _require_stationary(mixture: Mixture, eta: float, model: LevyModel) -> None:
    ctx = charexp.ExponentContext(model, eta)
    for phi, _ in mixture.atoms():
        if not charexp.is_stationary(ctx, phi):
            raise NonStationaryError(
                f"atom phi={phi} violates the stationarity condition "
                f"(log-moment {charexp.log_moment(ctx, phi):.6g} >= eta={eta})"
            )


def simulate_bundle(
    variant: Variant,
    mixture: Mixture,
    beta: float,
    eta: float,
    model: LevyModel,
    horizon: tuple[float, float],
    seed: int | np.random.SeedSequence,
    burn_in: float | None = None,
) -> SupPathBundle:
    """One bundle on ``horizon``: the batched engine
    (:func:`batch.simulate_batch`) on a single replication, wrapped in
    path records.  Driver i is drawn by :func:`levy.simulate_levy_path`
    from ``substream(seed, i)`` (one per atom for variant 1, driver 0
    shared otherwise), the variant-3 pi-draws from
    ``substream(seed, 1)``; they cover burn-in and live marks, so variant
    3's aggregate burns in jointly with its component family.  The burn-in
    defaults to that of the slowest-forgetting atom."""
    from .batch import _bundles  # batch builds on this module

    _check_window(float(horizon[0]), float(horizon[1]))
    got = _bundles(
        variant, mixture, beta, eta, model, horizon, burn_in, 1, lambda i: [substream(seed, i)],
        simulate_levy_path,
    )
    t0, t1 = float(horizon[0]), float(horizon[1])

    def record(path) -> PathRecord:
        n = int(np.count_nonzero(np.isfinite(path.times[0])))
        return PathRecord(t0, t1, float(path.v0[0]), beta, eta,
                          path.times[0, :n], path.left[0, :n], path.post[0, :n])

    counts = [int(c[0]) for c in got.driver_counts]
    drivers = tuple(
        JumpPath(t0, t1, times[0, :n], sizes[0, :n])
        for times, sizes, n in zip(got.driver_times, got.driver_sizes, counts)
    )
    chosen = None if got.picks is None else np.asarray(mixture.phis)[got.picks[0, : counts[0]]]
    return SupPathBundle(
        variant, mixture, beta, eta, record(got.aggregate), tuple(map(record, got.components)),
        drivers, chosen,
    )


# ---------------------------------------------------------------------------
# stationary moments


def sup1_mean(mixture: Mixture, beta: float, eta: float, model: LevyModel) -> float:
    """E[Vbar] = beta * sum_i p_i / (eta - phi_i E[S_1]); shared by all
    three variants."""
    moment_gate(model, eta, mixture.phis, 1.0)
    return sum(
        w * stationary_mean(CogarchParams(beta, eta, phi), model)
        for phi, w in mixture.atoms()
    )


def sup1_var(mixture: Mixture, beta: float, eta: float, model: LevyModel) -> float:
    """Var[Vbar^(1)] = sum_i p_i^2 Var[V^{phi_i}] (independent components)."""
    moment_gate(model, eta, mixture.phis, 2.0)
    return sum(
        w * w * stationary_variance(CogarchParams(beta, eta, phi), model)
        for phi, w in mixture.atoms()
    )


def sup1_acov(mixture: Mixture, beta: float, eta: float, model: LevyModel, h: float) -> float:
    """Cov[Vbar^(1)_t, Vbar^(1)_{t+h}] = sum_i p_i^2 exp(h psi1_i) Var[V^{phi_i}]."""
    moment_gate(model, eta, mixture.phis, 2.0)
    ctx = charexp.ExponentContext(model, eta)
    return sum(
        w * w * math.exp(h * charexp.psi(ctx, 1.0, phi))
        * stationary_variance(CogarchParams(beta, eta, phi), model)
        for phi, w in mixture.atoms()
    )


def _pair_sum(
    mixture: Mixture, eta: float, model: LevyModel, term: Callable[[float, float], float]
) -> float:
    """sum_i sum_j p_i p_j term(phi_i, phi_j) over ordered atom pairs, i
    outer, behind the order-2 moment gate."""
    moment_gate(model, eta, mixture.phis, 2.0)
    return sum(wi * wj * term(pi, pj) for pi, wi in mixture.atoms() for pj, wj in mixture.atoms())


def sup2_second_moment(mixture: Mixture, beta: float, eta: float, model: LevyModel) -> float:
    """E[(Vbar^(2))^2]: double sum of shared-driver product moments."""
    return _pair_sum(mixture, eta, model, lambda pi, pj: cross_moment(beta, eta, pi, pj, model))


def sup2_var(mixture: Mixture, beta: float, eta: float, model: LevyModel) -> float:
    return _pair_sum(mixture, eta, model, lambda pi, pj: cross_cov(beta, eta, pi, pj, model))


def sup2_acov(mixture: Mixture, beta: float, eta: float, model: LevyModel, h: float) -> float:
    """Double sum of lagged cross-covariances; the lag decays at the rate of
    the second (lagged) atom."""
    return _pair_sum(mixture, eta, model, lambda pi, pj: cross_acov(beta, eta, pi, pj, model, h))


def _sup3_correction(
    beta: float, eta: float, phi_i: float, phi_j: float, model: LevyModel
) -> float:
    # (beta/eta) * (Var[V^phi_i] - Cov[V^phi_i, V^phi_j]) / E[V^phi_i]
    params_i = CogarchParams(beta, eta, phi_i)
    var_i = stationary_variance(params_i, model)
    cov_ij = cross_cov(beta, eta, phi_i, phi_j, model)
    return (beta / eta) * (var_i - cov_ij) / stationary_mean(params_i, model)


def sup3_second_moment(mixture: Mixture, beta: float, eta: float, model: LevyModel) -> float:
    """E[(Vbar^(3))^2]: shared-driver product moments plus the correction
    (beta/eta)(Var[V^phi] - Cov[V^phi, V^phi~]) / E[V^phi], summed over
    atom pairs.  Degenerates to the single-COGARCH second moment under a
    point mass."""
    return _pair_sum(
        mixture, eta, model,
        lambda pi, pj: cross_moment(beta, eta, pi, pj, model) + _sup3_correction(beta, eta, pi, pj, model),
    )


def sup3_var(mixture: Mixture, beta: float, eta: float, model: LevyModel) -> float:
    mean = sup1_mean(mixture, beta, eta, model)
    return sup3_second_moment(mixture, beta, eta, model) - mean * mean


def sup3_acov(mixture: Mixture, beta: float, eta: float, model: LevyModel, h: float) -> float:
    """Two-rate decay: exp(h psi1_i) on the covariance part and exp(-eta h)
    on the correction part."""
    if h < 0.0:
        raise ValueError(f"lag must be >= 0, got {h}")
    ctx = charexp.ExponentContext(model, eta)
    return _pair_sum(
        mixture, eta, model,
        lambda pi, pj: math.exp(h * charexp.psi(ctx, 1.0, pi)) * cross_cov(beta, eta, pi, pj, model)
        + math.exp(-eta * h) * _sup3_correction(beta, eta, pi, pj, model),
    )


#: the closed-form moments of each variant's stationary aggregate, keyed by
#: quantity; "acov" takes the lag h as a fifth argument.  The mean formula is
#: shared by all three variants.
SUP_MOMENTS = {
    Variant.SUP1: {"mean": sup1_mean, "variance": sup1_var, "acov": sup1_acov},
    Variant.SUP2: {
        "mean": sup1_mean, "variance": sup2_var, "second_moment": sup2_second_moment,
        "acov": sup2_acov,
    },
    Variant.SUP3: {
        "mean": sup1_mean, "variance": sup3_var, "second_moment": sup3_second_moment,
        "acov": sup3_acov,
    },
}


# ---------------------------------------------------------------------------
# tails and stationarity reporting


@dataclass(frozen=True)
class TailExponent:
    kappa_bar: float
    limit_kind: TailLimit


def tail_exponent(
    variant: Variant, mixture: Mixture, ctx: charexp.ExponentContext
) -> TailExponent:
    """Pareto tail exponent of the stationary aggregate: the root kappa_bar
    of psi(kappa, phi_bar) = 0 at the top atom.  For finite mixtures the top
    atom carries positive mass, so variants 1 and 2 approach a positive
    constant while variant 3 is only bounded between positive constants."""
    phi_bar = mixture.phi_bar
    if not phi_bar > 0.0:
        raise ValueError("tail exponent undefined for a point mass at 0")
    kappa_bar = charexp.kappa_of_phi(ctx, phi_bar)
    kind = TailLimit.BOUNDED if variant is Variant.SUP3 else TailLimit.POSITIVE_CONSTANT
    return TailExponent(kappa_bar, kind)


# ---------------------------------------------------------------------------
# CSV export


def bundle_to_csv(bundle: SupPathBundle, grid_step: float | None = None) -> str:
    """Aggregate plus one column per component at t0, the uniform grid
    points that are not event times, and the events.  Event times carry two
    rows (left limits, then post-jump values)."""
    agg = bundle.aggregate
    plain = np.array([agg.t0])
    if grid_step is not None:
        grid = export_grid(agg.t0, agg.t1, grid_step)
        plain = np.concatenate([plain, off_events(grid, agg.times)])
    columns = [(agg.values(plain), agg.left, agg.post)] + [
        (c.values(plain), c.left_limits(agg.times), c.values(agg.times))
        for c in bundle.components
    ]
    header = ",".join(["time", "aggregate"] + [f"component_{phi:g}" for phi in bundle.mixture.phis])
    return columns_to_csv(header, *event_columns(plain, agg.times, columns))


def chosen_marks_to_csv(bundle: SupPathBundle) -> str:
    """Variant-3 pi-draws: ``time,phi`` per shared mark."""
    if bundle.chosen_phis is None:
        raise ValueError("bundle has no chosen marks (not a variant-3 bundle)")
    return columns_to_csv("time,phi", bundle.drivers[0].times, bundle.chosen_phis)
