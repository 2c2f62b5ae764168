"""Monte Carlo estimators with jackknife standard errors, heavy-tail index
estimation, and jump-ratio diagnostics.

Estimators are fold-style reductions over immutable sample arrays; standard
errors come from the delete-one jackknife (closed form via leave-one-out
sufficient statistics) or, for composite functionals, a delete-group
jackknife.  Verification couples each estimate with its analytic target in
a MomentReport; an infinite analytic value is carried as None and flagged,
never as a float infinity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Mapping, Sequence, TypeVar

import numpy as np

from .csvio import G17, csv_text
from .price import PricePath
from .superpos import Mixture, SupPathBundle, Variant

if TYPE_CHECKING:
    from .batch import BundleBatch

__all__ = [
    "MomentReport",
    "MomentTarget",
    "mc_mean",
    "mc_variance",
    "mc_second_moment",
    "mc_covariance",
    "jackknife_se",
    "grouped_jackknife",
    "estimate_moments",
    "reports_to_csv",
    "hill_estimator",
    "default_hill_k",
    "hill_sweep",
    "QSample",
    "JumpTally",
    "extract_q",
    "jump_tally",
    "QBoundsReport",
    "check_q_bounds",
    "QColumns",
    "extract_q_batch",
    "histogram",
    "histogram_to_csv",
    "has_interior_gap",
    "run_replications",
]

_T = TypeVar("_T")

#: relative slack for the path-wise jump-ratio bounds (pure roundoff)
_Q_BOUND_RTOL = 1e-9


# ---------------------------------------------------------------------------
# moment estimation


@dataclass(frozen=True)
class MomentReport:
    """One verified quantity: analytic value (None when it diverges),
    Monte Carlo estimate, standard error, and the pass verdict
    |estimate - analytic| < k * std_error (exact match when the standard
    error is zero; undefined when the target diverges)."""

    name: str
    analytic: float | None
    estimate: float
    std_error: float
    n: int
    k: float = 4.0

    @property
    def passed(self) -> bool | None:
        if self.analytic is None:
            return None
        if self.std_error == 0.0:
            return self.estimate == self.analytic
        return abs(self.estimate - self.analytic) < self.k * self.std_error


def mc_mean(x: np.ndarray) -> tuple[float, float]:
    """Sample mean and its (jackknife) standard error."""
    x = np.asarray(x, dtype=float)
    n = x.size
    est = float(np.mean(x))
    if n < 2:
        return est, 0.0
    return est, float(np.std(x, ddof=1) / math.sqrt(n))


def jackknife_se(loo_stats: np.ndarray) -> float:
    """Delete-one jackknife standard error from the n leave-one-out values."""
    loo = np.asarray(loo_stats, dtype=float)
    n = loo.size
    return float(math.sqrt((n - 1) / n * np.sum((loo - loo.mean()) ** 2)))


def _loo_covariance(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # unbiased covariance on each leave-one-out subsample, in closed form
    n = x.size
    sx, sy, sxy = x.sum(), y.sum(), (x * y).sum()
    mx = (sx - x) / (n - 1)
    my = (sy - y) / (n - 1)
    return (sxy - x * y - (n - 1) * mx * my) / (n - 2)


def mc_variance(x: np.ndarray) -> tuple[float, float]:
    """Unbiased sample variance and its delete-one jackknife standard error."""
    x = np.asarray(x, dtype=float)
    n = x.size
    est = float(np.var(x, ddof=1))
    if n < 3 or est == 0.0:
        return est, 0.0
    return est, jackknife_se(_loo_covariance(x, x))


def mc_second_moment(x: np.ndarray) -> tuple[float, float]:
    return mc_mean(np.asarray(x, dtype=float) ** 2)


def mc_covariance(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Unbiased sample covariance and its delete-one jackknife standard error."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError("covariance needs equally shaped samples")
    n = x.size
    est = float(np.cov(x, y, ddof=1)[0, 1])
    if n < 3:
        return est, 0.0
    return est, jackknife_se(_loo_covariance(x, y))


def grouped_jackknife(
    stat: Callable[..., float], arrays: Sequence[np.ndarray], n_groups: int = 50
) -> tuple[float, float]:
    """Delete-group jackknife for a statistic of several aligned sample
    arrays: recompute with each of ``n_groups`` contiguous blocks removed.
    Returns (full-sample statistic, standard error)."""
    arrays = [np.asarray(a, dtype=float) for a in arrays]
    n = arrays[0].size
    if any(a.size != n for a in arrays):
        raise ValueError("grouped jackknife needs aligned arrays")
    g = min(n_groups, n)
    full = float(stat(*arrays))
    edges = np.linspace(0, n, g + 1).astype(int)
    loo = np.empty(g)
    for i in range(g):
        mask = np.ones(n, dtype=bool)
        mask[edges[i]:edges[i + 1]] = False
        loo[i] = stat(*(a[mask] for a in arrays))
    se = math.sqrt((g - 1) / g * float(np.sum((loo - loo.mean()) ** 2)))
    return full, se


@dataclass(frozen=True)
class MomentTarget:
    """What to estimate from which sample columns, and the analytic value
    it must match (None when the analytic value diverges)."""

    name: str
    kind: str  # mean | variance | second_moment | covariance
    columns: tuple[str, ...]
    analytic: float | None


_KIND_DISPATCH = {
    "mean": (1, mc_mean),
    "variance": (1, mc_variance),
    "second_moment": (1, mc_second_moment),
    "covariance": (2, mc_covariance),
}


def estimate_moments(
    samples: Mapping[str, np.ndarray],
    targets: Sequence[MomentTarget],
    k: float = 4.0,
    min_n: int = 100,
) -> list[MomentReport]:
    """Run each target against the sample columns; requires at least
    ``min_n`` replications."""
    reports = []
    for target in targets:
        arity, fn = _KIND_DISPATCH[target.kind]
        if len(target.columns) != arity:
            raise ValueError(f"{target.kind} needs {arity} column(s), got {target.columns}")
        cols = [np.asarray(samples[c], dtype=float) for c in target.columns]
        n = cols[0].size
        if n < min_n:
            raise ValueError(f"target {target.name}: need at least {min_n} samples, got {n}")
        est, se = fn(*cols)
        reports.append(
            MomentReport(
                name=target.name, analytic=target.analytic,
                estimate=est, std_error=se, n=n, k=k,
            )
        )
    return reports


def reports_to_csv(reports: Sequence[MomentReport]) -> str:
    return csv_text(
        "name,analytic,estimate,std_error,n,k,pass",
        f"%s,%s,{G17},{G17},%s,{G17},%s",
        (
            (r.name, "diverges" if r.analytic is None else G17 % r.analytic, r.estimate,
             r.std_error, r.n, r.k, "undefined" if r.passed is None else r.passed)
            for r in reports
        ),
    )


# ---------------------------------------------------------------------------
# heavy-tail index


def hill_estimator(samples: np.ndarray, k: int) -> float:
    """Hill estimate of the Pareto tail exponent from the top k order
    statistics: 1 / mean(log(X_(n-i+1) / X_(n-k)), i = 1..k)."""
    x = np.asarray(samples, dtype=float)
    n = x.size
    if np.any(x <= 0.0):
        raise ValueError("Hill estimator needs strictly positive samples")
    if not 1 <= k < n / 2:
        raise ValueError(f"need 1 <= k < n/2, got k={k}, n={n}")
    xs = np.sort(x)
    ref = xs[n - k - 1]
    logs = np.log(xs[n - k:] / ref)
    mean_log = float(np.mean(logs))
    if mean_log == 0.0:
        raise ValueError("degenerate tail: top order statistics are all equal")
    return 1.0 / mean_log


def default_hill_k(n: int) -> int:
    return int(round(n ** 0.6))


def hill_sweep(samples: np.ndarray, ks: Sequence[int] | None = None) -> list[tuple[int, float]]:
    """Hill estimates over a stability sweep of k (default: 10 geometric
    points between n^0.4 and n^0.7)."""
    x = np.asarray(samples, dtype=float)
    n = x.size
    if ks is None:
        lo, hi = n ** 0.4, n ** 0.7
        ks = sorted({int(round(lo * (hi / lo) ** (i / 9))) for i in range(10)})
    return [(k, hill_estimator(x, k)) for k in ks]


# ---------------------------------------------------------------------------
# jump-ratio diagnostics


@dataclass(frozen=True)
class QSample:
    """Ratio q = dVbar / (dG)^2 at a common price/volatility jump, computed
    in the algebraically exact product form (the squared driver jump
    cancels), which avoids catastrophic cancellation on tiny jumps."""

    variant: Variant
    time: float
    q: float
    chosen_phi: float | None = None


@dataclass(frozen=True)
class JumpTally:
    """Jump-type counts over a simulated bundle/price pair."""

    common: int
    vol_only: int
    price_only: int


def _component_mark_index(bundle: SupPathBundle, atom: int, times: np.ndarray) -> np.ndarray:
    comp = bundle.components[atom]
    pos = np.searchsorted(comp.times, times)
    if pos.size and not np.array_equal(comp.times[pos], times):
        raise AssertionError("price jump times must be component mark times")
    return pos


def extract_q(bundle: SupPathBundle, price_path: PricePath) -> list[QSample]:
    """q at every common jump.  Variant 1 samples the driving atom's marks;
    variant 2 samples every mark; variant 3 samples marks whose pi-draw is
    a positive scale (a draw of 0 is a price jump with no volatility jump)."""
    times = price_path.times
    vbar_left = price_path.vbar_left
    if not len(times):
        return []
    out: list[QSample] = []

    if bundle.variant is Variant.SUP1:
        atom = price_path.driver_atom or 0
        phi = bundle.mixture.phis[atom]
        weight = bundle.mixture.weights[atom]
        if phi == 0.0:
            return []
        pos = _component_mark_index(bundle, atom, times)
        comp_left = bundle.components[atom].left[pos]
        qs = weight * phi * comp_left / vbar_left
        for t, q in zip(times.tolist(), qs.tolist()):
            out.append(QSample(bundle.variant, t, q))
        return out

    if bundle.variant is Variant.SUP2:
        scale = np.zeros(len(times))
        for atom, (phi, w) in enumerate(bundle.mixture.atoms()):
            pos = _component_mark_index(bundle, atom, times)
            scale += w * phi * bundle.components[atom].left[pos]
        if np.all(scale == 0.0):
            return []
        qs = scale / vbar_left
        for t, q in zip(times.tolist(), qs.tolist()):
            out.append(QSample(bundle.variant, t, q))
        return out

    chosen = bundle.chosen_phis
    if chosen is None:
        raise ValueError("variant-3 bundle lacks its chosen marks")
    qs = chosen * bundle.chosen_lefts() / vbar_left
    keep = chosen != 0.0
    return [
        QSample(bundle.variant, t, q, chosen_phi=phi)
        for t, q, phi in zip(times[keep].tolist(), qs[keep].tolist(), chosen[keep].tolist())
    ]


def jump_tally(bundle: SupPathBundle, price_path: PricePath) -> JumpTally:
    """Common vs volatility-only vs price-only jump counts.

    Variant 1: only the driving atom's marks hit the price; marks of other
    positive atoms move the volatility alone.  Variant 2: every mark is
    common.  Variant 3: a pi-draw of 0 yields a price-only jump.
    """
    if bundle.variant is Variant.SUP1:
        atom = price_path.driver_atom or 0
        common = vol_only = price_only = 0
        for i, (phi, _) in enumerate(bundle.mixture.atoms()):
            n_marks = len(bundle.drivers[i])
            if i == atom:
                if phi > 0.0:
                    common += n_marks
                else:
                    price_only += n_marks
            elif phi > 0.0:
                vol_only += n_marks
        return JumpTally(common, vol_only, price_only)

    n_marks = len(price_path)
    if bundle.variant is Variant.SUP2:
        if any(phi > 0.0 for phi in bundle.mixture.phis):
            return JumpTally(n_marks, 0, 0)
        return JumpTally(0, 0, n_marks)

    chosen = bundle.chosen_phis
    if chosen is None:
        raise ValueError("variant-3 bundle lacks its chosen marks")
    price_only = int(np.sum(chosen == 0.0))
    return JumpTally(n_marks - price_only, 0, price_only)


@dataclass(frozen=True)
class QViolation:
    time: float
    q: float
    bound: str


@dataclass(frozen=True)
class QBoundsReport:
    variant: Variant
    n_checked: int
    violations: tuple[QViolation, ...] = field(default=())

    @property
    def ok(self) -> bool:
        return not self.violations


def _q_bounds(mixture: Mixture) -> tuple[float, float, float, float]:
    """phi_bar, phi_low and the roundoff slack of the bounds at each."""
    phi_bar, phi_low = mixture.phi_bar, mixture.phi_low
    return phi_bar, phi_low, _Q_BOUND_RTOL * max(1.0, phi_bar), _Q_BOUND_RTOL * max(1.0, phi_low)


def check_q_bounds(samples: Sequence[QSample], mixture: Mixture) -> QBoundsReport:
    """Path-wise bounds on the jump ratio:

    variant 1: q <= phi_bar; variant 2: phi_low <= q <= phi_bar;
    variant 3: q >= phi_bar when the draw hit the top atom and q <= phi_low
    when it hit the lowest positive atom.  Exact algebra up to roundoff.
    """
    phi_bar, phi_low, up_tol, lo_tol = _q_bounds(mixture)
    violations: list[QViolation] = []
    variant = samples[0].variant if samples else Variant.SUP1

    for s in samples:
        variant = s.variant
        if s.variant in (Variant.SUP1, Variant.SUP2) and s.q > phi_bar + up_tol:
            violations.append(QViolation(s.time, s.q, f"q <= phi_bar={phi_bar}"))
        if s.variant is Variant.SUP2 and s.q < phi_low - lo_tol:
            violations.append(QViolation(s.time, s.q, f"q >= phi_low={phi_low}"))
        if s.variant is Variant.SUP3 and s.chosen_phi is not None:
            if s.chosen_phi == phi_bar and s.q < phi_bar - up_tol:
                violations.append(QViolation(s.time, s.q, f"q >= phi_bar={phi_bar} (top draw)"))
            if s.chosen_phi == phi_low and s.q > phi_low + lo_tol:
                violations.append(QViolation(s.time, s.q, f"q <= phi_low={phi_low} (low draw)"))
    return QBoundsReport(variant, len(samples), tuple(violations))


@dataclass(frozen=True)
class QColumns:
    """The q samples of many bundles as columns in (replication, mark)
    order, with their summed jump tallies and q-bound violation count.
    ``chosen_phi`` holds variant 3's drawn scales and is None otherwise."""

    time: np.ndarray
    q: np.ndarray
    chosen_phi: np.ndarray | None
    tally: JumpTally
    violations: int

    @classmethod
    def concat(cls, parts: Sequence["QColumns"]) -> "QColumns":
        """Consecutive ranges of replications as one."""
        cat = lambda name: np.concatenate([getattr(p, name) for p in parts])
        return cls(
            cat("time"), cat("q"), None if parts[0].chosen_phi is None else cat("chosen_phi"),
            JumpTally(*(sum(getattr(p.tally, f) for p in parts) for f in ("common", "vol_only", "price_only"))),
            sum(p.violations for p in parts),
        )


def extract_q_batch(batch: "BundleBatch", variant: Variant, mixture: Mixture) -> QColumns:
    """:func:`extract_q`, :func:`jump_tally` and :func:`check_q_bounds` for
    every replication of an engine batch at once, with the serial formulas,
    so every sample is bit-identical to the serial one."""
    counts = batch.driver_counts[0]
    valid = np.arange(batch.driver_times.shape[1]) < counts[:, None]
    n_marks = int(counts.sum())
    phis, chosen = mixture.phis, None
    if variant is Variant.SUP1:
        vol_only = sum(int(c.sum()) for phi, c in zip(phis[1:], batch.driver_counts[1:]) if phi > 0.0)
        if phis[0] == 0.0:
            keep = np.zeros_like(valid)
            tally = JumpTally(0, vol_only, n_marks)
        else:
            keep = valid
            tally = JumpTally(n_marks, vol_only, 0)
        scale = mixture.weights[0] * phis[0] * batch.components[0].left[keep]
    elif variant is Variant.SUP2:
        scale = np.zeros(batch.driver_times.shape)
        for (phi, w), comp in zip(mixture.atoms(), batch.components):
            scale += w * phi * comp.left
        # extract_q gives no samples for a bundle whose every scale is zero
        keep = valid & ~np.all((scale == 0.0) | ~valid, axis=1)[:, None]
        scale = scale[keep]
        positive = any(phi > 0.0 for phi in phis)
        tally = JumpTally(n_marks, 0, 0) if positive else JumpTally(0, 0, n_marks)
    else:
        drawn = np.asarray(phis)[batch.picks]
        lefts = np.stack([c.left for c in batch.components])
        keep = valid & (drawn != 0.0)
        chosen = drawn[keep]
        scale = chosen * np.take_along_axis(lefts, batch.picks[None], axis=0)[0][keep]
        price_only = int(np.count_nonzero(valid & (drawn == 0.0)))
        tally = JumpTally(n_marks - price_only, 0, price_only)
    q = scale / batch.vbar_left()[keep]

    phi_bar, phi_low, up_tol, lo_tol = _q_bounds(mixture)
    if variant is Variant.SUP3:
        bad = [(chosen == phi_bar) & (q < phi_bar - up_tol), (chosen == phi_low) & (q > phi_low + lo_tol)]
    else:
        bad = [q > phi_bar + up_tol] + ([q < phi_low - lo_tol] if variant is Variant.SUP2 else [])
    return QColumns(batch.driver_times[keep], q, chosen, tally, sum(int(np.count_nonzero(b)) for b in bad))


# ---------------------------------------------------------------------------
# histograms


def histogram(values: Sequence[float], bins: int) -> list[tuple[float, float, int]]:
    """Equal-width bins over [min, max]; a constant sample collapses to a
    single full bin.  Rows are (bin_left, bin_right, count)."""
    x = np.asarray(values, dtype=float)
    if x.size == 0:
        raise ValueError("histogram needs at least one value")
    if not bins >= 1:
        raise ValueError(f"need at least one bin, got {bins}")
    lo, hi = float(np.min(x)), float(np.max(x))
    if lo == hi:
        return [(lo, hi, int(x.size))]
    counts, edges = np.histogram(x, bins=bins, range=(lo, hi))
    return [
        (float(edges[i]), float(edges[i + 1]), int(counts[i])) for i in range(len(counts))
    ]


def histogram_to_csv(rows: Sequence[tuple[float, float, int]]) -> str:
    return csv_text("bin_left,bin_right,count", f"{G17},{G17},%s", map(tuple, rows))


def has_interior_gap(counts: Sequence[int]) -> bool:
    """True when the occupied bins split into at least two clusters
    separated by an empty bin."""
    occupied = [i for i, c in enumerate(counts) if c > 0]
    if len(occupied) < 2:
        return False
    return any(counts[i] == 0 for i in range(occupied[0], occupied[-1]))


# ---------------------------------------------------------------------------
# replication harness


def run_replications(fn: Callable[[int], _T], n: int, threads: int = 1) -> list[_T]:
    """Evaluate fn(0..n-1) in index order and return the results.  fn must
    be a pure function of its index (seed streams split by index).

    ``threads`` has no effect; it is kept so callers and configs stay
    valid.  The replications are pure Python, and a thread pool only added
    interpreter-lock contention: slower, with the same bytes.
    """
    return [fn(i) for i in range(n)]
