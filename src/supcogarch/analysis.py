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
from typing import TYPE_CHECKING, Callable, Sequence, TypeVar

import numpy as np

from .csvio import G17, analytic_cell, columns_to_csv, csv_text
from .price import PricePath
from .superpos import Mixture, SupPathBundle, Variant, _weighted

if TYPE_CHECKING:
    from .batch import BundleBatch

__all__ = [
    "MomentReport",
    "mc_mean",
    "mc_variance",
    "mc_second_moment",
    "mc_covariance",
    "jackknife_se",
    "grouped_jackknife",
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
    "logq_histogram",
    "has_interior_gap",
    "run_replications",
]

_T = TypeVar("_T")

#: relative slack for the path-wise jump-ratio bounds (pure roundoff)
_Q_BOUND_RTOL = 1e-9
#: contiguous blocks of :func:`grouped_jackknife` (fewer for fewer samples)
_JACKKNIFE_GROUPS = 50


# ---------------------------------------------------------------------------
# moment estimation


@dataclass(frozen=True)
class MomentReport:
    """One verified quantity: analytic value (None when it diverges),
    Monte Carlo estimate, standard error, and the pass verdict
    |estimate - analytic| < k * std_error (exact match when the standard
    error is zero; undefined when the target diverges or n = 0)."""

    name: str
    analytic: float | None
    estimate: float
    std_error: float
    n: int
    k: float = 4.0

    @property
    def passed(self) -> bool | None:
        if self.analytic is None or self.n == 0:
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


def _cov(x: np.ndarray, y: np.ndarray) -> float:
    """``np.cov(x, y, ddof=1)[0, 1]`` bit for bit, by its own steps: means over
    axis 1, centred in place, ``X @ X.T`` (BLAS syrk), times 1 / (n - 1)."""
    xy = np.array((x, y), dtype=float)
    xy -= xy.mean(axis=1)[:, None]
    return float((xy @ xy.T)[0, 1] * (np.float64(1.0) / max(xy.shape[1] - 1, 0)))


def mc_covariance(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Unbiased sample covariance and its delete-one jackknife standard error."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError("covariance needs equally shaped samples")
    n = x.size
    est = _cov(x, y)
    if n < 3:
        return est, 0.0
    return est, jackknife_se(_loo_covariance(x, y))


def grouped_jackknife(
    stat: Callable[..., float | Sequence[float]], arrays: Sequence[np.ndarray]
) -> tuple[float, float] | tuple[np.ndarray, np.ndarray]:
    """Delete-group jackknife for a statistic of several aligned sample
    arrays: recompute with each of _JACKKNIFE_GROUPS contiguous blocks removed.
    Returns (full-sample statistic, standard error): arrays for a ``stat`` of
    several values (one split of the groups), each as from its own call."""
    arrays = [np.asarray(a, dtype=float) for a in arrays]
    n = arrays[0].size
    if any(a.size != n for a in arrays):
        raise ValueError("grouped jackknife needs aligned arrays")
    g = min(_JACKKNIFE_GROUPS, n)
    full = np.asarray(stat(*arrays), dtype=float)
    edges = np.linspace(0, n, g + 1).astype(int)
    loo = np.empty((g, full.size))
    for i in range(g):
        mask = np.ones(n, dtype=bool)
        mask[edges[i]:edges[i + 1]] = False
        loo[i] = stat(*(a[mask] for a in arrays))
    se = np.array([jackknife_se(c) for c in np.ascontiguousarray(loo.T)])
    return (float(full), float(se[0])) if full.ndim == 0 else (full, se)


def reports_to_csv(reports: Sequence[MomentReport]) -> str:
    return csv_text(
        "name,analytic,estimate,std_error,n,k,pass",
        f"%s,%s,{G17},{G17},%s,{G17},%s",
        (
            (r.name, analytic_cell(r.analytic), r.estimate, r.std_error, r.n, r.k,
             "undefined" if r.passed is None else r.passed)
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


def hill_sweep(samples: np.ndarray) -> list[tuple[int, float]]:
    """Hill estimates over a stability sweep of k: 10 geometric points
    between n^0.4 and n^0.7, duplicates merged."""
    x = np.asarray(samples, dtype=float)
    lo, hi = x.size ** 0.4, x.size ** 0.7
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


def _q_rows(
    variant: Variant, mixture: Mixture, lefts: Sequence[np.ndarray | None], vbar_left: np.ndarray,
    times: np.ndarray, valid: np.ndarray, picks: np.ndarray | None, atom: int = 0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """q at the price driver's marks of each row, in the product form:
    ``lefts`` holds each component's (n, N) left limits at those marks
    (variant 1 reads only the driving ``atom``'s), ``vbar_left`` the
    aggregate's, ``valid`` marks the live columns and ``picks`` variant 3's
    drawn atoms.  Returns the sampled marks' times, their q and, for
    variant 3, their drawn scales, in (row, mark) order.  Variant 1 samples
    the driving atom's marks, variant 2 every mark of a row whose scales are
    not all zero, variant 3 the marks whose draw is a positive scale (a
    draw of 0 is a price jump with no volatility jump)."""
    phis, chosen = mixture.phis, None
    if variant is Variant.SUP1:
        keep = valid if phis[atom] != 0.0 else np.zeros_like(valid)
        scale = mixture.weights[atom] * phis[atom] * lefts[atom][keep]
    elif variant is Variant.SUP2:
        scale = _weighted([w * phi for phi, w in mixture.atoms()], lefts)
        keep = valid & ~np.all((scale == 0.0) | ~valid, axis=1)[:, None]
        scale = scale[keep]
    else:
        drawn = np.asarray(phis)[picks]
        keep = valid & (drawn != 0.0)
        chosen = drawn[keep]
        scale = chosen * np.take_along_axis(np.stack(lefts), picks[None], axis=0)[0][keep]
    return times[keep], scale / vbar_left[keep], chosen


def _tally(variant: Variant, phis: Sequence[float], counts: Sequence[int], zero_draws: int, atom: int = 0) -> JumpTally:
    """The jump tally from each driver's mark count and variant 3's count of
    phi = 0 draws.  Variant 1: the driving atom's marks are common (price
    only at phi = 0), other positive atoms' marks move the volatility alone.
    Variant 2: every mark is common unless every scale is 0.  Variant 3: a
    draw of 0 is a price-only jump."""
    n = counts[atom]
    if variant is Variant.SUP1:
        vol_only = sum(c for i, (phi, c) in enumerate(zip(phis, counts)) if i != atom and phi > 0.0)
        return JumpTally(n, vol_only, 0) if phis[atom] > 0.0 else JumpTally(0, vol_only, n)
    if variant is Variant.SUP2:
        return JumpTally(n, 0, 0) if any(phi > 0.0 for phi in phis) else JumpTally(0, 0, n)
    return JumpTally(n - zero_draws, 0, zero_draws)


def _q_bound_masks(
    variant: Variant, mixture: Mixture, q: np.ndarray, chosen: np.ndarray | None
) -> list[tuple[str, np.ndarray]]:
    """Path-wise bounds on the jump ratio, exact algebra up to roundoff:
    variant 1: q <= phi_bar; variant 2: phi_low <= q <= phi_bar; variant 3:
    q >= phi_bar when the draw hit the top atom and q <= phi_low when it hit
    phi_low, here the smallest atom, zero or not.  Each bound's label and mask.
    With phi_low = 0 the low-draw bound checks no sample, so
    ``sup3.q_bound_violations`` cannot fail there: a zero draw moves only the
    price and is never a q sample."""
    phi_bar, phi_low = mixture.phi_bar, min(mixture.phis)
    up_tol, lo_tol = _Q_BOUND_RTOL * max(1.0, phi_bar), _Q_BOUND_RTOL * max(1.0, phi_low)
    if variant is Variant.SUP3:
        return [
            (f"q >= phi_bar={phi_bar} (top draw)", (chosen == phi_bar) & (q < phi_bar - up_tol)),
            (f"q <= phi_low={phi_low} (low draw)", (chosen == phi_low) & (q > phi_low + lo_tol)),
        ]
    bounds = [(f"q <= phi_bar={phi_bar}", q > phi_bar + up_tol)]
    if variant is Variant.SUP2:
        bounds.append((f"q >= phi_low={phi_low}", q < phi_low - lo_tol))
    return bounds


def _chosen_phis(bundle: SupPathBundle) -> np.ndarray:
    if bundle.chosen_phis is None:
        raise ValueError("variant-3 bundle lacks its chosen marks")
    return bundle.chosen_phis


def extract_q(bundle: SupPathBundle, price_path: PricePath) -> list[QSample]:
    """q at every common jump of one bundle: the batch formulas on one row."""
    times, atom = price_path.times, price_path.driver_atom or 0
    variant = bundle.variant
    picks = None
    if variant is Variant.SUP3:
        picks = np.searchsorted(np.asarray(bundle.mixture.phis), _chosen_phis(bundle))[None]
    lefts: list[np.ndarray | None] = []
    for i, comp in enumerate(bundle.components):
        if variant is Variant.SUP1 and i != atom:
            lefts.append(None)
            continue
        pos = np.searchsorted(comp.times, times)
        if pos.size and not np.array_equal(comp.times[pos], times):
            raise AssertionError("price jump times must be component mark times")
        lefts.append(comp.left[pos][None])
    t, q, chosen = _q_rows(
        variant, bundle.mixture, lefts, price_path.vbar_left[None], times[None],
        np.ones((1, times.size), dtype=bool), picks, atom,
    )
    phis = [None] * q.size if chosen is None else chosen.tolist()
    return [QSample(variant, *s) for s in zip(t.tolist(), q.tolist(), phis)]


def jump_tally(bundle: SupPathBundle, price_path: PricePath) -> JumpTally:
    """Common vs volatility-only vs price-only jump counts of one bundle."""
    zero_draws = int(np.count_nonzero(_chosen_phis(bundle) == 0.0)) if bundle.variant is Variant.SUP3 else 0
    counts = [len(d) for d in bundle.drivers]
    return _tally(bundle.variant, bundle.mixture.phis, counts, zero_draws, price_path.driver_atom or 0)


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


def check_q_bounds(samples: Sequence[QSample], mixture: Mixture) -> QBoundsReport:
    """The path-wise q bounds of each sample's variant; violations by
    sample, then by bound."""
    q = np.array([s.q for s in samples], dtype=float)
    chosen = np.array([math.nan if s.chosen_phi is None else s.chosen_phi for s in samples], dtype=float)
    labels, masks = [], []
    for variant in Variant:
        own = np.array([s.variant is variant for s in samples], dtype=bool)
        for label, mask in _q_bound_masks(variant, mixture, q, chosen):
            labels.append(label)
            masks.append(mask & own)
    hits = zip(*np.nonzero(np.stack(masks, axis=1)))
    violations = tuple(QViolation(samples[i].time, samples[i].q, labels[b]) for i, b in hits)
    return QBoundsReport(samples[-1].variant if samples else Variant.SUP1, len(samples), violations)


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
    every replication of an engine batch at once, on the same formulas, so
    every sample is bit-identical to the one-bundle one."""
    times, counts = batch.driver_times[0], batch.driver_counts[0]
    valid = np.arange(times.shape[1]) < counts[:, None]
    time, q, chosen = _q_rows(
        variant, mixture, [c.left for c in batch.components], batch.vbar_left(), times, valid, batch.picks,
    )
    # variant 3 samples every mark but its phi = 0 draws
    tally = _tally(variant, mixture.phis, [int(c.sum()) for c in batch.driver_counts], int(counts.sum()) - q.size)
    violations = sum(int(np.count_nonzero(m)) for _, m in _q_bound_masks(variant, mixture, q, chosen))
    return QColumns(time, q, chosen, tally, violations)


# ---------------------------------------------------------------------------
# histograms


def histogram(values: Sequence[float], bins: int) -> list[tuple[float, float, int]]:
    """Equal-width bins over [min, max]; a constant sample, or one too narrow
    for bins of positive width, is one full bin.  Rows: (bin_left, bin_right, count)."""
    x = np.asarray(values, dtype=float)
    if x.size == 0:
        raise ValueError("histogram needs at least one value")
    if not bins >= 1:
        raise ValueError(f"need at least one bin, got {bins}")
    lo, hi = float(np.min(x)), float(np.max(x))
    if not (np.diff(np.linspace(lo, hi, bins + 1)) > 0.0).all():  # np.histogram's edges
        return [(lo, hi, int(x.size))]
    counts, edges = np.histogram(x, bins=bins, range=(lo, hi))
    return list(zip(edges[:-1].tolist(), edges[1:].tolist(), counts.tolist()))


def histogram_to_csv(rows: Sequence[tuple[float, float, int]]) -> str:
    return columns_to_csv("bin_left,bin_right,count", *np.array(rows, dtype=float).reshape(-1, 3).T)


def logq_histogram(q: np.ndarray) -> list[tuple[float, float, int]]:
    """The log-q histogram of ``qstats`` and of verify's q family: 50 bins."""
    return histogram(values=np.log(q), bins=50)


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
