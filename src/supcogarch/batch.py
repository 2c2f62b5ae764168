"""Batched replication engine: n independent short replications of a
COGARCH or of a superposition, simulated together.

Replication r draws its driver paths from exactly the SeedSequences the
serial path uses (driver i of a bundle from ``substream(seed, *key, r, i)``,
the variant-3 pi-draws from ``substream(seed, *key, r, 1)``, a single
COGARCH from ``substream(seed, *key, r)``), then the exact recursions run mark rank by
mark rank across the replications on padded 2-D arrays.  Each replication
sees the floating-point operations of the serial path in the same order, so
every number is bit-identical to :func:`superpos.simulate_bundle`,
:func:`cogarch.simulate_cogarch` and :func:`price.simulate_price`.  Verify's
cogarch, cross, sup, price and q families and ``qstats`` run on it; the q
samples and jump tallies come from :func:`analysis.extract_q_batch`.

* per-mark decays exp(-eta (T - t)) come from ``math.exp``, as in the
  scalar loops (``np.exp`` rounds differently on some inputs);
* path queries repeat ``PathRecord._piecewise``: ``np.exp`` from the
  previous post-jump value, also at event times of variant 1's union;
* sums over atoms accumulate from zeros in atom order;
* price levels are a cumulative sum along each replication's row;
* variant 1 and 2 components and variant 3 relax to t0 after the burn-in,
  before the live window.

Padded arrays hold replication r in row r; columns past a row's mark count
hold +inf times, so they sort after every query, and zero sizes.  A batch
holds every replication's live window, so callers bound memory by
simulating ranges of replications (:func:`chunked`); within a call, long
burn-ins are drawn and burned in a chunk of replications at a time, on the
scalar loops when a chunk would be too narrow for the per-rank numpy
overhead to pay off.  Each replication's draws go through
:func:`analysis.run_replications`, so tracing tools count one replication
per replication, as on the serial path; the recursions run outside it, so
a replication's span times its draws alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .analysis import run_replications
from .cogarch import CogarchParams, _evolve_marks, stationary_start
from .levy import CompoundPoisson, LevyModel, _draw_marks, substream
from .superpos import (
    Mixture,
    Variant,
    _bundle_burn_in,
    _mean_or_level,
    _require_stationary,
    _sup3_marks,
)

__all__ = ["PathBatch", "BundleBatch", "simulate_batch", "simulate_cogarch_batch", "chunked"]

#: replications per engine call in :func:`chunked`; bounds the memory of a
#: batch's paths and of its queries
ROWS_PER_CALL = 1024
#: drawn marks held at once; replications are drawn and burned in by chunks
_CHUNK_MARKS = 1 << 15
#: narrower chunks burn in row by row on the scalar loops, where the per-rank
#: numpy overhead would lose: components burn in on the padded arrays from
#: 96 rows x components on, variant 3 from 16 rows (the measured crossovers
#: on variance gamma draws of 1000 marks a row)
_MIN_BATCH_STEPS = 96
_MIN_BATCH_ROWS_SUP3 = 16


def _rank(times: np.ndarray, ts: np.ndarray, side: str) -> np.ndarray:
    """Row-wise ``np.searchsorted(times[r], ts[r], side)``.  Complex numbers
    sort lexicographically, so (row, time) keys keep the rows apart without
    any arithmetic on the times."""
    rows, width = np.arange(times.shape[0])[:, None], times.shape[1]
    keys = np.empty(times.shape, complex)
    keys.real, keys.imag = rows, times
    queries = np.empty(ts.shape, complex)
    queries.real, queries.imag = rows, ts
    return np.searchsorted(keys.ravel(), queries.ravel(), side).reshape(ts.shape) - rows * width


def _take(values: np.ndarray, idx: np.ndarray) -> np.ndarray:
    return np.take_along_axis(values, idx, axis=1)


def _per_row(ts: np.ndarray, n: int) -> np.ndarray:
    """Query times shared by all rows (q,) or per row (n, q), as (n, q)."""
    ts = np.asarray(ts, dtype=float)
    return np.broadcast_to(ts, (n, ts.shape[-1]))


@dataclass(frozen=True)
class PathBatch:
    """Volatility paths of n replications, the batch counterpart of
    :class:`cogarch.PathRecord`.  Row r: events ``times[r]`` (+inf padded)
    with values ``left[r]``/``post[r]`` right before and after each; before
    its first event the row relaxes from ``v0[r]`` at time ``t0[r]``."""

    level: float
    eta: float
    t0: np.ndarray
    v0: np.ndarray
    times: np.ndarray
    left: np.ndarray
    post: np.ndarray

    def _piecewise(self, ts: np.ndarray, side: str) -> np.ndarray:
        ts = _per_row(ts, self.times.shape[0])
        idx = _rank(self.times, ts, side)
        prev = np.maximum(idx - 1, 0)
        base_v = np.where(idx > 0, _take(self.post, prev), self.v0[:, None])
        base_t = np.where(idx > 0, _take(self.times, prev), self.t0[:, None])
        return self.level + (base_v - self.level) * np.exp(-self.eta * (ts - base_t))

    def values(self, ts: np.ndarray) -> np.ndarray:
        """(n, q) cadlag values at finite query times (see _per_row)."""
        return self._piecewise(ts, "right")

    def left_limits(self, ts: np.ndarray) -> np.ndarray:
        """(n, q) left limits at finite query times."""
        return self._piecewise(ts, "left")


@dataclass(frozen=True)
class BundleBatch:
    """n simulated bundles on [t0, t1]: the aggregate and component paths,
    the live marks of the price driver (atom 0's driver for variant 1, the
    shared one otherwise), each driver's live mark count per row, and for
    variant 3 the atom index drawn at each live mark."""

    aggregate: PathBatch
    components: tuple[PathBatch, ...]
    driver_times: np.ndarray
    driver_sizes: np.ndarray
    driver_counts: tuple[np.ndarray, ...]
    picks: np.ndarray | None = None

    def vbar_left(self) -> np.ndarray:
        """Aggregate left limits at the price driver's marks, as
        ``simulate_price(bundle).vbar_left`` per row; padded columns hold
        arbitrary values."""
        agg = self.aggregate
        pos = np.minimum(_rank(agg.times, self.driver_times, "left"), agg.times.shape[1] - 1)
        return _take(agg.left, pos)

    def price_levels(self, ts: np.ndarray) -> np.ndarray:
        """(n, q) price levels G at finite query times, as
        ``simulate_price(bundle).values_at(ts)`` per replication."""
        values = np.cumsum(np.sqrt(self.vbar_left()) * self.driver_sizes, axis=1)
        ts = _per_row(ts, values.shape[0])
        idx = _rank(self.driver_times, ts, "right")
        return np.where(idx > 0, _take(values, np.maximum(idx - 1, 0)), 0.0)


# ---------------------------------------------------------------------------
# padded marks and the rank-by-rank recursion


def _pad(rows: Sequence[np.ndarray], fill: float, dtype=float) -> np.ndarray:
    """Rows of unequal length as one (len(rows), max(1, longest)) array."""
    counts = np.array([len(x) for x in rows], dtype=int)
    out = np.full((len(rows), max(1, int(counts.max(initial=0)))), fill, dtype=dtype)
    out[np.arange(out.shape[1]) < counts[:, None]] = np.concatenate([np.empty(0, dtype), *rows])
    return out


def _stack(blocks: Sequence[np.ndarray], fill: float) -> np.ndarray:
    """Row blocks of unequal width stacked into one padded array."""
    width = max(b.shape[1] for b in blocks)
    return np.concatenate(
        [np.pad(b, ((0, 0), (0, width - b.shape[1])), constant_values=fill) for b in blocks]
    )


def _shift(arr: np.ndarray, start: np.ndarray, count: np.ndarray, fill: float) -> np.ndarray:
    """Columns start[r] .. start[r] + count[r] - 1 of each row, left-aligned."""
    width = max(1, int(count.max(initial=0)))
    cols = np.arange(width)
    idx = np.minimum(start[:, None] + cols, arr.shape[1] - 1)
    return np.where(cols < count[:, None], _take(arr, idx), fill)


def _check_window(t0: float, t1: float) -> None:
    if not t1 > t0:
        raise ValueError(f"empty horizon [{t0}, {t1}]")


def _check_marks(times: np.ndarray, counts: np.ndarray, t0: float, t1: float) -> None:
    """JumpPath's invariants for every row at once: marks in (t0, t1],
    strictly increasing."""
    valid = np.arange(times.shape[1]) < counts[:, None]
    if np.any(valid & ~((times > t0) & (times <= t1))):
        raise ValueError("mark times must lie in (t0, t1]")
    if np.any(valid[:, 1:] & ~(times[:, 1:] > times[:, :-1])):
        raise ValueError("mark times must be strictly increasing")


def _decays(eta: float, t: np.ndarray, times: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """exp(-eta (T - t_prev)) at every valid mark, by math.exp as the scalar
    loops compute it; 1 elsewhere."""
    prev = np.concatenate([t[:, None], times[:, :-1]], axis=1)
    out = np.ones(times.shape)
    gaps = -eta * (times[valid] - prev[valid])
    out[valid] = np.fromiter(map(math.exp, gaps), float, gaps.size)
    return out


@dataclass
class _Record:
    """Per-mark values of a recorded recursion: components (A, n, N), the
    variant-3 aggregate (n, N) or None."""

    left: np.ndarray
    post: np.ndarray
    agg_left: np.ndarray | None
    agg_post: np.ndarray | None


def _recurse(
    eta: float, level: float, phis: Sequence[float], v: np.ndarray, vbar: np.ndarray | None,
    t: np.ndarray, times: np.ndarray, sizes: np.ndarray, counts: np.ndarray,
    picks: np.ndarray | None, record: bool,
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray, _Record | None]:
    """Exact steps over padded subordinator marks for a component family
    with scales ``phis`` (states ``v``, shape (A, n)) and, given ``vbar``,
    the variant-3 aggregate taking the scaled jump of atom ``picks``:
    relax every state toward ``level``, then jump.  Rows are sorted by mark
    count so that the rows still running at rank k are a leading slice.
    Returns the states and the time after each row's last mark, plus the
    per-mark values when ``record``."""
    n, width = times.shape
    valid = np.arange(width) < counts[:, None]
    dec = _decays(eta, t, times, valid)
    phi_arr = np.asarray(phis, dtype=float)
    t_end = np.where(counts > 0, _take(times, np.maximum(counts - 1, 0)[:, None])[:, 0], t)

    order = np.argsort(-counts, kind="stable")
    alive = np.count_nonzero(valid[order], axis=0)
    dec, ds, v = dec[order], sizes[order], v[:, order]
    phi_col = phi_arr[:, None]
    agg = vbar is not None
    if agg:
        vbar = vbar[order]
        pick = picks[order]
        phi_pick = phi_arr[pick]
    rec = None
    if record:
        rec = _Record(np.zeros(v.shape + (width,)), np.zeros(v.shape + (width,)),
                      np.zeros(times.shape) if agg else None, np.zeros(times.shape) if agg else None)
    for k in range(int(counts.max(initial=0))):
        m = int(alive[k])
        d = dec[:m, k]
        left = level + (v[:, :m] - level) * d
        if agg:
            vbar_left = level + (vbar[:m] - level) * d
            vbar[:m] = vbar_left + phi_pick[:m, k] * left[pick[:m, k], np.arange(m)] * ds[:m, k]
            if record:
                rec.agg_left[:m, k] = vbar_left
                rec.agg_post[:m, k] = vbar[:m]
        v[:, :m] = left * (1.0 + phi_col * ds[:m, k])
        if record:
            rec.left[:, :m, k] = left
            rec.post[:, :m, k] = v[:, :m]

    back = np.argsort(order)
    v = v[:, back]
    if agg:
        vbar = vbar[back]
    if record:
        rec.left, rec.post = rec.left[:, back], rec.post[:, back]
        if agg:
            rec.agg_left, rec.agg_post = rec.agg_left[back], rec.agg_post[back]
    return v, vbar, t_end, rec


def _burn_rows(
    eta: float, level: float, phis: Sequence[float], v: np.ndarray, vbar: np.ndarray | None,
    t: np.ndarray, times: np.ndarray, sizes: np.ndarray, counts: np.ndarray,
    picks: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """The unrecorded steps of :func:`_recurse`, row by row on the scalar
    loops: one COGARCH at a time, or variant 3's joint loop."""
    v, t_end = v.copy(), t.copy()
    vbar = None if vbar is None else vbar.copy()
    for r, c in enumerate(counts.tolist()):
        ts, ss = times[r, :c].tolist(), sizes[r, :c].tolist()
        if vbar is None:
            for a, phi in enumerate(phis):
                v[a, r] = _evolve_marks(eta, level, phi, float(v[a, r]), float(t[r]), ts, ss)
        else:
            vbar[r], v[:, r], _ = _sup3_marks(
                eta, level, phis, float(vbar[r]), v[:, r].tolist(), float(t[r]), ts, ss,
                picks[r, :c].tolist(),
            )
        if c:
            t_end[r] = ts[-1]
    return v, vbar, t_end


# ---------------------------------------------------------------------------
# the engine


def _expected_marks(model: LevyModel, length: float) -> float:
    if isinstance(model, CompoundPoisson):
        return model.rate * length
    return length / model.grid_step


@dataclass(frozen=True)
class _Family:
    """Components with scales ``phis`` on driver ``driver``, started at
    ``v`` (and the variant-3 aggregate at ``vbar``)."""

    phis: tuple[float, ...]
    driver: int
    v: tuple[float, ...]
    vbar: float | None = None


def _simulate(
    model: LevyModel, eta: float, level: float, window: tuple[float, float, float], n: int,
    streams: Callable[[int], list[np.random.SeedSequence]],
    families: Sequence[_Family],
    relax: bool,
    picks: Callable[[int, int], np.ndarray] | None = None,
):
    """Draw n replications on (t_start, t1], run every family through the
    marks up to t0 unrecorded (relaxing to t0 when ``relax``), then record
    the live marks.  Returns per family its reference times and states,
    its record and live marks, and the live L marks of every driver."""
    t_start, t0, t1 = window
    n_drivers = 1 + max(fam.driver for fam in families)
    per_rep = n_drivers * _expected_marks(model, t1 - t_start)
    step = max(1, int(_CHUNK_MARKS // max(per_rep, 1.0)))

    def draw(r: int):
        paths = [_draw_marks(model, t_start, t1, np.random.default_rng(s)) for s in streams(r)]
        return paths, None if picks is None else picks(r, len(paths[0][0]))

    live: list[list[tuple]] = [[] for _ in range(n_drivers)]
    states: list[list[tuple]] = [[] for _ in families]
    for lo in range(0, n, step):
        drawn = run_replications(lambda i, _lo=lo: draw(_lo + i), min(step, n - lo))
        padded = [
            (_pad([p[d][0] for p, _ in drawn], math.inf), _pad([p[d][1] for p, _ in drawn], 0.0),
             np.array([len(p[d][0]) for p, _ in drawn]),
             None if picks is None or d else _pad([q for _, q in drawn], 0, int))
            for d in range(n_drivers)
        ]
        del drawn  # the padded copies replace the per-replication arrays
        for d, (times, l_sizes, counts, pk) in enumerate(padded):
            _check_marks(times, counts, t_start, t1)
            n_burn = np.count_nonzero(times <= t0, axis=1)
            n_live = counts - n_burn
            live[d].append((
                _shift(times, n_burn, n_live, math.inf), _shift(l_sizes, n_burn, n_live, 0.0), n_live,
                None if pk is None else _shift(pk, n_burn, n_live, 0),
            ))
            for f, fam in enumerate(families):
                if fam.driver != d:
                    continue
                rows = len(counts)
                v = np.tile(np.array(fam.v)[:, None], (1, rows))
                vbar = None if fam.vbar is None else np.full(rows, fam.vbar)
                t = np.full(rows, t_start)
                args = (eta, level, fam.phis, v, vbar, t, times, l_sizes**2, n_burn, pk)
                min_rows = _MIN_BATCH_ROWS_SUP3 if vbar is not None else _MIN_BATCH_STEPS / len(fam.phis)
                if rows >= min_rows:
                    v, vbar, t, _ = _recurse(*args, record=False)
                else:
                    v, vbar, t = _burn_rows(*args)
                if relax:
                    end = np.fromiter(map(math.exp, -eta * (t0 - t)), float, rows)
                    v = level + (v - level) * end
                    vbar = None if vbar is None else level + (vbar - level) * end
                    t = np.full(rows, t0)
                states[f].append((t, v, vbar))

    drivers = [
        (_stack([c[0] for c in live[d]], math.inf), _stack([c[1] for c in live[d]], 0.0),
         np.concatenate([c[2] for c in live[d]]),
         None if live[d][0][3] is None else _stack([c[3] for c in live[d]], 0))
        for d in range(n_drivers)
    ]
    out = []
    for fam, chunks in zip(families, states):
        t = np.concatenate([c[0] for c in chunks])
        v = np.concatenate([c[1] for c in chunks], axis=1)
        vbar = None if fam.vbar is None else np.concatenate([c[2] for c in chunks])
        times, l_sizes, counts, pk = drivers[fam.driver]
        rec = _recurse(eta, level, fam.phis, v, vbar, t, times, l_sizes**2, counts, pk, record=True)[3]
        out.append((t, v, vbar, rec))
    return out, drivers


def _weighted(weights: Sequence[float], parts: Sequence[np.ndarray]) -> np.ndarray:
    """sum_i w_i x_i accumulated from zeros in atom order, as the serial
    aggregates are."""
    acc = np.zeros(parts[0].shape)
    for w, x in zip(weights, parts):
        acc += w * x
    return acc


def _union_aggregate(mixture: Mixture, comps: Sequence[PathBatch], t0: float) -> PathBatch:
    """Variant 1's aggregate: its events are each row's union of the
    component events (``np.unique``), its values the weighted component
    queries there."""
    cat = np.sort(np.concatenate([c.times for c in comps], axis=1), axis=1)
    cat[:, 1:][cat[:, 1:] == cat[:, :-1]] = math.inf
    cat = np.sort(cat, axis=1)
    times = cat[:, : max(1, int(np.count_nonzero(np.isfinite(cat), axis=1).max()))]
    qs = np.where(np.isfinite(times), times, t0)
    c0 = comps[0]
    return PathBatch(
        c0.level, c0.eta, c0.t0, _weighted(mixture.weights, [c.v0 for c in comps]), times,
        _weighted(mixture.weights, [c.left_limits(qs) for c in comps]),
        _weighted(mixture.weights, [c.values(qs) for c in comps]),
    )


def simulate_batch(
    variant: Variant,
    mixture: Mixture,
    beta: float,
    eta: float,
    model: LevyModel,
    horizon: tuple[float, float],
    seed: int,
    key: tuple[int, ...],
    n: int,
    burn_in: float | None = None,
    first: int = 0,
) -> BundleBatch:
    """n replications of ``simulate_bundle(variant, mixture, beta, eta,
    model, horizon, substream(seed, *key, r), burn_in)``, r = first ..
    first + n - 1, with every path value and price level bit-identical to
    the serial bundles."""
    _require_stationary(mixture, eta, model)
    t0, t1 = float(horizon[0]), float(horizon[1])
    b = _bundle_burn_in(mixture, beta, eta, model) if burn_in is None else burn_in
    _check_window(t0 - b, t0)
    _check_window(t0, t1)
    level = beta / eta
    starts = tuple(stationary_start(CogarchParams(beta, eta, phi), model) for phi in mixture.phis)
    picks = None
    if variant is Variant.SUP1:
        families = [_Family((phi,), i, (v,)) for i, (phi, v) in enumerate(zip(mixture.phis, starts))]
    else:
        vbar = None
        if variant is Variant.SUP3:
            vbar = _mean_or_level(mixture, beta, eta, model)
            p = np.array(mixture.weights)

            def picks(r: int, size: int) -> np.ndarray:
                rng = np.random.default_rng(substream(seed, *key, first + r, 1))
                return rng.choice(len(mixture), size=size, p=p)

        families = [_Family(mixture.phis, 0, starts, vbar)]
    results, drivers = _simulate(
        model, eta, level, (t0 - b, t0, t1), n,
        lambda r: [substream(seed, *key, first + r, i) for i in range(len(families))],
        families, relax=True, picks=picks,
    )

    comps = [
        PathBatch(level, eta, t, v[a], drivers[fam.driver][0], rec.left[a], rec.post[a])
        for fam, (t, v, _, rec) in zip(families, results)
        for a in range(len(fam.phis))
    ]
    if variant is not Variant.SUP3:
        # simulate_cogarch's check, in the serial (replication, atom) order
        v0 = np.array([c.v0 for c in comps]).T.ravel()
        bad = v0[~(v0 > 0.0)]
        if bad.size:
            raise ValueError(f"v0 must be > 0, got {float(bad[0])}")
    times = drivers[0][0]
    if variant is Variant.SUP1:
        aggregate = _union_aggregate(mixture, comps, t0)
    elif variant is Variant.SUP2:
        w = mixture.weights
        aggregate = PathBatch(
            level, eta, comps[0].t0, _weighted(w, [c.v0 for c in comps]), times,
            _weighted(w, [c.left for c in comps]), _weighted(w, [c.post for c in comps]),
        )
    else:
        t, _, vbar0, rec = results[0]
        aggregate = PathBatch(level, eta, t, vbar0, times, rec.agg_left, rec.agg_post)
    counts = tuple(d[2] for d in drivers)
    return BundleBatch(aggregate, tuple(comps), times, drivers[0][1], counts, drivers[0][3])


def simulate_cogarch_batch(
    params: CogarchParams,
    model: LevyModel,
    horizon: tuple[float, float],
    v_start: float,
    seed: int,
    key: tuple[int, ...],
    n: int,
    burn_in: float,
    first: int = 0,
) -> PathBatch:
    """n replications of ``simulate_cogarch(params, squared_jumps(path_r),
    v_start)``, with ``path_r = simulate_levy_path(model, (t0 - burn_in,
    t1), substream(seed, *key, r))``, r = first .. first + n - 1.  Queries at times in [t0, t1] equal
    the serial records' bit for bit; only the last mark up to t0 is kept,
    as the state the live window relaxes from."""
    if not v_start > 0.0:
        raise ValueError(f"v0 must be > 0, got {v_start}")
    t0, t1 = float(horizon[0]), float(horizon[1])
    _check_window(t0 - burn_in, t1)
    [(t, v, _, rec)], [(times, *_)] = _simulate(
        model, params.eta, params.level, (t0 - burn_in, t0, t1), n,
        lambda r: [substream(seed, *key, first + r)],
        [_Family((params.phi,), 0, (v_start,))], relax=False,
    )
    return PathBatch(params.level, params.eta, t, v[0], times, rec.left[0], rec.post[0])


def chunked(sample: Callable[[int, int], np.ndarray], n: int) -> np.ndarray:
    """``sample(first, count)`` over consecutive ranges of at most
    ROWS_PER_CALL replications, stacked into the (n, q) samples of
    replications 0 .. n - 1."""
    return np.concatenate(
        [sample(lo, min(ROWS_PER_CALL, n - lo)) for lo in range(0, n, ROWS_PER_CALL)]
    )
