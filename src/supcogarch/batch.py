"""The simulation engine: n independent replications of a COGARCH or of
a superposition, simulated together.  :func:`superpos.simulate_bundle` is
the engine at one replication; ``qstats`` and verify's cogarch, cross,
sup, price, q and tail families run on it, the q samples and jump tallies
coming from :func:`analysis.extract_q_batch`.

Every entry is :func:`_bundles`, one function that decides how a row
starts, draws, burns in and records each chunk, and assembles the batch.
It refuses a non-stationary atom, burns in for the given ``burn_in`` or,
when that is None, the longest :func:`cogarch.default_burn_in` of the
atoms, and starts each component at :func:`cogarch.stationary_start` and
variant 3's aggregate at the mixture's stationary mean (beta/eta where a
mean diverges).  :func:`simulate_cogarch_batch` and
:func:`stationary_draws` are the component of variant-2 bundles of the one
atom ``Mixture.dirac(phi)``: the COGARCH batch is not relaxed to t0, and a
stationary draw runs on the window (-burn_in, 0] with an empty live window,
so it burns in, relaxes to 0 and records nothing.

Replication r of :func:`simulate_batch` draws driver i from
``substream(seed, *key, r, i)`` and its variant-3 pi-draws from
``substream(seed, *key, r, 1)``: the streams of ``simulate_bundle(...,
substream(seed, *key, r))``.  A COGARCH replication of
:func:`simulate_cogarch_batch` draws from ``substream(seed, *key, r)``; a
stationary draw of :func:`stationary_draws` from the stream its caller
names.  The streams of a call come from one :func:`levy.substreams` pass
per driver and one for the pi-draws, not from a SeedSequence per
replication.  The exact recursions then run in one loop over blocks of mark
ranks (:func:`_steps`), each block's per-mark arrays built once and stepped
rank by rank across the replications or, below one crossover of
_MIN_BATCH_ROWS rows whatever is stepped, row by row on Python lists.  Both
do one replication's floating-point operations in the same order, so no
number depends on which runs or on the number of replications, and every
number equals that of the serial simulators in ``tests/serial_oracle.py``:

* per-mark decays exp(-eta (T - t)) come from :func:`cogarch._exp_decays`
  only, one numpy pass a block with ``math.exp``'s bits (complex ``np.exp``,
  see there); each is computed once per mark and shared by every state on
  that driver;
* jump factors 1 + phi dS and variant 3's jump terms phi_j V^j_{T-} dS are
  the serial loops' products, computed column-wise;
* path queries are ``PathRecord._piecewise``'s arc :func:`cogarch._relax`
  from the previous post-jump value; variant 1's aggregate
  (:class:`UnionBatch`) takes that value at the last component mark from
  its components, as its union does, and builds the union only when its
  events are read (a single bundle's record);
* ranks within rows are ``np.searchsorted``'s, by one vectorised binary
  search (:func:`_rank`);
* sums over atoms accumulate from zeros in atom order
  (:func:`superpos._weighted`);
* price levels are a cumulative sum along each replication's row;
* variant 1 and 2 components and variant 3 relax to t0 after the burn-in,
  before the live window (a COGARCH batch keeps its last burn-in mark).

Padded arrays hold replication r in row r; columns past a row's mark count
hold +inf times, so they sort after every query, and zero sizes.  A batch
holds every replication's live window, so callers bound memory by
simulating ranges of replications (:func:`chunked`, ``verify.q_columns``);
within a call, they are drawn and burned in by chunks.  One rule splits
rows (:func:`_parts`): the fewest even ranges under a cap, and one cap,
ROWS_PER_CALL, bounds the rows of both an engine call (:func:`_calls`) and
a burn-in chunk, which also holds about _CHUNK_MARKS drawn marks a driver
at most, so a call's rows burn in as one chunk, one rank loop a driver,
where their marks fit.  The recursion's scratch grows neither with the
marks a row nor, past 128 rows, with the rows: a block of :func:`_steps`
holds _RANK_BLOCK ranks up to there, then 16 MARK_BLOCK // rows.  The draws
of :func:`simulate_batch`, :func:`simulate_cogarch_batch` and
:func:`stationary_draws` go through :func:`analysis.run_replications`, so
tracing tools count one replication per replication; the recursions run
outside it.  A replication (one row function a call) builds its generators
and draws its raw mark counts, so its span times those alone; then each
driver is drawn straight into the chunk's padded arrays (:func:`levy._draws`),
its generators (and variant 3's pi-draw ones) freed, then tidied in place,
checked and burned in before the next one's exist, row r picking atoms by
the first of its uniforms, one per kept mark.  A single bundle is not a
replication and is not counted; it draws its drivers through
:func:`levy.simulate_levy_path`, the same draw at one row, and its
components of variants 1 and 2 are recorded by :func:`cogarch.simulate_cogarch`,
the engine's one call of it, so tracing tools time that bundle's recursion.
That record and :func:`cogarch.evolve_value` are :func:`_steps` at one row:
it is the one loop that steps a COGARCH, however few the rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Callable, Sequence

import numpy as np
from numpy.random import PCG64, Generator
from numpy.random.bit_generator import ISeedSequence

from .analysis import run_replications
from .cogarch import (
    CogarchParams, MomentDivergesError, _exp_decays, _relax, default_burn_in, simulate_cogarch, stationary_start,
)
from .levy import (
    CompoundPoisson, JumpPath, LevyModel, _check_marks, _check_window, _drawer, _draws, _tidy_marks, substreams,
)
from .superpos import Mixture, Variant, _require_stationary, _weighted, sup1_mean

__all__ = [
    "PathBatch", "UnionBatch", "BundleBatch", "simulate_batch", "simulate_cogarch_batch", "stationary_draws", "chunked",
]

#: the most replications of an engine call (:func:`_calls`) and of a burn-in
#: chunk; bounds the memory of a batch's paths and of its queries
ROWS_PER_CALL = 1024
#: a burn-in chunk holds about _CHUNK_MARKS drawn marks a driver at most:
#: 2^18 takes 262 rows of 1,000 marks (its drivers are drawn into their
#: padded arrays and burned in one at a time); calls and chunks split their
#: rows evenly (:func:`_parts`)
_CHUNK_MARKS = 1 << 18
#: mark ranks per block of :func:`_steps`: MARK_BLOCK // rows below 8 rows
#: (bounding the row-major stepper's per-mark lists), _RANK_BLOCK up to 128
#: rows, then 16 MARK_BLOCK // rows, so a block's scratch (rows x ranks)
#: stops growing with the rows
MARK_BLOCK = 2048
_RANK_BLOCK = 256
#: fewer rows step row by row, where the per-rank numpy overhead would
#: lose, whatever is stepped: the commands call _steps at 1, 6, 50, 100 and
#: 130 or more rows (none at 7 to 49), and on rows of 45 burn-in or 5 live
#: marks the row-major stepper wins every kind at 6 rows, the rank-major one
#: every kind at 50 (a one-component burn-in ties there) and all but that
#: one at 32
_MIN_BATCH_ROWS = 32


def _parts(n: int, cap: int) -> list[range]:
    """Rows 0 .. n - 1 in the fewest consecutive ranges of at most ``cap``
    rows, whose lengths differ by at most one."""
    k = -(-n // max(cap, 1))
    return [range(n * i // k, n * (i + 1) // k) for i in range(k)]


def _calls(n: int) -> list[range]:
    """The engine calls of replications 0 .. n - 1 (:func:`chunked`,
    ``verify.q_columns``): the even ranges of at most ROWS_PER_CALL rows."""
    return _parts(n, ROWS_PER_CALL)


def _rank(times: np.ndarray, ts: np.ndarray, side: str) -> np.ndarray:
    """Row-wise ``np.searchsorted(times[r], ts[r], side)``: one branchless
    binary search over all the padded rows at once, making searchsorted's
    comparisons (a < q for "left", a <= q for "right"), so the ranks are the
    same.  Each halving step probes one column a query."""
    n, width = times.shape
    flat, less = times.ravel(), np.less if side == "left" else np.less_equal
    start = np.arange(0, n * width, width)[:, None]
    base, m = start + np.zeros(ts.shape, np.intp), width
    while m > 1:  # row r's answer lies in base .. base + m of its row
        half = m // 2
        base += half * less(flat[base + half], ts)
        m -= half
    return base + less(flat[base], ts) - start


def _take(values: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Row-wise ``values[r, idx[r]]`` (``np.take_along_axis`` on axis 1)."""
    return values[np.arange(values.shape[0])[:, None], idx]


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
        return _relax(self.level, self.eta, base_v, ts - base_t)

    def values(self, ts: np.ndarray) -> np.ndarray:
        """(n, q) cadlag values at finite query times (see _per_row)."""
        return self._piecewise(ts, "right")

    def left_limits(self, ts: np.ndarray) -> np.ndarray:
        """(n, q) left limits at finite query times."""
        return self._piecewise(ts, "left")

    def _event_lefts(self, ts: np.ndarray) -> np.ndarray:
        """``left`` at the event times ts (+inf padded, arbitrary there)."""
        return _take(self.left, np.minimum(_rank(self.times, ts, "left"), self.times.shape[1] - 1))


class UnionBatch:
    """Variant 1's aggregate sum_i p_i V^{phi_i} of n replications, queried
    from its components: its events are each row's union of theirs, so a
    query relaxes from the last component mark T up to (or before) it, at
    ``_weighted(p, [c.values(T)])``, or from ``v0`` at ``t0`` before any.
    These are the operands and operations of the materialised union,
    :func:`_union_aggregate`, which ``times``, ``left`` and ``post`` build on
    their first read (a single bundle's record)."""

    def __init__(self, weights: Sequence[float], components: Sequence[PathBatch]) -> None:
        c0 = components[0]
        self.weights, self.components = weights, components
        self.level, self.eta, self.t0 = c0.level, c0.eta, c0.t0
        self.v0 = _weighted(weights, [c.v0 for c in components])

    def _piecewise(self, ts: np.ndarray, side: str) -> np.ndarray:
        ts, last = _per_row(ts, len(self.t0)), -math.inf
        for c in self.components:
            idx = _rank(c.times, ts, side)
            last = np.maximum(last, np.where(idx > 0, _take(c.times, np.maximum(idx - 1, 0)), -math.inf))
        none = last == -math.inf
        base_t = np.where(none, self.t0[:, None], last)
        base_v = _weighted(self.weights, [c.values(base_t) for c in self.components])
        return _relax(self.level, self.eta, np.where(none, self.v0[:, None], base_v), ts - base_t)

    def _event_lefts(self, ts: np.ndarray) -> np.ndarray:
        """The union's ``left`` at the event times ts, +inf padding read at t0."""
        qs = np.where(np.isfinite(ts), ts, self.t0[:, None])
        return _weighted(self.weights, [c.left_limits(qs) for c in self.components])

    values, left_limits = PathBatch.values, PathBatch.left_limits

    @cached_property
    def _union(self) -> PathBatch:
        return _union_aggregate(self.weights, self.components)

    times = property(lambda self: self._union.times)
    left = property(lambda self: self._union.left)
    post = property(lambda self: self._union.post)


@dataclass(frozen=True)
class BundleBatch:
    """n simulated bundles on [t0, t1]: the aggregate (for variant 1 a
    :class:`UnionBatch` of the components) and component paths, each
    driver's live marks (times, L sizes and count per row; one driver
    per atom for variant 1, one shared driver otherwise), and for variant 3
    the atom index drawn at each live mark (uint8 up to 256 atoms).  The
    price runs on driver 0 unless a variant-1 query names another."""

    aggregate: PathBatch | UnionBatch
    components: tuple[PathBatch, ...]
    driver_times: tuple[np.ndarray, ...]
    driver_sizes: tuple[np.ndarray, ...]
    driver_counts: tuple[np.ndarray, ...]
    picks: np.ndarray | None = None

    def vbar_left(self, driver: int = 0) -> np.ndarray:
        """Aggregate left limits at the marks of driver ``driver``, as
        ``simulate_price(bundle, driver).vbar_left`` per row: the aggregate's
        ``left`` there; padded columns hold arbitrary finite values."""
        return self.aggregate._event_lefts(self.driver_times[driver])

    def price_levels(self, ts: np.ndarray, driver: int = 0) -> np.ndarray:
        """(n, q) price levels G at finite query times, as
        ``simulate_price(bundle, driver).values_at(ts)`` per replication."""
        values = np.cumsum(np.sqrt(self.vbar_left(driver)) * self.driver_sizes[driver], axis=1)
        ts = _per_row(ts, values.shape[0])
        idx = _rank(self.driver_times[driver], ts, "right")
        return np.where(idx > 0, _take(values, np.maximum(idx - 1, 0)), 0.0)


# ---------------------------------------------------------------------------
# padded marks and the block loop of the recursion


def _pad(x: np.ndarray, fill: float) -> np.ndarray:
    """One row of marks (a single bundle's, a one-row record's) as a
    (1, max(1, len(x))) array, ``fill`` past its end."""
    out = np.full((1, max(1, len(x))), fill)
    out[0, : len(x)] = x
    return out


def _stack(blocks: Sequence[np.ndarray], fill: float) -> np.ndarray:
    """Row blocks of unequal width stacked into one padded array."""
    if len(blocks) == 1:
        return blocks[0]
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


@dataclass
class _Record:
    """Per-mark values of a recorded recursion: components (A, n, N), the
    variant-3 aggregate (n, N) or None."""

    left: np.ndarray
    post: np.ndarray
    agg_left: np.ndarray | None
    agg_post: np.ndarray | None

    @classmethod
    def zeros(cls, states: tuple[int, ...], marks: tuple[int, ...], agg: bool) -> "_Record":
        shape = states + marks[1:]
        return cls(np.zeros(shape), np.zeros(shape),
                   np.zeros(marks) if agg else None, np.zeros(marks) if agg else None)


def _by_rank(level, v, vbar, valid, decays, fac, ds, pick, phi_pick, out) -> None:
    """The rank-major stepper of :func:`_steps`: one numpy step per rank
    across the rows running there, a leading slice of the sorted rows.
    Variant 3's aggregate relaxes as one more row of the state array."""
    dec, a = np.ones(valid.shape), v.shape[0]
    dec[valid] = decays
    s, cols = v if vbar is None else np.concatenate([v, vbar[None]]), np.arange(valid.shape[0])
    for j, m in enumerate(valid.sum(axis=0).tolist()):
        left = level + (s[:, :m] - level) * dec[:m, j]
        np.multiply(left[:a], fac[:, :m, j], out=s[:a, :m])
        if vbar is not None:
            np.add(left[a], phi_pick[:m, j] * left[pick[:m, j], cols[:m]] * ds[:m, j], out=s[a, :m])
        if out is not None:
            out.left[:, :m, j], out.post[:, :m, j] = left[:a], s[:a, :m]
            if vbar is not None:
                out.agg_left[:m, j], out.agg_post[:m, j] = left[a], s[a, :m]
    if vbar is not None:
        v[:], vbar[:] = s[:a], s[a]


def _lefts(level: float, v: float, decays: list[float], factors: list[float]) -> list[float]:
    """The steps of :func:`_relax_marks`, returning the left limit at each
    mark; the state after mark k is ``lefts[k] * factors[k]``."""
    out: list[float] = []
    append = out.append
    for d, f in zip(decays, factors):
        v = level + (v - level) * d
        append(v)
        v *= f
    return out


def _relax_marks(level: float, v: float, decays: list[float], factors: list[float]) -> float:
    """Exact steps from state v: relax toward ``level`` by each decay, then
    jump by each factor 1 + phi dS; returns the state after the last mark."""
    for d, f in zip(decays, factors):
        v = (level + (v - level) * d) * f
    return v


def _agg_lefts(level: float, v: float, decays: list[float], jumps: list[float]) -> list[float]:
    """Variant 3's aggregate from state v: relax by each decay, then add
    each jump phi_j V^j_{T-} dS_T; returns the left limit at each mark."""
    out: list[float] = []
    append = out.append
    for d, j in zip(decays, jumps):
        v = level + (v - level) * d
        append(v)
        v += j
    return out


def _by_row(level, v, vbar, valid, decays, fac, ds, pick, phi_pick, out) -> None:
    """The row-major stepper of :func:`_steps`: each state of each row steps
    one tight loop (:func:`_relax_marks`, :func:`_lefts`,
    :func:`_agg_lefts`) through the block as Python lists."""
    ks = valid.sum(axis=1).tolist()  # marks a row
    dl, fl = [decays[end - k: end].tolist() for k, end in zip(ks, accumulate(ks))], fac.tolist()
    if vbar is None and out is None:
        for i, d in enumerate(dl):
            v[:, i] = [_relax_marks(level, x, d, fl[a][i]) for a, x in enumerate(v[:, i].tolist())]
        return
    left = np.zeros(fac.shape) if out is None else out.left
    for i, k in enumerate(ks):
        left[:, i, :k] = lefts = [_lefts(level, x, dl[i], fl[a][i]) for a, x in enumerate(v[:, i].tolist())]
        v[:, i] = [x[-1] * fl[a][i][k - 1] for a, x in enumerate(lefts)]
    if vbar is not None:
        jump = phi_pick * left[pick, np.arange(len(ks))[:, None], np.arange(valid.shape[1])] * ds
        agg_left, jl, start = np.zeros(ds.shape) if out is None else out.agg_left, jump.tolist(), vbar.tolist()
        for i, k in enumerate(ks):
            agg_left[i, :k] = bars = _agg_lefts(level, start[i], dl[i], jl[i])
            vbar[i] = bars[-1] + jl[i][k - 1]
    if out is not None:
        out.post[:] = left * fac
        if vbar is not None:
            out.agg_post[:] = out.agg_left + jump


def _steps(
    beta: float, eta: float, phis: Sequence[float], v: np.ndarray, vbar: np.ndarray | None,
    t: np.ndarray, times: np.ndarray, sizes: np.ndarray, counts: np.ndarray,
    picks: np.ndarray | None, record: bool, t_end: float | None,
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray, _Record | None]:
    """Exact steps over padded subordinator marks in (t, t_end], a burn-in
    (``record`` false) or the live window, of components with scales
    ``phis`` (states ``v``, shape (A, n)) and, given ``vbar``, variant 3's
    aggregate taking the scaled jump of atom ``picks``: relax each state
    toward beta/eta, then jump.  The rows, sorted by mark count so that
    those still running at rank k are a leading slice, go by blocks of
    max(MARK_BLOCK // n, min(_RANK_BLOCK, 16 MARK_BLOCK // n)) ranks (at
    least one) whose gaps, decays, factors
    1 + phi dS and picks are built once, then stepped by :func:`_by_rank`
    from _MIN_BATCH_ROWS rows on and by :func:`_by_row` below, with the
    same floating-point operations.  Returns the states and the time
    after each row's last mark, plus the per-mark values when ``record``.
    ``t_end`` only ends a burn-in: given, every state relaxes to it after
    its last mark, and the time returned is ``t_end``; a record passes None."""
    n, level, agg = times.shape[0], beta / eta, vbar is not None
    t_last = np.where(counts > 0, _take(times, np.maximum(counts - 1, 0)[:, None])[:, 0], t)
    order, kmax = np.argsort(-counts, kind="stable"), int(counts.max(initial=0))
    v, vbar = v[:, order], vbar[order] if agg else None
    rec = _Record.zeros(v.shape, times.shape, agg) if record else None
    phi_arr, step = np.asarray(phis, dtype=float), _by_row if n < _MIN_BATCH_ROWS else _by_rank
    width = max(1, MARK_BLOCK // n, min(_RANK_BLOCK, 16 * MARK_BLOCK // n))
    for lo in range(0, kmax, width):
        rows, cols = order[: np.count_nonzero(counts > lo)], slice(lo, min(lo + width, kmax))
        block, valid = times[rows, cols], np.arange(lo, cols.stop) < counts[rows, None]
        # decays of the gaps T - t_prev at the valid marks, row after row; a row's first mark follows t
        prev = np.concatenate([(times[rows, lo - 1] if lo else t[rows])[:, None], block[:, :-1]], axis=1)
        decays = _exp_decays(eta, block[valid] - prev[valid])
        ds, pick = sizes[rows, cols], picks[rows, cols] if agg else None
        out = _Record.zeros((v.shape[0], len(rows)), block.shape, agg) if record else None
        step(level, v, vbar, valid, decays, 1.0 + phi_arr[:, None, None] * ds, ds, pick,
             None if pick is None else phi_arr[pick], out)
        if record:
            rec.left[:, rows, cols], rec.post[:, rows, cols] = out.left, out.post
            if agg:
                rec.agg_left[rows, cols], rec.agg_post[rows, cols] = out.agg_left, out.agg_post

    back = np.argsort(order)
    v, vbar = v[:, back], vbar[back] if agg else None
    if t_end is not None:
        end = _exp_decays(eta, t_end - t_last)
        v = level + (v - level) * end
        vbar = None if vbar is None else level + (vbar - level) * end
        t_last = np.full(n, t_end)
    return v, vbar, t_last, rec


# ---------------------------------------------------------------------------
# the engine


def _expected_marks(model: LevyModel, length: float) -> float:
    if isinstance(model, CompoundPoisson):
        return model.rate * length
    return length / model.grid_step


def _union_aggregate(weights: Sequence[float], comps: Sequence[PathBatch]) -> PathBatch:
    """Variant 1's aggregate materialised: its events are each row's union of
    the component events (``np.unique``), its values the weighted component
    queries there, padded columns queried at t0."""
    cat = np.sort(np.concatenate([c.times for c in comps], axis=1), axis=1)
    cat[:, 1:][cat[:, 1:] == cat[:, :-1]] = math.inf
    cat = np.sort(cat, axis=1)
    times = cat[:, : max(1, int(np.count_nonzero(np.isfinite(cat), axis=1).max()))]
    c0 = comps[0]
    qs = np.where(np.isfinite(times), times, c0.t0[:, None])
    return PathBatch(
        c0.level, c0.eta, c0.t0, _weighted(weights, [c.v0 for c in comps]), times,
        _weighted(weights, [c.left_limits(qs) for c in comps]),
        _weighted(weights, [c.values(qs) for c in comps]),
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
    first + n - 1: driver i of replication r draws from ``substream(seed,
    *key, r, i)``, its variant-3 pi-draws from ``substream(seed, *key, r,
    1)``.  Every path value and price level equals the one-bundle one bit
    for bit."""
    _check_window(float(horizon[0]), float(horizon[1]))
    return _bundles(
        variant, mixture, beta, eta, model, horizon, burn_in, n,
        lambda i: substreams(seed, key, range(first, first + n), i),
    )


def _picks(weights: Sequence[float]) -> Callable[[np.ndarray], np.ndarray]:
    """Variant 3's pi-draws at ``Generator.random`` uniforms: the ``p`` branch of ``Generator.choice(len(weights),
    size, p=weights)``, its CDF built once, cast once a call to the smallest unsigned dtype of the atom indices."""
    cdf, dtype = np.cumsum(weights), np.min_scalar_type(len(weights) - 1)
    cdf /= cdf[-1]
    return lambda u: cdf.searchsorted(u, side="right").astype(dtype)


def _bundles(
    variant: Variant, mixture: Mixture, beta: float, eta: float, model: LevyModel,
    horizon: tuple[float, float], burn_in: float | None, n: int,
    stream: Callable[[int], Sequence[ISeedSequence]], draw_path: Callable[..., JumpPath] | None = None,
    relax: bool = True,
) -> BundleBatch:
    """n bundles on the live window (t0, t1], the engine of every entry.
    It starts each row as the module docstring says, burning in for b =
    ``burn_in`` or the default; draws each driver on (t0 - b, t1], driver i
    of the replications from the n streams ``stream(i)`` and their variant-3
    pi-draws from ``stream(1)`` (:func:`_picks`); steps the components (one
    driver per atom for variant 1, one shared driver otherwise) and the
    aggregate through the marks up to t0 unrecorded, relaxing to t0 when
    ``relax``; records the live marks (none when t1 == t0); and assembles
    the batch.  The draws go through :func:`analysis.run_replications` and
    :func:`levy._draws`, unless ``draw_path(model, horizon, seed)`` draws
    each driver as a checked :class:`levy.JumpPath`: one bundle is not a
    replication.  The live window may be empty: the public entries check it."""
    _require_stationary(mixture, eta, model)
    t0, t1 = float(horizon[0]), float(horizon[1])
    b = burn_in
    if b is None:
        b = max(default_burn_in(CogarchParams(beta, eta, phi), model) for phi in mixture.phis)
    _check_window(t0 - b, t0)
    level, phis, t_start = beta / eta, mixture.phis, t0 - b
    starts = tuple(stationary_start(CogarchParams(beta, eta, phi), model) for phi in phis)
    vbar = picks = None
    if variant is Variant.SUP3:
        try:
            vbar = sup1_mean(mixture, beta, eta, model)
        except MomentDivergesError:
            vbar = level
        picks = _picks(mixture.weights)
    if n < 1:
        raise ValueError(f"need at least one replication, got n={n}")
    # driver d steps the components phis[groups[d]]: one a driver for variant 1, all on one otherwise
    groups = [slice(a, a + 1) for a in range(len(phis))] if variant is Variant.SUP1 else [slice(None)]
    streams = [stream(i) for i in [*range(len(groups)), *([1] if picks else [])]]  # the drivers, then the pi-draws
    cap = min(ROWS_PER_CALL, int(_CHUNK_MARKS // max(_expected_marks(model, t1 - t_start), 1.0)))

    if draw_path is None:  # one bundle draws its paths through draw_path alone
        count, fill = _drawer(model, t_start, t1)

    def row(i: int) -> None:  # row i's generators (its drivers', then its pi-draws') and drivers' raw counts
        for rngs, seeds in zip(gens, chunk):
            rngs.append(Generator(PCG64(seeds[i])))
        for counts, rngs in zip(raw, gens):
            counts.append(count(rngs[-1]))

    live: list[list[tuple]] = [[] for _ in groups]
    states: list[list[tuple]] = [[] for _ in groups]
    for part in _parts(n, cap):
        rows = len(part)
        chunk = [list(s[part.start: part.stop]) for s in streams]
        gens, raw = [[] for _ in chunk], [[] for _ in groups]
        if draw_path is None:
            run_replications(row, rows)
        for d, group in enumerate(groups):  # drawn, tidied and burned in before the next driver's arrays exist
            if draw_path is None:
                times, l_sizes, u = _draws(fill, gens[d], raw[d], gens[-1] if picks else ())
                gens[-1], gens[d] = gens[-1] if picks is None else None, None  # drawn: generators freed
                times, l_sizes, counts = _tidy_marks(model, t_start, t1, times, l_sizes, np.array(raw[d]))
                _check_marks(times, counts, t_start, t1)
            else:  # one bundle is not a replication
                path = draw_path(model, (t_start, t1), chunk[d][0])
                counts, times, sizes, path = np.array([len(path)]), path.times, path.sizes, None
                times = _pad(times, math.inf)  # the path's times freed before its sizes are padded
                l_sizes, sizes = _pad(sizes, 0.0), None
                u = None if picks is None else _pad(Generator(PCG64(chunk[-1][0])).random(counts[0]), 0.0)
            pk, u = None if picks is None else picks(u[:, : times.shape[1]]), None  # u freed before the burn-in
            n_burn = np.count_nonzero(times <= t0, axis=1)
            n_live = counts - n_burn
            live[d].append((
                _shift(times, n_burn, n_live, math.inf), _shift(l_sizes, n_burn, n_live, 0.0), n_live,
                None if pk is None else _shift(pk, n_burn, n_live, 0),
            ))
            l_sizes **= 2  # the squared jumps S, in place: the live L marks are copied
            v = np.tile(np.array(starts[group])[:, None], (1, rows))
            vb = None if vbar is None else np.full(rows, vbar)
            states[d].append(_steps(
                beta, eta, phis[group], v, vb, np.full(rows, t_start), times, l_sizes, n_burn, pk, False,
                t0 if relax else None,
            ))
            del times, l_sizes, pk  # freed before the next driver or chunk is drawn

    drivers = [
        (_stack([c[0] for c in chunks], math.inf), _stack([c[1] for c in chunks], 0.0),
         np.concatenate([c[2] for c in chunks]),
         None if chunks[0][3] is None else _stack([c[3] for c in chunks], 0))
        for chunks in live
    ]
    comps = []
    for (times, l_sizes, counts, pk), group, chunks in zip(drivers, groups, states):
        v = np.concatenate([c[0] for c in chunks], axis=1)
        vb = None if vbar is None else np.concatenate([c[1] for c in chunks])
        t = np.concatenate([c[2] for c in chunks])
        if t1 <= t0:  # an empty live window has no marks to record
            rec = _Record.zeros(v.shape, times.shape, vb is not None)
        elif draw_path is None or vb is not None:
            rec = _steps(beta, eta, phis[group], v, vb, t, times, l_sizes**2, counts, pk, True, None)[3]
        else:  # instrumentation only: simulate_cogarch is the same one-row _steps record, one call a
            # component, kept so that tracing tools time one bundle's cogarch.recursion span
            c, rec = int(counts[0]), _Record.zeros(v.shape, times.shape, False)
            path = JumpPath(float(t[0]), t1, times[0, :c], l_sizes[0, :c] ** 2)
            for a, phi in enumerate(phis[group]):
                got = simulate_cogarch(CogarchParams(beta, eta, phi), path, float(v[a, 0]))
                rec.left[a, 0, :c], rec.post[a, 0, :c] = got.left, got.post
        comps += [PathBatch(level, eta, t, v[a], times, rec.left[a], rec.post[a]) for a in range(v.shape[0])]

    if variant is not Variant.SUP3:
        # simulate_cogarch's check on each component, in (replication, atom) order
        v0 = np.array([c.v0 for c in comps]).T.ravel()
        bad = v0[~(v0 > 0.0)]
        if bad.size:
            raise ValueError(f"v0 must be > 0, got {float(bad[0])}")
    if variant is Variant.SUP1:
        aggregate = UnionBatch(mixture.weights, tuple(comps))
    elif variant is Variant.SUP2:
        w = mixture.weights
        aggregate = PathBatch(
            level, eta, comps[0].t0, _weighted(w, [c.v0 for c in comps]), comps[0].times,
            _weighted(w, [c.left for c in comps]), _weighted(w, [c.post for c in comps]),
        )
    else:  # the one driver's aggregate state and record
        aggregate = PathBatch(level, eta, t, vb, comps[0].times, rec.agg_left, rec.agg_post)
    return BundleBatch(aggregate, tuple(comps), *zip(*(d[:3] for d in drivers)), drivers[0][3])


def simulate_cogarch_batch(
    params: CogarchParams,
    model: LevyModel,
    horizon: tuple[float, float],
    seed: int,
    key: tuple[int, ...],
    n: int,
    burn_in: float | None = None,
    first: int = 0,
) -> PathBatch:
    """n replications of ``simulate_cogarch(params, squared_jumps(path_r),
    v)``, with ``path_r = simulate_levy_path(model, (t0 - b, t1),
    substream(seed, *key, r))``, r = first .. first + n - 1, and the start
    v and burn-in b of :func:`_bundles`: the component of n variant-2
    bundles of the one atom phi, not relaxed to t0.  Queries at times in
    [t0, t1] equal the serial records' bit for bit; only the last mark up to
    t0 is kept, as the state the live window relaxes from."""
    _check_window(float(horizon[0]), float(horizon[1]))
    return _bundles(
        Variant.SUP2, Mixture.dirac(params.phi), params.beta, params.eta, model, horizon, burn_in, n,
        lambda _: substreams(seed, key, range(first, first + n)), relax=False,
    ).components[0]


def stationary_draws(
    params: CogarchParams,
    model: LevyModel,
    burn_in: float | None,
    n: int,
    stream: Sequence[ISeedSequence],
) -> np.ndarray:
    """V(0) of n COGARCHes, each started at the start of :func:`_bundles` at
    -b, b = burn_in or the default burn-in: n approximate draws from the
    stationary law, the component of n variant-2 bundles of the one atom phi
    on the empty live window (0, 0].  Draw r runs through the marks of
    ``simulate_levy_path(model, (-b, 0), seed)``, where ``stream`` lists the
    n seeds of the draws, and relaxes to 0; it equals
    :func:`cogarch.evolve_value` on that path bit for bit."""
    return _bundles(
        Variant.SUP2, Mixture.dirac(params.phi), params.beta, params.eta, model, (0.0, 0.0), burn_in, n,
        lambda _: stream,
    ).components[0].v0


def chunked(sample: Callable[[int, int], np.ndarray], n: int) -> np.ndarray:
    """``sample(first, count)`` over the engine calls (:func:`_calls`),
    stacked into the (n, q) samples of replications 0 .. n - 1."""
    return np.concatenate([sample(part.start, len(part)) for part in _calls(n)])
