"""Driving Levy processes: models, jump-path simulation, and moments.

Two drivers are supported.  A compound Poisson process is simulated exactly
at its jump times and is the verification backbone (every downstream closed
form is exact for it).  A variance gamma process has infinite jump activity,
so it is approximated on a uniform grid: each grid increment, drawn from the
exact difference-of-gammas representation, is recorded as a single jump mark.

Randomness contract
-------------------
Every simulation is a pure function of ``(model, horizon, seed)``.  Derived
streams (replications, mixture atoms) are defined by :func:`substream`,
which mixes integer key words into the root seed through
``numpy.random.SeedSequence(entropy=root, spawn_key=key)``, the first key
word naming the consumer (:class:`Stream`).  A stream depends only on its
key, so one bundle per replication and the batched engine draw identical
numbers.  The engine derives a call's streams in one pass with
:func:`substreams`, the SeedSequence algorithm on uint32 columns; a test
pins each of them to :func:`substream` bit for bit.  A draw, of engine
rows and of a single path alike, is :func:`_drawer`'s count and fill into
the padded rows of :func:`_draws`, then :func:`_tidy_marks` on those rows.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np
# numpy loads numpy.random lazily (default_rng): load it at import, so that its cost stays
# in set-up.  No command calls np.unique or np.isin, which would load numpy.ma.
import numpy.random  # noqa: F401

from .csvio import columns_to_csv

__all__ = [
    "JumpDistribution",
    "STANDARD_NORMAL",
    "CompoundPoisson",
    "VarianceGamma",
    "LevyModel",
    "JumpPath",
    "Stream",
    "substream",
    "rng_from",
    "substreams",
    "simulate_levy_path",
    "squared_jumps",
    "s_moments",
    "l_moments",
    "jump_path_to_csv",
]

DEFAULT_VG_GRID_STEP = 2.0 ** -8

# Raw moments E[Y^k], k = 1..8, needed for the moment-matched quadrature
# used by the exponent module; order 8 covers E[S_1^4] sanity checks.
_N_REQUIRED_MOMENTS = 8


@dataclass(frozen=True)
class JumpDistribution:
    """Jump-size law of a compound Poisson driver.

    ``sample(rng, n)`` draws n i.i.d. jump sizes; ``raw_moments`` are
    E[Y^k] for k = 1..8 and must all be supplied (construction error
    otherwise).
    """

    name: str
    sample: Callable[[np.random.Generator, int], np.ndarray]
    raw_moments: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.raw_moments) < _N_REQUIRED_MOMENTS:
            raise ValueError(
                f"jump distribution '{self.name}' must supply raw moments up to "
                f"order {_N_REQUIRED_MOMENTS}, got {len(self.raw_moments)}"
            )

    def moment(self, k: int) -> float:
        if k == 0:
            return 1.0
        return self.raw_moments[k - 1]


#: Standard normal jumps; odd moments vanish, E[Y^(2k)] = (2k-1)!!.
STANDARD_NORMAL = JumpDistribution(
    name="standard_normal",
    sample=lambda rng, n: rng.standard_normal(n),
    raw_moments=(0.0, 1.0, 0.0, 3.0, 0.0, 15.0, 0.0, 105.0),
)


@dataclass(frozen=True)
class CompoundPoisson:
    """Compound Poisson driver with jump intensity ``rate`` per unit time."""

    rate: float
    jumps: JumpDistribution = STANDARD_NORMAL

    def __post_init__(self) -> None:
        if not self.rate > 0.0:
            raise ValueError(f"compound Poisson rate must be > 0, got {self.rate}")


@dataclass(frozen=True)
class VarianceGamma:
    """Variance gamma driver: Brownian motion time-changed by a gamma process.

    ``sigma`` scales the Brownian motion, ``nu`` is the variance rate of the
    gamma subordinator (mean 1, variance nu per unit time).  There is no
    skew parameter (the general model's drift theta is 0): the
    price-increment second-order structure needs a vanishing third Levy
    moment, which for VG forces the symmetric case.
    """

    sigma: float
    nu: float
    grid_step: float = DEFAULT_VG_GRID_STEP

    def __post_init__(self) -> None:
        if not self.sigma > 0.0:
            raise ValueError(f"variance gamma sigma must be > 0, got {self.sigma}")
        if not self.nu > 0.0:
            raise ValueError(f"variance gamma nu must be > 0, got {self.nu}")
        if not self.grid_step > 0.0:
            raise ValueError("variance gamma grid_step must be > 0")


LevyModel = Union[CompoundPoisson, VarianceGamma]


def _check_window(t0: float, t1: float) -> None:
    if not t1 > t0:
        raise ValueError(f"empty horizon [{t0}, {t1}]")


def _check_marks(times: np.ndarray, counts: np.ndarray, t0: float, t1: float) -> None:
    """JumpPath's invariants for every row at once: the first ``counts[r]``
    marks of row r lie in (t0, t1] and are strictly increasing."""
    valid = np.arange(times.shape[1]) < counts[:, None]
    if np.any(valid & ~((times > t0) & (times <= t1))):
        raise ValueError("mark times must lie in (t0, t1]")
    if np.any(valid[:, 1:] & ~(times[:, 1:] > times[:, :-1])):
        raise ValueError("mark times must be strictly increasing")


@dataclass(frozen=True)
class JumpPath:
    """Finite, time-sorted stream of (time, jump size) marks on [t0, t1].

    Marks live in the half-open interval (t0, t1]; times are strictly
    increasing.  An S-path (subordinator) has all sizes > 0.
    """

    t0: float
    t1: float
    times: np.ndarray
    sizes: np.ndarray

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        sizes = np.asarray(self.sizes, dtype=float)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "sizes", sizes)
        _check_window(self.t0, self.t1)
        if times.shape != sizes.shape or times.ndim != 1:
            raise ValueError("times and sizes must be 1-d arrays of equal length")
        if times.size:
            _check_marks(times[None], np.array([times.size]), self.t0, self.t1)
        times.setflags(write=False)
        sizes.setflags(write=False)

    def __len__(self) -> int:
        return int(self.times.size)

    def restrict(self, t0: float, t1: float) -> "JumpPath":
        """Marks in (t0, t1] as a new path on that horizon."""
        lo = int(np.searchsorted(self.times, t0, side="right"))
        hi = int(np.searchsorted(self.times, t1, side="right"))
        return JumpPath(t0, t1, self.times[lo:hi].copy(), self.sizes[lo:hi].copy())


def _normalize_seed(seed: int) -> int:
    # SeedSequence wants nonnegative entropy; fold negatives two's-complement style.
    return int(seed) & 0xFFFFFFFFFFFFFFFF


class Stream(enum.IntEnum):
    """Stream families: the first spawn-key word under the root seed, one
    per consumer, so no two consumers ever draw the same numbers by
    accident.  ``cli``, ``verify`` and the tests take the ids from here.

    ``qstats`` and the verify q family share ``Q`` on purpose: for the same
    config they simulate the same bundles, so the jump ratios that
    ``qstats`` exports are the ones verify bounds.  Giving either its own id
    would change the ``qstats`` output bytes.
    """

    SIMULATE = 0
    COGARCH = 1
    CROSS = 2
    SUP = 3
    PRICE = 4
    Q = 5
    TAIL = 6
    PARETO = 7
    IDENTITY = 8


def substream(seed: int | np.random.SeedSequence, *key: int) -> np.random.SeedSequence:
    """Deterministic derived stream: root seed plus integer key words.

    Splitting rule (documented contract): the replication index, and within a
    replication the atom/driver index, are appended to the SeedSequence
    ``spawn_key``.  Streams are identical no matter how work is scheduled.
    A SeedSequence with no further key words is returned as it is.
    """
    if isinstance(seed, np.random.SeedSequence):
        if not key:
            return seed
        base_key = tuple(seed.spawn_key)
        return np.random.SeedSequence(entropy=seed.entropy, spawn_key=base_key + key)
    return np.random.SeedSequence(entropy=_normalize_seed(seed), spawn_key=key)


def rng_from(seed: int | np.random.SeedSequence, *key: int) -> np.random.Generator:
    return np.random.default_rng(substream(seed, *key))


# numpy's SeedSequence: a pool of four uint32 words, hashed and mixed
_M32, _INIT_A, _MULT_A, _INIT_B, _MULT_B = 0xFFFFFFFF, 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED


def _words(x) -> list[int]:
    """A non-negative int, or such ints, as SeedSequence's uint32 words."""
    if isinstance(x, (int, np.integer)) and x >= 0:
        return [int(x) >> s & _M32 for s in range(0, max(int(x).bit_length(), 1), 32)]
    return [w for y in x for w in _words(y)]


def _hash(x, h: int, mult: int, k: int) -> tuple[np.ndarray, int]:
    """SeedSequence's hashmix of x (a word or a uint32 column) at the k hash
    constants from h, one row per constant, and the constant after them."""
    c = np.array([h * pow(mult, j, 1 << 32) & _M32 for j in range(k + 1)], np.uint32)[:, None]
    x = (x ^ c[:-1]) * c[1:] & _M32
    return x ^ (x >> 16), int(c[-1, 0])


class _Words(np.random.bit_generator.ISeedSequence):
    """A stream as the words that seed its PCG64, ``generate_state(4, uint64)``."""

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != 4 or dtype is not np.uint64 and np.dtype(dtype) != np.uint64:  # PCG64 passes np.uint64
            raise ValueError(f"holds generate_state(4, uint64) only, asked for ({n_words}, {dtype})")
        return self.words


@dataclass(frozen=True)
class _Streams(Sequence):
    """Streams as rows of PCG64 seed words, 32 bytes a row (items: :class:`_Words`)."""

    words: np.ndarray

    def __len__(self) -> int:
        return len(self.words)

    def __getitem__(self, i):
        return _Streams(self.words[i]) if isinstance(i, slice) else _Words(self.words[i])

    def __iter__(self):
        return map(_Words, self.words)


def substreams(
    seed: int | np.random.SeedSequence, key: tuple[int, ...], rows: Sequence[int], *suffix: int
) -> Sequence[np.random.bit_generator.ISeedSequence]:
    """The streams ``substream(seed, *key, r, *suffix)`` for r in ``rows``
    in one pass: numpy's SeedSequence algorithm on uint32 columns, one per
    row, past the words they share.  Each seeds ``np.random.default_rng``
    to the same generator bit for bit."""
    if isinstance(seed, np.random.SeedSequence):
        entropy, key = seed.entropy, (*seed.spawn_key, *key)
    else:
        entropy = _normalize_seed(seed)
    pool = np.random.SeedSequence(entropy, spawn_key=key).pool[:, None]
    # each word mixed so far took four hash constants: the entropy padded to four words, then the key
    h = _INIT_A * pow(_MULT_A, 4 * (max(4, len(_words(entropy))) + len(_words(key))), 1 << 32) & _M32
    out = np.empty((len(rows), 4), np.uint64)
    for lo in range(0, len(rows), 1 << 12):  # blocks of rows bound the column temporaries
        r = np.asarray(rows[lo: lo + (1 << 12)], dtype=np.uint64)
        wide = r > _M32
        for sel, n_words in ((~wide, 1), (wide, 2)):  # a row index of 2**32 on is two words
            if sel.any():
                p, g = pool, h
                for w in [(r[sel] >> 32 * j).astype(np.uint32) for j in range(n_words)] + _words(suffix):
                    x, g = _hash(w, g, _MULT_A, 4)
                    p = ((0xCA01F9DD * p & _M32) - (0x4973F715 * x & _M32)) & _M32
                    p ^= p >> 16
                state, _ = _hash(np.tile(p, (2, 1)), _INIT_B, _MULT_B, 8)
                out[lo: lo + r.size][sel] = np.ascontiguousarray(state.T, "<u4").view("<u8")
    return _Streams(out)


def _drawer(model: LevyModel, t0: float, t1: float) -> tuple[Callable[[np.random.Generator], int], Callable]:
    """The draw on (t0, t1], built once for any number of draws: ``count(rng)``
    then ``fill(rng, times, sizes)``, the raw marks into length-count arrays;
    their generator calls, in this order, define the stream.  Compound
    Poisson: Poisson count, uniforms on [0, 1) (mapped to times by
    :func:`_tidy_marks`), i.i.d. sizes.  Variance gamma: the grid edges, one
    per ``model.grid_step`` (the last may be shorter), differences of two gammas."""
    if isinstance(model, CompoundPoisson):
        mean, sample = model.rate * (t1 - t0), model.jumps.sample

        def fill(rng: np.random.Generator, times: np.ndarray, sizes: np.ndarray) -> None:
            rng.random(out=times)
            sizes[:] = sample(rng, times.size)
        return lambda rng: int(rng.poisson(mean)), fill

    if isinstance(model, VarianceGamma):
        step = model.grid_step
        n_steps = int(math.ceil((t1 - t0) / step - 1e-12))
        edges = t0 + step * np.arange(1, n_steps + 1)
        edges[-1] = t1
        shape = np.diff(edges, prepend=t0) / model.nu
        scale = model.sigma * math.sqrt(model.nu / 2.0)

        def fill(rng: np.random.Generator, times: np.ndarray, sizes: np.ndarray) -> None:
            times[:], sizes[:] = edges, rng.gamma(shape, scale)  # one gamma array alive at a time
            sizes -= rng.gamma(shape, scale)
        return lambda rng: n_steps, fill

    raise TypeError(f"unsupported Levy model: {model!r}")


def _draws(fill: Callable, rngs: Sequence[np.random.Generator], counts: Sequence[int], pis: Sequence = ()):
    """Rows of raw marks straight into padded arrays: row r's counts[r] times
    and sizes by ``fill(rngs[r], ...)`` of :func:`_drawer` (+inf, 0 past
    them), given variant 3's ``pis`` as many uniforms (else None)."""
    shape = (len(counts), max(1, max(counts)))
    times, sizes, u = np.full(shape, math.inf), np.zeros(shape), np.zeros(shape) if pis else None
    for r, (rng, k) in enumerate(zip(rngs, counts)):
        fill(rng, times[r, :k], sizes[r, :k])
    for r, (rng, k) in enumerate(zip(pis, counts)):
        rng.random(out=u[r, :k])
    return times, sizes, u


def _tidy_marks(
    model: LevyModel, t0: float, t1: float, times: np.ndarray, sizes: np.ndarray, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rest of a draw on (t0, t1], on (rows, width) raw marks padded with
    +inf times and zero sizes past ``counts``.  Compound Poisson, in place on
    ``times``: map each uniform u to t0 + (t1 - t0) u as ``Generator.uniform``
    does, move a time on t0 to t1 (as if u = 0 were 1), sort each row's times
    (the i.i.d. sizes keep their order), drop zero sizes, then ties (times no
    later than the last kept one before them: the time before, sorted, when no
    size is zero, else a running maximum over the kept times).  Variance gamma:
    drop increments whose square would be subnormal.  Returns the kept marks
    left-aligned, padded alike, and their counts."""
    if isinstance(model, CompoundPoisson):
        times *= t1 - t0
        times += t0
        times[times <= t0] = t1
        times.sort(axis=1)
        keep = sizes != 0.0  # false on the padding too
        before = times
        if np.count_nonzero(keep) < counts.sum():
            before = np.maximum.accumulate(np.where(keep, times, -math.inf), axis=1)
        keep[:, 1:] &= times[:, 1:] > before[:, :-1]
    else:
        keep = np.abs(sizes) > 2.0**-511
    kept = np.count_nonzero(keep, axis=1)
    if np.array_equal(kept, counts):
        return times, sizes, counts
    if kept.min() == kept.max() > 0:  # rows of one length need no padding
        return times[keep].reshape(len(kept), -1), sizes[keep].reshape(len(kept), -1), kept
    left = np.arange(max(1, int(kept.max(initial=0)))) < kept[:, None]
    out_t, out_s = np.full(left.shape, math.inf), np.zeros(left.shape)
    out_t[left], out_s[left] = times[keep], sizes[keep]
    return out_t, out_s, kept


def simulate_levy_path(
    model: LevyModel,
    horizon: tuple[float, float],
    seed: int | np.random.SeedSequence,
) -> JumpPath:
    """Simulate the driver L on ``horizon`` as a stream of jump marks: the
    engine's draw at one row.  Deterministic given (model, horizon, seed)."""
    t0, t1 = float(horizon[0]), float(horizon[1])
    _check_window(t0, t1)
    rng, (count, fill) = rng_from(seed), _drawer(model, t0, t1)
    counts = [count(rng)]
    times, sizes, _ = _draws(fill, [rng], counts)
    fill = None  # the drawer (variance gamma grid edges and cell shapes) is freed before the tidy
    times, sizes, [n] = _tidy_marks(model, t0, t1, times, sizes, np.array(counts))
    return JumpPath(t0, t1, times[0, :n], sizes[0, :n])


def squared_jumps(path: JumpPath) -> JumpPath:
    """Subordinator path S driving the volatility: same times, sizes squared."""
    return JumpPath(path.t0, path.t1, path.times.copy(), path.sizes**2)


def s_moments(model: LevyModel) -> tuple[float, float]:
    """(E[S_1], Var[S_1]) of the subordinator S, i.e. the second and fourth
    moments of the Levy measure of L."""
    if isinstance(model, CompoundPoisson):
        return model.rate * model.jumps.moment(2), model.rate * model.jumps.moment(4)
    if isinstance(model, VarianceGamma):
        return model.sigma**2, 3.0 * model.sigma**4 * model.nu
    raise TypeError(f"unsupported Levy model: {model!r}")


def l_moments(model: LevyModel) -> tuple[float, float, float]:
    """(E[L_1^2], E[L_1^4], third Levy moment) of the zero-mean driver.

    For a pure-jump zero-mean Levy process E[L_1^2] = E[S_1] and
    E[L_1^4] = Var[S_1] + 3 E[S_1]^2.  The third Levy moment must vanish
    for the price-process second-order theory; it does for both symmetric
    drivers shipped here.
    """
    m1, m2 = s_moments(model)
    if isinstance(model, CompoundPoisson):
        third = model.rate * model.jumps.moment(3)
    else:
        third = 0.0
    return m1, m2 + 3.0 * m1**2, third


def jump_path_to_csv(path: JumpPath) -> str:
    """CSV export: header ``time,size``, ascending times, 17 significant digits."""
    return columns_to_csv("time,size", path.times, path.sizes)
