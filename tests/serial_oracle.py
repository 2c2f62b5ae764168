"""Frozen serial oracle: the one-bundle-at-a-time simulators as they were
before ``superpos.simulate_bundle`` became the batched engine at one
replication.

The functions below are kept verbatim, together with the scalar COGARCH
loops they ran on, so that the engine is compared with an independent
implementation and not with itself.  They draw from the same streams
(driver i from ``substream(seed, i)``, the variant-3 pi-draws from
``substream(seed, 1)``), so every number must agree bit for bit.

The serial jump-ratio diagnostics (``extract_q``, ``jump_tally`` and
``check_q_bounds``) are kept verbatim too, as they were before they and
``analysis.extract_q_batch`` came to share one set of formulas; they return
the ``analysis`` result types, so their results compare under ``==``.

``draw_marks`` is the per-row draw as it was before ``levy`` split it into
generator calls and one tidying pass over a chunk of rows (sort, filter).
``raw_marks`` is one row's generator calls of ``levy._drawer`` into arrays
of its own, as a single path drew them before it shared the engine's padded
fill, ``levy._draws``.

The start rules (the stationarity check, the default burn-in and the
component and aggregate starts) are frozen copies too, written from the
``charexp`` exponents, so that how a row starts is checked as well.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from supcogarch import analysis, charexp
from supcogarch.analysis import JumpTally, QBoundsReport, QSample, QViolation
from supcogarch.cogarch import CogarchParams, NonStationaryError, PathRecord
from supcogarch.levy import (
    CompoundPoisson, JumpPath, LevyModel, VarianceGamma, _drawer, rng_from, simulate_levy_path, squared_jumps,
    substream,
)
from supcogarch.price import PricePath
from supcogarch.superpos import Mixture, SupPathBundle, Variant

# ---------------------------------------------------------------------------
# the start rules


def _require_stationary(mixture: Mixture, eta: float, model: LevyModel) -> None:
    ctx = charexp.ExponentContext(model, eta)
    for phi in mixture.phis:
        if not charexp.is_stationary(ctx, phi):
            raise NonStationaryError(
                f"atom phi={phi} violates the stationarity condition "
                f"(log-moment {charexp.log_moment(ctx, phi):.6g} >= eta={eta})"
            )


def default_burn_in(params: CogarchParams, model: LevyModel) -> float:
    """40 forgetting times, at the rate |psi(1, phi)| of the mean where the
    mean exists and at the Lyapunov rate eta - log_moment(phi) beyond."""
    ctx = charexp.ExponentContext(model, params.eta)
    psi1 = charexp.psi(ctx, 1.0, params.phi)
    return 40.0 / (-psi1 if psi1 < 0.0 else params.eta - charexp.log_moment(ctx, params.phi))


def _bundle_burn_in(mixture: Mixture, beta: float, eta: float, model: LevyModel) -> float:
    return max(default_burn_in(CogarchParams(beta, eta, phi), model) for phi in mixture.phis)


def stationary_start(params: CogarchParams, model: LevyModel) -> float:
    """The stationary mean -beta / psi(1, phi), or beta/eta where it diverges."""
    psi1 = charexp.psi(charexp.ExponentContext(model, params.eta), 1.0, params.phi)
    return -params.beta / psi1 if psi1 < 0.0 else params.level


def aggregate_start(mixture: Mixture, beta: float, eta: float, model: LevyModel) -> float:
    """Variant 3's: the stationary mean sum_i p_i E[V^phi_i] of the
    aggregate, or beta/eta where the mean of any atom diverges."""
    ctx = charexp.ExponentContext(model, eta)
    psi1 = [charexp.psi(ctx, 1.0, phi) for phi in mixture.phis]
    if any(p >= 0.0 for p in psi1):
        return beta / eta
    return sum(w * (-beta / p) for w, p in zip(mixture.weights, psi1))


# ---------------------------------------------------------------------------
# the per-row driver draw


def draw_marks(
    model: LevyModel, t0: float, t1: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """The driver's marks on (t0, t1] drawn from ``rng``, one row at a time."""
    length = t1 - t0
    if isinstance(model, CompoundPoisson):
        n = int(rng.poisson(model.rate * length))
        times = np.sort(rng.uniform(t0, t1, size=n))
        sizes = np.asarray(model.jumps.sample(rng, n), dtype=float)
        keep = sizes != 0.0
        if times.size and (not keep.all() or (times[1:] <= times[:-1]).any()):
            # zero sizes / tied uniforms have probability 0; drop ties defensively
            times, sizes = times[keep], sizes[keep]
            keep2 = np.concatenate(([True], np.diff(times) > 0.0))
            times, sizes = times[keep2], sizes[keep2]
        return times, sizes

    if isinstance(model, VarianceGamma):
        step = model.grid_step
        n_steps = int(math.ceil(length / step - 1e-12))
        edges = t0 + step * np.arange(1, n_steps + 1)
        edges[-1] = t1
        widths = np.diff(np.concatenate(([t0], edges)))
        shape = widths / model.nu
        scale = model.sigma * math.sqrt(model.nu / 2.0)
        up = rng.gamma(shape, scale)
        down = rng.gamma(shape, scale)
        sizes = up - down
        # tiny-shape gamma differences underflow; drop increments whose
        # squared size would be subnormal (they carry no information)
        keep = np.abs(sizes) > 2.0**-511
        return edges[keep], sizes[keep]

    raise TypeError(f"unsupported Levy model: {model!r}")


def raw_marks(model: LevyModel, t0: float, t1: float, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """One draw of :func:`_drawer`: the raw marks on (t0, t1], compound Poisson times as uniforms."""
    count, fill = _drawer(model, t0, t1)
    times, sizes = np.empty(n := count(rng)), np.empty(n)
    fill(rng, times, sizes)
    return times, sizes


# ---------------------------------------------------------------------------
# the scalar COGARCH loops


def _evolve_marks(
    eta: float, level: float, phi: float, v: float, t: float, times: list[float], sizes: list[float]
) -> float:
    """Exact steps from state v at time t through the subordinator marks
    (times, sizes); returns the state right after the last mark."""
    exp = math.exp
    for T, ds in zip(times, sizes):
        v = (level + (v - level) * exp(-eta * (T - t))) * (1.0 + phi * ds)
        t = T
    return v


def evolve_value(
    params: CogarchParams, s_path: JumpPath, v: float, t_start: float, t_end: float
) -> float:
    """Exact evolution through the marks of ``s_path`` from ``t_start``,
    relaxed up to ``t_end``; returns V(t_end).  The same arithmetic as
    :func:`simulate_cogarch`, without recording the per-event values."""
    level, eta = params.level, params.eta
    times = s_path.times.tolist()
    v = _evolve_marks(eta, level, params.phi, v, t_start, times, s_path.sizes.tolist())
    t = times[-1] if times else t_start
    return level + (v - level) * math.exp(-eta * (t_end - t))


def simulate_cogarch(params: CogarchParams, s_path: JumpPath, v0: float) -> PathRecord:
    """Exact path of the COGARCH driven by the subordinator path ``s_path``.

    Deterministic exponential relaxation toward beta/eta between marks and
    the multiplicative update V -> V * (1 + phi * dS) at each mark.
    """
    if not v0 > 0.0:
        raise ValueError(f"v0 must be > 0, got {v0}")
    level, eta, phi = params.level, params.eta, params.phi
    exp = math.exp
    left: list[float] = []
    post: list[float] = []
    v, t = v0, s_path.t0
    for T, ds in zip(s_path.times.tolist(), s_path.sizes.tolist()):
        v = level + (v - level) * exp(-eta * (T - t))
        left.append(v)
        v = v * (1.0 + phi * ds)
        post.append(v)
        t = T
    return PathRecord(
        s_path.t0, s_path.t1, v0, params.beta, params.eta,
        s_path.times.copy(), np.array(left), np.array(post),
    )


# ---------------------------------------------------------------------------
# the three variants


def simulate_sup1(
    mixture: Mixture,
    beta: float,
    eta: float,
    model: LevyModel,
    horizon: tuple[float, float],
    seed: int | np.random.SeedSequence,
    burn_in: float | None = None,
) -> SupPathBundle:
    """Variant 1: one independent driver per atom (stream key = atom index).

    Each component is a COGARCH on its own subordinator with a burned-in
    stationary start; the aggregate is the p-weighted sum and inherits the
    between-jump relaxation at rate eta.
    """
    _require_stationary(mixture, eta, model)
    t0, t1 = float(horizon[0]), float(horizon[1])
    b = _bundle_burn_in(mixture, beta, eta, model) if burn_in is None else burn_in

    components: list[PathRecord] = []
    drivers: list[JumpPath] = []
    for i, (phi, _) in enumerate(mixture.atoms()):
        params = CogarchParams(beta, eta, phi)
        l_full = simulate_levy_path(model, (t0 - b, t1), substream(seed, i))
        s_full = squared_jumps(l_full)
        s_burn = s_full.restrict(t0 - b, t0)
        v0 = evolve_value(params, s_burn, stationary_start(params, model), t0 - b, t0)
        record = simulate_cogarch(params, s_full.restrict(t0, t1), v0)
        components.append(record)
        drivers.append(l_full.restrict(t0, t1))

    weights = np.array(mixture.weights)
    all_times = np.unique(np.concatenate([c.times for c in components]))
    agg_left = np.zeros_like(all_times)
    agg_post = np.zeros_like(all_times)
    v0_agg = 0.0
    for w, c in zip(weights.tolist(), components):
        agg_left += w * c.left_limits(all_times)
        agg_post += w * c.values(all_times)
        v0_agg += w * c.v0
    aggregate = PathRecord(
        t0=t0, t1=t1, v0=v0_agg, beta=beta, eta=eta,
        times=all_times, left=agg_left, post=agg_post,
    )
    return SupPathBundle(
        Variant.SUP1, mixture, beta, eta, aggregate, tuple(components), tuple(drivers)
    )


def _split_driver(
    model: LevyModel,
    t0: float,
    t1: float,
    b: float,
    seed: int | np.random.SeedSequence,
) -> tuple[JumpPath, JumpPath, JumpPath]:
    """One shared driver over burn-in plus live window (stream key 0)."""
    l_full = simulate_levy_path(model, (t0 - b, t1), substream(seed, 0))
    s_full = squared_jumps(l_full)
    return l_full.restrict(t0, t1), s_full.restrict(t0 - b, t0), s_full.restrict(t0, t1)


def simulate_sup2(
    mixture: Mixture,
    beta: float,
    eta: float,
    model: LevyModel,
    horizon: tuple[float, float],
    seed: int | np.random.SeedSequence,
    burn_in: float | None = None,
) -> SupPathBundle:
    """Variant 2: all components on one shared driver; the whole family and
    the aggregate co-jump at every mark."""
    _require_stationary(mixture, eta, model)
    t0, t1 = float(horizon[0]), float(horizon[1])
    b = _bundle_burn_in(mixture, beta, eta, model) if burn_in is None else burn_in
    l_live, s_burn, s_live = _split_driver(model, t0, t1, b, seed)
    components = []
    for phi, _ in mixture.atoms():
        params = CogarchParams(beta, eta, phi)
        v0 = evolve_value(params, s_burn, stationary_start(params, model), t0 - b, t0)
        components.append(simulate_cogarch(params, s_live, v0))
    weights = np.array(mixture.weights)
    agg_left = np.zeros(len(s_live))
    agg_post = np.zeros(len(s_live))
    v0_agg = 0.0
    for w, c in zip(weights.tolist(), components):
        agg_left += w * c.left
        agg_post += w * c.post
        v0_agg += w * c.v0
    aggregate = PathRecord(
        t0=t0, t1=t1, v0=v0_agg, beta=beta, eta=eta,
        times=s_live.times.copy(), left=agg_left, post=agg_post,
    )
    return SupPathBundle(
        Variant.SUP2, mixture, beta, eta, aggregate, tuple(components), (l_live,)
    )


def _sup3_marks(
    eta: float, level: float, phis: Sequence[float], vbar: float, comps: list[float], t: float,
    times: list[float], sizes: list[float], picks: list[int], trail: list | None = None,
) -> tuple[float, list[float], float]:
    """Exact variant-3 steps over shared marks for the aggregate and the
    component family together: relax every state toward ``level``, give the
    aggregate the scaled jump phi_j V^j_{T-} dS_T of the drawn atom
    j = ``picks[k]``, and multiply each component by (1 + phi dS_T).  With
    ``trail`` given, appends [aggregate left, aggregate post, component
    lefts..., component posts...] per mark.  Returns the aggregate, the
    components and the time after the last mark."""
    exp = math.exp
    for T, ds, j in zip(times, sizes, picks):
        decay = exp(-eta * (T - t))
        lefts = [level + (v - level) * decay for v in comps]
        vbar_left = level + (vbar - level) * decay
        vbar = vbar_left + phis[j] * lefts[j] * ds
        comps = [vl * (1.0 + phi * ds) for vl, phi in zip(lefts, phis)]
        if trail is not None:
            trail.append([vbar_left, vbar, *lefts, *comps])
        t = T
    return vbar, comps, t


def simulate_sup3(
    mixture: Mixture,
    beta: float,
    eta: float,
    model: LevyModel,
    horizon: tuple[float, float],
    seed: int | np.random.SeedSequence,
    burn_in: float | None = None,
) -> SupPathBundle:
    """Variant 3: shared driver; at each mark an independent pi-draw phi_T
    picks which component's scaled jump the aggregate takes:

        dVbar_T = phi_T * V^{phi_T}_{T-} * dS_T.

    Stream keys: 0 for the driver, 1 for the pi-draws.  The pi-draws cover
    burn-in and live marks so the aggregate burn-in is joint with the
    component family.
    """
    _require_stationary(mixture, eta, model)
    t0, t1 = float(horizon[0]), float(horizon[1])
    b = _bundle_burn_in(mixture, beta, eta, model) if burn_in is None else burn_in
    l_live, s_burn, s_live = _split_driver(model, t0, t1, b, seed)

    rng = rng_from(substream(seed, 1))
    n_marks = len(s_burn) + len(s_live)
    idx = rng.choice(len(mixture), size=n_marks, p=np.array(mixture.weights))
    idx_burn, idx_live = idx[: len(s_burn)], idx[len(s_burn):]

    # joint burn-in of the component family and the aggregate from their
    # stationary means, then one relaxation of every state to t0
    level, phis, m = beta / eta, mixture.phis, len(mixture)
    vbar, comps, t = _sup3_marks(
        eta, level, phis, aggregate_start(mixture, beta, eta, model),
        [stationary_start(CogarchParams(beta, eta, phi), model) for phi in phis],
        t0 - b, s_burn.times.tolist(), s_burn.sizes.tolist(), idx_burn.tolist(),
    )
    end_decay = math.exp(-eta * (t0 - t))
    vbar0 = level + (vbar - level) * end_decay
    comps0 = [level + (v - level) * end_decay for v in comps]
    trail: list[list[float]] = []
    _sup3_marks(
        eta, level, phis, vbar0, comps0, t0,
        s_live.times.tolist(), s_live.sizes.tolist(), idx_live.tolist(), trail,
    )
    cols = np.array(trail, dtype=float).reshape(len(trail), 2 + 2 * m).T.copy()
    times = s_live.times
    components = [
        PathRecord(t0, t1, comps0[i], beta, eta, times, cols[2 + i], cols[2 + m + i])
        for i in range(m)
    ]
    aggregate = PathRecord(t0, t1, vbar0, beta, eta, times, cols[0], cols[1])
    return SupPathBundle(
        Variant.SUP3, mixture, beta, eta, aggregate, tuple(components), (l_live,),
        np.asarray(mixture.phis)[idx_live],
    )


_SIMULATORS = {
    Variant.SUP1: simulate_sup1,
    Variant.SUP2: simulate_sup2,
    Variant.SUP3: simulate_sup3,
}


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
    return _SIMULATORS[variant](mixture, beta, eta, model, horizon, seed, burn_in)


# ---------------------------------------------------------------------------
# the serial jump-ratio diagnostics


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


def _q_bounds(mixture: Mixture) -> tuple[float, float, float, float]:
    """phi_bar, phi_low and the roundoff slack of the bounds at each."""
    phi_bar, phi_low = mixture.phi_bar, min(mixture.phis)
    rtol = analysis._Q_BOUND_RTOL  # read at call time, so tests can patch the slack
    return phi_bar, phi_low, rtol * max(1.0, phi_bar), rtol * max(1.0, phi_low)


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
