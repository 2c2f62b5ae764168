"""Configuration-driven command line: simulate | analytics | verify | qstats.

Exit codes: 0 success, 1 validation error, 2 verification failure,
3 I/O error.  All subcommands honor --seed/--out overrides and are fully
deterministic given the effective configuration.  --threads is validated
and recorded in the effective configuration but has no effect.

Every subcommand simulates on one engine (:mod:`supcogarch.batch`):
``verify`` and ``qstats`` many replications per call, ``qstats`` through
the same q columns as the verify q family (:func:`verify.q_columns`), and
``simulate`` one bundle per variant, the engine at one replication
(:func:`superpos.simulate_bundle`).
"""

from __future__ import annotations

import argparse
import sys
from itertools import combinations
from pathlib import Path

import numpy as np

from . import charexp
from .analysis import histogram, histogram_to_csv, reports_to_csv
from .cogarch import COGARCH_MOMENTS, CogarchParams, NonStationaryError, _try, cross_cov, cross_moment
from .config import ConfigError, ExperimentConfig, parse_config, serialize_config
from .csvio import G17, analytic_cell, columns_to_csv, csv_text
from .levy import Stream, jump_path_to_csv, substream
from .price import PRICE_MOMENTS, simulate_price, price_to_csv
from .superpos import (
    SUP_MOMENTS,
    Variant,
    _require_stationary,
    bundle_to_csv,
    chosen_marks_to_csv,
    simulate_bundle,
    tail_exponent,
)
from .verify import checks_to_csv, price_rows_to_csv, q_columns, run_verification

__all__ = ["main", "cmd_simulate", "cmd_analytics", "cmd_verify", "cmd_qstats"]


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    if args.config is None:
        cfg = ExperimentConfig()
    else:
        cfg = parse_config(Path(args.config).read_text())
    return cfg.with_overrides(seed=args.seed, threads=args.threads, out_dir=args.out).validate()


def _outdir(cfg: ExperimentConfig) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_simulate(cfg: ExperimentConfig) -> int:
    """One seeded path bundle per requested variant, exported as CSV."""
    if (points := cfg.horizon / cfg.sample_grid_step) > 1e7:  # the rows of a bundle CSV
        raise ConfigError("simulation.sample_grid_step", f"{points:.3g} export grid points, more than 1e7")
    out = _outdir(cfg)
    model = cfg.model()
    mix = cfg.mixture()
    for vi, variant in enumerate(cfg.variant_list()):
        bundle = simulate_bundle(
            variant, mix, cfg.beta, cfg.eta, model, (0.0, cfg.horizon),
            substream(cfg.seed, Stream.SIMULATE, vi), cfg.burn_in,
        )
        tag = variant.value
        (out / f"{tag}_bundle.csv").write_text(bundle_to_csv(bundle, cfg.sample_grid_step))
        (out / f"{tag}_price.csv").write_text(price_to_csv(simulate_price(bundle)))
        for i, driver in enumerate(bundle.drivers):
            (out / f"{tag}_driver_{i}.csv").write_text(jump_path_to_csv(driver))
        if variant is Variant.SUP3:
            (out / f"{tag}_chosen_phi.csv").write_text(chosen_marks_to_csv(bundle))
        print(f"wrote {tag} bundle ({len(bundle.aggregate)} events) to {out}")
    (out / "config.cfg").write_text(serialize_config(cfg))
    return 0


def _closed(fn, *args) -> str:
    return analytic_cell(_try(fn, *args))


def _moment_rows(prefix: str, moments: dict, args: tuple, lags) -> list[tuple[str, str]]:
    """The rows of a moment table (``COGARCH_MOMENTS`` or a ``SUP_MOMENTS``
    entry, called with ``args``): each quantity but "acov" in table order,
    then "acov" at each lag."""
    rows = [(f"{prefix}.{name}", _closed(fn, *args)) for name, fn in moments.items() if name != "acov"]
    return rows + [(f"{prefix}.acov[h={h:g}]", _closed(moments["acov"], *args, h)) for h in lags]


def cmd_analytics(cfg: ExperimentConfig) -> int:
    """Closed-form table: exponent values, boundaries, tail exponents,
    stationary moments, autocovariances, and price second-order values."""
    out = _outdir(cfg)
    model = cfg.model()
    mix = cfg.mixture()
    _require_stationary(mix, cfg.eta, model)
    ctx = charexp.ExponentContext(model, cfg.eta)
    rows: list[tuple[str, str]] = []

    rows.append(("phi_max", G17 % charexp.phi_max(ctx)))
    for kappa in (0.5, 1.0, 2.0):
        rows.append((f"phi_max_kappa[{kappa:g}]", G17 % charexp.phi_max_kappa(ctx, kappa)))
    if mix.phi_bar > 0.0:
        rows.append(("kappa_bar", G17 % charexp.kappa_of_phi(ctx, mix.phi_bar)))
        for variant in cfg.variant_list():
            te = tail_exponent(variant, mix, ctx)
            rows.append((f"{variant.value}.tail_limit", te.limit_kind.value))

    for phi, _ in mix.atoms():
        p = f"cogarch[{phi:g}]"
        rows.append((f"{p}.log_moment", G17 % charexp.log_moment(ctx, phi)))
        rows.append((f"{p}.psi1", G17 % charexp.psi(ctx, 1.0, phi)))
        rows.append((f"{p}.psi2", G17 % charexp.psi(ctx, 2.0, phi)))
        rows += _moment_rows(p, COGARCH_MOMENTS, (CogarchParams(cfg.beta, cfg.eta, phi), model), cfg.lags)

    for a, b in combinations(mix.phis, 2):
        rows.append((f"cross[{a:g},{b:g}].moment", _closed(cross_moment, cfg.beta, cfg.eta, a, b, model)))
        rows.append((f"cross[{a:g},{b:g}].cov", _closed(cross_cov, cfg.beta, cfg.eta, a, b, model)))

    for variant in cfg.variant_list():
        tag = variant.value
        rows += _moment_rows(tag, SUP_MOMENTS[variant], (mix, cfg.beta, cfg.eta, model), cfg.lags)
        prices = PRICE_MOMENTS[variant]
        for r in cfg.increments:
            rows.append((f"{tag}.increment_second_moment[r={r:g}]",
                         _closed(prices["increment_second_moment"], mix, cfg.beta, cfg.eta, model, r)))
            if "sq_increment_cov" in prices:
                for h in cfg.lags:
                    if h >= r:
                        rows.append((
                            f"{tag}.sq_increment_cov[r={r:g};h={h:g}]",
                            _closed(prices["sq_increment_cov"], mix, cfg.beta, cfg.eta, model, r, h),
                        ))

    (out / "analytics.csv").write_text(csv_text("quantity,value", "%s,%s", rows))
    print(f"wrote {len(rows)} analytic quantities to {out / 'analytics.csv'}")
    return 0


def cmd_verify(cfg: ExperimentConfig) -> int:
    """Monte Carlo vs analytic battery; exit 0 iff every defined comparison
    and every path-wise check passes."""
    out = _outdir(cfg)
    result = run_verification(cfg)
    (out / "verification.csv").write_text(reports_to_csv(result.reports))
    (out / "verification_checks.csv").write_text(checks_to_csv(result.checks))
    (out / "price_increments.csv").write_text(price_rows_to_csv(result.price_rows))
    for r in result.reports:
        verdict = "PASS" if r.passed else ("SKIP" if r.passed is None else "FAIL")
        print(f"[{verdict}] {r.name}")
    for c in result.checks:
        print(f"[{'PASS' if c.passed else 'FAIL'}] {c.name}")
    n_fail = len(result.failures())
    print(f"verification: {n_fail} failure(s)")
    return 0 if result.passed else 2


def cmd_qstats(cfg: ExperimentConfig) -> int:
    """Jump-ratio samples, jump-type tallies, and log-q histograms."""
    out = _outdir(cfg)
    summary = []
    for vi, variant in enumerate(cfg.variant_list()):
        tag = variant.value
        cols = q_columns(cfg, variant, vi)
        n = cols.q.size
        (out / f"{tag}_q.csv").write_text(columns_to_csv("time,q,chosen_phi", cols.time, cols.q, cols.chosen_phi))
        if n:
            (out / f"{tag}_logq_hist.csv").write_text(histogram_to_csv(histogram(np.log(cols.q), bins=50)))
        t = cols.tally
        summary.append((tag, cfg.q_paths, n, t.common, t.vol_only, t.price_only))
        print(f"{tag}: {n} q samples, {t.vol_only} volatility-only, {t.price_only} price-only jumps")
    (out / "q_summary.csv").write_text(csv_text(
        "variant,n_paths,n_q_samples,common,vol_only,price_only", "%s,%s,%s,%s,%s,%s", summary,
    ))
    return 0


_COMMANDS = {
    "simulate": cmd_simulate,
    "analytics": cmd_analytics,
    "verify": cmd_verify,
    "qstats": cmd_qstats,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="supcogarch",
        description="Simulation and moment verification for superposed COGARCH models",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__)
        p.add_argument("--config", default=None, help="config file (sectioned key=value)")
        p.add_argument("--seed", type=int, default=None, help="root seed override")
        p.add_argument("--threads", type=int, default=None,
                       help="accepted and recorded in the config; has no effect")
        p.add_argument("--out", default=None, help="output directory override")
    args = parser.parse_args(argv)

    try:
        cfg = _load_config(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3

    try:
        return _COMMANDS[args.command](cfg)
    except (ConfigError, NonStationaryError, charexp.NoRootError, charexp.DivergentIntegralError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    except OverflowError as exc:
        print(f"validation error: a closed form overflowed a double: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
