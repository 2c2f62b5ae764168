"""Experiment configuration: a flat key-value text format with one section
per concern, parsed with configparser.  Parse -> serialize -> parse is the
identity; validation failures name the offending field."""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, replace

from .levy import CompoundPoisson, DEFAULT_VG_GRID_STEP, LevyModel, STANDARD_NORMAL, VarianceGamma
from .superpos import Mixture, Variant

__all__ = ["ConfigError", "ExperimentConfig", "parse_config", "serialize_config"]


class ConfigError(ValueError):
    """Invalid configuration; ``field`` names the failing entry."""

    def __init__(self, field_name: str, message: str) -> None:
        super().__init__(f"{field_name}: {message}")
        self.field = field_name


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs; defaults mirror the two-atom compound
    Poisson showcase (beta = eta = 1, atoms 0.5/0.95 weighted 3:1)."""

    # [model]
    model_kind: str = "compound_poisson"
    rate: float = 1.0
    jump_dist: str = "standard_normal"
    sigma: float = 1.0
    nu: float = 1.0
    vg_grid_step: float = DEFAULT_VG_GRID_STEP
    # [cogarch]
    beta: float = 1.0
    eta: float = 1.0
    # [mixture]
    phis: tuple[float, ...] = (0.5, 0.95)
    weights: tuple[float, ...] = (0.75, 0.25)
    # [simulation]
    variants: tuple[str, ...] = ("sup1", "sup2", "sup3")
    horizon: float = 100.0
    replications: int = 4000
    q_paths: int = 100
    tail_samples: int = 20000
    seed: int = 20260810
    burn_in: float | None = None
    sample_grid_step: float = 0.5
    threads: int = 1  # validated and serialized; has no effect
    # [analysis]
    increments: tuple[float, ...] = (1.0,)
    lags: tuple[float, ...] = (1.0, 2.0, 4.0)
    tolerance_k: float = 4.0
    # [output]
    out_dir: str = "out"

    def model(self) -> LevyModel:
        if self.model_kind == "compound_poisson":
            if self.jump_dist != "standard_normal":
                raise ConfigError("model.jumps", f"unknown jump law '{self.jump_dist}'")
            return CompoundPoisson(self.rate, STANDARD_NORMAL)
        if self.model_kind == "variance_gamma":
            return VarianceGamma(self.sigma, self.nu, grid_step=self.vg_grid_step)
        raise ConfigError("model.kind", f"unknown model kind '{self.model_kind}'")

    def mixture(self) -> Mixture:
        try:
            return Mixture.from_atoms(list(zip(self.phis, self.weights)))
        except ValueError as exc:
            raise ConfigError("mixture", str(exc)) from exc

    def variant_list(self) -> list[Variant]:
        out = []
        for name in self.variants:
            try:
                out.append(Variant(name))
            except ValueError as exc:
                raise ConfigError("simulation.variants", f"unknown variant '{name}'") from exc
        return out

    def validate(self) -> "ExperimentConfig":
        """Check every module-level precondition up front; raises
        ConfigError naming the failing field."""
        finite = {
            "model.rate": [self.rate], "model.sigma": [self.sigma], "model.nu": [self.nu],
            "model.grid_step": [self.vg_grid_step], "cogarch.beta": [self.beta],
            "cogarch.eta": [self.eta], "mixture.phis": self.phis, "mixture.weights": self.weights,
            "simulation.horizon": [self.horizon],
            "simulation.burn_in": [] if self.burn_in is None else [self.burn_in],
            "simulation.sample_grid_step": [self.sample_grid_step],
            "analysis.increments": self.increments, "analysis.lags": self.lags,
            "analysis.tolerance_k": [self.tolerance_k],
        }
        for name, values in finite.items():
            if not all(map(math.isfinite, values)):
                raise ConfigError(name, f"must be finite, got {', '.join(map(str, values))}")
        if self.model_kind == "compound_poisson" and not self.rate > 0.0:
            raise ConfigError("model.rate", f"must be > 0, got {self.rate}")
        if self.model_kind == "variance_gamma":
            if not self.sigma > 0.0:
                raise ConfigError("model.sigma", f"must be > 0, got {self.sigma}")
            if not self.nu > 0.0:
                raise ConfigError("model.nu", f"must be > 0, got {self.nu}")
            if not self.vg_grid_step > 0.0:
                raise ConfigError("model.grid_step", f"must be > 0, got {self.vg_grid_step}")
        self.model()
        if not self.beta > 0.0:
            raise ConfigError("cogarch.beta", f"must be > 0, got {self.beta}")
        if not self.eta > 0.0:
            raise ConfigError("cogarch.eta", f"must be > 0, got {self.eta}")
        if len(self.phis) != len(self.weights):
            raise ConfigError("mixture", "phis and weights must have equal length")
        self.mixture()
        self.variant_list()
        if not self.horizon > 0.0:
            raise ConfigError("simulation.horizon", f"must be > 0, got {self.horizon}")
        if self.replications < 100:
            raise ConfigError("simulation.replications", f"need at least 100, got {self.replications}")
        if self.q_paths < 1:
            raise ConfigError("simulation.q_paths", f"need at least 1, got {self.q_paths}")
        if self.tail_samples < 100:
            raise ConfigError("simulation.tail_samples", f"need at least 100, got {self.tail_samples}")
        if self.burn_in is not None and not self.burn_in > 0.0:
            raise ConfigError("simulation.burn_in", f"must be > 0 when set, got {self.burn_in}")
        if not self.sample_grid_step > 0.0:
            raise ConfigError("simulation.sample_grid_step", "must be > 0")
        if self.threads < 1:
            raise ConfigError("simulation.threads", f"must be >= 1, got {self.threads}")
        if not self.increments or any(r <= 0.0 for r in self.increments):
            raise ConfigError("analysis.increments", "need positive increment lengths")
        if any(h < 0.0 for h in self.lags) or not any(h > 0.0 for h in self.lags):
            raise ConfigError("analysis.lags", "need nonnegative lags, at least one positive")
        if not self.tolerance_k > 0.0:
            raise ConfigError("analysis.tolerance_k", f"must be > 0, got {self.tolerance_k}")
        return self

    def with_overrides(
        self,
        seed: int | None = None,
        threads: int | None = None,
        out_dir: str | None = None,
    ) -> "ExperimentConfig":
        cfg = self
        if seed is not None:
            cfg = replace(cfg, seed=seed)
        if threads is not None:
            cfg = replace(cfg, threads=threads)
        if out_dir is not None:
            cfg = replace(cfg, out_dir=out_dir)
        return cfg


def _floats(raw: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in raw.replace(",", " ").split())


def _names(raw: str) -> tuple[str, ...]:
    return tuple(tok.strip() for tok in raw.replace(",", " ").split())


def parse_config(text: str) -> ExperimentConfig:
    """Parse the sectioned key-value format; unknown keys are rejected."""
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError("<file>", f"not parseable: {exc}") from exc

    known = {
        "model": {"kind", "rate", "jumps", "sigma", "nu", "grid_step"},
        "cogarch": {"beta", "eta"},
        "mixture": {"phis", "weights"},
        "simulation": {
            "variants", "horizon", "replications", "q_paths", "tail_samples",
            "seed", "burn_in", "sample_grid_step", "threads",
        },
        "analysis": {"increments", "lags", "tolerance_k"},
        "output": {"out_dir"},
    }
    for section in parser.sections():
        if section not in known:
            raise ConfigError(section, "unknown section")
        for key in parser[section]:
            if key not in known[section]:
                raise ConfigError(f"{section}.{key}", "unknown key")

    defaults = ExperimentConfig()
    get = parser.get

    def opt(section: str, key: str, fallback: str) -> str:
        return get(section, key, fallback=fallback)

    try:
        burn_raw = opt("simulation", "burn_in", "").strip()
        cfg = ExperimentConfig(
            model_kind=opt("model", "kind", defaults.model_kind),
            rate=float(opt("model", "rate", str(defaults.rate))),
            jump_dist=opt("model", "jumps", defaults.jump_dist),
            sigma=float(opt("model", "sigma", str(defaults.sigma))),
            nu=float(opt("model", "nu", str(defaults.nu))),
            vg_grid_step=float(opt("model", "grid_step", repr(defaults.vg_grid_step))),
            beta=float(opt("cogarch", "beta", str(defaults.beta))),
            eta=float(opt("cogarch", "eta", str(defaults.eta))),
            phis=_floats(opt("mixture", "phis", "0.5 0.95")),
            weights=_floats(opt("mixture", "weights", "0.75 0.25")),
            variants=_names(opt("simulation", "variants", "sup1 sup2 sup3")),
            horizon=float(opt("simulation", "horizon", str(defaults.horizon))),
            replications=int(opt("simulation", "replications", str(defaults.replications))),
            q_paths=int(opt("simulation", "q_paths", str(defaults.q_paths))),
            tail_samples=int(opt("simulation", "tail_samples", str(defaults.tail_samples))),
            seed=int(opt("simulation", "seed", str(defaults.seed))),
            burn_in=float(burn_raw) if burn_raw else None,
            sample_grid_step=float(opt("simulation", "sample_grid_step", str(defaults.sample_grid_step))),
            threads=int(opt("simulation", "threads", str(defaults.threads))),
            increments=_floats(opt("analysis", "increments", "1.0")),
            lags=_floats(opt("analysis", "lags", "1.0 2.0 4.0")),
            tolerance_k=float(opt("analysis", "tolerance_k", str(defaults.tolerance_k))),
            out_dir=opt("output", "out_dir", defaults.out_dir),
        )
    except ValueError as exc:
        raise ConfigError("<value>", str(exc)) from exc
    return cfg.validate()


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical text form; floats keep full precision via repr."""
    parser = configparser.ConfigParser()
    f = lambda x: repr(float(x))
    seq = lambda xs: ", ".join(repr(float(x)) for x in xs)
    parser["model"] = {"kind": cfg.model_kind}
    if cfg.model_kind == "compound_poisson":
        parser["model"]["rate"] = f(cfg.rate)
        parser["model"]["jumps"] = cfg.jump_dist
    else:
        parser["model"]["sigma"] = f(cfg.sigma)
        parser["model"]["nu"] = f(cfg.nu)
        parser["model"]["grid_step"] = f(cfg.vg_grid_step)
    parser["cogarch"] = {"beta": f(cfg.beta), "eta": f(cfg.eta)}
    parser["mixture"] = {"phis": seq(cfg.phis), "weights": seq(cfg.weights)}
    parser["simulation"] = {
        "variants": ", ".join(cfg.variants),
        "horizon": f(cfg.horizon),
        "replications": str(cfg.replications),
        "q_paths": str(cfg.q_paths),
        "tail_samples": str(cfg.tail_samples),
        "seed": str(cfg.seed),
        "burn_in": "" if cfg.burn_in is None else f(cfg.burn_in),
        "sample_grid_step": f(cfg.sample_grid_step),
        "threads": str(cfg.threads),
    }
    parser["analysis"] = {
        "increments": seq(cfg.increments),
        "lags": seq(cfg.lags),
        "tolerance_k": f(cfg.tolerance_k),
    }
    parser["output"] = {"out_dir": cfg.out_dir}
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()
