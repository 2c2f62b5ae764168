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

    model_kind: str = "compound_poisson"
    rate: float = 1.0
    jump_dist: str = "standard_normal"
    sigma: float = 1.0
    nu: float = 1.0
    vg_grid_step: float = DEFAULT_VG_GRID_STEP
    beta: float = 1.0
    eta: float = 1.0
    phis: tuple[float, ...] = (0.5, 0.95)
    weights: tuple[float, ...] = (0.75, 0.25)
    variants: tuple[str, ...] = ("sup1", "sup2", "sup3")
    horizon: float = 100.0
    replications: int = 4000
    q_paths: int = 100
    tail_samples: int = 20000
    seed: int = 20260810
    burn_in: float | None = None
    sample_grid_step: float = 0.5
    threads: int = 1  # validated and serialized; has no effect
    increments: tuple[float, ...] = (1.0,)
    lags: tuple[float, ...] = (1.0, 2.0, 4.0)
    tolerance_k: float = 4.0
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
        for section, key, name, parse in _KEYS:
            if parse in (float, _float_or_none, _floats):
                value = getattr(self, name)
                values = value if parse is _floats else [] if value is None else [value]
                if not all(map(math.isfinite, values)):
                    raise ConfigError(f"{section}.{key}", f"must be finite, got {', '.join(map(str, values))}")
        for section, key, name, parse in _KEYS:
            if section == "model" and parse is float and key in _MODEL_KEYS.get(self.model_kind, ()):
                if not getattr(self, name) > 0.0:
                    raise ConfigError(f"model.{key}", f"must be > 0, got {getattr(self, name)}")
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
        given = {"seed": seed, "threads": threads, "out_dir": out_dir}
        return replace(self, **{name: value for name, value in given.items() if value is not None})


def _floats(raw: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in raw.replace(",", " ").split())


def _names(raw: str) -> tuple[str, ...]:
    return tuple(tok.strip() for tok in raw.replace(",", " ").split())


def _float_or_none(raw: str) -> float | None:
    """An empty value means unset (``burn_in =`` picks the automatic burn-in)."""
    return float(raw) if raw.strip() else None


# The one list of config keys, in file order: (section, key, field, parser).
# parse_config reads the registry and the conversions from it,
# serialize_config the layout, validate() the fields to check for finiteness.
_KEYS = (
    ("model", "kind", "model_kind", str),
    ("model", "rate", "rate", float),
    ("model", "jumps", "jump_dist", str),
    ("model", "sigma", "sigma", float),
    ("model", "nu", "nu", float),
    ("model", "grid_step", "vg_grid_step", float),
    ("cogarch", "beta", "beta", float),
    ("cogarch", "eta", "eta", float),
    ("mixture", "phis", "phis", _floats),
    ("mixture", "weights", "weights", _floats),
    ("simulation", "variants", "variants", _names),
    ("simulation", "horizon", "horizon", float),
    ("simulation", "replications", "replications", int),
    ("simulation", "q_paths", "q_paths", int),
    ("simulation", "tail_samples", "tail_samples", int),
    ("simulation", "seed", "seed", int),
    ("simulation", "burn_in", "burn_in", _float_or_none),
    ("simulation", "sample_grid_step", "sample_grid_step", float),
    ("simulation", "threads", "threads", int),
    ("analysis", "increments", "increments", _floats),
    ("analysis", "lags", "lags", _floats),
    ("analysis", "tolerance_k", "tolerance_k", float),
    ("output", "out_dir", "out_dir", str),
)

# The [model] keys that only one model kind reads: validate() requires its
# float keys > 0, serialize_config writes them for that kind alone.
_MODEL_KEYS = {
    "compound_poisson": ("rate", "jumps"),
    "variance_gamma": ("sigma", "nu", "grid_step"),
}


def _text(parse, value) -> str:
    if parse is _floats:
        return ", ".join(repr(float(x)) for x in value)
    if parse in (float, _float_or_none):
        return "" if value is None else repr(float(value))
    return ", ".join(value) if parse is _names else str(value)


def parse_config(text: str) -> ExperimentConfig:
    """Parse the sectioned key-value format; unknown keys are rejected and a
    value that does not convert names its key.  ``%`` is literal text."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError("<file>", f"not parseable: {exc}") from exc

    keys = {(section, key) for section, key, _, _ in _KEYS}
    for section in parser.sections():
        if section not in {s for s, _ in keys}:
            raise ConfigError(section, "unknown section")
        for key in parser[section]:
            if (section, key) not in keys:
                raise ConfigError(f"{section}.{key}", "unknown key")

    values = {}
    for section, key, name, parse in _KEYS:
        raw = parser.get(section, key, fallback=None)
        if raw is not None:
            try:
                values[name] = parse(raw)
            except ValueError as exc:
                raise ConfigError(f"{section}.{key}", str(exc)) from exc
    return ExperimentConfig(**values).validate()


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical text form; floats keep full precision via repr."""
    other = {key for kind, keys in _MODEL_KEYS.items() if kind != cfg.model_kind for key in keys}
    sections: dict[str, dict[str, str]] = {}
    for section, key, name, parse in _KEYS:
        if not (section == "model" and key in other):
            sections.setdefault(section, {})[key] = _text(parse, getattr(cfg, name))
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_dict(sections)
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()
