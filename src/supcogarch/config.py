"""Experiment configuration: a flat key-value text format with one section
per concern, parsed with configparser.  Parse -> serialize -> parse is the
identity; validation failures name the offending field.  Each key is
declared once, on its :class:`ExperimentConfig` field (:func:`_key`)."""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, field, fields, replace
from typing import Callable

from .levy import CompoundPoisson, DEFAULT_VG_GRID_STEP, LevyModel, STANDARD_NORMAL, VarianceGamma
from .superpos import Mixture, Variant

__all__ = ["ConfigError", "ExperimentConfig", "parse_config", "serialize_config"]


class ConfigError(ValueError):
    """Invalid configuration; ``field`` names the failing entry."""

    def __init__(self, field_name: str, message: str) -> None:
        super().__init__(f"{field_name}: {message}")
        self.field = field_name


def _floats(raw: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in raw.replace(",", " ").split())


def _names(raw: str) -> tuple[str, ...]:
    return tuple(tok.strip() for tok in raw.replace(",", " ").split())


def _float_or_none(raw: str) -> float | None:
    """An empty value means unset (``burn_in =`` picks the automatic burn-in)."""
    return float(raw) if raw.strip() else None


def _key(section: str, default, parse=float, rule=None, kind=None, key=None):
    """Declare a field's config key: ``section.key`` in the file (``key``
    defaults to the field name), read by ``parse``; ``rule`` = (test,
    requirement) bounds its value, and a [model] key with a ``kind`` is
    checked and written for that model kind alone."""
    return field(default=default, metadata={"config": (section, key, parse, rule, kind)})


_POSITIVE = (lambda v: v > 0.0, "must be > 0")


def _at_least(n: int) -> tuple[Callable[[int], bool], str]:
    return (lambda v: v >= n, f"must be >= {n}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs; defaults mirror the two-atom compound
    Poisson showcase (beta = eta = 1, atoms 0.5/0.95 weighted 3:1)."""

    model_kind: str = _key("model", "compound_poisson", str, key="kind")
    rate: float = _key("model", 1.0, rule=_POSITIVE, kind="compound_poisson")
    jump_dist: str = _key("model", "standard_normal", str, kind="compound_poisson", key="jumps")
    sigma: float = _key("model", 1.0, rule=_POSITIVE, kind="variance_gamma")
    nu: float = _key("model", 1.0, rule=_POSITIVE, kind="variance_gamma")
    vg_grid_step: float = _key(
        "model", DEFAULT_VG_GRID_STEP, rule=_POSITIVE, kind="variance_gamma", key="grid_step"
    )
    beta: float = _key("cogarch", 1.0, rule=_POSITIVE)
    eta: float = _key("cogarch", 1.0, rule=_POSITIVE)
    phis: tuple[float, ...] = _key("mixture", (0.5, 0.95), _floats)
    weights: tuple[float, ...] = _key("mixture", (0.75, 0.25), _floats)
    variants: tuple[str, ...] = _key("simulation", ("sup1", "sup2", "sup3"), _names)
    horizon: float = _key("simulation", 100.0, rule=_POSITIVE)
    replications: int = _key("simulation", 4000, int, _at_least(100))
    q_paths: int = _key("simulation", 100, int, _at_least(1))
    tail_samples: int = _key("simulation", 20000, int, _at_least(100))
    seed: int = _key("simulation", 20260810, int)
    burn_in: float | None = _key("simulation", None, _float_or_none, (lambda v: v is None or v > 0.0, "must be > 0"))
    sample_grid_step: float = _key("simulation", 0.5, rule=_POSITIVE)
    threads: int = _key("simulation", 1, int, _at_least(1))  # validated and serialized; has no effect
    increments: tuple[float, ...] = _key(
        "analysis", (1.0,), _floats, (lambda rs: rs and min(rs) > 0.0, "need positive increment lengths")
    )
    lags: tuple[float, ...] = _key(
        "analysis", (1.0, 2.0, 4.0), _floats,
        (lambda hs: all(h >= 0.0 for h in hs) and any(h > 0.0 for h in hs),
         "need nonnegative lags, at least one positive"),
    )
    tolerance_k: float = _key("analysis", 4.0, rule=_POSITIVE)
    out_dir: str = _key("output", "out", str)

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
        """Check every module-level precondition up front: each key's
        finiteness and range rule in file order, then the checks across
        keys; raises ConfigError naming the failing field."""
        for section, key, name, parse, rule, kind in _KEYS:
            value = getattr(self, name)
            if parse in (float, _float_or_none, _floats):
                values = value if parse is _floats else [] if value is None else [value]
                if not all(map(math.isfinite, values)):
                    raise ConfigError(f"{section}.{key}", f"must be finite, got {', '.join(map(str, values))}")
            if rule and kind in (None, self.model_kind) and not rule[0](value):
                raise ConfigError(f"{section}.{key}", f"{rule[1]}, got {value}")
        self.model()
        if len(self.phis) != len(self.weights):
            raise ConfigError("mixture", "phis and weights must have equal length")
        self.mixture()
        if len(set(self.variant_list())) < len(self.variants):
            raise ConfigError("simulation.variants", f"duplicate variant in {', '.join(self.variants)}")
        return self

    def with_overrides(
        self,
        seed: int | None = None,
        threads: int | None = None,
        out_dir: str | None = None,
    ) -> "ExperimentConfig":
        given = {"seed": seed, "threads": threads, "out_dir": out_dir}
        return replace(self, **{name: value for name, value in given.items() if value is not None})


# Every config key in file order, (section, key, field, parser, rule, kind),
# from the field declarations: parse_config reads the registry and the
# conversions from it, serialize_config the layout, validate() the rules.
_KEYS = tuple(
    (section, key or f.name, f.name, parse, rule, kind)
    for f in fields(ExperimentConfig)
    for section, key, parse, rule, kind in [f.metadata["config"]]
)


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

    keys = {(section, key) for section, key, *_ in _KEYS}
    for section in parser.sections():
        if section not in {s for s, _ in keys}:
            raise ConfigError(section, "unknown section")
        for key in parser[section]:
            if (section, key) not in keys:
                raise ConfigError(f"{section}.{key}", "unknown key")

    values = {}
    for section, key, name, parse, *_ in _KEYS:
        raw = parser.get(section, key, fallback=None)
        if raw is not None:
            try:
                values[name] = parse(raw)
            except ValueError as exc:
                raise ConfigError(f"{section}.{key}", str(exc)) from exc
    return ExperimentConfig(**values).validate()


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical text form; floats keep full precision via repr.  A [model]
    key of another model kind is left out."""
    sections: dict[str, dict[str, str]] = {}
    for section, key, name, parse, _, kind in _KEYS:
        if kind in (None, cfg.model_kind):
            sections.setdefault(section, {})[key] = _text(parse, getattr(cfg, name))
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_dict(sections)
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()
