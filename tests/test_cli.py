import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from supcogarch.cli import main
from supcogarch.config import ConfigError, ExperimentConfig, parse_config, serialize_config

REPO = Path(__file__).resolve().parents[1]

LIGHT_CFG = """
[model]
kind = compound_poisson
rate = 1.0
jumps = standard_normal

[cogarch]
beta = 1.0
eta = 1.0

[mixture]
phis = 0.12, 0.06
weights = 0.6, 0.4

[simulation]
variants = sup1, sup2, sup3
horizon = 20.0
replications = 150
q_paths = 5
tail_samples = 400
seed = 77
sample_grid_step = 1.0

[analysis]
increments = 1.0
lags = 1.0, 2.0
tolerance_k = 6.0

[output]
out_dir = out
"""


@pytest.fixture()
def cfg_file(tmp_path: Path) -> Path:
    path = tmp_path / "exp.cfg"
    path.write_text(LIGHT_CFG)
    return path


SHIPPED_CONFIGS = ["two_atom_showcase", "verify_heavy", "verify_light", "vg_slow_reversion"]


def test_config_roundtrip_identity():
    texts = [LIGHT_CFG] + [(REPO / "configs" / f"{name}.cfg").read_text() for name in SHIPPED_CONFIGS]
    for text in texts:
        cfg = parse_config(text)
        assert parse_config(serialize_config(cfg)) == cfg
    # defaults round-trip too
    default = ExperimentConfig()
    assert parse_config(serialize_config(default)) == default


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        parse_config("[model]\nkind = compound_poisson\nbogus = 1\n")
    with pytest.raises(ConfigError):
        parse_config("[nonsense]\nx = 1\n")


def test_config_validation_names_field():
    with pytest.raises(ConfigError) as exc:
        parse_config("[cogarch]\nbeta = -1.0\n")
    assert exc.value.field == "cogarch.beta"
    with pytest.raises(ConfigError) as exc:
        parse_config("[mixture]\nphis = 0.5, 0.2\nweights = 0.5, 0.2\n")
    assert "mixture" in exc.value.field
    with pytest.raises(ConfigError) as exc:
        parse_config("[simulation]\nreplications = 10\n")
    assert exc.value.field == "simulation.replications"


def test_config_rejects_duplicate_variants(tmp_path, capsys):
    """A variant named twice would run twice, its second bundle overwriting
    the first's CSVs and its q rows doubled: it is refused up front."""
    with pytest.raises(ConfigError) as exc:
        parse_config("[simulation]\nvariants = sup1, sup2, sup1\n")
    assert exc.value.field == "simulation.variants"
    path = tmp_path / "dup.cfg"
    path.write_text(LIGHT_CFG.replace("variants = sup1, sup2, sup3", "variants = sup1, sup1"))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert "simulation.variants" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_simulate_refuses_an_absurd_export_grid(tmp_path, capsys):
    """A grid step of 1e-9 over a horizon of 100 would ask numpy for a
    745 GiB grid: simulate fails fast naming the key and writes nothing.
    qstats and analytics do not read the key and still run."""
    path = tmp_path / "grid.cfg"
    path.write_text(LIGHT_CFG.replace("sample_grid_step = 1.0", "sample_grid_step = 1e-9")
                    .replace("horizon = 20.0", "horizon = 100.0"))
    assert parse_config(path.read_text()).sample_grid_step == 1e-9
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert "simulation.sample_grid_step" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    assert main(["qstats", "--config", str(path), "--out", str(tmp_path / "q")]) == 0
    assert main(["analytics", "--config", str(path), "--out", str(tmp_path / "q")]) == 0
    assert (tmp_path / "q" / "sup3_q.csv").exists() and (tmp_path / "q" / "analytics.csv").exists()


# every range rule of a single key, with one value outside it; the keys of
# the variance gamma driver are checked under that kind only
VG = "kind = variance_gamma\n"
RANGE_RULES = [
    ("model", "rate", "0.0", ""),
    ("model", "sigma", "0.0", VG),
    ("model", "nu", "-1.0", VG),
    ("model", "grid_step", "0.0", VG),
    ("cogarch", "beta", "0.0", ""),
    ("cogarch", "eta", "-1.0", ""),
    ("simulation", "horizon", "0.0", ""),
    ("simulation", "replications", "99", ""),
    ("simulation", "q_paths", "0", ""),
    ("simulation", "tail_samples", "99", ""),
    ("simulation", "burn_in", "0.0", ""),
    ("simulation", "sample_grid_step", "-0.5", ""),
    ("simulation", "threads", "0", ""),
    ("analysis", "increments", "1.0, 0.0", ""),
    ("analysis", "lags", "-1.0, 2.0", ""),
    ("analysis", "tolerance_k", "0.0", ""),
]


@pytest.mark.parametrize("section,key,value,prefix", RANGE_RULES)
def test_config_range_rule_names_its_key(section, key, value, prefix):
    with pytest.raises(ConfigError) as exc:
        parse_config(f"[{section}]\n{prefix}{key} = {value}\n")
    assert exc.value.field == f"{section}.{key}"


@pytest.mark.parametrize(
    "section,key,value",
    [
        ("simulation", "replications", "100"),
        ("simulation", "q_paths", "1"),
        ("simulation", "tail_samples", "100"),
        ("simulation", "threads", "1"),
        ("analysis", "lags", "0, 1"),
    ],
)
def test_config_range_boundary_parses(section, key, value):
    cfg = parse_config(f"[{section}]\n{key} = {value}\n")
    assert serialize_config(cfg) == serialize_config(parse_config(serialize_config(cfg)))


@pytest.mark.parametrize(
    "kind,key,absent",
    [
        ("variance_gamma", "rate = -1", ("rate", "jumps")),
        ("compound_poisson", "sigma = -1", ("sigma", "nu", "grid_step")),
    ],
)
def test_config_model_key_of_other_kind_is_neither_checked_nor_written(kind, key, absent):
    cfg = parse_config(f"[model]\nkind = {kind}\n{key}\n")
    written = [line.partition(" =")[0] for line in serialize_config(cfg).splitlines()]
    assert not set(absent) & set(written)


SERIALIZED_SHA256 = {
    "default": "c30ca55e14f3bc70a31e6a7759fa74f21c86762fbfe353ab1849e76302ccc003",
    "two_atom_showcase": "f04c3b5c323233855d2cffa9d28b9c8c9947f82f7ae7ecd584c045b4f212b888",
    "verify_heavy": "7c16515b88c1c2600b7ea003d0597d1782de6e473729d28613cbc9bbf3633cf8",
    "verify_light": "91ead00daef0020b4043d7e34c2367c7ee1e1e874e6c0ef949022452c025009e",
    "vg_slow_reversion": "fa98497e2577faafcc16fc96e9181fc53bc333f33408cd7ee03394b93188a809",
}


@pytest.mark.parametrize("name", sorted(SERIALIZED_SHA256))
def test_serialize_config_bytes(name):
    if name == "default":
        cfg = ExperimentConfig()
    else:
        cfg = parse_config((REPO / "configs" / f"{name}.cfg").read_text())
    digest = hashlib.sha256(serialize_config(cfg).encode()).hexdigest()
    assert digest == SERIALIZED_SHA256[name]


NON_FINITE_FIELDS = [
    ("model", "rate", "model.rate"),
    ("model", "sigma", "model.sigma"),
    ("model", "nu", "model.nu"),
    ("model", "grid_step", "model.grid_step"),
    ("cogarch", "beta", "cogarch.beta"),
    ("cogarch", "eta", "cogarch.eta"),
    ("mixture", "phis", "mixture.phis"),
    ("mixture", "weights", "mixture.weights"),
    ("simulation", "horizon", "simulation.horizon"),
    ("simulation", "burn_in", "simulation.burn_in"),
    ("simulation", "sample_grid_step", "simulation.sample_grid_step"),
    ("analysis", "increments", "analysis.increments"),
    ("analysis", "lags", "analysis.lags"),
    ("analysis", "tolerance_k", "analysis.tolerance_k"),
]


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("section,key,field", NON_FINITE_FIELDS)
def test_config_rejects_non_finite_values(section, key, field, value):
    text = f"[{section}]\n{key} = {value}\n"
    if section == "mixture":
        text += "weights = 1.0\n" if key == "phis" else "phis = 0.5\n"
    if key in ("increments", "lags"):
        text = f"[{section}]\n{key} = 1.0, {value}\n"
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert exc.value.field == field


NUMERIC_KEYS = [
    ("model", "rate"),
    ("model", "sigma"),
    ("model", "nu"),
    ("model", "grid_step"),
    ("cogarch", "beta"),
    ("cogarch", "eta"),
    ("mixture", "phis"),
    ("mixture", "weights"),
    ("simulation", "horizon"),
    ("simulation", "replications"),
    ("simulation", "q_paths"),
    ("simulation", "tail_samples"),
    ("simulation", "seed"),
    ("simulation", "burn_in"),
    ("simulation", "sample_grid_step"),
    ("simulation", "threads"),
    ("analysis", "increments"),
    ("analysis", "lags"),
    ("analysis", "tolerance_k"),
]
INTEGER_KEYS = ["replications", "q_paths", "tail_samples", "seed", "threads"]


@pytest.mark.parametrize(
    "section,key,token",
    [(section, key, "abc") for section, key in NUMERIC_KEYS]
    + [("simulation", key, "1.5") for key in INTEGER_KEYS],
)
def test_config_unparseable_value_names_its_key(section, key, token):
    with pytest.raises(ConfigError) as exc:
        parse_config(f"[{section}]\n{key} = {token}\n")
    assert exc.value.field == f"{section}.{key}"
    assert repr(token) in str(exc.value)


def test_config_percent_is_literal():
    assert parse_config("[output]\nout_dir = out/%d\n").out_dir == "out/%d"


def test_simulate_out_dir_with_percent(cfg_file, tmp_path):
    out = tmp_path / "p%x"
    assert main(["simulate", "--config", str(cfg_file), "--out", str(out)]) == 0
    assert parse_config((out / "config.cfg").read_text()).out_dir == str(out)


@pytest.mark.parametrize("command", ["simulate", "analytics", "verify", "qstats"])
def test_cli_non_stationary_atom_is_validation_error(tmp_path, capsys, command):
    bad = tmp_path / "phi.cfg"
    bad.write_text(LIGHT_CFG.replace("phis = 0.12, 0.06", "phis = 0.5, 3.5"))
    assert main([command, "--config", str(bad), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "validation error: atom phi=3.5 violates the stationarity condition" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("key,value,message", [
    # the VG stationarity boundary lies past the bracket cap
    ("nu", "1e6", "failed to bracket the stationarity boundary"),
    # phi_max is 5.3e6, and psi overflows before it turns positive at phi_bar
    ("sigma", "1e-4", "the integral against nu_S is not finite"),
])
def test_cli_analytics_out_of_reach_is_validation_error(tmp_path, capsys, key, value, message):
    """A boundary or tail exponent out of reach: exit 1 with the message,
    no traceback."""
    bad = tmp_path / "vg.cfg"
    bad.write_text((REPO / "configs" / "vg_slow_reversion.cfg").read_text().replace(f"{key} = 1.0", f"{key} = {value}"))
    assert main(["analytics", "--config", str(bad), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert f"validation error: {message}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["simulate", "analytics"])
def test_cli_non_finite_horizon_is_config_error(tmp_path, capsys, command):
    bad = tmp_path / "inf.cfg"
    bad.write_text("[simulation]\nhorizon = inf\n")
    assert main([command, "--config", str(bad), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "simulation.horizon" in err and "Traceback" not in err


@pytest.mark.parametrize("lags", ["0.0", "0.0, 0.0"])
@pytest.mark.parametrize("command", ["analytics", "verify"])
def test_cli_lags_without_positive_entry_is_config_error(tmp_path, capsys, command, lags):
    bad = tmp_path / "lags.cfg"
    bad.write_text(f"[analysis]\nlags = {lags}\n")
    assert main([command, "--config", str(bad), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "analysis.lags" in err and "Traceback" not in err


def test_config_allows_lag_zero_next_to_positive_lags():
    assert parse_config("[analysis]\nlags = 0.0, 1.0\n").lags == (0.0, 1.0)


def test_config_burn_in_empty_means_auto():
    cfg = parse_config("[simulation]\nburn_in =\n")
    assert cfg.burn_in is None
    cfg = parse_config("[simulation]\nburn_in = 25.0\n")
    assert cfg.burn_in == 25.0


def test_cli_bad_config_exit_code(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[cogarch]\neta = 0.0\n")
    assert main(["analytics", "--config", str(bad)]) == 1


def test_cli_missing_config_is_io_error(tmp_path):
    assert main(["analytics", "--config", str(tmp_path / "absent.cfg")]) == 3


def test_simulate_outputs_and_determinism(cfg_file, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", str(cfg_file), "--out", str(out1)]) == 0
    assert main(["simulate", "--config", str(cfg_file), "--out", str(out2)]) == 0
    names = sorted(p.name for p in out1.iterdir())
    assert "sup1_bundle.csv" in names and "sup3_chosen_phi.csv" in names
    assert "sup1_price.csv" in names and "sup1_driver_1.csv" in names
    for name in names:
        if name == "config.cfg":  # echoes the effective out dir
            continue
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    header = (out1 / "sup2_bundle.csv").read_text().splitlines()[0]
    assert header == "time,aggregate,component_0.06,component_0.12"


def test_compare_outputs_ignores_out_dir(cfg_file, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", str(cfg_file), "--out", str(out1)]) == 0
    assert main(["simulate", "--config", str(cfg_file), "--out", str(out2)]) == 0

    def compare() -> int:
        cmd = [sys.executable, str(REPO / "scripts" / "compare_outputs.py"), str(out1), str(out2)]
        return subprocess.run(cmd, capture_output=True, timeout=120).returncode

    assert compare() == 0
    cfg2 = out2 / "config.cfg"
    cfg2.write_text(cfg2.read_text().replace("seed = 77", "seed = 78"))
    assert compare() == 2


# Runs in a fresh interpreter: scipy must stay unimported through the
# import of the CLI and through every command, the variance gamma
# integrals of analytics and verify included, and so must numpy.ma (which
# np.unique and np.isin load).  The scaled verify fails Monte Carlo checks
# (exit 2); only its imports matter here.
_WITHOUT_SCIPY = """
import dataclasses, sys
import supcogarch.cli as cli
from supcogarch.config import parse_config

print(sorted(m for m in ("scipy", "numpy.random", "numpy.ma") if m in sys.modules))
small_verify = {"horizon": 2.0, "burn_in": 2.0, "replications": 100, "q_paths": 1,
                "tail_samples": 100, "lags": (1.0,), "increments": (1.0,)}
for command, name, scale, codes in (
    ("simulate", "vg_slow_reversion", {"horizon": 2.0, "burn_in": 16.0}, {0}),
    ("qstats", "two_atom_showcase", {"q_paths": 4}, {0}),
    ("analytics", "vg_slow_reversion", {}, {0}),
    ("verify", "vg_slow_reversion", small_verify, {0, 2}),
):
    with open(f"{sys.argv[1]}/{name}.cfg") as fh:
        cfg = parse_config(fh.read()).with_overrides(out_dir=name)
    assert getattr(cli, "cmd_" + command)(dataclasses.replace(cfg, **scale).validate()) in codes
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy" or m.split(".")[:2] == ["numpy", "ma"]))
"""


def test_commands_run_without_scipy(tmp_path):
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", _WITHOUT_SCIPY, str(REPO / "configs")],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert (lines[0], lines[-1]) == ("['numpy.random']", "[]")


_PUBLIC_NAMES = """
import importlib, pkgutil, supcogarch
for info in pkgutil.iter_modules(supcogarch.__path__):
    module = importlib.import_module("supcogarch." + info.name)
    names = getattr(module, "__all__", None)
    print(info.name, None if names is None else [n for n in names if not hasattr(module, n)])
"""


def test_every_public_name_resolves():
    """``import supcogarch`` succeeds in a fresh interpreter, every module
    declares ``__all__``, and every name listed there exists."""
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", _PUBLIC_NAMES], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    missing = dict(line.split(" ", 1) for line in run.stdout.splitlines())
    assert {"batch", "cli", "cogarch", "verify"} <= missing.keys()
    assert all(v == "[]" for v in missing.values()), missing


def test_simulate_seed_override_changes_output(cfg_file, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["simulate", "--config", str(cfg_file), "--out", str(out1)])
    main(["simulate", "--config", str(cfg_file), "--out", str(out2), "--seed", "123"])
    assert (out1 / "sup2_bundle.csv").read_text() != (out2 / "sup2_bundle.csv").read_text()


def test_analytics_table(cfg_file, tmp_path):
    out = tmp_path / "an"
    assert main(["analytics", "--config", str(cfg_file), "--out", str(out)]) == 0
    table = dict(
        line.split(",", 1) for line in (out / "analytics.csv").read_text().splitlines()[1:]
    )
    assert float(table["phi_max"]) > 1.0
    assert float(table["kappa_bar"]) > 3.0
    assert float(table["sup1.mean"]) == pytest.approx(
        0.6 / (1 - 0.12) + 0.4 / (1 - 0.06), rel=1e-12
    )
    assert "sup2.sq_increment_cov[r=1;h=1]" in table
    assert float(table["sup2.sq_increment_cov[r=1;h=1]"]) > 0.0


def test_analytics_diverges_markers(tmp_path):
    # showcase mixture: the 0.95 atom has no second moment, sup variances diverge
    cfg = tmp_path / "fig.cfg"
    cfg.write_text(
        "[mixture]\nphis = 0.5, 0.95\nweights = 0.75, 0.25\n"
        "[simulation]\nreplications = 150\n"
    )
    out = tmp_path / "an"
    assert main(["analytics", "--config", str(cfg), "--out", str(out)]) == 0
    table = dict(
        line.split(",", 1) for line in (out / "analytics.csv").read_text().splitlines()[1:]
    )
    assert float(table["sup1.mean"]) == pytest.approx(6.5)
    assert table["sup1.variance"] == "diverges"
    assert table["cogarch[0.95].variance"] == "diverges"
    assert float(table["cogarch[0.95].mean"]) == pytest.approx(20.0)


def test_verify_light_config_passes(cfg_file, tmp_path):
    out = tmp_path / "v"
    assert main(["verify", "--config", str(cfg_file), "--out", str(out)]) == 0
    text = (out / "verification.csv").read_text()
    assert text.startswith("name,analytic,estimate,std_error,n,k,pass")
    assert (out / "verification_checks.csv").exists()
    price = (out / "price_increments.csv").read_text()
    assert price.startswith("r,h,stat,analytic,mc,se,pass")


def test_verify_and_analytics_print_the_same_sup_targets(cfg_file, tmp_path):
    out = tmp_path / "o"
    assert main(["analytics", "--config", str(cfg_file), "--out", str(out)]) == 0
    assert main(["verify", "--config", str(cfg_file), "--out", str(out)]) == 0
    analytics = dict(
        line.rsplit(",", 1) for line in (out / "analytics.csv").read_text().splitlines()[1:]
    )
    verification = dict(
        line.rsplit(",", 6)[:2] for line in (out / "verification.csv").read_text().splitlines()[1:]
    )
    moment = re.compile(r"(sup[123]|cogarch\[[^\]]+\])\.(mean|variance|second_moment|acov\[h=[^\]]+\])")
    shared = [name for name in verification if moment.fullmatch(name) and name in analytics]
    # per variant: the mean, the variance (second moment for variant 3), two
    # lags; per atom: the mean, the variance, two lags
    assert len([name for name in shared if name.startswith("sup")]) == 12
    assert len([name for name in shared if name.startswith("cogarch")]) == 8
    for name in shared:
        assert verification[name] == analytics[name], name


#: each verify statistic by the order in V of its summand: at most linear
#: (a level of V, a price increment, its square, a product of two
#: increments, and the exact rows) or quadratic
LINEAR_STATS = {
    "mean", "increment_mean", "increment_second_moment", "increment_cov", "variance_forms_agree",
    "cov_nonnegative", "sq_increment_cov_positive", "q_bound_violations", "kappa_bar",
}
QUADRATIC_STATS = {"variance", "second_moment", "acov", "cov", "sq_increment_cov", "sq_increment_cov_consistency"}


@pytest.mark.parametrize("phis", [(0.12, 0.06), (0.12, 1.5)], ids=["light", "diverging_atom"])
def test_verify_band_follows_the_summand_order(phis):
    """Every report of the battery allows tolerance_k standard errors when
    its summand is at most linear in V and tolerance_k + 1 when it is
    quadratic, skipped rows included (at phi = 1.5 the atom's mean, the
    cross covariance and the sup3 consistency rows diverge)."""
    from dataclasses import replace

    from supcogarch.verify import run_verification

    cfg = replace(parse_config(LIGHT_CFG), phis=phis, replications=100, q_paths=3, tail_samples=100)
    result = run_verification(cfg)
    seen = set()
    for report in result.reports:
        stat = re.fullmatch(r"(?:cogarch\[[^\]]*\]|cross\[[^\]]*\]|sup[123]|tail)\.([a-z_]+)(?:\[h=[^\]]*\])?", report.name)[1]
        assert (stat in LINEAR_STATS) != (stat in QUADRATIC_STATS), report.name
        want = cfg.tolerance_k if stat in LINEAR_STATS else cfg.tolerance_k + 1.0
        assert report.k == want, report.name
        seen.add((stat, report.passed is None and report.n == 0))
    stats = {stat for stat, _ in seen}
    if phis == (0.12, 0.06):
        assert stats == LINEAR_STATS | QUADRATIC_STATS
    else:
        assert {("mean", True), ("cov", True), ("sq_increment_cov_consistency", True)} <= seen
    assert all(report in result.reports for _, _, report in result.price_rows)


def test_verify_detects_wrong_target():
    # a deliberately corrupted analytic target must flip the exit code
    from supcogarch.analysis import MomentReport
    from supcogarch.verify import VerificationResult

    good = MomentReport("ok", 1.0, 1.0, 0.01, 200)
    bad = MomentReport("broken", 2.0, 1.0, 0.01, 200)
    assert VerificationResult([good], [], []).passed
    assert not VerificationResult([good, bad], [], []).passed
    assert VerificationResult([good, bad], [], []).failures() == ["broken"]


def test_verify_q_family_without_samples_is_undefined():
    """With a phi = 0 lowest atom, variant 1's price runs on the driver
    that never moves the volatility, so its q family has no samples: the
    row reports n = 0 and no verdict instead of passing on nothing."""
    from dataclasses import replace

    from supcogarch import verify
    from supcogarch.analysis import reports_to_csv

    light = parse_config((REPO / "configs" / "verify_light.cfg").read_text())
    cfg = replace(light, phis=(0.0, 0.3, 0.7), weights=(0.2, 0.5, 0.3), horizon=40.0)
    reports, checks = [], []
    verify._q_family(cfg, reports, checks)
    by_name = {r.name: r for r in reports}
    sup1, sup2 = by_name["sup1.q_bound_violations"], by_name["sup2.q_bound_violations"]
    assert (sup1.n, sup1.passed) == (0, None)
    assert sup2.n > 0 and sup2.passed is True
    assert reports_to_csv([sup1]).splitlines()[1].endswith(",0,4,undefined")
    assert verify.VerificationResult([sup1], [], []).failures() == []


def test_verify_zero_atom_mixture(tmp_path):
    """A phi = 0 atom (variant 3's price-only jumps) has a variance of 0 in
    both closed forms and a constant component, whose covariance with the
    other atom has estimate and standard error 0: the two rows comparing
    them pass instead of dividing by zero or failing a strict inequality.
    The exit code is 0 or 2, as Monte Carlo rows may fail by chance."""
    cfg = tmp_path / "zero.cfg"
    cfg.write_text(
        (REPO / "configs" / "verify_light.cfg").read_text()
        .replace("phis = 0.12, 0.06", "phis = 0.0, 0.12").replace("weights = 0.6, 0.4", "weights = 0.4, 0.6")
        .replace("replications = 4000", "replications = 500").replace("q_paths = 50", "q_paths = 3")
        .replace("tail_samples = 20000", "tail_samples = 100")
    )
    out = tmp_path / "v"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) in (0, 2)
    verdicts = dict(line.rsplit(",", 6)[::6] for line in (out / "verification.csv").read_text().splitlines()[1:])
    assert verdicts["cogarch[0].variance_forms_agree"] == "True"
    assert verdicts["cross[0,0.12].cov_nonnegative"] == "True"


def test_verify_exit_code_on_injected_failure(cfg_file, tmp_path, monkeypatch):
    import supcogarch.cli as cli
    from supcogarch.analysis import MomentReport
    from supcogarch.verify import VerificationResult

    def fake_battery(cfg):
        return VerificationResult([MomentReport("broken", 2.0, 1.0, 0.01, 200)], [], [])

    monkeypatch.setattr(cli, "run_verification", fake_battery)
    assert main(["verify", "--config", str(cfg_file), "--out", str(tmp_path / "v")]) == 2


def test_verify_tolerance_multiplier_honored(cfg_file, tmp_path):
    # a huge k accepts everything; a vanishing k rejects the MC noise
    relaxed = tmp_path / "relaxed.cfg"
    relaxed.write_text(LIGHT_CFG.replace("tolerance_k = 6.0", "tolerance_k = 1e9"))
    strict = tmp_path / "strict.cfg"
    strict.write_text(LIGHT_CFG.replace("tolerance_k = 6.0", "tolerance_k = 1e-9"))
    assert main(["verify", "--config", str(relaxed), "--out", str(tmp_path / "r")]) == 0
    assert main(["verify", "--config", str(strict), "--out", str(tmp_path / "s")]) == 2


def test_qstats_outputs(cfg_file, tmp_path):
    out = tmp_path / "q"
    assert main(["qstats", "--config", str(cfg_file), "--out", str(out)]) == 0
    summary = (out / "q_summary.csv").read_text().splitlines()
    assert summary[0] == "variant,n_paths,n_q_samples,common,vol_only,price_only"
    rows = {line.split(",")[0]: line.split(",") for line in summary[1:]}
    assert int(rows["sup1"][4]) > 0  # volatility-only jumps present
    assert int(rows["sup2"][4]) == 0
    assert (out / "sup3_logq_hist.csv").exists()
    assert (out / "sup1_q.csv").read_text().startswith("time,q,chosen_phi")


def test_qstats_one_atom_mixture(tmp_path):
    """Every q of a one-atom mixture is its phi up to rounding, so log q
    spans a few doubles and one histogram bin holds all of a variant's
    samples."""
    cfg = tmp_path / "one.cfg"
    cfg.write_text(
        (REPO / "configs" / "verify_light.cfg").read_text()
        .replace("phis = 0.12, 0.06", "phis = 0.3").replace("weights = 0.6, 0.4", "weights = 1.0")
        .replace("q_paths = 50", "q_paths = 5")
    )
    out = tmp_path / "q"
    assert main(["qstats", "--config", str(cfg), "--out", str(out)]) == 0
    summary = [line.split(",") for line in (out / "q_summary.csv").read_text().splitlines()[1:]]
    assert [row[0] for row in summary] == ["sup1", "sup2", "sup3"]
    for tag, _, n, *_ in summary:
        hist = (out / f"{tag}_logq_hist.csv").read_text().splitlines()[1:]
        assert int(n) > 0 and sum(int(row.split(",")[2]) for row in hist) == int(n)


def test_threads_flag_preserves_bytes(cfg_file, tmp_path):
    for command in ("verify", "qstats"):
        out1, out2 = tmp_path / command / "t1", tmp_path / command / "t4"
        assert main([command, "--config", str(cfg_file), "--out", str(out1), "--threads", "1"]) == 0
        assert main([command, "--config", str(cfg_file), "--out", str(out2), "--threads", "4"]) == 0
        names = sorted(p.name for p in out1.iterdir())
        assert names and names == sorted(p.name for p in out2.iterdir())
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), (command, name)
