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
# import of the CLI and through commands whose stationarity gates all lie
# in the first-moment region (VG simulate, showcase qstats).
_WITHOUT_SCIPY = """
import dataclasses, sys
import supcogarch.cli as cli
from supcogarch.config import parse_config

print(sorted(m for m in ("scipy", "numpy.random", "numpy.ma") if m in sys.modules))
for command, name, scale in (
    ("simulate", "vg_slow_reversion", {"horizon": 2.0, "burn_in": 16.0}),
    ("qstats", "two_atom_showcase", {"q_paths": 4}),
):
    with open(f"{sys.argv[1]}/{name}.cfg") as fh:
        cfg = parse_config(fh.read()).with_overrides(out_dir=name)
    assert getattr(cli, "cmd_" + command)(dataclasses.replace(cfg, **scale).validate()) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
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
    assert (lines[0], lines[-1]) == ("['numpy.ma', 'numpy.random']", "[]")


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
    sup = re.compile(r"sup[123]\.(mean|variance|second_moment|acov\[h=[^\]]+\])")
    shared = [name for name in verification if sup.fullmatch(name) and name in analytics]
    # per variant: the mean, the variance (second moment for variant 3), two lags
    assert len(shared) == 12
    for name in shared:
        assert verification[name] == analytics[name], name


def test_verify_detects_wrong_target():
    # a deliberately corrupted analytic target must flip the exit code
    from supcogarch.analysis import MomentReport
    from supcogarch.verify import VerificationResult

    good = MomentReport("ok", 1.0, 1.0, 0.01, 200)
    bad = MomentReport("broken", 2.0, 1.0, 0.01, 200)
    assert VerificationResult([good], [], []).passed
    assert not VerificationResult([good, bad], [], []).passed
    assert VerificationResult([good, bad], [], []).failures() == ["broken"]


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


def test_threads_flag_preserves_bytes(cfg_file, tmp_path):
    for command in ("verify", "qstats"):
        out1, out2 = tmp_path / command / "t1", tmp_path / command / "t4"
        assert main([command, "--config", str(cfg_file), "--out", str(out1), "--threads", "1"]) == 0
        assert main([command, "--config", str(cfg_file), "--out", str(out2), "--threads", "4"]) == 0
        names = sorted(p.name for p in out1.iterdir())
        assert names and names == sorted(p.name for p in out2.iterdir())
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), (command, name)
