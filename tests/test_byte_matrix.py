"""scripts/byte_matrix.py: its list of runs, one run on two trees that
write the same bytes and on two that do not, and each command's peak RSS."""

import importlib.util
import re
import shutil
import subprocess
import sys
from pathlib import Path

from supcogarch.config import parse_config

REPO = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("byte_matrix", REPO / "scripts" / "byte_matrix.py")
byte_matrix = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(byte_matrix)


def test_matrix_runs_every_command_on_the_shipped_configs():
    runs = {name: (command, text) for name, command, text in byte_matrix.matrix(REPO / "configs")}
    shipped = ["two_atom_showcase", "verify_heavy", "verify_light", "vg_slow_reversion"]
    assert sorted(runs) == sorted(f"{command}-{name}" for command in ("analytics", "simulate", "qstats", "verify")
                                  for name in shipped)
    assert all(runs[name][0] == name.partition("-")[0] for name in runs)
    vg = parse_config(runs["verify-vg_slow_reversion"][1])
    assert (vg.model_kind, vg.burn_in, vg.replications, vg.horizon) == ("variance_gamma", 40.0, 100, 20.0)
    assert parse_config(runs["simulate-vg_slow_reversion"][1]).burn_in is None


def test_check_compares_bytes_of_two_trees(tmp_path):
    text = (REPO / "configs" / "verify_light.cfg").read_text()
    line, status = byte_matrix.check("same", "analytics", text, (REPO, REPO), tmp_path / "work")
    assert status == 0 and re.fullmatch(r"same: exit 0 / 0, peak RSS [\d.]+ / [\d.]+ MiB, compare_outputs 0", line)

    # a tree that writes 16 significant digits: every number moves by at
    # most 1e-16 relative, so the outputs differ within --rtol (status 1)
    other = tmp_path / "tree"
    shutil.copytree(REPO / "src", other / "src", ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    csvio = other / "src" / "supcogarch" / "csvio.py"
    csvio.write_text(csvio.read_text().replace('G17 = "%.17g"', 'G17 = "%.16g"'))
    line, status = byte_matrix.check("other", "analytics", text, (REPO, other), tmp_path / "work")
    assert status == 1 and re.match(r"other: exit 0 / 0, peak RSS .* MiB, compare_outputs 1\ndiffers: analytics.csv", line)


def test_run_command_reads_the_child_s_own_peak_rss(tmp_path):
    """The peak RSS is the command's own (``os.wait4``), not the largest of
    all children: in a small process that has already waited for a child of
    200 MiB, ``analytics`` reads the size of a Python process with numpy.
    A child's ``ru_maxrss`` also counts the resident size of the process
    that spawned it, so the check runs in a small process of its own, as
    the matrix does, and not in the test runner."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text((REPO / "configs" / "verify_light.cfg").read_text())
    probe = f"""
import importlib.util, subprocess, sys
from pathlib import Path
subprocess.run([sys.executable, "-c", "b'x' * (200 << 20)"], check=True)  # an earlier child of 200 MiB
spec = importlib.util.spec_from_file_location("byte_matrix", {str(REPO / "scripts" / "byte_matrix.py")!r})
byte_matrix = importlib.util.module_from_spec(spec)
spec.loader.exec_module(byte_matrix)
print(*byte_matrix.run_command(Path({str(REPO)!r}), "analytics", Path({str(cfg)!r}), Path({str(tmp_path / "out")!r})))
"""
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True).stdout
    code, stdout, rss = out[:1], out[2:].rsplit(" ", 1)[0], float(out.rsplit(" ", 1)[1])
    assert code == "0" and "<out>" in stdout
    assert 10.0 < rss < 150.0
