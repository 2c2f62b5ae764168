#!/usr/bin/env python3
"""Check that two trees write the same output bytes, in one command.

    python scripts/byte_matrix.py PARENT_DIR CHANGE_DIR

PARENT_DIR and CHANGE_DIR are two copies of the repository (for example
made with ``git archive``).  The matrix runs, in each tree on that tree's
own ``src``:

- ``analytics``, ``simulate`` and ``qstats`` on the four shipped configs;
- ``verify`` on ``verify_light``, ``verify_heavy`` and ``two_atom_showcase``,
  and on ``vg_slow_reversion`` with ``burn_in = 40``,
  ``replications = 100`` and ``horizon = 20`` (at its shipped scale it
  does not finish in desk time).

Both trees read the same config text, taken from CHANGE_DIR/configs, so
that only the code differs.  Each pair of output directories is compared
by ``compare_outputs.py`` (next to this script), and one line per run
prints both command exit codes, both commands' peak RSS in MiB (each
child's own ``ru_maxrss``, read by ``os.wait4``; Linux reports KiB, and
counts in it this script's resident size at the spawn, which is smaller
than any command's) and the comparison's exit code.  A run
whose two command exit codes or whose stdout (with the output directory
masked) differ counts as status 2.

Exit code: the worst status over all runs (0 when every output file is
byte-identical and every exit code and stdout match).  Runs go, up to
``min(4, cpu count)`` at a time, to a temporary directory, which is removed
when the worst status is 0 and otherwise kept, with its path printed.
Standard library only.
"""

from __future__ import annotations

import argparse
import configparser
import io
import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

SHIPPED = ("two_atom_showcase", "verify_heavy", "verify_light", "vg_slow_reversion")
#: [simulation] keys set for verify on the variance gamma config
VG_VERIFY = {"burn_in": "40", "replications": "100", "horizon": "20"}
COMPARE = Path(__file__).resolve().parent / "compare_outputs.py"


def matrix(configs: Path) -> list[tuple[str, str, str]]:
    """(run name, command, config text) of every run."""
    texts = {name: (configs / f"{name}.cfg").read_text() for name in SHIPPED}
    runs = [(f"{cmd}-{name}", cmd, texts[name]) for cmd in ("analytics", "simulate", "qstats") for name in SHIPPED]
    runs += [(f"verify-{name}", "verify", texts[name]) for name in SHIPPED[:3]]
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(texts["vg_slow_reversion"])
    parser["simulation"].update(VG_VERIFY)
    buf = io.StringIO()
    parser.write(buf)
    runs.append(("verify-vg_slow_reversion", "verify", buf.getvalue()))
    return runs


def run_command(tree: Path, command: str, cfg: Path, out: Path) -> tuple[int, str, float]:
    """One CLI command on ``tree``'s own src: its exit code, its stdout
    with the output directory masked, and its peak RSS in MiB."""
    env = dict(os.environ, PYTHONPATH=str(tree.resolve() / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "supcogarch.cli", command, "--config", str(cfg), "--out", str(out)],
        cwd=cfg.parent, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )
    with proc.stdout:
        stdout = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)  # the child's own rusage, not that of all children
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, stdout.replace(str(out), "<out>"), usage.ru_maxrss / 1024


def check(name: str, command: str, text: str, trees: tuple[Path, Path], work: Path) -> tuple[str, int]:
    """Run one config on both trees and compare; a report line and a status."""
    run_dir = work / name
    run_dir.mkdir(parents=True)
    cfg = run_dir / "run.cfg"
    cfg.write_text(text)
    (code_a, stdout_a, rss_a), (code_b, stdout_b, rss_b) = (
        run_command(tree, command, cfg, run_dir / side) for tree, side in zip(trees, ("parent", "change"))
    )
    proc = subprocess.run(
        [sys.executable, str(COMPARE), str(run_dir / "parent"), str(run_dir / "change")],
        capture_output=True, text=True, check=False,
    )
    notes = [note for note, differs in (("exit codes differ", code_a != code_b), ("stdout differs", stdout_a != stdout_b))
             if differs]
    line = ", ".join([f"{name}: exit {code_a} / {code_b}", f"peak RSS {rss_a:.1f} / {rss_b:.1f} MiB",
                      f"compare_outputs {proc.returncode}", *notes])
    if proc.returncode:
        line += "\n" + proc.stdout.rstrip()
    return line, 2 if notes else proc.returncode


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    for tree in (args.parent, args.change):
        if not (tree / "src" / "supcogarch").is_dir():
            parser.error(f"no src/supcogarch in {tree}")
    work = Path(tempfile.mkdtemp(prefix="byte_matrix_"))
    worst = 0
    with ThreadPoolExecutor(max_workers=min(4, os.cpu_count() or 1)) as pool:
        results = pool.map(lambda run: check(*run, (args.parent, args.change), work), matrix(args.change / "configs"))
        for line, status in results:
            print(line, flush=True)
            worst = max(worst, status)
    if worst:
        print(f"outputs kept in {work}")
    else:
        shutil.rmtree(work, ignore_errors=True)
    print(f"worst status: {worst}")
    return worst


if __name__ == "__main__":
    sys.exit(main())
