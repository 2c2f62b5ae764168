"""Record the sha256 of every output file of each workload at the default
seed, as written by the unmodified command line, into digests.json.

    python3 perfbench/record_digests.py

Run from the repository root.  Rerun only when a change to the package is
meant to change output bytes, and say why in that change.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

from workloads import DEFAULT_SEED, DIGESTS_FILE, OUT_DIR, WORKLOADS, generate_config, output_digests

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    work = ROOT / ".bench_work" / f"digests-{os.getpid()}"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    digests = {}
    try:
        for name, wl in WORKLOADS.items():
            d = work / name
            d.mkdir(parents=True)
            (d / "workload.cfg").write_text(generate_config(ROOT, wl, DEFAULT_SEED))
            subprocess.run([sys.executable, "-m", "supcogarch.cli", wl.command, "--config", "workload.cfg"],
                           cwd=d, env=env, stdout=subprocess.DEVNULL, check=True)
            digests[name] = output_digests(d / OUT_DIR)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    DIGESTS_FILE.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
