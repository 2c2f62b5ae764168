"""Benchmark workloads: which CLI subcommand runs on which generated config,
and the checks its output files must pass.

A workload config is a shipped config from ``configs/`` with a few keys
replaced: the seed (from the workload seed), the scale (so one command
takes a few seconds) and the output directory.  Everything else, including
the comments, is kept, so the generated text still reads like the shipped
file it came from.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from pathlib import Path

#: seed of every shipped config; workload seed n runs the config at SHIPPED_SEED + n
SHIPPED_SEED = 20260810
#: the workload seed whose output digests are recorded in digests.json
DEFAULT_SEED = 0
#: output directory, relative to the working directory of each command run,
#: so that simulate's config.cfg has the same bytes in every run
OUT_DIR = "out"

DIGESTS_FILE = Path(__file__).resolve().parent / "digests.json"


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # cmd_<command> in supcogarch.cli
    config: str  # shipped config, relative to the repository root
    threads: int
    scale: dict[str, str]  # [simulation] keys replaced to fit the run length
    why: str

    def replications(self) -> int:
        """Replications the command runs, derived from the generated config.

        verify: cogarch family (one per atom), cross family (one), sup and
        price families (one per variant each) of ``replications`` bundles,
        plus ``q_paths`` per variant in the q family.  The tail family's
        stationary draws run only when the top atom's tail exponent is at
        most 4, which is not the case at verify_light's small scales.
        qstats: ``q_paths`` per variant.  simulate: one bundle per variant.
        """
        variants = 3
        if self.command == "verify":
            atoms = 2
            return (atoms + 1 + 2 * variants) * int(self.scale["replications"]) + variants * int(
                self.scale["q_paths"]
            )
        if self.command == "qstats":
            return variants * int(self.scale["q_paths"])
        return variants


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "verify_light", "verify", "configs/verify_light.cfg", 1,
            {"replications": "500", "q_paths": "6", "tail_samples": "2500"},
            "thousands of short bundles: levy object churn, superpos assembly, short "
            "cogarch recursions and the price family; export is negligible",
        ),
        Workload(
            "simulate_vg", "simulate", "configs/vg_slow_reversion.cfg", 1,
            {"horizon": "30", "burn_in": "480"},
            "three long VG paths: about two thirds CSV export through scalar PathRecord "
            "queries, the rest the cogarch burn-in recursion",
        ),
        Workload(
            "qstats_showcase", "qstats", "configs/two_atom_showcase.cfg", 2,
            {"q_paths": "200"},
            "medium bundles with an 800-unit burn-in, variant-3 loops, q extraction and "
            "export; the only workload on the run_replications thread pool",
        ),
    )
}


def set_key(text: str, section: str, key: str, value: str) -> str:
    """Replace ``key = ...`` inside ``[section]``, or add it right after the
    section header when the section does not have it."""
    header = re.search(rf"(?m)^\[{re.escape(section)}\]\s*$", text)
    if header is None:
        raise ValueError(f"config has no [{section}] section")
    start = header.end()
    nxt = re.search(r"(?m)^\[", text[start:])
    end = start + nxt.start() if nxt else len(text)
    body = text[start:end]
    line = f"{key} = {value}"
    new_body, n = re.subn(rf"(?m)^{re.escape(key)}\s*=.*$", line, body)
    if n == 0:
        new_body = "\n" + line + body
    return text[:start] + new_body + text[end:]


def generate_config(root: Path, workload: Workload, seed: int, threads: int | None = None) -> str:
    """Config text for ``workload`` at workload seed ``seed``."""
    text = (root / workload.config).read_text()
    keys = dict(workload.scale)
    keys["seed"] = str(SHIPPED_SEED + seed)
    keys["threads"] = str(workload.threads if threads is None else threads)
    for key, value in keys.items():
        text = set_key(text, "simulation", key, value)
    return set_key(text, "output", "out_dir", OUT_DIR)


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def output_digests(out: Path) -> dict[str, str]:
    """sha256 of every file the command wrote, by file name."""
    return {p.name: sha256_bytes(p.read_bytes()) for p in sorted(out.iterdir()) if p.is_file()}


def csv_rows(out: Path) -> int:
    """Lines in all output CSV files."""
    return sum(p.read_bytes().count(b"\n") for p in out.glob("*.csv"))


def recorded_digests(workload: str) -> dict[str, str]:
    return json.loads(DIGESTS_FILE.read_text())[workload]


def digest_mismatches(expected: dict[str, str], actual: dict[str, str]) -> list[str]:
    """Names of files that are missing, extra, or differ in content."""
    names = sorted(set(expected) | set(actual))
    return [n for n in names if expected.get(n) != actual.get(n)]


def _failed_rows(path: Path, ok: tuple[str, ...]) -> list[str]:
    if not path.exists():
        return []
    lines = path.read_text().splitlines()[1:]
    return [line.split(",", 1)[0] for line in lines if line.rsplit(",", 1)[-1] not in ok]


def failed_checks(out: Path) -> list[str]:
    """Rows of verification_checks.csv (path-wise identities and bounds)
    whose verdict is not True.  These must pass at every seed."""
    return _failed_rows(out / "verification_checks.csv", ("True",))


def failed_verdicts(out: Path) -> list[str]:
    """Rows of verification.csv (Monte Carlo against closed form, k standard
    errors) that fail.  At a k = 4 tolerance some seeds fail a row by chance,
    and verify then exits 2; that is the command's verdict, not an error."""
    return _failed_rows(out / "verification.csv", ("True", "undefined"))
