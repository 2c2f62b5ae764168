"""Golden digests of the closed-form table and of the jump-ratio outputs.

``analytics.csv`` is a pure function of the config, and no Monte Carlo
enters it, so its bytes pin every closed form the table prints: exponents,
boundaries, COGARCH, cross and superposition moments and the price
second-order values.  A refactor of those formulas must keep these digests.

Every file ``qstats`` writes is pinned too, on the showcase config at a
small scale and on a mixture with a phi = 0 atom and a window short enough
that some paths have no live marks.  These bytes pin the simulation, the q
extraction, the jump tallies and the export together.
"""

import hashlib
import re
from pathlib import Path

import pytest

from supcogarch.cli import main

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

ANALYTICS_SHA256 = {
    "two_atom_showcase": "1f93da96b70fde7fa11f0c5ba858dc5c3f537482c0f7ebe3ce9303213b071eed",
    "verify_heavy": "d8be522264de3836be8fce3b7725371b73098920559af0db78a91bb3aa5de574",
    "verify_light": "352be4c85fc88b5e49a243ff16efbf0ef641d85423d91a2bb3ceb24c39ed5042",
    "vg_slow_reversion": "1859bc7864c03f36accff6cbf80e17c2666f94e1274f935e40bd518aa669f1c9",
}


@pytest.mark.parametrize("name", sorted(ANALYTICS_SHA256))
def test_analytics_bytes(name, tmp_path):
    out = tmp_path / name
    assert main(["analytics", "--config", str(CONFIGS / f"{name}.cfg"), "--out", str(out)]) == 0
    digest = hashlib.sha256((out / "analytics.csv").read_bytes()).hexdigest()
    assert digest == ANALYTICS_SHA256[name]


SHOWCASE_Q = re.sub(r"(?m)^q_paths = .*$", "q_paths = 20", (CONFIGS / "two_atom_showcase.cfg").read_text())

ZERO_ATOM_Q = """
[model]
kind = compound_poisson
rate = 1.0
jumps = standard_normal

[cogarch]
beta = 1.0
eta = 1.0

[mixture]
phis = 0.0, 0.3, 0.7
weights = 0.2, 0.5, 0.3

[simulation]
variants = sup1, sup2, sup3
horizon = 3.0
q_paths = 40
seed = 20260903
"""

QSTATS_CONFIGS = {"two_atom_showcase": SHOWCASE_Q, "zero_atom": ZERO_ATOM_Q}

QSTATS_SHA256 = {
    "two_atom_showcase": {
        "q_summary.csv": "38e9d82fe9767b61f656dad587ac821ff418d651ef4e6061442e3fe4942dce08",
        "sup1_logq_hist.csv": "f36ff11c94540374b152b791b65a4933e970fe17fa13272b34fdac0cb4eefd68",
        "sup1_q.csv": "4e3d8d539b3c975848cdadef79d6cae53887e02cca2288a6260b4597ba56c8bc",
        "sup2_logq_hist.csv": "2de074afb70e837025755a600ff79c2051a6f593231550e49a3889218c0fbfbb",
        "sup2_q.csv": "02c94e64a2c30d0647f09c9f52c71421326da632508a5ae4ec75b08319e1e8b5",
        "sup3_logq_hist.csv": "ca0b741bf579e4fd65307e1a8e1cd9811598bf50980503c6b8937603fd55aa6d",
        "sup3_q.csv": "4e803780b447ab627dd85d145646cd1dffdc682f3ae6cda28ecfa0233590eee9",
    },
    # variant 1 drives the price with the phi = 0 atom: no q samples, so no
    # sup1 histogram; variant 3 has price-only jumps
    "zero_atom": {
        "q_summary.csv": "a89ca36a1e007ff33c6ca24dc81130ad679cf5bd78bf58a51bcef1d3952f7ec5",
        "sup1_q.csv": "77ba9a20109ac07f2023732b5192d3fc9dafc4b4f374f15a47830b3f6be8927f",
        "sup2_logq_hist.csv": "41cf6af2af2cb0f4624a0cd5285d785060e2c950a1eadcf2dab27301892b85a2",
        "sup2_q.csv": "9c83228d103aeb235457bedb8f9e26860a78db2844f53b160d2c7b9646c606af",
        "sup3_logq_hist.csv": "a28e67b14b7aac12841cd06b092652c45959fd1e7c6752b63e2535dfdd73d90e",
        "sup3_q.csv": "8926f006e71528601d1d32f0da0b5cea758d5c29fceccd3a2f9377db12c63234",
    },
}


@pytest.mark.parametrize("name", sorted(QSTATS_CONFIGS))
def test_qstats_bytes(name, tmp_path):
    cfg, out = tmp_path / "q.cfg", tmp_path / "out"
    cfg.write_text(QSTATS_CONFIGS[name])
    assert main(["qstats", "--config", str(cfg), "--out", str(out)]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}
    assert digests == QSTATS_SHA256[name]
