"""Golden digests of the closed-form table.

``analytics.csv`` is a pure function of the config, and no Monte Carlo
enters it, so its bytes pin every closed form the table prints: exponents,
boundaries, COGARCH, cross and superposition moments and the price
second-order values.  A refactor of those formulas must keep these digests.
"""

import hashlib
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
