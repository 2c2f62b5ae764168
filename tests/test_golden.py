"""Golden digests of the closed-form table and of the jump-ratio outputs.

``analytics.csv`` is a pure function of the config, and no Monte Carlo
enters it, so its bytes pin every closed form the table prints: exponents,
boundaries, COGARCH, cross and superposition moments and the price
second-order values, on the shipped configs and on a three-atom mixture.  A refactor of those formulas must keep these digests.

Every file ``qstats`` writes is pinned too, on the showcase config at a
small scale and on a mixture with a phi = 0 atom and a window short enough
that some paths have no live marks.  These bytes pin the simulation, the q
extraction, the jump tallies and the export together.

Every file ``verify`` writes is pinned on ``verify_light`` at a small
scale, and on the same run with a second atom at phi = 1.5, which is
stationary but has no mean: its rows that diverge before sampling are
written as skipped rows, at k and at k + 1 (a family whose mean diverges
is one skipped mean row), and its price increment covariances and sup3
squared-increment consistency rows diverge.  These bytes pin each row's target, estimate,
standard error, n and k, and the order of the rows.

So is every file ``simulate`` writes (``config.cfg`` included: the runs
write to a relative ``--out``), on the showcase config and on the variance
gamma config over a short window.  Its 100-unit burn-in draws more marks
than one engine chunk holds, so each bundle burns in on the scalar kernels.

Last, each benchmark workload of ``perfbench/workloads.py`` at its default
seed must write the bytes recorded in ``perfbench/digests.json``, run as
``perfbench/record_digests.py`` runs it.
"""

import hashlib
import re
import sys
from pathlib import Path

import pytest

from supcogarch.cli import main

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402  (perfbench/workloads.py)

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

# every shipped config has two atoms; three pin the order of the sums over
# atom pairs beyond that
THREE_ATOM = ZERO_ATOM_Q.replace("phis = 0.0, 0.3, 0.7", "phis = 0.1, 0.3, 0.5")

ANALYTICS_CONFIGS = {
    **{name: (CONFIGS / f"{name}.cfg").read_text()
       for name in ("two_atom_showcase", "verify_heavy", "verify_light", "vg_slow_reversion")},
    "three_atom": THREE_ATOM,
}

ANALYTICS_SHA256 = {
    "three_atom": "0346b81d4bae5164b6ea7b20d658ee946755d45e482b0940a7190bcc29ca1ec6",
    "two_atom_showcase": "1f93da96b70fde7fa11f0c5ba858dc5c3f537482c0f7ebe3ce9303213b071eed",
    "verify_heavy": "d8be522264de3836be8fce3b7725371b73098920559af0db78a91bb3aa5de574",
    "verify_light": "352be4c85fc88b5e49a243ff16efbf0ef641d85423d91a2bb3ceb24c39ed5042",
    "vg_slow_reversion": "1859bc7864c03f36accff6cbf80e17c2666f94e1274f935e40bd518aa669f1c9",
}


@pytest.mark.parametrize("name", sorted(ANALYTICS_SHA256))
def test_analytics_bytes(name, tmp_path):
    cfg, out = tmp_path / "a.cfg", tmp_path / "out"
    cfg.write_text(ANALYTICS_CONFIGS[name])
    assert main(["analytics", "--config", str(cfg), "--out", str(out)]) == 0
    digest = hashlib.sha256((out / "analytics.csv").read_bytes()).hexdigest()
    assert digest == ANALYTICS_SHA256[name]

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


def _set(text: str, **keys) -> str:
    for key, value in keys.items():
        text = re.sub(rf"(?m)^{key} = .*$", f"{key} = {value}", text)
    return text


LIGHT_VERIFY = _set((CONFIGS / "verify_light.cfg").read_text(), replications=100, q_paths=3, tail_samples=100)

VERIFY_CONFIGS = {"verify_light": LIGHT_VERIFY, "diverging_atom": _set(LIGHT_VERIFY, phis="0.12, 1.5")}

VERIFY_SHA256 = {
    "verify_light": {
        "price_increments.csv": "eb45fe4405c0077d6de3da27dd80ddbfa4b74307c5a3fdf8e4b87cc366ccae9d",
        "verification.csv": "27a1c022ad2252482e991fc0e0854525d84c1598f5212e314ee011c428ea23b8",
        "verification_checks.csv": "623c741b41205a6eb37f3449ed1c10c60fc5641ad213cd3816ca280cf6ba1e05",
    },
    # cogarch[1.5].mean and each supN.mean (k) and the cross covariance
    # (k + 1) are skipped before sampling; the price increment covariances
    # are sampled against diverging targets
    "diverging_atom": {
        "price_increments.csv": "a574a43e63a9bb55ca2280231e1acf60bbd469b6b648fdab2474b6aa0fe28cab",
        "verification.csv": "e30da572c718244f96fa36e76745668db2c89aadf4debaac611f66445fde01b5",
        "verification_checks.csv": "dacd55bd7dc506c056eecf3be2ac9c3e1a11b51fa77a9c097ce97942b83a0b5b",
    },
}


@pytest.mark.parametrize("name", sorted(VERIFY_CONFIGS))
def test_verify_bytes(name, tmp_path):
    cfg, out = tmp_path / "v.cfg", tmp_path / "out"
    cfg.write_text(VERIFY_CONFIGS[name])
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}
    assert digests == VERIFY_SHA256[name]


SHOWCASE_SIM = (CONFIGS / "two_atom_showcase.cfg").read_text()
VG_SIM = re.sub(
    r"(?m)^horizon = .*$", "horizon = 30.0\nburn_in = 100.0", (CONFIGS / "vg_slow_reversion.cfg").read_text()
)

SIMULATE_CONFIGS = {"two_atom_showcase": SHOWCASE_SIM, "vg_short": VG_SIM}

SIMULATE_SHA256 = {
    "two_atom_showcase": {
        "config.cfg": "8d1147da8be2c577a4aa3be6cd5794b67f11dcf8a8d011bc3cd19b908529e244",
        "sup1_bundle.csv": "2dcdb8608e3a92a14f88a6619c2f05625aac24160c400e9a0d9e30e90c9c8298",
        "sup1_driver_0.csv": "1d732255ebcf8e180cc6d5a92499729dda39f9b0033802d2d564d43ea45a7ccb",
        "sup1_driver_1.csv": "192e132ac515f06598a290ea7f4b33ddd2f8e45348760fa39ae51e4391343f6b",
        "sup1_price.csv": "e1e12bd048d34e55a8ba6c504c3498109a563fe3c26878f805e56681e6ff3e96",
        "sup2_bundle.csv": "99e0dab3c6b884b6b28af98af68e5a2bf4fef6180caa5d7ee12af5d576f2dfaa",
        "sup2_driver_0.csv": "b1cae30ce9b6f10a081a9be2ac05a378dab86cb95e79e5bb1b7e08a49d012bf6",
        "sup2_price.csv": "87bf41bd8240a61db96d52f6fe88779b463b036c7e125809be88482052236ff6",
        "sup3_bundle.csv": "8cfdb2c9669c0f4214ac3453aa9e4668e5d76b1be817a3e55c8d15ac86268c9d",
        "sup3_chosen_phi.csv": "24692d809fad31f8865fee42bb298aec230c8ca35d971219c7e4557b1026d057",
        "sup3_driver_0.csv": "c5f75a538e099a55ec13c66f90efe109988763724c967a12223370ab394ff6e3",
        "sup3_price.csv": "bb8f838a676213d6c01548eb1b010440f748d112736de25da89a31a8d218a558",
    },
    "vg_short": {
        "config.cfg": "b35db50c550dcdf62134e738eaa530a13b904a82b20ab27b1657985bc63631a1",
        "sup1_bundle.csv": "d7dd0584e0260c312dcd12b4227df04ee09ec9030b0dd3a7171f4dfe30efcc8c",
        "sup1_driver_0.csv": "9d5ee6cedc3931cd3f3b589879d96cce3c342b5878444eee7b9cee1c9d8b69a8",
        "sup1_driver_1.csv": "19c3652b53f4b93013f2b9c185d0709c24f19352f57d2724afb57ec24c741dfd",
        "sup1_price.csv": "2ad317fa53c431461c58bc21d36519e3af838cb38d652141e2e1df7d6be79581",
        "sup2_bundle.csv": "63fe78ad4eff14188f00874bf971f71d1aef2fbb07cdee48637099a7006cf387",
        "sup2_driver_0.csv": "3aeb010b88b336605c3b91c1a735081d5c24b8db6c439dbf5c33d06789210861",
        "sup2_price.csv": "a05daec5e9acf77605856ef1b6bf4db8bafabe0e9db0061e426408bbee1c0289",
        "sup3_bundle.csv": "2b03273d05e8fc00c2c169ddc329b617c067daa4e187b4e2224335ebab1973b4",
        "sup3_chosen_phi.csv": "e2ebfd9b139992c10e0e210d1223541701ed835f76944fb0091851c75a468ad2",
        "sup3_driver_0.csv": "34b38efd9ff8797d5e6ad6b19a4422a73bf3fb06545243980c910b67165a506e",
        "sup3_price.csv": "56fc3c7b084303cfff329d638063f939f2a7b10954cadff77a7f0c3cb9a5e4c5",
    },
}


@pytest.mark.parametrize("name", sorted(SIMULATE_CONFIGS))
def test_simulate_bytes(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("sim.cfg").write_text(SIMULATE_CONFIGS[name])
    assert main(["simulate", "--config", "sim.cfg", "--out", "out"]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(Path("out").iterdir())}
    assert digests == SIMULATE_SHA256[name]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_benchmark_default_seed_bytes(name, tmp_path, monkeypatch):
    wl = workloads.WORKLOADS[name]
    monkeypatch.chdir(tmp_path)
    Path("workload.cfg").write_text(workloads.generate_config(ROOT, wl, workloads.DEFAULT_SEED))
    assert main([wl.command, "--config", "workload.cfg"]) == 0
    assert workloads.output_digests(Path(workloads.OUT_DIR)) == workloads.recorded_digests(name)
