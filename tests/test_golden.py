"""Golden outputs: every CSV that small runs of the experiment kinds write
(mac_replay through one `coopsim mac` flag run), compared by SHA-256 with
digests recorded from coopsim 0.3.0.

Acceptance 10 only shows that a rerun reproduces itself; this test shows
that output stays byte-identical from one version of the code to the
next; the kinds that use the process pool are checked on two workers
too, and every config with its topologies and schedule read from files,
against the same digests. If a change moves output on purpose, print the new digests with
`PYTHONPATH=src python tests/test_golden.py` and say in CHANGES.md why
they moved.
"""
import csv
import hashlib
import os

import numpy as np
import pytest
import yaml

from coopsim import experiments
from coopsim.cli import main
from coopsim.experiments import run_config

TOPO2 = {"label": "t2", "n_relays": 2, "units": "linear", "snr_sd": 0.5,
         "snr_sr": [2.0, 1.0], "snr_rd": [1.5, 0.8]}
TOPOS3 = [
    {"label": "A", "n_relays": 3, "units": "linear", "snr_sd": 0.2,
     "snr_sr": [3.0, 0.5, 0.8], "snr_rd": [2.5, 0.6, 0.9]},
    {"label": "B", "n_relays": 3, "units": "linear", "snr_sd": 0.3,
     "snr_sr": [0.5, 3.0, 0.6], "snr_rd": [0.5, 2.8, 0.7]},
]
SCHEDULE = {"topologies": TOPOS3,
            "segments": [{"topology": label, "frames": 70}
                         for label in ("A", "B", "A", "B", "A")]}
ALL_POLICIES = ["SPA", "WRNM", "NRNM", "RandPick", "PWR2", "BRUTE", "DT",
                "Fixed:R1"]
DECODE_LIMITED = {"label": "dl", "n_relays": 3, "units": "linear",
                  "snr_sd": 0.35, "snr_sr": [0.15] * 3, "snr_rd": [30.0] * 3}

CONFIGS = {
    "outage_analytic": {"kind": "outage_sweep", "seed": 1, "topology": TOPO2,
                        "rate": 1.0, "k_values": [0, 1, 2],
                        "snr_grid": {"start": 0.0, "stop": 12.0, "step": 6.0}},
    "outage_montecarlo": {"kind": "outage_sweep", "seed": 3, "topology": TOPO2,
                          "rate": 1.0, "k_values": [0, 1, 2],
                          "snr_grid": [0.0, 6.0], "method": "montecarlo",
                          "normalization": "total_power"},
    "fixed_DT": {"kind": "fixed_modes", "seed": 7, "schedule": SCHEDULE,
                 "rate": 1.0, "strategy": "DT"},
    "fixed_DIF": {"kind": "fixed_modes", "seed": 8, "schedule": SCHEDULE,
                  "rate": 1.0, "strategy": "DIF", "modes": ["DT", "R1", "R2R3"]},
    "fixed_DIQIF": {"kind": "fixed_modes", "seed": 9, "schedule": SCHEDULE,
                    "rate": 1.0, "strategy": "DIQIF"},
    "adaptive": {"kind": "adaptive_compare", "seed": 4, "schedule": SCHEDULE,
                 "rate": 1.0, "policies": ALL_POLICIES,
                 "params": {"w": 20, "r": 3}},
    "adaptive_low_fer": {"kind": "adaptive_compare", "seed": 10, "schedule": SCHEDULE,
                         "rate": 0.4, "policies": ALL_POLICIES},
    "adaptive_DIF": {"kind": "adaptive_compare", "seed": 5, "schedule": SCHEDULE,
                     "rate": 1.5, "strategy": "DIF",
                     "policies": ["DT", "Fixed:R2R3", "SPA"]},
    "ensemble": {"kind": "ensemble", "seed": 6, "topologies": TOPOS3,
                 "rate": 1.0, "frames_per_topology": 120, "segment_len": 40,
                 "n_transitions": 2, "n_samples": 4, "policies": ALL_POLICIES},
    "mac_spa": {"kind": "mac_compare", "seed": 5, "topology": DECODE_LIMITED,
                "rate": 1.0, "n_packets": 300},
    "mac_fixed": {"kind": "mac_compare", "seed": 2, "topology": DECODE_LIMITED,
                  "rate": 1.0, "n_packets": 200, "strategy": "DIF",
                  "mode_policy": "Fixed:R2",
                  "mac": {"max_retx_coop": 1, "max_retx_per_link": 3}},
}

GOLDEN = {
    'adaptive': {
        'runlog_BRUTE.csv':
            '36d8ae863652f4a3010186e38562158ffe4bbc4f37262dd0265d77769163de16',
        'runlog_DT.csv':
            '73d14fd1d1818cb26a4158c3e42931eba1707c51314dfe6854c99b1ef67e3ba1',
        'runlog_Fixed_R1.csv':
            'a37cd272d1ddc45fae0e70825a6df69e84590cfd9baa3ccc0078a0523efb4a23',
        'runlog_NRNM.csv':
            '8168c49fef19d90d923dfc4ad8ecaeb7111a3e658c779c1eb8452091df2e63b0',
        'runlog_PWR2.csv':
            '2e907cf5fe3cf33ef74c7e29c5fbded242faedd8fff1506d4d044c012c714b1b',
        'runlog_RandPick.csv':
            'f885dd3de3cc514f046c5daf9da8762d99b2af892a7c2f3e3349eea3064e27c8',
        'runlog_SPA.csv':
            '9a711a9f1422d6a25abb04747deb4eb3a259921977f92ed4793234e317d4906d',
        'runlog_WRNM.csv':
            '3dacc1a177d7bc8d05db6fa4ff5062636aa5600b6de3442acdc103b5585b5942',
        'summary.csv':
            '6602d088c59f2c6efd61fc6f5554a69fe090434a4e4131aa9ba2fe80286bbf60',
    },
    'adaptive_DIF': {
        'runlog_DT.csv':
            'c54ccd8b7fb5f757dc10e42f3873baa68fa5cc633aa0aab6dd7fc263d3d148f3',
        'runlog_Fixed_R2R3.csv':
            '307b80be8b9cca700a7554bb90dde082561194abd7a5905cefc4a95e445c5f7d',
        'runlog_SPA.csv':
            '9c01c75f9135ff86fb8c8ebc04db3895b4248c014b12ae702becaf0dabf02ff1',
        'summary.csv':
            '3150c728110a87556c6993db97fa97a8ae881f504d0726a44e42c73c8f8b8006',
    },
    'adaptive_low_fer': {
        'runlog_BRUTE.csv':
            'f377f4fcf0375fe7339d90c53e804af2036d85ea3949313093d38749dcb8d66e',
        'runlog_DT.csv':
            '58c04f351ce0a75d9540c47ba4977b77d8a63c3ec3a38efb844c401041088326',
        'runlog_Fixed_R1.csv':
            '5983dd8c0fed6e5bdebd8d21721775bdf71915241aad5b97aef7d4a22a819812',
        'runlog_NRNM.csv':
            'b89fdb27aaf838cec65cbad653ba958d884801ede273540a33bc1dce3d11b40b',
        'runlog_PWR2.csv':
            'df6873e5f98adf3fcd33d0e9a699101b9600f989d87d0ac49498132d0b8acf8f',
        'runlog_RandPick.csv':
            '7dcd8df61147b0e99d42722e4a19ac8c0df469ba5a5581fcf60d15984bed150e',
        'runlog_SPA.csv':
            'b35b7db0899353ae9dca66b4a9ab6011914e8a4b063f79065ca6e99f7f10c86c',
        'runlog_WRNM.csv':
            '875d25a6067a61430e928e461c0089f5b06e214aebdf29a63237b0fbe255e64a',
        'summary.csv':
            '198417465ff83c846dc25a2e54bf590ba663810050ae4bed8bd909068d676d40',
    },
    'ensemble': {
        'dataset.csv':
            '5ceaf9eb822ac28ea5985f97ce7880d11805fed566688d1c926c1ea456bbfdcf',
        'ensemble.csv':
            '19ccce427fd5d54e8bbf9d28e79af22d3e692dc93826e23dedaadce4ce8e5dae',
        'sample_metrics.csv':
            'b8e4a3ec611ad9a9c90250ae2494e1f54b92b1caecf2f43f2172779fad6e466a',
        'samples.csv':
            '322b2ece24aa15dd6ca91a4a6f2c43a54449430eeac3e062acacc4c66b74048a',
    },
    'fixed_DIF': {
        'summary.csv':
            'af9716db95df810c794e1e4d3b32272fbcf85bf29c00de287756b6b1bbcdc68e',
        'trace_DT.csv':
            'cc2888d8928bbfdc09ecb0f1738e1c6be46814c6981cfc453896854ea00fd5e5',
        'trace_R1.csv':
            'ee76320bc0107e1a0ab6efc16cd6a5d64725a697f94676cdc4638aeb2f439345',
        'trace_R2R3.csv':
            '1e160812a67c95b58e286d2e61777c761ba5d7c06127f96eee2cc8c6e83e852f',
    },
    'fixed_DIQIF': {
        'summary.csv':
            '3733da1c5b59c94dcb7f13f2c395ac00f13ee47fefd87d98e28d6da2d8c652b7',
        'trace_DT.csv':
            'd9a0b61e3f131884442156a6493d10d3f98833779566a43bed48d1d04521cc08',
        'trace_R1.csv':
            'fdf2431514ec77dec9261b9f081fedfee74eba0d3b538be2df3c164cb853910d',
        'trace_R1R2.csv':
            '4ebf1b2818e7b137b98bbf7a811f6c00877e4652879ba066f34767063a4cbc66',
        'trace_R1R3.csv':
            '9298ad0a23c16b8c99a8db414e144b2a143cc6e37c117009608b3ef3da8581c1',
        'trace_R2.csv':
            '4c7bb64d4c78ba521db64905e9302827f7df8a7ef7b099e44e5b3491d6cbd8bf',
        'trace_R2R3.csv':
            '78be384f385a918b052b2e46562ce08dd4bde831aa910da560efa820ddf6788d',
        'trace_R3.csv':
            'dcb8bf05a790cdc58aff2ef6a2a641a0fb20e98c0838328606b2a327b9ddbe5a',
    },
    'fixed_DT': {
        'summary.csv':
            '25f7abfbb5c1da7fcdd77ba504451746399fd0cb52d87ecb09e75dc21d83012a',
        'trace_DT.csv':
            'a5020de7ed659de220313f39183c05ea85e1229ee56cf757500c5fe79815a66f',
        'trace_R1.csv':
            '9d3a238a2ef4045bf39543e473d5d13f3da273afb45114065255467e451db95e',
        'trace_R1R2.csv':
            '4b249bc77477ecd2abcc9e155f7b210faec969ae1a7caa39dad6123aff258dd8',
        'trace_R1R3.csv':
            '1253f2580c8664bd1aed396d7ba320e21a7d1b5d34ff8be036a9627a111bf7f8',
        'trace_R2.csv':
            '33e4becbac1e0d21e70d744bc4f0bd7286e38dca3d5e69fb32ea610ab3107100',
        'trace_R2R3.csv':
            '39265807ad550779ed907a65e661471dd309cee9f6791e7d0e7a7e4e8d3e4ea8',
        'trace_R3.csv':
            '988e198cd5c7e2d57e49f0ab67b4a47833c729eb3bcbb49f5bc50244ce634d4b',
    },
    'mac_fixed': {
        'mac_compare.csv':
            '452505458e7502e9d7bf98d2bf45307cde039e9acf1a76d18bce4e39075f7d3b',
        'packets_coop.csv':
            '7a8a5c1cb9a32722168874cbb58bec4172c84954ebc43322cdd0a90f079132cf',
        'packets_genie.csv':
            '2dc55a0e015e419a96ce167ff0f9fb332cc55330a4d021909a46d662fe915ada',
    },
    'mac_flags': {
        'packets.csv':
            '2aebc6b38cd47d33e298684c5b86f5333fc088ba281278f4c807284dc5ccd0ad',
        'packets.csv.packets_genie.csv':
            '86570bc1e102e90a70ad9437b8a42db0f9b5b1fd0ca7cdc62e8ce49ed7233491',
    },
    'mac_spa': {
        'mac_compare.csv':
            'dc964d601fb51a2dc948fda135062f810c6d1c901af4129aa45e40df316bc894',
        'packets_coop.csv':
            '22b1512aa8dbfa8367538e05d56bb20cc58557805976ec28b08115a553022acb',
        'packets_genie.csv':
            'd3c5871d232e864193ace4e424c92fe081f804a1ae158100c5c8384fa0f899da',
    },
    'outage_analytic': {
        'outage.csv':
            '482e2ad2362a711802def0b31da75d3fdc62225ea0d6e0e9073e68ddd4b19f41',
    },
    'outage_montecarlo': {
        'outage.csv':
            'a97ee6ec0d2e0e1251626faa766834f2b9df577945477ad93cdf01b1a836dea3',
    },
}


def _digests(files):
    out = {}
    for path in files:
        if path.endswith(".csv"):
            with open(path, "rb") as fh:
                out[os.path.basename(path)] = hashlib.sha256(fh.read()).hexdigest()
    return out


def _write_yaml(path, doc):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(doc, fh)


def _run_config(name, tmp_dir, threads=1, config=None):
    """The digests of config (by default CONFIGS[name]) run from a file in
    tmp_dir."""
    cfg = os.path.join(tmp_dir, f"{name}.yaml")
    _write_yaml(cfg, CONFIGS[name] if config is None else config)
    return _digests(run_config(cfg, out_dir=os.path.join(tmp_dir, name),
                               threads=threads))


def _write_rows(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _run_mac_flags(tmp_dir):
    """`coopsim mac` over a generated coop trace and path-trace file."""
    rng = np.random.default_rng(7)
    coop = os.path.join(tmp_dir, "coop.csv")
    cats = rng.integers(0, 3, size=200).tolist() + [0]
    modes = ["R1", "R2", "R1R2", "DT"]
    _write_rows(coop, ["frame_index", "topology_id", "mode", "category"],
                [[f, "T", modes[f % 4], c] for f, c in enumerate(cats)])
    paths = os.path.join(tmp_dir, "paths.csv")
    rows = []
    for label, hops in (("S-D", 1), ("S-R1-D", 2), ("S-R2-D", 2)):
        ok = rng.random((hops, 30, 5)) < 0.4
        rows += [[label, h, p, a, int(ok[h, p, a])]
                 for h in range(hops) for p in range(30) for a in range(5)]
    _write_rows(paths, ["path", "hop", "packet", "attempt", "success"], rows)
    out = os.path.join(tmp_dir, "mac", "packets.csv")
    os.makedirs(os.path.dirname(out))
    assert main(["mac", "--coop-trace", coop, "--path-traces", paths,
                 "--max-retx", "2", "--max-retx-per-link", "3",
                 "--out", out]) == 0
    return _digests([out, f"{out}.packets_genie.csv"])


def _run(name, tmp_dir):
    return _run_mac_flags(tmp_dir) if name == "mac_flags" else _run_config(name, tmp_dir)


@pytest.mark.parametrize("name", sorted(CONFIGS) + ["mac_flags"])
def test_outputs_match_golden_digests(name, tmp_path):
    assert _run(name, str(tmp_path)) == GOLDEN[name]


@pytest.mark.parametrize("name", ["ensemble", "outage_analytic", "outage_montecarlo"])
def test_pooled_outputs_match_golden_digests(name, tmp_path, monkeypatch):
    # the kinds that use the pool, run on two worker processes whatever
    # the core count, write the same bytes
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: 2)
    assert _run_config(name, str(tmp_path), threads=2) == GOLDEN[name]


def _topology_file(tmp_dir, sub, topo):
    """The name of the file in tmp_dir/sub that topo is written to."""
    name = f"{topo['label']}.yaml"
    _write_yaml(os.path.join(tmp_dir, sub, name), topo)
    return name


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_file_documents_match_golden_digests(name, tmp_path):
    # each inline topology and schedule written to a file that the config
    # names by a relative path; a schedule file names its topology files
    # relative to its own directory
    tmp_dir = str(tmp_path)
    config = dict(CONFIGS[name])
    if "topology" in config:
        config["topology"] = "topologies/" + _topology_file(tmp_dir, "topologies",
                                                            config["topology"])
    if "topologies" in config:
        config["topologies"] = ["topologies/" + _topology_file(tmp_dir, "topologies", t)
                                for t in config["topologies"]]
    if "schedule" in config:
        schedule = {**config["schedule"], "topologies": [
            _topology_file(tmp_dir, "schedule", t)
            for t in config["schedule"]["topologies"]]}
        _write_yaml(os.path.join(tmp_dir, "schedule", "schedule.yaml"), schedule)
        config["schedule"] = "schedule/schedule.yaml"
    assert _run_config(name, tmp_dir, config=config) == GOLDEN[name]


if __name__ == "__main__":
    import pprint
    import tempfile
    digests = {}
    for name in sorted(CONFIGS) + ["mac_flags"]:
        with tempfile.TemporaryDirectory() as tmp:
            digests[name] = _run(name, tmp)
    pprint.pprint(digests, width=100)
