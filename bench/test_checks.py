"""Each benchmark check passes on a real output of coopsim and rejects a
deliberately corrupted copy of it. Also covers the tracer's binding-site
wrapping. Run with `PYTHONPATH=src python3 -m pytest bench`.
"""
import copy
import csv
import os
import shutil
import sys

import numpy as np
import pytest
import yaml

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
from tracer import Tracer  # noqa: E402

from coopsim import ensemble, experiments, outage, topology  # noqa: E402


def _run(tmp_path, spec):
    cfg = tmp_path / "config.yaml"
    cfg.write_text(yaml.safe_dump(spec["config"]))
    out_dir = str(tmp_path / "out")
    experiments.run_config(str(cfg), out_dir=out_dir)
    return out_dir


def _rewrite(path, edit):
    """Apply edit(rows) to a CSV file's data rows (dicts) in place."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header, rows = reader.fieldnames, list(reader)
    rows = edit(rows)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.DictWriter(fh, header)
        w.writeheader()
        w.writerows(rows)


# -- outage_design ---------------------------------------------------------

@pytest.fixture(scope="module")
def design():
    spec = inputs.make_spec("outage_design", 3)
    spec["ks"] = [0, 1]
    template = topology.topology_from_dict(spec["topology"])
    snrs = {k: outage.required_snr_db(template, k, spec["rate"], spec["target"],
                                      lo_db=spec["lo_db"], hi_db=spec["hi_db"],
                                      iterations=spec["iterations"])
            for k in spec["ks"]}
    assert checks.check_outage_design(spec, snrs, 3) == []
    return spec, snrs


def test_design_k0_rejects_wrong_snr(design):
    spec, snrs = design
    assert checks.check_design_k0(spec, {**snrs, 0: snrs[0] + 0.01})


def test_design_k1_rejects_wrong_snr(design):
    spec, snrs = design
    assert checks.check_design_k1(spec, {**snrs, 1: snrs[1] - 0.01})


def test_design_trend_rejects_growing_margins():
    assert checks.check_design_trend(None, {0: 30.0, 1: 16.2, 2: 11.0, 3: 9.2}) == []
    assert checks.check_design_trend(None, {0: 30.0, 1: 16.2, 2: 16.2, 3: 9.2})
    assert checks.check_design_trend(None, {0: 30.0, 1: 16.2, 2: 11.0, 3: 3.0})


def test_design_montecarlo_rejects_optimistic_snr(design):
    spec, snrs = design
    assert checks.check_design_montecarlo(spec, {k: v - 1.0 for k, v in snrs.items()}, 3)


# -- outage_montecarlo -----------------------------------------------------

@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    spec = inputs.make_spec("outage_montecarlo", 4)
    spec["config"].update(k_values=[0, 1, 2], snr_grid=[9.0, 15.0])
    out_dir = _run(tmp_path_factory.mktemp("sweep"), spec)
    rows = checks.read_sweep(out_dir)
    assert checks.check_outage_montecarlo(spec, out_dir, 4) == []
    return spec, rows


def _edit_row(rows, k, **changes):
    rows = copy.deepcopy(rows)
    row = next(r for r in rows if r["k"] == k)
    row.update(changes)
    return rows, row


def test_sweep_exact_rejects_wrong_k0_value(sweep):
    spec, rows = sweep
    rows, row = _edit_row(rows, 0)
    row["outage"] *= 1.05
    assert checks.check_sweep_exact(spec, rows)


def test_sweep_exact_rejects_wrong_relay(sweep):
    spec, rows = sweep
    topo = spec["config"]["topology"]
    weakest = min(range(1, 11), key=lambda i: topo["snr_sr"][i - 1])
    rows, row = _edit_row(rows, 1, subset=(weakest,))
    row["outage"] = checks._sweep_exact(topo, 1, (weakest,), row["snr_db"], 1.0)
    assert checks.check_sweep_exact(spec, rows)


def test_sweep_montecarlo_rejects_wrong_k2_value(sweep):
    spec, rows = sweep
    rows, row = _edit_row(rows, 2)
    row["outage"] *= 1.2
    assert checks.check_sweep_montecarlo(spec, rows, 4)


# -- ensemble_replay -------------------------------------------------------

@pytest.fixture(scope="module")
def ensemble_out(tmp_path_factory):
    spec = inputs.make_spec("ensemble_replay", 5)
    spec["config"].update(frames_per_topology=120, segment_len=40,
                          n_transitions=2, n_samples=6)
    out_dir = _run(tmp_path_factory.mktemp("ensemble"), spec)
    assert checks.check_ensemble_replay(spec, out_dir, 5) == []
    return spec, checks.read_ensemble(out_dir)


def _with_metric(out, policy, sample, fer=None, n_frames=None):
    out = copy.deepcopy(out)
    old = out["metrics"][(policy, sample)]
    out["metrics"][(policy, sample)] = (old[0] if fer is None else fer, old[1],
                                        old[2] if n_frames is None else n_frames)
    return out


def test_ensemble_shape_rejects_wrong_n_frames(ensemble_out):
    spec, out = ensemble_out
    assert checks.check_ensemble_shape(spec, _with_metric(out, "SPA", 0, n_frames=119))


def test_ensemble_recount_rejects_wrong_fixed_fer(ensemble_out):
    spec, out = ensemble_out
    fer = out["metrics"][("Fixed:R1", 1)][0]
    assert checks.check_ensemble_fixed_recount(
        spec, _with_metric(out, "Fixed:R1", 1, fer=fer + 1.0 / 120))


def test_ensemble_floor_rejects_impossible_fer(ensemble_out):
    spec, out = ensemble_out
    out = copy.deepcopy(out)
    # every mode slot fails at the first position of sample 0
    label, row = out["samples"][0][0]
    for (lbl, _), cats in out["dataset"].items():
        if lbl == label:
            cats[row] = 2
    assert checks.check_ensemble_floor(spec, _with_metric(out, "SPA", 0, fer=0.0))


def test_ensemble_averages_reject_wrong_summary(ensemble_out):
    spec, out = ensemble_out
    out = copy.deepcopy(out)
    out["summary"]["WRNM"] += 0.01
    assert checks.check_ensemble_averages(spec, out)


def test_ensemble_containment_rejects_diqif_failure_where_dt_succeeds(ensemble_out):
    spec, out = ensemble_out
    out = copy.deepcopy(out)
    dt = out["dataset"][("T0", "DT")]
    frame = next(f for f, cat in dt.items() if cat != 2)
    out["dataset"][("T0", "R2")][frame] = 2
    assert checks.check_ensemble_containment(spec, out)


# -- mac_compare -----------------------------------------------------------

@pytest.fixture(scope="module")
def mac(tmp_path_factory):
    spec = inputs.make_spec("mac_compare", 6)
    spec["config"]["n_packets"] = 1500
    out_dir = _run(tmp_path_factory.mktemp("mac"), spec)
    assert checks.check_mac_compare(spec, out_dir, 6) == []
    return spec, out_dir


def test_mac_counts_reject_missing_packet(mac):
    spec, out_dir = mac
    out = checks.read_mac(out_dir)
    out["genie"].pop()
    assert checks.check_mac_counts(spec, out)


def test_mac_delays_reject_wrong_delay(mac):
    spec, out_dir = mac
    out = checks.read_mac(out_dir)
    out["coop"][7]["delay_us"] += 12.0
    assert checks.check_mac_delays(spec, out)


def test_mac_rates_reject_wrong_throughput(mac):
    spec, out_dir = mac
    out = checks.read_mac(out_dir)
    drops, throughput = out["summary"]["coop"]
    out["summary"]["coop"] = (drops, throughput * 1.001)
    assert checks.check_mac_rates(spec, out)


def test_mac_ordering_rejects_genie_win(mac):
    spec, out_dir = mac
    out = checks.read_mac(out_dir)
    out["coop"], out["genie"] = out["genie"], out["coop"]
    assert checks.check_mac_ordering(spec, out)


def test_mac_check_reads_the_csv_files(mac, tmp_path):
    spec, out_dir = mac
    copy_dir = tmp_path / "out"
    shutil.copytree(out_dir, copy_dir)
    _rewrite(str(copy_dir / "packets_coop.csv"),
             lambda rows: [dict(r, delivered="1") for r in rows])
    assert checks.check_mac_compare(spec, str(copy_dir), 6)


# -- tracer ----------------------------------------------------------------

def test_tracer_wraps_every_binding_site_and_reports_absent_names():
    tracer = Tracer()
    tracer.install(traced=(("netsim", "evaluate_frame"), ("outage", "no_such_function")))
    try:
        # ensemble imported evaluate_frame by name; its calls must be counted
        t = topology.topology_from_dict(inputs.DECODE_LIMITED)
        data = ensemble.record_dataset([t], "DIQIF", 1.0, 20, np.random.default_rng(0))
    finally:
        tracer.uninstall()
    assert tracer.absent == ["outage.no_such_function"]
    assert tracer.stats["netsim.evaluate_frame"]["calls"] == 20 * len(data.mode_keys)
    assert ensemble.evaluate_frame.__module__ == "coopsim.netsim"
    assert not hasattr(ensemble.evaluate_frame, "__wrapped__")
