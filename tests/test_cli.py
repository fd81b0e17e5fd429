import csv
import dataclasses
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest
import yaml

from coopsim import __version__, experiments, selection
from coopsim.cli import main
from coopsim.experiments import (ValidationError, list_experiments,
                                 run_config, validate_config)
from coopsim.macemu import PacketResult
from coopsim.netsim import enumerate_modes, write_trace
from coopsim.selection import DEFAULT_PARAMS
from oracles import write_packets_csv_rows


def write_yaml(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(doc, fh)
    return str(path)


def topo_doc(label="t2", n=2):
    return {"label": label, "n_relays": n, "units": "linear",
            "snr_sd": 0.5, "snr_sr": [2.0, 1.0][:n], "snr_rd": [1.5, 0.8][:n]}


def schedule_doc():
    return {
        "topologies": [
            {"label": "A", "n_relays": 3, "units": "linear",
             "snr_sd": 0.2, "snr_sr": [3.0, 0.5, 0.8], "snr_rd": [2.5, 0.6, 0.9]},
            {"label": "B", "n_relays": 3, "units": "linear",
             "snr_sd": 0.3, "snr_sr": [0.5, 3.0, 0.6], "snr_rd": [0.5, 2.8, 0.7]},
        ],
        "segments": [{"topology": "A", "frames": 172},
                     {"topology": "B", "frames": 172},
                     {"topology": "A", "frames": 172},
                     {"topology": "B", "frames": 172},
                     {"topology": "A", "frames": 172}],
    }


def mixed_schedule_doc():
    """schedule_doc with topology B cut to 2 relays."""
    doc = schedule_doc()
    doc["topologies"][1] = topo_doc("B")
    return doc


def one_relay_schedule_doc():
    """A one-relay (one-mode) schedule."""
    return {"topologies": [topo_doc("A", 1)],
            "segments": [{"topology": "A", "frames": 50}]}


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class CountsPickles:
    """Multiplies its arguments; counts in this process how often it is
    pickled."""
    pickled = 0

    def __call__(self, a, b):
        return a * b

    def __reduce__(self):
        CountsPickles.pickled += 1
        return CountsPickles, ()


def test_version_matches_pyproject():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml"), encoding="utf-8") as fh:
        versions = re.findall(r'^version = "([^"]+)"$', fh.read(), re.MULTILINE)
    assert versions == [__version__]


class TestValidate:
    def test_ok_config(self, tmp_path, capsys):
        cfg = write_yaml(tmp_path / "c.yaml", {
            "kind": "outage_sweep", "topology": topo_doc(), "rate": 1.0,
            "k_values": [0, 1], "snr_grid": [0.0, 10.0]})
        assert main(["validate", cfg]) == 0
        assert capsys.readouterr().out.startswith("ok:")

    def test_unknown_kind_names_the_kind(self, tmp_path, capsys):
        cfg = write_yaml(tmp_path / "c.yaml", {"kind": "bogus"})
        assert main(["validate", cfg]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_negative_eta_cites_params(self, tmp_path, capsys):
        cfg = write_yaml(tmp_path / "c.yaml", {
            "kind": "adaptive_compare", "schedule": schedule_doc(),
            "rate": 1.0, "policies": ["SPA"], "params": {"eta": -1.0}})
        assert main(["validate", cfg]) == 2
        assert "LearnParams" in capsys.readouterr().err

    def test_missing_referenced_file(self, tmp_path):
        cfg = write_yaml(tmp_path / "c.yaml", {
            "kind": "outage_sweep", "topology": "nope.yaml", "rate": 1.0,
            "k_values": [0], "snr_grid": [0.0]})
        with pytest.raises(ValidationError):
            validate_config(cfg)

    def test_malformed_topology_file(self, tmp_path, capsys):
        (tmp_path / "t.yaml").write_text("label: [a\n")
        cfg = write_yaml(tmp_path / "c.yaml", {
            "kind": "outage_sweep", "topology": "t.yaml", "rate": 1.0,
            "k_values": [0], "snr_grid": [0.0]})
        assert main(["validate", cfg]) == 2
        assert "topology: while parsing a flow sequence" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, override, message", [
        ("mac_compare", {"mode_policy": "BOGUS"}, "unknown policy 'BOGUS'"),
        ("mac_compare", {"n_packets": 0}, "n_packets must be >= 1"),
        ("ensemble", {"n_samples": 0}, "need at least one sample"),
        ("ensemble", {"frmes_per_topology": 10},
         "unknown ensemble key 'frmes_per_topology'"),
        ("ensemble", {"params": {"bogus": 1}}, "unknown params key 'bogus'"),
        ("mac_compare", {"mac": {"max_retx": 1}}, "unknown mac key 'max_retx'"),
        ("outage_sweep", {"k_values": [1.7]},
         "k_values must be a list of integers, got [1.7]"),
        ("outage_sweep", {"seed": 1.5}, "seed must be an integer, got 1.5"),
        ("mac_compare", {"n_packets": 10.9}, "n_packets must be an integer, got 10.9"),
        ("mac_compare", {"mac": {"max_retx_coop": True}},
         "mac max_retx_coop must be an integer, got True"),
        ("adaptive_compare", {"params": {"r": 2.5}},
         "params r must be an integer, got 2.5"),
        ("ensemble", {"segment_len": "10"}, "segment_len must be an integer, got '10'"),
        ("fixed_modes", {"modes": ["DT", "R5"]},
         "mode R5 invalid for a 3-relay topology"),
        ("adaptive_compare", {"policies": ["SPA", "Fixed:R5"]},
         "mode R5 invalid for a 3-relay topology"),
        ("ensemble", {"policies": ["Fixed:R1R4"]},
         "mode R1R4 invalid for a 3-relay topology"),
        ("mac_compare", {"mode_policy": "Fixed:R3"},
         "mode R3 invalid for a 2-relay topology"),
        ("mac_compare", {"mode_policy": "Fixed:R1+R2"}, "cannot parse mode 'R1+R2'"),
        ("fixed_modes", {"strategy": "BOGUS"}, "unknown strategy 'BOGUS'"),
        ("adaptive_compare", {"strategy": "BOGUS"}, "unknown strategy 'BOGUS'"),
        ("ensemble", {"strategy": "BOGUS"}, "unknown strategy 'BOGUS'"),
        ("mac_compare", {"strategy": "BOGUS"}, "unknown strategy 'BOGUS'"),
        ("adaptive_compare", {"schedule": mixed_schedule_doc()},
         "same relay count, got relay counts [2, 3]"),
        ("ensemble", {"topologies": mixed_schedule_doc()["topologies"]},
         "same relay count, got relay counts [2, 3]"),
        ("ensemble", {"topologies": []}, "need one or more topologies"),
        ("outage_sweep", {"k_values": []}, "k_values must name at least one k"),
        ("ensemble", {"n_transitions": -1}, "n_transitions must be >= 0, got -1"),
        ("ensemble", {"segment_len": 0}, "segment_len must be >= 1, got 0"),
        ("ensemble", {"frames_per_topology": 0, "segment_len": 0},
         "segment_len must be >= 1, got 0"),
        ("fixed_modes", {"modes": 5}, "modes must be a list, got 5"),
        ("adaptive_compare", {"policies": 5}, "policies must be a list, got 5"),
        ("adaptive_compare", {"policies": "SPA"}, "policies must be a list, got 'SPA'"),
        ("ensemble", {"policies": "SPA"}, "policies must be a list, got 'SPA'"),
        ("ensemble", {"topologies": 5}, "topologies must be a list, got 5"),
        ("adaptive_compare", {"schedule": {**schedule_doc(), "topologies": 5}},
         "topologies must be a list, got 5"),
        ("fixed_modes", {"schedule": {**schedule_doc(), "segments": 5}},
         "segments must be a list, got 5"),
        ("fixed_modes", {"schedule": {**schedule_doc(), "segments": [5]}},
         "segments entries must be mappings, got 5"),
        ("outage_sweep", {"seed": -1}, "seed must be >= 0, got -1"),
        ("adaptive_compare", {"params": {"eta": float("inf")}},
         "eta must be positive and finite, got inf"),
        ("adaptive_compare", {"schedule": one_relay_schedule_doc()},
         "SPA needs |modes| >= r, got 1 < 3 on 1 relays"),
        ("adaptive_compare", {"schedule": one_relay_schedule_doc(),
                              "policies": ["DT", "PWR2"]},
         "PWR2 needs at least 2 modes, got 1 on 1 relays"),
        ("adaptive_compare", {"schedule": one_relay_schedule_doc(),
                              "params": {"r": 2}},
         "SPA needs |modes| >= r, got 1 < 2 on 1 relays"),
        ("ensemble", {"topologies": [topo_doc("A", 1), topo_doc("B", 1)]},
         "SPA needs |modes| >= r, got 1 < 3 on 1 relays"),
        ("ensemble", {"topologies": [topo_doc("A", 1), topo_doc("B", 1)],
                      "policies": ["PWR2"]},
         "PWR2 needs at least 2 modes, got 1 on 1 relays"),
        ("ensemble", {"topologies": [topo_doc("A", 0)], "policies": []},
         "the policies need at least one relay, got 0"),
        ("adaptive_compare", {"schedule": {
            "topologies": [topo_doc("A", 0)],
            "segments": [{"topology": "A", "frames": 50}]}, "policies": ["DT"]},
         "the policies need at least one relay, got 0"),
        ("fixed_modes", {"schedule": {
            "topologies": [topo_doc("A", 0)],
            "segments": [{"topology": "A", "frames": 50}]}},
         "modes: need at least one relay, got 0"),
        ("mac_compare", {"topology": topo_doc(n=1)},
         "SPA needs |modes| >= r, got 1 < 3 on 1 relays"),
        ("mac_compare", {"topology": topo_doc(n=1), "mode_policy": "PWR2"},
         "PWR2 needs at least 2 modes, got 1 on 1 relays"),
        ("mac_compare", {"topology": topo_doc(n=0), "mode_policy": "DT"},
         "need at least one relay, got 0"),
        ("fixed_modes", {"schedule": {**schedule_doc(), "lenght": 5}},
         "unknown schedule key 'lenght'"),
        ("adaptive_compare", {"schedule": {
            **schedule_doc(),
            "segments": [{"topology": "A", "frames": 50, "frmaes": 5}]}},
         "unknown segment key 'frmaes'"),
        ("adaptive_compare", {"schedule": {
            **schedule_doc(),
            "topologies": [schedule_doc()["topologies"][0], topo_doc("A")]}},
         "schedule topologies need distinct labels"),
        ("ensemble", {"topologies": [topo_doc("A"), topo_doc("A")]},
         "topologies need distinct labels"),
        ("outage_sweep", {"rate": True}, "rate must be a number, got True"),
        ("mac_compare", {"rate": "1.0"}, "rate must be a number, got '1.0'"),
        ("adaptive_compare", {"params": {"eta": True}},
         "params eta must be a number, got True"),
        ("adaptive_compare", {"params": {"alpha": "0.4"}},
         "params alpha must be a number, got '0.4'"),
        ("ensemble", {"params": {"epsilon": False}},
         "params epsilon must be a number, got False"),
        ("adaptive_compare", {"params": {"zeta": "0.2"}},
         "params zeta must be a number, got '0.2'"),
        ("outage_sweep", {"rate": 0}, "rate must be > 0, got 0.0"),
        ("outage_sweep", {"rate": 0, "method": "montecarlo"},
         "rate must be > 0, got 0.0"),
        ("outage_sweep", {"rate": 1024},
         "rate must be finite and >= 0 and < 1024, got 1024.0"),
        ("fixed_modes", {"rate": 1024},
         "rate must be finite and >= 0 and < 1024, got 1024.0"),
        ("adaptive_compare", {"rate": 1024},
         "rate must be finite and >= 0 and < 1024, got 1024.0"),
        ("ensemble", {"rate": 1024},
         "rate must be finite and >= 0 and < 1024, got 1024.0"),
        ("mac_compare", {"rate": 1024},
         "rate must be finite and >= 0 and < 1024, got 1024.0"),
        ("outage_sweep", {"rate": 1024, "method": "montecarlo"},
         "rate must be finite and >= 0 and < 1024, got 1024.0"),
        ("outage_sweep", {"k_values": [0, 1, 0]}, "k_values name one k twice: 0 and 0"),
        ("outage_sweep", {"k_values": {0: "a", 1: "b"}},
         "k_values must be a list of integers, got {0: 'a', 1: 'b'}"),
        ("adaptive_compare", {"policies": ["SPA", "spa"]},
         "policies name one policy twice: 'SPA' and 'spa'"),
        ("adaptive_compare", {"policies": ["SPA", "Fixed:R1", "fixed:r1"]},
         "policies name one policy twice: 'Fixed:R1' and 'fixed:r1'"),
        ("ensemble", {"policies": ["DT", "WRNM", "dt"]},
         "policies name one policy twice: 'DT' and 'dt'"),
        ("adaptive_compare", {"policies": []}, "policies must name at least one policy"),
        ("ensemble", {"policies": []}, "policies must name at least one policy"),
        ("fixed_modes", {"modes": ["R1", "R1"]}, "modes name one mode twice: 'R1' and 'R1'"),
        ("fixed_modes", {"modes": ["DT", "R1R2", "dt"]},
         "modes name one mode twice: 'DT' and 'dt'"),
        ("fixed_modes", {"modes": ["r2", "R2"]}, "modes name one mode twice: 'r2' and 'R2'"),
        ("fixed_modes", {"modes": []}, "modes must name at least one mode"),
    ])
    def test_rejects_what_the_run_rejects(self, tmp_path, capsys, kind,
                                          override, message):
        base = {
            "mac_compare": {"kind": "mac_compare", "topology": topo_doc(),
                            "rate": 1.0, "n_packets": 10},
            "ensemble": {"kind": "ensemble", "rate": 1.0,
                         "topologies": schedule_doc()["topologies"],
                         "frames_per_topology": 50, "segment_len": 10,
                         "n_samples": 2, "policies": ["SPA"]},
            "outage_sweep": {"kind": "outage_sweep", "topology": topo_doc(),
                             "rate": 1.0, "k_values": [0, 1], "snr_grid": [0.0]},
            "fixed_modes": {"kind": "fixed_modes", "schedule": schedule_doc(),
                            "rate": 1.0},
            "adaptive_compare": {"kind": "adaptive_compare",
                                 "schedule": schedule_doc(), "rate": 1.0,
                                 "policies": ["SPA"]},
        }[kind]
        cfg = write_yaml(tmp_path / "c.yaml", {**base, **override,
                                               "out_dir": "o"})
        assert main(["validate", cfg]) == 2
        assert message in capsys.readouterr().err
        assert main(["run", "--config", cfg]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("out_dir", [5, True, ["a"]])
    def test_out_dir_must_be_a_path(self, tmp_path, capsys, out_dir):
        cfg = write_yaml(tmp_path / "c.yaml", {
            "kind": "outage_sweep", "topology": topo_doc(), "rate": 1.0,
            "k_values": [0], "snr_grid": [0.0], "out_dir": out_dir})
        message = f"out_dir must be a path, got {out_dir!r}"
        assert main(["validate", cfg]) == 2
        assert message in capsys.readouterr().err
        assert main(["run", "--config", cfg]) == 2
        assert message in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["c.yaml"]

    @pytest.mark.parametrize("seed, message", [
        (1.5, "seed must be an integer, got 1.5"),
        (True, "seed must be an integer, got True"),
        ("2", "seed must be an integer, got '2'"),
        (-1, "seed must be >= 0, got -1")])
    def test_seed_override_checked_like_the_documents(self, tmp_path, seed, message):
        cfg = write_yaml(tmp_path / "c.yaml", {
            "kind": "outage_sweep", "topology": topo_doc(), "rate": 1.0,
            "k_values": [0], "snr_grid": [0.0], "out_dir": "o"})
        with pytest.raises(ValidationError, match=re.escape(message)):
            run_config(cfg, seed=seed)
        assert not (tmp_path / "o").exists()

    def test_params_block_may_name_every_field(self, tmp_path):
        fields = {**dataclasses.asdict(DEFAULT_PARAMS.learn),
                  **dataclasses.asdict(DEFAULT_PARAMS)}
        del fields["learn"]
        cfg = write_yaml(tmp_path / "c.yaml", {
            "kind": "adaptive_compare", "schedule": schedule_doc(), "rate": 1.0,
            "policies": ["SPA"], "params": fields})
        assert sorted(fields) == ["B", "alpha", "delta_w", "epsilon", "eta", "l",
                                  "r", "s", "w", "zeta"]
        assert validate_config(cfg).startswith("ok:")

    def test_no_params_block_runs_with_the_default_params(self, tmp_path,
                                                          monkeypatch):
        seen = []
        run_policy = selection.run_policy

        def spy(policy, executor, modes, params=None, **kwargs):
            seen.append(params)
            return run_policy(policy, executor, modes, params, **kwargs)

        monkeypatch.setattr(selection, "run_policy", spy)
        cfg = write_yaml(tmp_path / "c.yaml", {
            "kind": "adaptive_compare", "schedule": one_relay_schedule_doc(),
            "rate": 1.0, "policies": ["DT", "BRUTE"], "out_dir": "o"})
        run_config(cfg)
        assert seen == [DEFAULT_PARAMS, DEFAULT_PARAMS]

    @pytest.mark.parametrize("kind, doc", [
        ("fixed_modes", {"schedule": one_relay_schedule_doc()}),
        ("adaptive_compare", {"schedule": one_relay_schedule_doc(),
                              "policies": ["DT", "Fixed:R1"]}),
        ("mac_compare", {"topology": topo_doc(), "n_packets": 10})])
    def test_rate_zero_runs_where_the_kind_runs_it(self, tmp_path, kind, doc):
        cfg = write_yaml(tmp_path / "c.yaml", {"kind": kind, "rate": 0, **doc})
        assert validate_config(cfg).startswith("ok:")
        assert len(run_config(cfg, out_dir=str(tmp_path / "o"))) >= 2

    def test_integral_float_counts_accepted(self, tmp_path):
        cfg = write_yaml(tmp_path / "c.yaml", {
            "kind": "mac_compare", "topology": topo_doc(), "rate": 1.0,
            "n_packets": 10.0, "seed": 2.0, "mac": {"max_retx_coop": 1.0},
            "params": {"r": 2.0}})
        assert validate_config(cfg).startswith("ok:")

    def test_one_mode_policies_run(self, tmp_path):
        # BRUTE probes its one mode; only SPA and PWR2 need more modes
        cfg = write_yaml(tmp_path / "c.yaml", {
            "kind": "adaptive_compare", "schedule": one_relay_schedule_doc(),
            "rate": 1.0, "policies": ["DT", "BRUTE", "RandPick", "NRNM", "WRNM",
                                      "Fixed:R1"]})
        assert main(["validate", cfg]) == 0
        assert main(["run", "--config", cfg, "--out-dir", str(tmp_path / "o")]) == 0

    def test_list_kinds(self, capsys):
        assert main(["validate", "--list"]) == 0
        out = capsys.readouterr().out
        assert len(list_experiments()) == 6
        for kind in ("outage_sweep", "fixed_modes", "adaptive_compare",
                     "ensemble", "mac_compare", "mac_replay"):
            assert kind in out


class TestOutageCommand:
    def test_flags_write_csv_and_manifest(self, tmp_path):
        topo = write_yaml(tmp_path / "t.yaml", topo_doc())
        out = tmp_path / "sweep.csv"
        rc = main(["outage", "--topology", topo, "--rate", "1.0", "--k", "0,1,2",
                   "--snr-grid", "0:10:5", "--out", str(out)])
        assert rc == 0
        rows = read_rows(out)
        assert rows[0] == ["snr_db", "k", "subset", "outage", "method"]
        assert len(rows) == 1 + 3 * 3
        manifest = json.loads((tmp_path / "sweep.csv.manifest.json").read_text())
        assert manifest["kind"] == "outage_sweep"

    def test_rerun_byte_identical(self, tmp_path):
        topo = write_yaml(tmp_path / "t.yaml", topo_doc())
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            rc = main(["outage", "--topology", topo, "--rate", "1.0",
                       "--k", "0,1", "--method", "montecarlo", "--seed", "3",
                       "--snr-grid", "0,6", "--out", str(out)])
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_analytic_sweep_runs_just_below_the_rate_limit(self, tmp_path):
        # 2^R - 1 is above half the largest float at rate 1023.5
        cfg = write_yaml(tmp_path / "c.yaml", {
            "kind": "outage_sweep", "topology": topo_doc(), "rate": 1023.5,
            "k_values": [0, 1, 2], "snr_grid": [0.0, 10.0], "out_dir": "o"})
        assert main(["run", "--config", cfg]) == 0
        rows = read_rows(tmp_path / "o" / "outage.csv")[1:]
        assert len(rows) == 6
        assert all(0.0 <= float(row[3]) <= 1.0 for row in rows)


class TestRunCommand:
    def test_runlog_columns(self, tmp_path):
        sched = write_yaml(tmp_path / "s.yaml", schedule_doc())
        out = tmp_path / "log.csv"
        rc = main(["run", "--policy", "SPA", "--schedule", sched,
                   "--rate", "1.0", "--seed", "1", "--out", str(out)])
        assert rc == 0
        rows = read_rows(out)
        assert rows[0] == ["frame_index", "mode", "category", "phase",
                           "cumulative_switches"]
        assert len(rows) == 1 + 860

    def test_runtime_error_names_its_type(self, tmp_path, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise TypeError("boom")
        monkeypatch.setattr("coopsim.experiments.run_config", fail)
        cfg = write_yaml(tmp_path / "c.yaml", {
            "kind": "outage_sweep", "topology": topo_doc(), "rate": 1.0,
            "k_values": [0], "snr_grid": [0.0]})
        assert main(["run", "--config", cfg]) == 3
        assert capsys.readouterr().err == "error: TypeError: boom\n"


def write_mac_traces(directory):
    """coop.csv, a 300-frame coop trace ending on a delivered packet, and
    paths.csv, path traces of 40 packets over S-D and S-R1-D, in directory."""
    rng = np.random.default_rng(6)
    modes = [None] + enumerate_modes(2)
    write_trace(directory / "coop.csv", [modes[f % 4] for f in range(300)],
                rng.integers(0, 3, size=299).tolist() + [0])
    hops = rng.random((2, 40, 5)) < 0.5
    with open(directory / "paths.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["path", "hop", "packet", "attempt", "success"])
        for label, n_hops in (("S-D", 1), ("S-R1-D", 2)):
            w.writerows([label, h, p, a, int(hops[h, p, a])]
                        for h in range(n_hops) for p in range(40) for a in range(5))


def flags_and_config(tmp_path):
    """For each flag subcommand: its argv, the equivalent config document
    (paths relative to tmp_path) and the config run's primary output."""
    write_yaml(tmp_path / "t.yaml", topo_doc())
    write_yaml(tmp_path / "s.yaml", schedule_doc())
    for name, topo in zip(("a.yaml", "b.yaml"), schedule_doc()["topologies"]):
        write_yaml(tmp_path / name, topo)
    write_mac_traces(tmp_path)
    return {
        "outage": (
            ["outage", "--topology", str(tmp_path / "t.yaml"), "--rate", "1.0",
             "--k", "0,1,2", "--method", "montecarlo", "--seed", "3",
             "--snr-grid", "0,6,12"],
            {"kind": "outage_sweep", "seed": 3, "topology": "t.yaml",
             "rate": 1.0, "k_values": [0, 1, 2], "snr_grid": [0.0, 6.0, 12.0],
             "method": "montecarlo"},
            "outage.csv"),
        "run": (
            ["run", "--policy", "SPA", "--schedule", str(tmp_path / "s.yaml"),
             "--rate", "1.0", "--seed", "7"],
            {"kind": "adaptive_compare", "seed": 7, "schedule": "s.yaml",
             "rate": 1.0, "policies": ["SPA"]},
            "runlog_SPA.csv"),
        "ensemble": (
            ["ensemble", "--topologies",
             f"{tmp_path / 'a.yaml'},{tmp_path / 'b.yaml'}",
             "--policies", "SPA,Fixed:R1", "--rate", "1.0",
             "--frames-per-topology", "120", "--segment-len", "40",
             "--transitions", "2", "--samples", "6", "--seed", "5"],
            {"kind": "ensemble", "seed": 5, "topologies": ["a.yaml", "b.yaml"],
             "rate": 1.0, "frames_per_topology": 120, "segment_len": 40,
             "n_transitions": 2, "n_samples": 6, "policies": ["SPA", "Fixed:R1"]},
            "ensemble.csv"),
        "mac": (
            ["mac", "--coop-trace", str(tmp_path / "coop.csv"),
             "--path-traces", str(tmp_path / "paths.csv"), "--max-retx", "1",
             "--max-retx-per-link", "3"],
            {"kind": "mac_replay", "coop_trace": "coop.csv",
             "path_traces": "paths.csv",
             "mac": {"max_retx_coop": 1, "max_retx_per_link": 3}},
            "packets_coop.csv"),
    }


# For each kind, a small config and the names of some of its outputs, the
# first output first.
WRITES = {
    "outage_sweep": ({"topology": topo_doc(), "rate": 1.0, "k_values": [0, 1],
                      "snr_grid": [0.0]}, ["outage.csv", "manifest.json"]),
    "fixed_modes": ({"schedule": one_relay_schedule_doc(), "rate": 1.0},
                    ["trace_DT.csv", "trace_R1.csv", "summary.csv"]),
    "adaptive_compare": ({"schedule": one_relay_schedule_doc(), "rate": 1.0,
                          "policies": ["DT", "Fixed:R1"]},
                         ["runlog_DT.csv", "summary.csv"]),
    "ensemble": ({"topologies": schedule_doc()["topologies"], "rate": 1.0,
                  "frames_per_topology": 50, "segment_len": 10, "n_samples": 2,
                  "policies": ["SPA"]},
                 ["ensemble.csv", "dataset.csv", "samples.csv"]),
    "mac_compare": ({"topology": topo_doc(), "rate": 1.0, "n_packets": 10},
                    ["mac_compare.csv", "packets_coop.csv", "packets_genie.csv"]),
    "mac_replay": ({"coop_trace": "coop.csv", "path_traces": "paths.csv"},
                   ["packets_coop.csv", "packets_genie.csv"]),
}


class TestWriteFailures:
    @pytest.mark.parametrize("kind, name", [
        (kind, name) for kind, (_, names) in WRITES.items() for name in names])
    def test_write_failure_is_an_io_error_naming_the_file(self, tmp_path, capsys,
                                                          kind, name):
        write_mac_traces(tmp_path)
        cfg = write_yaml(tmp_path / "c.yaml", {"kind": kind, "out_dir": "o",
                                               **WRITES[kind][0]})
        blocked = tmp_path / "o" / name
        blocked.mkdir(parents=True)
        assert main(["run", "--config", cfg]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: IoError: {blocked}: ")
        assert "Traceback" not in err
        assert err.count("\n") == 1

    def test_out_dir_that_is_a_file_is_an_io_error(self, tmp_path, capsys):
        cfg = write_yaml(tmp_path / "c.yaml", {"kind": "outage_sweep", "out_dir": "o",
                                               **WRITES["outage_sweep"][0]})
        (tmp_path / "o").write_text("")
        assert main(["run", "--config", cfg]) == 3
        assert capsys.readouterr().err.startswith(
            f"error: IoError: {tmp_path / 'o' / 'outage.csv'}: ")


class TestFlagPipeline:
    @pytest.mark.parametrize("command, threads", [
        ("outage", 1), ("outage", 2), ("run", 1), ("ensemble", 1), ("ensemble", 2),
        ("mac", 1)])
    def test_flags_write_what_the_config_writes(self, tmp_path, command, threads):
        argv, doc, primary = flags_and_config(tmp_path)[command]
        out = tmp_path / "flags" / "out.csv"
        assert main(argv + ["--threads", str(threads), "--out", str(out)]) == 0
        cfg = write_yaml(tmp_path / "c.yaml", {**doc, "out_dir": "cfg"})
        cfg_files = run_config(cfg, threads=threads)[:-1]  # manifest last
        assert os.path.basename(cfg_files[0]) == primary
        # first output at --out, every other one at <out>.<name>
        flag_files = [str(out)] + [f"{out}.{os.path.basename(f)}"
                                   for f in cfg_files[1:]]
        assert ([Path(f).read_bytes() for f in flag_files]
                == [Path(f).read_bytes() for f in cfg_files])
        manifest = json.loads(Path(f"{out}.manifest.json").read_text())
        assert manifest["outputs"] == [os.path.basename(f) for f in flag_files]

    @pytest.mark.parametrize("command, flags, override, message", [
        ("ensemble", ["--samples", "0"], {"n_samples": 0},
         "need at least one sample"),
        ("ensemble", ["--policies", "BOGUS"], {"policies": ["BOGUS"]},
         "unknown policy 'BOGUS'"),
        ("outage", ["--snr-grid", "10,0"], {"snr_grid": [10.0, 0.0]},
         "strictly ascending"),
        ("outage", ["--rate", "inf"], {"rate": float("inf")},
         "rate must be finite"),
        ("run", ["--rate", "-1"], {"rate": -1.0}, "rate must be finite"),
        ("run", ["--rate", "1024"], {"rate": 1024.0}, "rate must be finite"),
        ("outage", ["--rate", "1024"], {"rate": 1024.0}, "rate must be finite"),
        ("ensemble", ["--rate", "nan"], {"rate": float("nan")},
         "rate must be finite"),
        ("outage", ["--snr-grid", "0:10"], {"snr_grid": {"start": 0.0, "stop": 10.0}},
         "must be start:stop:step or a list of numbers"),
        ("outage", ["--snr-grid", "a,b"], {"snr_grid": ["a", "b"]},
         "must be start:stop:step or a list of numbers"),
        ("outage", ["--k", "a"], {"k_values": ["a"]},
         "must be a list of integers"),
        ("outage", ["--snr-grid", "nan"], {"snr_grid": [float("nan")]},
         "snr_grid values must be finite"),
        ("outage", ["--snr-grid", "0,inf"], {"snr_grid": [0.0, float("inf")]},
         "snr_grid values must be finite"),
        ("outage", ["--snr-grid", "nan:10:5"],
         {"snr_grid": {"start": float("nan"), "stop": 10.0, "step": 5.0}},
         "snr_grid needs finite start, stop and step"),
        ("outage", ["--snr-grid", "0:inf:5"],
         {"snr_grid": {"start": 0.0, "stop": float("inf"), "step": 5.0}},
         "snr_grid needs finite start, stop and step"),
        ("outage", ["--snr-grid", "0:10:1e-12"],
         {"snr_grid": {"start": 0.0, "stop": 10.0, "step": 1e-12}},
         "snr_grid range has 10,000,000,000,001 points, more than 100,000"),
        ("mac", ["--max-retx", "-1"],
         {"mac": {"max_retx_coop": -1, "max_retx_per_link": 4}},
         "mac: retransmission limits must be >= 0"),
        ("mac", ["--max-retx-per-link", "-2"],
         {"mac": {"max_retx_coop": 2, "max_retx_per_link": -2}},
         "mac: retransmission limits must be >= 0"),
        ("run", ["--seed", "-1"], {"seed": -1}, "seed must be >= 0, got -1"),
        ("outage", ["--method", "bogus"], {"method": "bogus"},
         "unknown method 'bogus'"),
        ("outage", ["--normalization", "bogus"], {"normalization": "bogus"},
         "unknown normalization 'bogus'"),
    ])
    def test_flags_reject_what_the_config_rejects(self, tmp_path, capsys,
                                                  command, flags, override,
                                                  message):
        argv, doc, _ = flags_and_config(tmp_path)[command]
        assert main(argv + flags + ["--out", str(tmp_path / "o" / "x.csv")]) == 2
        assert message in capsys.readouterr().err
        cfg = write_yaml(tmp_path / "c.yaml", {**doc, **override, "out_dir": "o"})
        assert main(["run", "--config", cfg]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, flag", [
        ("outage", "topology"), ("outage", "rate"), ("outage", "k"),
        ("outage", "snr-grid"), ("run", "policy"), ("run", "schedule"),
        ("run", "rate"), ("ensemble", "topologies"), ("ensemble", "policies"),
        ("ensemble", "rate"),
    ])
    def test_each_required_flag_is_required_without_config(
            self, tmp_path, capsys, monkeypatch, command, flag):
        argv, _, _ = flags_and_config(tmp_path)[command]
        at = argv.index(f"--{flag}")
        monkeypatch.chdir(tmp_path)  # where the default --out would go
        before = sorted(os.listdir(tmp_path))
        assert main(argv[:at] + argv[at + 2:]) == 2
        assert capsys.readouterr().err == (
            f"error: {command}: --{flag} is required without --config\n")
        assert sorted(os.listdir(tmp_path)) == before

    def test_validate_needs_a_config_path(self, capsys):
        assert main(["validate"]) == 2
        assert capsys.readouterr().err == "error: validate: config path required\n"

    @pytest.mark.parametrize("command", ["outage", "run", "ensemble", "mac"])
    def test_manifest_echoes_only_the_given_flags(self, tmp_path, command):
        argv, doc, _ = flags_and_config(tmp_path)[command]
        out = tmp_path / "flags" / "out.csv"
        assert main(argv + ["--out", str(out)]) == 0
        config = json.loads(Path(f"{out}.manifest.json").read_text())["config"]
        assert sorted(config) == sorted(set(doc) - {"seed"})

    def test_schedule_file_paths_resolve_against_its_directory(
            self, tmp_path, monkeypatch):
        sub = tmp_path / "sub"
        sub.mkdir()
        for name, topo in zip(("a.yaml", "b.yaml"), schedule_doc()["topologies"]):
            write_yaml(sub / name, topo)
        write_yaml(sub / "s.yaml", {**schedule_doc(),
                                    "topologies": ["a.yaml", "b.yaml"]})
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--policy", "DT", "--schedule", "sub/s.yaml",
                     "--rate", "1.0", "--out", "log.csv"]) == 0
        assert len(read_rows(tmp_path / "log.csv")) == 1 + 860
        cfg = write_yaml(tmp_path / "c.yaml", {
            "kind": "adaptive_compare", "schedule": "sub/s.yaml",
            "rate": 1.0, "policies": ["DT"]})
        assert validate_config(cfg).startswith("ok:")


class TestRunConfig:
    def test_adaptive_compare_section62_shape(self, tmp_path):
        # 3 relays, 5 segments x 172 frames, default parameters
        cfg = write_yaml(tmp_path / "c.yaml", {
            "kind": "adaptive_compare", "seed": 9,
            "schedule": schedule_doc(), "rate": 1.0, "strategy": "DIQIF",
            "policies": ["SPA", "DT", "Fixed:R1"], "out_dir": "res"})
        files = run_config(cfg)
        names = sorted(os.path.basename(f) for f in files)
        assert "manifest.json" in names
        assert "runlog_SPA.csv" in names
        assert "runlog_DT.csv" in names
        assert "runlog_Fixed_R1.csv" in names
        assert "summary.csv" in names
        for f in files:
            if f.endswith("runlog_SPA.csv"):
                assert len(read_rows(f)) == 861

    def test_rerun_byte_identical_all_outputs(self, tmp_path):
        doc = {"kind": "fixed_modes", "seed": 4, "schedule": schedule_doc(),
               "rate": 1.0, "modes": ["DT", "R1", "R1R2"], "out_dir": "o"}
        cfg = write_yaml(tmp_path / "c.yaml", doc)
        first = {os.path.basename(f): Path(f).read_bytes()
                 for f in run_config(cfg)}
        second = {os.path.basename(f): Path(f).read_bytes()
                  for f in run_config(cfg)}
        assert first == second

    def test_mac_compare_outputs(self, tmp_path):
        cfg = write_yaml(tmp_path / "c.yaml", {
            "kind": "mac_compare", "seed": 2,
            "topology": {"label": "dl", "n_relays": 3, "units": "linear",
                         "snr_sd": 0.35, "snr_sr": [0.15] * 3,
                         "snr_rd": [30.0] * 3},
            "rate": 1.0, "n_packets": 200, "out_dir": "m"})
        files = run_config(cfg)
        names = {os.path.basename(f) for f in files}
        assert {"mac_compare.csv", "packets_coop.csv", "packets_genie.csv",
                "manifest.json"} <= names
        rows = read_rows([f for f in files if f.endswith("mac_compare.csv")][0])
        assert rows[0] == ["system", "drop_rate", "throughput_bits_per_s"]
        assert {r[0] for r in rows[1:]} == {"coop", "genie"}

    @pytest.mark.parametrize("mode_policy", ["RandPick", "PWR2"])
    def test_mac_compare_runs_policies_that_draw(self, tmp_path, mode_policy):
        cfg = write_yaml(tmp_path / "c.yaml", {
            "kind": "mac_compare", "seed": 3, "topology": topo_doc(),
            "rate": 1.0, "n_packets": 20, "mode_policy": mode_policy})
        assert main(["validate", cfg]) == 0
        runs = []
        for out in ("a", "b"):
            assert main(["run", "--config", cfg, "--out-dir", out]) == 0
            runs.append({name: (tmp_path / out / name).read_bytes() for name in
                         ("mac_compare.csv", "packets_coop.csv", "packets_genie.csv")})
        assert runs[0] == runs[1]

    def test_packet_csv_is_csv_writer_rows(self, tmp_path):
        results = [PacketResult(True, 180.0, 1, "a,b"),
                   PacketResult(True, 372.0, 1, 'say "hi"'),
                   PacketResult(True, 744.0, 2, "line\nbreak"),
                   PacketResult(False, 1116.0, 3, ""),
                   PacketResult(True, 180.0, 1, "a,b"),
                   PacketResult(True, 552.0, 2, "direct")]
        experiments._write_packets(tmp_path / "bulk.csv", results)
        write_packets_csv_rows(tmp_path / "rows.csv", results)
        assert (tmp_path / "bulk.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()

    @pytest.mark.parametrize("kind, canonical, lower", [
        ("adaptive_compare", ["SPA", "RandPick", "Fixed:R1"], ["spa", "randpick", "fixed:r1"]),
        ("ensemble", ["SPA", "RandPick", "Fixed:R1"], ["spa", "randpick", "fixed:r1"]),
        ("mac_compare", "RandPick", "randpick"),
    ])
    def test_policy_spelling_does_not_change_outputs(self, tmp_path, kind, canonical,
                                                     lower):
        # streams, labels and file names key on the policy's canonical name
        doc = {
            "adaptive_compare": {"schedule": schedule_doc(), "rate": 1.0},
            "ensemble": {"topologies": schedule_doc()["topologies"], "rate": 1.0,
                         "frames_per_topology": 60, "segment_len": 20,
                         "n_transitions": 2, "n_samples": 3},
            "mac_compare": {"topology": topo_doc(), "rate": 1.0, "n_packets": 200},
        }[kind]
        key = "mode_policy" if kind == "mac_compare" else "policies"
        runs = []
        for out, policies in (("canonical", canonical), ("lower", lower)):
            cfg = write_yaml(tmp_path / f"{out}.yaml", {
                "kind": kind, "seed": 0, **doc, key: policies, "out_dir": out})
            files = run_config(cfg)[:-1]  # the CSVs, the manifest left out
            assert all(f.endswith(".csv") for f in files)
            runs.append({os.path.basename(f): Path(f).read_bytes() for f in files})
        assert runs[0] == runs[1]

    def test_ensemble_config(self, tmp_path):
        cfg = write_yaml(tmp_path / "c.yaml", {
            "kind": "ensemble", "seed": 5,
            "topologies": [schedule_doc()["topologies"][0],
                           schedule_doc()["topologies"][1]],
            "rate": 1.0, "frames_per_topology": 120, "segment_len": 40,
            "n_transitions": 2, "n_samples": 6,
            "policies": ["SPA", "Fixed:R1"], "out_dir": "e"})
        files = run_config(cfg)
        summary = read_rows([f for f in files if f.endswith("ensemble.csv")][0])
        assert summary[0] == ["policy", "avg_fer", "avg_switches"]
        assert len(summary) == 3

    def test_cli_exit_code_for_missing_config(self, capsys):
        assert main(["run", "--config", "does-not-exist.yaml"]) == 2

    def test_mac_subcommand_end_to_end(self, tmp_path, capsys):
        write_mac_traces(tmp_path)
        out = tmp_path / "packets.csv"
        rc = main(["mac", "--coop-trace", str(tmp_path / "coop.csv"),
                   "--path-traces", str(tmp_path / "paths.csv"), "--max-retx", "2",
                   "--out", str(out)])
        assert rc == 0
        genie = f"{out}.packets_genie.csv"
        manifest = f"{out}.manifest.json"
        assert capsys.readouterr().out.split() == [str(out), genie, manifest]
        assert read_rows(out)[0] == ["packet_index", "delivered", "attempts",
                                     "delay_us", "path_or_mode"]
        assert len(read_rows(genie)) == 41
        assert json.loads(Path(manifest).read_text())["kind"] == "mac_replay"

    def test_mac_path_traces_alone_go_to_out(self, tmp_path):
        write_mac_traces(tmp_path)
        out = tmp_path / "genie.csv"
        assert main(["mac", "--path-traces", str(tmp_path / "paths.csv"),
                     "--out", str(out)]) == 0
        assert len(read_rows(out)) == 41
        assert sorted(os.listdir(tmp_path)) == ["coop.csv", "genie.csv",
                                                "genie.csv.manifest.json",
                                                "paths.csv"]

    def test_mac_replay_config(self, tmp_path):
        write_mac_traces(tmp_path)
        cfg = write_yaml(tmp_path / "c.yaml", {
            "kind": "mac_replay", "coop_trace": "coop.csv",
            "path_traces": "paths.csv", "out_dir": "m"})
        assert validate_config(cfg) == ("ok: mac_replay of a 300-frame coop trace "
                                        "and 40 packets on 2 paths")
        files = run_config(cfg)
        assert [os.path.basename(f) for f in files] == [
            "packets_coop.csv", "packets_genie.csv", "manifest.json"]
        assert len(read_rows(files[1])) == 41

    def test_mac_needs_a_trace(self, tmp_path, capsys):
        assert main(["mac", "--out", str(tmp_path / "packets.csv")]) == 2
        assert "needs coop_trace and/or path_traces" in capsys.readouterr().err
        cfg = write_yaml(tmp_path / "c.yaml", {"kind": "mac_replay"})
        assert main(["validate", cfg]) == 2
        assert not os.path.exists(tmp_path / "packets.csv")

    def test_mac_missing_trace_file(self, tmp_path, capsys):
        cfg = write_yaml(tmp_path / "c.yaml", {"kind": "mac_replay",
                                               "coop_trace": "nope.csv"})
        assert main(["validate", cfg]) == 2
        assert "referenced coop_trace file 'nope.csv' does not exist" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("flag, text, message", [
        ("--coop-trace", "frame_index,topology_id,mode,category\n",
         "no rows after the header"),
        ("--coop-trace", "frame_index,topology_id,mode\n0,,DT\n",
         "missing column(s) category"),
        ("--path-traces", "path,hop,packet,attempt,success\n",
         "no rows after the header"),
        ("--coop-trace", "frame_index,topology_id,mode,category\n0,,DT,0\n1,,DT,x\n",
         "data row 2: category must be 0, 1 or 2, got 'x'"),
        ("--coop-trace", "frame_index,topology_id,mode,category\n0,,DT,7\n",
         "data row 1: category must be 0, 1 or 2, got '7'"),
        ("--path-traces", "path,hop,packet,attempt,success\nS-D,0,0,0,yes\n",
         "data row 1: success must be 0, 1, true or false, got 'yes'"),
        ("--path-traces", "path,hop,packet,attempt,success\nS-D,0,0,0,1\nS-D,0,x,1,0\n",
         "data row 2: hop, packet and attempt must be integers >= 0"),
        ("--path-traces", "path,hop,packet,attempt,success\nS-D,0,0,0,1\nS-D,0,2,0,0\n",
         "path 'S-D' hop 0 packet 1 is missing"),
        ("--path-traces", "path,hop,packet,attempt,success\nP,0,0,0,1\nP,0,1,0,1\n"
         "Q,0,0,0,1\n", "path 'Q' hop 0 packet 1 is missing"),
        ("--path-traces", "path,hop,packet,attempt,success\nP,1,0,0,1\n",
         "path 'P' hop 0 is missing"),
        ("--path-traces", "path,hop,packet,attempt,success\nP,0,0,0,0\nP,0,0,2,1\n",
         "path 'P' hop 0 packet 0 attempt 1 is missing"),
        ("--path-traces", "path,hop,packet,attempt,success\nS-D,0,0,0,0\nS-D,0,0,1,0\n",
         "path S-D: only 2 attempts recorded, need 5 to cover the retransmission budget"),
        # packet 0 is dropped on hop 0 and never reaches hop 1, but every
        # hop must still record the budget for every packet
        ("--path-traces", "path,hop,packet,attempt,success\n"
         + "".join(f"P,0,0,{a},0\n" for a in range(5)) + "P,1,0,0,1\n",
         "path P: only 1 attempts recorded, need 5 to cover the retransmission budget"),
        ("--coop-trace", "frame_index,topology_id,mode,category\n0,,DT,0\n1,,DT,2\n",
         "trace ended mid-packet after 1 packets"),
    ])
    def test_mac_rejects_malformed_traces(self, tmp_path, capsys, flag, text,
                                          message):
        trace = tmp_path / "trace.csv"
        trace.write_text(text)
        assert main(["mac", flag, str(trace),
                     "--out", str(tmp_path / "packets.csv")]) == 2
        err = capsys.readouterr().err
        assert str(trace) in err and message in err
        cfg = write_yaml(tmp_path / "c.yaml", {"kind": "mac_replay",
                                               flag[2:].replace("-", "_"): "trace.csv"})
        assert main(["validate", cfg]) == 2
        err = capsys.readouterr().err
        assert str(trace) in err and message in err
        assert not (tmp_path / "packets.csv").exists()

    def test_threads_do_not_change_results(self, tmp_path):
        sweep = {"kind": "outage_sweep", "seed": 1, "topology": topo_doc(),
                 "rate": 1.0, "k_values": [0, 1, 2],
                 "snr_grid": {"start": 0, "stop": 9, "step": 3}}
        mc_sweep = dict(sweep, method="montecarlo", normalization="total_power")
        replay = {"kind": "ensemble", "seed": 2,
                  "topologies": schedule_doc()["topologies"], "rate": 1.0,
                  "frames_per_topology": 60, "segment_len": 20,
                  "n_transitions": 2, "n_samples": 3,
                  "policies": ["SPA", "RandPick", "PWR2", "DT"]}
        # 3 x 61 recorded rows: a chunk boundary of the pooled recording
        # falls inside a topology
        odd_replay = dict(replay, frames_per_topology=61, topologies=[
            *replay["topologies"], dict(replay["topologies"][0], label="C")])
        for i, (doc, n_csv) in enumerate(((sweep, 1), (mc_sweep, 1), (replay, 4),
                                          (odd_replay, 4))):
            cfg = write_yaml(tmp_path / f"{i}.yaml", doc)
            outputs = []
            for threads in (1, 2, 3):
                files = run_config(cfg, out_dir=f"{i}-{threads}",
                                   threads=threads)[:-1]  # manifest last
                outputs.append({os.path.basename(f): Path(f).read_bytes()
                                for f in files})
            assert len(outputs[0]) == n_csv
            assert outputs[0] == outputs[1] == outputs[2]

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_are_rejected(self, tmp_path, capsys, threads):
        argv, doc, _ = flags_and_config(tmp_path)["outage"]
        message = f"threads must be an integer >= 1, got {threads}"
        assert main(argv + ["--threads", threads,
                            "--out", str(tmp_path / "o" / "x.csv")]) == 2
        assert message in capsys.readouterr().err
        cfg = write_yaml(tmp_path / "c.yaml", {**doc, "out_dir": "o"})
        assert main(["run", "--config", cfg, "--threads", threads]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("threads", [0, -3, 1.0, True, "2", None])
    def test_run_config_takes_threads_as_an_integer_of_at_least_one(self, tmp_path,
                                                                      threads):
        cfg = write_yaml(tmp_path / "c.yaml", {"kind": "outage_sweep", "out_dir": "o",
                                               **WRITES["outage_sweep"][0]})
        with pytest.raises(ValidationError, match=re.escape(
                f"threads must be an integer >= 1, got {threads!r}")):
            run_config(cfg, threads=threads)
        assert not (tmp_path / "o").exists()

    def test_pool_workers_are_capped_by_tasks_and_cores(self, tmp_path, monkeypatch):
        pools = []

        class SerialPool:
            """Records max_workers, and initializes and maps in this process."""
            def __init__(self, max_workers, initializer, initargs):
                pools.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(experiments._in_worker, "fn", None, raising=False)
        cfg = write_yaml(tmp_path / "c.yaml", {
            "kind": "outage_sweep", "seed": 1, "topology": topo_doc(),
            "rate": 1.0, "k_values": [0, 1],
            "snr_grid": [0.0, 3.0, 6.0, 9.0]})  # 4 tasks, one per grid point
        serial = Path(run_config(cfg, out_dir="t1", threads=1)[0]).read_bytes()
        assert pools == []
        for cores, expected in ((64, 4), (3, 3), (1, None), (None, None)):
            monkeypatch.setattr(experiments.os, "cpu_count", lambda: cores)
            out = run_config(cfg, out_dir=f"c{cores}", threads=64)[0]
            assert Path(out).read_bytes() == serial
            assert pools == ([] if expected is None else [expected])
            pools.clear()

    def test_pool_sends_fn_once_per_worker(self, monkeypatch):
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(CountsPickles, "pickled", 0)
        fn, tasks = CountsPickles(), [(i, i + 1) for i in range(8)]
        assert experiments._map(fn, tasks, threads=2) == [fn(*task) for task in tasks]
        assert CountsPickles.pickled <= 2  # none under fork, one per worker otherwise
