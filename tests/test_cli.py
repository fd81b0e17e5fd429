import csv
import json
import os
import re

import pytest
import yaml

from coopsim import __version__
from coopsim.cli import main
from coopsim.experiments import (ValidationError, list_experiments,
                                 run_config, validate_config)


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


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


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

    @pytest.mark.parametrize("kind, override, message", [
        ("mac_compare", {"mode_policy": "BOGUS"}, "unknown policy 'BOGUS'"),
        ("mac_compare", {"n_packets": 0}, "n_packets must be >= 1"),
        ("ensemble", {"n_samples": 0}, "need at least one sample"),
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
        }[kind]
        cfg = write_yaml(tmp_path / "c.yaml", {**base, **override,
                                               "out_dir": "o"})
        assert main(["validate", cfg]) == 2
        assert message in capsys.readouterr().err
        assert main(["run", "--config", cfg]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_list_kinds(self, capsys):
        assert main(["validate", "--list"]) == 0
        out = capsys.readouterr().out
        assert len(list_experiments()) == 5
        for kind in ("outage_sweep", "fixed_modes", "adaptive_compare",
                     "ensemble", "mac_compare"):
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


def flags_and_config(tmp_path):
    """For each flag subcommand: its argv, the equivalent config document
    (paths relative to tmp_path) and the config run's primary output."""
    write_yaml(tmp_path / "t.yaml", topo_doc())
    write_yaml(tmp_path / "s.yaml", schedule_doc())
    for name, topo in zip(("a.yaml", "b.yaml"), schedule_doc()["topologies"]):
        write_yaml(tmp_path / name, topo)
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
    }


class TestFlagPipeline:
    @pytest.mark.parametrize("command, threads", [
        ("outage", 1), ("outage", 2), ("run", 1), ("ensemble", 1)])
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
        assert ([open(f, "rb").read() for f in flag_files]
                == [open(f, "rb").read() for f in cfg_files])
        manifest = json.loads(open(f"{out}.manifest.json").read())
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
        ("ensemble", ["--rate", "nan"], {"rate": float("nan")},
         "rate must be finite"),
        ("outage", ["--snr-grid", "0:10"], {"snr_grid": {"start": 0.0, "stop": 10.0}},
         "must be start:stop:step or a list of numbers"),
        ("outage", ["--snr-grid", "a,b"], {"snr_grid": ["a", "b"]},
         "must be start:stop:step or a list of numbers"),
        ("outage", ["--k", "a"], {"k_values": ["a"]},
         "must be a list of integers"),
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
        first = {os.path.basename(f): open(f, "rb").read()
                 for f in run_config(cfg)}
        second = {os.path.basename(f): open(f, "rb").read()
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

    def test_mac_subcommand_end_to_end(self, tmp_path):
        import numpy as np

        from coopsim.macemu import PathTrace, PathTraces, write_path_traces
        from coopsim.netsim import FrameOutcome, write_trace
        rng = np.random.default_rng(6)
        trace = [FrameOutcome(int(c)) for c in rng.integers(0, 3, size=299)]
        trace.append(FrameOutcome(0))  # end on a delivered packet
        coop_path = tmp_path / "trace.csv"
        write_trace(coop_path, trace)
        hops = tuple(
            tuple(tuple(bool(rng.random() < 0.5) for _ in range(5))
                  for _ in range(40))
            for _ in range(2))
        paths_path = tmp_path / "paths.csv"
        write_path_traces(paths_path, PathTraces((PathTrace("S-R1-D", hops),)))
        out = tmp_path / "packets.csv"
        rc = main(["mac", "--coop-trace", str(coop_path),
                   "--path-traces", str(paths_path), "--max-retx", "2",
                   "--out", str(out)])
        assert rc == 0
        assert read_rows(out)[0] == ["packet_index", "delivered", "attempts",
                                     "delay_us", "path_or_mode"]
        genie_rows = read_rows(tmp_path / "packets_genie.csv")
        assert len(genie_rows) == 41

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
    ])
    def test_mac_rejects_malformed_traces(self, tmp_path, capsys, flag, text,
                                          message):
        trace = tmp_path / "trace.csv"
        trace.write_text(text)
        assert main(["mac", flag, str(trace),
                     "--out", str(tmp_path / "packets.csv")]) == 2
        err = capsys.readouterr().err
        assert str(trace) in err and message in err

    def test_threads_do_not_change_results(self, tmp_path):
        topo = write_yaml(tmp_path / "t.yaml", topo_doc())
        doc = {"kind": "outage_sweep", "seed": 1, "topology": "t.yaml",
               "rate": 1.0, "k_values": [0, 1, 2],
               "snr_grid": {"start": 0, "stop": 9, "step": 3}}
        cfg = write_yaml(tmp_path / "c.yaml", doc)
        seq = run_config(cfg, out_dir=str(tmp_path / "seq"), threads=1)
        par = run_config(cfg, out_dir=str(tmp_path / "par"), threads=3)
        seq_csv = open([f for f in seq if f.endswith("outage.csv")][0], "rb").read()
        par_csv = open([f for f in par if f.endswith("outage.csv")][0], "rb").read()
        assert seq_csv == par_csv
