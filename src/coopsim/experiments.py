"""Config-driven experiment runner.

Experiments are YAML documents with a `kind` key; every run writes its
result CSVs plus a manifest.json echoing the config, seed and package
version, so identical config+seed reproduces byte-identical outputs.
"""
import csv
import functools
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor

import yaml

from . import __version__, ensemble, macemu, netsim, outage, selection
from .rng import named_rng
from .topology import (TopologyError, TopologySchedule, load_topology,
                       schedule_topology_at, topology_from_dict)


class ConfigParseError(Exception):
    """Config file unreadable or structurally wrong (unknown kind, missing key)."""


class ValidationError(Exception):
    """Config parsed but a parameter block fails module-level validation."""


class IoError(Exception):
    """Filesystem failure while reading inputs or writing outputs."""


EXPERIMENT_KINDS = {
    "outage_sweep": "best-subnetwork outage across an SNR grid",
    "fixed_modes": "fixed-mode frame traces over a topology schedule",
    "adaptive_compare": "selection policies over a time-varying schedule",
    "ensemble": "ensemble-average FER/switching of selection policies",
    "mac_compare": "paired coop-MAC vs genie-routing emulation",
}


def list_experiments():
    return sorted(EXPERIMENT_KINDS.items())


def _load_yaml(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = yaml.safe_load(fh)
    except FileNotFoundError as e:
        raise ConfigParseError(f"{path}: file not found") from e
    except OSError as e:
        raise IoError(f"{path}: {e}") from e
    except yaml.YAMLError as e:
        raise ConfigParseError(f"{path}: {e}") from e
    if not isinstance(doc, dict):
        raise ConfigParseError(f"{path}: expected a mapping at top level")
    return doc


def _need(doc, key, path):
    if key not in doc:
        raise ConfigParseError(f"{path}: missing required key {key!r}")
    return doc[key]


def _resolve_topology(spec, base_dir, path):
    try:
        if isinstance(spec, str):
            return load_topology(os.path.join(base_dir, spec))
        if isinstance(spec, dict):
            return topology_from_dict(spec)
    except FileNotFoundError as e:
        raise ValidationError(f"{path}: referenced topology file {spec!r} "
                              f"does not exist") from e
    except OSError as e:
        raise IoError(f"{path}: topology file: {e}") from e
    except TopologyError as e:
        raise ValidationError(f"{path}: topology: {e}") from e
    raise ConfigParseError(f"{path}: topology must be a file path or mapping")


def _resolve_schedule(spec, base_dir, path):
    if isinstance(spec, str):
        schedule_path = os.path.join(base_dir, spec)
        spec = _load_yaml(schedule_path)
        base_dir = os.path.dirname(os.path.abspath(schedule_path))
    if not isinstance(spec, dict):
        raise ConfigParseError(f"{path}: schedule must be a file path or mapping")
    topologies = {}
    for item in _need(spec, "topologies", path):
        t = _resolve_topology(item, base_dir, path)
        topologies[t.label] = t
    segments = []
    for seg in _need(spec, "segments", path):
        label = str(_need(seg, "topology", path))
        if label not in topologies:
            raise ValidationError(f"{path}: segment references unknown topology {label!r}")
        segments.append((label, int(_need(seg, "frames", path))))
    try:
        return TopologySchedule(tuple(segments)), topologies
    except TopologyError as e:
        raise ValidationError(f"{path}: schedule: {e}") from e


def _resolve_params(doc, path):
    block = doc.get("params", {}) or {}
    try:
        learn = selection.LearnParams(
            l=int(block.get("l", 1)),
            eta=float(block.get("eta", 3.0)),
            alpha=float(block.get("alpha", 0.4)),
            epsilon=float(block.get("epsilon", 0.05)),
            B=int(block.get("B", 50)),
        )
        return selection.SpaParams(
            zeta=float(block.get("zeta", 0.1)),
            r=int(block.get("r", 3)),
            w=int(block.get("w", 40)),
            delta_w=int(block.get("delta_w", 1)),
            s=int(block.get("s", 3)),
            learn=learn,
        )
    except (TypeError, ValueError) as e:
        raise ValidationError(f"{path}: params (LearnParams/SpaParams): {e}") from e


def _rate(doc, path):
    try:
        rate = float(_need(doc, "rate", path))
    except (TypeError, ValueError) as e:
        raise ValidationError(f"{path}: rate must be a number") from e
    if not math.isfinite(rate) or rate < 0:
        raise ValidationError(f"{path}: rate must be finite and >= 0, got {rate!r}")
    return rate


def _snr_grid(spec, path):
    form = f"{path}: snr_grid must be start:stop:step or a list of numbers"
    if isinstance(spec, dict):
        try:
            start, stop, step = (float(spec["start"]), float(spec["stop"]),
                                 float(spec["step"]))
        except KeyError as e:
            raise ConfigParseError(f"{form} (missing {e.args[0]!r})") from e
        except (TypeError, ValueError) as e:
            raise ConfigParseError(form) from e
        if step <= 0 or stop < start:
            raise ValidationError(f"{path}: snr_grid needs step > 0 and stop >= start")
        grid = []
        v = start
        while v <= stop + 1e-9:
            grid.append(round(v, 9))
            v += step
        return grid
    try:
        grid = [float(v) for v in spec]
    except (TypeError, ValueError) as e:
        raise ConfigParseError(form) from e
    try:
        outage.check_snr_grid(grid)
    except ValueError as e:
        raise ValidationError(f"{path}: {e}") from e
    return grid


def _write_csv(path, header, rows):
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows(rows)
    except OSError as e:
        raise IoError(f"{path}: {e}") from e


def _fmt(value):
    return repr(float(value))


def _subset_str(subset):
    return "-".join(str(i) for i in subset)


def _plan_outage_sweep(doc, path, base_dir):
    template = _resolve_topology(_need(doc, "topology", path), base_dir, path)
    rate = _rate(doc, path)
    try:
        k_values = [int(k) for k in _need(doc, "k_values", path)]
    except (TypeError, ValueError) as e:
        raise ConfigParseError(f"{path}: k_values must be a list of integers") from e
    grid = _snr_grid(_need(doc, "snr_grid", path), path)
    normalization = str(doc.get("normalization", "per_node"))
    method = str(doc.get("method", "analytic"))
    if normalization not in ("per_node", "total_power"):
        raise ValidationError(f"{path}: unknown normalization {normalization!r}")
    if method not in ("analytic", "montecarlo"):
        raise ValidationError(f"{path}: unknown method {method!r}")
    if any(k < 0 or k > template.n_relays for k in k_values):
        raise ValidationError(f"{path}: k_values outside [0, {template.n_relays}]")

    def run(place, seed, threads):
        cells = [(gi, snr_db, k) for gi, snr_db in enumerate(grid) for k in k_values]
        point = functools.partial(outage.sweep_point, template, rate,
                                  normalization=normalization, method=method,
                                  seed=seed)
        if threads > 1:
            with ProcessPoolExecutor(max_workers=threads) as pool:
                results = list(pool.map(point, *zip(*cells)))
        else:
            results = list(map(point, *zip(*cells)))
        rows = [[_fmt(snr_db), k, _subset_str(subset), _fmt(value), method]
                for (_, snr_db, k), (subset, value) in zip(cells, results)]
        out = place("outage.csv")
        _write_csv(out, ["snr_db", "k", "subset", "outage", "method"], rows)
        return [out]

    return (f"ok: outage_sweep over {len(grid)} SNR points x {len(k_values)} k "
            f"values on {template.n_relays}-relay topology {template.label!r}"), run


def _mode_slots(doc, path, n_relays):
    spec = doc.get("modes", "all")
    if spec == "all":
        return [None] + netsim.enumerate_modes(n_relays)
    try:
        return [netsim.parse_mode_key(m) for m in spec]
    except ValueError as e:
        raise ValidationError(f"{path}: modes: {e}") from e


def _schedule_summary(kind, schedule, topologies):
    return (f"ok: {kind} over {len(schedule.segments)} segments "
            f"({schedule.total_frames} frames, {len(topologies)} topologies)")


def _plan_fixed_modes(doc, path, base_dir):
    schedule, topologies = _resolve_schedule(_need(doc, "schedule", path), base_dir, path)
    rate = _rate(doc, path)
    strategy = netsim.Strategy.parse(doc.get("strategy", "DIQIF"))
    _resolve_params(doc, path)  # checked although fixed modes never learn
    n = next(iter(topologies.values())).n_relays
    slots = _mode_slots(doc, path, n)

    def run(place, seed, threads):
        labels = [schedule_topology_at(schedule, f) for f in range(schedule.total_frames)]
        outputs = []
        summary = []
        for slot in slots:
            rng = named_rng(seed, "fixed", netsim.mode_key_str(slot))
            outcomes = netsim.run_fixed(schedule, topologies, slot, strategy, rate, rng)
            out = place(f"trace_{netsim.mode_key_str(slot)}.csv")
            netsim.write_trace(out, outcomes, labels)
            outputs.append(out)
            fer = sum(1 for o in outcomes if o.category == 2) / len(outcomes)
            summary.append([netsim.mode_key_str(slot), _fmt(fer)])
        out = place("summary.csv")
        _write_csv(out, ["mode", "fer"], summary)
        outputs.append(out)
        return outputs

    return _schedule_summary("fixed_modes", schedule, topologies), run


def _schedule_executor(schedule, topologies, strategy, rate, rng):
    counter = {"f": 0}

    def execute(mode_key):
        label = schedule_topology_at(schedule, counter["f"])
        counter["f"] += 1
        return netsim.simulate_frame(topologies[label], mode_key, strategy,
                                     rate, rng).category

    return execute


def _resolve_policies(doc, path):
    policies = [str(p) for p in _need(doc, "policies", path)]
    try:
        for policy in policies:
            selection.policy_key(policy)
    except ValueError as e:
        raise ValidationError(f"{path}: {e}") from e
    return policies


def _plan_adaptive_compare(doc, path, base_dir):
    schedule, topologies = _resolve_schedule(_need(doc, "schedule", path), base_dir, path)
    rate = _rate(doc, path)
    strategy = netsim.Strategy.parse(doc.get("strategy", "DIQIF"))
    params = _resolve_params(doc, path)
    policies = _resolve_policies(doc, path)
    modes = netsim.enumerate_modes(next(iter(topologies.values())).n_relays)

    def run(place, seed, threads):
        outputs = []
        summary = []
        for policy in policies:
            exec_rng = named_rng(seed, "frames", policy)
            policy_rng = named_rng(seed, "policy", policy)
            executor = _schedule_executor(schedule, topologies, strategy, rate, exec_rng)
            log = selection.run_policy(policy, executor, modes, params,
                                       total_frames=schedule.total_frames,
                                       rng=policy_rng)
            out = place(f"runlog_{log.policy.replace(':', '_')}.csv")
            _write_csv(out, ["frame_index", "mode", "category", "phase",
                             "cumulative_switches"], log.to_rows())
            outputs.append(out)
            summary.append([log.policy, _fmt(log.fer), log.switch_count,
                            len(log.triggers)])
        out = place("summary.csv")
        _write_csv(out, ["policy", "fer", "switches", "triggers"], summary)
        outputs.append(out)
        return outputs

    return _schedule_summary("adaptive_compare", schedule, topologies), run


def _plan_ensemble(doc, path, base_dir):
    topo_specs = _need(doc, "topologies", path)
    topologies = [_resolve_topology(s, base_dir, path) for s in topo_specs]
    if len({t.label for t in topologies}) != len(topologies):
        raise ValidationError(f"{path}: ensemble topologies need distinct labels")
    rate = _rate(doc, path)
    strategy = netsim.Strategy.parse(doc.get("strategy", "DIQIF"))
    frames = int(doc.get("frames_per_topology", 860))
    n_transitions = int(doc.get("n_transitions", 4))
    segment_len = int(doc.get("segment_len", 172))
    n_samples = int(doc.get("n_samples", 200))
    try:
        ensemble.check_sampling(n_samples, segment_len, frames)
    except ValueError as e:
        raise ValidationError(f"{path}: {e}") from e
    params = _resolve_params(doc, path)
    policies = _resolve_policies(doc, path)

    def run(place, seed, threads):
        dataset = ensemble.record_dataset(topologies, strategy, rate, frames,
                                          named_rng(seed, "dataset"))
        samples = ensemble.make_ensemble(dataset, n_samples, n_transitions,
                                         segment_len, seed)
        summary = []
        sample_rows = []
        for policy in policies:
            try:
                res = ensemble.evaluate_on_ensemble(policy, samples, dataset,
                                                    params, seed=seed)
            except selection.UnknownPolicyError as e:
                # a fixed mode the dataset did not record
                raise ValidationError(f"{path}: {e}") from e
            summary.append([res.policy, _fmt(res.avg_fer), _fmt(res.avg_switches)])
            for idx, fer, switches, n_frames in res.rows:
                sample_rows.append([res.policy, idx, _fmt(fer), switches, n_frames])
        out1 = place("ensemble.csv")
        _write_csv(out1, ["policy", "avg_fer", "avg_switches"], summary)
        out2 = place("sample_metrics.csv")
        _write_csv(out2, ["policy", "sample", "fer", "switches", "n_frames"],
                   sample_rows)
        out3 = place("dataset.csv")
        ensemble.write_dataset_csv(out3, dataset)
        out4 = place("samples.csv")
        ensemble.write_samples_csv(out4, samples)
        return [out1, out2, out3, out4]

    return (f"ok: ensemble of {n_samples} samples over {len(topologies)} "
            f"topologies x {len(policies)} policies"), run


def _plan_mac_compare(doc, path, base_dir):
    topology = _resolve_topology(_need(doc, "topology", path), base_dir, path)
    rate = _rate(doc, path)
    mac_block = doc.get("mac", {}) or {}
    try:
        policy = macemu.MacPolicy(
            max_retx_coop=int(mac_block.get("max_retx_coop", 2)),
            max_retx_per_link=int(mac_block.get("max_retx_per_link", 4)),
        )
        scenario = macemu.CoopVsRoutingScenario(
            topology=topology,
            rate=rate,
            n_packets=int(_need(doc, "n_packets", path)),
            strategy=netsim.Strategy.parse(doc.get("strategy", "DIQIF")),
            mode_policy=str(doc.get("mode_policy", "SPA")),
            spa_params=_resolve_params(doc, path),
        )
    except ValueError as e:
        raise ValidationError(f"{path}: mac_compare: {e}") from e

    def run(place, seed, threads):
        report = macemu.compare_coop_vs_genie(scenario, policy, seed=seed)
        out1 = place("mac_compare.csv")
        _write_csv(out1, ["system", "drop_rate", "throughput_bits_per_s"], [
            ["coop", _fmt(report.coop_drop_rate), _fmt(report.coop_throughput)],
            ["genie", _fmt(report.genie_drop_rate), _fmt(report.genie_throughput)],
        ])
        out2 = place("packets_coop.csv")
        macemu.write_packet_csv(out2, report.coop_results)
        out3 = place("packets_genie.csv")
        macemu.write_packet_csv(out3, report.genie_results)
        return [out1, out2, out3]

    return f"ok: mac_compare of {scenario.n_packets} packets on {topology.label!r}", run


_PLANS = {
    "outage_sweep": _plan_outage_sweep,
    "fixed_modes": _plan_fixed_modes,
    "adaptive_compare": _plan_adaptive_compare,
    "ensemble": _plan_ensemble,
    "mac_compare": _plan_mac_compare,
}


def _plan(doc, path, base_dir):
    """Resolve and check everything the run of a config document needs.

    Returns (kind, summary, run), where run(place, seed, threads) executes
    the experiment, writes each output `name` to the file place(name), and
    returns the files it wrote.
    """
    kind = str(_need(doc, "kind", path))
    if kind not in EXPERIMENT_KINDS:
        raise ConfigParseError(
            f"{path}: unknown experiment kind {kind!r}; expected one of "
            f"{', '.join(sorted(EXPERIMENT_KINDS))}")
    summary, run = _PLANS[kind](doc, path, base_dir)
    return kind, summary, run


def validate_config(path):
    """All structural and parameter validation of a run, without running it.

    Returns a one-line summary of the planned work.
    """
    return _plan(_load_yaml(path), path, os.path.dirname(os.path.abspath(path)))[1]


def write_manifest(path, kind, seed, config, outputs):
    """Write the JSON manifest of a run (kind, seed, package version, the
    config document and the output file names) to path; returns path."""
    manifest = {"kind": kind, "seed": seed, "version": __version__,
                "config": config, "outputs": [os.path.basename(p) for p in outputs]}
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as e:
        raise IoError(f"{path}: {e}") from e
    return path


def run_experiment(doc, path, base_dir, place, seed=None, threads=1):
    """Plan and run the experiment document doc.

    path names the document in error messages, and relative input paths
    resolve against base_dir. Each output `name` (the manifest's is
    "manifest.json") goes to the file place(name); its directory is
    created only once the whole document has been checked. seed overrides
    the document's seed. Returns the written files, manifest last.
    """
    kind, _, run = _plan(doc, path, base_dir)
    seed = int(doc.get("seed", 0)) if seed is None else int(seed)

    def place_in_dir(name):
        out = place(name)
        try:
            os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
        except OSError as e:
            raise IoError(f"{out}: {e}") from e
        return out

    outputs = run(place_in_dir, seed, max(1, int(threads)))
    return outputs + [write_manifest(place_in_dir("manifest.json"), kind, seed,
                                     doc, outputs)]


def run_config(path, out_dir=None, seed=None, threads=1):
    """Execute the experiment described by the config file.

    Returns the list of written files (manifest last). out_dir and seed
    override the config's values when given; a relative out_dir is taken
    from the config's directory.
    """
    doc = _load_yaml(path)
    base_dir = os.path.dirname(os.path.abspath(path))
    out_dir = os.path.join(base_dir, out_dir or doc.get("out_dir") or ".")
    return run_experiment(doc, path, base_dir,
                          lambda name: os.path.join(out_dir, name), seed, threads)
