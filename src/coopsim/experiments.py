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
                       sample_channels, topology_from_dict)


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
    "mac_replay": "MAC delivery over a recorded coop trace and/or path traces",
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


def _int(value, what, path):
    """value as an int; anything but an int or an integral float (2.5, "3",
    true) is a ConfigParseError naming what."""
    if isinstance(value, bool) or not (isinstance(value, int) or (
            isinstance(value, float) and value.is_integer())):
        raise ConfigParseError(f"{path}: {what} must be an integer, got {value!r}")
    return int(value)


def _list(doc, key, path):
    """doc[key], which must be a list; ConfigParseError naming key."""
    value = _need(doc, key, path)
    if not isinstance(value, (list, tuple)):
        raise ConfigParseError(f"{path}: {key} must be a list, got {value!r}")
    return value


def _mapping(value, allowed, where, path):
    """value ({} if None), which must be a mapping whose keys are all in
    allowed; ConfigParseError naming the first other key."""
    value = {} if value is None else value
    if not isinstance(value, dict):
        raise ConfigParseError(f"{path}: {where} must be a mapping")
    unknown = [k for k in value if k not in allowed]
    if unknown:
        raise ConfigParseError(f"{path}: unknown {where} key {unknown[0]!r}; "
                               f"expected one of {', '.join(sorted(allowed))}")
    return value


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
    _mapping(spec, ("topologies", "segments"), "schedule", path)
    topologies = {}
    for item in _list(spec, "topologies", path):
        t = _resolve_topology(item, base_dir, path)
        topologies[t.label] = t
    segments = []
    for seg in _list(spec, "segments", path):
        if not isinstance(seg, dict):
            raise ConfigParseError(f"{path}: segments entries must be mappings, "
                                   f"got {seg!r}")
        _mapping(seg, ("topology", "frames"), "segment", path)
        label = str(_need(seg, "topology", path))
        if label not in topologies:
            raise ValidationError(f"{path}: segment references unknown topology {label!r}")
        segments.append((label, _int(_need(seg, "frames", path), "segment frames", path)))
    try:
        return TopologySchedule(tuple(segments)), topologies
    except TopologyError as e:
        raise ValidationError(f"{path}: schedule: {e}") from e


_PARAMS_KEYS = ("l", "eta", "alpha", "epsilon", "B", "zeta", "r", "w", "delta_w", "s")


def _resolve_params(doc, path):
    block = _mapping(doc.get("params"), _PARAMS_KEYS, "params", path)

    def integer(key, default):
        return _int(block.get(key, default), f"params {key}", path)

    try:
        learn = selection.LearnParams(
            l=integer("l", 1),
            eta=float(block.get("eta", 3.0)),
            alpha=float(block.get("alpha", 0.4)),
            epsilon=float(block.get("epsilon", 0.05)),
            B=integer("B", 50),
        )
        return selection.SpaParams(
            zeta=float(block.get("zeta", 0.1)),
            r=integer("r", 3),
            w=integer("w", 40),
            delta_w=integer("delta_w", 1),
            s=integer("s", 3),
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


def _strategy(doc, path):
    try:
        return netsim.Strategy.parse(doc.get("strategy", "DIQIF"))
    except ValueError as e:
        raise ValidationError(f"{path}: {e}") from e


def _relay_count(topologies, path):
    """The relay count, one or more, that the topologies, one or more, all
    share: the policies choose among one set of modes."""
    counts = sorted({t.n_relays for t in topologies})
    if len(counts) != 1:
        raise ValidationError(f"{path}: need one or more topologies with the same "
                              f"relay count, got relay counts {counts}")
    if counts[0] < 1:
        raise ValidationError(f"{path}: the policies need at least one relay, got 0")
    return counts[0]


_MAX_SNR_POINTS = 100_000


def _snr_grid(spec, path):
    form = f"{path}: snr_grid must be start:stop:step or a list of numbers"
    try:
        if isinstance(spec, dict):
            start, stop, step = (float(spec[k]) for k in ("start", "stop", "step"))
        else:
            grid = [float(v) for v in spec]
    except KeyError as e:
        raise ConfigParseError(f"{form} (missing {e.args[0]!r})") from e
    except (TypeError, ValueError) as e:
        raise ConfigParseError(form) from e
    if isinstance(spec, dict):
        if not (all(map(math.isfinite, (start, stop, step))) and step > 0
                and stop >= start):
            raise ValidationError(f"{path}: snr_grid needs finite start, stop and "
                                  f"step, step > 0 and stop >= start")
        points = (stop - start) / step + 1
        if points > _MAX_SNR_POINTS:
            raise ValidationError(f"{path}: snr_grid range has {points:,.0f} points, "
                                  f"more than {_MAX_SNR_POINTS:,}")
        grid = []
        v = start
        while v <= stop + 1e-9:
            grid.append(round(v, 9))
            v += step
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


def _in_worker(*task):
    """_in_worker.fn(*task): the fn that _map's pool initializer set."""
    return _in_worker.fn(*task)


def _map(fn, tasks, threads):
    """[fn(*task) for task in tasks], in task order. Runs on a process pool
    of min(threads, len(tasks), cpu count) workers, and starts none when
    that is 1; fn (sent once per worker) and the tasks must pickle. With the
    fork start method the pool starts all its workers at once, hence the cap."""
    workers = min(threads, len(tasks), os.cpu_count() or 1)
    if workers <= 1:
        return [fn(*task) for task in tasks]
    install = functools.partial(setattr, _in_worker, "fn")
    with ProcessPoolExecutor(max_workers=workers, initializer=install,
                             initargs=(fn,)) as pool:
        return list(pool.map(_in_worker, *zip(*tasks)))


def _plan_outage_sweep(doc, path, base_dir):
    template = _resolve_topology(_need(doc, "topology", path), base_dir, path)
    rate = _rate(doc, path)
    try:
        k_values = [_int(k, "k_values", path) for k in _need(doc, "k_values", path)]
    except (ConfigParseError, TypeError):
        raise ConfigParseError(f"{path}: k_values must be a list of integers, "
                               f"got {doc['k_values']!r}") from None
    grid = _snr_grid(_need(doc, "snr_grid", path), path)
    normalization = str(doc.get("normalization", "per_node"))
    method = str(doc.get("method", "analytic"))
    if normalization not in ("per_node", "total_power"):
        raise ValidationError(f"{path}: unknown normalization {normalization!r}")
    if method not in ("analytic", "montecarlo"):
        raise ValidationError(f"{path}: unknown method {method!r}")
    if not k_values:
        raise ValidationError(f"{path}: k_values must name at least one k")
    if any(k < 0 or k > template.n_relays for k in k_values):
        raise ValidationError(f"{path}: k_values outside [0, {template.n_relays}]")

    def run(place, seed, threads):
        point = functools.partial(outage.sweep_point, template, rate,
                                  k_values=k_values, normalization=normalization,
                                  method=method, seed=seed)
        results = _map(point, list(enumerate(grid)), threads)
        rows = [[_fmt(snr_db), k, _subset_str(subset), _fmt(value), method]
                for snr_db, cells in zip(grid, results)
                for k, (subset, value) in zip(k_values, cells)]
        out = place("outage.csv")
        _write_csv(out, ["snr_db", "k", "subset", "outage", "method"], rows)
        return [out]

    return (f"ok: outage_sweep over {len(grid)} SNR points x {len(k_values)} k "
            f"values on {template.n_relays}-relay topology {template.label!r}"), run


def _mode_slots(doc, path, n_relays):
    try:
        if doc.get("modes", "all") == "all":
            return [None] + netsim.enumerate_modes(n_relays)
        slots = [netsim.parse_mode_key(m) for m in _list(doc, "modes", path)]
        for slot in filter(None, slots):
            slot.check_relays(n_relays)
    except ValueError as e:
        raise ValidationError(f"{path}: modes: {e}") from e
    return slots


def _schedule_summary(kind, schedule, topologies):
    return (f"ok: {kind} over {len(schedule.segments)} segments "
            f"({schedule.total_frames} frames, {len(topologies)} topologies)")


def _plan_fixed_modes(doc, path, base_dir):
    schedule, topologies = _resolve_schedule(_need(doc, "schedule", path), base_dir, path)
    rate = _rate(doc, path)
    strategy = _strategy(doc, path)
    _resolve_params(doc, path)  # checked although fixed modes never learn
    slots = _mode_slots(doc, path, min(t.n_relays for t in topologies.values()))

    def run(place, seed, threads):
        labels = [label for label, frames in schedule.segments for _ in range(frames)]
        outputs = []
        summary = []
        for slot in slots:
            name = netsim.mode_key_str(slot)
            executor = _schedule_executor(schedule, topologies, [slot], strategy,
                                          rate, named_rng(seed, "fixed", name))
            log = selection.run_policy("DT" if slot is None else slot, executor, (),
                                       total_frames=schedule.total_frames)
            out = place(f"trace_{name}.csv")
            netsim.write_trace(out, log.modes, log.categories, labels)
            outputs.append(out)
            summary.append([name, _fmt(log.fer)])
        out = place("summary.csv")
        _write_csv(out, ["mode", "fer"], summary)
        outputs.append(out)
        return outputs

    return _schedule_summary("fixed_modes", schedule, topologies), run


def _schedule_executor(schedule, topologies, slots, strategy, rate, rng):
    """The table_executor of the schedule's frames under each mode slot of
    slots: one sample_channels batch per segment, drawn in segment order,
    evaluated under every slot into one byte per frame."""
    columns = {slot: [] for slot in slots}
    for label, frames in schedule.segments:
        draws = sample_channels(topologies[label], rng, frames)
        for slot, column in columns.items():
            column.append(netsim.evaluate_frames(draws, slot, strategy, rate).tobytes())
    return selection.table_executor(
        {slot: b"".join(column) for slot, column in columns.items()})


def _resolve_policies(doc, path, n_relays, params):
    """The policy names of doc, each one that run_policy can run on the
    modes of n_relays relays (selection.check_policy)."""
    policies = [str(p) for p in _list(doc, "policies", path)]
    try:
        for policy in policies:
            selection.check_policy(policy, n_relays, params)
    except ValueError as e:
        raise ValidationError(f"{path}: {e}") from e
    return policies


def _plan_adaptive_compare(doc, path, base_dir):
    schedule, topologies = _resolve_schedule(_need(doc, "schedule", path), base_dir, path)
    rate = _rate(doc, path)
    strategy = _strategy(doc, path)
    params = _resolve_params(doc, path)
    n_relays = _relay_count(topologies.values(), path)
    policies = _resolve_policies(doc, path, n_relays, params)
    modes = netsim.enumerate_modes(n_relays)

    def run(place, seed, threads):
        outputs = []
        summary = []
        for policy in policies:
            exec_rng = named_rng(seed, "frames", policy)
            policy_rng = named_rng(seed, "policy", policy)
            executor = _schedule_executor(schedule, topologies, [None, *modes],
                                          strategy, rate, exec_rng)
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
    topologies = [_resolve_topology(s, base_dir, path)
                  for s in _list(doc, "topologies", path)]
    if len({t.label for t in topologies}) != len(topologies):
        raise ValidationError(f"{path}: ensemble topologies need distinct labels")
    rate = _rate(doc, path)
    strategy = _strategy(doc, path)
    frames = _int(doc.get("frames_per_topology", 860), "frames_per_topology", path)
    n_transitions = _int(doc.get("n_transitions", 4), "n_transitions", path)
    segment_len = _int(doc.get("segment_len", 172), "segment_len", path)
    n_samples = _int(doc.get("n_samples", 200), "n_samples", path)
    try:
        ensemble.check_sampling(n_samples, n_transitions, segment_len, frames)
    except ValueError as e:
        raise ValidationError(f"{path}: {e}") from e
    params = _resolve_params(doc, path)
    policies = _resolve_policies(doc, path, _relay_count(topologies, path), params)

    def run(place, seed, threads):
        dataset = ensemble.record_dataset(topologies, strategy, rate, frames,
                                          named_rng(seed, "dataset"))
        samples = ensemble.make_ensemble(dataset, n_samples, n_transitions,
                                         segment_len, seed)
        replay = functools.partial(ensemble.evaluate_on_ensemble, samples=samples,
                                   dataset=dataset, params=params, seed=seed)
        summary = []
        sample_rows = []
        for res in _map(replay, [(policy,) for policy in policies], threads):
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


def _mac_policy(doc, path):
    """The MacPolicy of doc's `mac` block (retransmission limits)."""
    block = _mapping(doc.get("mac"), ("max_retx_coop", "max_retx_per_link"), "mac", path)
    try:
        return macemu.MacPolicy(**{
            key: _int(block.get(key, default), f"mac {key}", path)
            for key, default in (("max_retx_coop", 2), ("max_retx_per_link", 4))})
    except ValueError as e:
        raise ValidationError(f"{path}: mac: {e}") from e


def _plan_mac_compare(doc, path, base_dir):
    topology = _resolve_topology(_need(doc, "topology", path), base_dir, path)
    rate = _rate(doc, path)
    policy = _mac_policy(doc, path)
    try:
        scenario = macemu.CoopVsRoutingScenario(
            topology=topology,
            rate=rate,
            n_packets=_int(_need(doc, "n_packets", path), "n_packets", path),
            strategy=_strategy(doc, path),
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


def _replay_trace_file(doc, key, read, replay, base_dir, path):
    """(trace, replay(trace)) of the trace file trace = read(file) that
    doc[key] names, relative to base_dir; None if doc names none. A missing
    or malformed file, and a trace that replay rejects (too few attempts
    recorded, a trace that ends mid-packet), is a ValidationError naming
    the file."""
    spec = doc.get(key)
    if spec is None:
        return None
    file = os.path.join(base_dir, str(spec))
    try:
        trace = read(file)
        return trace, replay(trace)
    except FileNotFoundError as e:
        raise ValidationError(f"{path}: referenced {key} file {spec!r} "
                              f"does not exist") from e
    except netsim.TraceFormatError as e:
        raise ValidationError(f"{path}: {key}: {e}") from e
    except (ValueError, macemu.TraceExhaustedError) as e:
        raise ValidationError(f"{path}: {key}: {file}: {e}") from e


def _plan_mac_replay(doc, path, base_dir):
    policy = _mac_policy(doc, path)
    coop = _replay_trace_file(doc, "coop_trace", netsim.read_trace,
                              lambda trace: macemu.coop_mac_deliver(*trace, policy),
                              base_dir, path)
    paths = _replay_trace_file(doc, "path_traces", macemu.read_path_traces,
                               lambda traces: macemu.genie_route(traces, policy),
                               base_dir, path)
    if coop is None and paths is None:
        raise ConfigParseError(f"{path}: mac_replay needs coop_trace and/or "
                               f"path_traces")

    def run(place, seed, threads):
        outputs = []
        for name, replayed in (("packets_coop.csv", coop), ("packets_genie.csv", paths)):
            if replayed is not None:
                outputs.append(place(name))
                macemu.write_packet_csv(outputs[-1], replayed[1])
        return outputs

    replays = ([f"a {len(coop[0][1])}-frame coop trace"] if coop else []) + (
        [f"{paths[0].n_packets} packets on {len(paths[0].paths)} paths"] if paths else [])
    return f"ok: mac_replay of {' and '.join(replays)}", run


# Each kind's plan and the top-level keys it reads besides kind, seed and
# out_dir.
_PLANS = {
    "outage_sweep": (_plan_outage_sweep,
                     "topology rate k_values snr_grid normalization method"),
    "fixed_modes": (_plan_fixed_modes, "schedule rate strategy params modes"),
    "adaptive_compare": (_plan_adaptive_compare,
                         "schedule rate strategy params policies"),
    "ensemble": (_plan_ensemble, "topologies rate strategy frames_per_topology "
                 "n_transitions segment_len n_samples params policies"),
    "mac_compare": (_plan_mac_compare,
                    "topology rate mac n_packets strategy mode_policy params"),
    "mac_replay": (_plan_mac_replay, "coop_trace path_traces mac"),
}


def _seed(seed, path):
    """seed, which must be >= 0 (a SeedSequence entropy); else a ValidationError."""
    if seed < 0:
        raise ValidationError(f"{path}: seed must be >= 0, got {seed}")
    return seed


def _plan(doc, path, base_dir):
    """Resolve and check everything the run of a config document needs.

    Returns (kind, summary, run, seed), where run(place, seed, threads)
    executes the experiment, writes each output `name` to the file
    place(name), and returns the files it wrote; seed is the document's
    (default 0).
    """
    kind = str(_need(doc, "kind", path))
    if kind not in EXPERIMENT_KINDS:
        raise ConfigParseError(
            f"{path}: unknown experiment kind {kind!r}; expected one of "
            f"{', '.join(sorted(EXPERIMENT_KINDS))}")
    plan, keys = _PLANS[kind]
    _mapping(doc, ["kind", "seed", "out_dir"] + keys.split(), kind, path)
    seed = _seed(_int(doc.get("seed", 0), "seed", path), path)
    summary, run = plan(doc, path, base_dir)
    return kind, summary, run, seed


def validate_config(path):
    """All structural and parameter validation of a run, without running it.

    Returns a one-line summary of the planned work.
    """
    return _plan(_load_yaml(path), path, os.path.dirname(os.path.abspath(path)))[1]


def run_experiment(doc, path, base_dir, place, seed=None, threads=1):
    """Plan and run the experiment document doc.

    path names the document in error messages, and relative input paths
    resolve against base_dir. Each output `name` (the manifest's is
    "manifest.json") goes to the file place(name); its directory is
    created only once the whole document has been checked. seed overrides
    the document's seed. Returns the written files, manifest last; the
    manifest holds the kind, seed, package version, doc and output names.
    """
    if seed is not None:
        seed = _seed(int(seed), path)
    kind, _, run, doc_seed = _plan(doc, path, base_dir)
    seed = doc_seed if seed is None else seed

    def place_in_dir(name):
        out = place(name)
        try:
            os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
        except OSError as e:
            raise IoError(f"{out}: {e}") from e
        return out

    outputs = run(place_in_dir, seed, max(1, int(threads)))
    manifest = place_in_dir("manifest.json")
    try:
        with open(manifest, "w", encoding="utf-8") as fh:
            json.dump({"kind": kind, "seed": seed, "version": __version__,
                       "config": doc,
                       "outputs": [os.path.basename(p) for p in outputs]},
                      fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as e:
        raise IoError(f"{manifest}: {e}") from e
    return outputs + [manifest]


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
