"""Config-driven experiment runner.

Experiments are YAML documents with a `kind` key; every run writes its
result CSVs plus a manifest.json echoing the config, seed and package
version, so identical config+seed reproduces byte-identical outputs.
"""
import csv
import dataclasses
import functools
import json
import math
import numbers
import os
from concurrent.futures import ProcessPoolExecutor

import yaml

from . import __version__, ensemble, macemu, netsim, outage, selection
from .rng import named_rng
from .topology import (TopologyError, TopologySchedule, load_topology,
                       sample_channels, topology_from_dict)


class ValidationError(Exception):
    """A config that cannot run: unreadable, structurally wrong (unknown
    kind, unknown or missing key, a value of the wrong type) or failing a
    parameter check."""


class IoError(Exception):
    """Filesystem failure while reading inputs or writing outputs."""


def list_experiments():
    return sorted((kind, description) for kind, (description, *_) in _KINDS.items())


def _load_yaml(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = yaml.safe_load(fh)
    except FileNotFoundError as e:
        raise ValidationError(f"{path}: file not found") from e
    except OSError as e:
        raise IoError(f"{path}: {e}") from e
    except yaml.YAMLError as e:
        raise ValidationError(f"{path}: {e}") from e
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: expected a mapping at top level")
    return doc


# The default of a key that its block must give.
_REQUIRED = object()


def _read(block, schema, where, base_dir, top=False):
    """The parsed keys of block (None reads as {}), a mapping checked
    against schema, which maps each key it allows to (parser, default).
    parser(value, what, base_dir) parses the key's value, or its default
    where block leaves it out, and raises ValueError naming what: the key,
    after `where` unless top. A _REQUIRED key must be given."""
    block = {} if block is None else block
    if not isinstance(block, dict):
        raise ValueError(f"{where} must be a mapping, got {block!r}")
    unknown = [k for k in block if k not in schema]
    if unknown:
        raise ValueError(f"unknown {where} key {unknown[0]!r}; "
                         f"expected one of {', '.join(sorted(schema))}")
    parsed = {}
    for key, (parse, default) in schema.items():
        value = block.get(key, default)
        if value is _REQUIRED:
            raise ValueError(f"missing required key {key!r}")
        parsed[key] = parse(value, key if top else f"{where} {key}", base_dir)
    return parsed


def _int(value, what, base_dir=None):
    """value as an int; anything but an int or an integral float (2.5, "3",
    true) is rejected, naming what."""
    if isinstance(value, bool) or not (isinstance(value, int) or (
            isinstance(value, float) and value.is_integer())):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _number(value, what, base_dir=None):
    """value as a float; anything but an int or a float ("1.0", true) is
    rejected, naming what."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must be a number, got {value!r}")
    return float(value)


def _str(value, what, base_dir):
    return str(value)


def _path(value, what, base_dir):
    """value, a path string, or None where no path is given."""
    if value is not None and not isinstance(value, str):
        raise ValueError(f"{what} must be a path, got {value!r}")
    return value


def _list(value, what):
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{what} must be a list, got {value!r}")
    return value


def _strs(value, what, base_dir):
    return [str(v) for v in _list(value, what)]


def _choice(*options):
    """The parser of a string among options."""
    def parse(value, what, base_dir):
        if str(value) not in options:
            raise ValueError(f"unknown {what} {str(value)!r}")
        return str(value)
    return parse


def _seed(value, what, base_dir=None):
    """value, a root seed: an integer >= 0 (a SeedSequence entropy)."""
    seed = _int(value, what)
    if seed < 0:
        raise ValueError(f"{what} must be >= 0, got {seed}")
    return seed


def _rate(value, what, base_dir):
    rate = _number(value, what)
    outage.rate_threshold(rate)
    return rate


def _modes(value, what, base_dir):
    """"all", or a list of mode keys."""
    return value if value == "all" else _list(value, what)


def _topology(spec, what, base_dir):
    """The topology of a mapping, or of the file that spec names relative
    to base_dir."""
    try:
        if isinstance(spec, str):
            return load_topology(os.path.join(base_dir, spec))
        if isinstance(spec, dict):
            return topology_from_dict(spec)
    except FileNotFoundError as e:
        raise ValueError(f"referenced topology file {spec!r} does not exist") from e
    except (TopologyError, yaml.YAMLError) as e:
        raise ValueError(f"topology: {e}") from e
    raise ValueError(f"{what} must be a file path or mapping")


def _topologies(value, what, base_dir):
    """A list of topologies with distinct labels."""
    topologies = [_topology(spec, what, base_dir) for spec in _list(value, what)]
    if len({t.label for t in topologies}) != len(topologies):
        raise ValueError(f"{what} need distinct labels")
    return topologies


_SEGMENT = {"topology": (_str, _REQUIRED), "frames": (_int, _REQUIRED)}


def _segments(value, what, base_dir):
    """[(label, frames)] of a list of segment mappings."""
    segments = []
    for seg in _list(value, what):
        if not isinstance(seg, dict):
            raise ValueError(f"{what} entries must be mappings, got {seg!r}")
        segments.append(tuple(_read(seg, _SEGMENT, "segment", base_dir).values()))
    return segments


_SCHEDULE = {"topologies": (_topologies, _REQUIRED), "segments": (_segments, _REQUIRED)}


def _schedule(spec, what, base_dir):
    """(TopologySchedule, {label: topology}) of a schedule mapping, or of
    the schedule file that spec names, whose own paths resolve against its
    directory."""
    if isinstance(spec, str):
        schedule_path = os.path.join(base_dir, spec)
        spec = _load_yaml(schedule_path)
        base_dir = os.path.dirname(os.path.abspath(schedule_path))
    block = _read(spec, _SCHEDULE, what, base_dir)
    topologies = {t.label: t for t in block["topologies"]}
    for label, _ in block["segments"]:
        if label not in topologies:
            raise ValueError(f"segment references unknown topology {label!r}")
    return TopologySchedule(tuple(block["segments"])), topologies


# The params block: each field of LearnParams and SpaParams (but the nested
# learn) with its type's parser and its default.
_PARAMS = {f.name: ({int: _int, float: _number}[f.type], f.default)
           for cls in (selection.LearnParams, selection.SpaParams)
           for f in dataclasses.fields(cls) if f.name != "learn"}


def _params(value, what, base_dir):
    """The SpaParams of a params block."""
    block = _read(value, _PARAMS, what, base_dir)
    learn = {f.name: block.pop(f.name) for f in dataclasses.fields(selection.LearnParams)}
    try:
        return selection.SpaParams(learn=selection.LearnParams(**learn), **block)
    except ValueError as e:
        raise ValueError(f"{what} (LearnParams/SpaParams): {e}") from e


# The mac block: MacPolicy's retransmission limits, with its defaults.
_MAC = {f.name: (_int, f.default) for f in dataclasses.fields(macemu.MacPolicy)}


def _mac(value, what, base_dir):
    """The MacPolicy of a mac block."""
    block = _read(value, _MAC, what, base_dir)
    try:
        return macemu.MacPolicy(**block)
    except ValueError as e:
        raise ValueError(f"{what}: {e}") from e


def _distinct(what, noun, entries, keys):
    """Raise unless the list entries names at least one noun, and keys,
    the key a run tells each entry by, has no key twice."""
    if not entries:
        raise ValueError(f"{what} must name at least one {noun}")
    first = {}
    for entry, key in zip(entries, keys):
        if key in first:
            raise ValueError(f"{what} name one {noun} twice: "
                             f"{first[key]!r} and {entry!r}")
        first[key] = entry


def _k_values(value, what, base_dir):
    try:
        k_values = [_int(k, what) for k in _list(value, what)]
    except (TypeError, ValueError):
        raise ValueError(f"{what} must be a list of integers, got {value!r}") from None
    _distinct(what, "k", k_values, k_values)
    return k_values


_MAX_SNR_POINTS = 100_000


def _snr_grid(spec, what, base_dir):
    """The SNR grid in dB of a start/stop/step mapping or a list."""
    form = f"{what} must be start:stop:step or a list of numbers"
    try:
        if isinstance(spec, dict):
            start, stop, step = (_number(spec[k], what) for k in ("start", "stop", "step"))
        else:
            grid = [_number(v, what) for v in spec]
    except KeyError as e:
        raise ValueError(f"{form} (missing {e.args[0]!r})") from e
    except (TypeError, ValueError) as e:
        raise ValueError(form) from e
    if isinstance(spec, dict):
        if not (all(map(math.isfinite, (start, stop, step))) and step > 0
                and stop >= start):
            raise ValueError(f"{what} needs finite start, stop and step, "
                             f"step > 0 and stop >= start")
        points = (stop - start) / step + 1
        if points > _MAX_SNR_POINTS:
            raise ValueError(f"{what} range has {points:,.0f} points, "
                             f"more than {_MAX_SNR_POINTS:,}")
        grid = []
        v = start
        while v <= stop + 1e-9:
            grid.append(round(v, 9))
            v += step
    outage.check_snr_grid(grid)
    return grid


def _resolve_policies(topologies, policies, params):
    """(relay count, names): the relay count, one or more, that the
    topologies, one or more, all share (the policies choose among one set
    of modes), and the selection.policy_name of each of policies, one or
    more and distinct by name, each checked to run on the modes
    (selection.check_policy)."""
    counts = sorted({t.n_relays for t in topologies})
    if len(counts) != 1:
        raise ValueError(f"need one or more topologies with the same "
                         f"relay count, got relay counts {counts}")
    if counts[0] < 1:
        raise ValueError("the policies need at least one relay, got 0")
    names = [selection.policy_name(policy) for policy in policies]
    for name in names:
        selection.check_policy(name, counts[0], params)
    _distinct("policies", "policy", policies, names)
    return counts[0], names


def _write_csv(path, header, rows):
    """Write the CSV file path; returns path."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    return path


def _write_packets(path, results):
    """Write the packet CSV path of the PacketResults results; returns path.
    The rows are written as one string, each distinct result's cells
    formatted once, byte for byte what csv.writer writes row by row."""
    cells = {r: netsim.csv_cells(int(r.delivered), r.attempts,
                                 _fmt(r.total_delay_us), r.path_or_mode)
             for r in set(results)}
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(["packet_index", "delivered", "attempts",
                                 "delay_us", "path_or_mode"])
        fh.write("".join([f"{i},{cells[r]}\r\n" for i, r in enumerate(results)]))
    return path


def _fmt(value):
    return repr(float(value))


def _subset_str(subset):
    return "-".join(str(i) for i in subset)


def _in_worker(*task):
    """_in_worker.fn(*task): the fn that _map's pool initializer set."""
    return _in_worker.fn(*task)


def _workers(threads, n_tasks):
    """The worker count of _map for n_tasks tasks."""
    return min(threads, n_tasks, os.cpu_count() or 1)


def _map(fn, tasks, threads):
    """[fn(*task) for task in tasks], in task order. Runs on a process pool
    of min(threads, len(tasks), cpu count) workers, and starts none when
    that is 1; fn (sent once per worker) and the tasks must pickle. With the
    fork start method the pool starts all its workers at once, hence the cap."""
    workers = _workers(threads, len(tasks))
    if workers <= 1:
        return [fn(*task) for task in tasks]
    install = functools.partial(setattr, _in_worker, "fn")
    with ProcessPoolExecutor(max_workers=workers, initializer=install,
                             initargs=(fn,)) as pool:
        return list(pool.map(_in_worker, *zip(*tasks)))


def _plan_outage_sweep(cfg, base_dir):
    template, k_values, grid = cfg["topology"], cfg["k_values"], cfg["snr_grid"]
    if cfg["rate"] <= 0:  # outage.OutageQuery's bound, held for both methods
        raise ValueError(f"rate must be > 0, got {cfg['rate']!r}")
    if any(k < 0 or k > template.n_relays for k in k_values):
        raise ValueError(f"k_values outside [0, {template.n_relays}]")

    def run(place, seed, threads):
        point = functools.partial(outage.sweep_point, template, cfg["rate"],
                                  k_values=k_values,
                                  normalization=cfg["normalization"],
                                  method=cfg["method"], seed=seed)
        results = _map(point, list(enumerate(grid)), threads)
        rows = [[_fmt(snr_db), k, _subset_str(subset), _fmt(value), cfg["method"]]
                for snr_db, cells in zip(grid, results)
                for k, (subset, value) in zip(k_values, cells)]
        return [_write_csv(place("outage.csv"),
                           ["snr_db", "k", "subset", "outage", "method"], rows)]

    return (f"ok: outage_sweep over {len(grid)} SNR points x {len(k_values)} k "
            f"values on {template.n_relays}-relay topology {template.label!r}"), run


def _mode_slots(modes, n_relays):
    """The mode slots of a modes list, one or more distinct slots, or of
    every mode if modes is "all"."""
    try:
        if modes == "all":
            return [None] + netsim.enumerate_modes(n_relays)
        slots = [netsim.parse_mode_key(m) for m in modes]
        for slot in filter(None, slots):
            slot.check_relays(n_relays)
    except ValueError as e:
        raise ValueError(f"modes: {e}") from e
    _distinct("modes", "mode", modes, slots)
    return slots


def _schedule_summary(kind, schedule, topologies):
    return (f"ok: {kind} over {len(schedule.segments)} segments "
            f"({schedule.total_frames} frames, {len(topologies)} topologies)")


def _plan_fixed_modes(cfg, base_dir):
    schedule, topologies = cfg["schedule"]
    strategy, rate = cfg["strategy"], cfg["rate"]
    slots = _mode_slots(cfg["modes"], min(t.n_relays for t in topologies.values()))

    def run(place, seed, threads):
        labels = [label for label, frames in schedule.segments for _ in range(frames)]
        outputs = []
        summary = []
        for slot in slots:
            name = netsim.mode_key_str(slot)
            executor = _schedule_executor(schedule, topologies, [slot], strategy,
                                          rate, named_rng(seed, "fixed", name))
            log = selection.run_policy("DT" if slot is None else slot, executor, ())
            out = place(f"trace_{name}.csv")
            netsim.write_trace(out, log.modes, log.categories, labels)
            outputs.append(out)
            summary.append([name, _fmt(log.fer)])
        return outputs + [_write_csv(place("summary.csv"), ["mode", "fer"], summary)]

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


def _plan_adaptive_compare(cfg, base_dir):
    schedule, topologies = cfg["schedule"]
    params = cfg["params"]
    n_relays, names = _resolve_policies(topologies.values(), cfg["policies"], params)
    modes = netsim.enumerate_modes(n_relays)

    def run(place, seed, threads):
        outputs = []
        summary = []
        for name in names:
            executor = _schedule_executor(schedule, topologies, [None, *modes],
                                          cfg["strategy"], cfg["rate"],
                                          named_rng(seed, "frames", name))
            log = selection.run_policy(name, executor, modes, params,
                                       rng=named_rng(seed, "policy", name))
            outputs.append(_write_csv(
                place(f"runlog_{name.replace(':', '_')}.csv"),
                ["frame_index", "mode", "category", "phase", "cumulative_switches"],
                log.to_rows()))
            summary.append([name, _fmt(log.fer), log.switch_count, len(log.triggers)])
        return outputs + [_write_csv(place("summary.csv"),
                                     ["policy", "fer", "switches", "triggers"], summary)]

    return _schedule_summary("adaptive_compare", schedule, topologies), run


def _plan_ensemble(cfg, base_dir):
    topologies, params = cfg["topologies"], cfg["params"]
    frames, n_samples = cfg["frames_per_topology"], cfg["n_samples"]
    n_transitions, segment_len = cfg["n_transitions"], cfg["segment_len"]
    ensemble.check_sampling(n_samples, n_transitions, segment_len, frames)
    _, names = _resolve_policies(topologies, cfg["policies"], params)

    def run(place, seed, threads):
        # the recording's row chunks, one per worker, share the replay's pool cap
        dataset = ensemble.record_dataset(
            topologies, cfg["strategy"], cfg["rate"], frames, named_rng(seed, "dataset"),
            map=lambda fn, chunks: _map(fn, [(chunk,) for chunk in chunks], threads),
            chunks=_workers(threads, len(topologies) * frames))
        samples = ensemble.make_ensemble(dataset, n_samples, n_transitions,
                                         segment_len, seed)
        replay = functools.partial(ensemble.evaluate_on_ensemble, samples=samples,
                                   dataset=dataset, params=params, seed=seed)
        summary = []
        sample_rows = []
        for res in _map(replay, [(name,) for name in names], threads):
            summary.append([res.policy, _fmt(res.avg_fer), _fmt(res.avg_switches)])
            for idx, fer, switches, n_frames in res.rows:
                sample_rows.append([res.policy, idx, _fmt(fer), switches, n_frames])
        out1 = _write_csv(place("ensemble.csv"), ["policy", "avg_fer", "avg_switches"],
                          summary)
        out2 = _write_csv(place("sample_metrics.csv"),
                          ["policy", "sample", "fer", "switches", "n_frames"], sample_rows)
        out3 = place("dataset.csv")
        ensemble.write_dataset_csv(out3, dataset)
        out4 = place("samples.csv")
        ensemble.write_samples_csv(out4, samples)
        return [out1, out2, out3, out4]

    return (f"ok: ensemble of {n_samples} samples over {len(topologies)} "
            f"topologies x {len(names)} policies"), run


def _plan_mac_compare(cfg, base_dir):
    scenario = macemu.CoopVsRoutingScenario(
        spa_params=cfg["params"], **{key: cfg[key] for key in (
            "topology", "rate", "n_packets", "strategy", "mode_policy")})

    def run(place, seed, threads):
        report = macemu.compare_coop_vs_genie(scenario, cfg["mac"], seed=seed)
        header = ["system", "drop_rate", "throughput_bits_per_s"]
        out1 = _write_csv(place("mac_compare.csv"), header, [
            ["coop", _fmt(report.coop_drop_rate), _fmt(report.coop_throughput)],
            ["genie", _fmt(report.genie_drop_rate), _fmt(report.genie_throughput)],
        ])
        return [out1, _write_packets(place("packets_coop.csv"), report.coop_results),
                _write_packets(place("packets_genie.csv"), report.genie_results)]

    return (f"ok: mac_compare of {scenario.n_packets} packets on "
            f"{scenario.topology.label!r}"), run


def _replay_trace_file(cfg, key, read, replay, base_dir):
    """(trace, replay(trace)) of the trace file trace = read(file) that
    cfg[key] names, relative to base_dir; None if it names none. A missing
    or malformed file, and a trace that replay rejects (too few attempts
    recorded, a trace that ends mid-packet), is a ValueError naming the
    file."""
    spec = cfg[key]
    if spec is None:
        return None
    file = os.path.join(base_dir, spec)
    try:
        trace = read(file)
        return trace, replay(trace)
    except FileNotFoundError as e:
        raise ValueError(f"referenced {key} file {spec!r} does not exist") from e
    except netsim.TraceFormatError as e:
        raise ValueError(f"{key}: {e}") from e
    except (ValueError, macemu.TraceExhaustedError) as e:
        raise ValueError(f"{key}: {file}: {e}") from e


def _plan_mac_replay(cfg, base_dir):
    policy = cfg["mac"]
    coop = _replay_trace_file(cfg, "coop_trace", netsim.read_trace,
                              lambda trace: macemu.coop_mac_deliver(*trace, policy),
                              base_dir)
    paths = _replay_trace_file(cfg, "path_traces", macemu.read_path_traces,
                               lambda traces: macemu.genie_route(traces, policy),
                               base_dir)
    if coop is None and paths is None:
        raise ValueError("mac_replay needs coop_trace and/or path_traces")

    def run(place, seed, threads):
        return [_write_packets(place(name), replayed[1])
                for name, replayed in (("packets_coop.csv", coop),
                                       ("packets_genie.csv", paths))
                if replayed is not None]

    replays = ([f"a {len(coop[0][1])}-frame coop trace"] if coop else []) + (
        [f"{paths[0].n_packets} packets on {len(paths[0].paths)} paths"] if paths else [])
    return f"ok: mac_replay of {' and '.join(replays)}", run


# The keys of every kind.
_COMMON = {"kind": (_str, _REQUIRED), "seed": (_seed, 0), "out_dir": (_path, None)}
_STRATEGY = (lambda value, what, base_dir: netsim.Strategy.parse(value), "DIQIF")

# Each kind: its description, its plan(cfg, base_dir) -> (summary, run) of
# the parsed keys cfg, and its schema, each key it reads besides _COMMON's
# -> (parser, default), in the order they are checked.
_KINDS = {
    "outage_sweep": ("best-subnetwork outage across an SNR grid", _plan_outage_sweep, {
        "topology": (_topology, _REQUIRED), "rate": (_rate, _REQUIRED),
        "k_values": (_k_values, _REQUIRED), "snr_grid": (_snr_grid, _REQUIRED),
        "normalization": (_choice("per_node", "total_power"), "per_node"),
        "method": (_choice("analytic", "montecarlo"), "analytic")}),
    "fixed_modes": ("fixed-mode frame traces over a topology schedule", _plan_fixed_modes, {
        "schedule": (_schedule, _REQUIRED), "rate": (_rate, _REQUIRED),
        "strategy": _STRATEGY,
        "params": (_params, None),  # checked although fixed modes never learn
        "modes": (_modes, "all")}),
    "adaptive_compare": ("selection policies over a time-varying schedule",
                         _plan_adaptive_compare, {
        "schedule": (_schedule, _REQUIRED), "rate": (_rate, _REQUIRED),
        "strategy": _STRATEGY, "params": (_params, None),
        "policies": (_strs, _REQUIRED)}),
    "ensemble": ("ensemble-average FER/switching of selection policies", _plan_ensemble, {
        "topologies": (_topologies, _REQUIRED), "rate": (_rate, _REQUIRED),
        "strategy": _STRATEGY, "frames_per_topology": (_int, 860),
        "n_transitions": (_int, 4), "segment_len": (_int, 172),
        "n_samples": (_int, 200), "params": (_params, None),
        "policies": (_strs, _REQUIRED)}),
    "mac_compare": ("paired coop-MAC vs genie-routing emulation", _plan_mac_compare, {
        "topology": (_topology, _REQUIRED), "rate": (_rate, _REQUIRED),
        "mac": (_mac, None), "n_packets": (_int, _REQUIRED), "strategy": _STRATEGY,
        "mode_policy": (_str, "SPA"), "params": (_params, None)}),
    "mac_replay": ("MAC delivery over a recorded coop trace and/or path traces",
                   _plan_mac_replay, {
        "coop_trace": (_path, None), "path_traces": (_path, None),
        "mac": (_mac, None)}),
}


def _plan(doc, path, base_dir, **overrides):
    """Resolve and check everything the run of a config document needs.

    The overrides that are not None (seed, out_dir) replace the
    document's keys and are checked alike. Returns (cfg, summary, run):
    cfg maps each key of the kind to its parsed value, or its parsed
    default, and run(place, seed, threads) executes the experiment, writes
    each output `name` to the file place(name), and returns the files it
    wrote. Any check that fails is a ValidationError naming path.
    """
    try:
        if "kind" not in doc:
            raise ValueError("missing required key 'kind'")
        kind = str(doc["kind"])
        if kind not in _KINDS:
            raise ValueError(f"unknown experiment kind {kind!r}; expected one of "
                             f"{', '.join(sorted(_KINDS))}")
        _, plan, schema = _KINDS[kind]
        doc = {**doc, **{k: v for k, v in overrides.items() if v is not None}}
        cfg = _read(doc, {**_COMMON, **schema}, kind, base_dir, top=True)
        return (cfg, *plan(cfg, base_dir))
    except ValueError as e:
        raise ValidationError(f"{path}: {e}") from e
    except OSError as e:
        raise IoError(f"{path}: {e}") from e


def validate_config(path):
    """All structural and parameter validation of a run, without running it.

    Returns a one-line summary of the planned work.
    """
    return _plan(_load_yaml(path), path, os.path.dirname(os.path.abspath(path)))[1]


def run_experiment(doc, path, base_dir, place=None, seed=None, threads=1,
                   out_dir=None):
    """Plan and run the experiment document doc.

    path names the document in error messages, and relative input paths
    resolve against base_dir. Each output `name` (the manifest's is
    "manifest.json") goes to the file place(name), by default to name in
    out_dir, else in the document's out_dir, else in base_dir (a relative
    out_dir is taken from base_dir); its directory is created only once
    the whole document has been checked. seed and out_dir override the
    document's. Returns the written files, manifest last; the manifest
    holds the kind, seed, package version, doc and output names. An
    OSError while writing the outputs is an IoError naming the file, and a
    threads that is not an integer >= 1 is a ValidationError.
    """
    if isinstance(threads, bool) or not isinstance(threads, numbers.Integral) \
            or threads < 1:
        raise ValidationError(f"threads must be an integer >= 1, got {threads!r}")
    cfg, _, run = _plan(doc, path, base_dir, seed=seed, out_dir=out_dir)
    if place is None:
        place = functools.partial(os.path.join, base_dir, cfg["out_dir"] or ".")

    current = path  # the file being written: the last output placed

    def place_in_dir(name):
        nonlocal current
        current = place(name)
        os.makedirs(os.path.dirname(current) or ".", exist_ok=True)
        return current

    try:
        outputs = run(place_in_dir, cfg["seed"], int(threads))
        manifest = place_in_dir("manifest.json")
        with open(manifest, "w", encoding="utf-8") as fh:
            json.dump({"kind": cfg["kind"], "seed": cfg["seed"], "version": __version__,
                       "config": doc,
                       "outputs": [os.path.basename(p) for p in outputs]},
                      fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as e:
        raise IoError(f"{current}: {e}") from e
    return outputs + [manifest]


def run_config(path, out_dir=None, seed=None, threads=1):
    """Execute the experiment described by the config file.

    Returns the list of written files (manifest last). out_dir and seed
    override the config's values when given; a relative out_dir is taken
    from the config's directory.
    """
    return run_experiment(_load_yaml(path), path, os.path.dirname(os.path.abspath(path)),
                          seed=seed, threads=threads, out_dir=out_dir)
