"""Ensemble-average evaluation of selection policies.

The methodology: record, for a set of topologies, the per-frame outcome of
every mode on shared channel draws; assemble randomized time-varying
samples (segments of topology + recorded frame rows); replay each policy
over each sample by serving the recorded outcome of whatever mode the
policy picks at each frame position; average FER and switch counts across
the ensemble.
"""
import csv
import math
from dataclasses import dataclass, replace

from . import selection
from .netsim import (Strategy, enumerate_modes, evaluate_frame, mode_key_str,
                     parse_mode_key)
from .rng import named_rng
from .topology import sample_channels


class SegmentTooLongError(ValueError):
    """Sample segment longer than the recorded frames per topology."""


@dataclass(frozen=True)
class ModeDataset:
    """Recorded outcome categories per (topology label, mode slot).

    Mode slots are Mode objects plus None for plain direct transmission.
    Every (topology, slot) pair holds frames_per_topology categories.
    """
    topologies: tuple
    mode_keys: tuple
    outcomes: dict
    frames_per_topology: int

    def __post_init__(self):
        for label in self.topologies:
            for key in self.mode_keys:
                rows = self.outcomes.get((label, key))
                if rows is None:
                    raise ValueError(f"missing outcomes for ({label}, {key})")
                if len(rows) != self.frames_per_topology:
                    raise ValueError(
                        f"({label}, {key}) has {len(rows)} frames, "
                        f"expected {self.frames_per_topology}")

    @property
    def modes(self):
        return tuple(k for k in self.mode_keys if k is not None)


@dataclass(frozen=True)
class EnsembleSample:
    """Schedule of (topology label, recorded row indices) segments."""
    segments: tuple

    @property
    def segment_len(self):
        return len(self.segments[0][1]) if self.segments else 0

    @property
    def total_frames(self):
        return sum(len(rows) for _, rows in self.segments)


def record_dataset(topologies, strategy, rate, frames_per_topology, rng,
                   include_dt=True):
    """Simulate every mode of every topology over shared per-frame draws.

    For each frame index one realization is drawn and evaluated under all
    mode slots (time-interleaved recording), so modes are compared on
    identical channels. All topologies must have the same relay count.
    """
    if frames_per_topology < 1:
        raise ValueError("frames_per_topology must be >= 1")
    topologies = list(topologies)
    n = topologies[0].n_relays
    if any(t.n_relays != n for t in topologies):
        raise ValueError("all topologies must have the same relay count")
    modes = enumerate_modes(n)
    keys = ([None] if include_dt else []) + modes
    strategy = Strategy.parse(strategy)
    outcomes = {(t.label, key): [] for t in topologies for key in keys}
    for t in topologies:
        for _ in range(frames_per_topology):
            c = sample_channels(t, rng)
            for key in keys:
                strat = Strategy.DT if key is None else strategy
                outcomes[(t.label, key)].append(
                    evaluate_frame(c, key, strat, rate).category)
    return ModeDataset(
        topologies=tuple(t.label for t in topologies),
        mode_keys=tuple(keys),
        outcomes={k: tuple(v) for k, v in outcomes.items()},
        frames_per_topology=frames_per_topology,
    )


def synthetic_dataset(fer_table, frames_per_topology, rng):
    """Bernoulli dataset from planted per-(topology, mode) FERs.

    fer_table maps topology label -> {mode slot -> error probability};
    every topology must plant the same mode slots. Errors are category 2,
    successes category 0.
    """
    labels = tuple(fer_table)
    keys = tuple(fer_table[labels[0]])
    outcomes = {}
    for label in labels:
        if tuple(fer_table[label]) != keys:
            raise ValueError("all topologies must plant the same mode slots")
        for key in keys:
            p = fer_table[label][key]
            draws = rng.random(frames_per_topology) < p
            outcomes[(label, key)] = tuple(2 if e else 0 for e in draws)
    return ModeDataset(topologies=labels, mode_keys=keys, outcomes=outcomes,
                       frames_per_topology=frames_per_topology)


def check_sampling(n_samples, segment_len, frames_per_topology):
    """Raise unless n_samples >= 1 samples of segment_len-frame segments
    can be drawn from frames_per_topology recorded frames."""
    if n_samples < 1:
        raise ValueError(f"need at least one sample, got n_samples={n_samples}")
    if segment_len > frames_per_topology:
        raise SegmentTooLongError(
            f"segment_len {segment_len} exceeds recorded "
            f"{frames_per_topology} frames per topology")


def make_sample(dataset, n_transitions, segment_len, rng):
    """Random time-varying sample: n_transitions+1 segments, topology
    uniform with repetition, frame rows uniform without replacement."""
    check_sampling(1, segment_len, dataset.frames_per_topology)
    segments = []
    for _ in range(n_transitions + 1):
        label = dataset.topologies[int(rng.integers(len(dataset.topologies)))]
        rows = rng.choice(dataset.frames_per_topology, size=segment_len,
                          replace=False)
        segments.append((label, tuple(int(r) for r in rows)))
    return EnsembleSample(segments=tuple(segments))


def make_ensemble(dataset, n_samples, n_transitions, segment_len, seed):
    """n_samples independent samples from per-sample substreams."""
    check_sampling(n_samples, segment_len, dataset.frames_per_topology)
    return [make_sample(dataset, n_transitions, segment_len,
                        named_rng(seed, "sample", i))
            for i in range(n_samples)]


def _sample_executor(sample, dataset):
    """Executor serving recorded outcomes positionally; raises RunStopped
    at the end of the sample. Learning frames consume the same positions
    as operating frames would."""
    flat = [(label, row) for label, rows in sample.segments for row in rows]
    pos = [0]

    def execute(mode_key):
        if pos[0] >= len(flat):
            raise selection.RunStopped
        label, row = flat[pos[0]]
        pos[0] += 1
        try:
            return dataset.outcomes[(label, mode_key)][row]
        except KeyError:
            raise selection.UnknownPolicyError(
                f"dataset has no recorded outcomes for mode {mode_key}") from None

    return execute


def replay_policy(policy, sample, dataset, params, rng=None, brute_frames=None):
    """Replay one policy over one sample; returns its PolicyRunLog."""
    executor = _sample_executor(sample, dataset)
    return selection.run_policy(policy, executor, dataset.modes, params,
                                total_frames=sample.total_frames, rng=rng,
                                brute_frames=brute_frames)


@dataclass(frozen=True)
class EnsembleResult:
    policy: str
    avg_fer: float
    avg_switches: float
    rows: tuple  # per-sample (sample_index, fer, switches, n_frames)


def evaluate_on_ensemble(policy, samples, dataset, params=selection.DEFAULT_PARAMS,
                         seed=0, brute_frames=None):
    """Ensemble-average FER and switch count of one policy.

    Per-sample randomness (RandPick/PWR2 draws) comes from substreams of
    (seed, policy, sample index), so results do not depend on evaluation
    order. Averages use compensated summation.
    """
    if not samples:
        raise ValueError("need at least one sample")
    rows = []
    for idx, sample in enumerate(samples):
        rng = named_rng(seed, "replay", str(policy), idx)
        log = replay_policy(policy, sample, dataset, params, rng=rng,
                            brute_frames=brute_frames)
        rows.append((idx, log.fer, log.switch_count, log.n_frames))
    avg_fer = math.fsum(r[1] for r in rows) / len(rows)
    avg_switches = math.fsum(r[2] for r in rows) / len(rows)
    return EnsembleResult(policy=str(policy), avg_fer=avg_fer,
                          avg_switches=avg_switches, rows=tuple(rows))


def oracle_fer(sample, dataset):
    """Ensemble oracle: per segment, the best fixed mode in hindsight."""
    errors = 0
    total = 0
    for label, rows in sample.segments:
        best = min(
            sum(1 for r in rows if dataset.outcomes[(label, m)][r] == 2)
            for m in dataset.modes)
        errors += best
        total += len(rows)
    return errors / total


def write_dataset_csv(path, dataset):
    """Dataset CSV: topology, mode, frame_index, category."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["topology", "mode", "frame_index", "category"])
        for label in dataset.topologies:
            for key in dataset.mode_keys:
                for f, cat in enumerate(dataset.outcomes[(label, key)]):
                    w.writerow([label, mode_key_str(key), f, cat])


def read_dataset_csv(path):
    cells = {}
    with open(path, "r", newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            key = (row["topology"], parse_mode_key(row["mode"]))
            cells.setdefault(key, {})[int(row["frame_index"])] = int(row["category"])
    labels = tuple(dict.fromkeys(label for label, _ in cells))
    keys = tuple(dict.fromkeys(key for _, key in cells))
    frames = len(next(iter(cells.values())))
    outcomes = {k: tuple(v[f] for f in range(len(v))) for k, v in cells.items()}
    return ModeDataset(topologies=labels, mode_keys=keys, outcomes=outcomes,
                       frames_per_topology=frames)


def write_samples_csv(path, samples):
    """Sample schedule CSV: sample, segment, position, topology, row."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["sample", "segment", "position", "topology", "row"])
        for si, sample in enumerate(samples):
            for gi, (label, rows) in enumerate(sample.segments):
                for pos, row in enumerate(rows):
                    w.writerow([si, gi, pos, label, row])


def read_samples_csv(path):
    data = {}
    with open(path, "r", newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            seg = data.setdefault(int(row["sample"]), {}).setdefault(
                int(row["segment"]), {})
            seg[int(row["position"])] = (row["topology"], int(row["row"]))
    samples = []
    for si in sorted(data):
        segments = []
        for gi in sorted(data[si]):
            cells = data[si][gi]
            label = cells[0][0]
            segments.append((label, tuple(cells[p][1] for p in range(len(cells)))))
        samples.append(EnsembleSample(segments=tuple(segments)))
    return samples


def memory_sweep(dataset, samples, r_values, params=selection.DEFAULT_PARAMS, seed=0):
    """SPA FER/switching tradeoff versus memory size r.

    Returns rows of dicts with keys r, avg_fer, avg_switches.
    """
    rows = []
    for r in r_values:
        if not 1 <= r <= len(dataset.modes):
            raise ValueError(f"r={r} outside [1, {len(dataset.modes)}]")
        res = evaluate_on_ensemble("SPA", samples, dataset,
                                   replace(params, r=r), seed=seed)
        rows.append({"r": r, "avg_fer": res.avg_fer,
                     "avg_switches": res.avg_switches})
    return rows
