"""Ensemble-average evaluation of selection policies.

The methodology: record, for a set of topologies, the per-frame outcome of
every mode on shared channel draws; assemble randomized time-varying
samples (segments of topology + recorded frame rows); replay each policy
over each sample by serving the recorded outcome of whatever mode the
policy picks at each frame position; average FER and switch counts across
the ensemble.
"""
import csv
import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import selection
from .netsim import (Strategy, csv_cells, enumerate_modes, evaluate_frame,
                     mode_key_str)
from .rng import named_rng
from .topology import sample_channels


class SegmentTooLongError(ValueError):
    """Sample segment longer than the recorded frames per topology."""


@dataclass(frozen=True, eq=False)
class ModeDataset:
    """Recorded outcome categories: outcomes[t, s, f] is the category of
    frame f of topology topologies[t] under mode slot mode_keys[s].

    Mode slots are Mode objects plus None for plain direct transmission.
    outcomes is stored as a read-only int8 array of shape
    (topologies, slots, frames_per_topology), frames_per_topology >= 1.
    """
    topologies: tuple
    mode_keys: tuple
    outcomes: np.ndarray

    def __post_init__(self):
        outcomes = np.array(self.outcomes)
        shape = (len(self.topologies), len(self.mode_keys))
        if outcomes.ndim != 3 or outcomes.shape[:2] != shape or not outcomes.shape[2]:
            raise ValueError(f"outcomes has shape {outcomes.shape}, expected "
                             f"({shape[0]}, {shape[1]}, frames >= 1)")
        if not np.isin(outcomes, (0, 1, 2)).all():
            raise ValueError("outcome categories must be 0, 1 or 2")
        outcomes = outcomes.astype(np.int8)
        outcomes.flags.writeable = False
        object.__setattr__(self, "outcomes", outcomes)

    @property
    def frames_per_topology(self):
        return self.outcomes.shape[2]

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


def record_dataset(topologies, strategy, rate, frames_per_topology, rng, map=map):
    """Simulate every mode slot (plain DT, then every mode) of every
    topology over shared per-frame draws.

    For each frame index one realization is drawn and evaluated under all
    mode slots (time-interleaved recording), so modes are compared on
    identical channels; each topology's frames come from one batch draw,
    drawn in topology order. All topologies must have the same relay count.
    Every draw row, all topologies' rows in order, is one task
    (_record_row), and map(fn, rows) runs the tasks; it may be a process
    pool's map (fn and the rows then go by pickle), and the result does
    not depend on it.
    """
    if frames_per_topology < 1:
        raise ValueError("frames_per_topology must be >= 1")
    topologies = list(topologies)
    n = topologies[0].n_relays
    if any(t.n_relays != n for t in topologies):
        raise ValueError("all topologies must have the same relay count")
    keys = [None] + enumerate_modes(n)
    strategy = Strategy.parse(strategy)
    draws = np.concatenate([sample_channels(t, rng, frames_per_topology)
                            for t in topologies])
    rows = map(functools.partial(_record_row, keys, strategy, rate), draws.tolist())
    outcomes = np.array(list(rows), np.int8).reshape(
        len(topologies), frames_per_topology, len(keys)).transpose(0, 2, 1)
    return ModeDataset(topologies=tuple(t.label for t in topologies),
                       mode_keys=tuple(keys), outcomes=np.ascontiguousarray(outcomes))


def _record_row(keys, strategy, rate, c):
    """The category of the draw row c under each mode slot of keys."""
    c = np.array(c)  # once: evaluate_frame converts a list on every call
    return [evaluate_frame(c, key, strategy, rate) for key in keys]


def synthetic_dataset(fer_table, frames_per_topology, rng):
    """Bernoulli dataset from planted per-(topology, mode) FERs.

    fer_table maps topology label -> {mode slot -> error probability};
    every topology must plant the same mode slots. Errors are category 2,
    successes category 0.
    """
    labels = tuple(fer_table)
    keys = tuple(fer_table[labels[0]])
    outcomes = np.empty((len(labels), len(keys), frames_per_topology), np.int8)
    for ti, label in enumerate(labels):
        if tuple(fer_table[label]) != keys:
            raise ValueError("all topologies must plant the same mode slots")
        for si, key in enumerate(keys):
            draws = rng.random(frames_per_topology) < fer_table[label][key]
            outcomes[ti, si] = np.where(draws, 2, 0)
    return ModeDataset(topologies=labels, mode_keys=keys, outcomes=outcomes)


def check_sampling(n_samples, n_transitions, segment_len, frames_per_topology):
    """Raise unless n_samples >= 1 samples of n_transitions + 1 >= 1
    segments of segment_len >= 1 frames each can be drawn from
    frames_per_topology recorded frames."""
    if n_samples < 1:
        raise ValueError(f"need at least one sample, got n_samples={n_samples}")
    if n_transitions < 0:
        raise ValueError(f"n_transitions must be >= 0, got {n_transitions}")
    if segment_len < 1:
        raise ValueError(f"segment_len must be >= 1, got {segment_len}")
    if segment_len > frames_per_topology:
        raise SegmentTooLongError(
            f"segment_len {segment_len} exceeds recorded "
            f"{frames_per_topology} frames per topology")


def make_sample(dataset, n_transitions, segment_len, rng):
    """Random time-varying sample: n_transitions+1 segments, topology
    uniform with repetition, frame rows uniform without replacement."""
    check_sampling(1, n_transitions, segment_len, dataset.frames_per_topology)
    segments = []
    for _ in range(n_transitions + 1):
        label = dataset.topologies[int(rng.integers(len(dataset.topologies)))]
        rows = rng.choice(dataset.frames_per_topology, size=segment_len,
                          replace=False)
        segments.append((label, tuple(rows.tolist())))
    return EnsembleSample(segments=tuple(segments))


def make_ensemble(dataset, n_samples, n_transitions, segment_len, seed):
    """n_samples independent samples from per-sample substreams."""
    check_sampling(n_samples, n_transitions, segment_len, dataset.frames_per_topology)
    return [make_sample(dataset, n_transitions, segment_len,
                        named_rng(seed, "sample", i))
            for i in range(n_samples)]


def _sample_columns(sample, dataset):
    """The columns of the sample's table_executor: its recorded outcomes,
    gathered once segment by segment into one bytes column per mode slot."""
    topology_index = {label: t for t, label in enumerate(dataset.topologies)}
    columns = np.concatenate(
        [dataset.outcomes[topology_index[label]][:, rows]
         for label, rows in sample.segments], axis=1)
    return dict(zip(dataset.mode_keys, (column.tobytes() for column in columns)))


def replay_policy(policy, sample, dataset, params, rng=None):
    """Replay one policy over one sample; returns its PolicyRunLog."""
    executor = selection.table_executor(_sample_columns(sample, dataset))
    return selection.run_policy(policy, executor, dataset.modes, params, rng=rng)


@dataclass(frozen=True)
class EnsembleResult:
    policy: str
    avg_fer: float
    avg_switches: float
    rows: tuple  # per-sample (sample_index, fer, switches, n_frames)


def evaluate_policies(policies, samples, dataset, params=selection.DEFAULT_PARAMS,
                      seed=0, map=map):
    """The EnsembleResult of each policy, in order.

    A result is labelled with the policy's selection.policy_name, and
    per-sample randomness (RandPick/PWR2 draws) comes from substreams of
    (seed, "replay", that name, sample index), so results depend on neither
    evaluation order nor spelling. Averages use compensated summation.
    Every sample, under all the policies, is one task (_replay_sample), and
    map(fn, indices, samples) runs the tasks; it may be a process pool's
    map (fn and the tasks then go by pickle), and the result does not
    depend on it.
    """
    if not samples:
        raise ValueError("need at least one sample")
    names = [selection.policy_name(policy) for policy in policies]
    parts = map(functools.partial(_replay_sample, names, dataset, params, seed),
                range(len(samples)), samples)
    return [EnsembleResult(policy=name, avg_fer=math.fsum(r[1] for r in rows) / len(rows),
                           avg_switches=math.fsum(r[2] for r in rows) / len(rows),
                           rows=rows)
            for name, rows in zip(names, zip(*parts))]


def _replay_sample(names, dataset, params, seed, idx, sample):
    """For each policy of names, the row (idx, fer, switches, n_frames) of
    sample idx. The sample's columns are gathered once for all the
    policies."""
    columns = _sample_columns(sample, dataset)
    rows = []
    for name in names:
        rng = (named_rng(seed, "replay", name, idx)
               if name in selection.DRAWING_POLICIES else None)
        log = selection.run_policy(name, selection.table_executor(columns), dataset.modes,
                                   params, rng=rng)
        rows.append((idx, log.fer, log.switch_count, log.n_frames))
    return rows


def evaluate_on_ensemble(policy, samples, dataset, params=selection.DEFAULT_PARAMS,
                         seed=0):
    """Ensemble-average FER and switch count of one policy: its
    evaluate_policies result."""
    (result,) = evaluate_policies([policy], samples, dataset, params, seed)
    return result


def oracle_fer(sample, dataset):
    """Ensemble oracle: per segment, the best fixed mode in hindsight."""
    slots = [s for s, key in enumerate(dataset.mode_keys) if key is not None]
    errors = 0
    total = 0
    for label, rows in sample.segments:
        t = dataset.topologies.index(label)
        failed = dataset.outcomes[t][np.ix_(slots, list(rows))] == 2
        errors += int(failed.sum(axis=1).min())
        total += len(rows)
    return errors / total


def write_dataset_csv(path, dataset):
    """Dataset CSV: topology, mode, frame_index, category. Each
    (topology, mode) block is written as one string, byte for byte what
    csv.writer writes row by row."""
    endings = [[f"{f},{category}\r\n" for f in range(dataset.frames_per_topology)]
               for category in range(3)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(["topology", "mode", "frame_index", "category"])
        for label, table in zip(dataset.topologies, dataset.outcomes.tolist()):
            for key, categories in zip(dataset.mode_keys, table):
                prefix = csv_cells(label, mode_key_str(key)) + ","
                fh.write("".join([prefix + endings[category][f]
                                  for f, category in enumerate(categories)]))


def write_samples_csv(path, samples):
    """Sample schedule CSV: sample, segment, position, topology, row. Each
    segment is written as one string, byte for byte what csv.writer writes
    row by row."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(["sample", "segment", "position", "topology", "row"])
        for si, sample in enumerate(samples):
            for gi, (label, rows) in enumerate(sample.segments):
                head = f"{si},{gi},"
                cell = csv_cells("", label, "")  # ",<label>,"
                fh.write("".join([f"{head}{pos}{cell}{row}\r\n"
                                  for pos, row in enumerate(rows)]))


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
