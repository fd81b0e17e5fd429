"""Rayleigh-fading network topologies and time-varying schedules.

An N-relay topology is described by the fading statistics of its 2N+1
links: source->destination, source->relay_i and relay_i->destination.
Under Rayleigh fading the squared channel magnitude of each link is
exponentially distributed; we store the rate parameter lambda = 1 / sigma^2
where sigma^2 is the mean link SNR (signal and noise power normalized to
one, so squared magnitudes are in linear SNR units).
"""
import math
from dataclasses import dataclass

import numpy as np
import yaml


class TopologyError(ValueError):
    """Base class for malformed topology inputs."""


class NonPositiveRateError(TopologyError):
    """A fading rate parameter is <= 0 or not finite."""


class LengthMismatchError(TopologyError):
    """A per-relay parameter list does not have n_relays entries."""


class ScheduleOutOfRangeError(IndexError):
    """Frame index beyond the end of a topology schedule."""


@dataclass(frozen=True)
class Topology:
    """Per-link exponential rate parameters of an N-relay network.

    lambda_sr[i] governs h_i^2 on the source->relay_i link, lambda_rd[i]
    governs g_i^2 on the relay_i->destination link (0-based storage for
    1-based relay indices).
    """
    n_relays: int
    lambda_sd: float
    lambda_sr: tuple
    lambda_rd: tuple
    label: str = "topology"

    def __post_init__(self):
        object.__setattr__(self, "lambda_sr", tuple(float(x) for x in self.lambda_sr))
        object.__setattr__(self, "lambda_rd", tuple(float(x) for x in self.lambda_rd))
        validate_topology(self)

    @classmethod
    def from_snr(cls, snr_sd, snr_sr, snr_rd, label="topology", units="linear"):
        """Build from mean link SNRs (sigma^2), linear or dB."""
        if units not in ("linear", "db"):
            raise TopologyError(f"unknown units {units!r}, expected 'linear' or 'db'")
        conv = (lambda v: 10.0 ** (v / 10.0)) if units == "db" else float
        snr_sd = conv(snr_sd)
        snr_sr = [conv(v) for v in snr_sr]
        snr_rd = [conv(v) for v in snr_rd]
        for v in [snr_sd, *snr_sr, *snr_rd]:
            if not (v > 0.0 and math.isfinite(v)):
                raise NonPositiveRateError(f"mean SNR must be positive and finite, got {v}")
        return cls(
            n_relays=len(snr_sr),
            lambda_sd=1.0 / snr_sd,
            lambda_sr=tuple(1.0 / v for v in snr_sr),
            lambda_rd=tuple(1.0 / v for v in snr_rd),
            label=label,
        )

    def scaled(self, snr_factor, label=None):
        """Topology with every mean link SNR multiplied by snr_factor."""
        if not (snr_factor > 0.0 and math.isfinite(snr_factor)):
            raise NonPositiveRateError(f"snr_factor must be positive, got {snr_factor}")
        return Topology(
            n_relays=self.n_relays,
            lambda_sd=self.lambda_sd / snr_factor,
            lambda_sr=tuple(l / snr_factor for l in self.lambda_sr),
            lambda_rd=tuple(l / snr_factor for l in self.lambda_rd),
            label=self.label if label is None else label,
        )

    @property
    def snr_sd(self):
        return 1.0 / self.lambda_sd

    @property
    def snr_sr(self):
        return tuple(1.0 / l for l in self.lambda_sr)

    @property
    def snr_rd(self):
        return tuple(1.0 / l for l in self.lambda_rd)


def validate_topology(t):
    """Check all topology invariants; raises on violation, returns True."""
    if t.n_relays < 0:
        raise TopologyError(f"n_relays must be >= 0, got {t.n_relays}")
    if len(t.lambda_sr) != t.n_relays:
        raise LengthMismatchError(
            f"lambda_sr has {len(t.lambda_sr)} entries, expected {t.n_relays}")
    if len(t.lambda_rd) != t.n_relays:
        raise LengthMismatchError(
            f"lambda_rd has {len(t.lambda_rd)} entries, expected {t.n_relays}")
    for lam in (t.lambda_sd, *t.lambda_sr, *t.lambda_rd):
        if not (lam > 0.0 and math.isfinite(lam)):
            raise NonPositiveRateError(f"rate parameter must be positive and finite, got {lam}")
    return True


def sample_channels(t, rng, n=None):
    """Draw independent realizations of all 2N+1 links.

    Each squared magnitude is exponential with the link's rate parameter.
    A draw is a float array whose last axis is [h_sd2, h2_1..h2_N,
    g2_1..g2_N]: 1-based relay i is column i on the source side and
    column N+i on the destination side. The shape is (2N+1,) for n=None
    and (n, 2N+1) otherwise. Rows are drawn in order from one call, so a
    batch of n equals n single draws from the same generator state.
    """
    scales = 1.0 / np.array((t.lambda_sd, *t.lambda_sr, *t.lambda_rd))
    return rng.exponential(scales, size=None if n is None else (n, len(scales)))


@dataclass(frozen=True)
class TopologySchedule:
    """Ordered segments of (topology label, frame count) covering a run."""
    segments: tuple

    def __post_init__(self):
        segs = tuple((str(label), int(n)) for label, n in self.segments)
        object.__setattr__(self, "segments", segs)
        if not segs:
            raise TopologyError("schedule must have at least one segment")
        if any(n <= 0 for _, n in segs):
            raise TopologyError("segment lengths must be positive")

    @property
    def total_frames(self):
        return sum(n for _, n in self.segments)


def schedule_topology_at(schedule, frame_index):
    """Topology label governing frame_index; segments are half-open [start, start+len)."""
    if frame_index < 0:
        raise ScheduleOutOfRangeError(f"frame index {frame_index} is negative")
    start = 0
    for label, n in schedule.segments:
        if frame_index < start + n:
            return label
        start += n
    raise ScheduleOutOfRangeError(
        f"frame index {frame_index} beyond schedule length {schedule.total_frames}")


def topology_from_dict(doc):
    """Topology from a parsed document with keys label, n_relays, snr_sd,
    snr_sr, snr_rd and optional units: linear|db (default linear)."""
    try:
        n = int(doc["n_relays"])
        t = Topology.from_snr(
            snr_sd=doc["snr_sd"],
            snr_sr=list(doc["snr_sr"]),
            snr_rd=list(doc["snr_rd"]),
            label=str(doc.get("label", "topology")),
            units=str(doc.get("units", "linear")),
        )
    except KeyError as e:
        raise TopologyError(f"topology document missing key {e.args[0]!r}") from e
    except TypeError as e:
        raise TopologyError(f"malformed topology document: {e}") from e
    if t.n_relays != n:
        raise LengthMismatchError(
            f"n_relays is {n} but snr lists have {t.n_relays} entries")
    return t


def load_topology(path):
    """Read a single-topology YAML file."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = yaml.safe_load(fh)
    if not isinstance(doc, dict):
        raise TopologyError(f"{path}: expected a mapping at top level")
    return topology_from_dict(doc)


def save_topology(t, path, units="linear"):
    """Write the YAML form read back by load_topology."""
    if units == "db":
        conv = lambda v: 10.0 * math.log10(v)
    else:
        conv = float
    doc = {
        "label": t.label,
        "n_relays": t.n_relays,
        "units": units,
        "snr_sd": conv(t.snr_sd),
        "snr_sr": [conv(v) for v in t.snr_sr],
        "snr_rd": [conv(v) for v in t.snr_rd],
    }
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(doc, fh, sort_keys=False)
