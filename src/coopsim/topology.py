"""Rayleigh-fading network topologies and time-varying schedules.

An N-relay topology is described by the fading statistics of its 2N+1
links: source->destination, source->relay_i and relay_i->destination.
Under Rayleigh fading the squared channel magnitude of each link is
exponentially distributed; we store the rate parameter lambda = 1 / sigma^2
where sigma^2 is the mean link SNR (signal and noise power normalized to
one, so squared magnitudes are in linear SNR units).
"""
import math
import numbers
from dataclasses import dataclass

import numpy as np
import yaml


class TopologyError(ValueError):
    """Base class for malformed topology inputs."""


class NonPositiveRateError(TopologyError):
    """A fading rate parameter is <= 0 or not finite."""


class LengthMismatchError(TopologyError):
    """The per-relay parameter lists differ in length."""


def check_int(value, field, minimum=None):
    """value as an int; a ValueError naming field unless it is an integer
    (numpy integers too), not a bool, and >= minimum if one is given. 1.5
    is not truncated to 1."""
    if type(value) is not int and (isinstance(value, bool)  # int: the fast path
                                   or not isinstance(value, numbers.Integral)) \
            or minimum is not None and value < minimum:
        at_least = "" if minimum is None else f" >= {minimum}"
        raise ValueError(f"{field} must be an integer{at_least}, got {value!r}")
    return int(value)


def doc_int(value, field):
    """A parsed document's value as an int; a ValueError naming field
    unless it is an int or an integral float (not 2.5, "3" or true)."""
    return check_int(int(value) if isinstance(value, float) and value.is_integer()
                     else value, field)


def doc_number(value, field):
    """A parsed document's value as a float; a ValueError naming field
    unless it is an int or a float (not "1.0" or true)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{field} must be a number, got {value!r}")
    return float(value)


def doc_list(value, field):
    """A parsed document's list (or tuple) value; a ValueError naming
    field for anything else, such as "123" or a mapping."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{field} must be a list, got {value!r}")
    return value


def doc_str(value, field):
    """A parsed document's string value; a ValueError naming field for
    anything else, such as null, 7 or a list."""
    if not isinstance(value, str):
        raise ValueError(f"{field} must be a string, got {value!r}")
    return value


def doc_rule(rule):
    """The read_doc parser of the document rule rule(value, field), such
    as doc_int, which reads no files."""
    return lambda value, what, base_dir: rule(value, what)


# The default of a key that its block must give.
REQUIRED = object()


def read_doc(block, schema, where, base_dir=None, top=False):
    """The parsed keys of block (None reads as {}), a mapping checked
    against schema, which maps each key it allows to (parser, default).
    parser(value, what, base_dir) parses the key's value, or its default
    where block leaves it out, and raises ValueError naming what: the key,
    after `where` unless top. A REQUIRED key must be given."""
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
        if value is REQUIRED:
            raise ValueError(f"missing required key {key!r}")
        parsed[key] = parse(value, key if top else f"{where} {key}", base_dir)
    return parsed


class _RepeatedKey(Exception):
    """A key given twice in one YAML mapping."""


class _UniqueKeyLoader(yaml.SafeLoader):
    """yaml.SafeLoader that rejects a scalar key given twice in one mapping,
    of which yaml.safe_load would keep the later value. A key that a merge
    (<<) brings in may still be set again."""

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, _ in node.value:
            if (isinstance(key_node, yaml.ScalarNode)
                    and key_node.tag != "tag:yaml.org,2002:merge"):
                key = self.construct_object(key_node, deep=deep)
                if key in seen:
                    raise _RepeatedKey(f"key {key!r} given twice "
                                       f"(line {key_node.start_mark.line + 1})")
                seen.add(key)
        return super().construct_mapping(node, deep=deep)


def load_doc(path, error):
    """The mapping that the YAML file path holds; error naming path if it
    holds anything else or gives a key twice in one mapping. OSError and
    yaml.YAMLError pass through."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = yaml.load(fh, _UniqueKeyLoader)
        except _RepeatedKey as e:
            raise error(f"{path}: {e}") from None
    if not isinstance(doc, dict):
        raise error(f"{path}: expected a mapping at top level")
    return doc


@dataclass(frozen=True)
class Topology:
    """Per-link exponential rate parameters of an N-relay network.

    lambda_sr[i] governs h_i^2 on the source->relay_i link, lambda_rd[i]
    governs g_i^2 on the relay_i->destination link (0-based storage for
    1-based relay indices). N, n_relays, is the length of lambda_sr.
    """
    lambda_sd: float
    lambda_sr: tuple
    lambda_rd: tuple
    label: str = "topology"

    def __post_init__(self):
        object.__setattr__(self, "lambda_sr", tuple(float(x) for x in self.lambda_sr))
        object.__setattr__(self, "lambda_rd", tuple(float(x) for x in self.lambda_rd))
        validate_topology(self)

    @property
    def n_relays(self):
        return len(self.lambda_sr)

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
            lambda_sd=1.0 / snr_sd,
            lambda_sr=tuple(1.0 / v for v in snr_sr),
            lambda_rd=tuple(1.0 / v for v in snr_rd),
            label=label,
        )

    def scaled(self, snr_factor):
        """Topology with every mean link SNR multiplied by snr_factor."""
        if not (snr_factor > 0.0 and math.isfinite(snr_factor)):
            raise NonPositiveRateError(f"snr_factor must be positive, got {snr_factor}")
        return Topology(
            lambda_sd=self.lambda_sd / snr_factor,
            lambda_sr=tuple(l / snr_factor for l in self.lambda_sr),
            lambda_rd=tuple(l / snr_factor for l in self.lambda_rd),
            label=self.label,
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
    if len(t.lambda_rd) != t.n_relays:
        raise LengthMismatchError(
            f"lambda_rd has {len(t.lambda_rd)} entries, expected {t.n_relays}")
    for lam in (t.lambda_sd, *t.lambda_sr, *t.lambda_rd):
        if not (lam > 0.0 and math.isfinite(lam)):
            raise NonPositiveRateError(f"rate parameter must be positive and finite, got {lam}")
    return True


def link_scales(t):
    """The mean 1 / lambda of each link, in the column order of sample_channels."""
    return 1.0 / np.array((t.lambda_sd, *t.lambda_sr, *t.lambda_rd))


def unit_draws(t, rng, n=None):
    """sample_channels(t, rng, n) before its scaling by link_scales(t)."""
    links = 2 * t.n_relays + 1
    return rng.standard_exponential(links if n is None else (check_int(n, "n"), links))


def sample_channels(t, rng, n=None):
    """Draw independent realizations of all 2N+1 links.

    Each squared magnitude is exponential with the link's rate parameter.
    A draw is a float array whose last axis is [h_sd2, h2_1..h2_N,
    g2_1..g2_N]: 1-based relay i is column i on the source side and
    column N+i on the destination side. The shape is (2N+1,) for n=None
    and (n, 2N+1) otherwise. Rows are drawn in order from one call, so a
    batch of n equals n single draws from the same generator state. The
    values and stream position are those of rng.exponential(link_scales(t), size).
    Every reader of a draw takes N from its last axis by draw_relays.
    """
    draws = unit_draws(t, rng, n)
    return np.multiply(draws, link_scales(t), out=draws)


def draw_relays(c, what):
    """N of the draw array c, whose last axis holds the 2N+1 links in the
    layout of sample_channels; a ValueError "<what>, got shape <shape>"
    unless that axis exists and has odd length."""
    shape = c.shape
    if not shape or shape[-1] % 2 == 0:
        raise ValueError(f"{what}, got shape {shape}")
    return (shape[-1] - 1) // 2


@dataclass(frozen=True)
class TopologySchedule:
    """Ordered segments of (topology label, frame count) covering a run."""
    segments: tuple

    def __post_init__(self):
        segs = tuple((label, check_int(n, "frames")) for label, n in self.segments)
        object.__setattr__(self, "segments", segs)
        if not segs:
            raise TopologyError("schedule must have at least one segment")
        if any(n <= 0 for _, n in segs):
            raise TopologyError("segment lengths must be positive")

    @property
    def total_frames(self):
        return sum(n for _, n in self.segments)


def _snrs(value, what, base_dir):
    return [doc_number(v, f"{what} entry") for v in doc_list(value, what)]


# The keys of a topology document, with their rules and defaults: the mean
# SNRs are in units; n_relays may be an integral float (2.0 reads as 2).
_TOPOLOGY = {"label": (doc_rule(doc_str), "topology"),
             "n_relays": (doc_rule(doc_int), REQUIRED),
             "units": (doc_rule(doc_str), "linear"),
             "snr_sd": (doc_rule(doc_number), REQUIRED),
             "snr_sr": (_snrs, REQUIRED), "snr_rd": (_snrs, REQUIRED)}


def topology_from_dict(doc):
    """Topology from a parsed document with the keys label, n_relays,
    units (linear or db), snr_sd, snr_sr and snr_rd and no others; a
    missing, unknown or malformed key is a TopologyError naming it."""
    try:
        keys = read_doc(doc, _TOPOLOGY, "topology", top=True)
    except ValueError as e:
        raise TopologyError(f"malformed topology document: {e}") from e
    n = keys.pop("n_relays")
    t = Topology.from_snr(**keys)
    if t.n_relays != n:
        raise LengthMismatchError(
            f"n_relays is {n} but snr lists have {t.n_relays} entries")
    return t


def load_topology(path):
    """Read a single-topology YAML file."""
    return topology_from_dict(load_doc(path, TopologyError))
