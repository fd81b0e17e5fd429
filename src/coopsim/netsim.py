"""Two-phase cooperative frame simulation.

A mode is a choice of one or two relays to assist the source-destination
pair. Every frame starts with a direct transmission (Phase 1); if the
destination cannot decode, a second slot is used according to the relaying
strategy. Frame success is a stylized SNR-threshold abstraction: the
destination combines the energy of everything it heard, relays decode
Phase 1 iff their incoming link supports the rate, and the quantize path
of DIQIF is credited with the cut-set capacity of the mode's relay set.
The abstraction targets the ordering FER(DIQIF) <= FER(DIF) <= FER(DT) on
identical realizations, not absolute error rates.
"""
import csv
import enum
from dataclasses import dataclass

from .outage import approx_capacity
from .topology import sample_channels, schedule_topology_at


class TraceFormatError(ValueError):
    """A trace CSV without rows or without a column its reader needs."""


class Strategy(enum.Enum):
    DT = "DT"
    DIF = "DIF"
    DIQIF = "DIQIF"

    @classmethod
    def parse(cls, value):
        if isinstance(value, cls):
            return value
        try:
            return cls[str(value).upper()]
        except KeyError:
            raise ValueError(f"unknown strategy {value!r}") from None


@dataclass(frozen=True)
class Mode:
    """One- or two-relay cooperation choice, relay indices 1-based."""
    relays: tuple

    def __init__(self, relays):
        relays = tuple(int(i) for i in relays)
        if len(relays) not in (1, 2):
            raise ValueError(f"a mode uses 1 or 2 relays, got {relays}")
        if any(i < 1 for i in relays):
            raise ValueError(f"relay indices are 1-based, got {relays}")
        if len(relays) == 2 and not relays[0] < relays[1]:
            raise ValueError(f"two-relay modes need i < j, got {relays}")
        object.__setattr__(self, "relays", relays)

    def __str__(self):
        return "".join(f"R{i}" for i in self.relays)

    @classmethod
    def parse(cls, text):
        parts = [p for p in str(text).upper().split("R") if p]
        if not parts:
            raise ValueError(f"cannot parse mode {text!r}")
        return cls(tuple(int(p) for p in parts))


def mode_key_str(mode):
    """CSV form of a mode slot: 'DT' for no cooperation."""
    return "DT" if mode is None else str(mode)


def parse_mode_key(text):
    return None if str(text).upper() == "DT" else Mode.parse(text)


@dataclass(frozen=True)
class FrameOutcome:
    """category 0: direct success, 1: cooperative success, 2: failure."""
    category: int
    mode: object = None

    def __post_init__(self):
        if self.category not in (0, 1, 2):
            raise ValueError(f"category must be 0, 1 or 2, got {self.category}")


def enumerate_modes(n_relays):
    """All N one-relay modes in index order, then the C(N,2) two-relay
    modes in lexicographic order."""
    if n_relays < 1:
        raise ValueError(f"need at least one relay, got {n_relays}")
    modes = [Mode((i,)) for i in range(1, n_relays + 1)]
    for i in range(1, n_relays + 1):
        for j in range(i + 1, n_relays + 1):
            modes.append(Mode((i, j)))
    return modes


def _phase2_success(c, mode, strategy, rate):
    """Second-slot decodability given a failed Phase 1.

    thr is the linear SNR a slot must accumulate for rate R. The
    destination always maximal-ratio-combines its Phase-1 copy with the
    Phase-2 superposition, which makes the DT criterion a floor for the
    one-relay strategies.
    """
    thr = 2.0 ** rate - 1.0
    if strategy is Strategy.DT or mode is None:
        # source repeats: phase-1 + phase-2 copies of the direct link
        return 2.0 * c.h_sd2 >= thr

    decoded = [i for i in mode.relays if c.h2[i - 1] >= thr]
    if len(mode.relays) == 1:
        if decoded:
            # source + relay transmit; combined with the phase-1 copy
            dif_ok = 2.0 * c.h_sd2 + c.g2[mode.relays[0] - 1] >= thr
        else:
            # relay stays silent, source repetition only
            dif_ok = 2.0 * c.h_sd2 >= thr
    else:
        # only the relays transmit in phase 2 of a two-relay mode
        dif_ok = bool(decoded) and (
            c.h_sd2 + sum(c.g2[i - 1] for i in decoded) >= thr)

    if strategy is Strategy.DIF:
        return dif_ok
    # DIQIF: the quantize path is credited with the cut-set value
    return dif_ok or approx_capacity(c, mode.relays) >= rate


def evaluate_frame(c, mode, strategy, rate):
    """Frame outcome for a given realization (pure; no draws).

    Keeping this separate from simulate_frame lets ensemble recording
    compare every mode on identical per-frame channels.
    """
    strategy = Strategy.parse(strategy)
    if mode is not None and any(i > len(c.h2) for i in mode.relays):
        raise ValueError(f"mode {mode} invalid for a {len(c.h2)}-relay realization")
    if 2.0 ** rate - 1.0 <= c.h_sd2:
        return FrameOutcome(0, mode)
    if _phase2_success(c, mode, strategy, rate):
        return FrameOutcome(1, mode)
    return FrameOutcome(2, mode)


def simulate_frame(t, mode, strategy, rate, rng):
    """Draw one realization and evaluate the frame."""
    if mode is not None and any(i > t.n_relays for i in mode.relays):
        raise ValueError(f"mode {mode} invalid for {t.n_relays}-relay topology")
    return evaluate_frame(sample_channels(t, rng), mode, strategy, rate)


def run_fixed(schedule, topologies, mode, strategy, rate, rng):
    """One outcome per schedule frame with a fixed mode (None = plain DT).

    topologies maps schedule labels to Topology objects.
    """
    outcomes = []
    for f in range(schedule.total_frames):
        label = schedule_topology_at(schedule, f)
        outcomes.append(simulate_frame(topologies[label], mode, strategy, rate, rng))
    return outcomes


def write_trace(path, outcomes, topology_labels=None):
    """Trace CSV shared with macemu/ensemble: frame_index, topology_id,
    mode, category."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["frame_index", "topology_id", "mode", "category"])
        for f, out in enumerate(outcomes):
            label = topology_labels[f] if topology_labels is not None else ""
            w.writerow([f, label, mode_key_str(out.mode), out.category])


def read_csv_rows(path, columns):
    """The data rows of a CSV file as dicts, checked to have the given
    columns and at least one row (TraceFormatError otherwise)."""
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in columns if c not in (reader.fieldnames or ())]
        if missing:
            raise TraceFormatError(f"{path}: missing column(s) {', '.join(missing)}")
        rows = list(reader)
    if not rows:
        raise TraceFormatError(f"{path}: no rows after the header")
    return rows


def read_trace(path):
    """Read a trace CSV back into FrameOutcome objects."""
    return [FrameOutcome(int(row["category"]), parse_mode_key(row["mode"]))
            for row in read_csv_rows(path, ("mode", "category"))]
