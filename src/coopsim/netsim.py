"""Two-phase cooperative frame simulation.

A mode is a choice of one or two relays to assist the source-destination
pair. Every frame starts with a direct transmission (Phase 1); if the
destination cannot decode, a second slot is used according to the relaying
strategy. Frame success is a stylized SNR-threshold abstraction: the
destination combines the energy of everything it heard, relays decode
Phase 1 iff their incoming link supports the rate, and the quantize path
of DIQIF is credited with the cut-set capacity of the mode's relay set.
The abstraction targets the ordering FER(DIQIF) <= FER(DIF) <= FER(DT) on
identical realizations, not absolute error rates. The DT and DIF rules of
the second slot are written once (_phase2_ok), for evaluate_frame on one
row of floats and for evaluate_frames on arrays of rows.
"""
import csv
import enum
import functools
import io
from dataclasses import dataclass

import numpy as np

from .outage import approx_capacity, rate_threshold


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

    def check_relays(self, n_relays):
        """Raise ValueError unless the mode's relays exist among n_relays."""
        if self.relays[-1] > n_relays:
            raise ValueError(f"mode {self} invalid for a {n_relays}-relay topology")

    @classmethod
    def parse(cls, text):
        """The mode spelt "R<i>" or "R<i>R<j>" (any case); text whose parts
        between the Rs are not integers is a ValueError naming it."""
        try:
            relays = tuple(int(p) for p in str(text).upper().split("R") if p)
        except ValueError:
            relays = ()
        if not relays:
            raise ValueError(f"cannot parse mode {text!r}")
        return cls(relays)


@functools.cache
def mode_key_str(mode):
    """CSV form of a mode slot, 'DT' for no cooperation; one string per mode."""
    return "DT" if mode is None else str(mode)


def parse_mode_key(text):
    return None if str(text).upper() == "DT" else Mode.parse(text)


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


def _select(cond, a, b):
    """np.where on one row's floats."""
    return a if cond else b


def _phase2_ok(x, mode, strategy, thr, where):
    """Second-slot decodability by the DT or the DIF rule (DIQIF's credit
    is the caller's), given a failed Phase 1; x[i] is link i of the draw, a
    float or an array of links, and where(cond, a, b) selects as np.where
    does on them.

    thr is the linear SNR a slot must accumulate for the rate. The
    destination always maximal-ratio-combines its Phase-1 copy with the
    Phase-2 superposition, which makes the DT criterion a floor for the
    one-relay strategies.
    """
    h_sd2 = x[0]
    if strategy is Strategy.DT or mode is None:
        # source repeats: phase-1 + phase-2 copies of the direct link
        return 2.0 * h_sd2 >= thr
    n_relays = (len(x) - 1) // 2
    if len(mode.relays) == 1:
        # the relay joins the source's repeat if it decoded; MRC with phase 1
        (i,) = mode.relays
        return where(x[i] >= thr, 2.0 * h_sd2 + x[n_relays + i], 2.0 * h_sd2) >= thr
    # two relays: the decoded ones alone transmit, h_sd2 + (g_i + g_j)
    i, j = mode.relays
    decoded_i, decoded_j = x[i] >= thr, x[j] >= thr
    relayed = (where(decoded_i, x[n_relays + i], 0.0)
               + where(decoded_j, x[n_relays + j], 0.0))
    return (decoded_i | decoded_j) & (h_sd2 + relayed >= thr)


def evaluate_frame(c, mode, strategy, rate):
    """Outcome category of one frame on the (2N+1,) draw c of
    topology.sample_channels: 0 direct success, 1 cooperative success,
    2 failure (pure; no draws), so that every mode can be compared on
    identical per-frame channels.
    """
    strategy = Strategy.parse(strategy)
    thr = rate_threshold(rate)
    c = np.asarray(c, dtype=float)
    if c.ndim != 1 or len(c) % 2 == 0:
        raise ValueError(f"evaluate_frame takes one (2N+1,) draw, got shape {c.shape}")
    c = c.tolist()  # Python floats: cheaper scalar arithmetic
    if mode is not None:
        mode.check_relays((len(c) - 1) // 2)
    if thr <= c[0]:
        return 0
    if _phase2_ok(c, mode, strategy, thr, _select) or (
            # DIQIF: the quantize path is credited with the cut-set value
            strategy is Strategy.DIQIF and mode is not None
            and approx_capacity(c, mode.relays) >= rate):
        return 1
    return 2


def evaluate_frames(c, mode, strategy, rate):
    """evaluate_frame on every (2N+1,) row of the draw array c, which may
    have any leading axes: an int8 array of categories of c's shape without
    its last axis, equal to the row-by-row result exactly.

    evaluate_frame stays the form for one row, where a numpy pass costs
    more than Python arithmetic on its floats.
    """
    strategy = Strategy.parse(strategy)
    thr = rate_threshold(rate)
    c = np.asarray(c, dtype=float)
    if c.ndim < 1 or c.shape[-1] % 2 == 0:
        raise ValueError(f"evaluate_frames takes (..., 2N+1) draws, got shape {c.shape}")
    if mode is not None:
        mode.check_relays((c.shape[-1] - 1) // 2)
    x = np.moveaxis(c, -1, 0)
    ok = _phase2_ok(x, mode, strategy, thr, np.where)
    if strategy is Strategy.DIQIF and mode is not None:
        ok |= approx_capacity(c, mode.relays) >= rate
    categories = np.where(ok, np.int8(1), np.int8(2))
    categories[thr <= x[0]] = 0
    return categories


def write_trace(path, modes, categories, topology_labels=None):
    """Trace CSV shared with macemu/ensemble: frame_index, topology_id,
    mode, category; frame f was sent on modes[f] with outcome
    categories[f]."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["frame_index", "topology_id", "mode", "category"])
        for f, (mode, category) in enumerate(zip(modes, categories)):
            label = topology_labels[f] if topology_labels is not None else ""
            w.writerow([f, label, mode_key_str(mode), category])


def csv_cells(*fields):
    """fields as csv.writer writes them on one row, without the line
    terminator: quoted where csv.writer quotes them."""
    buf = io.StringIO()
    csv.writer(buf).writerow(fields)
    return buf.getvalue()[:-2]


def read_csv_rows(path, columns, parse):
    """parse(row) for each data row (a dict) of a CSV file. A file without
    one of the given columns or without rows, and a ValueError or TypeError
    from parse, is a TraceFormatError naming the file (and the 1-based data
    row)."""
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in columns if c not in (reader.fieldnames or ())]
        if missing:
            raise TraceFormatError(f"{path}: missing column(s) {', '.join(missing)}")
        rows = list(reader)
    if not rows:
        raise TraceFormatError(f"{path}: no rows after the header")
    parsed = []
    for n, row in enumerate(rows, start=1):
        try:
            parsed.append(parse(row))
        except (TypeError, ValueError) as e:
            raise TraceFormatError(f"{path}: data row {n}: {e}") from None
    return parsed


def gapless(path, where, cells, n):
    """[cells[0], ..., cells[n-1]] of the int-keyed mapping cells; any other
    key set of n or fewer keys leaves a gap below n, a TraceFormatError
    naming it as "<where> <index> is missing"."""
    if set(cells) != set(range(n)):
        raise TraceFormatError(f"{path}: {where} {min(set(range(n)) - set(cells))} "
                               f"is missing")
    return [cells[i] for i in range(n)]


def _trace_entry(row):
    try:
        category = int(row["category"])
    except (TypeError, ValueError):
        category = None
    if category not in (0, 1, 2):
        raise ValueError(f"category must be 0, 1 or 2, got {row['category']!r}")
    return parse_mode_key(row["mode"]), category


def read_trace(path):
    """Read a trace CSV back as (modes, categories), two parallel lists; a
    category that is not 0, 1 or 2, or a mode that does not parse, is a
    TraceFormatError naming the file and the data row (1-based)."""
    modes, categories = zip(*read_csv_rows(path, ("mode", "category"), _trace_entry))
    return list(modes), list(categories)
