"""Trace-driven MAC emulation and the genie-aided routing oracle.

Cooperative delivery maps per-frame PHY outcome categories to delays and
drops: a direct success costs one direct airtime, a cooperative success
the direct plus the cooperative airtime, and a failed frame costs both
airtimes and consumes the next trace entry as a retransmission, up to the
retransmission cap. Genie routing picks, with full knowledge of future
per-hop traces, the per-packet path minimizing total attempts (or the
fastest-dropping path when no path can deliver).
"""
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import selection
from .netsim import (Strategy, enumerate_modes, evaluate_frames, gapless,
                     mode_key_str, read_csv_rows)
from .outage import rate_threshold
from .rng import named_rng
from .topology import check_int, sample_channels


class TraceExhaustedError(RuntimeError):
    """PHY trace ended in the middle of delivering a packet."""


# Airtime of the direct timeslot and of the cooperative second timeslot,
# the cost of a frame that used both, and the payload of a packet.
AIRTIME_DIRECT_US = 180.0
AIRTIME_COOP_PHASE2_US = 192.0
AIRTIME_BOTH_US = AIRTIME_DIRECT_US + AIRTIME_COOP_PHASE2_US
PAYLOAD_BITS = 7776


@dataclass(frozen=True)
class MacPolicy:
    max_retx_coop: int = 2
    max_retx_per_link: int = 4

    def __post_init__(self):
        for name in ("max_retx_coop", "max_retx_per_link"):
            object.__setattr__(self, name, check_int(getattr(self, name), name))
        if self.max_retx_coop < 0 or self.max_retx_per_link < 0:
            raise ValueError("retransmission limits must be >= 0")


class PacketResult(NamedTuple):
    delivered: bool
    total_delay_us: float
    attempts: int
    path_or_mode: str


def _hop_table(label, h, hop):
    """hop h of path label as a (packets, attempts) bool array, ragged
    attempt lists cut to the shortest."""
    if not isinstance(hop, np.ndarray):
        try:
            cut = min((len(attempts) for attempts in hop), default=0)
            hop = np.array([attempts[:cut] for attempts in hop],
                           dtype=bool).reshape(len(hop), cut)
        except TypeError:  # a flat sequence of bools
            pass
    if np.ndim(hop) != 2:
        raise ValueError(f"path {label!r}: hop {h} must be a (packets, attempts) "
                         f"table of bools")
    return hop.astype(bool, copy=False)


@dataclass(frozen=True, eq=False)  # == on array hops has no truth value
class PathTrace:
    """Per-hop, per-packet, per-attempt success outcomes for one path:
    hops[h] is a (packets, attempts) bool array, the same packet count on
    every hop. Nested sequences are converted, ragged attempt lists cut to
    the shortest; a path without hops or packets, a hop that is not a
    table and hops that disagree on packet count are ValueErrors naming
    the path."""
    label: str
    hops: tuple

    def __post_init__(self):
        hops = tuple(_hop_table(self.label, h, hop) for h, hop in enumerate(self.hops))
        if not hops:
            raise ValueError(f"path {self.label!r} has no hops")
        counts = [len(hop) for hop in hops]
        if len(set(counts)) > 1:
            raise ValueError(f"path {self.label!r}: hops disagree on packet "
                             f"count, got {counts}")
        if not counts[0]:
            raise ValueError(f"path {self.label!r} records no packets")
        object.__setattr__(self, "hops", hops)

    @property
    def n_packets(self):
        return len(self.hops[0])


@dataclass(frozen=True)
class PathTraces:
    paths: tuple

    def __post_init__(self):
        if not self.paths:
            raise ValueError("need at least one path")
        n = self.paths[0].n_packets
        if any(p.n_packets != n for p in self.paths):
            raise ValueError("paths disagree on packet count")

    @property
    def n_packets(self):
        return self.paths[0].n_packets


def _packet_end(attempts, mode, category, policy):
    """The PacketResult that ends a packet on its attempts-th frame, sent on
    mode (None: plain DT) with outcome category, or None while it goes on:
    0 delivers after the direct slot ("direct"), 1 after both slots
    (labelled with the mode), 2 costs both slots and drops the packet once
    attempts exceeds max_retx_coop. Any other category is a ValueError."""
    if category == 0:
        return PacketResult(True, (attempts - 1) * AIRTIME_BOTH_US + AIRTIME_DIRECT_US,
                            attempts, "direct")
    if category == 1:
        return PacketResult(True, attempts * AIRTIME_BOTH_US, attempts,
                            mode_key_str(mode))
    if category != 2:
        raise ValueError(f"category must be 0, 1 or 2, got {category!r}")
    if attempts > policy.max_retx_coop:
        return PacketResult(False, attempts * AIRTIME_BOTH_US, attempts, "")
    return None


def coop_mac_deliver(modes, categories, policy=MacPolicy()):
    """Deliver packets over a recorded cooperative PHY trace.

    The trace is two parallel sequences: frame f was sent on modes[f] (None:
    plain DT) with outcome category categories[f]. Each packet consumes one
    frame per attempt until _packet_end ends it. Raises TraceExhaustedError
    if the trace ends mid-packet.
    """
    results = []
    attempts = 0
    for mode, category in zip(modes, categories, strict=True):
        attempts += 1
        end = _packet_end(attempts, mode, category, policy)
        if end is not None:
            results.append(end)
            attempts = 0
    if attempts:
        raise TraceExhaustedError(f"trace ended mid-packet after {len(results)} packets")
    return results


def _walk(path, budget):
    """(dropped, attempts) arrays over the packets of one path, each hop
    allowed budget attempts: a packet stops at its first hop without a
    success among them."""
    dropped = np.zeros(path.n_packets, dtype=bool)
    attempts = np.zeros(path.n_packets, dtype=np.int64)
    for hop in path.hops:
        if hop.shape[1] < budget:
            raise ValueError(
                f"path {path.label}: only {hop.shape[1]} attempts recorded, "
                f"need {budget} to cover the retransmission budget")
        tries = hop[:, :budget]
        ok = tries.any(axis=1)
        attempts += np.where(ok, tries.argmax(axis=1) + 1, budget) * ~dropped
        dropped |= ~ok
    return dropped, attempts


def genie_route(paths, policy=MacPolicy()):
    """Per-packet routing with full future knowledge.

    Among paths that can deliver within the per-hop retransmission caps,
    pick the one with the fewest total attempts (ties: lowest path index);
    if none can, send along the path that drops after the fewest attempts.
    Each attempt is one direct-style link transmission. Every path is
    walked for all packets at once, and each packet takes the least key
    (dropped, attempts, path index) over the paths.
    """
    budget = policy.max_retx_per_link + 1
    walks = [_walk(path, budget) for path in paths.paths]
    dropped = np.array([d for d, _ in walks])
    attempts = np.array([a for _, a in walks])
    best = np.argmin(dropped * (attempts.max(initial=0) + 1) + attempts, axis=0)
    packets = np.arange(paths.n_packets)
    labels = [path.label for path in paths.paths]
    return [PacketResult(not lost, n * AIRTIME_DIRECT_US, n, labels[idx])
            for lost, n, idx in zip(dropped[best, packets].tolist(),
                                    attempts[best, packets].tolist(), best.tolist())]


def drop_rate(results):
    if not results:
        raise ValueError("no packet results")
    return sum(1 for r in results if not r.delivered) / len(results)


def throughput_proxy(results):
    """Delivered payload bits over total emulated airtime, in bits/s."""
    if not results:
        raise ValueError("no packet results")
    delivered_bits = sum(PAYLOAD_BITS for r in results if r.delivered)
    total_us = sum(r.total_delay_us for r in results)
    if total_us <= 0:
        raise ValueError("zero total airtime")
    return delivered_bits / (total_us * 1e-6)


@dataclass(frozen=True)
class CoopVsRoutingScenario:
    """Paired comparison setup: both systems consume the same per-packet
    blocks of channel realizations."""
    topology: object
    rate: float
    n_packets: int
    strategy: object = Strategy.DIQIF
    mode_policy: object = "SPA"          # selection policy for the coop side
    spa_params: object = field(default_factory=selection.SpaParams)

    def __post_init__(self):
        rate_threshold(self.rate)
        object.__setattr__(self, "n_packets", check_int(self.n_packets, "n_packets"))
        if self.n_packets < 1:
            raise ValueError(f"n_packets must be >= 1, got {self.n_packets}")
        selection.check_policy(self.mode_policy, self.topology.n_relays,
                               self.spa_params)


@dataclass(frozen=True)
class ComparisonReport:
    coop_results: tuple
    genie_results: tuple
    coop_drop_rate: float
    genie_drop_rate: float
    coop_throughput: float
    genie_throughput: float


def _realization_blocks(scenario, mac, rng):
    """One (n_packets, n_slots, 2N+1) draw array, packet by packet and
    slot by slot."""
    per_hop = mac.max_retx_per_link + 1
    n_slots = max(mac.max_retx_coop + 1, 2 * per_hop)
    draws = sample_channels(scenario.topology, rng, scenario.n_packets * n_slots)
    return draws.reshape(scenario.n_packets, n_slots, -1)


def _coop_side(scenario, mac, blocks, rng):
    """Run the coop policy over the MAC attempt stream: a packet's attempts
    take successive slots of its block until _packet_end ends it, at the
    latest after max_retx_coop + 1. Returns the packets in order, each
    ended as the executor serves its last frame. rng serves the policy's
    own draws (RandPick, PWR2).

    Every mode slot's categories of attempt a of packet p are evaluated
    up front, one evaluate_frames pass per slot, into a bytes table at
    p * thr_attempts + a (indexing bytes gives the int category)."""
    thr_attempts = mac.max_retx_coop + 1
    n_packets = scenario.n_packets
    modes = enumerate_modes(scenario.topology.n_relays)
    frames = blocks[:, :thr_attempts]
    tables = {slot: evaluate_frames(frames, slot, scenario.strategy,
                                    scenario.rate).tobytes()
              for slot in (None, *modes)}
    packets = []
    attempts = 0

    def executor(mode_key, n):
        nonlocal attempts
        table = tables[mode_key]
        categories = []
        while len(packets) < n_packets and len(categories) < n:
            category = table[len(packets) * thr_attempts + attempts]
            categories.append(category)
            attempts += 1
            end = _packet_end(attempts, mode_key, category, mac)
            if end is not None:
                packets.append(end)
                attempts = 0
        return categories

    selection.run_policy(scenario.mode_policy, executor, modes, scenario.spa_params, rng=rng)
    return packets


def _routing_side(scenario, mac, blocks):
    """Per-hop attempt traces from the same blocks: the direct path uses
    slots [0, per_hop), a relay path's first hop the same slots and its
    second hop slots [per_hop, 2*per_hop). Hop successes are threshold
    tests on the corresponding link of the slot's realization."""
    thr = rate_threshold(scenario.rate)
    per_hop = mac.max_retx_per_link + 1
    n_relays = scenario.topology.n_relays

    def hop(slots, column):
        return blocks[:, slots, column] >= thr

    first, second = slice(0, per_hop), slice(per_hop, 2 * per_hop)
    paths = [PathTrace("S-D", (hop(first, 0),))]
    for i in range(1, n_relays + 1):
        paths.append(PathTrace(f"S-R{i}-D",
                               (hop(first, i), hop(second, n_relays + i))))
    return PathTraces(tuple(paths))


def compare_coop_vs_genie(scenario, policy=MacPolicy(), seed=0):
    """Paired drop rates and throughput proxies on identical channels.

    The coop side runs the scenario's selection policy frame by frame with
    MAC retransmissions; the genie side routes each packet over the direct
    and S-R_i-D paths of the same realization blocks. The blocks come from
    the (seed, "coop_vs_genie") stream; a policy that draws (RandPick,
    PWR2) draws from the (seed, "mac_policy", name) stream, name being
    selection.policy_name of the policy.
    """
    blocks = _realization_blocks(scenario, policy, named_rng(seed, "coop_vs_genie"))

    coop_results = _coop_side(
        scenario, policy, blocks,
        named_rng(seed, "mac_policy", selection.policy_name(scenario.mode_policy)))
    genie_results = genie_route(_routing_side(scenario, policy, blocks), policy)
    return ComparisonReport(
        coop_results=tuple(coop_results),
        genie_results=tuple(genie_results),
        coop_drop_rate=drop_rate(coop_results),
        genie_drop_rate=drop_rate(genie_results),
        coop_throughput=throughput_proxy(coop_results),
        genie_throughput=throughput_proxy(genie_results),
    )


_SUCCESS = {"1": True, "true": True, "0": False, "false": False}


def _path_cell(row):
    ok = _SUCCESS.get(str(row["success"]).strip().lower())
    if ok is None:
        raise ValueError(f"success must be 0, 1, true or false, got {row['success']!r}")
    try:
        index = [int(row[c]) for c in ("hop", "packet", "attempt")]
    except (TypeError, ValueError):
        index = [-1]
    if min(index) < 0:
        raise ValueError("hop, packet and attempt must be integers >= 0")
    return (row["path"], *index, ok)


def read_path_traces(path):
    """Path-trace CSV with columns path, hop, packet, attempt, success.

    success is 0, 1, true or false (any case); hop, packet and attempt are
    integers >= 0. Each path's hops, each hop's packets (the same count on
    every path) and each packet's attempts must count up from 0 without
    gaps. Anything else is a TraceFormatError naming the file and the
    1-based data row, or the missing grid cell.
    """
    cells = {}
    for label, hop, packet, attempt, ok in read_csv_rows(
            path, ("path", "hop", "packet", "attempt", "success"), _path_cell):
        cells.setdefault(label, {}).setdefault(hop, {}).setdefault(packet, {})[attempt] = ok
    n_packets = 1 + max(p for hops in cells.values() for packets in hops.values()
                        for p in packets)
    paths = []
    for label, hops in sorted(cells.items()):
        where = f"path {label!r} hop"
        hop_data = []
        for h, packets in enumerate(gapless(path, where, hops, len(hops))):
            packets = gapless(path, f"{where} {h} packet", packets, n_packets)
            hop_data.append(tuple(
                tuple(gapless(path, f"{where} {h} packet {p} attempt", attempts,
                              len(attempts)))
                for p, attempts in enumerate(packets)))
        paths.append(PathTrace(label, tuple(hop_data)))
    return PathTraces(tuple(paths))
