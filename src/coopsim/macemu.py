"""Trace-driven MAC emulation and the genie-aided routing oracle.

Cooperative delivery maps per-frame PHY outcome categories to delays and
drops: a direct success costs one direct airtime, a cooperative success
the direct plus the cooperative airtime, and a failed frame costs both
airtimes and consumes the next trace entry as a retransmission, up to the
retransmission cap. Genie routing picks, with full knowledge of future
per-hop traces, the per-packet path minimizing total attempts (or the
fastest-dropping path when no path can deliver).
"""
import csv
from dataclasses import dataclass, field

from . import selection
from .netsim import (FrameOutcome, Strategy, enumerate_modes, evaluate_frame,
                     mode_key_str, read_csv_rows)
from .rng import named_rng
from .topology import sample_channels


class TraceExhaustedError(RuntimeError):
    """PHY trace ended in the middle of delivering a packet."""


@dataclass(frozen=True)
class MacPolicy:
    max_retx_coop: int = 2
    max_retx_per_link: int = 4
    airtime_direct_us: float = 180.0
    airtime_coop_phase2_us: float = 192.0
    payload_bits: int = 7776

    def __post_init__(self):
        if self.max_retx_coop < 0 or self.max_retx_per_link < 0:
            raise ValueError("retransmission limits must be >= 0")
        if self.airtime_direct_us <= 0 or self.airtime_coop_phase2_us <= 0:
            raise ValueError("airtimes must be positive")

    @property
    def airtime_both_us(self):
        """Cost of a frame that used both timeslots."""
        return self.airtime_direct_us + self.airtime_coop_phase2_us


@dataclass(frozen=True)
class PacketResult:
    delivered: bool
    total_delay_us: float
    attempts: int
    path_or_mode: str


@dataclass(frozen=True)
class PathTrace:
    """Per-hop, per-packet, per-attempt success outcomes for one path."""
    label: str
    hops: tuple  # hops[h][packet] = tuple of per-attempt bools

    @property
    def n_packets(self):
        return len(self.hops[0]) if self.hops else 0


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


def _category(entry):
    if isinstance(entry, FrameOutcome):
        return entry.category
    cat = int(entry)
    if cat not in (0, 1, 2):
        raise ValueError(f"category must be 0, 1 or 2, got {entry!r}")
    return cat


def _attempt_label(entry):
    if isinstance(entry, FrameOutcome):
        if entry.category == 0:
            return "direct"
        return mode_key_str(entry.mode)
    return "direct" if _category(entry) == 0 else "coop"


def coop_mac_deliver(trace, policy=MacPolicy(), n_packets=None):
    """Deliver packets over a cooperative PHY trace.

    trace yields outcome categories (ints or FrameOutcome). Each packet
    consumes one entry per attempt: category 0 delivers after the direct
    slot, category 1 after both slots, category 2 costs both slots and
    triggers a retransmission until max_retx_coop retries are spent, after
    which the packet drops. Raises TraceExhaustedError if the trace ends
    mid-packet (or before n_packets are delivered, when given).
    """
    it = iter(trace)
    results = []
    while n_packets is None or len(results) < n_packets:
        try:
            entry = next(it)
        except StopIteration:
            if n_packets is None:
                break
            raise TraceExhaustedError(
                f"trace ended after {len(results)} of {n_packets} packets") from None
        delay = 0.0
        attempts = 0
        while True:
            attempts += 1
            cat = _category(entry)
            if cat == 0:
                results.append(PacketResult(True, delay + policy.airtime_direct_us,
                                            attempts, _attempt_label(entry)))
                break
            delay += policy.airtime_both_us
            if cat == 1:
                results.append(PacketResult(True, delay, attempts,
                                            _attempt_label(entry)))
                break
            if attempts > policy.max_retx_coop:
                results.append(PacketResult(False, delay, attempts, ""))
                break
            try:
                entry = next(it)
            except StopIteration:
                raise TraceExhaustedError(
                    f"trace ended mid-packet after {len(results)} packets") from None
    return results


def _walk_path(path, packet, policy):
    """(delivered, total attempts) for one packet along one path, each hop
    allowed max_retx_per_link retransmissions."""
    budget = policy.max_retx_per_link + 1
    attempts = 0
    for hop in path.hops:
        outcomes = hop[packet]
        if len(outcomes) < budget:
            raise ValueError(
                f"path {path.label}: only {len(outcomes)} attempts recorded, "
                f"need {budget} to cover the retransmission budget")
        for a in range(budget):
            if outcomes[a]:
                attempts += a + 1
                break
        else:
            return False, attempts + budget
    return True, attempts


def genie_route(paths, policy=MacPolicy()):
    """Per-packet routing with full future knowledge.

    Among paths that can deliver within the per-hop retransmission caps,
    pick the one with the fewest total attempts (ties: lowest path index);
    if none can, send along the path that drops after the fewest attempts.
    Each attempt is one direct-style link transmission.
    """
    results = []
    for p in range(paths.n_packets):
        best_ok = None
        best_drop = None
        for idx, path in enumerate(paths.paths):
            ok, attempts = _walk_path(path, p, policy)
            if ok:
                if best_ok is None or attempts < best_ok[0]:
                    best_ok = (attempts, idx)
            else:
                if best_drop is None or attempts < best_drop[0]:
                    best_drop = (attempts, idx)
        if best_ok is not None:
            attempts, idx = best_ok
            results.append(PacketResult(True, attempts * policy.airtime_direct_us,
                                        attempts, paths.paths[idx].label))
        else:
            attempts, idx = best_drop
            results.append(PacketResult(False, attempts * policy.airtime_direct_us,
                                        attempts, paths.paths[idx].label))
    return results


def drop_rate(results):
    if not results:
        raise ValueError("no packet results")
    return sum(1 for r in results if not r.delivered) / len(results)


def throughput_proxy(results, policy=MacPolicy()):
    """Delivered payload bits over total emulated airtime, in bits/s."""
    if not results:
        raise ValueError("no packet results")
    delivered_bits = sum(policy.payload_bits for r in results if r.delivered)
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
        if self.n_packets < 1:
            raise ValueError(f"n_packets must be >= 1, got {self.n_packets}")
        selection.policy_key(self.mode_policy)


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


def _coop_side(scenario, mac, blocks):
    """Run the coop policy over the MAC attempt stream; returns per-packet
    (categories of each attempt) in packet order."""
    thr_attempts = mac.max_retx_coop + 1
    attempts = [[] for _ in range(scenario.n_packets)]
    cursor = {"p": 0, "a": 0}

    def executor(mode_key):
        p, a = cursor["p"], cursor["a"]
        if p >= scenario.n_packets:
            raise selection.RunStopped
        out = evaluate_frame(blocks[p, a], mode_key, scenario.strategy, scenario.rate)
        attempts[p].append(out)
        if out.category != 2 or a + 1 >= thr_attempts:
            cursor["p"], cursor["a"] = p + 1, 0
        else:
            cursor["a"] = a + 1
        return out.category

    modes = enumerate_modes(scenario.topology.n_relays)
    selection.run_policy(scenario.mode_policy, executor, modes,
                         scenario.spa_params,
                         total_frames=scenario.n_packets * thr_attempts)
    return attempts


def _routing_side(scenario, mac, blocks):
    """Per-hop attempt traces from the same blocks: the direct path uses
    slots [0, per_hop), a relay path's first hop the same slots and its
    second hop slots [per_hop, 2*per_hop). Hop successes are threshold
    tests on the corresponding link of the slot's realization."""
    thr = 2.0 ** scenario.rate - 1.0
    per_hop = mac.max_retx_per_link + 1
    n_relays = scenario.topology.n_relays

    def hop(slots, column):
        return tuple(map(tuple, (blocks[:, slots, column] >= thr).tolist()))

    first, second = slice(0, per_hop), slice(per_hop, 2 * per_hop)
    paths = [PathTrace("S-D", (hop(first, 0),))]
    for i in range(1, n_relays + 1):
        paths.append(PathTrace(f"S-R{i}-D",
                               (hop(first, i), hop(second, n_relays + i))))
    return PathTraces(tuple(paths))


def compare_coop_vs_genie(scenario, policy=MacPolicy(), rng=None, seed=0):
    """Paired drop rates and throughput proxies on identical channels.

    The coop side runs the scenario's selection policy frame by frame with
    MAC retransmissions; the genie side routes each packet over the direct
    and S-R_i-D paths of the same realization blocks.
    """
    rng = rng if rng is not None else named_rng(seed, "coop_vs_genie")
    blocks = _realization_blocks(scenario, policy, rng)

    coop_attempts = _coop_side(scenario, policy, blocks)
    coop_trace = [out for packet in coop_attempts for out in packet]
    coop_results = coop_mac_deliver(coop_trace, policy,
                                    n_packets=scenario.n_packets)

    genie_results = genie_route(_routing_side(scenario, policy, blocks), policy)
    return ComparisonReport(
        coop_results=tuple(coop_results),
        genie_results=tuple(genie_results),
        coop_drop_rate=drop_rate(coop_results),
        genie_drop_rate=drop_rate(genie_results),
        coop_throughput=throughput_proxy(coop_results, policy),
        genie_throughput=throughput_proxy(genie_results, policy),
    )


def write_packet_csv(path, results):
    """Output CSV: packet_index, delivered, attempts, delay_us, path_or_mode."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["packet_index", "delivered", "attempts", "delay_us",
                    "path_or_mode"])
        for i, r in enumerate(results):
            w.writerow([i, int(r.delivered), r.attempts, repr(r.total_delay_us),
                        r.path_or_mode])


def write_path_traces(path, traces):
    """Path-trace CSV with columns path, hop, packet, attempt, success."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["path", "hop", "packet", "attempt", "success"])
        for trace in traces.paths:
            for h, hop in enumerate(trace.hops):
                for p, attempts in enumerate(hop):
                    for a, ok in enumerate(attempts):
                        w.writerow([trace.label, h, p, a, int(ok)])


def read_path_traces(path):
    """Path-trace CSV with columns path, hop, packet, attempt, success."""
    cells = {}
    for row in read_csv_rows(path, ("path", "hop", "packet", "attempt", "success")):
        key = (row["path"], int(row["hop"]), int(row["packet"]))
        cells.setdefault(key, {})[int(row["attempt"])] = row["success"] in ("1", "True", "true")
    labels = sorted({k[0] for k in cells})
    paths = []
    for label in labels:
        hops = sorted({k[1] for k in cells if k[0] == label})
        packets = sorted({k[2] for k in cells if k[0] == label})
        hop_data = []
        for h in hops:
            rows = []
            for p in packets:
                attempts = cells[(label, h, p)]
                rows.append(tuple(attempts[a] for a in sorted(attempts)))
            hop_data.append(tuple(rows))
        paths.append(PathTrace(label, tuple(hop_data)))
    return PathTraces(tuple(paths))
