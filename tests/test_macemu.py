import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from coopsim import selection
from coopsim.macemu import (CoopVsRoutingScenario, MacPolicy, PacketResult,
                            PathTrace, PathTraces, TraceExhaustedError,
                            compare_coop_vs_genie, coop_mac_deliver, drop_rate,
                            _realization_blocks, genie_route, throughput_proxy)
from coopsim.netsim import Mode, Strategy, evaluate_frame
from coopsim.rng import named_rng
from coopsim.topology import Topology
from conftest import topologies
from oracles import coop_mac_deliver_frames, genie_route_brute_force

POLICY = MacPolicy()


R1, R1R2 = Mode((1,)), Mode((1, 2))


class TestCoopDeliver:
    def test_direct_success(self):
        (r,) = coop_mac_deliver([R1], [0], POLICY)
        assert r == PacketResult(True, 180.0, 1, "direct")

    def test_coop_success(self):
        (r,) = coop_mac_deliver([R1], [1], POLICY)
        assert r == PacketResult(True, 372.0, 1, "R1")

    def test_retry_then_coop(self):
        (r,) = coop_mac_deliver([None, None], [2, 1], POLICY)
        assert r == PacketResult(True, 744.0, 2, "DT")

    def test_retry_then_direct(self):
        (r,) = coop_mac_deliver([R1, R1], [2, 0], POLICY)
        assert (r.delivered, r.total_delay_us, r.attempts) == (True, 552.0, 2)

    def test_drop_after_max_retransmissions(self):
        (r,) = coop_mac_deliver([R1] * 3, [2, 2, 2], POLICY)
        assert r == PacketResult(False, 1116.0, 3, "")

    def test_multiple_packets_and_exhaustion(self):
        rs = coop_mac_deliver([R1] * 4, [0, 2, 1, 0], POLICY)
        assert [r.attempts for r in rs] == [1, 2, 1]
        with pytest.raises(TraceExhaustedError):
            coop_mac_deliver([R1] * 2, [0, 2], POLICY)  # second packet needs a retry

    def test_label_is_the_mode_of_the_delivering_frame(self):
        (r,) = coop_mac_deliver([R1, R1R2], [2, 1], POLICY)
        assert r.path_or_mode == "R1R2"

    def test_delay_composition_invariant(self, rng):
        # every coop delay is a*180 + b*372 with a in {0,1}, b >= 0
        trace = list(rng.integers(0, 3, size=2000))
        for r in coop_mac_deliver([R1] * len(trace), trace, POLICY):
            rem = r.total_delay_us
            a = 1 if r.delivered and rem % 372.0 == 180.0 else 0
            b = (rem - a * 180.0) / 372.0
            assert b == int(b) and b >= 0

    def test_rejects_categories_outside_0_1_2(self):
        with pytest.raises(ValueError, match="got 7"):
            coop_mac_deliver([R1, R1], [7, 0], POLICY)

    def test_configurable_retx(self):
        p = MacPolicy(max_retx_coop=0)
        r = coop_mac_deliver([R1, R1], [2, 0], p)[0]
        assert not r.delivered and r.attempts == 1

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(max_retx=st.integers(0, 3),
           trace=st.lists(st.tuples(st.sampled_from([None, R1, R1R2]),
                                    st.sampled_from([0, 1, 2, 2, 2, 0, 1, 2, 3])),
                          max_size=30))
    @example(max_retx=2, trace=[(R1, 0), (R1, 2), (R1R2, 2)])  # ends mid-packet
    @example(max_retx=2, trace=[(R1, 2), (None, 7)])  # out-of-range category
    def test_matches_frame_by_frame_oracle(self, max_retx, trace):
        policy = MacPolicy(max_retx_coop=max_retx)
        modes = [mode for mode, _ in trace]
        categories = [category for _, category in trace]

        def outcome(deliver):
            try:
                return deliver(modes, categories, policy)
            except (TraceExhaustedError, ValueError) as e:
                return type(e), str(e)

        assert outcome(coop_mac_deliver) == outcome(coop_mac_deliver_frames)


def path_from_bools(label, hops):
    return PathTrace(label, tuple(
        tuple(tuple(pkt) for pkt in hop) for hop in hops))


def random_paths(rng, n_paths=3, n_packets=20, p=0.5, policy=POLICY):
    budget = policy.max_retx_per_link + 1
    paths = []
    for i in range(n_paths):
        n_hops = int(rng.integers(1, 3))
        hops = [[[bool(rng.random() < p) for _ in range(budget)]
                 for _ in range(n_packets)] for _ in range(n_hops)]
        paths.append(path_from_bools(f"P{i}", hops))
    return PathTraces(tuple(paths))


def brute_force_min_drops(paths, policy):
    """Independent oracle: per packet, try every path directly."""
    budget = policy.max_retx_per_link + 1
    drops = 0
    for pkt in range(paths.n_packets):
        delivered = False
        for path in paths.paths:
            ok = True
            for hop in path.hops:
                if not any(hop[pkt][:budget]):
                    ok = False
                    break
            if ok:
                delivered = True
                break
        drops += not delivered
    return drops


@st.composite
def capped_path_traces(draw, as_arrays=False):
    """(MacPolicy with a random per-hop cap, [(label, hops)] of 1-4 paths of
    1-2 hops), each hop recording cap+1 to cap+3 attempts per packet: as
    ragged nested lists, or with as_arrays as one (packets, attempts) bool
    array per hop."""
    cap = draw(st.integers(0, 4))
    n_packets = draw(st.integers(1, 4))
    if as_arrays:
        hop = st.integers(cap + 1, cap + 3).flatmap(
            lambda width: arrays(bool, (n_packets, width)))
    else:
        attempts = st.lists(st.booleans(), min_size=cap + 1, max_size=cap + 3)
        hop = st.lists(attempts, min_size=n_packets, max_size=n_packets)
    hops = st.lists(hop, min_size=1, max_size=2)
    paths = [(f"P{i}", draw(hops)) for i in range(draw(st.integers(1, 4)))]
    return MacPolicy(max_retx_per_link=cap), paths


def as_given(paths):
    """The paths as the brute-force oracle reads them, hops exactly as given."""
    return SimpleNamespace(n_packets=len(paths[0][1][0]), paths=[
        SimpleNamespace(label=label, hops=hops) for label, hops in paths])


class TestGenieRoute:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(case=capped_path_traces())
    def test_matches_attempt_by_attempt_brute_force(self, case):
        policy, paths = case
        traces = PathTraces(tuple(PathTrace(label, hops) for label, hops in paths))
        assert genie_route(traces, policy) == \
            genie_route_brute_force(as_given(paths), policy)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(case=capped_path_traces(as_arrays=True))
    def test_arrays_match_attempt_by_attempt_brute_force(self, case):
        policy, paths = case
        traces = PathTraces(tuple(PathTrace(label, hops) for label, hops in paths))
        assert all(a is b for (_, hops), path in zip(paths, traces.paths)
                   for a, b in zip(hops, path.hops))
        assert genie_route(traces, policy) == \
            genie_route_brute_force(as_given(paths), policy)

    def test_perfect_path_delivers_everything(self):
        paths = PathTraces((path_from_bools(
            "S-R1-D", [[[True] * 5] * 10, [[True] * 5] * 10]),))
        results = genie_route(paths, POLICY)
        assert drop_rate(results) == 0.0
        assert all(r.attempts == 2 for r in results)  # one per hop

    def test_all_failures_pick_fastest_drop(self):
        # long path passes hop 1 and dies on hop 2 (6 attempts); short path
        # dies on its only hop after 5, so it drops the packet faster
        short = path_from_bools("short", [[[False] * 5] * 4])
        long = path_from_bools("long", [[[True] * 5] * 4, [[False] * 5] * 4])
        results = genie_route(PathTraces((long, short)), POLICY)
        assert drop_rate(results) == 1.0
        assert all(r.path_or_mode == "short" and r.attempts == 5 for r in results)

    def test_minimizes_total_attempts(self):
        slow = path_from_bools("slow", [[[False, False, True, True, True]]])
        fast = path_from_bools("fast", [[[False, True, True, True, True]]])
        results = genie_route(PathTraces((slow, fast)), POLICY)
        assert results[0].path_or_mode == "fast"
        assert results[0].attempts == 2

    def test_tie_break_lowest_path_index(self):
        a = path_from_bools("a", [[[True] * 5]])
        b = path_from_bools("b", [[[True] * 5]])
        results = genie_route(PathTraces((a, b)), POLICY)
        assert results[0].path_or_mode == "a"

    def test_matches_brute_force_on_random_instances(self):
        for seed in range(200):
            rng = np.random.default_rng(seed)
            paths = random_paths(rng, p=float(rng.uniform(0.05, 0.6)))
            results = genie_route(paths, POLICY)
            drops = sum(1 for r in results if not r.delivered)
            assert drops == brute_force_min_drops(paths, POLICY)

    def test_insufficient_recorded_attempts(self):
        p = path_from_bools("p", [[[True, True]]])  # only 2 attempts recorded
        with pytest.raises(ValueError):
            genie_route(PathTraces((p,)), POLICY)

    def test_insufficient_attempts_on_a_hop_the_packet_never_reaches(self):
        # dropped on hop 0 after the budget of 5 failures, one attempt on hop 1
        p = path_from_bools("p", [[[False] * 5], [[True]]])
        with pytest.raises(ValueError, match="only 1 attempts recorded, need 5"):
            genie_route(PathTraces((p,)), POLICY)


class TestPathTrace:
    def test_lists_become_bool_tables_cut_to_the_shortest(self):
        (hop,) = PathTrace("p", ([[1, 0, 1], [0, 1]],)).hops
        assert hop.dtype == bool
        assert hop.tolist() == [[True, False], [False, True]]

    def test_rejects_hops_that_disagree_on_packet_count(self):
        with pytest.raises(ValueError, match="path 'p': hops disagree on packet "
                                             r"count, got \[2, 3\]"):
            PathTrace("p", ([[True]] * 2, [[True]] * 3))

    @pytest.mark.parametrize("hop", [(True, False, True), np.ones(3, dtype=bool),
                                     np.ones((2, 2, 2), dtype=bool)])
    def test_rejects_a_hop_that_is_not_a_table(self, hop):
        with pytest.raises(ValueError, match="path 'p': hop 0 must be a "
                                             r"\(packets, attempts\) table"):
            PathTrace("p", (hop,))

    @pytest.mark.parametrize("hops, message", [((), "has no hops"),
                                               (((),), "records no packets")])
    def test_rejects_a_path_without_hops_or_packets(self, hops, message):
        with pytest.raises(ValueError, match=f"path 'p' {message}"):
            PathTrace("p", hops)


class TestMetrics:
    def test_drop_rate(self):
        rs = [PacketResult(True, 180.0, 1, "d")] * 3 + \
             [PacketResult(False, 1116.0, 3, "")]
        assert drop_rate(rs) == pytest.approx(0.25)

    def test_drop_rate_scale(self):
        rs = [PacketResult(True, 180.0, 1, "d")] * 4351 + \
             [PacketResult(False, 1116.0, 3, "")]
        assert drop_rate(rs) * 100 == pytest.approx(0.023, abs=5e-4)

    def test_throughput_all_direct(self):
        rs = coop_mac_deliver([R1] * 100, [0] * 100, POLICY)
        bps = throughput_proxy(rs)
        assert bps == pytest.approx(7776 / 180e-6)
        assert bps == pytest.approx(43.2e6, rel=1e-3)

    def test_throughput_bounded_by_direct_rate(self, rng):
        trace = list(rng.integers(0, 3, size=3000))
        rs = coop_mac_deliver([R1] * len(trace), trace, POLICY)
        assert throughput_proxy(rs) <= 7776 / 180e-6 + 1e-6


def decode_limited_scenario(n_packets=2500):
    """Relay decoding is the bottleneck: S->R links rarely support the
    rate, R->D links are strong, the direct link sits in the repetition
    margin. Routing needs per-hop decoding and suffers; cooperation keeps
    working through destination combining."""
    t = Topology.from_snr(0.35, [0.15, 0.15, 0.15], [30.0, 30.0, 30.0],
                          label="decode-limited")
    return CoopVsRoutingScenario(topology=t, rate=1.0, n_packets=n_packets)


class TestCompare:
    def test_coop_beats_genie_on_decode_limited_plant(self):
        report = compare_coop_vs_genie(decode_limited_scenario(), POLICY, seed=0)
        assert report.coop_drop_rate < report.genie_drop_rate
        assert report.coop_throughput > report.genie_throughput

    def test_perfect_relay_path_gives_genie_zero_drops(self):
        t = Topology.from_snr(0.5, [1000.0, 0.2, 0.2], [1000.0, 0.2, 0.2],
                              label="strongpath")
        report = compare_coop_vs_genie(
            CoopVsRoutingScenario(topology=t, rate=1.0, n_packets=400),
            POLICY, seed=1)
        assert report.genie_drop_rate <= 0.01
        assert report.coop_drop_rate >= 0.0

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(t=topologies(max_relays=3).filter(lambda t: t.n_relays >= 2),
           policy=st.sampled_from(["SPA", "WRNM", "NRNM", "RandPick", "PWR2",
                                   "BRUTE", "DT", "Fixed:R1"]),
           mac=st.builds(MacPolicy, st.integers(0, 3), st.integers(0, 4)),
           strategy=st.sampled_from(list(Strategy)),
           rate=st.sampled_from([0.5, 1.0, 2.0]),
           n_packets=st.integers(1, 150), seed=st.integers(0, 2 ** 16))
    def test_coop_packets_are_the_replay_of_its_run_log(self, t, policy, mac,
                                                         strategy, rate,
                                                         n_packets, seed):
        logs = []
        run_policy = selection.run_policy

        def recording(*args, **kwargs):
            logs.append(run_policy(*args, **kwargs))
            return logs[-1]

        scenario = CoopVsRoutingScenario(topology=t, rate=rate, n_packets=n_packets,
                                         strategy=strategy, mode_policy=policy)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(selection, "run_policy", recording)
            report = compare_coop_vs_genie(scenario, mac, seed=seed)
        (log,) = logs
        packets = coop_mac_deliver_frames(log.modes, log.categories, mac,
                                          n_packets=n_packets)
        assert list(report.coop_results) == packets
        # frame f of the log is attempt a of packet p: slot a of p's block
        blocks = _realization_blocks(scenario, mac, named_rng(seed, "coop_vs_genie"))
        frames = [(p, a) for p, packet in enumerate(packets)
                  for a in range(packet.attempts)]
        assert log.categories == [evaluate_frame(blocks[p, a], mode, strategy, rate)
                                  for (p, a), mode in zip(frames, log.modes)]

    @pytest.mark.parametrize("rate", [-1.0, math.inf, math.nan, 1024.0])
    def test_scenario_rejects_a_rate_when_built(self, rate):
        t = Topology.from_snr(0.5, [1.0], [1.0])
        with pytest.raises(ValueError, match=re.escape(
                f"rate must be finite and >= 0 and < 1024, got {rate!r}")):
            CoopVsRoutingScenario(topology=t, rate=rate, n_packets=10)

    def test_paired_channels_are_deterministic(self):
        a = compare_coop_vs_genie(decode_limited_scenario(300), POLICY, seed=7)
        b = compare_coop_vs_genie(decode_limited_scenario(300), POLICY, seed=7)
        assert a == b
