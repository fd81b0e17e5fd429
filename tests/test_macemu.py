import numpy as np
import pytest

from coopsim.macemu import (CoopVsRoutingScenario, MacPolicy, PacketResult,
                            PathTrace, PathTraces, TraceExhaustedError,
                            compare_coop_vs_genie, coop_mac_deliver, drop_rate,
                            genie_route, throughput_proxy)
from coopsim.netsim import FrameOutcome, Mode
from coopsim.topology import Topology

POLICY = MacPolicy()


class TestCoopDeliver:
    def test_direct_success(self):
        (r,) = coop_mac_deliver([0], POLICY)
        assert r == PacketResult(True, 180.0, 1, "direct")

    def test_coop_success(self):
        (r,) = coop_mac_deliver([1], POLICY)
        assert (r.delivered, r.total_delay_us, r.attempts) == (True, 372.0, 1)

    def test_retry_then_coop(self):
        (r,) = coop_mac_deliver([2, 1], POLICY)
        assert (r.delivered, r.total_delay_us, r.attempts) == (True, 744.0, 2)

    def test_retry_then_direct(self):
        (r,) = coop_mac_deliver([2, 0], POLICY)
        assert (r.delivered, r.total_delay_us, r.attempts) == (True, 552.0, 2)

    def test_drop_after_max_retransmissions(self):
        (r,) = coop_mac_deliver([2, 2, 2], POLICY)
        assert (r.delivered, r.total_delay_us, r.attempts) == (False, 1116.0, 3)

    def test_multiple_packets_and_exhaustion(self):
        rs = coop_mac_deliver([0, 2, 1, 0], POLICY)
        assert [r.attempts for r in rs] == [1, 2, 1]
        with pytest.raises(TraceExhaustedError):
            coop_mac_deliver([0, 2], POLICY)  # second packet needs a retry
        with pytest.raises(TraceExhaustedError):
            coop_mac_deliver([0], POLICY, n_packets=2)

    def test_mode_labels_from_frame_outcomes(self):
        trace = [FrameOutcome(2, Mode((1,))), FrameOutcome(1, Mode((1, 2)))]
        (r,) = coop_mac_deliver(trace, POLICY)
        assert r.path_or_mode == "R1R2"

    def test_delay_composition_invariant(self, rng):
        # every coop delay is a*180 + b*372 with a in {0,1}, b >= 0
        trace = list(rng.integers(0, 3, size=2000))
        for r in coop_mac_deliver(trace, POLICY):
            rem = r.total_delay_us
            a = 1 if r.delivered and rem % 372.0 == 180.0 else 0
            b = (rem - a * 180.0) / 372.0
            assert b == int(b) and b >= 0

    def test_rejects_categories_outside_0_1_2(self):
        with pytest.raises(ValueError, match="got 7"):
            coop_mac_deliver([7, 0], POLICY)

    def test_configurable_retx(self):
        p = MacPolicy(max_retx_coop=0)
        (r,) = coop_mac_deliver([2, 0], p, n_packets=1)
        assert not r.delivered and r.attempts == 1


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


class TestGenieRoute:
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
        rs = coop_mac_deliver([0] * 100, POLICY)
        bps = throughput_proxy(rs, POLICY)
        assert bps == pytest.approx(7776 / 180e-6)
        assert bps == pytest.approx(43.2e6, rel=1e-3)

    def test_throughput_bounded_by_direct_rate(self, rng):
        trace = list(rng.integers(0, 3, size=3000))
        rs = coop_mac_deliver(trace, POLICY)
        assert throughput_proxy(rs, POLICY) <= 7776 / 180e-6 + 1e-6


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

    def test_paired_channels_are_deterministic(self):
        a = compare_coop_vs_genie(decode_limited_scenario(300), POLICY, seed=7)
        b = compare_coop_vs_genie(decode_limited_scenario(300), POLICY, seed=7)
        assert a == b
