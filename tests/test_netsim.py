import math

import numpy as np
import pytest

from conftest import random_topology
from coopsim.netsim import (Mode, Strategy, enumerate_modes,
                            evaluate_frame, mode_key_str, parse_mode_key,
                            read_trace, run_fixed, simulate_frame, write_trace)
from coopsim.outage import OutageQuery, direct_outage, outage_monte_carlo
from coopsim.rng import named_rng
from coopsim.topology import (Topology, TopologySchedule,
                              sample_channels, schedule_topology_at)


class TestModes:
    def test_enumeration_counts_and_order(self):
        modes = enumerate_modes(2)
        assert [str(m) for m in modes] == ["R1", "R2", "R1R2"]
        assert len(enumerate_modes(3)) == 6
        assert [str(m) for m in enumerate_modes(1)] == ["R1"]

    def test_enumeration_is_bijective(self):
        for n in (1, 2, 3, 5):
            modes = enumerate_modes(n)
            assert len(set(modes)) == n + n * (n - 1) // 2
            singles = {m.relays for m in modes if len(m.relays) == 1}
            pairs = {m.relays for m in modes if len(m.relays) == 2}
            assert singles == {(i,) for i in range(1, n + 1)}
            assert pairs == {(i, j) for i in range(1, n + 1)
                             for j in range(i + 1, n + 1)}

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            Mode((2, 1))
        with pytest.raises(ValueError):
            Mode((0,))
        with pytest.raises(ValueError):
            Mode((1, 2, 3))

    def test_mode_parsing_roundtrip(self):
        for text in ("R1", "R2", "R1R2", "R3R7"):
            assert str(Mode.parse(text)) == text
        assert parse_mode_key("DT") is None
        assert mode_key_str(None) == "DT"


class TestSimulateFrame:
    def test_high_snr_is_direct_success(self):
        t = Topology.from_snr(1e9, [1e9], [1e9])
        rng = named_rng(0, "hisnr")
        outs = [simulate_frame(t, Mode((1,)), Strategy.DIQIF, 1.0, rng)
                for _ in range(10_000)]
        assert sum(1 for o in outs if o.category == 0) >= 9990

    def test_dead_direct_link_dt_fails(self):
        t = Topology.from_snr(1e-9, [1.0], [1.0])
        rng = named_rng(0, "dead")
        outs = [simulate_frame(t, None, Strategy.DT, 1.0, rng)
                for _ in range(2_000)]
        assert sum(1 for o in outs if o.category == 2) >= 1995

    def test_dead_direct_diqif_matches_outage_oracle(self):
        # with the direct link off, DIQIF failure coincides with cut-set
        # outage of the mode's relay set (cross-module Monte-Carlo oracle)
        t = Topology.from_snr(1e-9, [4.0], [3.0], label="deaddirect")
        rate = 1.0
        rng = named_rng(1, "diqif")
        n = 20_000
        outs = [simulate_frame(t, Mode((1,)), Strategy.DIQIF, rate, rng)
                for _ in range(n)]
        assert all(o.category in (1, 2) for o in outs)
        fer = sum(1 for o in outs if o.category == 2) / n
        q = OutageQuery(rate=rate, subset=(1,), mc_samples=200_000)
        est, se = outage_monte_carlo(t, q, named_rng(2, "oracle"))
        sigma = math.sqrt(se ** 2 + fer * (1 - fer) / n)
        assert abs(fer - est) <= 3 * sigma

    def test_category0_frequency_matches_direct_outage(self, rng):
        for _ in range(5):
            t = random_topology(rng, 2)
            rate = 1.0
            n = 5_000
            run_rng = named_rng(3, "cat0", t.snr_sd)
            outs = [simulate_frame(t, Mode((1, 2)), Strategy.DIF, rate, run_rng)
                    for _ in range(n)]
            p0 = sum(1 for o in outs if o.category == 0) / n
            expected = 1 - direct_outage(t.lambda_sd, rate)
            se = math.sqrt(expected * (1 - expected) / n)
            assert abs(p0 - expected) <= 3 * se

    def test_invalid_mode_rejected(self):
        t = Topology.from_snr(1.0, [1.0], [1.0])
        with pytest.raises(ValueError):
            simulate_frame(t, Mode((2,)), Strategy.DIF, 1.0, named_rng(0, "x"))

    @pytest.mark.parametrize("rate", [-1.0, math.inf, math.nan])
    def test_invalid_rate_rejected(self, rate):
        c = sample_channels(Topology.from_snr(1.0, [1.0], [1.0]), named_rng(0, "r"))
        with pytest.raises(ValueError, match="rate must be finite"):
            evaluate_frame(c, Mode((1,)), Strategy.DIQIF, rate)


class TestStrategyOrdering:
    def test_diqif_success_contains_dif_success_pointwise(self, rng):
        # on identical realizations the DIQIF success event contains DIF's
        for _ in range(2_000):
            t = random_topology(rng, 2)
            c = sample_channels(t, rng)
            for mode in enumerate_modes(2):
                dif = evaluate_frame(c, mode, Strategy.DIF, 1.0).category
                diqif = evaluate_frame(c, mode, Strategy.DIQIF, 1.0).category
                assert (diqif == 2) <= (dif == 2)

    def test_one_relay_chain_pointwise(self, rng):
        # DT success => DIF success => DIQIF success on one-relay modes
        for _ in range(2_000):
            t = random_topology(rng, 1)
            c = sample_channels(t, rng)
            dt = evaluate_frame(c, Mode((1,)), Strategy.DT, 1.0).category
            dif = evaluate_frame(c, Mode((1,)), Strategy.DIF, 1.0).category
            diqif = evaluate_frame(c, Mode((1,)), Strategy.DIQIF, 1.0).category
            assert (diqif == 2) <= (dif == 2) <= (dt == 2)

    def test_seed_paired_fer_ordering(self):
        rng = np.random.default_rng(77)
        for _ in range(5):
            t = random_topology(rng, 1)
            draws = [sample_channels(t, rng) for _ in range(4_000)]
            fers = {}
            for strat in (Strategy.DT, Strategy.DIF, Strategy.DIQIF):
                errs = sum(1 for c in draws
                           if evaluate_frame(c, Mode((1,)), strat, 1.0).category == 2)
                fers[strat] = errs / len(draws)
            assert fers[Strategy.DIQIF] <= fers[Strategy.DIF] <= fers[Strategy.DT]


class TestRunFixed:
    def _schedule(self):
        tops = {
            "A": Topology.from_snr(0.5, [2.0, 1.0], [1.5, 0.8], label="A"),
            "B": Topology.from_snr(2.0, [0.5, 1.5], [0.7, 2.5], label="B"),
        }
        sched = TopologySchedule((("A", 172), ("B", 172), ("A", 172),
                                  ("B", 172), ("A", 172)))
        return sched, tops

    def test_one_outcome_per_frame(self):
        sched, tops = self._schedule()
        outs = run_fixed(sched, tops, Mode((1,)), Strategy.DIQIF, 1.0,
                         named_rng(0, "fixed"))
        assert len(outs) == 860

    def test_same_seed_same_trace(self):
        sched, tops = self._schedule()
        a = run_fixed(sched, tops, Mode((1, 2)), Strategy.DIF, 1.0,
                      named_rng(5, "trace"))
        b = run_fixed(sched, tops, Mode((1, 2)), Strategy.DIF, 1.0,
                      named_rng(5, "trace"))
        assert a == b

    def test_trace_csv_roundtrip(self, tmp_path):
        sched, tops = self._schedule()
        outs = run_fixed(sched, tops, Mode((1,)), Strategy.DIQIF, 1.0,
                         named_rng(1, "csv"))
        labels = [schedule_topology_at(sched, f) for f in range(sched.total_frames)]
        path = tmp_path / "trace.csv"
        write_trace(path, outs, labels)
        back = read_trace(path)
        assert [o.category for o in back] == [o.category for o in outs]
        assert [o.mode for o in back] == [o.mode for o in outs]
