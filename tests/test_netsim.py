import csv
import math
import os
import re
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import random_topology, topologies
from coopsim.experiments import _schedule_executor, run_experiment
from coopsim.netsim import (Mode, Strategy, enumerate_modes,
                            evaluate_frame, evaluate_frames, mode_key_str,
                            parse_mode_key, read_trace, write_trace)
from coopsim.outage import (OutageQuery, approx_capacity, direct_outage,
                            outage_monte_carlo)
from coopsim.rng import named_rng
from coopsim.selection import SpaParams, run_policy
from coopsim.topology import (Topology, TopologySchedule, sample_channels,
                              topology_from_dict)


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
        outs = [evaluate_frame(sample_channels(t, rng), Mode((1,)), Strategy.DIQIF, 1.0)
                for _ in range(10_000)]
        assert outs.count(0) >= 9990

    def test_dead_direct_link_dt_fails(self):
        t = Topology.from_snr(1e-9, [1.0], [1.0])
        rng = named_rng(0, "dead")
        outs = [evaluate_frame(sample_channels(t, rng), None, Strategy.DT, 1.0)
                for _ in range(2_000)]
        assert outs.count(2) >= 1995

    def test_dead_direct_diqif_matches_outage_oracle(self):
        # with the direct link off, DIQIF failure coincides with cut-set
        # outage of the mode's relay set (cross-module Monte-Carlo oracle)
        t = Topology.from_snr(1e-9, [4.0], [3.0], label="deaddirect")
        rate = 1.0
        rng = named_rng(1, "diqif")
        n = 20_000
        outs = [evaluate_frame(sample_channels(t, rng), Mode((1,)), Strategy.DIQIF, rate)
                for _ in range(n)]
        assert all(o in (1, 2) for o in outs)
        fer = outs.count(2) / n
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
            outs = [evaluate_frame(sample_channels(t, run_rng), Mode((1, 2)),
                                   Strategy.DIF, rate)
                    for _ in range(n)]
            p0 = outs.count(0) / n
            expected = 1 - direct_outage(t.lambda_sd, rate)
            se = math.sqrt(expected * (1 - expected) / n)
            assert abs(p0 - expected) <= 3 * se

    def test_invalid_mode_rejected(self):
        t = Topology.from_snr(1.0, [1.0], [1.0])
        with pytest.raises(ValueError):
            evaluate_frame(sample_channels(t, named_rng(0, "x")), Mode((2,)),
                           Strategy.DIF, 1.0)

    def test_even_draw_rejected(self):
        with pytest.raises(ValueError, match=r"takes one \(2N\+1,\) draw"):
            evaluate_frame(np.ones(4), None, Strategy.DT, 1.0)

    @pytest.mark.parametrize("rate", [-1.0, math.inf, math.nan, 1024.0])
    def test_invalid_rate_rejected(self, rate):
        c = sample_channels(Topology.from_snr(1.0, [1.0], [1.0]), named_rng(0, "r"))
        with pytest.raises(ValueError, match="rate must be finite"):
            evaluate_frame(c, Mode((1,)), Strategy.DIQIF, rate)

    @pytest.mark.parametrize("strategy", list(Strategy))
    @pytest.mark.parametrize("rate", [1023.5, math.nextafter(1024.0, 0.0)])
    def test_both_evaluators_run_just_below_the_rate_limit(self, rate, strategy):
        # no link reaches a threshold of 2^R - 1 > 8.9e307: every frame fails
        c = sample_channels(Topology.from_snr(1.0, [1.0, 2.0], [1.0, 2.0]),
                            named_rng(0, "r"), 20)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for mode in (None, Mode((1,)), Mode((1, 2))):
                assert evaluate_frame(c[0], mode, strategy, rate) == 2
                assert evaluate_frames(c, mode, strategy, rate).tolist() == [2] * 20


class TestStrategyOrdering:
    def test_diqif_success_contains_dif_success_pointwise(self, rng):
        # on identical realizations the DIQIF success event contains DIF's
        for _ in range(2_000):
            t = random_topology(rng, 2)
            c = sample_channels(t, rng)
            for mode in enumerate_modes(2):
                dif = evaluate_frame(c, mode, Strategy.DIF, 1.0)
                diqif = evaluate_frame(c, mode, Strategy.DIQIF, 1.0)
                assert (diqif == 2) <= (dif == 2)

    def test_one_relay_chain_pointwise(self, rng):
        # DT success => DIF success => DIQIF success on one-relay modes
        for _ in range(2_000):
            t = random_topology(rng, 1)
            c = sample_channels(t, rng)
            dt = evaluate_frame(c, Mode((1,)), Strategy.DT, 1.0)
            dif = evaluate_frame(c, Mode((1,)), Strategy.DIF, 1.0)
            diqif = evaluate_frame(c, Mode((1,)), Strategy.DIQIF, 1.0)
            assert (diqif == 2) <= (dif == 2) <= (dt == 2)

    def test_seed_paired_fer_ordering(self):
        rng = np.random.default_rng(77)
        for _ in range(5):
            t = random_topology(rng, 1)
            draws = [sample_channels(t, rng) for _ in range(4_000)]
            fers = {}
            for strat in (Strategy.DT, Strategy.DIF, Strategy.DIQIF):
                errs = sum(1 for c in draws
                           if evaluate_frame(c, Mode((1,)), strat, 1.0) == 2)
                fers[strat] = errs / len(draws)
            assert fers[Strategy.DIQIF] <= fers[Strategy.DIF] <= fers[Strategy.DT]


def _at_thr(f, x, thr):
    """x moved by ulps towards f(x) == thr, for as long as a few steps take."""
    for _ in range(4):
        y = f(x)
        if y == thr:
            break
        x = float(np.nextafter(x, math.inf if y < thr else -math.inf))
    return x


def _plant(c, mode, thr, kind):
    """Put the draw row c (a list of floats) on the boundary of one
    comparison of evaluate_frame at threshold thr: "direct" h_sd2 = thr,
    "repeat" 2 h_sd2 = thr, "decode" the mode's relays decode with h = thr
    and that decides the frame, "relayed" the phase-2 sum equals thr,
    "silent" a relay that does not decode has a NaN link to the
    destination and the rest of the frame sits on the threshold. The
    relayed sum keeps each destination-side link g as the fraction
    0.45 g / (1 + g) of thr, so that its rounding is as generic as g's."""
    n = (len(c) - 1) // 2
    relays = mode.relays if mode is not None else ()
    if kind == "direct":
        c[0] = thr
        return
    if kind == "repeat" or not relays:
        c[0] = thr / 2
        return
    if kind == "silent":
        # the relay of the weaker source link stays silent, so its NaN
        # link must not count; the other relay or the source repeat
        # decides the frame on the threshold
        quiet = min(relays, key=lambda i: c[i])
        c[quiet], c[n + quiet] = -1.0, math.nan
        for i in relays:
            if i != quiet:
                c[i], g_i = thr, c[n + i]
                c[0] = _at_thr(lambda h: h + g_i, thr - g_i, thr)
                return
        c[0] = thr / 2
        return
    g = [0.45 * c[n + i] / (1.0 + c[n + i]) * thr for i in relays]
    for i, g_i in zip(relays, g):
        c[i] = thr
        c[n + i] = thr if kind == "decode" else g_i
    if kind == "decode":
        c[0] = thr / 4
    elif len(relays) == 1:
        c[0] = _at_thr(lambda h: 2.0 * h + g[0], (thr - g[0]) / 2, thr)
    else:
        # h_sd2 + (g_i + g_j) = thr, Python's order; where one of a few
        # scalings of g_j gives it, (h_sd2 + g_i) + g_j falls short of thr
        for scale in np.linspace(1.0, 0.5, 16):
            g_j = c[n + mode.relays[1]] = g[1] * scale
            h = c[0] = _at_thr(lambda h: h + (g[0] + g_j), thr - (g[0] + g_j), thr)
            if (h + g[0]) + g_j < thr:
                break


_KINDS = ("direct", "repeat", "decode", "relayed", "silent")


# Links the channel draws never give but the evaluators still take
_ODD_LINKS = (0.0, -0.0, 0.3, 1.0, 2.5, -1.0, math.inf, -math.inf, math.nan)


@st.composite
def frame_cases(draw):
    """(draws, mode, rate): draws of a generated topology with leading shape
    (), (n,) or (p, a), a mode slot of it, and a rate (0 included). About
    half the cases put the rate, or else every row, exactly on a boundary
    that evaluate_frame compares against: the rate on a row's cut-set
    capacity, and the other rows' links or sums on the threshold (_plant).
    About two thirds then replace a share of the links with zeros of
    either sign, negative, infinite or NaN values, small round ones
    (_ODD_LINKS), or the threshold or its half."""
    t = draw(topologies())
    shape = draw(st.sampled_from([(), (48,), (0,), (4, 3), (1, 5)]))
    mode = draw(st.sampled_from((enumerate_modes(t.n_relays) if t.n_relays else [])
                                + [None]))
    rate = draw(st.one_of(st.sampled_from([0.0, 1.0, 2.0]), st.floats(0.0, 4.0)))
    rows = sample_channels(t, np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))),
                           math.prod(shape)).tolist()
    if rows and draw(st.booleans()):
        on_capacity = None
        if mode is not None and draw(st.booleans()):
            # preferably a row that only the quantize path carries at the
            # rate of its own capacity, so that the comparison decides it
            capacities = [float(approx_capacity(row, mode.relays)) for row in rows]
            on_capacity = next((k for k, (row, cap) in enumerate(zip(rows, capacities))
                                if evaluate_frame(row, mode, "DIF", cap) == 2
                                and evaluate_frame(row, mode, "DIQIF", cap) == 1), 0)
            rate = capacities[on_capacity]
        thr = 2.0 ** rate - 1.0
        for k, row in enumerate(rows):
            if k != on_capacity:
                _plant(row, mode, thr, draw(st.sampled_from(_KINDS)))
    draws = np.array(rows).reshape(-1, 2 * t.n_relays + 1)
    share = draw(st.sampled_from([0.0, 0.3, 0.7]))
    if share:
        odd = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        replaced = odd.random(draws.shape) < share
        thr = 2.0 ** rate - 1.0
        draws[replaced] = odd.choice(_ODD_LINKS + (thr / 2, thr), replaced.sum())
    return draws.reshape(shape + draws.shape[-1:]), mode, rate


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=frame_cases())
def test_both_evaluators_equal_the_one_row_reference(case):
    """evaluate_frame and evaluate_frames each equal the reference
    oracles.frame_category row by row, on every strategy; on the same
    draws DIQIF success contains DIF success, which contains DT success
    on one-relay modes and on no cooperation (two-relay DIF leaves the
    source silent in phase 2) where no link is negative or NaN."""
    draws, mode, rate = case
    rows = draws.reshape(-1, draws.shape[-1])
    success = {}
    for strategy in Strategy:
        # inf + -inf, and the capacity's log2 of links <= -1, warn in numpy
        with np.errstate(divide="ignore", invalid="ignore"):
            expected = [oracles.frame_category(c, mode, strategy, rate)
                        for c in rows.tolist()]
            one_by_one = [evaluate_frame(c, mode, strategy, rate) for c in rows]
            batch = evaluate_frames(draws, mode, strategy, rate)
        assert batch.dtype == np.int8 and batch.shape == draws.shape[:-1]
        assert one_by_one == expected
        assert batch.reshape(-1).tolist() == expected
        success[strategy] = batch.reshape(-1) != 2
    assert np.all(success[Strategy.DIQIF] >= success[Strategy.DIF])
    if mode is None or len(mode.relays) == 1:
        nonnegative = np.all(rows >= 0, axis=-1)
        assert np.all(success[Strategy.DIF][nonnegative]
                      >= success[Strategy.DT][nonnegative])


class TestEvaluateFramesRejects:
    @pytest.mark.parametrize("rate", [-1.0, math.inf, math.nan, 1024.0])
    def test_rate(self, rate):
        c = np.ones((3, 5))
        with pytest.raises(ValueError, match="rate must be finite"):
            evaluate_frames(c, Mode((1,)), Strategy.DIQIF, rate)

    @pytest.mark.parametrize("shape", [(3, 4), (0,), ()])
    def test_shape(self, shape):
        with pytest.raises(ValueError, match=r"takes \(\.\.\., 2N\+1\) draws"):
            evaluate_frames(np.ones(shape), None, Strategy.DT, 1.0)

    def test_mode_beyond_relays(self):
        with pytest.raises(ValueError, match="invalid for a 2-relay topology"):
            evaluate_frames(np.ones((2, 3, 5)), Mode((1, 3)), Strategy.DIF, 1.0)


# Every reader of a draw, called with no mode or with relay 1 alone
DRAW_READERS = {
    "approx_capacity": lambda c: approx_capacity(c, (1,)),
    "evaluate_frame": lambda c: evaluate_frame(c, None, Strategy.DT, 1.0),
    "evaluate_frames": lambda c: evaluate_frames(c, None, Strategy.DT, 1.0),
}


@pytest.mark.parametrize("shape", [(), (0,), (4,), (3, 4), (2, 6)])
def test_every_draw_reader_rejects_a_draw_without_an_odd_last_axis(shape):
    # approx_capacity once read N off any last axis: a (6,) draw lost column 5
    for name, read in DRAW_READERS.items():
        with pytest.raises(ValueError, match=f"^{name} takes .*, got shape "
                                             f"{re.escape(str(shape))}$"):
            read(np.ones(shape))


def run_fixed(schedule, topologies, mode, strategy, rate, rng):
    """The run log of a fixed-mode run over the schedule, as fixed_modes
    runs it."""
    executor = _schedule_executor(schedule, topologies, [mode], strategy, rate, rng)
    return run_policy("DT" if mode is None else mode, executor, ())


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
        log = run_fixed(sched, tops, Mode((1,)), Strategy.DIQIF, 1.0,
                        named_rng(0, "fixed"))
        assert len(log.modes) == len(log.categories) == 860

    def test_same_seed_same_trace(self):
        sched, tops = self._schedule()
        a = run_fixed(sched, tops, Mode((1, 2)), Strategy.DIF, 1.0,
                      named_rng(5, "trace"))
        b = run_fixed(sched, tops, Mode((1, 2)), Strategy.DIF, 1.0,
                      named_rng(5, "trace"))
        assert (a.modes, a.categories) == (b.modes, b.categories)

    def test_trace_csv_roundtrip(self, tmp_path):
        sched, tops = self._schedule()
        log = run_fixed(sched, tops, Mode((1,)), Strategy.DIQIF, 1.0,
                        named_rng(1, "csv"))
        labels = [oracles.schedule_topology_at(sched, f)
                  for f in range(sched.total_frames)]
        path = tmp_path / "trace.csv"
        write_trace(path, log.modes, log.categories, labels)
        modes, categories = read_trace(path)
        assert categories == log.categories
        assert modes == log.modes

    @pytest.mark.parametrize("n_modes, n_categories", [(3, 2), (2, 3)])
    def test_trace_needs_one_category_per_mode(self, tmp_path, n_modes, n_categories):
        # zip once cut the longer list short and wrote a shorter trace
        with pytest.raises(ValueError):
            write_trace(tmp_path / "trace.csv", [None] * n_modes, [0] * n_categories)


@st.composite
def schedules(draw):
    """Schedule documents: two topologies of 1-3 relays, mean link SNRs
    log-uniform over 0.1..30, and 1-5 segments of 1-40 frames."""
    n = draw(st.integers(1, 3))
    snr = st.floats(-1.0, 1.5).map(lambda e: 10.0 ** e)
    topologies = [{"label": label, "n_relays": n, "units": "linear",
                   "snr_sd": draw(snr),
                   "snr_sr": draw(st.lists(snr, min_size=n, max_size=n)),
                   "snr_rd": draw(st.lists(snr, min_size=n, max_size=n))}
                  for label in ("A", "B")]
    segments = draw(st.lists(st.tuples(st.sampled_from("AB"), st.integers(1, 40)),
                             min_size=1, max_size=5))
    return {"topologies": topologies,
            "segments": [{"topology": label, "frames": frames}
                         for label, frames in segments]}


def _csv_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))[1:]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(schedule=schedules(), strategy=st.sampled_from(["DT", "DIF", "DIQIF"]),
       rate=st.sampled_from([0.5, 1.0, 2.0]), seed=st.integers(0, 2 ** 16))
def test_fixed_runs_match_per_frame_oracle(schedule, strategy, rate, seed):
    """fixed_modes traces and the adaptive_compare run logs equal the
    per-frame reference loops on the same named streams: the DT and Fixed:
    runs equal oracles.run_fixed, and the adaptive policies equal
    run_policy_per_frame on the per-row schedule executor."""
    tops = {d["label"]: topology_from_dict(d) for d in schedule["topologies"]}
    sched = TopologySchedule(tuple((s["topology"], s["frames"])
                                   for s in schedule["segments"]))
    labels = [oracles.schedule_topology_at(sched, f)
              for f in range(sched.total_frames)]
    modes = enumerate_modes(schedule["topologies"][0]["n_relays"])
    slots = [None] + modes
    policies = ["DT" if s is None else f"Fixed:{s}" for s in slots]
    # PWR2 draws two distinct candidates
    adaptive = [p for p in ("SPA", "WRNM", "NRNM", "RandPick", "PWR2", "BRUTE")
                if p != "PWR2" or len(modes) > 1]
    params = SpaParams(w=5, r=min(3, len(modes)))
    common = {"schedule": schedule, "rate": rate, "strategy": strategy, "seed": seed,
              "params": {"w": params.w, "r": params.r}}
    with tempfile.TemporaryDirectory() as tmp:
        for kind, extra in (("fixed_modes", {}), ("adaptive_compare",
                                                  {"policies": policies + adaptive})):
            run_experiment(dict(common, kind=kind, **extra), "<test>", tmp,
                           lambda name, kind=kind: os.path.join(tmp, kind, name))
        for slot, policy in zip(slots, policies):
            name = mode_key_str(slot)
            fixed = oracles.run_fixed(sched, tops, slot, strategy, rate,
                                      named_rng(seed, "fixed", name))
            assert _csv_rows(os.path.join(tmp, "fixed_modes", f"trace_{name}.csv")) == [
                [str(f), labels[f], name, str(c)] for f, c in enumerate(fixed)]
            per_frame = oracles.run_fixed(sched, tops, slot, strategy, rate,
                                          named_rng(seed, "frames", policy))
            runlog = os.path.join(tmp, "adaptive_compare",
                                  f"runlog_{policy.replace(':', '_')}.csv")
            assert [row[1:3] for row in _csv_rows(runlog)] == [
                [name, str(c)] for c in per_frame]
        triggers = {row[0]: row[3] for row in _csv_rows(
            os.path.join(tmp, "adaptive_compare", "summary.csv"))}
        for policy in adaptive:
            executor = oracles.schedule_executor(sched, tops, strategy, rate,
                                                 named_rng(seed, "frames", policy))
            ref = oracles.run_policy_per_frame(
                policy, oracles.single_frame(executor), modes, params,
                rng=named_rng(seed, "policy", policy))
            runlog = os.path.join(tmp, "adaptive_compare", f"runlog_{policy}.csv")
            assert [row[1:4] for row in _csv_rows(runlog)] == [
                [mode_key_str(m), str(c), phase]
                for m, c, phase in zip(ref.modes, ref.categories, ref.phases)]
            assert triggers[policy] == str(len(ref.triggers))
