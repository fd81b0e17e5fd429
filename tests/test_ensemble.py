import math
import re
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopsim.ensemble import (EnsembleSample, ModeDataset, SegmentTooLongError,
                              evaluate_on_ensemble, evaluate_policies,
                              make_ensemble, make_sample,
                              memory_sweep, oracle_fer, record_dataset,
                              replay_policy, synthetic_dataset, write_dataset_csv,
                              write_samples_csv)
from coopsim.netsim import Mode, Strategy, enumerate_modes, evaluate_frame
from coopsim.rng import named_rng
from coopsim.selection import DEFAULT_PARAMS
from coopsim.topology import Topology, sample_channels
from oracles import oracle_fer_reference, write_dataset_csv_rows, write_samples_csv_rows

MODES10 = enumerate_modes(4)


def planted_table(p_best=0.02, p_alt=0.3, p_tail=0.12, n_topos=6):
    """Planted per-segment best modes: the best alternates between the
    first two one-relay modes; the other early modes are clearly bad and
    the remaining modes hover just above the trigger threshold."""
    table = {}
    for t in range(n_topos):
        best = t % 2
        fers = {}
        for i, m in enumerate(MODES10):
            fers[m] = p_best if i == best else (p_alt if i < 3 else p_tail)
        table[f"T{t}"] = fers
    return table


def small_topologies():
    return [
        Topology.from_snr(0.4, [2.0, 1.0], [1.5, 0.7], label="A"),
        Topology.from_snr(1.5, [0.6, 2.5], [0.9, 2.0], label="B"),
    ]


@st.composite
def datasets_and_samples(draw):
    """A synthetic_dataset of 1-3 topologies, DT plus 1-6 modes and 1-30
    frames, and a sample it holds, of 1-5 segments of 1-8 rows each; rows
    may repeat within a segment and across segments."""
    labels = [f"T{i}" for i in range(draw(st.integers(1, 3)))]
    modes = draw(st.lists(st.sampled_from(MODES10), min_size=1, max_size=6, unique=True))
    frames = draw(st.integers(1, 30))
    table = {label: {key: draw(st.floats(0.0, 1.0)) for key in [None, *modes]}
             for label in labels}
    seed = draw(st.integers(0, 2 ** 32 - 1))
    dataset = synthetic_dataset(table, frames, named_rng(seed, "oracle"))
    rows = st.lists(st.integers(0, frames - 1), min_size=1, max_size=8).map(tuple)
    segments = draw(st.lists(st.tuples(st.sampled_from(labels), rows),
                             min_size=1, max_size=5))
    return dataset, EnsembleSample(segments=tuple(segments))


@pytest.fixture(scope="module")
def pool():
    with ProcessPoolExecutor(max_workers=2) as pool:
        yield pool


class TestRecordDataset:
    def test_shape_and_keys(self):
        d = record_dataset(small_topologies(), Strategy.DIQIF, 1.0, 100,
                           named_rng(0, "rec"))
        assert d.topologies == ("A", "B")
        assert len(d.mode_keys) == 4  # DT slot + 3 modes of a 2-relay net
        assert None in d.mode_keys
        assert all(len(d.outcomes[t, k]) == 100
                   for t in range(len(d.topologies))
                   for k in range(len(d.mode_keys)))

    def test_deterministic(self):
        a = record_dataset(small_topologies(), "DIQIF", 1.0, 50, named_rng(1, "d"))
        b = record_dataset(small_topologies(), "DIQIF", 1.0, 50, named_rng(1, "d"))
        assert np.array_equal(a.outcomes, b.outcomes)

    def test_phase1_shared_across_modes(self):
        # one realization per frame: a direct success shows up as category 0
        # for every cooperative slot at that frame index
        d = record_dataset(small_topologies(), "DIQIF", 1.0, 200, named_rng(2, "s"))
        keys = [k for k, key in enumerate(d.mode_keys) if key is not None]
        for t in range(len(d.topologies)):
            ref = d.outcomes[t, keys[0]]
            for k in keys[1:]:
                other = d.outcomes[t, k]
                for f in range(200):
                    assert (ref[f] == 0) == (other[f] == 0)

    def test_mismatched_relay_counts_rejected(self):
        tops = [Topology.from_snr(1.0, [1.0], [1.0], label="x"),
                Topology.from_snr(1.0, [1.0, 1.0], [1.0, 1.0], label="y")]
        with pytest.raises(ValueError):
            record_dataset(tops, "DIQIF", 1.0, 10, named_rng(0, "m"))

    def test_full_recording_volume(self):
        # 10 topologies x (DT + 6 modes) x 860 frames of mode outcomes
        rng = np.random.default_rng(31)
        tops = [Topology.from_snr(float(rng.uniform(0.1, 3)),
                                  rng.uniform(0.1, 3, 3).tolist(),
                                  rng.uniform(0.1, 3, 3).tolist(),
                                  label=f"t{i}") for i in range(10)]
        d = record_dataset(tops, "DIQIF", 1.0, 860, named_rng(4, "vol"))
        assert len(d.modes) == 6
        total = sum(len(d.outcomes[t, m]) for t in range(len(d.topologies))
                    for m in range(len(d.mode_keys)))
        assert total == 60_200

    @pytest.mark.parametrize("frames", [1, 7, 61])
    @pytest.mark.parametrize("n_topologies", [1, 2, 3])
    def test_pooled_recording_equals_serial(self, pool, frames, n_topologies):
        # every draw row is one task, and a pool's map over the rows, on
        # any worker in any order, must give the serial recording
        tops = small_topologies() + [
            Topology.from_snr(0.8, [1.2, 0.3], [0.4, 3.0], label="C")]
        tops = tops[:n_topologies]
        serial = record_dataset(tops, "DIQIF", 1.0, frames, named_rng(6, "pool"))
        rng = named_rng(6, "pool")
        strategies = [Strategy.DT if key is None else Strategy.DIQIF
                      for key in serial.mode_keys]
        for t, top in enumerate(tops):  # frame by frame, topology by topology
            for f, c in enumerate(sample_channels(top, rng, frames)):
                assert serial.outcomes[t, :, f].tolist() == [
                    evaluate_frame(c, key, strat, 1.0)
                    for key, strat in zip(serial.mode_keys, strategies)]
        tasks = []

        def pool_map(fn, rows):
            tasks.append(len(rows))
            return pool.map(fn, rows)

        pooled = record_dataset(tops, "DIQIF", 1.0, frames, named_rng(6, "pool"),
                                map=pool_map)
        assert (pooled.topologies, pooled.mode_keys) == (serial.topologies,
                                                        serial.mode_keys)
        assert np.array_equal(pooled.outcomes, serial.outcomes)
        assert tasks == [n_topologies * frames]


class TestSamples:
    @pytest.fixture
    def dataset(self):
        return synthetic_dataset(planted_table(), 860, named_rng(0, "planted"))

    def test_segment_structure(self, dataset):
        s = make_sample(dataset, 4, 172, named_rng(0, "s"))
        assert len(s.segments) == 5
        assert s.total_frames == 860
        assert s.segment_len == 172
        static = make_sample(dataset, 0, 172, named_rng(0, "s"))
        assert len(static.segments) == 1

    def test_rows_sampled_without_replacement(self, dataset):
        s = make_sample(dataset, 4, 172, named_rng(3, "s"))
        for _, rows in s.segments:
            assert len(set(rows)) == len(rows)
            assert all(0 <= r < 860 for r in rows)

    def test_segment_too_long(self, dataset):
        with pytest.raises(SegmentTooLongError):
            make_sample(dataset, 1, 861, named_rng(0, "s"))

    def test_first_segment_topology_uniform(self, dataset):
        n = 4000
        counts = {}
        rng = named_rng(9, "freq")
        for _ in range(n):
            s = make_sample(dataset, 0, 10, rng)
            label = s.segments[0][0]
            counts[label] = counts.get(label, 0) + 1
        p = 1.0 / len(dataset.topologies)
        se = math.sqrt(p * (1 - p) / n)
        for label in dataset.topologies:
            assert abs(counts.get(label, 0) / n - p) <= 3 * se

    def test_ensemble_deterministic(self, dataset):
        a = make_ensemble(dataset, 5, 4, 172, seed=4)
        b = make_ensemble(dataset, 5, 4, 172, seed=4)
        assert a == b


class TestReplay:
    @pytest.fixture
    def setup(self):
        dataset = synthetic_dataset(planted_table(), 860, named_rng(0, "planted"))
        samples = make_ensemble(dataset, 40, 4, 172, seed=1)
        return dataset, samples

    def test_replay_deterministic(self, setup):
        dataset, samples = setup
        a = evaluate_on_ensemble("SPA", samples, dataset, DEFAULT_PARAMS, seed=2)
        b = evaluate_on_ensemble("SPA", samples, dataset, DEFAULT_PARAMS, seed=2)
        assert a == b

    def test_replay_consumes_whole_sample(self, setup):
        dataset, samples = setup
        log = replay_policy("SPA", samples[0], dataset, DEFAULT_PARAMS)
        assert log.n_frames == samples[0].total_frames

    def test_oracle_dominates_policies(self, setup):
        dataset, samples = setup
        orc = sum(oracle_fer(s, dataset) for s in samples) / len(samples)
        for policy in ("SPA", "WRNM", f"Fixed:{MODES10[0]}"):
            res = evaluate_on_ensemble(policy, samples, dataset,
                                       DEFAULT_PARAMS, seed=3)
            assert orc <= res.avg_fer

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(case=datasets_and_samples())
    def test_oracle_equals_its_reference_on_the_replay_columns(self, case):
        # the oracle counts the columns _sample_columns gathers for the
        # replay; the reference gathers the outcomes itself
        dataset, sample = case
        assert oracle_fer(sample, dataset) == oracle_fer_reference(sample, dataset)

    def test_ensemble_average_converges(self, setup):
        dataset, samples = setup
        res = evaluate_on_ensemble("SPA", samples, dataset, DEFAULT_PARAMS, seed=2)
        fers = [r[1] for r in res.rows]
        half = fers[: len(fers) // 2]
        se = np.std(fers, ddof=1) / math.sqrt(len(half))
        assert abs(np.mean(half) - np.mean(fers)) <= 2 * se

    @pytest.mark.parametrize("n_samples", [3, 7])
    def test_chunked_replay_equals_each_policy_alone(self, setup, pool, n_samples):
        # every policy over one task per sample, on the builtin map, a
        # pool's map or a map that runs the tasks last to first, gives each
        # policy's own replay
        dataset, samples = setup
        samples = samples[:n_samples]
        policies = ("SPA", "wrnm", "NRNM", "RandPick", "PWR2", "BRUTE",
                    f"Fixed:{MODES10[3]}")  # the planted dataset records no DT
        alone = [evaluate_on_ensemble(policy, samples, dataset, DEFAULT_PARAMS, seed=4)
                 for policy in policies]

        def backward_map(fn, *iterables):
            return [fn(*task) for task in list(zip(*iterables))[::-1]][::-1]

        for map_ in (map, pool.map, backward_map):
            assert evaluate_policies(policies, samples, dataset, DEFAULT_PARAMS,
                                     seed=4, map=map_) == alone

    def test_fixed_modes_cannot_match_spa(self, setup):
        dataset, samples = setup
        spa = evaluate_on_ensemble("SPA", samples, dataset, DEFAULT_PARAMS, seed=2)
        best_fixed = min(
            evaluate_on_ensemble(f"Fixed:{m}", samples, dataset,
                                 DEFAULT_PARAMS, seed=2).avg_fer
            for m in MODES10)
        assert spa.avg_fer < best_fixed


class TestMemorySweep:
    def test_tradeoff_table(self):
        dataset = synthetic_dataset(planted_table(), 860, named_rng(0, "planted"))
        samples = make_ensemble(dataset, 60, 4, 172, seed=5)
        rows = memory_sweep(dataset, samples, [1, 2, 3, 4, 10],
                            DEFAULT_PARAMS, seed=6)
        by_r = {r["r"]: r for r in rows}
        # switching overhead grows with memory size (trend, not strict)
        assert by_r[1]["avg_switches"] < by_r[10]["avg_switches"]
        assert by_r[2]["avg_switches"] < by_r[10]["avg_switches"]
        # most of the FER gain arrives by r=2
        gain_12 = by_r[1]["avg_fer"] - by_r[2]["avg_fer"]
        gain_34 = by_r[3]["avg_fer"] - by_r[4]["avg_fer"]
        assert gain_12 > gain_34
        # full memory behaves like learning over all modes
        wrnm = evaluate_on_ensemble("WRNM", samples, dataset,
                                    DEFAULT_PARAMS, seed=6)
        assert by_r[10]["avg_fer"] == pytest.approx(wrnm.avg_fer, rel=0.25)

    def test_rejects_bad_r(self):
        dataset = synthetic_dataset(planted_table(), 100, named_rng(0, "p"))
        samples = make_ensemble(dataset, 2, 1, 50, seed=0)
        with pytest.raises(ValueError):
            memory_sweep(dataset, samples, [11], DEFAULT_PARAMS)


class TestPersistence:
    # topology labels that csv.writer quotes, and ones it leaves alone
    LABELS = ("plain", "a,b", 'say "hi"', "two\r\nlines", "cr\ronly", "lf\nonly",
              " padded ", "trailing ", "")

    def quoted_dataset(self):
        table = {label: {None: 0.5, Mode((1,)): 0.2, Mode((1, 2)): 0.9}
                 for label in self.LABELS}
        return synthetic_dataset(table, 13, named_rng(3, "quoted"))

    def test_dataset_csv_is_csv_writer_rows(self, tmp_path):
        d = self.quoted_dataset()
        write_dataset_csv(tmp_path / "bulk.csv", d)
        write_dataset_csv_rows(tmp_path / "rows.csv", d)
        assert (tmp_path / "bulk.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()

    def test_samples_csv_is_csv_writer_rows(self, tmp_path):
        samples = make_ensemble(self.quoted_dataset(), 4, 3, 5, seed=3)
        samples.append(EnsembleSample(segments=tuple(
            (label, (2 * i, 1, 12)) for i, label in enumerate(self.LABELS))))
        write_samples_csv(tmp_path / "bulk.csv", samples)
        write_samples_csv_rows(tmp_path / "rows.csv", samples)
        assert (tmp_path / "bulk.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


class TestValidation:
    @pytest.mark.parametrize("value", [True, 2.0, 0])
    def test_frames_per_topology_is_checked_as_an_integer(self, value):
        # record_dataset once recorded one frame for True and named n for 2.0
        message = f"^frames_per_topology must be an integer >= 1, got {value!r}$"
        with pytest.raises(ValueError, match=message):
            record_dataset(small_topologies(), "DIQIF", 1.0, value, named_rng(0, "f"))
        with pytest.raises(ValueError, match=message):
            synthetic_dataset(planted_table(), value, named_rng(0, "f"))

    @pytest.mark.parametrize("segment, message", [
        (("T9", (0, 1)), "sample topology 'T9' is not in the dataset"),
        (("T1", (0, 20)), "sample row 20 of 'T1' is outside the 20 recorded frames"),
        (("T1", (3, -1)), "sample row -1 of 'T1' is outside the 20 recorded frames"),
    ])
    def test_replay_names_a_segment_the_dataset_does_not_hold(self, segment, message):
        # once a bare KeyError or IndexError, and row -1 read the last frame;
        # the oracle reads the same segments, once through its own gather: an
        # unnamed tuple.index error, a bare IndexError, and 0.0 for row -1
        dataset = synthetic_dataset(planted_table(n_topos=2), 20, named_rng(0, "rows"))
        sample = EnsembleSample(segments=(("T0", (0, 1)), segment))
        for read in (lambda: replay_policy("SPA", sample, dataset, DEFAULT_PARAMS),
                     lambda: oracle_fer(sample, dataset)):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                read()

    def test_dataset_invariants(self):
        with pytest.raises(ValueError):
            ModeDataset(topologies=("A",), mode_keys=(MODES10[0],),
                        outcomes=np.zeros((1, 0, 5)))
        with pytest.raises(ValueError):
            ModeDataset(topologies=("A",), mode_keys=(MODES10[0],),
                        outcomes=np.zeros((1, 1, 0)))
        with pytest.raises(ValueError):
            ModeDataset(topologies=("A",), mode_keys=(MODES10[0],),
                        outcomes=np.full((1, 1, 5), 3))
