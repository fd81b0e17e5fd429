import inspect
import math
import re

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import topologies
from coopsim.ensemble import make_ensemble, synthetic_dataset
from coopsim.macemu import CoopVsRoutingScenario, MacPolicy
from coopsim.netsim import Mode
from coopsim.outage import Cut, OutageQuery
from coopsim.rng import named_rng
from coopsim.selection import LearnParams, SpaParams
from coopsim.topology import (LengthMismatchError, NonPositiveRateError,
                              Topology, TopologyError, TopologySchedule,
                              load_topology, sample_channels, topology_from_dict,
                              validate_topology)
from oracles import (ScheduleOutOfRangeError, sample_channels_exponential,
                     schedule_topology_at, spawn_rngs)


def test_validate_symmetric_ok():
    t = Topology(lambda_sd=1.0, lambda_sr=(1.0, 1.0), lambda_rd=(1.0, 1.0))
    assert validate_topology(t) is True


def test_a_topology_takes_its_relay_count_from_its_link_lists():
    # n_relays was once a field of its own: True or 1.0 loaded with one relay
    assert "n_relays" not in inspect.signature(Topology).parameters
    with pytest.raises(TypeError):
        Topology(n_relays=1, lambda_sd=1.0, lambda_sr=(1.0,), lambda_rd=(1.0,))
    for n in (0, 1, 3):
        t = Topology(lambda_sd=1.0, lambda_sr=(2.0,) * n, lambda_rd=(0.5,) * n)
        assert t.n_relays == len(t.lambda_sr) == n and type(t.n_relays) is int
        assert t.scaled(2.0).n_relays == n
        assert Topology.from_snr(1.0, [1.0] * n, [1.0] * n).n_relays == n


def test_length_mismatch_rejected():
    with pytest.raises(LengthMismatchError):
        Topology(lambda_sd=1.0, lambda_sr=(1.0,), lambda_rd=(1.0, 1.0))
    with pytest.raises(LengthMismatchError, match="^lambda_rd has 1 entries, expected 2$"):
        Topology(lambda_sd=1.0, lambda_sr=(1.0, 1.0), lambda_rd=(1.0,))


def test_zero_rate_rejected():
    with pytest.raises(NonPositiveRateError):
        Topology(lambda_sd=0.0, lambda_sr=(1.0,), lambda_rd=(1.0,))
    with pytest.raises(NonPositiveRateError):
        Topology(lambda_sd=math.inf, lambda_sr=(1.0,), lambda_rd=(1.0,))


def test_from_snr_units():
    t_lin = Topology.from_snr(10.0, [2.0], [0.5])
    assert t_lin.lambda_sd == pytest.approx(0.1)
    assert t_lin.lambda_sr[0] == pytest.approx(0.5)
    t_db = Topology.from_snr(10.0, [3.0], [-3.0], units="db")
    assert t_db.lambda_sd == pytest.approx(0.1)
    assert t_db.lambda_sr[0] == pytest.approx(1.0 / 10 ** 0.3)
    assert t_db.lambda_rd[0] == pytest.approx(10 ** 0.3)


def test_scaled_multiplies_mean_snrs():
    t = Topology.from_snr(1.0, [2.0], [4.0])
    s = t.scaled(10.0)
    assert s.snr_sd == pytest.approx(10.0)
    assert s.snr_sr[0] == pytest.approx(20.0)
    assert s.snr_rd[0] == pytest.approx(40.0)


@pytest.mark.parametrize("snr", [1.0, 0.01])
def test_sample_mean_within_three_standard_errors(snr):
    # mean of Exp(lambda) is 1/lambda = snr; se = snr / sqrt(n)
    t = Topology.from_snr(snr, [snr], [snr])
    n = 10 ** 6
    for sample in sample_channels(t, np.random.default_rng(7), n).T:
        assert abs(sample.mean() - snr) <= 3 * snr / math.sqrt(n)


def test_sampling_deterministic_for_fixed_seed():
    t = Topology.from_snr(1.0, [0.5, 2.0], [1.0, 3.0])
    a = [sample_channels(t, np.random.default_rng(42)) for _ in range(1)][0]
    b = sample_channels(t, np.random.default_rng(42))
    assert np.array_equal(a, b)
    seq_a = [sample_channels(t, rng) for rng in spawn_rngs(9, 3)]
    seq_b = [sample_channels(t, rng) for rng in spawn_rngs(9, 3)]
    assert np.array_equal(seq_a, seq_b)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(t=topologies(), n=st.integers(0, 20), seed=st.integers(0, 2 ** 32 - 1))
def test_batch_equals_single_draws(t, n, seed):
    # row f of a batch is the f-th single draw from the same generator
    # state, exactly
    batch = sample_channels(t, np.random.default_rng(seed), n)
    rng = np.random.default_rng(seed)
    singles = [sample_channels(t, rng) for _ in range(n)]
    assert batch.shape == (n, 2 * t.n_relays + 1)
    assert all(c.shape == (2 * t.n_relays + 1,) for c in singles)
    assert np.array_equal(batch, np.reshape(singles, batch.shape))
    # one scalar draw per link, in column order
    rng = np.random.default_rng(seed)
    links = (t.lambda_sd, *t.lambda_sr, *t.lambda_rd)
    scalars = [[rng.exponential(1.0 / lam) for lam in links] for _ in range(n)]
    assert np.array_equal(batch, np.reshape(scalars, batch.shape))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(t=topologies(), n=st.none() | st.integers(0, 20),
       seed=st.integers(0, 2 ** 32 - 1))
def test_draw_equals_scaled_exponential(t, n, seed):
    # the scaled standard-exponential draw gives the values of
    # rng.exponential(scales) bit for bit and leaves the stream where it does
    mine, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
    draw = sample_channels(t, mine, n)
    expected = sample_channels_exponential(t, oracle, n)
    assert draw.shape == expected.shape
    assert np.array_equal(draw, expected)
    assert np.array_equal(mine.standard_exponential(3), oracle.standard_exponential(3))


def test_named_rng_streams_distinct_and_stable():
    a = named_rng(1, "x").random(4)
    b = named_rng(1, "x").random(4)
    c = named_rng(1, "y").random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("seed", [7.9, 7.0, True, -1, "7"])
def test_named_rng_checks_its_seed_as_an_integer(seed):
    # a float seed was once truncated (7.9 drew seed 7's stream), True read as 1
    with pytest.raises(ValueError, match=f"^seed must be an integer >= 0, got {seed!r}$"):
        named_rng(seed, "x")
    assert np.array_equal(named_rng(None, "x").random(3), named_rng(0, "x").random(3))
    assert np.array_equal(named_rng(np.int64(7), "x").random(3),
                          named_rng(7, "x").random(3))


def test_schedule_boundaries():
    s = TopologySchedule((("A", 172), ("B", 172)))
    assert s.total_frames == 344
    assert schedule_topology_at(s, 0) == "A"
    assert schedule_topology_at(s, 171) == "A"
    assert schedule_topology_at(s, 172) == "B"
    assert schedule_topology_at(s, 343) == "B"
    with pytest.raises(ScheduleOutOfRangeError):
        schedule_topology_at(s, 344)
    with pytest.raises(ScheduleOutOfRangeError):
        schedule_topology_at(s, -1)


def test_schedule_rejects_bad_segments():
    with pytest.raises(TopologyError):
        TopologySchedule(())
    with pytest.raises(TopologyError):
        TopologySchedule((("A", 0),))


THREE_RELAYS = Topology.from_snr(1.0, [1.0] * 3, [1.0] * 3)
DATASET = synthetic_dataset({"A": {None: 0.5}}, 5, np.random.default_rng(0))

# Each integer argument of a constructor: its name, and a function of its
# value that builds with it and returns what was stored (a draw's row count)
INTEGER_ARGUMENTS = [
    ("omega", lambda v: min(Cut({v}).omega)),
    ("subset", lambda v: OutageQuery(rate=1.0, subset=(v,)).subset[0]),
    ("relays", lambda v: Mode((v,)).relays[0]),
    ("frames", lambda v: TopologySchedule((("A", v),)).segments[0][1]),
    ("n", lambda v: len(sample_channels(THREE_RELAYS, np.random.default_rng(0), v))),
    *((name, lambda v, name=name: getattr(LearnParams(**{name: v}), name))
      for name in ("l", "B")),
    *((name, lambda v, name=name: getattr(SpaParams(**{name: v}), name))
      for name in ("r", "w", "delta_w", "s")),
    *((name, lambda v, name=name: getattr(MacPolicy(**{name: v}), name))
      for name in ("max_retx_coop", "max_retx_per_link")),
    ("n_packets", lambda v: CoopVsRoutingScenario(THREE_RELAYS, 1.0, v).n_packets),
    # True once built one sample (n_samples) or two segments (n_transitions)
    ("n_samples", lambda v: len(make_ensemble(DATASET, v, 0, 1, seed=0))),
    ("n_transitions", lambda v: len(make_ensemble(DATASET, 1, v, 1, seed=0)[0].segments) - 1),
    ("segment_len", lambda v: make_ensemble(DATASET, 1, 0, v, seed=0)[0].segment_len),
]


@pytest.mark.parametrize("name, build", INTEGER_ARGUMENTS,
                         ids=[name for name, _ in INTEGER_ARGUMENTS])
def test_integer_arguments_are_checked_not_truncated(name, build):
    # a float or a bool was once truncated (1.5 -> 1) or failed only later
    for value in (1.5, True):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, "
                                             f"got {value!r}$"):
            build(value)
    stored = build(np.int64(3))
    assert stored == 3 and type(stored) is int


def test_topology_file_roundtrip(tmp_path):
    t = Topology.from_snr(2.0, [0.8, 1.0], [0.5, 3.0], label="roundtrip")
    for units, conv in (("linear", float), ("db", lambda v: 10.0 * math.log10(v))):
        path = tmp_path / f"topo_{units}.yaml"
        path.write_text(yaml.safe_dump({
            "label": t.label, "n_relays": t.n_relays, "units": units,
            "snr_sd": conv(t.snr_sd), "snr_sr": [conv(v) for v in t.snr_sr],
            "snr_rd": [conv(v) for v in t.snr_rd]}, sort_keys=False))
        back = load_topology(path)
        assert back.label == "roundtrip"
        assert back.n_relays == 2
        assert back.lambda_sd == pytest.approx(t.lambda_sd)
        assert back.lambda_sr == pytest.approx(t.lambda_sr)
        assert back.lambda_rd == pytest.approx(t.lambda_rd)


TWO_RELAY_DOC = {"label": "doc", "n_relays": 2, "snr_sd": 0.5, "snr_sr": [2.0, 1.0],
                 "snr_rd": [1.5, 0.8]}


@pytest.mark.parametrize("key, value, message", [
    ("n_relays", 2.5, "n_relays must be an integer, got 2.5"),
    ("n_relays", "2", "n_relays must be an integer, got '2'"),
    ("n_relays", True, "n_relays must be an integer, got True"),
    ("snr_sr", "12", "snr_sr must be a list, got '12'"),
    ("snr_sr", {1: 2, 3: 4}, "snr_sr must be a list, got {1: 2, 3: 4}"),
    ("snr_rd", [1.5, None], "snr_rd entry must be a number, got None"),
    ("snr_sd", "0.5", "snr_sd must be a number, got '0.5'"),
    ("snr_sd", True, "snr_sd must be a number, got True"),
    ("label", None, "label must be a string, got None"),
    ("label", ["a"], "label must be a string, got ['a']"),
    ("label", 7, "label must be a string, got 7"),
    ("unit", "db", "unknown topology key 'unit'"),
])
@pytest.mark.parametrize("units", ["linear", "db"])
def test_topology_documents_reject_malformed_values(key, value, message, units):
    # each was once truncated (2.5 -> 2), read item by item ("12" -> two
    # relays, a mapping -> its keys), taken as a number ("0.5", true), read
    # through str() (null -> 'None') or, a misspelt key, ignored
    with pytest.raises(TopologyError, match=re.escape(message)):
        topology_from_dict({**TWO_RELAY_DOC, "units": units, key: value})
    assert topology_from_dict({**TWO_RELAY_DOC, "units": units, "n_relays": 2.0}) == \
        topology_from_dict({**TWO_RELAY_DOC, "units": units})


def test_topology_documents_name_a_missing_key():
    doc = {key: value for key, value in TWO_RELAY_DOC.items() if key != "snr_sd"}
    with pytest.raises(TopologyError, match="missing required key 'snr_sd'"):
        topology_from_dict(doc)


def test_topology_files_are_checked_like_documents(tmp_path):
    # a misspelt units key once read dB values as linear (20 dB as 20)
    path = tmp_path / "t.yaml"
    path.write_text(yaml.safe_dump({**TWO_RELAY_DOC, "unit": "db"}))
    with pytest.raises(TopologyError, match="unknown topology key 'unit'"):
        load_topology(path)
    path.write_text("- label: doc\n")
    with pytest.raises(TopologyError, match="expected a mapping at top level"):
        load_topology(path)
    # a key given twice, at the top or in a nested mapping, is an error
    # naming the file, the key and its second line; a merge may be overridden
    path.write_text(yaml.safe_dump({**TWO_RELAY_DOC, "units": "linear"}) + "units: db\n")
    with pytest.raises(TopologyError, match=re.escape(f"{path}: key 'units' given twice")):
        load_topology(path)
    path.write_text("base: {label: x, label: y}\n")
    with pytest.raises(TopologyError, match=re.escape("key 'label' given twice (line 1)")):
        load_topology(path)
    path.write_text(yaml.safe_dump({**TWO_RELAY_DOC, "label": "old"})
                    .replace("label: old", "<<: {label: merged}\nlabel: doc"))
    assert load_topology(path).label == "doc"
