import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import topologies
from coopsim.rng import named_rng, spawn_rngs
from coopsim.topology import (LengthMismatchError, NonPositiveRateError,
                              ScheduleOutOfRangeError, Topology,
                              TopologyError, TopologySchedule, load_topology,
                              sample_channels,
                              save_topology, schedule_topology_at,
                              validate_topology)


def test_validate_symmetric_ok():
    t = Topology(n_relays=2, lambda_sd=1.0, lambda_sr=(1.0, 1.0),
                 lambda_rd=(1.0, 1.0))
    assert validate_topology(t) is True


def test_length_mismatch_rejected():
    with pytest.raises(LengthMismatchError):
        Topology(n_relays=2, lambda_sd=1.0, lambda_sr=(1.0,),
                 lambda_rd=(1.0, 1.0))


def test_zero_rate_rejected():
    with pytest.raises(NonPositiveRateError):
        Topology(n_relays=1, lambda_sd=0.0, lambda_sr=(1.0,), lambda_rd=(1.0,))
    with pytest.raises(NonPositiveRateError):
        Topology(n_relays=1, lambda_sd=math.inf, lambda_sr=(1.0,), lambda_rd=(1.0,))


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


def test_named_rng_streams_distinct_and_stable():
    a = named_rng(1, "x").random(4)
    b = named_rng(1, "x").random(4)
    c = named_rng(1, "y").random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


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


def test_topology_file_roundtrip(tmp_path):
    t = Topology.from_snr(2.0, [0.8, 1.0], [0.5, 3.0], label="roundtrip")
    for units in ("linear", "db"):
        path = tmp_path / f"topo_{units}.yaml"
        save_topology(t, path, units=units)
        back = load_topology(path)
        assert back.label == "roundtrip"
        assert back.n_relays == 2
        assert back.lambda_sd == pytest.approx(t.lambda_sd)
        assert back.lambda_sr == pytest.approx(t.lambda_sr)
        assert back.lambda_rd == pytest.approx(t.lambda_rd)
