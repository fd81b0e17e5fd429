import numpy as np
import pytest
from hypothesis import strategies as st

from coopsim.topology import Topology


def random_topology(rng, n_relays=None, snr_lo=0.05, snr_hi=5.0, label=None):
    """Random topology with iid mean link SNRs uniform in [snr_lo, snr_hi]."""
    n = int(n_relays) if n_relays is not None else int(rng.integers(1, 4))
    return Topology.from_snr(
        snr_sd=float(rng.uniform(snr_lo, snr_hi)),
        snr_sr=[float(rng.uniform(snr_lo, snr_hi)) for _ in range(n)],
        snr_rd=[float(rng.uniform(snr_lo, snr_hi)) for _ in range(n)],
        label=label or f"rand{n}",
    )


@st.composite
def topologies(draw, max_relays=4):
    """Topologies of 0..max_relays relays, mean link SNRs log-uniform over
    1e-3..1e3."""
    n = draw(st.integers(0, max_relays))
    snr = draw(st.lists(st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e),
                        min_size=2 * n + 1, max_size=2 * n + 1))
    return Topology.from_snr(snr[0], snr[1:n + 1], snr[n + 1:], label=f"gen{n}")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
