"""Deterministic random-stream helpers.

Every stochastic routine in this package takes an explicit numpy Generator.
Streams are derived from a root seed via SeedSequence, so independent
sub-runs (ensemble samples, sweep grid points, per-policy replays) get
reproducible, statistically independent substreams regardless of execution
order.
"""
import zlib

import numpy as np

from .topology import check_int


def named_rng(seed, *labels):
    """Independent generator keyed by (seed, *labels).

    Labels may be strings or integers; the mapping is stable across
    processes and platforms, so parallel workers can derive their own
    streams without coordination. seed is None (read as 0) or an integer
    >= 0 (check_int): 7.9 is not truncated to 7.
    """
    entropy = [0 if seed is None else check_int(seed, "seed", 0)]
    for label in labels:
        if isinstance(label, (int, np.integer)):
            entropy.append(int(label))
        else:
            entropy.append(zlib.crc32(str(label).encode("utf-8")))
    return np.random.default_rng(np.random.SeedSequence(entropy))
