"""Workload inputs, made from the benchmark seed.

Every spec is plain JSON-serialisable data, so the benchmark's parent
process never imports coopsim: the program receives only these generated
inputs, and the correctness checks stay independent of its code.
"""
import random

WORKLOADS = ("outage_design", "outage_montecarlo", "ensemble_replay",
             "mac_compare")

# The clustered 10-relay network of acceptance criterion 3: mean SNRs of
# the source->relay and relay->destination links (linear), direct link 0.1.
CLUSTERED_GAINS = [1.0, 0.9, 0.35, 0.30, 0.26, 0.22, 0.19, 0.16, 0.13, 0.10]
CLUSTERED_SD = 0.1

# The relay-decode-limited plant of acceptance criterion 8.
DECODE_LIMITED = {"label": "decode-limited", "n_relays": 3, "units": "linear",
                  "snr_sd": 0.35, "snr_sr": [0.15, 0.15, 0.15],
                  "snr_rd": [30.0, 30.0, 30.0]}

# The policies of the ensemble workload, as the program spells them.
ENSEMBLE_POLICIES = ["SPA", "WRNM", "NRNM", "RandPick", "PWR2", "BRUTE", "DT",
                     "Fixed:R1"]

THREADS = 2

# Sizes, chosen so that one round of each workload takes a few seconds on a
# 2-core machine and a run of 20 s holds several rounds.
DESIGN_KS = [0, 1, 2, 3]
DESIGN_ITERATIONS = 20
SWEEP_KS = [0, 1, 2, 3]
SWEEP_GRID_DB = [6.0, 9.0, 12.0, 15.0]
ENSEMBLE_TOPOLOGIES = 3
# Mean SNRs (dB) of the direct link and of each relay's (source->relay,
# relay->destination) links in the ensemble topologies.
ENSEMBLE_SD_DB = -6.0
ENSEMBLE_RELAYS_DB = [(10.0, 8.0), (6.0, 2.0), (0.0, 4.0), (-4.0, -2.0)]
ENSEMBLE_FRAMES = 860
ENSEMBLE_SAMPLES = 120
ENSEMBLE_TRANSITIONS = 4
ENSEMBLE_SEGMENT = 172
MAC_PACKETS = 10000


def _clustered(rng, label):
    """The clustered template with its relays relabelled by a seeded
    permutation: the outage figures and the work are unchanged, the
    reported subsets are permuted."""
    order = list(range(len(CLUSTERED_GAINS)))
    rng.shuffle(order)
    gains = [CLUSTERED_GAINS[i] for i in order]
    return {"label": label, "n_relays": len(gains), "units": "linear",
            "snr_sd": CLUSTERED_SD, "snr_sr": gains, "snr_rd": list(gains)}


def _four_relay(rng, label):
    """A 4-relay topology (10 modes): ENSEMBLE_RELAYS_DB given to its relays
    in a seeded order, so that the best mode differs between topologies but
    every seed sees equally hard links."""
    relays = list(ENSEMBLE_RELAYS_DB)
    rng.shuffle(relays)
    return {"label": label, "n_relays": 4, "units": "db",
            "snr_sd": ENSEMBLE_SD_DB, "snr_sr": [sr for sr, _ in relays],
            "snr_rd": [rd for _, rd in relays]}


def make_spec(workload, seed):
    """The inputs of one workload for one seed; the same seed gives the
    same spec."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "outage_design":
        return {"workload": workload, "topology": _clustered(rng, "clustered10"),
                "rate": 1.0, "target": 1e-2, "ks": list(DESIGN_KS),
                "lo_db": -20.0, "hi_db": 60.0,
                "iterations": DESIGN_ITERATIONS}
    if workload == "outage_montecarlo":
        config = {"kind": "outage_sweep", "seed": seed,
                  "topology": _clustered(rng, "clustered10"), "rate": 1.0,
                  "k_values": list(SWEEP_KS), "snr_grid": list(SWEEP_GRID_DB),
                  "normalization": "total_power", "method": "montecarlo"}
    elif workload == "ensemble_replay":
        config = {"kind": "ensemble", "seed": seed,
                  "topologies": [_four_relay(rng, f"T{i}")
                                 for i in range(ENSEMBLE_TOPOLOGIES)],
                  "rate": 1.0, "strategy": "DIQIF",
                  "frames_per_topology": ENSEMBLE_FRAMES,
                  "n_transitions": ENSEMBLE_TRANSITIONS,
                  "segment_len": ENSEMBLE_SEGMENT,
                  "n_samples": ENSEMBLE_SAMPLES,
                  "policies": list(ENSEMBLE_POLICIES)}
    elif workload == "mac_compare":
        config = {"kind": "mac_compare", "seed": seed,
                  "topology": dict(DECODE_LIMITED), "rate": 1.0,
                  "n_packets": MAC_PACKETS, "strategy": "DIQIF",
                  "mode_policy": "SPA",
                  "mac": {"max_retx_coop": 2, "max_retx_per_link": 4}}
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return {"workload": workload, "config": config, "threads": THREADS}
