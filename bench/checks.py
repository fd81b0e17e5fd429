"""Correctness checks on each workload's outputs.

Every expected value is computed here, apart from coopsim: closed forms,
a bisection of our own, our own Monte-Carlo sampler, and recounts from the
CSV files the program wrote. Each check returns a list of failure
messages; an empty list means the output passed.
"""
import csv
import math
import os

import numpy as np

# The program's Monte-Carlo sample count for outage sweeps (the
# `DEFAULT_MC_SAMPLES` of best_subnetwork; configs have no key for it).
SWEEP_MC_SAMPLES = 100_000
OWN_MC_SAMPLES = 400_000
# Airtimes and payload of the MAC emulation (coopsim's MacPolicy defaults).
AIRTIME_DIRECT_US = 180.0
AIRTIME_COOP_US = 192.0
PAYLOAD_BITS = 7776


def _lambdas(topology, scale):
    """Rate parameters (1/mean SNR) of a linear-unit topology document whose
    every mean link SNR is multiplied by scale."""
    return (1.0 / (topology["snr_sd"] * scale),
            [1.0 / (v * scale) for v in topology["snr_sr"]],
            [1.0 / (v * scale) for v in topology["snr_rd"]])


def _tau(rate):
    return 2.0 ** rate - 1.0


def _own_outage_mc(topology, subset, rate, scale, n, seed):
    """Our Monte-Carlo outage of the cut-set capacity of one relay subset:
    (estimate, binomial standard error)."""
    lam_sd, lam_sr, lam_rd = _lambdas(topology, scale)
    rng = np.random.default_rng(seed)
    csd = np.log2(1.0 + rng.exponential(1.0 / lam_sd, n))
    a = [np.log2(1.0 + rng.exponential(1.0 / lam_sr[i - 1], n)) for i in subset]
    b = [np.log2(1.0 + rng.exponential(1.0 / lam_rd[i - 1], n)) for i in subset]
    k = len(subset)
    cap = np.full(n, np.inf)
    for mask in range(1 << k):
        src = [a[p] for p in range(k) if mask >> p & 1]
        dst = [b[p] for p in range(k) if not mask >> p & 1]
        relay = (np.max(src, axis=0) if src else 0.0) + (np.max(dst, axis=0) if dst else 0.0)
        cap = np.minimum(cap, np.maximum(csd, relay))
    p = float(np.count_nonzero(cap < rate)) / n
    return p, math.sqrt(p * (1.0 - p) / n)


def _bisect_decreasing(f, target, lo, hi):
    """Point where a decreasing f crosses target, to full precision."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# -- outage_design --------------------------------------------------------

def _design_tolerance(spec):
    return (spec["hi_db"] - spec["lo_db"]) / 2.0 ** spec["iterations"] + 1e-9


def check_design_k0(spec, snrs):
    """k=0 against the closed form lambda_sd * tau / -ln(1 - target)."""
    topo, rate, target = spec["topology"], spec["rate"], spec["target"]
    expected = 10.0 * math.log10(
        (1.0 / topo["snr_sd"]) * _tau(rate) / -math.log1p(-target))
    got = snrs[0]
    if abs(got - expected) > _design_tolerance(spec):
        return [f"design k=0: {got!r} dB, closed form {expected!r} dB"]
    return []


def check_design_k1(spec, snrs):
    """k=1 against our bisection of the closed-form bound
    min_i P_sd * (F_h_i(tau) + F_g_i(tau))."""
    topo, rate, target = spec["topology"], spec["rate"], spec["target"]
    tau = _tau(rate)

    def bound(snr_db):
        lam_sd, lam_sr, lam_rd = _lambdas(topo, 10.0 ** (snr_db / 10.0))
        p_sd = -math.expm1(-lam_sd * tau)
        return min(1.0, p_sd * min(-math.expm1(-h * tau) - math.expm1(-g * tau)
                                   for h, g in zip(lam_sr, lam_rd)))

    expected = _bisect_decreasing(bound, target, spec["lo_db"], spec["hi_db"])
    got = snrs[1]
    if abs(got - expected) > _design_tolerance(spec):
        return [f"design k=1: {got!r} dB, closed-form bisection {expected!r} dB"]
    return []


def check_design_trend(spec, snrs):
    """Required SNR strictly decreasing in k, with shrinking margins."""
    ks = sorted(snrs)
    values = [snrs[k] for k in ks]
    margins = [a - b for a, b in zip(values, values[1:])]
    failures = []
    if not all(m > 0 for m in margins):
        failures.append(f"design: required SNR not strictly decreasing in k: {values}")
    if not all(a > b for a, b in zip(margins, margins[1:])):
        failures.append(f"design: margins do not shrink: {margins}")
    return failures


def check_design_montecarlo(spec, snrs, seed):
    """At each returned SNR our Monte-Carlo outage of the k strongest relays
    is at most target + 3 standard errors. The k strongest relays are no
    worse than the bound-optimal subset, whose outage the bound caps."""
    topo, rate, target = spec["topology"], spec["rate"], spec["target"]
    strength = sorted(range(1, topo["n_relays"] + 1),
                      key=lambda i: -min(topo["snr_sr"][i - 1], topo["snr_rd"][i - 1]))
    failures = []
    for k, snr_db in sorted(snrs.items()):
        subset = tuple(sorted(strength[:k]))
        p, se = _own_outage_mc(topo, subset, rate, 10.0 ** (snr_db / 10.0),
                               OWN_MC_SAMPLES, [seed, k, 1])
        if p > target + 3.0 * se:
            failures.append(f"design k={k}: Monte-Carlo outage {p} of {subset} at "
                            f"{snr_db} dB exceeds target {target} + 3 x {se:.2e}")
    return failures


def check_outage_design(spec, snrs, seed):
    """snrs maps k to the returned required SNR in dB."""
    if sorted(snrs) != sorted(spec["ks"]):
        return [f"design: results for k={sorted(snrs)}, expected {spec['ks']}"]
    failures = check_design_trend(spec, snrs) + check_design_montecarlo(spec, snrs, seed)
    if 0 in snrs:
        failures += check_design_k0(spec, snrs)
    if 1 in snrs:
        failures += check_design_k1(spec, snrs)
    return failures


# -- outage_montecarlo ----------------------------------------------------

def read_sweep(out_dir):
    with open(os.path.join(out_dir, "outage.csv"), newline="", encoding="utf-8") as fh:
        return [{"snr_db": float(r["snr_db"]), "k": int(r["k"]),
                 "subset": tuple(int(i) for i in r["subset"].split("-") if i),
                 "outage": float(r["outage"]), "method": r["method"]}
                for r in csv.DictReader(fh)]


def _node_scale(snr_db, k):
    """Total-power normalization: the budget is split over k+1 nodes."""
    return 10.0 ** (snr_db / 10.0) / (k + 1)


def _sweep_exact(topo, k, subset, snr_db, rate):
    """Exact outage of the empty subset and of one-relay subsets:
    F_sd(tau) * (1 - exp(-(lambda_h + lambda_g) tau))."""
    lam_sd, lam_sr, lam_rd = _lambdas(topo, _node_scale(snr_db, k))
    tau = _tau(rate)
    p_sd = -math.expm1(-lam_sd * tau)
    if not subset:
        return p_sd
    (i,) = subset
    return p_sd * -math.expm1(-(lam_sr[i - 1] + lam_rd[i - 1]) * tau)


def check_sweep_exact(spec, rows):
    """k=0 and k=1 rows within 4 standard errors of the exact outage, and
    the reported relay no worse than the best one by more than that."""
    cfg = spec["config"]
    topo, rate = cfg["topology"], cfg["rate"]
    failures = []
    for row in rows:
        k, subset, got = row["k"], row["subset"], row["outage"]
        if k > 1:
            continue
        if len(subset) != k:
            failures.append(f"sweep k={k}: reported subset {subset}")
            continue
        exact = _sweep_exact(topo, k, subset, row["snr_db"], rate)
        se = math.sqrt(exact * (1.0 - exact) / SWEEP_MC_SAMPLES)
        if abs(got - exact) > 4.0 * se:
            failures.append(f"sweep k={k} {row['snr_db']} dB: {got} vs exact "
                            f"{exact} (4 x se {4 * se:.2e})")
        if k == 1:
            best = min(_sweep_exact(topo, 1, (i,), row["snr_db"], rate)
                       for i in range(1, topo["n_relays"] + 1))
            if exact > best + 4.0 * se:
                failures.append(f"sweep k=1 {row['snr_db']} dB: relay {subset} has "
                                f"outage {exact}, best relay {best}")
    return failures


def check_sweep_montecarlo(spec, rows, seed):
    """k>=2 rows within 4 combined standard errors of our own Monte-Carlo
    estimate of the reported subset."""
    cfg = spec["config"]
    topo, rate = cfg["topology"], cfg["rate"]
    failures = []
    for n, row in enumerate(rows):
        k, subset, got = row["k"], row["subset"], row["outage"]
        if k < 2:
            continue
        if len(subset) != k or len(set(subset)) != k or not all(
                1 <= i <= topo["n_relays"] for i in subset):
            failures.append(f"sweep k={k}: reported subset {subset}")
            continue
        p, _ = _own_outage_mc(topo, subset, rate, _node_scale(row["snr_db"], k),
                              OWN_MC_SAMPLES, [seed, n, 2])
        q = max(p, 1.0 / OWN_MC_SAMPLES)
        se = math.sqrt(q * (1.0 - q) * (1.0 / SWEEP_MC_SAMPLES + 1.0 / OWN_MC_SAMPLES))
        if abs(got - p) > 4.0 * se:
            failures.append(f"sweep k={k} {row['snr_db']} dB subset {subset}: {got} "
                            f"vs own Monte-Carlo {p} (4 x se {4 * se:.2e})")
    return failures


def check_outage_montecarlo(spec, out_dir, seed):
    cfg = spec["config"]
    rows = read_sweep(out_dir)
    cells = sorted((r["snr_db"], r["k"]) for r in rows)
    expected = sorted((float(s), k) for s in cfg["snr_grid"] for k in cfg["k_values"])
    if cells != expected:
        return [f"sweep: rows for {cells}, expected {expected}"]
    return check_sweep_exact(spec, rows) + check_sweep_montecarlo(spec, rows, seed)


# -- ensemble_replay ------------------------------------------------------

def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def read_ensemble(out_dir):
    """Parsed ensemble outputs: dataset[(topology, mode)][frame] = category,
    samples[i] = [(topology, row), ...] in replay order,
    metrics[(policy, sample)] = (fer, switches, n_frames), summary[policy]."""
    dataset = {}
    for r in _read_csv(os.path.join(out_dir, "dataset.csv")):
        dataset.setdefault((r["topology"], r["mode"]), {})[int(r["frame_index"])] = \
            int(r["category"])
    cells = {}
    for r in _read_csv(os.path.join(out_dir, "samples.csv")):
        cells[(int(r["sample"]), int(r["segment"]), int(r["position"]))] = \
            (r["topology"], int(r["row"]))
    samples = {}
    for key in sorted(cells):
        samples.setdefault(key[0], []).append(cells[key])
    metrics = {(r["policy"], int(r["sample"])):
               (float(r["fer"]), int(r["switches"]), int(r["n_frames"]))
               for r in _read_csv(os.path.join(out_dir, "sample_metrics.csv"))}
    summary = {r["policy"]: float(r["avg_fer"])
               for r in _read_csv(os.path.join(out_dir, "ensemble.csv"))}
    return {"dataset": dataset, "samples": samples, "metrics": metrics,
            "summary": summary}


def check_ensemble_shape(spec, out):
    """Every policy reported on every sample, and n_frames equal to the
    sample length."""
    cfg = spec["config"]
    length = (cfg["n_transitions"] + 1) * cfg["segment_len"]
    failures = []
    if sorted(out["samples"]) != list(range(cfg["n_samples"])):
        failures.append(f"ensemble: {len(out['samples'])} samples written, "
                        f"expected {cfg['n_samples']}")
    for idx, sample in out["samples"].items():
        if len(sample) != length:
            failures.append(f"ensemble: sample {idx} has {len(sample)} positions, "
                            f"expected {length}")
    for policy in cfg["policies"]:
        if policy not in out["summary"]:
            failures.append(f"ensemble: no summary row for {policy}")
        for idx in range(cfg["n_samples"]):
            row = out["metrics"].get((policy, idx))
            if row is None:
                failures.append(f"ensemble: no metrics for {policy} sample {idx}")
            elif row[2] != len(out["samples"].get(idx, ())):
                failures.append(f"ensemble: {policy} sample {idx} n_frames {row[2]}, "
                                f"sample length {len(out['samples'].get(idx, ()))}")
    return failures


def check_ensemble_fixed_recount(spec, out):
    """Fixed:R1 and DT per-sample FER recounted from dataset.csv and
    samples.csv."""
    failures = []
    for policy, mode in (("Fixed:R1", "R1"), ("DT", "DT")):
        for idx, sample in out["samples"].items():
            errors = sum(1 for label, row in sample
                         if out["dataset"][(label, mode)][row] == 2)
            expected = errors / len(sample)
            got = out["metrics"][(policy, idx)][0]
            if abs(got - expected) > 1e-12:
                failures.append(f"ensemble: {policy} sample {idx} FER {got}, "
                                f"recounted {expected}")
    return failures


def check_ensemble_floor(spec, out):
    """No policy's FER is below the share of positions where every mode
    slot fails."""
    slots = sorted({mode for _, mode in out["dataset"]})
    failures = []
    for idx, sample in out["samples"].items():
        floor = sum(1 for label, row in sample
                    if all(out["dataset"][(label, m)][row] == 2 for m in slots)) / len(sample)
        for (policy, s), (fer, _, _) in out["metrics"].items():
            if s == idx and fer < floor - 1e-12:
                failures.append(f"ensemble: {policy} sample {idx} FER {fer} below the "
                                f"all-modes-fail share {floor}")
    return failures


def check_ensemble_averages(spec, out):
    """Each summary FER is the mean of that policy's per-sample FERs."""
    failures = []
    for policy, avg in out["summary"].items():
        fers = [fer for (p, _), (fer, _, _) in out["metrics"].items() if p == policy]
        if not fers or abs(avg - math.fsum(fers) / len(fers)) > 1e-12:
            failures.append(f"ensemble: {policy} average FER {avg} is not the mean "
                            f"of its {len(fers)} samples")
    return failures


def check_ensemble_containment(spec, out):
    """DIQIF failure implies DT failure, frame by frame, on one-relay modes."""
    failures = []
    one_relay = [(label, mode) for label, mode in out["dataset"]
                 if mode.count("R") == 1]
    for label, mode in one_relay:
        dt = out["dataset"][(label, "DT")]
        bad = [f for f, cat in out["dataset"][(label, mode)].items()
               if cat == 2 and dt[f] != 2]
        if bad:
            failures.append(f"ensemble: {label} mode {mode} fails where DT succeeds "
                            f"at frames {bad[:5]}")
    return failures


def check_ensemble_replay(spec, out_dir, seed):
    out = read_ensemble(out_dir)
    failures = check_ensemble_shape(spec, out)
    if failures:
        return failures
    return (check_ensemble_fixed_recount(spec, out) + check_ensemble_floor(spec, out)
            + check_ensemble_averages(spec, out) + check_ensemble_containment(spec, out))


# -- mac_compare ----------------------------------------------------------

def read_mac(out_dir):
    def packets(name):
        return [{"index": int(r["packet_index"]), "delivered": int(r["delivered"]),
                 "attempts": int(r["attempts"]), "delay_us": float(r["delay_us"]),
                 "label": r["path_or_mode"]}
                for r in _read_csv(os.path.join(out_dir, name))]

    summary = {r["system"]: (float(r["drop_rate"]), float(r["throughput_bits_per_s"]))
               for r in _read_csv(os.path.join(out_dir, "mac_compare.csv"))}
    return {"coop": packets("packets_coop.csv"), "genie": packets("packets_genie.csv"),
            "summary": summary}


def check_mac_counts(spec, out):
    n = spec["config"]["n_packets"]
    failures = []
    for system in ("coop", "genie"):
        if [p["index"] for p in out[system]] != list(range(n)):
            failures.append(f"mac: {system} wrote {len(out[system])} packets, "
                            f"expected indices 0..{n - 1}")
    return failures


def check_mac_delays(spec, out):
    """Delays recomputed from attempts: a coop attempt that used both slots
    costs 180 + 192 us and a direct success 180 us; every genie attempt is
    one 180 us link transmission."""
    max_attempts = spec["config"]["mac"]["max_retx_coop"] + 1
    both = AIRTIME_DIRECT_US + AIRTIME_COOP_US
    failures = []
    for p in out["coop"]:
        a = p["attempts"]
        if not 1 <= a <= max_attempts or (not p["delivered"] and a != max_attempts):
            failures.append(f"mac: coop packet {p['index']} has {a} attempts")
            continue
        if p["delivered"] and p["label"] == "direct":
            expected = (a - 1) * both + AIRTIME_DIRECT_US
        else:
            expected = a * both
        if abs(p["delay_us"] - expected) > 1e-6:
            failures.append(f"mac: coop packet {p['index']} delay {p['delay_us']}, "
                            f"expected {expected}")
    for p in out["genie"]:
        expected = p["attempts"] * AIRTIME_DIRECT_US
        if p["attempts"] < 1 or abs(p["delay_us"] - expected) > 1e-6:
            failures.append(f"mac: genie packet {p['index']} delay {p['delay_us']} "
                            f"for {p['attempts']} attempts")
    return failures[:20]


def _recomputed(packets):
    drops = sum(1 for p in packets if not p["delivered"]) / len(packets)
    airtime_s = math.fsum(p["delay_us"] for p in packets) * 1e-6
    throughput = sum(PAYLOAD_BITS for p in packets if p["delivered"]) / airtime_s
    return drops, throughput


def check_mac_rates(spec, out):
    """Drop rate and throughput recomputed from the packet CSVs."""
    failures = []
    for system in ("coop", "genie"):
        drops, throughput = _recomputed(out[system])
        got_drops, got_throughput = out["summary"][system]
        if abs(got_drops - drops) > 1e-12 or \
                abs(got_throughput - throughput) > 1e-9 * throughput:
            failures.append(f"mac: {system} reports drop {got_drops} / throughput "
                            f"{got_throughput}, packets give {drops} / {throughput}")
    return failures


def check_mac_ordering(spec, out):
    """Cooperation drops fewer packets and carries more than genie routing."""
    coop = _recomputed(out["coop"])
    genie = _recomputed(out["genie"])
    if coop[0] < genie[0] and coop[1] > genie[1]:
        return []
    return [f"mac: coop drop/throughput {coop} does not beat genie {genie}"]


def check_mac_compare(spec, out_dir, seed):
    out = read_mac(out_dir)
    failures = check_mac_counts(spec, out)
    if failures:
        return failures
    return (check_mac_delays(spec, out) + check_mac_rates(spec, out)
            + check_mac_ordering(spec, out))


CONFIG_CHECKS = {
    "outage_montecarlo": check_outage_montecarlo,
    "ensemble_replay": check_ensemble_replay,
    "mac_compare": check_mac_compare,
}
