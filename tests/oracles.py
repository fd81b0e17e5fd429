"""Reference implementations the tests compare coopsim against.

They are slow and need scipy, so they live here rather than in the package:

- p_omega_quad: P_omega by adaptive QUADPACK quadrature over the
  destination side, on breakpoints of its own;
- p_omega_by_term_expansion: P_omega as a signed sum of elementary
  integrals, independent of the integrand's product form;
- panel_rule_reference: outage._panel_rule as first written, each rule's
  nodes built from its own edge array and each density and CDF a full
  product over ones arrays, whose results the package rule must equal bit
  for bit;
- union_bound: outage_upper_bound as one sum over every cut;
- bound_floor: the floor of a subset's union bound that the analytic
  searches walk by, from its two closed-form cut terms;
- best_subnetwork_exhaustive: the analytic subset search without pruning;
- best_subnetwork_montecarlo_scan: the Monte-Carlo subset search as one
  approx_capacity call per subset on the whole draw array;
- required_snr_db_full_search: the required-SNR bisection with one full
  best_subnetwork search per step;
- sample_channels_exponential: a channel draw as one rng.exponential call
  with the per-link scales;
- frame_category: evaluate_frame on one row of Python floats, with the
  DT/DIF/DIQIF second-slot rule written out branch by branch
  (_phase2_success);
- run_fixed: a fixed-mode run over a schedule as a per-frame loop, one
  channel draw and one topology lookup (schedule_topology_at) per frame;
- schedule_executor: a block executor over a schedule that draws one
  sample_channels batch per segment as the run reaches it and evaluates
  the frames it sends one row at a time with evaluate_frame;
- single_frame: a block executor as a single-frame executor of
  run_policy_per_frame;
- run_policy_per_frame: selection.run_policy as a loop of one executor
  call per frame on mode values, with single-frame executors, its trigger
  the windowed FER of the last w frames (windowed_fer);
- spawn_rngs: n generators spawned from one root SeedSequence;
- learn_reference: selection.learn as first written, a dict of the batch's
  FERs and a stable sort of every admissible mode after each batch, on its
  own copy of the two-pass weight update (_weight_update_reference);
- write_dataset_csv_rows and write_samples_csv_rows: the ensemble CSVs
  written one csv.writer row per frame;
- write_packets_csv_rows: the packet CSV written one csv.writer row per
  packet;
- genie_route_brute_force: genie routing by walking every path of every
  packet attempt by attempt;
- coop_mac_deliver_frames: cooperative MAC delivery as a frame-by-frame
  loop with running delay sums, optionally asking for n_packets packets.
"""
import csv
import itertools
import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.integrate import IntegrationWarning, quad

from coopsim.macemu import (AIRTIME_BOTH_US, AIRTIME_DIRECT_US, PacketResult,
                            TraceExhaustedError)
from coopsim.netsim import Mode, Strategy, evaluate_frame, mode_key_str
from coopsim.outage import (Cut, OutageQuery, QuadratureFailure,
                            approx_capacity, best_subnetwork, cut_outage_analytic,
                            direct_outage, outage_upper_bound)
from coopsim.selection import (DEFAULT_PARAMS, LearnCall, RankedModeList, learn,
                               policy_name)
from coopsim.topology import sample_channels


class ScheduleOutOfRangeError(IndexError):
    """Frame index beyond the end of a topology schedule."""


def _max_cdf(lams, x):
    """CDF of the max of independent exponentials at x."""
    if x <= 0.0:
        return 0.0
    p = 1.0
    for lam in lams:
        p *= -math.expm1(-lam * x)
    return p


def _max_pdf(lams, x):
    """Density of the max of independent exponentials (product rule)."""
    if x < 0.0:
        return 0.0
    total = 0.0
    for i, li in enumerate(lams):
        term = li * math.exp(-li * x)
        for k, lk in enumerate(lams):
            if k != i:
                term *= -math.expm1(-lk * x)
        total += term
    return total


def p_omega_quad(lams_src, lams_dst, rate, rel_tol):
    """Pr{log2(1+X) + log2(1+Y) < R} by adaptive quadrature over the
    destination side, int_0^tau f_Y(y) F_X(2^R/(1+y) - 1) dy, with the
    package rule's closed-form early exits. The breakpoints share nothing
    with the package rule: s/lambda on the destination's scales, where its
    density falls, and 2^R/(1+s/lambda) - 1 on the source's, where the
    source CDF turns, for s from 0.01 to 100.

    It is checked only up to about R = 30. On random cuts whose lambda * tau
    spans many decades, it was off by more than 1e-6 relative in 45 of 54 at
    R in [30, 60], and where a 40-digit mpmath integral was taken it sided
    with the package, not with this oracle."""
    tau = 2.0 ** rate - 1.0
    if tau <= 0.0:
        return 0.0
    if not lams_src and not lams_dst:
        return 1.0
    if not lams_src:
        return _max_cdf(lams_dst, tau)
    if not lams_dst:
        return _max_cdf(lams_src, tau)

    ceiling = min(_max_cdf(lams_src, tau), _max_cdf(lams_dst, tau))
    if ceiling < 1e-14:
        return ceiling

    two_r = 2.0 ** rate

    def integrand(y):
        return _max_pdf(lams_dst, y) * _max_cdf(lams_src, two_r / (1.0 + y) - 1.0)

    scales = (0.01, 0.1, 1.0, 10.0, 100.0)
    points = {s / lam for lam in lams_dst for s in scales}
    points |= {two_r / (1.0 + s / lam) - 1.0 for lam in lams_src for s in scales}
    with warnings.catch_warnings():
        # the abserr check below replaces QUADPACK's roundoff warning
        warnings.simplefilter("ignore", IntegrationWarning)
        value, abserr = quad(integrand, 0.0, tau,
                             points=sorted(p for p in points if 0.0 < p < tau),
                             epsabs=0.0, epsrel=rel_tol, limit=500)
    if math.isfinite(value) and abserr <= 10.0 * rel_tol * max(abs(value), 1e-300):
        return min(max(value, 0.0), 1.0)
    raise QuadratureFailure(
        f"P_omega quadrature reached error {abserr:.3e} for value {value:.3e} "
        f"(rel_tol {rel_tol:.1e})")


def p_omega_by_term_expansion(lams_src, lams_dst, rate, rel_tol):
    """P_omega as a signed sum of elementary integrals
    exp(-alpha*x - beta*(2^R/(1+x) - 1)).

    Expands both the density of X and the CDF of Y into exponential terms;
    valid only for distinct rate parameters (the expansion cancels badly
    for repeated values).
    """
    tau = 2.0 ** rate - 1.0
    if tau <= 0.0:
        return 0.0
    if not lams_src:
        return _max_cdf(lams_dst, tau)
    if not lams_dst:
        return _max_cdf(lams_src, tau)
    two_r = 2.0 ** rate

    def elementary(alpha, beta):
        f = lambda x: math.exp(-alpha * x - beta * (two_r / (1.0 + x) - 1.0))
        val, _ = quad(f, 0.0, tau, epsabs=0.0, epsrel=rel_tol, limit=200)
        return val

    total = 0.0
    src = list(lams_src)
    dst = list(lams_dst)
    for i, li in enumerate(src):
        rest = [l for k, l in enumerate(src) if k != i]
        for r_bits in range(1 << len(rest)):
            u = [rest[p] for p in range(len(rest)) if r_bits >> p & 1]
            sign_u = -1.0 if len(u) % 2 else 1.0
            alpha = li + sum(u)
            for t_bits in range(1 << len(dst)):
                tset = [dst[p] for p in range(len(dst)) if t_bits >> p & 1]
                sign_t = -1.0 if len(tset) % 2 else 1.0
                total += li * sign_u * sign_t * elementary(alpha, sum(tset))
    return total


# 48-point Gauss-Legendre nodes and weights on [-1, 1]
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(48)


def _max_cdf_at(lams, x):
    """_max_cdf at every point of the array x."""
    lams = np.asarray(lams)[:, None]
    return np.prod(-np.expm1(-lams * np.maximum(x, 0.0)), axis=0)


def _max_pdf_at(lams, x):
    """Density of the max of independent exponentials at every point of
    the array x >= 0, from prefix and suffix products that start at ones."""
    lams = np.asarray(lams)[:, None]
    z = -lams * x
    cdfs = -np.expm1(z)
    m = len(lams)
    before, after = np.ones_like(cdfs), np.ones_like(cdfs)
    for i in range(1, m):
        before[i] = before[i - 1] * cdfs[i - 1]
        after[m - 1 - i] = after[m - i] * cdfs[m - i]
    return (lams * np.exp(z) * before * after).sum(axis=0)


def _panel_nodes(edges):
    """Nodes and weights of the Gauss-Legendre rule on every panel
    [edges[i], edges[i+1]], flattened."""
    half = 0.5 * np.diff(edges)[:, None]
    mid = (0.5 * edges[:-1] + 0.5 * edges[1:])[:, None]
    return (mid + half * _GL_NODES).ravel(), (half * _GL_WEIGHTS).ravel()


def panel_rule_reference(lams_src, lams_dst, rate, tau, points):
    """outage._panel_rule: (value, error estimate) of the Gauss-Legendre
    rule on the halved panels and its difference from the rule on the
    whole panels, each rule's nodes from its own edge array."""
    edges = np.array([0.0, *sorted(p for p in points if 0.0 < p < tau), tau])
    halved = np.empty(2 * len(edges) - 1)
    halved[::2] = edges
    halved[1::2] = 0.5 * edges[:-1] + 0.5 * edges[1:]
    x_whole, w_whole = _panel_nodes(edges)
    x_halved, w_halved = _panel_nodes(halved)
    x = np.concatenate((x_whole, x_halved))
    with np.errstate(over="ignore"):
        f = _max_pdf_at(lams_src, x) * _max_cdf_at(lams_dst, 2.0 ** rate / (1.0 + x) - 1.0)
    value = float((w_halved * f[len(x_whole):]).sum())
    return value, abs(value - float((w_whole * f[:len(x_whole)]).sum()))


def union_bound(t, q):
    """Union bound direct_outage * sum_omega P_omega, clamped to [0, 1],
    summed over every cut in order of size, lexicographically within a
    size."""
    total = 0.0
    for size in range(len(q.subset) + 1):
        for omega in itertools.combinations(q.subset, size):
            total += cut_outage_analytic(t, q, Cut(omega))
    return min(1.0, direct_outage(t.lambda_sd, q.rate) * total)


def bound_floor(t, q):
    """Lower bound P_direct * (F_Y(tau) + F_X(tau)) on outage_upper_bound:
    its closed-form cuts omega = {} and omega = subset, from the same term
    values added in the same order, so rounding cannot lift the floor above
    the bound."""
    cuts = (Cut(()), Cut(q.subset)) if q.subset else (Cut(()),)
    total = 0.0
    for cut in cuts:
        total += cut_outage_analytic(t, q, cut)
    return min(1.0, direct_outage(t.lambda_sd, q.rate) * total)


def best_subnetwork_exhaustive(t, k, rate):
    """Union bound of every k-relay subset in lexicographic order; ties
    keep the earliest."""
    best_subset, best_value = None, math.inf
    for subset in itertools.combinations(range(1, t.n_relays + 1), k):
        q = OutageQuery(rate=rate, subset=subset)
        value = outage_upper_bound(t, q)
        if value < best_value:
            best_subset, best_value = subset, value
    return best_subset, best_value


def best_subnetwork_montecarlo_scan(t, k, rate, mc_samples, rng):
    """The fraction of mc_samples draws whose approx_capacity is below rate,
    for every k-relay subset in lexicographic order on one batch of draws;
    the smallest, ties keeping the earliest subset."""
    draws = sample_channels(t, rng, mc_samples)
    best_subset, best_value = None, math.inf
    for subset in itertools.combinations(range(1, t.n_relays + 1), k):
        cap = approx_capacity(draws, subset)
        value = float(np.count_nonzero(cap < rate)) / mc_samples
        if value < best_value:
            best_subset, best_value = subset, value
    return best_subset, best_value


def required_snr_db_full_search(template, k, rate, target,
                                normalization="per_node", lo_db=-20.0,
                                hi_db=60.0, iterations=40):
    """Bisection for the SNR (dB) at which the least k-subset union bound
    crosses the target, each step comparing the exact least bound of a
    full best_subnetwork search with the target."""

    def level(snr_db):
        snr = 10.0 ** (snr_db / 10.0)
        scaled = template.scaled(snr / (k + 1) if normalization == "total_power" else snr)
        _, value = best_subnetwork(scaled, k, rate, method="analytic")
        return value

    if level(lo_db) < target:
        raise ValueError(f"target {target} already met at lo_db={lo_db}")
    if level(hi_db) > target:
        raise ValueError(f"target {target} not reached at hi_db={hi_db}")
    lo, hi = lo_db, hi_db
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        if level(mid) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def sample_channels_exponential(t, rng, n=None):
    """sample_channels(t, rng, n) as one Generator.exponential call that
    broadcasts the per-link scales."""
    scales = 1.0 / np.array((t.lambda_sd, *t.lambda_sr, *t.lambda_rd))
    return rng.exponential(scales, size=None if n is None else (n, len(scales)))


def schedule_topology_at(schedule, frame_index):
    """Topology label governing frame_index; segments are half-open [start, start+len)."""
    if frame_index < 0:
        raise ScheduleOutOfRangeError(f"frame index {frame_index} is negative")
    start = 0
    for label, n in schedule.segments:
        if frame_index < start + n:
            return label
        start += n
    raise ScheduleOutOfRangeError(
        f"frame index {frame_index} beyond schedule length {schedule.total_frames}")


def _phase2_success(c, mode, strategy, rate):
    """Second-slot decodability given a failed Phase 1.

    thr is the linear SNR a slot must accumulate for rate R. The
    destination always maximal-ratio-combines its Phase-1 copy with the
    Phase-2 superposition, which makes the DT criterion a floor for the
    one-relay strategies.
    """
    thr = 2.0 ** rate - 1.0
    h_sd2 = c[0]
    if strategy is Strategy.DT or mode is None:
        # source repeats: phase-1 + phase-2 copies of the direct link
        return 2.0 * h_sd2 >= thr

    n_relays = (len(c) - 1) // 2
    decoded = [i for i in mode.relays if c[i] >= thr]
    if len(mode.relays) == 1:
        if decoded:
            # source + relay transmit; combined with the phase-1 copy
            dif_ok = 2.0 * h_sd2 + c[n_relays + mode.relays[0]] >= thr
        else:
            # relay stays silent, source repetition only
            dif_ok = 2.0 * h_sd2 >= thr
    else:
        # only the relays transmit in phase 2 of a two-relay mode
        dif_ok = bool(decoded) and (
            h_sd2 + sum(c[n_relays + i] for i in decoded) >= thr)

    if strategy is Strategy.DIF:
        return dif_ok
    # DIQIF: the quantize path is credited with the cut-set value
    return dif_ok or approx_capacity(c, mode.relays) >= rate


def frame_category(c, mode, strategy, rate):
    """evaluate_frame(c, mode, strategy, rate) on the row c, a list of
    Python floats, with strategy a Strategy and no argument checks."""
    if 2.0 ** rate - 1.0 <= c[0]:
        return 0
    return 1 if _phase2_success(c, mode, strategy, rate) else 2


def run_fixed(schedule, topologies, mode, strategy, rate, rng):
    """The outcome category of each schedule frame with a fixed mode
    (None = plain DT); topologies maps schedule labels to Topology objects."""
    outcomes = []
    for f in range(schedule.total_frames):
        t = topologies[schedule_topology_at(schedule, f)]
        outcomes.append(evaluate_frame(sample_channels(t, rng), mode, strategy, rate))
    return outcomes


def schedule_executor(schedule, topologies, strategy, rate, rng):
    """Block executor over the schedule: one sample_channels batch per
    segment, drawn when the segment starts, its rows served in order."""
    def draws():
        for label, frames in schedule.segments:
            yield from sample_channels(topologies[label], rng, frames)

    rows = draws()

    def execute(mode_key, n):
        return [evaluate_frame(c, mode_key, strategy, rate)
                for c in itertools.islice(rows, n)]

    return execute


def single_frame(executor):
    """executor(mode, n) as executor(mode) of one frame, which raises
    FrameStreamEnded once the block executor's stream has ended."""
    def execute(mode):
        categories = executor(mode, 1)
        if not categories:
            raise FrameStreamEnded
        return categories[0]

    return execute


def spawn_rngs(seed, n):
    """n independent generators reproducibly derived from one root seed."""
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n)]


def _weight_update_reference(weights, fers, eta, alpha):
    """selection.weight_update's two passes, less its argument checks."""
    n = len(weights)
    penalized = [w * math.exp(-eta * f) for w, f in zip(weights, fers)]
    shares = [1.0 - (1.0 - alpha) ** f for f in fers]
    pool = sum(s * w for s, w in zip(shares, penalized))
    return [(1.0 - s) * w + (pool - s * w) / (n - 1)
            for s, w in zip(shares, penalized)]


def learn_reference(runner, candidates, params):
    """selection.learn: each batch gathers its FERs into a dict, updates
    and normalizes the weights, then scans every admissible mode in a
    stable ascending-weight sort, rejecting those at or below epsilon."""
    candidates = list(candidates)
    weights = {m: 1.0 / len(candidates) for m in candidates}
    if len(candidates) == 1:
        return RankedModeList(order=tuple(candidates), weights={candidates[0]: 1.0})

    admissible = list(candidates)
    rejected = []
    batch = 0
    while len(admissible) > 1 and batch < params.B:
        fers = {m: runner(m, params.l) for m in admissible}
        updated = _weight_update_reference([weights[m] for m in admissible],
                                           [fers[m] for m in admissible],
                                           params.eta, params.alpha)
        total = sum(updated)
        for m, w in zip(admissible, updated):
            weights[m] = w / total
        keep = []
        for m in sorted(admissible, key=lambda m: weights[m]):
            if weights[m] > params.epsilon:
                keep.append(m)
            else:
                rejected.append(m)
        admissible = [m for m in admissible if m in keep]
        batch += 1

    survivors = sorted(admissible, key=lambda m: weights[m])
    if survivors:
        surv_total = sum(weights[m] for m in survivors)
        for m in survivors:
            weights[m] /= surv_total
    order = tuple(reversed(rejected + survivors))
    return RankedModeList(order=order, weights={m: weights[m] for m in candidates})


class InsufficientHistoryError(ValueError):
    """Fewer frames available than the FER window."""


def windowed_fer(categories, w):
    """Fraction of the last w outcome categories (a sequence) that are
    failures (2): the trigger statistic of the per-frame loop."""
    if len(categories) < w:
        raise InsufficientHistoryError(
            f"need at least {w} frames, have {len(categories)}")
    return categories[-w:].count(2) / w


class FrameStreamEnded(Exception):
    """Raised by a single-frame executor of run_policy_per_frame when its
    stream has ended; ends the run."""


@dataclass
class PerFrameRunLog:
    """The columns of a run_policy_per_frame run, modes stored per frame."""
    policy: str
    modes: list = field(default_factory=list)
    categories: list = field(default_factory=list)
    phases: list = field(default_factory=list)
    triggers: list = field(default_factory=list)
    learn_calls: list = field(default_factory=list)

    @property
    def switch_count(self):
        return sum(1 for a, b in zip(self.modes, self.modes[1:]) if a != b)

    def to_rows(self):
        """selection.PolicyRunLog.to_rows, one frame at a time."""
        rows = []
        switches = 0
        for i, (mode, category, phase) in enumerate(
                zip(self.modes, self.categories, self.phases)):
            if i > 0 and mode != self.modes[i - 1]:
                switches += 1
            rows.append([i, mode_key_str(mode), category, phase, switches])
        return rows


class _FrameLoop:
    def __init__(self, executor, log):
        self.executor = executor
        self.log = log

    def send(self, mode, phase):
        log = self.log
        category = int(self.executor(mode))
        log.modes.append(mode)
        log.categories.append(category)
        log.phases.append(phase)
        return category

    def run(self, step):
        try:
            while True:
                step()
        except FrameStreamEnded:
            pass
        return self.log


def _operate_until_trigger(loop, mode, params):
    for _ in range(params.w):
        loop.send(mode, "operating")
    i = 0
    while windowed_fer(loop.log.categories, params.w) < params.zeta:
        for _ in range(params.delta_w):
            loop.send(mode, "operating")
        i += 1
    return i


def _learn_runner(loop):
    def runner(mode, n):
        cats = [loop.send(mode, "learning") for _ in range(n)]
        return cats.count(2) / len(cats)
    return runner


def _learn_logged(loop, candidates, learn_params):
    start = len(loop.log.categories)
    order = learn(_learn_runner(loop), candidates, learn_params).order
    loop.log.learn_calls.append(
        LearnCall(start, len(loop.log.categories), candidates, order))
    return order


def _run_triggered(executor, all_modes, params, log, adapt):
    loop = _FrameLoop(executor, log)
    current = all_modes[0]

    def step():
        nonlocal current
        i = _operate_until_trigger(loop, current, params)
        log.triggers.append(len(log.categories))
        current = adapt(loop, i)

    return loop.run(step)


def spa_per_frame(executor, all_modes, params, log):
    if len(all_modes) < params.r:
        raise ValueError(f"need |modes| >= r, got {len(all_modes)} < {params.r}")
    ranked = list(all_modes)

    def adapt(loop, i):
        turn = params.r if i <= params.s else 1
        ranked[:] = ranked[turn:] + ranked[:turn]
        ranked[:params.r] = _learn_logged(loop, tuple(ranked[:params.r]), params.learn)
        return ranked[0]

    return _run_triggered(executor, all_modes, params, log, adapt)


def run_policy_per_frame(policy, executor, all_modes, params=DEFAULT_PARAMS, rng=None):
    """selection.run_policy with one executor call per frame: executor(mode)
    returns the frame's category, or raises FrameStreamEnded to end the
    run. Returns a PerFrameRunLog."""
    modes = list(all_modes)

    name = policy_name(policy)
    if name == "DT" or name.startswith("Fixed:"):
        mode = None if name == "DT" else Mode.parse(name[len("Fixed:"):])
        loop = _FrameLoop(executor, PerFrameRunLog(name))
        return loop.run(lambda: loop.send(mode, "operating"))
    if name == "SPA":
        return spa_per_frame(executor, modes, params, PerFrameRunLog("SPA"))
    log = PerFrameRunLog(name)
    if name in ("RandPick", "PWR2") and rng is None:
        raise ValueError(f"{name} needs rng")

    def probe(loop, candidates):
        measure = _learn_runner(loop)
        fers = [(measure(m, params.w), k) for k, m in enumerate(candidates)]
        return candidates[min(fers)[1]]

    if name == "BRUTE":
        def adapt(loop, i):
            return probe(loop, modes)
    elif name == "RandPick":
        def adapt(loop, i):
            return modes[int(rng.integers(len(modes)))]
    elif name == "PWR2":
        def adapt(loop, i):
            a, b = rng.choice(len(modes), size=2, replace=False)
            return probe(loop, [modes[int(a)], modes[int(b)]])
    else:  # NRNM or WRNM
        lp = params.learn if name == "WRNM" else replace(params.learn, epsilon=0.0)
        def adapt(loop, i):
            return _learn_logged(loop, tuple(modes), lp)[0]

    return _run_triggered(executor, modes, params, log, adapt)


def write_dataset_csv_rows(path, dataset):
    """ensemble.write_dataset_csv as one csv.writer row per frame."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["topology", "mode", "frame_index", "category"])
        for label, table in zip(dataset.topologies, dataset.outcomes.tolist()):
            for key, categories in zip(dataset.mode_keys, table):
                for f, cat in enumerate(categories):
                    w.writerow([label, mode_key_str(key), f, cat])


def write_samples_csv_rows(path, samples):
    """ensemble.write_samples_csv as one csv.writer row per position."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["sample", "segment", "position", "topology", "row"])
        for si, sample in enumerate(samples):
            for gi, (label, rows) in enumerate(sample.segments):
                for pos, row in enumerate(rows):
                    w.writerow([si, gi, pos, label, row])


def write_packets_csv_rows(path, results):
    """experiments._write_packets as one csv.writer row per packet."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["packet_index", "delivered", "attempts", "delay_us",
                    "path_or_mode"])
        for i, r in enumerate(results):
            w.writerow([i, int(r.delivered), r.attempts,
                        repr(float(r.total_delay_us)), r.path_or_mode])


def genie_route_brute_force(paths, policy):
    """Per packet, walk every path attempt by attempt, each hop allowed
    max_retx_per_link retransmissions; take the delivering path with the
    fewest attempts, else the path that drops after the fewest, ties to
    the lowest path index."""
    budget = policy.max_retx_per_link + 1
    results = []
    for packet in range(paths.n_packets):
        walks = []
        for idx, path in enumerate(paths.paths):
            attempts, delivered = 0, True
            for hop in path.hops:
                for success in hop[packet][:budget]:
                    attempts += 1
                    if success:
                        break
                else:
                    delivered = False
                    break
            walks.append((not delivered, attempts, idx))
        dropped, attempts, idx = min(walks)
        results.append(PacketResult(not dropped, attempts * AIRTIME_DIRECT_US,
                                    attempts, paths.paths[idx].label))
    return results



def coop_mac_deliver_frames(modes, categories, policy, n_packets=None):
    """macemu.coop_mac_deliver frame by frame: each packet sums its delay
    over its frames, a category 2 retrying until max_retx_coop retries are
    spent. Raises TraceExhaustedError if the trace ends mid-packet, or
    before n_packets packets when given."""
    frames = zip(modes, categories)
    results = []
    while n_packets is None or len(results) < n_packets:
        delay = 0.0
        attempts = 0
        for mode, cat in frames:
            attempts += 1
            if cat not in (0, 1, 2):
                raise ValueError(f"category must be 0, 1 or 2, got {cat!r}")
            if cat == 0:
                results.append(PacketResult(True, delay + AIRTIME_DIRECT_US,
                                            attempts, "direct"))
                break
            delay += AIRTIME_BOTH_US
            if cat == 1:
                results.append(PacketResult(True, delay, attempts, mode_key_str(mode)))
                break
            if attempts > policy.max_retx_coop:
                results.append(PacketResult(False, delay, attempts, ""))
                break
        else:  # the trace has ended
            if attempts:
                raise TraceExhaustedError(
                    f"trace ended mid-packet after {len(results)} packets")
            if n_packets is not None:
                raise TraceExhaustedError(
                    f"trace ended after {len(results)} of {n_packets} packets")
            break
    return results
