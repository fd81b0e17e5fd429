"""Reference implementations the tests compare coopsim against.

They are slow and need scipy, so they live here rather than in the package:

- p_omega_quad: P_omega by adaptive QUADPACK quadrature on the same
  breakpoints as coopsim.outage._p_omega;
- p_omega_by_term_expansion: P_omega as a signed sum of elementary
  integrals, independent of the integrand's product form;
- best_subnetwork_exhaustive: the analytic subset search without pruning;
- best_subnetwork_montecarlo_scan: the Monte-Carlo subset search as one
  approx_capacity call per subset on the whole draw array;
- run_fixed: a fixed-mode run over a schedule as a per-frame loop, one
  channel draw and one topology lookup (schedule_topology_at) per frame.
"""
import itertools
import math
import warnings

import numpy as np
from scipy.integrate import IntegrationWarning, quad

from coopsim.netsim import evaluate_frame
from coopsim.outage import (OutageQuery, QuadratureFailure, approx_capacity,
                            outage_upper_bound)
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
    """Pr{log2(1+X) + log2(1+Y) < R} by adaptive quadrature, with the
    early exits, breakpoints and error condition of the package rule."""
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

    def integrand(x):
        return _max_pdf(lams_src, x) * _max_cdf(lams_dst, two_r / (1.0 + x) - 1.0)

    points = {tau * s for s in (1e-9, 1e-6, 1e-3, 1e-2, 0.1, 0.5)}
    points |= {1.0 / lam for lam in lams_src + lams_dst}
    points = sorted(p for p in points if 0.0 < p < tau)
    with warnings.catch_warnings():
        # the abserr check below replaces QUADPACK's roundoff warning
        warnings.simplefilter("ignore", IntegrationWarning)
        value, abserr = quad(integrand, 0.0, tau, points=points,
                             epsabs=0.0, epsrel=rel_tol, limit=500)
    if not math.isfinite(value) or abserr > 10.0 * rel_tol * max(abs(value), 1e-300):
        raise QuadratureFailure(
            f"P_omega quadrature reached error {abserr:.3e} for value {value:.3e} "
            f"(rel_tol {rel_tol:.1e})")
    return min(max(value, 0.0), 1.0)


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


def best_subnetwork_exhaustive(t, k, rate, rel_tol):
    """Union bound of every k-relay subset in lexicographic order; ties
    keep the earliest."""
    best_subset, best_value = None, math.inf
    for subset in itertools.combinations(range(1, t.n_relays + 1), k):
        q = OutageQuery(rate=rate, subset=subset, quadrature_rel_tol=rel_tol)
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


def run_fixed(schedule, topologies, mode, strategy, rate, rng):
    """One FrameOutcome per schedule frame with a fixed mode (None = plain
    DT); topologies maps schedule labels to Topology objects."""
    outcomes = []
    for f in range(schedule.total_frames):
        t = topologies[schedule_topology_at(schedule, f)]
        outcomes.append(evaluate_frame(sample_channels(t, rng), mode, strategy, rate))
    return outcomes
