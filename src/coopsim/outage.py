"""Outage analysis for relay subnetworks under Rayleigh fading.

Capacity of an active relay subset is approximated by the minimum over all
2^k cuts of

    I_cut = max( log2(1 + h_sd^2),
                 max_{i in omega} log2(1 + h_i^2)
                 + max_{j in subset \\ omega} log2(1 + g_j^2) )

with the max over an empty index set defined as 0. Outage at rate R is
Pr{capacity < R}. The analytic upper bound factors the direct-link term out
of each cut probability and evaluates

    P_omega = Pr{ log2(1+X) + log2(1+Y) < R }
            = integral_0^{2^R-1} f_X(x) * F_Y(2^R/(1+x) - 1) dx

by a fixed-node Gauss-Legendre rule, where X is the max of the omega-side
h_i^2 and Y the max of the complement-side g_j^2, both maxima of
independent exponentials. A vectorized Monte-Carlo estimator serves as the
bound's tightness oracle. The outage-optimal k-relay subnetwork comes from
a subset search that the bound's closed-form cuts prune (analytic), or from
an exhaustive scan over common random numbers (Monte-Carlo).
"""
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .rng import named_rng
from .topology import sample_channels


class IndexOutOfSubsetError(ValueError):
    """Cut contains relay indices outside the active subset."""


class QuadratureFailure(ArithmeticError):
    """The quadrature error estimate exceeds the requested tolerance."""


DEFAULT_REL_TOL = 1e-8
DEFAULT_MC_SAMPLES = 100_000


@dataclass(frozen=True)
class Cut:
    """Relay indices grouped with the source side of a network bipartition."""
    omega: frozenset

    def __init__(self, omega=()):
        object.__setattr__(self, "omega", frozenset(int(i) for i in omega))


@dataclass(frozen=True)
class OutageQuery:
    rate: float
    subset: tuple = ()
    quadrature_rel_tol: float = DEFAULT_REL_TOL
    mc_samples: int = DEFAULT_MC_SAMPLES

    def __post_init__(self):
        object.__setattr__(self, "subset", tuple(int(i) for i in self.subset))
        if not self.rate > 0:
            raise ValueError(f"rate must be positive, got {self.rate}")
        if len(set(self.subset)) != len(self.subset):
            raise ValueError("subset indices must be distinct")
        if any(i < 1 for i in self.subset):
            raise ValueError("relay indices are 1-based")
        if not self.quadrature_rel_tol > 0:
            raise ValueError("quadrature_rel_tol must be positive")
        if self.mc_samples < 1:
            raise ValueError("mc_samples must be positive")


def approx_capacity(c, subset):
    """Cut-set capacity approximation of the relay subset over the last
    axis of a draw array c (see topology.sample_channels): the min over
    all 2^k cuts of the cut value in the module docstring. Returns an
    array of c's shape without its last axis.
    """
    c = np.asarray(c, dtype=float)
    n_relays = (c.shape[-1] - 1) // 2
    if any(not 1 <= i <= n_relays for i in subset):
        raise ValueError(
            f"subset {tuple(subset)} has indices outside 1..{n_relays}")
    # log2(1 + x) of the direct link, the subset's h and its g links: one
    # array each, over c's other axes in reverse order (hence .T below)
    k = len(subset)
    caps = c.T[[0, *subset, *(n_relays + i for i in subset)]]
    np.log2(np.add(caps, 1.0, out=caps), out=caps)
    direct, *links = caps
    src, dst = links[:k], links[k:]
    # min over cuts of max(direct, relayed) = max(direct, min over cuts of relayed)
    relayed = np.inf
    for mask in range(1 << k):
        sides = ([a for p, a in enumerate(src) if mask >> p & 1],
                 [b for p, b in enumerate(dst) if not mask >> p & 1])
        relayed = np.minimum(relayed, sum(
            functools.reduce(np.maximum, side) for side in sides if side))
    return np.maximum(direct, relayed).T


def direct_outage(lambda_sd, rate):
    """Closed form 1 - exp(-lambda * (2^R - 1)) for the direct link."""
    if not (lambda_sd > 0 and rate > 0):
        raise ValueError("lambda_sd and rate must be positive")
    return -math.expm1(-lambda_sd * (2.0 ** rate - 1.0))


def _max_cdf(lams, x):
    """CDF of the max of independent exponentials at x."""
    if x <= 0.0:
        return 0.0
    p = 1.0
    for lam in lams:
        p *= -math.expm1(-lam * x)
    return p


# 48-point Gauss-Legendre nodes and weights on [-1, 1]
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(48)


def _max_cdf_at(lams, x):
    """_max_cdf at every point of the array x."""
    lams = np.asarray(lams)[:, None]
    return np.prod(-np.expm1(-lams * np.maximum(x, 0.0)), axis=0)


def _max_pdf_at(lams, x):
    """Density of the max of independent exponentials at every point of
    the array x >= 0: the sum over i of f_i times the CDFs F_k, k != i, of
    the others, taken from prefix and suffix products."""
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
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    return (mid + half * _GL_NODES).ravel(), (half * _GL_WEIGHTS).ravel()


def _p_omega(lams_src, lams_dst, rate, rel_tol):
    """Pr{log2(1+X) + log2(1+Y) < R} for X = max Exp(lams_src), Y = max
    Exp(lams_dst); degenerate sides reduce to a single CDF evaluation.

    Interior breakpoints at the exponential scales keep the rule from
    overlooking a boundary-concentrated density at large lambda. The value
    is the Gauss-Legendre rule on the halved panels; its error estimate is
    the difference from the same rule on the whole panels.
    """
    tau = 2.0 ** rate - 1.0
    if tau <= 0.0:
        return 0.0
    if not lams_src and not lams_dst:
        return 1.0
    if not lams_src:
        return _max_cdf(lams_dst, tau)
    if not lams_dst:
        return _max_cdf(lams_src, tau)

    # P <= min(F_X(tau), F_Y(tau)); skip degenerate quadrature on negligible mass
    ceiling = min(_max_cdf(lams_src, tau), _max_cdf(lams_dst, tau))
    if ceiling < 1e-14:
        return ceiling

    points = {tau * s for s in (1e-9, 1e-6, 1e-3, 1e-2, 0.1, 0.5)}
    points |= {1.0 / lam for lam in lams_src + lams_dst}
    edges = np.array([0.0, *sorted(p for p in points if 0.0 < p < tau), tau])
    halved = np.empty(2 * len(edges) - 1)
    halved[::2] = edges
    halved[1::2] = 0.5 * (edges[:-1] + edges[1:])
    x_whole, w_whole = _panel_nodes(edges)
    x_halved, w_halved = _panel_nodes(halved)
    x = np.concatenate((x_whole, x_halved))
    f = _max_pdf_at(lams_src, x) * _max_cdf_at(lams_dst, 2.0 ** rate / (1.0 + x) - 1.0)
    value = float((w_halved * f[len(x_whole):]).sum())
    abserr = abs(value - float((w_whole * f[:len(x_whole)]).sum()))
    if not math.isfinite(value) or abserr > 10.0 * rel_tol * max(abs(value), 1e-300):
        raise QuadratureFailure(
            f"P_omega quadrature reached error {abserr:.3e} for value {value:.3e} "
            f"at lams_src={lams_src}, lams_dst={lams_dst}, rate={rate!r}, "
            f"rel_tol={rel_tol:.1e}")
    return min(max(value, 0.0), 1.0)


def _cut_rates(t, cut, subset):
    lams_src = tuple(sorted(t.lambda_sr[i - 1] for i in cut.omega))
    lams_dst = tuple(sorted(t.lambda_rd[j - 1] for j in subset if j not in cut.omega))
    return lams_src, lams_dst


def _check_subset(t, subset):
    if any(i > t.n_relays for i in subset):
        raise ValueError(
            f"subset {subset} has indices beyond the {t.n_relays}-relay topology")


def cut_outage_analytic(t, q, cut):
    """P_omega for one cut of the query's subset, by Gauss-Legendre
    quadrature. A QuadratureFailure names the topology, subset and cut."""
    _check_subset(t, q.subset)
    if not cut.omega <= set(q.subset):
        raise IndexOutOfSubsetError(
            f"cut {sorted(cut.omega)} not within subset {sorted(q.subset)}")
    lams_src, lams_dst = _cut_rates(t, cut, q.subset)
    try:
        return _p_omega(lams_src, lams_dst, float(q.rate), float(q.quadrature_rel_tol))
    except QuadratureFailure as e:
        raise QuadratureFailure(
            f"topology {t.label!r}, subset {q.subset}, cut omega={sorted(cut.omega)}: "
            f"{e}") from e


def outage_upper_bound(t, q):
    """Union bound over all 2^k cuts, clamped to [0, 1]:
    direct_outage * sum_omega P_omega."""
    subset = q.subset
    total = 0.0
    for size in range(len(subset) + 1):
        for omega in itertools.combinations(subset, size):
            total += cut_outage_analytic(t, q, Cut(omega))
    return min(1.0, direct_outage(t.lambda_sd, q.rate) * total)


def outage_monte_carlo(t, q, rng):
    """Empirical outage over q.mc_samples independent realizations.

    Returns (estimate, binomial standard error).
    """
    if q.mc_samples < 100:
        raise ValueError(f"mc_samples must be >= 100, got {q.mc_samples}")
    _check_subset(t, q.subset)
    n = int(q.mc_samples)
    cap = approx_capacity(sample_channels(t, rng, n), q.subset)
    p = float(np.count_nonzero(cap < q.rate)) / n
    return p, math.sqrt(p * (1.0 - p) / n)


def _bound_floor(t, q):
    """Lower bound P_direct * (F_Y(tau) + F_X(tau)) on outage_upper_bound:
    its closed-form cuts omega = {} and omega = subset, from the same term
    values added in the same order, so rounding cannot lift the floor above
    the bound."""
    cuts = (Cut(()), Cut(q.subset)) if q.subset else (Cut(()),)
    total = 0.0
    for cut in cuts:
        total += _p_omega(*_cut_rates(t, cut, q.subset), float(q.rate),
                          float(q.quadrature_rel_tol))
    return min(1.0, direct_outage(t.lambda_sd, q.rate) * total)


def best_subnetwork(t, k, rate, method="analytic", rel_tol=DEFAULT_REL_TOL,
                    mc_samples=DEFAULT_MC_SAMPLES, rng=None):
    """Search for the outage-optimal k-relay subset.

    Ties keep the lexicographically smallest subset. With
    method="analytic" subsets are visited in ascending order of
    _bound_floor, and the search stops at the first floor strictly above
    the best bound so far: no later subset can reach it. With
    method="montecarlo" every subset is scanned in lexicographic order on
    one batch of draws shared by all of them (common random numbers), which
    preserves the capacity monotonicity of nested subsets in the empirical
    estimates.
    """
    if not 0 <= k <= t.n_relays:
        raise ValueError(f"k must be in [0, {t.n_relays}], got {k}")
    if method not in ("analytic", "montecarlo"):
        raise ValueError(f"unknown method {method!r}")
    subsets = itertools.combinations(range(1, t.n_relays + 1), k)
    best_subset, best_value = None, math.inf
    if method == "analytic":
        queries = [OutageQuery(rate=rate, subset=s, quadrature_rel_tol=rel_tol)
                   for s in subsets]
        for floor, q in sorted(((_bound_floor(t, q), q) for q in queries),
                               key=lambda fq: (fq[0], fq[1].subset)):
            if floor > best_value:
                break
            value = outage_upper_bound(t, q)
            if value < best_value or (value == best_value and q.subset < best_subset):
                best_subset, best_value = q.subset, value
        return best_subset, best_value

    n = int(mc_samples)
    draw_rng = rng if rng is not None else named_rng(0, "best_subnetwork")
    draws = sample_channels(t, draw_rng, n)
    for subset in subsets:
        cap = approx_capacity(draws, subset)
        value = float(np.count_nonzero(cap < rate)) / n
        if value < best_value:
            best_subset, best_value = subset, value
    return best_subset, best_value


def _snr_scale(snr_linear, k, normalization):
    if normalization == "per_node":
        return snr_linear
    if normalization == "total_power":
        # total budget split evenly over the k+1 transmitting nodes
        return snr_linear / (k + 1)
    raise ValueError(f"unknown normalization {normalization!r}")


def check_snr_grid(grid):
    """Raise ValueError unless the SNR grid is nonempty and strictly ascending."""
    if not grid or any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("snr_grid must be nonempty and strictly ascending")


def sweep_point(template, rate, gi, snr_db, k, normalization="per_node",
                method="analytic", rel_tol=DEFAULT_REL_TOL,
                mc_samples=DEFAULT_MC_SAMPLES, seed=0):
    """(subset, outage) of the best k-relay subnetwork at point gi of an
    SNR sweep: the template scaled to snr_db, with the Monte-Carlo draws
    taken from the (seed, "sweep", gi) stream so that every point can be
    computed on its own, in any order or process."""
    scaled = template.scaled(_snr_scale(10.0 ** (snr_db / 10.0), k, normalization))
    return best_subnetwork(
        scaled, k, rate, method=method, rel_tol=rel_tol, mc_samples=mc_samples,
        rng=named_rng(seed, "sweep", gi) if method == "montecarlo" else None)


def outage_sweep(template, k_values, rate, snr_grid_db, normalization="per_node",
                 method="analytic", rel_tol=DEFAULT_REL_TOL,
                 mc_samples=DEFAULT_MC_SAMPLES, seed=0):
    """Best-subnetwork outage across an SNR grid.

    The template topology holds the relative link gains; each grid point
    scales every mean link SNR by the reference SNR (per_node) or by
    reference/(k+1) (total_power). Rows come out as dicts with keys
    snr_db, k, subset, outage, method.
    """
    grid = [float(s) for s in snr_grid_db]
    check_snr_grid(grid)
    rows = []
    for gi, snr_db in enumerate(grid):
        for k in k_values:
            subset, value = sweep_point(
                template, rate, gi, snr_db, k, normalization=normalization,
                method=method, rel_tol=rel_tol, mc_samples=mc_samples, seed=seed)
            rows.append({
                "snr_db": snr_db,
                "k": k,
                "subset": subset,
                "outage": value,
                "method": method,
            })
    return rows


def required_snr_db(template, k, rate, target, normalization="per_node",
                    lo_db=-20.0, hi_db=60.0, iterations=40,
                    rel_tol=DEFAULT_REL_TOL):
    """Reference SNR (dB) at which the best k-relay analytic outage bound
    crosses the target, found by bisection (the bound is monotone
    decreasing in SNR)."""

    def level(snr_db):
        scaled = template.scaled(_snr_scale(10.0 ** (snr_db / 10.0), k, normalization))
        _, value = best_subnetwork(scaled, k, rate, method="analytic", rel_tol=rel_tol)
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
