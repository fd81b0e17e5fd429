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
an exhaustive scan over common random numbers (Monte-Carlo). The SNR that
a target outage requires is bisected on a yes/no test that walks the
analytic search's subset order only until it can answer. Both analytic
walks sum a subset's cuts only until its bound is known to be above the
level they compare it with.
"""
import functools
import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .rng import named_rng
from .topology import link_scales, unit_draws


class IndexOutOfSubsetError(ValueError):
    """Cut contains relay indices outside the active subset."""


class QuadratureFailure(ArithmeticError):
    """The quadrature error estimate exceeds the requested tolerance."""


DEFAULT_REL_TOL = 1e-8
DEFAULT_MC_SAMPLES = 100_000
# Rows of draws whose link capacities the Monte-Carlo estimators hold at once
_BLOCK_ROWS = 16_384
# Subsets whose packed outage bits _outage_counts holds at once
_CHUNK_SUBSETS = 32
# Every rate is below MAX_RATE: exactly the floats whose 2.0 ** rate is finite
MAX_RATE = 1024.0


def rate_threshold(rate, positive=False):
    """2^rate - 1, the SNR at which a link carries rate: the link rule. A
    ValueError unless rate is finite, >= 0 (> 0 if positive) and < MAX_RATE."""
    if not (0 < rate < MAX_RATE or rate == 0 and not positive):
        raise ValueError(f"rate must be finite and {'>' if positive else '>='} 0 "
                         f"and < {MAX_RATE:g}, got {rate!r}")
    return 2.0 ** rate - 1.0


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
        rate_threshold(self.rate, positive=True)
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


# Set bits of each byte value: np.bitwise_count needs numpy >= 2.0
_POPCOUNT = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)


def _cut_plans(subsets, n_relays):
    """The bit-table plan of _outage_counts for subsets of one size k.

    Returns (sources, plans). A source is a tuple of rows of the
    log2(1 + x) block whose sum is compared with the rate: (l,) for one
    link, (i, N + j) for the pair h_i + g_j. plans holds, for each of the
    2^k cuts, a (terms, subsets) array of source numbers whose AND is the
    cut's below-rate bits. Source 0 is the direct link; it also stands in
    for the linkless cut of k = 0, whose relayed capacity is 0.
    """
    sources = {(0,): 0}
    plans = []
    for mask in range(1 << len(subsets[0])):
        terms = []
        for subset in subsets:
            src = [i for p, i in enumerate(subset) if mask >> p & 1]
            dst = [n_relays + j for p, j in enumerate(subset) if not mask >> p & 1]
            cut = ([(i, j) for i in src for j in dst] if src and dst
                   else [(link,) for link in src + dst] or [(0,)])
            terms.append([sources.setdefault(term, len(sources)) for term in cut])
        plans.append(np.array(terms).T)
    return list(sources), plans


def _outage_counts(unit, scales, subsets, rate):
    """For each subset, the number of rows of the (n, 2N+1) draws unit *
    scales (unit exponentials times link_scales) whose approx_capacity is
    below rate. The subsets, one or more, share one size.

    A row is in outage exactly when its direct link and at least one cut are
    below rate. Rounding is monotone, so fl(max h_i + max g_j) equals
    max fl(h_i + g_j): a cut with links on both sides is below rate exactly
    when every pair h_i + g_j across it is, and a one-sided cut when each of
    its links is. Each block of rows is scaled as it is copied into one
    buffer reused by every block, takes log2(1 + x) there and packs one bit
    row per source of _cut_plans (2 KB per row); only the links up to the
    last one a source reads are scaled and logged, at k = 0 the direct
    link alone. A subset's outage bits are the OR over its cuts of the AND
    of their rows, ANDed with the direct row, and are counted through
    _POPCOUNT, _CHUNK_SUBSETS subsets at a time. Memory beyond unit is one
    float block, the packed rows (about 180 KB for all pairs at N = 10) and
    a few (_CHUNK_SUBSETS, 2 KB) arrays.
    """
    n_relays = (unit.shape[1] - 1) // 2
    sources, plans = _cut_plans(subsets, n_relays)
    links = max(map(max, sources)) + 1
    rows = min(len(unit), _BLOCK_ROWS)
    buf = np.empty((links, rows))
    pair_sum = np.empty(rows)
    below = np.empty(rows, dtype=bool)
    bits = np.empty((len(sources), (rows + 7) // 8), dtype=np.uint8)
    counts = np.zeros(len(subsets), dtype=np.int64)
    for start in range(0, len(unit), _BLOCK_ROWS):
        block = unit[start:start + _BLOCK_ROWS]
        n = len(block)
        caps = buf[:, :n]
        np.multiply(block[:, :links].T, scales[:links, None], out=caps)
        np.log2(np.add(caps, 1.0, out=caps), out=caps)
        # packbits zero-fills the tail of each row's last byte
        table = bits[:, :(n + 7) // 8]
        for row, source in enumerate(sources):
            value = caps[source[0]] if len(source) == 1 else np.add(
                caps[source[0]], caps[source[1]], out=pair_sum[:n])
            table[row] = np.packbits(np.less(value, rate, out=below[:n]))
        for lo in range(0, len(subsets), _CHUNK_SUBSETS):
            hi = lo + _CHUNK_SUBSETS
            hit = np.zeros((len(subsets[lo:hi]), table.shape[1]), dtype=np.uint8)
            for plan in plans:
                cut = table[plan[0, lo:hi]]
                for terms in plan[1:, lo:hi]:
                    cut &= table[terms]
                hit |= cut
            hit &= table[0]
            counts[lo:hi] += _POPCOUNT[hit].sum(axis=1, dtype=np.int64)
    return counts.tolist()


def direct_outage(lambda_sd, rate):
    """Closed form 1 - exp(-lambda * (2^R - 1)) for the direct link."""
    if not (lambda_sd > 0 and math.isfinite(lambda_sd)):
        raise ValueError(f"lambda_sd must be finite and > 0, got {lambda_sd}")
    return -math.expm1(-lambda_sd * rate_threshold(rate, positive=True))


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
    mid = (0.5 * edges[:-1] + 0.5 * edges[1:])[:, None]
    return (mid + half * _GL_NODES).ravel(), (half * _GL_WEIGHTS).ravel()


def _panel_rule(lams_src, lams_dst, rate, tau, points):
    """(value, error estimate) of the integral of P_omega on the panels
    that the points inside (0, tau) cut [0, tau] into: the Gauss-Legendre
    rule on the halved panels, and its difference from the same rule on
    the whole panels."""
    edges = np.array([0.0, *sorted(p for p in points if 0.0 < p < tau), tau])
    halved = np.empty(2 * len(edges) - 1)
    halved[::2] = edges
    halved[1::2] = 0.5 * edges[:-1] + 0.5 * edges[1:]
    x_whole, w_whole = _panel_nodes(edges)
    x_halved, w_halved = _panel_nodes(halved)
    x = np.concatenate((x_whole, x_halved))
    # lambda * x overflows to inf near the largest tau: exp(-inf) = 0 is the limit
    with np.errstate(over="ignore"):
        f = _max_pdf_at(lams_src, x) * _max_cdf_at(lams_dst, 2.0 ** rate / (1.0 + x) - 1.0)
    value = float((w_halved * f[len(x_whole):]).sum())
    return value, abs(value - float((w_whole * f[:len(x_whole)]).sum()))


def _p_omega(lams_src, lams_dst, rate, rel_tol):
    """Pr{log2(1+X) + log2(1+Y) < R} for X = max Exp(lams_src), Y = max
    Exp(lams_dst); degenerate sides reduce to a single CDF evaluation.

    Interior breakpoints at the exponential scales keep the rule
    (_panel_rule) from overlooking a boundary-concentrated density at
    large lambda. Where its error estimate fails, the rule is rerun with
    breakpoints where the integrand turns on wide SNR spreads: where each
    destination CDF rises, at x = 2^R / (1 + s / lambda) - 1 for s in
    {0.1, 1, 10} (F_Y(2^R/(1+x) - 1) climbs over a width of about
    (1 + tau) / lambda just below x = tau, which breakpoints on the scale
    of y miss), and where each source density has fallen by e^-10 and
    e^-100, at x = 10 / lambda and 100 / lambda. A value that passes on
    the first breakpoints comes from them alone.
    """
    tau = rate_threshold(rate)
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

    scales = {tau * s for s in (1e-9, 1e-6, 1e-3, 1e-2, 0.1, 0.5)}
    scales |= {1.0 / lam for lam in lams_src + lams_dst}
    turns = {2.0 ** rate / (1.0 + s / lam) - 1.0
             for lam in lams_dst for s in (0.1, 1.0, 10.0)}
    turns |= {s / lam for lam in lams_src for s in (10.0, 100.0)}
    for points in (scales, scales | turns):
        value, abserr = _panel_rule(lams_src, lams_dst, rate, tau, points)
        if math.isfinite(value) and abserr <= 10.0 * rel_tol * max(abs(value), 1e-300):
            return min(max(value, 0.0), 1.0)
    raise QuadratureFailure(
        f"P_omega quadrature reached error {abserr:.3e} for value {value:.3e} "
        f"at lams_src={lams_src}, lams_dst={lams_dst}, rate={rate!r}, "
        f"rel_tol={rel_tol:.1e}")


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
    return _bound_unless_above(t, q, math.inf)


def _bound_unless_above(t, q, level):
    """outage_upper_bound(t, q) when it is <= level, else a value above
    level, found as soon as the cuts summed so far show it.

    The cuts are summed in order of size, lexicographically within a size,
    so the closed-form cut omega = subset comes last. After each term,
    min(1, P_direct * (partial sum + that last term)) is a lower bound on
    the final bound, since every term is >= 0 and rounding is monotone;
    the sum stops once it is above level. For k = 0 the one cut is the
    last.
    """
    *cuts, last = (Cut(omega) for size in range(len(q.subset) + 1)
                   for omega in itertools.combinations(q.subset, size))
    last_term = cut_outage_analytic(t, q, last)
    p_direct = direct_outage(t.lambda_sd, q.rate)
    total = 0.0
    for cut in cuts:
        total += cut_outage_analytic(t, q, cut)
        if min(1.0, p_direct * (total + last_term)) > level:
            break
    return min(1.0, p_direct * (total + last_term))


def outage_monte_carlo(t, q, rng):
    """Empirical outage over q.mc_samples independent realizations.

    Returns (estimate, binomial standard error).
    """
    if q.mc_samples < 100:
        raise ValueError(f"mc_samples must be >= 100, got {q.mc_samples}")
    _check_subset(t, q.subset)
    n = int(q.mc_samples)
    _, p = _least_outage(t, [q.subset], q.rate, unit_draws(t, rng, n))
    return p, math.sqrt(p * (1.0 - p) / n)


def best_subnetwork(t, k, rate, method="analytic", rel_tol=DEFAULT_REL_TOL,
                    mc_samples=DEFAULT_MC_SAMPLES, rng=None):
    """Search for the outage-optimal k-relay subset.

    Ties keep the lexicographically smallest subset. With
    method="analytic" subsets are visited in ascending order of their
    floors (_floor_order), and the search stops at the first floor
    strictly above the best bound so far: no later subset can reach it.
    A subset's bound is summed only until it is above the best so far
    (_bound_unless_above), so ties are still summed in full. With
    method="montecarlo" every subset is counted on one batch of draws
    shared by all of them (common random numbers), which preserves the
    capacity monotonicity of nested subsets in the empirical estimates. The
    counts come from the packed below-rate bit tables of _outage_counts and
    equal those of one approx_capacity call per subset on
    sample_channels(t, rng, mc_samples); the least wins, ties keeping
    lexicographic order.
    """
    subsets = _subsets(t, k)
    if method not in ("analytic", "montecarlo"):
        raise ValueError(f"unknown method {method!r}")
    if method == "montecarlo":
        OutageQuery(rate=rate, mc_samples=mc_samples)
        draw_rng = rng if rng is not None else named_rng(0, "best_subnetwork")
        return _least_outage(t, subsets, rate, unit_draws(t, draw_rng, mc_samples))
    best_subset, best_value = None, math.inf
    for floor, q in _floor_order(t, subsets, rate, rel_tol):
        if floor > best_value:
            break
        value = _bound_unless_above(t, q, best_value)
        if value < best_value or (value == best_value and q.subset < best_subset):
            best_subset, best_value = q.subset, value
    return best_subset, best_value


def _subsets(t, k):
    if not 0 <= k <= t.n_relays:
        raise ValueError(f"k must be in [0, {t.n_relays}], got {k}")
    return list(itertools.combinations(range(1, t.n_relays + 1), k))


def _floor_order(t, subsets, rate, rel_tol):
    """(floor, query) pairs of the subsets in ascending order of floor,
    ties in lexicographic order: the order in which the analytic searches
    visit them. A query is built only when the walk reaches its subset;
    the checks every query makes come first.

    A subset's floor is P_direct * (F_Y(tau) + F_X(tau)), the terms of
    its bound's two closed-form cuts omega = {} and omega = subset added
    in the bound's order, so it never exceeds the bound. Each CDF is a
    product of per-relay factors 1 - exp(-lambda * tau), computed once per
    relay and side and multiplied in ascending-lambda order as _max_cdf
    does, so the floor equals the sum of those two cut terms bit for bit
    (the oracle tests/oracles.bound_floor).
    """
    OutageQuery(rate=rate, quadrature_rel_tol=rel_tol)
    tau = rate_threshold(float(rate))
    members = np.array(subsets, dtype=np.intp) - 1
    in_subset = np.zeros((len(subsets), t.n_relays), dtype=bool)
    in_subset[np.arange(len(subsets))[:, None], members] = True
    # F_Y, the cut omega = {}, comes first; at k = 0 it is the only cut
    total = np.zeros(len(subsets))
    for lams in (t.lambda_rd, t.lambda_sr) if members.size else (t.lambda_rd,):
        cdf = np.ones(len(subsets))
        for i in sorted(range(t.n_relays), key=lams.__getitem__):
            np.multiply(cdf, -math.expm1(-lams[i] * tau), out=cdf, where=in_subset[:, i])
        total += cdf
    floors = np.minimum(1.0, direct_outage(t.lambda_sd, rate) * total)
    for floor, subset in sorted(zip(floors.tolist(), subsets)):
        yield floor, OutageQuery(rate=rate, subset=subset, quadrature_rel_tol=rel_tol)


def _reaches(t, k, rate, level, rel_tol):
    """Whether some k-subset's outage_upper_bound is <= level, that is
    best_subnetwork(t, k, rate, rel_tol=rel_tol)[1] <= level. Subsets are
    visited in floor order; the walk stops at the first bound <= level, or
    at the first floor > level, since no later bound can be below it. Each
    bound is summed only until it is above level (_bound_unless_above)."""
    for floor, q in _floor_order(t, _subsets(t, k), rate, rel_tol):
        if floor > level:
            return False
        if _bound_unless_above(t, q, level) <= level:
            return True
    return False


def _least_outage(t, subsets, rate, unit):
    """The least-outage subset and its outage on the unit draws scaled to t."""
    counts = _outage_counts(unit, link_scales(t), subsets, rate)
    best = counts.index(min(counts))
    return subsets[best], counts[best] / len(unit)


def _snr_scale(snr_linear, k, normalization):
    if normalization == "per_node":
        return snr_linear
    if normalization == "total_power":
        # total budget split evenly over the k+1 transmitting nodes
        return snr_linear / (k + 1)
    raise ValueError(f"unknown normalization {normalization!r}")


def check_snr_grid(grid):
    """Raise ValueError unless the SNR grid is nonempty, finite and strictly
    ascending."""
    if not all(map(math.isfinite, grid)):
        raise ValueError(f"snr_grid values must be finite, got {list(grid)}")
    if not grid or any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("snr_grid must be nonempty and strictly ascending")


def sweep_point(template, rate, gi, snr_db, k_values, normalization="per_node",
                method="analytic", rel_tol=DEFAULT_REL_TOL,
                mc_samples=DEFAULT_MC_SAMPLES, seed=0):
    """[best_subnetwork(scaled_k, k, ...) for k in k_values] at point gi of
    an SNR sweep, scaled_k being the template scaled to snr_db for k. The
    Monte-Carlo draws come from the (seed, "sweep", gi) stream, so that
    every point can be computed on its own, in any order or process; they
    are drawn once and shared by every k, which scales them to its links."""
    snr = 10.0 ** (snr_db / 10.0)
    scaled = [template.scaled(_snr_scale(snr, k, normalization)) for k in k_values]
    if method != "montecarlo":
        return [best_subnetwork(t, k, rate, method=method, rel_tol=rel_tol)
                for t, k in zip(scaled, k_values)]
    OutageQuery(rate=rate, mc_samples=mc_samples)
    searches = [(t, _subsets(t, k)) for t, k in zip(scaled, k_values)]
    unit = unit_draws(template, named_rng(seed, "sweep", gi), mc_samples)
    return [_least_outage(t, subsets, rate, unit) for t, subsets in searches]


def outage_sweep(template, k_values, rate, snr_grid_db, normalization="per_node",
                 method="analytic", rel_tol=DEFAULT_REL_TOL,
                 mc_samples=DEFAULT_MC_SAMPLES, seed=0):
    """Best-subnetwork outage across an SNR grid.

    The template topology holds the relative link gains; each grid point
    scales every mean link SNR by the reference SNR (per_node) or by
    reference/(k+1) (total_power), in one sweep_point call per grid point.
    Rows come out as dicts with keys snr_db, k, subset, outage, method.
    """
    grid = [float(s) for s in snr_grid_db]
    check_snr_grid(grid)
    point = functools.partial(sweep_point, template, rate, k_values=k_values,
                              normalization=normalization, method=method,
                              rel_tol=rel_tol, mc_samples=mc_samples, seed=seed)
    return [{"snr_db": snr_db, "k": k, "subset": subset, "outage": value,
             "method": method}
            for gi, snr_db in enumerate(grid)
            for k, (subset, value) in zip(k_values, point(gi, snr_db))]


def required_snr_db(template, k, rate, target, normalization="per_node",
                    lo_db=-20.0, hi_db=60.0, iterations=40,
                    rel_tol=DEFAULT_REL_TOL):
    """Reference SNR (dB) at which the best k-relay analytic outage bound
    crosses the target, found by bisection (the bound is monotone
    decreasing in SNR).

    Each step asks only whether the least k-subset bound is at or below
    the target (_reaches), which equals comparing best_subnetwork's value,
    so the result is that of a bisection on full searches. Raises
    ValueError unless iterations is an integer >= 0, lo_db < hi_db are
    finite and 0 < target < 1, or when the bound is already below the
    target at lo_db or above it at hi_db.
    """
    if isinstance(iterations, bool) or not isinstance(iterations, numbers.Integral) \
            or iterations < 0:
        raise ValueError(f"iterations must be an integer >= 0, got {iterations!r}")
    if not (math.isfinite(lo_db) and math.isfinite(hi_db) and lo_db < hi_db):
        raise ValueError(f"lo_db and hi_db must be finite with lo_db < hi_db, "
                         f"got lo_db={lo_db!r}, hi_db={hi_db!r}")
    if not 0.0 < target < 1.0:
        raise ValueError(f"target must be in (0, 1), got {target!r}")

    def reaches(snr_db, level):
        scaled = template.scaled(_snr_scale(10.0 ** (snr_db / 10.0), k, normalization))
        return _reaches(scaled, k, rate, level, rel_tol)

    # least bound < target, as least bound <= the float just below target
    if reaches(lo_db, math.nextafter(target, -math.inf)):
        raise ValueError(f"target {target} already met at lo_db={lo_db}")
    if not reaches(hi_db, target):
        raise ValueError(f"target {target} not reached at hi_db={hi_db}")
    lo, hi = lo_db, hi_db
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        if reaches(mid, target):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)
