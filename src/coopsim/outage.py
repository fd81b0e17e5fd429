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
from dataclasses import dataclass

import numpy as np

from .rng import named_rng
from .topology import check_int, link_scales, unit_draws


class IndexOutOfSubsetError(ValueError):
    """Cut contains relay indices outside the active subset."""


class QuadratureFailure(ArithmeticError):
    """The quadrature error estimate exceeds the tolerance REL_TOL."""


REL_TOL = 1e-8  # relative tolerance of the P_omega quadrature, read at each call
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
        object.__setattr__(self, "omega", frozenset(check_int(i, "omega") for i in omega))


def _relay_subset(subset, n_relays=math.inf):
    """subset as a tuple of ints; a ValueError naming subset unless its
    indices are distinct integers (check_int) in 1..n_relays."""
    subset = tuple([check_int(i, "subset") for i in subset])
    if len(set(subset)) != len(subset):
        raise ValueError(f"subset {subset} has repeated indices")
    if subset and not (1 <= min(subset) and max(subset) <= n_relays):
        raise ValueError(f"subset {subset} has indices outside 1..{n_relays}")
    return subset


@dataclass(frozen=True)
class OutageQuery:
    """The checked rate, relay subset and Monte-Carlo draws of a query."""
    rate: float
    subset: tuple = ()
    mc_samples: int = DEFAULT_MC_SAMPLES

    def __post_init__(self):
        object.__setattr__(self, "subset", _relay_subset(self.subset))
        rate_threshold(self.rate, positive=True)
        object.__setattr__(self, "mc_samples", check_int(self.mc_samples, "mc_samples", 1))


def approx_capacity(c, subset):
    """Cut-set capacity approximation of the relay subset over the last
    axis of a draw array c (see topology.sample_channels): the min over
    all 2^k cuts of the cut value in the module docstring. Returns an
    array of c's shape without its last axis, a float for one draw.
    """
    c = np.asarray(c, dtype=float)
    n_relays = (c.shape[-1] - 1) // 2
    subset = _relay_subset(subset, n_relays)
    # log2(1 + x) of the direct link, the subset's h and its g links: one
    # array each, over c's other axes in reverse order (hence .T below)
    caps = c.T[[0, *subset, *(n_relays + i for i in subset)]]
    np.log2(np.add(caps, 1.0, out=caps), out=caps)
    if c.ndim == 1:  # Python floats: cheaper scalar arithmetic
        return _cut_set(caps.tolist(), _min, _max)
    return _cut_set(list(caps), np.minimum, np.maximum).T


def _min(a, b):
    """np.minimum on two floats: NaN if either is NaN."""
    return a if a <= b or a != a else b


def _max(a, b):
    """np.maximum on two floats: NaN if either is NaN."""
    return a if a >= b or a != a else b


@functools.lru_cache
def _cut_sides(k):
    """For each of the 2^k cuts of k relays, the positions of its omega
    side and of its complement."""
    return tuple((tuple(p for p in range(k) if mask >> p & 1),
                  tuple(p for p in range(k) if not mask >> p & 1))
                 for mask in range(1 << k))


def _cut_set(caps, minimum, maximum):
    """The min over cuts of max(direct, relayed), taken as max(direct, min
    over cuts of relayed), for caps = [direct, h links, g links] of one
    subset, floats or arrays; minimum and maximum act on them as np.minimum
    and np.maximum do."""
    direct, *links = caps
    k = len(links) // 2
    src, dst = links[:k], links[k:]
    relayed = math.inf
    for omega, rest in _cut_sides(k):
        sides = ([src[p] for p in omega], [dst[p] for p in rest])
        relayed = minimum(relayed, sum(
            (functools.reduce(maximum, side) for side in sides if side), 0.0))
    return maximum(direct, relayed)


# Set bits of each byte value: np.bitwise_count needs numpy >= 2.0
_POPCOUNT = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)


@functools.lru_cache
def _cut_plans(subsets, n_relays):
    """The bit-table plan of _outage_counts for a tuple of subsets of one
    size k, built once per (subsets, n_relays) and then shared: its arrays
    are read-only.

    Returns (sources, plans). A source is a tuple of rows of the
    log2(1 + x) block whose sum is compared with the rate: (l,) for one
    link, (i, N + j) for the pair h_i + g_j. plans holds, for each of the
    2^k cuts, a (terms, subsets) array of source numbers whose AND is the
    cut's below-rate bits. Source 0 is the direct link; it also stands in
    for the linkless cut of k = 0, whose relayed capacity is 0.
    """
    sources = {(0,): 0}
    plans = []
    for omega, rest in _cut_sides(len(subsets[0])):
        terms = []
        for subset in subsets:
            src = [subset[p] for p in omega]
            dst = [n_relays + subset[p] for p in rest]
            cut = ([(i, j) for i in src for j in dst] if src and dst
                   else [(link,) for link in src + dst] or [(0,)])
            terms.append([sources.setdefault(term, len(sources)) for term in cut])
        plan = np.array(terms).T
        plan.setflags(write=False)
        plans.append(plan)
    return tuple(sources), tuple(plans)


def _outage_counts(rng, n, searches, rate):
    """For each search (t, subsets), the number of the n rows of
    sample_channels(t, rng, n) whose approx_capacity is below rate, for
    each subset, every search scaling the same n unit_draws rows to its own
    t. A search's subsets share one size, and the topologies one relay
    count.

    The rows are drawn block by block, with unit_draws(t, rng, rows) for
    up to _BLOCK_ROWS rows: numpy's Generator fills an (n, L) request row
    by row in one pass, so the blocks are the rows of the one (n, 2N+1)
    draw, exactly. Each block is counted for every search before the next
    is drawn.

    A row is in outage exactly when its direct link and at least one cut are
    below rate. Rounding is monotone, so fl(max h_i + max g_j) equals
    max fl(h_i + g_j): a cut with links on both sides is below rate exactly
    when every pair h_i + g_j across it is, and a one-sided cut when each of
    its links is. For each search, the block is scaled by link_scales(t)
    as it is copied into one buffer that every search and block reuses,
    takes log2(1 + x) there and packs one bit row per source of _cut_plans
    (2 KB per row); only the links up to the last one a source reads are
    scaled and logged, at k = 0 the direct link alone. A subset's outage
    bits are the OR over its cuts of the AND of their rows, ANDed with the
    direct row, and are counted through _POPCOUNT, _CHUNK_SUBSETS subsets
    at a time. Memory, whatever n is, is one block of draws, one float
    buffer of its size, the packed rows (about 180 KB for all pairs at
    N = 10) and a few (_CHUNK_SUBSETS, 2 KB) arrays.
    """
    if not searches:
        return []
    scales = [link_scales(t) for t, _ in searches]
    plans = [_cut_plans(tuple(subsets), t.n_relays) for t, subsets in searches]
    links = [max(map(max, sources)) + 1 for sources, _ in plans]
    rows = min(n, _BLOCK_ROWS)
    buf = np.empty((max(links), rows))
    pair_sum = np.empty(rows)
    below = np.empty(rows, dtype=bool)
    bits = np.empty((max(len(sources) for sources, _ in plans), (rows + 7) // 8),
                    dtype=np.uint8)
    counts = [np.zeros(len(subsets), dtype=np.int64) for _, subsets in searches]
    for start in range(0, n, _BLOCK_ROWS):
        block = unit_draws(searches[0][0], rng, min(_BLOCK_ROWS, n - start))
        m = len(block)
        for (_, subsets), scale, (sources, cut_plans), used, count in zip(
                searches, scales, plans, links, counts):
            caps = buf[:used, :m]
            np.multiply(block[:, :used].T, scale[:used, None], out=caps)
            np.log2(np.add(caps, 1.0, out=caps), out=caps)
            # packbits zero-fills the tail of each row's last byte
            table = bits[:len(sources), :(m + 7) // 8]
            for row, source in enumerate(sources):
                value = caps[source[0]] if len(source) == 1 else np.add(
                    caps[source[0]], caps[source[1]], out=pair_sum[:m])
                table[row] = np.packbits(np.less(value, rate, out=below[:m]))
            for lo in range(0, len(subsets), _CHUNK_SUBSETS):
                hi = lo + _CHUNK_SUBSETS
                hit = np.zeros((len(subsets[lo:hi]), table.shape[1]), dtype=np.uint8)
                for plan in cut_plans:
                    cut = table[plan[0, lo:hi]]
                    for terms in plan[1:, lo:hi]:
                        cut &= table[terms]
                    hit |= cut
                hit &= table[0]
                count[lo:hi] += _POPCOUNT[hit].sum(axis=1, dtype=np.int64)
        del block  # so that two blocks are never held at once
    return [count.tolist() for count in counts]


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
    """_max_cdf at every point of the array x; for one lambda its one
    factor, with no product."""
    x = np.maximum(x, 0.0)
    if len(lams) == 1:
        return -np.expm1(-lams[0] * x)
    return np.prod(-np.expm1(-np.asarray(lams)[:, None] * x), axis=0)


def _max_pdf_at(lams, x):
    """Density of the max of independent exponentials at every point of
    the array x >= 0: the sum over i of f_i times the CDFs F_k, k != i, of
    the others, taken from prefix and suffix products. One lambda is its
    own density, with no products and no sum."""
    if len(lams) == 1:
        return lams[0] * np.exp(-lams[0] * x)
    lams = np.asarray(lams)[:, None]
    z = -lams * x
    terms = lams * np.exp(z)
    cdfs = -np.expm1(z)
    m = len(lams)
    before, after = cdfs[0], cdfs[m - 1]
    for i in range(1, m):
        terms[i] *= before
        if i < m - 1:
            before = before * cdfs[i]
    for i in range(m - 2, -1, -1):
        terms[i] *= after
        if i > 0:
            after = after * cdfs[i]
    return terms.sum(axis=0)


def _panel_rule(lams_src, lams_dst, rate, tau, points):
    """(value, error estimate) of the integral of P_omega on the panels
    that the points inside (0, tau) cut [0, tau] into: the Gauss-Legendre
    rule on the halved panels, and its difference from the same rule on
    the whole panels.

    One edge table holds the whole panels [e_i, e_i+1], then the halves
    [e_i, m_i], [m_i, e_i+1] in panel order, m_i = 0.5 e_i + 0.5 e_i+1,
    and gives one node array and one weighted integrand for both rules."""
    edges = np.array([0.0, *sorted(p for p in points if 0.0 < p < tau), tau])
    n = len(edges) - 1
    lo, hi = np.empty((2, 3 * n))
    lo[:n], hi[:n] = edges[:-1], edges[1:]
    lo[n::2], hi[n + 1::2] = lo[:n], hi[:n]
    hi[n::2] = lo[n + 1::2] = 0.5 * lo[:n] + 0.5 * hi[:n]
    half = (0.5 * (hi - lo))[:, None]
    x = ((0.5 * lo + 0.5 * hi)[:, None] + half * _GL_NODES).ravel()
    # lambda * x overflows to inf near the largest tau: exp(-inf) = 0 is the limit
    with np.errstate(over="ignore"):
        f = _max_pdf_at(lams_src, x) * _max_cdf_at(lams_dst, 2.0 ** rate / (1.0 + x) - 1.0)
    wf = (half * _GL_WEIGHTS).ravel() * f
    whole = n * len(_GL_NODES)
    value = float(wf[whole:].sum())
    return value, abs(value - float(wf[:whole].sum()))


def _p_omega(lams_src, lams_dst, rate):
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
    the first breakpoints comes from them alone. A pass also needs the
    value within 10 * REL_TOL of the bounds F_X(h) F_Y(h) <= P <=
    min(F_X(tau), F_Y(tau)), h = sqrt(1 + tau) - 1: at high rates both
    rules can miss the whole source density inside one panel and agree.
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
    # X <= h and Y <= h put (1+X)(1+Y) at or below 1 + tau: P >= F_X(h) F_Y(h)
    h = math.sqrt(1.0 + tau) - 1.0
    floor = _max_cdf(lams_src, h) * _max_cdf(lams_dst, h)
    for points in (scales, scales | turns):
        value, abserr = _panel_rule(lams_src, lams_dst, rate, tau, points)
        if (math.isfinite(value) and abserr <= 10.0 * REL_TOL * max(abs(value), 1e-300)
                and floor * (1.0 - 10.0 * REL_TOL) <= value
                <= ceiling * (1.0 + 10.0 * REL_TOL)):
            return min(max(value, 0.0), 1.0)
    raise QuadratureFailure(
        f"P_omega quadrature reached error {abserr:.3e} for value {value:.3e} "
        f"(bounds {floor:.3e} to {ceiling:.3e}) at lams_src={lams_src}, "
        f"lams_dst={lams_dst}, rate={rate!r}, rel_tol={REL_TOL:.1e}")


def _cut_term(t, subset, omega, rate):
    """P_omega for the cut omega of the relay subset, lambdas in ascending
    order on each side. A QuadratureFailure names the topology, subset and
    cut."""
    lams_src = tuple(sorted(t.lambda_sr[i - 1] for i in omega))
    lams_dst = tuple(sorted(t.lambda_rd[j - 1] for j in subset if j not in omega))
    try:
        return _p_omega(lams_src, lams_dst, rate)
    except QuadratureFailure as e:
        raise QuadratureFailure(
            f"topology {t.label!r}, subset {subset}, cut omega={sorted(omega)}: "
            f"{e}") from e


def cut_outage_analytic(t, q, cut):
    """P_omega for one cut of the query's subset, by Gauss-Legendre
    quadrature. A QuadratureFailure names the topology, subset and cut."""
    _relay_subset(q.subset, t.n_relays)
    if not cut.omega <= set(q.subset):
        raise IndexOutOfSubsetError(
            f"cut {sorted(cut.omega)} not within subset {sorted(q.subset)}")
    return _cut_term(t, q.subset, cut.omega, float(q.rate))


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
    last. The query's subset is checked once, and each cut's lambdas are
    gathered only when the sum reaches it.
    """
    subset = _relay_subset(q.subset, t.n_relays)
    rate = float(q.rate)
    last_term = _cut_term(t, subset, subset, rate)
    p_direct = direct_outage(t.lambda_sd, q.rate)
    total = 0.0
    for omega in (omega for size in range(len(subset))
                  for omega in itertools.combinations(subset, size)):
        total += _cut_term(t, subset, omega, rate)
        if min(1.0, p_direct * (total + last_term)) > level:
            break
    return min(1.0, p_direct * (total + last_term))


def outage_monte_carlo(t, q, rng):
    """Empirical outage over q.mc_samples independent realizations.

    Returns (estimate, binomial standard error).
    """
    if q.mc_samples < 100:
        raise ValueError(f"mc_samples must be >= 100, got {q.mc_samples}")
    _relay_subset(q.subset, t.n_relays)
    [(_, p)] = _least_outage([(t, [q.subset])], q.rate, rng, q.mc_samples)
    return p, math.sqrt(p * (1.0 - p) / q.mc_samples)


def best_subnetwork(t, k, rate, method="analytic", mc_samples=DEFAULT_MC_SAMPLES,
                    rng=None):
    """Search for the outage-optimal k-relay subset.

    Ties keep the lexicographically smallest subset. With
    method="analytic" subsets are visited in ascending order of their
    floors (_floor_order), and the search stops at the first floor
    strictly above the best bound so far: no later subset can reach it.
    A subset's bound is summed only until it is above the best so far
    (_bound_unless_above), so ties are still summed in full. With
    method="montecarlo" every subset is counted on the same mc_samples
    draws (common random numbers), which preserves the capacity
    monotonicity of nested subsets in the empirical estimates. The draws
    are made and counted one block of _BLOCK_ROWS rows at a time, so memory
    does not grow with mc_samples (_outage_counts). The counts come from
    packed below-rate bit tables and equal those of one approx_capacity
    call per subset on sample_channels(t, rng, mc_samples); the least
    wins, ties keeping lexicographic order. mc_samples must be an integer
    >= 1.
    """
    subsets = _subsets(t, k)
    if method not in ("analytic", "montecarlo"):
        raise ValueError(f"unknown method {method!r}")
    if method == "montecarlo":
        n = OutageQuery(rate=rate, mc_samples=mc_samples).mc_samples
        draw_rng = rng if rng is not None else named_rng(0, "best_subnetwork")
        [best] = _least_outage([(t, subsets)], rate, draw_rng, n)
        return best
    best_subset, best_value = None, math.inf
    for floor, q in _floor_order(t, subsets, rate):
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


def _floor_order(t, subsets, rate):
    """(floor, query) pairs of the subsets, given in lexicographic order as
    _subsets gives them, in ascending order of floor, ties keeping their
    order: the order in which the analytic searches visit them. A query is
    built only when the walk reaches its subset; the rate check that every
    query makes comes first.

    A subset's floor is P_direct * (F_Y(tau) + F_X(tau)), the terms of
    its bound's two closed-form cuts omega = {} and omega = subset added
    in the bound's order, so it never exceeds the bound. Each CDF is a
    product of per-relay factors 1 - exp(-lambda * tau), computed once per
    relay and side in ascending-lambda order, gathered through a table of
    each subset's members in that order (_member_ranks, cached: scaling a
    topology keeps its order) and multiplied column by column as _max_cdf
    does, so the floor equals the sum of those two cut terms bit for bit
    (the oracle tests/oracles.bound_floor).
    """
    tau = rate_threshold(rate, positive=True)
    subsets = tuple(subsets)
    # F_Y, the cut omega = {}, comes first; at k = 0 it is the only cut
    total = np.zeros(len(subsets))
    for lams in (t.lambda_rd, t.lambda_sr) if subsets[0] else (t.lambda_rd,):
        order = tuple(sorted(range(t.n_relays), key=lams.__getitem__))
        factors = np.array([-math.expm1(-lams[i] * tau) for i in order])
        cdf = np.ones(len(subsets))
        for column in factors[_member_ranks(subsets, order)].T:
            cdf *= column
        total += cdf
    floors = np.minimum(1.0, direct_outage(t.lambda_sd, rate) * total).tolist()
    for i in sorted(range(len(subsets)), key=floors.__getitem__):
        yield floors[i], OutageQuery(rate=rate, subset=subsets[i])


@functools.lru_cache
def _member_ranks(subsets, order):
    """For each subset, the positions in order (0-based relay indices) of
    its members, ascending: one row per subset, built once per subsets and
    order and then shared, read-only."""
    rank = {relay: r for r, relay in enumerate(order)}
    table = np.array([sorted(rank[i - 1] for i in subset) for subset in subsets],
                     dtype=np.intp)
    table.setflags(write=False)
    return table


def _reaches(t, k, rate, level):
    """Whether some k-subset's outage_upper_bound is <= level, that is
    best_subnetwork(t, k, rate)[1] <= level. Subsets are
    visited in floor order; the walk stops at the first bound <= level, or
    at the first floor > level, since no later bound can be below it. Each
    bound is summed only until it is above level (_bound_unless_above)."""
    for floor, q in _floor_order(t, _subsets(t, k), rate):
        if floor > level:
            return False
        if _bound_unless_above(t, q, level) <= level:
            return True
    return False


def _least_outage(searches, rate, rng, n):
    """For each search (t, subsets), the least-outage subset and its
    outage, ties keeping the earliest subset, from the counts of
    _outage_counts: every search counts the same n unit draws from rng,
    each scaled to its own t, in one pass that draws them block by block;
    the topologies share one relay count."""
    counts = _outage_counts(rng, n, searches, rate)
    return [(subsets[c.index(min(c))], min(c) / n)
            for (_, subsets), c in zip(searches, counts)]


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


def _sweep_point(template, rate, gi, snr_db, k_values, normalization, method,
                 mc_samples, seed):
    """[best_subnetwork(scaled_k, k, ...) for k in k_values] at point gi of
    an SNR sweep, scaled_k being the template scaled to snr_db for k. The
    Monte-Carlo draws come from the (seed, "sweep", gi) stream, so that
    every point can be computed on its own, in any order or process. The
    point makes one pass over them, block by block: each block is drawn
    once and counted for every k, which scales it to its links, before the
    next is drawn (_least_outage)."""
    snr = 10.0 ** (snr_db / 10.0)
    scaled = [template.scaled(_snr_scale(snr, k, normalization)) for k in k_values]
    if method != "montecarlo":
        return [best_subnetwork(t, k, rate, method=method)
                for t, k in zip(scaled, k_values)]
    n = OutageQuery(rate=rate, mc_samples=mc_samples).mc_samples
    searches = [(t, _subsets(t, k)) for t, k in zip(scaled, k_values)]
    return _least_outage(searches, rate, named_rng(seed, "sweep", gi), n)


def outage_sweep(template, k_values, rate, snr_grid_db, normalization="per_node",
                 method="analytic", mc_samples=DEFAULT_MC_SAMPLES, seed=0, map=map):
    """Best-subnetwork outage across an SNR grid.

    The template topology holds the relative link gains; each grid point
    scales every mean link SNR by the reference SNR (per_node) or by
    reference/(k+1) (total_power). Each grid point, all its k, is one task
    (_sweep_point), and map(fn, indices, grid) runs the tasks; it may be a
    process pool's map (fn and the tasks then go by pickle), and the rows
    do not depend on it. Rows come out as dicts with keys snr_db, k,
    subset, outage, method.
    """
    grid = [float(s) for s in snr_grid_db]
    check_snr_grid(grid)
    point = functools.partial(_sweep_point, template, rate, k_values=k_values,
                              normalization=normalization, method=method,
                              mc_samples=mc_samples, seed=seed)
    return [{"snr_db": snr_db, "k": k, "subset": subset, "outage": value,
             "method": method}
            for snr_db, cells in zip(grid, map(point, range(len(grid)), grid))
            for k, (subset, value) in zip(k_values, cells)]


def required_snr_db(template, k, rate, target, normalization="per_node",
                    lo_db=-20.0, hi_db=60.0, iterations=40):
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
    check_int(iterations, "iterations", 0)
    if not (math.isfinite(lo_db) and math.isfinite(hi_db) and lo_db < hi_db):
        raise ValueError(f"lo_db and hi_db must be finite with lo_db < hi_db, "
                         f"got lo_db={lo_db!r}, hi_db={hi_db!r}")
    if not 0.0 < target < 1.0:
        raise ValueError(f"target must be in (0, 1), got {target!r}")

    def reaches(snr_db, level):
        scaled = template.scaled(_snr_scale(10.0 ** (snr_db / 10.0), k, normalization))
        return _reaches(scaled, k, rate, level)

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
