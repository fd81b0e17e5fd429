import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_topology, topologies
from coopsim.outage import (DEFAULT_REL_TOL, Cut, IndexOutOfSubsetError,
                            OutageQuery, QuadratureFailure, _p_omega,
                            approx_capacity, best_subnetwork,
                            cut_outage_analytic, direct_outage,
                            outage_monte_carlo, outage_sweep,
                            outage_upper_bound, required_snr_db)
from oracles import (best_subnetwork_exhaustive, p_omega_by_term_expansion,
                     p_omega_quad)
from coopsim.rng import named_rng
from coopsim.topology import Topology, sample_channels


def real(h_sd2, h2=(), g2=()):
    """One draw [h_sd2, h2_1..h2_N, g2_1..g2_N]."""
    return np.array([h_sd2, *h2, *g2], dtype=float)


class TestCutValue:
    """Cut values evaluated by hand, checked through approx_capacity, the
    min over all cuts of the subset."""

    def test_hand_evaluation(self):
        # subset (1, 2), log2(1 + x): C_sd = 2, C_h = (3, log2 10.9), C_g =
        # (log2 10.9, 1). Cuts: {} -> max(2, log2 10.9); {1} -> max(2, 3 + 1)
        # = 4; {2} -> max(2, 2 log2 10.9); {1,2} -> max(2, log2 10.9)
        c = real(3.0, (7.0, 9.9), (9.9, 1.0))
        assert approx_capacity(c, (1, 2)) == pytest.approx(math.log2(10.9))

    def test_empty_omega_uses_destination_side_only(self):
        # cut {} -> max(1, log2 4) = 2 is below cut {1} -> max(1, 3)
        c = real(1.0, (7.0,), (3.0,))
        assert approx_capacity(c, (1,)) == pytest.approx(2.0)

    def test_all_zero_channels(self):
        c = real(0.0, (0.0,), (0.0,))
        assert approx_capacity(c, (1,)) == 0.0
        assert approx_capacity(c, ()) == 0.0

    def test_index_out_of_subset(self):
        t = Topology.from_snr(1.0, [1.0, 1.0], [1.0, 1.0])
        with pytest.raises(IndexOutOfSubsetError):
            cut_outage_analytic(t, OutageQuery(rate=1.0, subset=(1,)), Cut({2}))
        with pytest.raises(ValueError):
            approx_capacity(real(1.0, (1.0, 1.0), (1.0, 1.0)), (1, 3))


class TestApproxCapacity:
    def test_single_relay_identity(self, rng):
        # min over the two cuts equals max(C_sd, min(C_sr, C_rd))
        for c in rng.exponential(1.0, (200, 3)):
            expected = max(math.log2(1 + c[0]),
                           min(math.log2(1 + c[1]), math.log2(1 + c[2])))
            assert approx_capacity(c, (1,)) == pytest.approx(expected)

    def test_null_relay_leaves_capacity_unchanged(self, rng):
        for _ in range(50):
            h = float(rng.exponential(1.0))
            h1, g1 = float(rng.exponential(1.0)), float(rng.exponential(1.0))
            base = approx_capacity(real(h, (h1,), (g1,)), (1,))
            extended = approx_capacity(real(h, (h1, 0.0), (g1, 0.0)), (1, 2))
            assert extended == pytest.approx(base)

    def test_empty_subset_is_direct_capacity(self):
        assert approx_capacity(real(3.0), ()) == pytest.approx(2.0)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(t=topologies(), seed=st.integers(0, 2 ** 32 - 1),
           order=st.randoms(use_true_random=False))
    def test_relay_addition_monotonicity(self, t, seed, order):
        # capacity never falls when a relay joins the subset, exactly
        c = sample_channels(t, np.random.default_rng(seed), 50)
        relays = list(range(1, t.n_relays + 1))
        order.shuffle(relays)
        caps = [approx_capacity(c, tuple(sorted(relays[:k])))
                for k in range(t.n_relays + 1)]
        for smaller, larger in zip(caps, caps[1:]):
            assert np.all(smaller <= larger)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(t=topologies(), n=st.integers(0, 30), seed=st.integers(0, 2 ** 32 - 1),
           data=st.data())
    def test_batch_matches_scalar(self, t, n, seed, data):
        # a batch of draws gives, row by row, exactly the single-draw values
        subset = tuple(sorted(data.draw(st.sets(
            st.integers(1, max(t.n_relays, 1)), max_size=t.n_relays))))
        c = sample_channels(t, np.random.default_rng(seed), n)
        batch = approx_capacity(c, subset)
        assert batch.shape == (n,)
        assert np.array_equal(batch, [approx_capacity(row, subset) for row in c])


class TestDirectOutage:
    def test_closed_form_values(self):
        assert direct_outage(1.0, 1.0) == pytest.approx(1 - math.exp(-1), abs=1e-9)
        assert direct_outage(0.01, 1.0) == pytest.approx(1 - math.exp(-0.01), abs=1e-9)
        assert direct_outage(0.01, 1.0) == pytest.approx(0.00995, abs=1e-5)

    def test_vanishes_at_small_rate(self):
        assert direct_outage(5.0, 1e-12) < 1e-9

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            direct_outage(-1.0, 1.0)
        with pytest.raises(ValueError):
            direct_outage(1.0, 0.0)


class TestCutOutageAnalytic:
    def test_matches_monte_carlo_one_one(self):
        # |omega| = 1 vs |omega^c| = 1, all unit rates, R = 1
        t = Topology.from_snr(1.0, [1.0, 1.0], [1.0, 1.0])
        q = OutageQuery(rate=1.0, subset=(1, 2))
        p = cut_outage_analytic(t, q, Cut({1}))
        rng = np.random.default_rng(5)
        n = 10 ** 6
        x = rng.exponential(1.0, n)
        y = rng.exponential(1.0, n)
        mc = np.mean(np.log2(1 + x) + np.log2(1 + y) < 1.0)
        se = math.sqrt(mc * (1 - mc) / n)
        assert 0.0 <= p <= 1.0
        assert abs(p - mc) <= 3 * se

    def test_empty_omega_closed_form(self):
        t = Topology.from_snr(1.0, [1.0], [1.0])
        q = OutageQuery(rate=1.0, subset=(1,))
        p = cut_outage_analytic(t, q, Cut(()))
        assert p == pytest.approx(1 - math.exp(-1), abs=1e-9)

    def test_empty_complement_closed_form(self):
        t = Topology.from_snr(1.0, [2.0], [1.0])
        q = OutageQuery(rate=1.0, subset=(1,))
        p = cut_outage_analytic(t, q, Cut({1}))
        assert p == pytest.approx(1 - math.exp(-0.5), abs=1e-9)

    def test_small_rate_limit(self):
        t = Topology.from_snr(1.0, [1.0, 1.0], [1.0, 1.0])
        q = OutageQuery(rate=1e-9, subset=(1, 2))
        assert cut_outage_analytic(t, q, Cut({1})) < 1e-6

    def test_quadrature_consistency_under_tolerance_halving(self):
        t = Topology.from_snr(0.8, [1.5, 0.4], [2.0, 0.7])
        for tol in (1e-6, 1e-8):
            q1 = OutageQuery(rate=1.3, subset=(1, 2), quadrature_rel_tol=tol)
            q2 = OutageQuery(rate=1.3, subset=(1, 2), quadrature_rel_tol=tol / 2)
            a = cut_outage_analytic(t, q1, Cut({1, 2}))
            b = cut_outage_analytic(t, q2, Cut({1, 2}))
            assert abs(a - b) <= tol * max(a, b)

    def test_term_expansion_cross_check(self):
        # the signed-exponential expansion must agree for distinct rates
        cases = [((0.7, 1.3), (0.5, 2.0), 1.5),
                 ((1.1,), (0.3, 0.9), 0.8),
                 ((0.25, 2.5, 0.9), (1.7,), 2.0)]
        for lams_l, lams_r, rate in cases:
            direct = _p_omega(lams_l, lams_r, rate, 1e-10)
            expanded = p_omega_by_term_expansion(lams_l, lams_r, rate, 1e-10)
            assert direct == pytest.approx(expanded, rel=1e-6, abs=1e-12)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(lams_src=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=4),
           lams_dst=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=4),
           repeat=st.booleans(), rate=st.floats(0.25, 8.0))
    def test_matches_adaptive_quadrature(self, lams_src, lams_dst, repeat, rate):
        # lambdas log-uniform over [1e-3, 1e3]; `repeat` makes each side one
        # repeated value, which the product-rule density must also handle
        src = [10.0 ** e for e in lams_src]
        dst = [10.0 ** e for e in lams_dst]
        if repeat:
            src, dst = [src[0]] * len(src), [dst[0]] * len(dst)
        src, dst = tuple(sorted(src)), tuple(sorted(dst))
        value = _p_omega(src, dst, rate, DEFAULT_REL_TOL)
        assert value == pytest.approx(p_omega_quad(src, dst, rate, 1e-12),
                                      rel=1e-9, abs=1e-15)

    def test_failure_names_its_inputs(self):
        # a tolerance below double precision fails wherever the halved and
        # whole-panel sums differ in rounding, as they do here
        t = Topology.from_snr(0.8, [1.5, 0.4], [2.0, 0.7], label="two-relay")
        q = OutageQuery(rate=4.0, subset=(1, 2), quadrature_rel_tol=1e-30)
        with pytest.raises(QuadratureFailure) as info:
            cut_outage_analytic(t, q, Cut({2}))
        message = str(info.value)
        for field in ("topology 'two-relay'", "subset (1, 2)", "cut omega=[2]",
                      f"lams_src=({t.lambda_sr[1]!r},)",
                      f"lams_dst=({t.lambda_rd[0]!r},)", "rate=4.0",
                      "rel_tol=1.0e-30"):
            assert field in message

    def test_boundary_concentrated_density(self):
        # very weak links: the density spikes near zero but mass must be kept
        p = _p_omega((1000.0,), (1000.0,), 1.0, 1e-8)
        rng = np.random.default_rng(11)
        n = 10 ** 6
        x = rng.exponential(1e-3, n)
        y = rng.exponential(1e-3, n)
        mc = np.mean(np.log2(1 + x) + np.log2(1 + y) < 1.0)
        assert p == pytest.approx(mc, abs=3e-3)


class TestUpperBound:
    def test_dominates_monte_carlo_on_random_topologies(self, rng):
        for i in range(10):
            t = random_topology(rng)
            for rate in (0.5, 1.0, 2.0):
                q = OutageQuery(rate=rate, subset=tuple(range(1, t.n_relays + 1)),
                                mc_samples=20_000)
                bound = outage_upper_bound(t, q)
                mc, se = outage_monte_carlo(t, q, named_rng(i, "ub", rate))
                assert bound >= mc - 3 * se

    def test_monotone_in_rate(self):
        t = Topology.from_snr(1.0, [2.0, 0.5], [1.0, 1.5])
        values = [outage_upper_bound(t, OutageQuery(rate=r, subset=(1, 2)))
                  for r in (0.25, 0.5, 1.0, 2.0, 4.0)]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

    def test_empty_subset_equals_direct_outage(self):
        t = Topology.from_snr(0.7, [1.0], [1.0])
        q = OutageQuery(rate=1.2, subset=())
        assert outage_upper_bound(t, q) == pytest.approx(
            direct_outage(t.lambda_sd, 1.2), abs=1e-12)


class TestMonteCarlo:
    def test_tiny_rate_gives_zero(self):
        t = Topology.from_snr(1.0, [1.0], [1.0])
        q = OutageQuery(rate=1e-9, subset=(1,), mc_samples=10_000)
        est, se = outage_monte_carlo(t, q, named_rng(0, "mc0"))
        assert est == 0.0
        assert se == 0.0

    def test_single_relay_symmetric_closed_form(self):
        # capacity = max(C_sd, min(C_sr, C_rd)); with all lambda = 1, R = 1:
        # P = Pr{h_sd2 < 1} * Pr{min < 1} = (1 - e^-1)(1 - e^-2)
        t = Topology.from_snr(1.0, [1.0], [1.0])
        q = OutageQuery(rate=1.0, subset=(1,), mc_samples=10 ** 6)
        est, se = outage_monte_carlo(t, q, named_rng(0, "mc1"))
        closed = (1 - math.exp(-1)) * (1 - math.exp(-2))
        assert abs(est - closed) <= 3 * se

    def test_standard_error_scaling(self):
        t = Topology.from_snr(1.0, [1.0], [1.0])
        q1 = OutageQuery(rate=1.0, subset=(1,), mc_samples=10_000)
        q2 = OutageQuery(rate=1.0, subset=(1,), mc_samples=40_000)
        _, se1 = outage_monte_carlo(t, q1, named_rng(0, "se1"))
        _, se2 = outage_monte_carlo(t, q2, named_rng(0, "se2"))
        assert se2 == pytest.approx(se1 / 2, rel=0.1)

    def test_requires_minimum_samples(self):
        t = Topology.from_snr(1.0, [1.0], [1.0])
        q = OutageQuery(rate=1.0, subset=(1,), mc_samples=99)
        with pytest.raises(ValueError):
            outage_monte_carlo(t, q, named_rng(0, "mc"))

    def test_subset_beyond_topology_rejected(self):
        t = Topology.from_snr(1.0, [1.0], [1.0])
        q = OutageQuery(rate=1.0, subset=(1, 2))
        with pytest.raises(ValueError):
            outage_monte_carlo(t, q, named_rng(0, "mc"))
        with pytest.raises(ValueError):
            outage_upper_bound(t, q)


class TestBestSubnetwork:
    def test_symmetric_tie_break_is_lexicographic(self):
        t = Topology.from_snr(1.0, [1.0] * 4, [1.0] * 4)
        subset, _ = best_subnetwork(t, 1, 1.0)
        assert subset == (1,)
        subset, _ = best_subnetwork(t, 2, 1.0)
        assert subset == (1, 2)

    def test_pruned_search_matches_exhaustive_scan(self, rng):
        # weak links clamp many bounds at 1, where only the tie-break
        # separates the subsets
        cases = [random_topology(rng, n) for n in (1, 2, 3, 4, 5, 6)]
        cases += [random_topology(rng, n, snr_lo=0.01, snr_hi=0.5)
                  for n in (2, 3, 4, 3, 4)]
        cases += [Topology.from_snr(1.0, [1.0] * n, [1.0] * n) for n in (3, 4)]
        for t in cases:
            for rate in (0.5, 1.0, 2.0):
                for k in range(t.n_relays + 1):
                    expected = best_subnetwork_exhaustive(t, k, rate, DEFAULT_REL_TOL)
                    subset, value = best_subnetwork(t, k, rate)
                    assert (subset, value) == expected, (t.label, rate, k)

    def test_k_zero_returns_direct_outage(self):
        t = Topology.from_snr(0.9, [1.0, 1.0], [1.0, 1.0])
        subset, value = best_subnetwork(t, 0, 1.0)
        assert subset == ()
        assert value == pytest.approx(direct_outage(t.lambda_sd, 1.0), abs=1e-12)

    def test_clustered_argmin_matches_brute_force_monte_carlo(self):
        # relay 2 is strong on both hops; an independent shared-draw brute
        # force over all C(3,k) subsets must agree with the search
        t = Topology.from_snr(0.1, [0.3, 5.0, 0.4], [0.3, 5.0, 0.5],
                              label="clustered3")
        for k in (1, 2):
            subset, _ = best_subnetwork(t, k, 1.0, method="montecarlo",
                                        mc_samples=40_000,
                                        rng=named_rng(3, "argmin", k))
            draws = sample_channels(t, named_rng(7, "oracle", k), 200_000)
            brute = min(
                itertools.combinations(range(1, 4), k),
                key=lambda s: float(np.mean(approx_capacity(draws, s) < 1.0)))
            assert subset == brute

    def test_rejects_bad_k(self):
        t = Topology.from_snr(1.0, [1.0], [1.0])
        with pytest.raises(ValueError):
            best_subnetwork(t, 2, 1.0)


class TestSweep:
    def test_outage_nonincreasing_in_k_with_shared_draws(self):
        template = Topology.from_snr(0.2, [1.0, 0.8, 0.5, 0.3],
                                     [1.0, 0.8, 0.5, 0.3], label="sweep4")
        rows = outage_sweep(template, [0, 1, 2, 3], 1.0, [0.0, 6.0, 12.0],
                            method="montecarlo", mc_samples=20_000, seed=5)
        by_snr = {}
        for r in rows:
            by_snr.setdefault(r["snr_db"], []).append((r["k"], r["outage"]))
        for snr_db, pairs in by_snr.items():
            ordered = [v for _, v in sorted(pairs)]
            assert all(a >= b - 1e-12 for a, b in zip(ordered, ordered[1:])), \
                f"not monotone at {snr_db} dB: {ordered}"

    def test_rows_shape_and_grid_validation(self):
        template = Topology.from_snr(0.5, [1.0], [1.0])
        rows = outage_sweep(template, [0, 1], 1.0, [0.0, 10.0])
        assert len(rows) == 4
        assert {r["method"] for r in rows} == {"analytic"}
        with pytest.raises(ValueError):
            outage_sweep(template, [0], 1.0, [10.0, 0.0])

    def test_required_snr_bisection(self):
        template = Topology.from_snr(0.5, [1.0, 1.0], [1.0, 1.0])
        snr = required_snr_db(template, 1, 1.0, 1e-2, iterations=30)
        scaled = template.scaled(10 ** (snr / 10.0))
        _, value = best_subnetwork(scaled, 1, 1.0)
        assert value == pytest.approx(1e-2, rel=1e-3)
