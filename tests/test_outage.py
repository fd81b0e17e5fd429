import itertools
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from conftest import random_topology, topologies
from coopsim import outage
from coopsim.outage import (_BLOCK_ROWS, MAX_RATE, REL_TOL, Cut,
                            IndexOutOfSubsetError, OutageQuery,
                            QuadratureFailure, _bound_unless_above,
                            _cut_plans, _floor_order, _p_omega, _reaches,
                            _sweep_point,
                            approx_capacity,
                            best_subnetwork, cut_outage_analytic, direct_outage,
                            outage_monte_carlo, outage_sweep,
                            outage_upper_bound, rate_threshold,
                            required_snr_db)
from oracles import (best_subnetwork_exhaustive,
                     best_subnetwork_montecarlo_scan, bound_floor,
                     p_omega_by_term_expansion, p_omega_quad,
                     panel_rule_reference,
                     required_snr_db_full_search, union_bound)
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
    @pytest.mark.parametrize("subset, message", [
        ((1.0,), "subset must be an integer, got 1.0"),
        ((True,), "subset must be an integer, got True"),
        (("1",), "subset must be an integer, got '1'"),
        ((1, 1), "subset (1, 1) has repeated indices"),
        ((0,), "subset (0,) has indices outside 1..2"),
        ((1, 3), "subset (1, 3) has indices outside 1..2"),
    ])
    def test_subset_is_checked_as_the_query_checks_it(self, subset, message):
        # (1.0,) was once a numpy IndexError, (True,) relay 1 and (1, 1) a
        # subset with relay 1 twice
        c = real(1.0, (1.0, 1.0), (1.0, 1.0))
        for draws in (c, np.array([c, c])):
            with pytest.raises(ValueError, match=re.escape(message)):
                approx_capacity(draws, subset)

    def test_the_bound_and_its_walks_check_the_subset_against_the_topology(
            self, monkeypatch):
        # a query knows no topology, so (1, 3) passes it; every analytic
        # entry checks it against the topology's two relays before any cut,
        # the walks through the query a floor order hands them
        t = Topology.from_snr(1.0, [1.0, 1.0], [1.0, 1.0])
        q = OutageQuery(rate=1.0, subset=(1, 3))
        monkeypatch.setattr(outage, "_floor_order", lambda *a: iter([(0.0, q)]))
        for call in (lambda: cut_outage_analytic(t, q, Cut(())),
                     lambda: outage_upper_bound(t, q),
                     lambda: _bound_unless_above(t, q, math.inf),
                     lambda: _bound_unless_above(t, q, -1.0),
                     lambda: best_subnetwork(t, 2, 1.0),
                     lambda: _reaches(t, 2, 1.0, 0.5)):
            with pytest.raises(ValueError,
                               match=re.escape("subset (1, 3) has indices outside 1..2")):
                call()

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

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(n_relays=st.integers(0, 4), n=st.integers(1, 12), data=st.data())
    def test_one_row_equals_the_batch_on_odd_links(self, n_relays, n, data):
        # the one-row path on Python floats and the batch path on arrays give
        # the same value, NaN included, on links that are NaN, +-inf, -1
        # (log2 0 = -inf), below -1 (NaN), signed zeros or plain values
        subset = tuple(sorted(data.draw(st.sets(st.integers(1, max(n_relays, 1)),
                                                max_size=n_relays))))
        links = st.sampled_from([0.0, -0.0, 0.3, 1.0, 7.5, -0.5, -1.0, -2.0,
                                 math.inf, -math.inf, math.nan]) | st.floats(0.0, 100.0)
        c = np.array(data.draw(st.lists(st.lists(links, min_size=2 * n_relays + 1,
                                                 max_size=2 * n_relays + 1),
                                        min_size=n, max_size=n)))
        with np.errstate(divide="ignore", invalid="ignore"):
            batch = approx_capacity(c, subset)
            rows = [approx_capacity(row, subset) for row in c]
            listed = [approx_capacity(row.tolist(), subset) for row in c]
        assert all(type(value) is float for value in rows + listed)
        assert np.array_equal(batch, rows, equal_nan=True)
        assert np.array_equal(batch, listed, equal_nan=True)


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
        for lambda_sd in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="lambda_sd must be finite and > 0"):
                direct_outage(lambda_sd, 1.0)


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

    def test_quadrature_consistency_under_tolerance_halving(self, monkeypatch):
        t = Topology.from_snr(0.8, [1.5, 0.4], [2.0, 0.7])
        q = OutageQuery(rate=1.3, subset=(1, 2))
        for tol in (1e-6, 1e-8):
            monkeypatch.setattr(outage, "REL_TOL", tol)
            a = cut_outage_analytic(t, q, Cut({1, 2}))
            monkeypatch.setattr(outage, "REL_TOL", tol / 2)
            b = cut_outage_analytic(t, q, Cut({1, 2}))
            assert abs(a - b) <= tol * max(a, b)

    def test_term_expansion_cross_check(self, monkeypatch):
        # the signed-exponential expansion must agree for distinct rates
        cases = [((0.7, 1.3), (0.5, 2.0), 1.5),
                 ((1.1,), (0.3, 0.9), 0.8),
                 ((0.25, 2.5, 0.9), (1.7,), 2.0)]
        monkeypatch.setattr(outage, "REL_TOL", 1e-10)
        for lams_l, lams_r, rate in cases:
            direct = _p_omega(lams_l, lams_r, rate)
            expanded = p_omega_by_term_expansion(lams_l, lams_r, rate, 1e-10)
            assert direct == pytest.approx(expanded, rel=1e-6, abs=1e-12)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(lams_src=st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=4),
           lams_dst=st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=4),
           repeat=st.booleans(), rate=st.floats(0.25, 8.0))
    @example(lams_src=[1.0], lams_dst=[4.0], repeat=False, rate=0.5)
    @example(lams_src=[3.5], lams_dst=[-3.0], repeat=False, rate=7.5)
    def test_matches_adaptive_quadrature(self, lams_src, lams_dst, repeat, rate):
        # lambdas log-uniform over [1e-4, 1e4], so that one side's can be
        # 1e4 times and more the other's; `repeat` makes each side one
        # repeated value, which the product-rule density must also handle.
        # The examples fail the first error check: a destination 1e3 times
        # weaker than the source, whose CDF turns just below x = tau, and
        # a source 10^6.5 times weaker than the destination at a high rate,
        # whose density falls by many orders within the first panels
        src = [10.0 ** e for e in lams_src]
        dst = [10.0 ** e for e in lams_dst]
        if repeat:
            src, dst = [src[0]] * len(src), [dst[0]] * len(dst)
        src, dst = tuple(sorted(src)), tuple(sorted(dst))
        value = _p_omega(src, dst, rate)
        assert value == pytest.approx(p_omega_quad(src, dst, rate, 1e-12),
                                      rel=1e-9, abs=1e-15)

    def test_oracle_and_package_on_a_far_weaker_source(self):
        # sources 4e8 times weaker than the destination at a high rate: the
        # oracle once passed its own error check here on a value 1.6e-4
        # off. 30- and 40-digit mpmath integrals give 7.76080147975020e-10;
        # _p_omega is 4.3e-9 off, inside its own 10 * REL_TOL check
        src, dst, rate = (4.662784892086327e-05,) * 3, (19977.117398525912,), 4.3728647367979585
        exact = 7.76080147975020e-10
        assert p_omega_quad(src, dst, rate, 1e-12) == pytest.approx(exact, rel=1e-12)
        assert _p_omega(src, dst, rate) == pytest.approx(exact, rel=10 * REL_TOL)

    def test_failure_names_its_inputs(self, monkeypatch):
        # a tolerance below double precision fails wherever the halved and
        # whole-panel sums differ in rounding, as they do here
        t = Topology.from_snr(0.8, [1.5, 0.4], [2.0, 0.7], label="two-relay")
        q = OutageQuery(rate=4.0, subset=(1, 2))
        monkeypatch.setattr(outage, "REL_TOL", 1e-30)
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
        p = _p_omega((1000.0,), (1000.0,), 1.0)
        rng = np.random.default_rng(11)
        n = 10 ** 6
        x = rng.exponential(1e-3, n)
        y = rng.exponential(1e-3, n)
        mc = np.mean(np.log2(1 + x) + np.log2(1 + y) < 1.0)
        assert p == pytest.approx(mc, abs=3e-3)

    @pytest.mark.parametrize("rate", [24.0, 45.0, 60.0])
    def test_high_rate_keeps_the_source_density(self, rate):
        # from R = 45 up both panel rules once missed the source density
        # inside one panel far wider than 1/lambda, and agreed on
        # F_X(1) = 1 - e^-2; the probability is 1 to double precision
        assert _p_omega((2.0,), (1.0, 1.25), rate) == 1.0

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(lams_src=st.lists(st.floats(-6.0, 6.0), min_size=1, max_size=3),
           lams_dst=st.lists(st.floats(-6.0, 6.0), min_size=1, max_size=3),
           rate=st.one_of(st.floats(0.25, 1024.0, exclude_max=True),
                          st.just(math.nextafter(1024.0, 0.0))))
    def test_value_lies_between_its_bounds_at_every_rate(self, lams_src, lams_dst, rate):
        # F_X(h) F_Y(h) <= P <= min(F_X(tau), F_Y(tau)), h = sqrt(1 + tau) - 1,
        # to within the rule's 10 * REL_TOL; no oracle above R = 30 (see
        # oracles.p_omega_quad), so the bounds are the check there
        src = tuple(sorted(10.0 ** e for e in lams_src))
        dst = tuple(sorted(10.0 ** e for e in lams_dst))
        tau = 2.0 ** rate - 1.0
        h = math.sqrt(1.0 + tau) - 1.0

        def cdf(lams, x):
            return math.prod(-math.expm1(-lam * x) for lam in lams)

        value = _p_omega(src, dst, rate)
        slack = 10.0 * REL_TOL
        assert cdf(src, h) * cdf(dst, h) * (1.0 - slack) <= value
        assert value <= min(cdf(src, tau), cdf(dst, tau)) * (1.0 + slack)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(lams_src=st.lists(st.floats(-6.0, 6.0), min_size=1, max_size=4),
           lams_dst=st.lists(st.floats(-6.0, 6.0), min_size=1, max_size=4),
           repeat=st.booleans(),
           rate=st.one_of(st.floats(0.25, 8.0),
                          st.floats(8.0, 1024.0, exclude_max=True),
                          st.just(math.nextafter(1024.0, 0.0))))
    @example(lams_src=[1.0], lams_dst=[4.0], repeat=False, rate=0.5)
    @example(lams_src=[0.5, 0.2], lams_dst=[0.0, 0.1, 0.0], repeat=True,
             rate=math.nextafter(1024.0, 0.0))
    def test_panel_rule_equals_the_reference_bit_for_bit(self, lams_src, lams_dst,
                                                         repeat, rate):
        # every rule pass, first and second, on the points _p_omega hands
        # it, and _p_omega's outcome, against the rule as first written.
        # lambdas log-uniform over [1e-6, 1e6], each side one repeated
        # value under `repeat`; near R = 1024, lambda * x overflows. The
        # first example fails the first pass and takes the second
        src = [10.0 ** e for e in lams_src]
        dst = [10.0 ** e for e in lams_dst]
        if repeat:
            src, dst = [src[0]] * len(src), [dst[0]] * len(dst)
        src, dst = tuple(sorted(src)), tuple(sorted(dst))
        rule = outage._panel_rule
        passes = []

        def checked(*args):
            value, abserr = rule(*args)
            expected = panel_rule_reference(*args)
            assert (value.hex(), abserr.hex()) == tuple(v.hex() for v in expected), args
            passes.append(args)
            return value, abserr

        def outcome():
            try:
                return _p_omega(src, dst, rate).hex()
            except QuadratureFailure as e:
                return str(e)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(outage, "_panel_rule", checked)
            got = outcome()
            mp.setattr(outage, "_panel_rule", panel_rule_reference)
            assert got == outcome()
        event(f"rule passes: {len(passes)}")

    def test_a_value_outside_its_bounds_takes_the_retry_or_fails(self, monkeypatch):
        # at R = 60 the bounds are [1, 1]: a first pass that misses them
        # gives way to the retry, and a retry that misses them fails
        args = ((2.0,), (1.0, 1.25), 60.0)
        passes = []

        def rule(value):
            def fake(*rule_args):
                passes.append(value)
                return value, 0.0
            return fake

        monkeypatch.setattr(outage, "_panel_rule", rule(0.5))
        with pytest.raises(QuadratureFailure, match="for value 5.000e-01 "
                                                    r"\(bounds 1.000e\+00 to 1.000e\+00\)"):
            _p_omega(*args)
        assert passes == [0.5, 0.5]
        values = iter([0.5, 1.0])
        monkeypatch.setattr(outage, "_panel_rule", lambda *a: (next(values), 0.0))
        assert _p_omega(*args) == 1.0


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

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(t=topologies(), rate=st.floats(0.25, 4.0),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_dominates_monte_carlo_on_every_subset(self, t, rate, seed):
        # within k = 4 standard errors; the standard error is floored at that
        # of one event in n draws, so that an estimate of 0 or 1 (standard
        # error 0) still gets the slack of a binomial count
        n, k = 20_000, 4
        floor = math.sqrt((n - 1) / n ** 3)
        relays = range(1, t.n_relays + 1)
        for size in range(t.n_relays + 1):
            for subset in itertools.combinations(relays, size):
                q = OutageQuery(rate=rate, subset=subset, mc_samples=n)
                mc, se = outage_monte_carlo(t, q, np.random.default_rng(seed))
                assert outage_upper_bound(t, q) >= mc - k * max(se, floor), subset

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
    @pytest.mark.parametrize("n", [_BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1,
                                   3 * _BLOCK_ROWS + 517])
    @pytest.mark.parametrize("seed", [0, 7, 2 ** 32 - 1])
    def test_draw_blocks_equal_one_draw(self, n, seed):
        # the Monte-Carlo counts draw their rows _BLOCK_ROWS at a time; they
        # equal those of one (n, L) draw because numpy's Generator fills a
        # request row by row, in one pass over its stream
        for width in (1, 9, 21):
            whole = np.random.default_rng(seed).standard_exponential((n, width))
            rng = np.random.default_rng(seed)
            blocks = [rng.standard_exponential((min(_BLOCK_ROWS, n - start), width))
                      for start in range(0, n, _BLOCK_ROWS)]
            assert np.array_equal(np.concatenate(blocks), whole)

    def test_cut_plans_are_built_once_and_read_only(self):
        subsets = tuple(itertools.combinations(range(1, 5), 2))
        sources, plans = first = _cut_plans(subsets, 4)
        assert _cut_plans(subsets, 4) is first
        assert not any(plan.flags.writeable for plan in plans)

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
                    expected = best_subnetwork_exhaustive(t, k, rate)
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

    # below one block, one block, one block + 1, several blocks and a tail
    @pytest.mark.parametrize("n", [100, _BLOCK_ROWS, _BLOCK_ROWS + 1,
                                   3 * _BLOCK_ROWS + 517])
    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(t=topologies(max_relays=5).filter(lambda t: t.n_relays > 0),
           seed=st.integers(0, 2 ** 32 - 1),
           planted=st.sampled_from([None, "capacity", "pair", "link"]),
           data=st.data())
    def test_montecarlo_search_matches_per_subset_scan(self, n, t, seed, planted,
                                                       data):
        # a planted rate puts the last draw exactly on an outage boundary:
        # its all-relay capacity, one pair sum h_i + g_j (i != j when there
        # are two relays or more) or one link's log2(1 + x)
        everyone = tuple(range(1, t.n_relays + 1))
        rate = 1.0
        last = sample_channels(t, np.random.default_rng(seed), n)[-1]
        caps = np.log2(last + 1.0)
        if planted == "capacity":
            rate = float(approx_capacity(last, everyone))
        elif planted == "pair":
            order = data.draw(st.permutations(everyone))
            rate = float(caps[order[0]] + caps[t.n_relays + order[-1]])
        elif planted == "link":
            rate = float(caps[data.draw(st.integers(0, 2 * t.n_relays))])
        for k in range(t.n_relays + 1):
            expected = best_subnetwork_montecarlo_scan(
                t, k, rate, n, np.random.default_rng(seed))
            assert best_subnetwork(t, k, rate, method="montecarlo", mc_samples=n,
                                   rng=np.random.default_rng(seed)) == expected
            q = OutageQuery(rate=rate, subset=expected[0], mc_samples=n)
            est, _ = outage_monte_carlo(t, q, np.random.default_rng(seed))
            assert est == expected[1]

    def test_montecarlo_tie_keeps_lexicographic_order(self):
        # relays 2 and 3 have identical gains and, through the generator
        # below, identical draws: (2,) and (3,) tie, and (2,) must win
        class TwinRelays:
            def __init__(self):
                self.rng = np.random.default_rng(9)

            def standard_exponential(self, size):
                c = self.rng.standard_exponential(size)
                c[:, [3, 7]] = c[:, [2, 6]]
                return c

        t = Topology.from_snr(0.2, [0.3, 5.0, 5.0, 0.3], [0.3, 5.0, 5.0, 0.3])
        n = _BLOCK_ROWS + 1
        subset, value = best_subnetwork(t, 1, 1.0, method="montecarlo",
                                        mc_samples=n, rng=TwinRelays())
        assert (subset, value) == best_subnetwork_montecarlo_scan(
            t, 1, 1.0, n, TwinRelays())
        assert subset == (2,)
        q = OutageQuery(rate=1.0, subset=(3,), mc_samples=n)
        assert outage_monte_carlo(t, q, TwinRelays())[0] == value


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

    @pytest.mark.parametrize("normalization", ["per_node", "total_power"])
    def test_montecarlo_rows_equal_per_cell_searches(self, normalization):
        # one unit draw per grid point, shared by every k, gives each cell
        # the search a fresh (seed, "sweep", gi) stream would
        template = Topology.from_snr(0.2, [1.0, 0.8, 0.5, 0.3],
                                     [0.6, 1.2, 0.5, 0.9], label="sweep4")
        k_values, grid, n, seed = [0, 1, 2, 3, 4], [0.0, 6.0, 12.0], _BLOCK_ROWS + 500, 17
        rows = outage_sweep(template, k_values, 1.0, grid, normalization=normalization,
                            method="montecarlo", mc_samples=n, seed=seed)
        assert [(r["snr_db"], r["k"]) for r in rows] == [
            (s, k) for s in grid for k in k_values]
        for r in rows:
            snr = 10.0 ** (r["snr_db"] / 10.0)
            scaled = template.scaled(snr / (r["k"] + 1)
                                     if normalization == "total_power" else snr)
            gi = grid.index(r["snr_db"])
            assert (r["subset"], r["outage"]) == best_subnetwork(
                scaled, r["k"], 1.0, method="montecarlo", mc_samples=n,
                rng=named_rng(seed, "sweep", gi))

    def test_montecarlo_point_without_k_values_is_empty(self):
        template = Topology.from_snr(0.5, [1.0], [1.0])
        assert _sweep_point(template, 1.0, 0, 10.0, [], "per_node", "montecarlo",
                            1000, 0) == []

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


THREE_RELAYS = Topology.from_snr(0.5, [1.0, 0.8, 0.5], [1.0, 0.8, 0.5], label="three")
RATE_ENTRY_POINTS = {
    "direct_outage": lambda rate: direct_outage(1.0, rate),
    "OutageQuery": lambda rate: OutageQuery(rate=rate, subset=(1, 2)),
    "best_subnetwork analytic": lambda rate: best_subnetwork(THREE_RELAYS, 2, rate),
    "best_subnetwork montecarlo": lambda rate: best_subnetwork(
        THREE_RELAYS, 2, rate, method="montecarlo", mc_samples=1000),
    "sweep_point montecarlo": lambda rate: _sweep_point(
        THREE_RELAYS, rate, 0, 10.0, [0, 2], "per_node", "montecarlo", 1000, 0),
    "outage_sweep analytic": lambda rate: outage_sweep(THREE_RELAYS, [0, 2], rate,
                                                       [0.0, 10.0]),
    "outage_sweep montecarlo": lambda rate: outage_sweep(
        THREE_RELAYS, [0, 2], rate, [0.0, 10.0], method="montecarlo", mc_samples=1000),
    "required_snr_db": lambda rate: required_snr_db(THREE_RELAYS, 2, rate, 1e-2),
}


@pytest.mark.parametrize("rate", [0.0, -1.0, math.inf, math.nan, 1024.0])
@pytest.mark.parametrize("entry", list(RATE_ENTRY_POINTS))
def test_every_entry_point_rejects_a_rate_that_is_not_finite_and_positive(entry, rate):
    with pytest.raises(ValueError, match="rate must be finite and > 0"):
        RATE_ENTRY_POINTS[entry](rate)


FOUR_RELAYS = Topology.from_snr(0.5, [1.0, 0.8, 0.5, 0.3], [1.0, 0.8, 0.5, 0.6],
                                label="four")
MC_SAMPLES_ENTRY_POINTS = {
    "outage_monte_carlo": lambda n: outage_monte_carlo(
        FOUR_RELAYS, OutageQuery(rate=1.0, subset=(1, 2, 3, 4), mc_samples=n),
        named_rng(0, "mc_samples")),
    "best_subnetwork montecarlo": lambda n: best_subnetwork(
        FOUR_RELAYS, 2, 1.0, method="montecarlo", mc_samples=n),
    "outage_sweep montecarlo": lambda n: outage_sweep(
        FOUR_RELAYS, [0, 2, 4], 1.0, [0.0, 10.0], method="montecarlo", mc_samples=n),
}


@pytest.mark.parametrize("mc_samples", [2.5, 150.7, True, False, math.nan, math.inf,
                                        "200", None, 0, -5])
@pytest.mark.parametrize("entry", list(MC_SAMPLES_ENTRY_POINTS))
def test_every_monte_carlo_entry_point_rejects_a_malformed_mc_samples(entry, mc_samples):
    with pytest.raises(ValueError, match="mc_samples must be an integer >= 1, got "):
        MC_SAMPLES_ENTRY_POINTS[entry](mc_samples)


@pytest.mark.parametrize("entry", list(MC_SAMPLES_ENTRY_POINTS))
def test_monte_carlo_entry_points_take_numpy_integers(entry):
    call = MC_SAMPLES_ENTRY_POINTS[entry]
    assert call(np.int64(500)) == call(500)


@pytest.mark.parametrize("entry", list(MC_SAMPLES_ENTRY_POINTS))
def test_monte_carlo_memory_does_not_grow_with_mc_samples(entry):
    # the draws are made and counted block by block: the traced peak (numpy
    # buffers included) at 20 blocks is that at 2 blocks, and far below the
    # bytes of the whole (n, 2N+1) batch
    def traced_peak(n):
        tracemalloc.start()
        try:
            MC_SAMPLES_ENTRY_POINTS[entry](n)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    few, many = traced_peak(2 * _BLOCK_ROWS), traced_peak(20 * _BLOCK_ROWS)
    assert many <= 1.25 * few
    assert many < 20 * _BLOCK_ROWS * (2 * FOUR_RELAYS.n_relays + 1) * 8 / 4


LARGEST_RATE = math.nextafter(MAX_RATE, 0.0)


@pytest.mark.parametrize("rate, nonnegative, positive", [
    (0.0, 0.0, "rate must be finite and > 0 and < 1024, got 0.0"),
    (-0.0, 0.0, "rate must be finite and > 0 and < 1024, got -0.0"),
    (5e-324, 0.0, 0.0),
    (1e-17, 0.0, 0.0),
    (0.5, math.sqrt(2.0) - 1.0, math.sqrt(2.0) - 1.0),
    (1.0, 1.0, 1.0),
    (LARGEST_RATE, 2.0 ** LARGEST_RATE - 1.0, 2.0 ** LARGEST_RATE - 1.0),
    (1024.0, "rate must be finite and >= 0 and < 1024, got 1024.0",
     "rate must be finite and > 0 and < 1024, got 1024.0"),
    (math.inf, "rate must be finite and >= 0 and < 1024, got inf",
     "rate must be finite and > 0 and < 1024, got inf"),
    (math.nan, "rate must be finite and >= 0 and < 1024, got nan",
     "rate must be finite and > 0 and < 1024, got nan"),
])
def test_rate_threshold_at_the_edges_of_both_ranges(rate, nonnegative, positive):
    # the threshold, or the exact message, of the >= 0 and the > 0 range
    for flag, expected in ((False, nonnegative), (True, positive)):
        if isinstance(expected, str):
            with pytest.raises(ValueError) as raised:
                rate_threshold(rate, positive=flag)
            assert str(raised.value) == expected
        else:
            assert rate_threshold(rate, positive=flag) == expected


NEAR_LIMIT_ENTRY_POINTS = {
    "direct_outage": lambda rate: direct_outage(THREE_RELAYS.lambda_sd, rate),
    "cut_outage_analytic": lambda rate: cut_outage_analytic(
        THREE_RELAYS, OutageQuery(rate=rate, subset=(1, 2)), Cut({1})),
    "outage_upper_bound": lambda rate: outage_upper_bound(
        THREE_RELAYS, OutageQuery(rate=rate, subset=(1, 2))),
    "best_subnetwork analytic": lambda rate: best_subnetwork(THREE_RELAYS, 2, rate)[1],
    "best_subnetwork montecarlo": lambda rate: best_subnetwork(
        THREE_RELAYS, 2, rate, method="montecarlo", mc_samples=1000)[1],
    "outage_sweep analytic": lambda rate: [row["outage"] for row in outage_sweep(
        THREE_RELAYS, [0, 1, 2, 3], rate, [0.0, 10.0])],
    "outage_sweep montecarlo": lambda rate: [row["outage"] for row in outage_sweep(
        THREE_RELAYS, [0, 2], rate, [0.0, 10.0], method="montecarlo",
        mc_samples=1000)],
}


@pytest.mark.parametrize("rate", [1023.5, LARGEST_RATE])
@pytest.mark.parametrize("entry", list(NEAR_LIMIT_ENTRY_POINTS))
def test_every_entry_point_evaluates_just_below_the_rate_limit(entry, rate):
    # 2^R - 1 is above half the largest float: panel midpoints taken as
    # (a + b) / 2 overflowed there
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = np.atleast_1d(NEAR_LIMIT_ENTRY_POINTS[entry](rate))
    assert np.all((values >= 0.0) & (values <= 1.0))


@st.composite
def shared_gain_topologies(draw, max_relays=5):
    """Topologies of 0..max_relays relays whose links all take their mean
    SNRs from one pool of three values, so that relays repeat lambdas."""
    pool = st.sampled_from(draw(st.lists(st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e),
                                         min_size=3, max_size=3)))
    n = draw(st.integers(0, max_relays))
    return Topology.from_snr(draw(pool), draw(st.lists(pool, min_size=n, max_size=n)),
                             draw(st.lists(pool, min_size=n, max_size=n)),
                             label=f"shared{n}")


class TestSubsetWalk:
    """The floors and the early-stopping bound that the analytic searches
    (best_subnetwork and _reaches) walk the subsets by."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(t=st.one_of(topologies(max_relays=5), shared_gain_topologies()),
           rate=st.one_of(st.floats(0.25, 8.0), st.just(1e-17)))
    def test_floors_equal_the_oracle_bit_for_bit(self, t, rate):
        # at rate 1e-17, 2^R - 1 rounds to 0 and every cut term is 0
        assert (2.0 ** 1e-17 - 1.0) == 0.0
        for k in range(t.n_relays + 1):
            subsets = list(itertools.combinations(range(1, t.n_relays + 1), k))
            order = [(floor, q.subset)
                     for floor, q in _floor_order(t, subsets, rate)]
            assert order == sorted(order)
            assert sorted(s for _, s in order) == subsets
            for floor, subset in order:
                expected = bound_floor(t, OutageQuery(rate=rate, subset=subset))
                assert floor.hex() == expected.hex(), (k, subset)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(t=topologies(max_relays=4).filter(lambda t: t.n_relays > 0),
           rate=st.floats(0.25, 4.0))
    def test_early_stop_answers_bound_at_most_level(self, t, rate):
        # levels at every k-subset's bound and one float either side; below
        # the level the value is the bound itself, above it only above.
        # outage_upper_bound, the helper at level inf, is the full sum.
        for k in range(t.n_relays + 1):
            queries = [OutageQuery(rate=rate, subset=s) for s in
                       itertools.combinations(range(1, t.n_relays + 1), k)]
            bounds = [outage_upper_bound(t, q) for q in queries]
            assert [b.hex() for b in bounds] == [union_bound(t, q).hex() for q in queries]
            levels = {x for b in bounds for x in (
                b, math.nextafter(b, math.inf), math.nextafter(b, -math.inf))}
            for q, bound in zip(queries, bounds):
                for level in levels:
                    value = _bound_unless_above(t, q, level)
                    assert (value <= level) == (bound <= level), (q.subset, level)
                    assert value == bound if bound <= level else value > level

    def test_quadrature_failure_on_the_walk_names_its_inputs(self, monkeypatch):
        # at -20 dB every floor is 1, above the target, so the walk first
        # sums a bound at 60 dB, and its first quadrature cut, omega = {1},
        # fails at a tolerance below double precision
        template = Topology.from_snr(0.8, [1.5, 0.4], [2.0, 0.7], label="two-relay")
        scaled = template.scaled(10.0 ** (60.0 / 10.0))
        monkeypatch.setattr(outage, "REL_TOL", 1e-30)
        with pytest.raises(QuadratureFailure) as info:
            required_snr_db(template, 2, 4.0, 1e-2)
        message = str(info.value)
        for field in ("topology 'two-relay'", "subset (1, 2)", "cut omega=[1]",
                      f"lams_src=({scaled.lambda_sr[0]!r},)",
                      f"lams_dst=({scaled.lambda_rd[1]!r},)", "rate=4.0",
                      "rel_tol=1.0e-30"):
            assert field in message


def _outcome(fn, *args, **kwargs):
    """fn's return value, or the type and message of the ValueError it raises."""
    try:
        return fn(*args, **kwargs)
    except ValueError as e:
        return type(e), str(e)


class TestRequiredSnr:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(t=topologies(max_relays=5).filter(lambda t: t.n_relays > 0),
           rate=st.sampled_from([0.5, 1.0, 2.0]),
           target=st.one_of(st.sampled_from([1e-1, 1e-2, 1e-3]),
                            st.floats(1e-6, 0.9)),
           normalization=st.sampled_from(["per_node", "total_power"]),
           bracket=st.sampled_from([(-20.0, 60.0), (-10.0, 20.0), (0.0, 30.0)]),
           iterations=st.integers(0, 25))
    def test_equals_full_search_bisection(self, t, rate, target, normalization,
                                          bracket, iterations):
        # k = n_relays + 1 compares the out-of-range k error
        lo_db, hi_db = bracket
        for k in range(t.n_relays + 2):
            args = (t, k, rate, target)
            kwargs = dict(normalization=normalization, lo_db=lo_db, hi_db=hi_db,
                          iterations=iterations)
            try:
                expected = _outcome(required_snr_db_full_search, *args, **kwargs)
            except QuadratureFailure:
                # the walk computes a prefix of the bounds the full search
                # does, so it may stop before the failing one
                event("full search hit a QuadratureFailure")
                continue
            event("raises" if isinstance(expected, tuple) else "returns")
            assert _outcome(required_snr_db, *args, **kwargs) == expected, k

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(t=topologies(max_relays=4).filter(lambda t: t.n_relays > 0),
           rate=st.floats(0.25, 4.0))
    def test_reaches_at_planted_levels(self, t, rate):
        # levels exactly at the least bound and at every subset's floor, and
        # one float either side of each; for k <= 1 floor and bound coincide
        for k in range(t.n_relays + 1):
            best = best_subnetwork(t, k, rate)[1]
            planted = [best] + [
                bound_floor(t, OutageQuery(rate=rate, subset=s))
                for s in itertools.combinations(range(1, t.n_relays + 1), k)]
            for level in planted:
                for x in (level, math.nextafter(level, math.inf),
                          math.nextafter(level, -math.inf)):
                    assert _reaches(t, k, rate, x) == (best <= x), \
                        (k, x, best)

    @pytest.mark.parametrize("normalization", ["per_node", "total_power"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_target_equal_to_least_bound_at_lo_db_is_not_met(self, normalization, k):
        # "already met" needs the least bound strictly below the target
        template = Topology.from_snr(0.2, [1.0, 0.6, 0.3], [0.8, 0.5, 0.4])
        lo_db, hi_db = 10.0, 40.0
        snr = 10.0 ** (lo_db / 10.0)
        scaled = template.scaled(snr / (k + 1) if normalization == "total_power" else snr)
        best = best_subnetwork(scaled, k, 1.0)[1]
        assert 0.0 < best < 1.0
        kwargs = dict(normalization=normalization, lo_db=lo_db, hi_db=hi_db,
                      iterations=20)
        snr_db = required_snr_db(template, k, 1.0, best, **kwargs)
        assert snr_db == required_snr_db_full_search(template, k, 1.0, best, **kwargs)
        above = math.nextafter(best, math.inf)
        with pytest.raises(ValueError, match="already met"):
            required_snr_db(template, k, 1.0, above, **kwargs)
        with pytest.raises(ValueError, match="already met"):
            required_snr_db_full_search(template, k, 1.0, above, **kwargs)

    @pytest.mark.parametrize("kwargs, names", [
        (dict(iterations=-3), "iterations.*-3"),
        (dict(iterations=2.5), "iterations.*2.5"),
        (dict(iterations=True), "iterations.*True"),
        (dict(target=math.nan), "target.*nan"),
        (dict(target=0.0), "target.*0.0"),
        (dict(target=1.0), "target.*1.0"),
        (dict(hi_db=math.inf), "hi_db=inf"),
        (dict(lo_db=math.nan), "lo_db=nan"),
        (dict(lo_db=10.0, hi_db=-10.0), "lo_db=10.0, hi_db=-10.0"),
        (dict(lo_db=10.0, hi_db=10.0), "lo_db=10.0, hi_db=10.0"),
    ])
    def test_rejects_bad_inputs(self, kwargs, names):
        template = Topology.from_snr(0.5, [1.0, 1.0], [1.0, 1.0])
        call = {"target": 1e-2, **kwargs}
        with pytest.raises(ValueError, match=names) as info:
            required_snr_db(template, 1, 1.0, **call)
        assert type(info.value) is ValueError
