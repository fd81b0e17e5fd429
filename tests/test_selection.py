import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopsim.ensemble import EnsembleSample, ModeDataset, replay_policy
from coopsim.netsim import Mode, enumerate_modes
from coopsim.selection import (BASELINE_POLICIES, DEFAULT_PARAMS,
                               DegenerateSetError, LearnParams, PolicyRunLog,
                               SpaParams, UnknownPolicyError, check_policy, learn,
                               policy_name, run_policy, table_executor, weight_update)
from oracles import (FrameStreamEnded, InsufficientHistoryError, learn_reference,
                     run_policy_per_frame, windowed_fer)

MODES6 = enumerate_modes(3)


def reference_update(weights, fers, eta, alpha):
    """Independent transcription of the two update equations."""
    n = len(weights)
    w = [wi * math.exp(-eta * fi) for wi, fi in zip(weights, fers)]
    pool = sum((1 - (1 - alpha) ** fi) * wi for wi, fi in zip(w, fers))
    return [(1 - alpha) ** fi * wi + (pool - (1 - (1 - alpha) ** fi) * wi) / (n - 1)
            for wi, fi in zip(w, fers)]


def bernoulli_runner(fers, rng, counter=None):
    """Synthetic mode runner: each frame errs with the mode's planted FER."""
    def runner(mode, n):
        if counter is not None:
            counter[mode] = counter.get(mode, 0) + n
        errs = sum(1 for _ in range(n) if rng.random() < fers[mode])
        return errs / n
    return runner


@st.composite
def learn_cases(draw):
    """(candidates, params, make_runner): 1-10 distinct candidates, LEARN
    params with l in 1-3, epsilon 0, a weight that equal FERs give 2 or 4
    modes, or any in [0, 0.5], B in 1-8, and make_runner()
    giving a fresh (runner, calls) pair that logs each runner call as
    (mode, n). The runner is Bernoulli on planted FERs, or scripted from a
    cycle of FERs that often ties the weights."""
    candidates = draw(st.lists(st.integers(0, 99), min_size=1, max_size=10, unique=True))
    params = LearnParams(l=draw(st.integers(1, 3)), eta=draw(st.floats(0.1, 5.0)),
                         alpha=draw(st.floats(0.0, 0.9)),
                         epsilon=draw(st.sampled_from([0.0, 0.25, 0.5])
                                      | st.floats(0.0, 0.5)),
                         B=draw(st.integers(1, 8)))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    if draw(st.booleans()):
        script = draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0),
                               min_size=1, max_size=12))

        def fer(rng, mode, n, k):
            return script[k % len(script)]
    else:
        planted = {m: draw(st.floats(0.0, 1.0)) for m in candidates}

        def fer(rng, mode, n, k):
            return sum(rng.random() < planted[mode] for _ in range(n)) / n

    def make_runner():
        rng, calls = np.random.default_rng(seed), []

        def runner(mode, n):
            calls.append((mode, n))
            return fer(rng, mode, n, len(calls))
        return runner, calls

    return candidates, params, make_runner


class TestWeightUpdate:
    def test_golden_hand_trace(self):
        updated = weight_update([0.5, 0.5], [0.0, 1.0], eta=3.0, alpha=0.4)
        assert updated[0] == pytest.approx(0.5099575, abs=1e-6)
        assert updated[1] == pytest.approx(0.0149362, abs=1e-6)
        total = sum(updated)
        assert updated[0] / total == pytest.approx(0.971540, abs=1e-5)
        assert updated[1] / total == pytest.approx(0.028456, abs=1e-5)
        assert updated == pytest.approx(reference_update([0.5, 0.5], [0.0, 1.0], 3.0, 0.4))

    def test_matches_reference_on_random_inputs(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 7))
            w = rng.dirichlet(np.ones(n)).tolist()
            f = rng.random(n).tolist()
            eta = float(rng.uniform(0.1, 5.0))
            alpha = float(rng.uniform(0.0, 0.99))
            assert weight_update(w, f, eta, alpha) == pytest.approx(
                reference_update(w, f, eta, alpha))

    def test_zero_fers_leave_weights_unchanged(self):
        w = [0.2, 0.3, 0.5]
        assert weight_update(w, [0.0, 0.0, 0.0], 3.0, 0.4) == pytest.approx(w)

    def test_equal_fers_keep_weights_equal(self):
        for f in (0.3, 1.0):
            out = weight_update([0.25] * 4, [f] * 4, 3.0, 0.4)
            assert max(out) == pytest.approx(min(out))

    def test_alpha_zero_is_pure_exponential(self, rng):
        # with alpha = 0 (pool is empty) weights follow w_i ~ exp(-eta sum f)
        w = [0.25] * 4
        fer_hist = [rng.random(4).tolist() for _ in range(5)]
        for f in fer_hist:
            w = weight_update(w, f, eta=2.0, alpha=0.0)
        expected = [0.25 * math.exp(-2.0 * sum(f[i] for f in fer_hist))
                    for i in range(4)]
        assert w == pytest.approx(expected)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(wf=st.integers(2, 8).flatmap(lambda n: st.tuples(
               st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n),
               st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))),
           eta=st.floats(0.01, 10.0), alpha=st.floats(0.0, 0.999))
    def test_fixed_share_conserves_penalized_mass(self, wf, eta, alpha):
        # the shared pool only moves mass: the update's total is the total
        # of the exponentially penalized weights
        w, f = wf
        assert math.fsum(weight_update(w, f, eta, alpha)) == pytest.approx(
            math.fsum(wi * math.exp(-eta * fi) for wi, fi in zip(w, f)), rel=1e-12)

    def test_degenerate_set(self):
        with pytest.raises(DegenerateSetError):
            weight_update([1.0], [0.5], 3.0, 0.4)

    def test_rejects_bad_fers(self):
        with pytest.raises(ValueError):
            weight_update([0.5, 0.5], [0.0, 1.5], 3.0, 0.4)


class TestLearn:
    def test_single_candidate_sends_no_frames(self):
        calls = []
        res = learn(lambda m, n: calls.append((m, n)) or 0.0, ["only"], LearnParams())
        assert res.order == ("only",)
        assert res.weights["only"] == 1.0
        assert calls == []

    def test_deterministic_good_bad_converges_in_one_batch(self):
        batches = []
        def runner(mode, n):
            batches.append(mode)
            return 0.0 if mode == "good" else 1.0
        res = learn(runner, ["good", "bad"], LearnParams())
        assert res.order == ("good", "bad")
        assert batches == ["good", "bad"]  # exactly one batch
        assert res.weights["good"] == pytest.approx(1.0)
        assert res.weights["bad"] == pytest.approx(0.028456, abs=1e-5)

    def test_output_is_permutation_of_candidates(self, rng):
        for trial in range(50):
            fers = {m: float(rng.random()) for m in MODES6}
            res = learn(bernoulli_runner(fers, rng), MODES6, LearnParams())
            assert sorted(res.order, key=str) == sorted(MODES6, key=str)

    def test_rejected_mode_receives_no_more_frames(self, rng):
        # after a mode leaves the admissible set, its frame count freezes
        calls = {}
        fers = {m: 0.95 for m in MODES6}
        fers[MODES6[0]] = 0.0
        learn(bernoulli_runner(fers, rng, calls), MODES6,
              LearnParams(l=2, B=30))
        best_frames = calls[MODES6[0]]
        for m in MODES6[1:]:
            assert calls[m] <= best_frames

    def test_survivor_weights_sum_to_one(self, rng):
        for _ in range(20):
            fers = {m: float(rng.uniform(0, 0.6)) for m in MODES6}
            res = learn(bernoulli_runner(fers, rng), MODES6,
                        LearnParams(l=4, B=10, epsilon=0.08))
            survivors = [m for m in MODES6 if res.weights[m] > 0.08]
            assert math.fsum(res.weights[m] for m in survivors) == pytest.approx(1.0, abs=1e-9)

    def test_converges_to_best_bernoulli_mode(self):
        # statistical oracle: repeated seeded simulation; the best arm must
        # win the ranking more often than any competitor
        fers = dict(zip(MODES6, [0.05, 0.3, 0.3, 0.4, 0.5, 0.6]))
        first = {m: 0 for m in MODES6}
        for seed in range(100):
            res = learn(bernoulli_runner(fers, np.random.default_rng(seed)),
                        MODES6, LearnParams())
            first[res.order[0]] += 1
        assert first[MODES6[0]] >= 60
        assert first[MODES6[0]] > max(first[m] for m in MODES6[1:])

    def test_no_early_reject_trains_more_frames(self):
        fers = dict(zip(MODES6, [0.05, 0.3, 0.3, 0.4, 0.5, 0.6]))
        more = 0
        for seed in range(50):
            counts_wr, counts_nr = {}, {}
            learn(bernoulli_runner(fers, np.random.default_rng(seed), counts_wr),
                  MODES6, LearnParams())
            learn(bernoulli_runner(fers, np.random.default_rng(seed), counts_nr),
                  MODES6, LearnParams(epsilon=0.0))
            if sum(counts_nr.values()) > sum(counts_wr.values()):
                more += 1
        assert more >= 45

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(case=learn_cases())
    def test_equals_the_reference_learner(self, case):
        # the batch loop equals learn as first written (oracles.learn_reference)
        # bit for bit: the ranking, every weight and each runner call in order
        candidates, params, make_runner = case
        (runner, calls), (ref_runner, ref_calls) = make_runner(), make_runner()
        assert learn(runner, candidates, params) == learn_reference(
            ref_runner, candidates, params)
        assert calls == ref_calls

    @pytest.mark.parametrize("n, epsilon", [(2, 0.5), (4, 0.25)])
    def test_a_weight_at_epsilon_is_rejected(self, n, epsilon):
        # equal FERs keep the n weights at 1/n, exactly epsilon: all n are
        # rejected after the first batch, the earliest ranking lowest
        calls = []
        res = learn(lambda m, k: calls.append(m) or 0.5, range(n),
                    LearnParams(epsilon=epsilon))
        assert calls == list(range(n))
        assert res.order == tuple(reversed(range(n)))
        assert res == learn_reference(lambda m, k: 0.5, range(n),
                                      LearnParams(epsilon=epsilon))

    @pytest.mark.parametrize("eta", [math.inf, math.nan, 0.0, -1.0])
    def test_eta_must_be_positive_and_finite(self, eta):
        # an infinite eta turns every weight into nan, and LEARN then ranks
        # the zero-FER mode last
        with pytest.raises(ValueError, match="eta must be positive and finite"):
            LearnParams(eta=eta)


class TestWindowedFer:
    def test_values(self):
        assert windowed_fer([0] * 40, 40) == 0.0
        assert windowed_fer([2] * 4 + [0] * 36, 40) == pytest.approx(0.1)
        assert windowed_fer([0] * 100 + [2] * 10, 10) == 1.0

    def test_insufficient_history(self):
        with pytest.raises(InsufficientHistoryError):
            windowed_fer([0] * 39, 40)

    def test_trigger_threshold_monotone(self, rng):
        # a window that trips threshold z1 trips every z2 <= z1
        for _ in range(100):
            cats = rng.choice([0, 2], size=40, p=[0.8, 0.2])
            fer = windowed_fer(list(cats), 40)
            for z1 in (0.05, 0.1, 0.3):
                for z2 in (0.025, 0.05, 0.1):
                    if z2 <= z1 and fer >= z1:
                        assert fer >= z2


def scripted_executor(categories):
    it = iter(categories)
    def execute(mode, n):
        return list(itertools.islice(it, n))
    return execute


def per_frame(frame, n_frames):
    """Block executor of a stream of n_frames frames, sending each through
    frame(mode). A request is clipped to what is left of the stream before
    any frame is sent, since DT and fixed-mode runs ask for the whole rest."""
    left = n_frames

    def execute(mode, n):
        nonlocal left
        n = min(n, left)
        left -= n
        return [frame(mode) for _ in range(n)]

    return execute


class TestSpa:
    def test_zero_fer_means_zero_triggers_and_switches(self):
        log = run_policy("SPA", per_frame(lambda mode: 0, 1000), MODES6, DEFAULT_PARAMS)
        assert log.triggers == []
        assert log.learn_calls == []
        assert log.switch_count == 0
        assert log.n_frames == 1000
        assert set(log.modes) == {MODES6[0]}

    def test_window_boundary_four_errors_triggers_three_does_not(self):
        # exactly 4 errors in the first 40 frames => FER 0.1 >= zeta triggers
        cats = [2] * 4 + [0] * 36 + [0] * 20
        log = run_policy("SPA", scripted_executor(cats), MODES6, DEFAULT_PARAMS)
        assert log.triggers and log.triggers[0] == 40
        cats = [2] * 3 + [0] * 37 + [0] * 20
        log = run_policy("SPA", scripted_executor(cats), MODES6, DEFAULT_PARAMS)
        assert log.triggers == []

    def test_list_stays_permutation_and_top_r_learned(self):
        rng = np.random.default_rng(3)
        fers = dict(zip(MODES6, [0.5, 0.4, 0.3, 0.02, 0.6, 0.7]))
        def execute(mode):
            return 2 if rng.random() < fers[mode] else 0
        log = run_policy("SPA", per_frame(execute, 2000), MODES6, DEFAULT_PARAMS)
        assert log.triggers, "bad initial mode must trigger"
        for call in log.learn_calls:
            assert len(call.candidates) == DEFAULT_PARAMS.r
            assert set(call.ranked) == set(call.candidates)

    def test_adapts_to_planted_best_mode_across_segments(self):
        # two-segment scenario; the best mode changes at the boundary and
        # the post-trigger operating mode must settle on the planted best
        from collections import Counter
        seg_len = 430
        best = {0: MODES6[0], 1: MODES6[3]}
        hits = 0
        trials = 100
        for seed in range(trials):
            rng = np.random.default_rng(1000 + seed)
            frame = [0]
            def execute(mode):
                seg = min(frame[0] // seg_len, 1)
                frame[0] += 1
                p = 0.02 if mode == best[seg] else 0.4
                return 2 if rng.random() < p else 0
            log = run_policy("SPA", per_frame(execute, 2 * seg_len), MODES6, DEFAULT_PARAMS)
            tail_ok = True
            for seg in (0, 1):
                window = slice((seg + 1) * seg_len - 60, (seg + 1) * seg_len)
                tail = [m for m, phase in zip(log.modes[window], log.phases[window])
                        if phase == "operating"]
                if not tail or Counter(tail).most_common(1)[0][0] != best[seg]:
                    tail_ok = False
            hits += tail_ok
        assert hits >= 90, f"adapted in only {hits}/{trials} trials"

    def test_requires_enough_modes(self):
        with pytest.raises(ValueError):
            run_policy("SPA", per_frame(lambda m: 0, 10), MODES6[:2], DEFAULT_PARAMS)


class TestRunPolicy:
    def test_brute_picks_deterministic_best(self):
        # modes with deterministic FERs {1, 0, 1}: after the first trigger
        # BRUTE must operate the error-free mode
        modes = ["m0", "m1", "m2"]
        fers = {"m0": 1.0, "m1": 0.0, "m2": 1.0}
        log = run_policy("BRUTE", per_frame(lambda m: 2 if fers[m] else 0, 400), modes,
                         SpaParams(r=3, w=10))
        assert log.triggers
        after = slice(log.triggers[0] + 30, None)
        operating_after = [m for m, phase in zip(log.modes[after], log.phases[after])
                           if phase == "operating"]
        assert operating_after and set(operating_after) == {"m1"}

    def test_pwr2_picks_better_of_two(self):
        # initial mode errs constantly; PWR2 must measure both and settle
        # on the error-free one
        modes = ["a", "b"]
        fers = {"a": 0.5, "b": 0.0}
        rng = np.random.default_rng(9)
        def execute(mode):
            return 2 if rng.random() < fers[mode] else 0
        log = run_policy("PWR2", per_frame(execute, 600), modes, SpaParams(r=2, w=40),
                         rng=np.random.default_rng(1))
        assert log.triggers
        tail = [m for m, phase in zip(log.modes[-50:], log.phases[-50:])
                if phase == "operating"]
        assert set(tail) == {"b"}

    def test_dt_and_fixed_never_adapt(self):
        log = run_policy("DT", per_frame(lambda m: 0, 100), MODES6)
        assert set(log.modes) == {None}
        log = run_policy(Mode((1, 2)), per_frame(lambda m: 0, 100), MODES6)
        assert set(log.modes) == {Mode((1, 2))}
        log = run_policy("Fixed:R2", per_frame(lambda m: 0, 100), MODES6)
        assert set(log.modes) == {Mode((2,))}

    def test_nrnm_fer_at_least_wrnm_on_planted_modes(self):
        # no early reject trains every mode for all B batches, so its FER
        # carries the full training overhead
        fers = dict(zip(MODES6, [0.02, 0.3, 0.35, 0.5, 0.55, 0.6]))
        worse = 0
        for seed in range(20):
            results = {}
            for policy in ("NRNM", "WRNM"):
                rng = np.random.default_rng(200 + seed)
                def execute(mode):
                    return 2 if rng.random() < fers[mode] else 0
                log = run_policy(policy, per_frame(execute, 1500), MODES6, DEFAULT_PARAMS)
                results[policy] = log.fer
            worse += results["NRNM"] >= results["WRNM"]
        assert worse >= 15

    def test_switch_count_matches_to_rows(self):
        rng = np.random.default_rng(4)
        fers = dict(zip(MODES6, [0.3, 0.25, 0.2, 0.15, 0.4, 0.5]))
        def execute(mode):
            return 2 if rng.random() < fers[mode] else 0
        log = run_policy("SPA", per_frame(execute, 800), MODES6, DEFAULT_PARAMS)
        rows = log.to_rows()
        assert rows[-1][4] == log.switch_count
        recomputed = sum(1 for a, b in zip(log.modes, log.modes[1:])
                         if a != b)
        assert log.switch_count == recomputed

    @pytest.mark.parametrize("policy", ["BRUTE", "RandPick", "PWR2", "NRNM",
                                        "WRNM", "SPA"])
    def test_adaptive_policies_reject_repeated_modes(self, policy):
        # the log tells modes apart by slot, so a repeated mode would
        # count switches between equal modes
        with pytest.raises(ValueError, match="needs distinct modes"):
            run_policy(policy, per_frame(lambda m: 2, 200), ["a", "a", "b"],
                       rng=np.random.default_rng(0))

    def test_unknown_policy(self):
        with pytest.raises(UnknownPolicyError):
            run_policy("nonsense", per_frame(lambda m: 0, 10), MODES6)

    @pytest.mark.parametrize("policy, modes, message", [
        ("PWR2", MODES6[:1], "PWR2 needs at least 2 modes, got 1$"),
        ("SPA", MODES6[:2], r"SPA needs \|modes\| >= r, got 2 < 3$")])
    def test_too_few_modes_raise_before_any_frame(self, policy, modes, message):
        served = []

        def execute(mode):
            served.append(mode)
            return 2

        with pytest.raises(ValueError, match=message):
            run_policy(policy, per_frame(execute, 100), modes,
                       rng=np.random.default_rng(0))
        assert served == []

    @pytest.mark.parametrize("n_relays", [1, 2, 3])
    @pytest.mark.parametrize("r", [1, 2, 3, 4, 7, 8])
    def test_check_policy_and_run_policy_share_the_mode_count_rule(self, n_relays, r):
        # check_policy fails on n_relays relays exactly when run_policy
        # fails on their modes, with the same message plus the relay count
        params = SpaParams(r=r, w=5)
        for policy in BASELINE_POLICIES:
            try:
                check_policy(policy, n_relays, params)
                expected = None
            except ValueError as e:
                expected = str(e)
            try:
                run_policy(policy, per_frame(lambda m: 2, 30), enumerate_modes(n_relays),
                           params, rng=np.random.default_rng(0))
                got = None
            except ValueError as e:
                got = f"{e} on {n_relays} relays"
            assert got == expected

    @pytest.mark.parametrize("policy, name", [
        (Mode((1, 2)), "Fixed:R1R2"), ("fixed:r1r2", "Fixed:R1R2"),
        ("Fixed:1", "Fixed:R1"), ("dt", "DT"), ("wrnm", "WRNM")])
    def test_policy_name_is_canonical(self, policy, name):
        assert policy_name(policy) == name

    @pytest.mark.parametrize("policy, error", [
        ("BOGUS", UnknownPolicyError), ("Fixed:xyz", ValueError)])
    def test_policy_name_rejects(self, policy, error):
        with pytest.raises(error):
            policy_name(policy)


@st.composite
def planted_runs(draw):
    """(modes, outcome table, SpaParams): 2-10 modes behind slot 0 (plain
    DT), each slot's frames failing at a planted FER (0 and 1 included),
    over a table of 1-150 frames whose end ends the run."""
    modes = tuple(enumerate_modes(4)[:draw(st.integers(2, 10))])
    fers = np.array(draw(st.lists(st.sampled_from([0.0, 0.05, 0.2, 0.5, 1.0]),
                                  min_size=len(modes) + 1, max_size=len(modes) + 1)))
    length = draw(st.integers(1, 150))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    table = np.where(rng.random((len(fers), length)) < fers[:, None], 2,
                     rng.integers(0, 2, (len(fers), length)))
    learn_params = LearnParams(l=draw(st.integers(1, 3)),
                               eta=draw(st.sampled_from([0.5, 3.0])),
                               alpha=draw(st.sampled_from([0.0, 0.4])),
                               epsilon=draw(st.sampled_from([0.0, 0.05, 0.3])),
                               B=draw(st.integers(1, 4)))
    params = SpaParams(zeta=draw(st.sampled_from([0.05, 0.1, 0.3, 0.5, 1.0])),
                       r=draw(st.integers(1, len(modes))), w=draw(st.integers(1, 8)),
                       delta_w=draw(st.integers(1, 4)), s=draw(st.integers(0, 3)),
                       learn=learn_params)
    return modes, table, params


def frame_executor(table, keys):
    """Single-frame executor of run_policy_per_frame over table[slot, pos]."""
    index = {key: s for s, key in enumerate(keys)}
    pos = 0

    def execute(mode):
        nonlocal pos
        if pos >= table.shape[1]:
            raise FrameStreamEnded
        pos += 1
        return int(table[index[mode], pos - 1])

    return execute


class TestBlockLoop:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(run=planted_runs())
    def test_block_loop_records_the_per_frame_run(self, run):
        # the block loop (one executor call per operating run, extension,
        # probe, LEARN batch and fixed-mode run) must record frame for frame
        # what one executor call per frame records
        modes, table, params = run
        keys = (None, *modes)
        dataset = ModeDataset(topologies=("T",), mode_keys=keys,
                              outcomes=table[None])
        sample = EnsembleSample(segments=(("T", tuple(range(table.shape[1]))),))
        for policy in (*BASELINE_POLICIES, f"Fixed:{modes[-1]}"):
            log = replay_policy(policy, sample, dataset, params,
                                rng=np.random.default_rng(5))
            ref = run_policy_per_frame(policy, frame_executor(table, keys), modes,
                                       params, rng=np.random.default_rng(5))
            assert log.policy == ref.policy
            assert log.modes == ref.modes
            assert log.slots == [log.keys.index(mode) for mode in ref.modes]
            assert log.categories == ref.categories
            assert log.phases == ref.phases
            assert log.triggers == ref.triggers
            assert log.learn_calls == ref.learn_calls
            assert log.switch_count == ref.switch_count
            assert log.to_rows() == ref.to_rows()

    def test_an_empty_block_is_no_switch(self):
        # the stream ends just as SPA's first LEARN batch moves to another
        # mode: that send records a run of no frames, which switches nothing
        params = SpaParams(w=5)
        served = []

        def execute(mode, n):
            served.append(mode)
            return bytes([2] * n) if len(served) == 1 else b""

        log = run_policy("SPA", execute, MODES6, params)
        assert served == [MODES6[0], MODES6[3]]
        assert log.runs == [(1, "operating", 5), (4, "learning", 0)]
        assert log.slots == [1] * 5
        assert log.switch_count == 0
        assert [row[4] for row in log.to_rows()] == [0] * 5
        ref = run_policy_per_frame("SPA", frame_executor(np.full((7, 5), 2), (None, *MODES6)),
                                   MODES6, params)
        assert log.modes == ref.modes
        assert log.switch_count == ref.switch_count
        assert log.to_rows() == ref.to_rows()

    @pytest.mark.parametrize("length", [0, 1, 7, 860])
    @pytest.mark.parametrize("policy", ["DT", "Fixed:R1R3"])
    def test_a_fixed_run_is_one_run_over_the_whole_table(self, policy, length):
        # a DT or fixed-mode run asks for the rest of the stream in one call
        column = bytes(np.random.default_rng(length).integers(0, 3, length).tolist())
        mode = None if policy == "DT" else Mode((1, 3))
        log = run_policy(policy, table_executor({mode: column}), MODES6)
        assert log.keys == (mode,)
        assert log.runs == [(0, "operating", length)]
        assert log.categories == list(column)

    @pytest.mark.parametrize("category, runs, triggers", [
        # no failure: the stream ends as the first window extension starts
        (0, [(1, "operating", 5), (1, "operating", 0)], []),
        # all failures: the trigger is due at frame 5, and the stream ends
        # as LEARN's first batch starts on the rotated-in slot 4, before
        # any LearnCall is logged
        (2, [(1, "operating", 5), (4, "learning", 0)], [5])])
    def test_a_stream_ending_on_a_block_boundary_adds_one_empty_run(
            self, category, runs, triggers):
        params = SpaParams(w=5)
        table = np.full((len(MODES6) + 1, 5), category)
        keys = (None, *MODES6)
        log = run_policy("SPA", table_executor(
            {key: bytes(row.tolist()) for key, row in zip(keys, table)}), MODES6, params)
        assert log.runs == runs
        assert log.triggers == triggers
        assert log.learn_calls == []
        # the empty run changes none of the per-frame columns
        trimmed = PolicyRunLog(log.policy, log.keys, log.runs[:-1], log.categories)
        assert (log.slots, log.phases, log.modes) == (
            trimmed.slots, trimmed.phases, trimmed.modes)
        assert log.switch_count == trimmed.switch_count == 0
        assert log.to_rows() == trimmed.to_rows() == [
            [i, "R1", category, "operating", 0] for i in range(5)]
        ref = run_policy_per_frame("SPA", frame_executor(table, keys), MODES6, params)
        assert (log.modes, log.phases, log.triggers) == (ref.modes, ref.phases, ref.triggers)
        assert log.to_rows() == ref.to_rows()
