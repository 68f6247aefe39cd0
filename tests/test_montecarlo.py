import itertools
import json
import math
import sys
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fockamp import (
    DiagonalState,
    FockSpace,
    NumberStats,
    ReservoirSpec,
    SampleStats,
    ScenarioSpec,
    analytic_variance,
    moments,
    number_op,
    reservoir_draws,
    run_mode_sweep,
    run_scenario,
    thermal_state,
    var_g_modes,
    var_multistep_multi,
    var_multistep_single,
    var_single_mode,
)
from fockamp.cli import main
from fockamp.montecarlo import _BLOCK, _TILE, MAX_DRAWS, _power_sums, _slot_keys, _stats_from_power_sums, _uniforms


def z_score(stats, target):
    if stats.std_error_of_variance == 0.0:
        return 0.0 if stats.variance == target else math.inf
    return (stats.variance - target) / stats.std_error_of_variance


def closed_form_variance(spec):
    """Each model's variance from its own formula, not from the sampler's weight table."""
    a, b = NumberStats(float(spec.input_n_a), 0.0), spec.reservoir.stats
    if spec.model == "SingleMode":
        return var_single_mode(spec.gain_G, a, b)
    if spec.model == "GModes":
        return var_g_modes(spec.gain_G, a, b)
    if spec.model == "MultiStepSingle":
        return var_multistep_single(spec.gain_G, spec.step_gain_g, a, b)
    if spec.model == "MultiStepMulti":
        return var_multistep_multi(spec.gain_G, spec.step_gain_g, a, b)
    if spec.model == "Shelving":
        return spec.cavity_mode_count * b.variance
    return spec.gain_G * spec.mode_budget * b.variance  # Multiplexed


def spelled_out_weights(spec):
    """Every draw's weight written out in slot order: the sampler's (w, m) classes expanded."""
    big_g = spec.gain_G
    if spec.model == "SingleMode":
        return [1]
    if spec.model == "GModes":
        return [1] * big_g
    g, n_steps = spec.step_gain_g, spec.steps_N
    if spec.model == "MultiStepSingle":
        return [g ** (n_steps - k) for k in range(1, n_steps + 1)]
    if spec.model == "MultiStepMulti":
        weights = []
        for n in range(1, n_steps + 1):
            weights.extend([g ** (n_steps - n)] * (g**n))
        return weights
    if spec.model == "Multiplexed":
        return [1] * (big_g * spec.mode_budget)
    return [1] * spec.cavity_mode_count  # Shelving


def brute_force_power_sums(spec, trial_offset, slots=None):
    """Draw every slot (the first ``slots`` when given) for every trial and sum x, x^2, x^3, x^4 in Python ints."""
    x = [spec.gain_G * spec.input_n_a] * spec.trials
    for j, w in enumerate(spelled_out_weights(spec)[:slots]):
        draws = spec.reservoir._draw_block(_uniforms(spec.seed, j, trial_offset, spec.trials)).tolist()
        x = [v + w * d for v, d in zip(x, draws)]
    return tuple(sum(v**k for v in x) for k in (1, 2, 3, 4))


def reservoir_cumulants(reservoir):
    """(k1, k2, k4) of one reservoir draw, from its law rather than from the sampler."""
    if reservoir.kind == "fock":
        return float(reservoir.n), 0.0, 0.0
    if reservoir.kind == "thermal":
        nu = reservoir.nbar  # geometric law with mean nu
        k2 = nu * (nu + 1.0)
        return nu, k2, k2 * (6.0 * nu * nu + 6.0 * nu + 1.0)
    p = np.array(reservoir.probs)
    k = np.arange(p.size)
    mean = float(p @ k)
    mu2, mu4 = float(p @ (k - mean) ** 2), float(p @ (k - mean) ** 4)
    return mean, mu2, mu4 - 3.0 * mu2 * mu2


def exact_output_moments(spec):
    """Exact mean and variance of one trial's output, and the exact variance of the sample variance.

    Cumulants add over the independent weighted draws, k_r(X) = sum_j w_j^r k_r(b),
    so Var(s^2) = k4/n + 2 k2^2/(n-1) holds exactly for n = spec.trials.
    """
    b1, b2, b4 = reservoir_cumulants(spec.reservoir)
    weights = spelled_out_weights(spec)
    k1 = spec.gain_G * spec.input_n_a + b1 * sum(weights)
    k2 = b2 * sum(w**2 for w in weights)
    k4 = b4 * sum(w**4 for w in weights)
    n = spec.trials
    return k1, k2, k4 / n + 2.0 * k2 * k2 / (n - 1)


def chi2_upper(dof, z=5.0):
    """Wilson-Hilferty quantile of the chi-square law at the one-sided normal level z (about 3e-7 at z = 5)."""
    c = 2.0 / (9.0 * dof)
    return dof * (1.0 - c + z * math.sqrt(c)) ** 3


GAIN_GRID = {
    "SingleMode": [dict(gain_G=g) for g in (1, 2, 7, 50)],
    "GModes": [dict(gain_G=g) for g in (1, 2, 7, 50)],
    "MultiStepSingle": [dict(step_gain_g=g, steps_N=n) for g in (2, 3, 5) for n in (1, 2, 4)],
    "MultiStepMulti": [dict(step_gain_g=g, steps_N=n) for g in (2, 3, 5) for n in (1, 2, 4)],
    "Shelving": [dict(gain_G=g, cavity_mode_count=m) for g in (1, 4, 9) for m in range(1, g + 1)],
    "Multiplexed": [dict(gain_G=g, mode_budget=b) for g in (1, 4, 9) for b in (2, 5)],
}
GRID_RESERVOIRS = [
    ReservoirSpec.fock(0),
    ReservoirSpec.fock(3),
    ReservoirSpec.thermal(0.2),
    ReservoirSpec.thermal(1.0),
    ReservoirSpec.thermal(3.7),
    ReservoirSpec.empirical([0.1, 0.2, 0.3, 0.4]),
]


class TestReservoirSpec:
    def test_fock_stats_and_draws(self):
        spec = ReservoirSpec.fock(3)
        assert (spec.stats.mean, spec.stats.variance) == (3.0, 0.0)
        assert np.array_equal(reservoir_draws(spec, 100, seed=1), np.full(100, 3))
        assert reservoir_draws(ReservoirSpec.fock(0), 1, seed=1)[0] == 0

    def test_thermal_stats(self):
        spec = ReservoirSpec.thermal(0.4)
        assert spec.stats.mean == 0.4
        assert spec.stats.variance == pytest.approx(0.4 * 1.4)

    def test_empirical_validation(self):
        spec = ReservoirSpec.empirical([0.25, 0.5, 0.25])
        assert spec.stats.mean == pytest.approx(1.0)
        with pytest.raises(ValueError):
            ReservoirSpec.empirical([0.7, 0.2])  # does not sum to 1
        with pytest.raises(ValueError):
            ReservoirSpec.empirical([1.2, -0.2])
        with pytest.raises(ValueError):
            ReservoirSpec("weird")

    def test_a_law_at_the_sum_tolerance_edge_is_judged_once(self):
        # 10**5 masses of 4e-17 vanish one by one into a sequential sum, but not into numpy's pairwise one
        with pytest.raises(ValueError, match="sum to"):
            ReservoirSpec.empirical([1 - 0.5e-12] + [4e-17] * 100_000)
        spec = ReservoirSpec.empirical([1 - 0.5e-12] + [4e-17] * 10_000)
        assert spec.stats == DiagonalState(FockSpace(10_000), spec.probs).number_stats()
        scenario = ScenarioSpec(model="SingleMode", input_n_a=1, reservoir=spec, trials=10, seed=1, gain_G=2)
        assert math.isfinite(analytic_variance(scenario))
        with pytest.raises(ValueError, match="length"):
            ReservoirSpec.empirical([])

    @pytest.mark.parametrize("nbar", [1e17, 1e19, 1e300])
    def test_thermal_mean_whose_q_rounds_to_one_is_refused(self, nbar):
        with pytest.raises(ValueError, match="rounds to 1"):
            ReservoirSpec.thermal(nbar)

    def test_labels(self):
        assert ReservoirSpec.fock(2).label == "fock(2)"
        assert ReservoirSpec.thermal(0.5).label == "thermal(0.5)"

    def test_thermal_sampler_moments(self):
        # oracle: geometric law has mean nbar and variance nbar*(nbar+1)
        draws = reservoir_draws(ReservoirSpec.thermal(1.0), 1_000_000, seed=99)
        mean = draws.mean()
        var = draws.var(ddof=1)
        assert abs(mean - 1.0) <= 0.01
        assert abs(var - 2.0) <= 0.03

    def test_thermal_sampler_matches_truncated_state(self):
        # cross-check against the dense-state construction at a large cutoff
        draws = reservoir_draws(ReservoirSpec.thermal(0.6), 400_000, seed=5)
        st = thermal_state(FockSpace(60), 0.6)
        dense = moments(st, number_op(st.space))
        assert abs(draws.mean() - dense.mean) <= 0.01
        counts = np.bincount(draws, minlength=8)[:8] / draws.size
        assert np.max(np.abs(counts - st.probs[:8])) <= 0.005

    def test_empirical_sampler_hits_distribution(self):
        spec = ReservoirSpec.empirical([0.5, 0.0, 0.5])
        draws = reservoir_draws(spec, 200_000, seed=11)
        assert set(np.unique(draws)) == {0, 2}
        assert abs((draws == 0).mean() - 0.5) <= 0.005

    def test_empirical_uniform_past_the_last_cdf_value_draws_the_top_level(self):
        # the law sums to just under 1, so the largest uniform lies beyond its cdf: clamped to level 1, not 2
        spec = ReservoirSpec.empirical([0.5, 0.5 - 1e-13])
        assert spec._draw_block(np.array([1.0 - 2.0**-53])).tolist() == [1]

    @pytest.mark.parametrize(
        "spec",
        [
            ReservoirSpec.thermal(0.6),
            ReservoirSpec.thermal(4.0),
            ReservoirSpec.empirical([0.1, 0.0, 0.25, 0.05, 0.6]),
            ReservoirSpec.empirical([0.4, 0.3, 0.2, 0.1]),
        ],
    )
    def test_draws_follow_their_law(self, spec):
        # chi-square of 2**20 draws against the exact pmf: a transform bug that keeps the
        # first two moments still moves the shape, which a variance z-test cannot see
        count = 1 << 20
        draws = reservoir_draws(spec, count, seed=2718)
        if spec.kind == "thermal":
            q = spec.nbar / (spec.nbar + 1.0)
            tail = math.ceil(math.log(20.0 / count) / math.log(q))  # about 20 draws expected at or beyond it
            pmf = np.append((1.0 - q) * q ** np.arange(tail), q**tail)
            observed = np.bincount(np.minimum(draws, tail), minlength=tail + 1)
        else:
            pmf = np.array(spec.probs)
            observed = np.bincount(draws, minlength=pmf.size)
            assert observed.size == pmf.size and not observed[pmf == 0].any()
            pmf, observed = pmf[pmf > 0], observed[pmf > 0]
        expected = count * pmf
        chi2 = float(((observed - expected) ** 2 / expected).sum())
        assert chi2 <= chi2_upper(pmf.size - 1), (chi2, pmf.size - 1)


class TestScenarioValidation:
    def test_unknown_model(self):
        with pytest.raises(ValueError):
            ScenarioSpec(model="Parametric", input_n_a=1, reservoir=ReservoirSpec.fock(0), trials=10, seed=1, gain_G=2)

    def test_multistep_gain_consistency(self):
        with pytest.raises(ValueError):
            ScenarioSpec(
                model="MultiStepSingle",
                input_n_a=0,
                reservoir=ReservoirSpec.fock(0),
                trials=10,
                seed=1,
                gain_G=9,
                step_gain_g=2,
                steps_N=3,
            )
        spec = ScenarioSpec(
            model="MultiStepMulti",
            input_n_a=0,
            reservoir=ReservoirSpec.fock(0),
            trials=10,
            seed=1,
            step_gain_g=2,
            steps_N=3,
        )
        assert spec.gain_G == 8
        with pytest.raises(ValueError, match="MultiStepSingle requires a step gain g"):
            ScenarioSpec(model="MultiStepSingle", input_n_a=0, reservoir=ReservoirSpec.fock(0), trials=10, seed=1, gain_G=8)

    def test_shelving_mode_count_range(self):
        base = dict(model="Shelving", input_n_a=1, reservoir=ReservoirSpec.fock(0), trials=10, seed=1, gain_G=4)
        with pytest.raises(ValueError):
            ScenarioSpec(cavity_mode_count=0, **base)
        with pytest.raises(ValueError):
            ScenarioSpec(cavity_mode_count=5, **base)
        ScenarioSpec(cavity_mode_count=4, **base)

    def test_multiplexed_budget(self):
        base = dict(model="Multiplexed", reservoir=ReservoirSpec.fock(0), trials=10, seed=1, gain_G=5)
        with pytest.raises(ValueError):
            ScenarioSpec(input_n_a=3, mode_budget=2, **base)
        spec = ScenarioSpec(input_n_a=2, **base)
        assert spec.mode_budget == 2

    def test_trials_floor(self):
        with pytest.raises(ValueError):
            ScenarioSpec(model="SingleMode", input_n_a=1, reservoir=ReservoirSpec.fock(0), trials=0, seed=1, gain_G=2)

    def test_gain_must_be_integer(self):
        with pytest.raises(ValueError):
            ScenarioSpec(model="SingleMode", input_n_a=1, reservoir=ReservoirSpec.fock(0), trials=10, seed=1, gain_G=4.5)

    def test_int64_overflow_is_refused_before_sampling(self):
        def spec(model, gain, n_a, reservoir):
            return ScenarioSpec(model=model, input_n_a=n_a, reservoir=reservoir, trials=2, seed=1, gain_G=gain)

        # the largest trial output G*n_a + max_draw*sum(w) must stay below 2**63
        assert run_scenario(spec("SingleMode", 1, 2**63 - 1, ReservoirSpec.fock(0))).mean == float(2**63 - 1)
        for args in (
            ("SingleMode", 1, 2**63, ReservoirSpec.fock(0)),
            ("SingleMode", 16, 2**60, ReservoirSpec.thermal(0.5)),
            ("GModes", 8, 0, ReservoirSpec.fock(2**61)),
            ("GModes", 2, 0, ReservoirSpec.fock(2**62)),
        ):
            with pytest.raises(ValueError, match="int64"):
                spec(*args)
        spec("GModes", 2, 0, ReservoirSpec.fock(2**62 - 1))
        # a thermal draw is at most floor(log(2**-53) / log q), 36766186968084872 at nbar 1e15
        spec("GModes", 250, 0, ReservoirSpec.thermal(1e15))
        with pytest.raises(ValueError, match="int64"):
            spec("GModes", 251, 0, ReservoirSpec.thermal(1e15))

    def test_draw_bound_counts_trials_times_draw_slots(self):
        def spec(reservoir, trials):  # 2**11 - 2 = 2046 draw slots per trial
            return ScenarioSpec(
                model="MultiStepMulti", input_n_a=0, reservoir=reservoir, trials=trials, seed=1, step_gain_g=2, steps_N=10
            )

        spec(ReservoirSpec.thermal(1.0), MAX_DRAWS // 2046)
        for reservoir in (ReservoirSpec.thermal(1.0), ReservoirSpec.empirical([0.5, 0.5])):
            with pytest.raises(ValueError, match="MAX_DRAWS"):
                spec(reservoir, MAX_DRAWS // 2046 + 1)
        # a reservoir that always draws the same count runs in O(1) at any trial count
        for reservoir in (ReservoirSpec.fock(1), ReservoirSpec.thermal(0.0), ReservoirSpec.empirical([1.0])):
            spec(reservoir, 10**400)

    def test_cascade_construction_is_linear_in_steps(self):
        # 2**21 - 2 draws per trial, but only 20 weight classes are ever built
        tracemalloc.start()
        try:
            spec = ScenarioSpec(
                model="MultiStepMulti",
                input_n_a=0,
                reservoir=ReservoirSpec.thermal(0.1),
                trials=1,
                seed=1,
                step_gain_g=2,
                steps_N=20,
            )
            analytic_variance(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_weight_sum_of_squares_bound_is_the_float_maximum(self):
        def spec(budget):  # one class of G * budget draw slots of weight 1; a Fock reservoir draws nothing
            return ScenarioSpec(
                model="Multiplexed",
                input_n_a=0,
                reservoir=ReservoirSpec.fock(0),
                trials=2,
                seed=1,
                gain_G=int(sys.float_info.max),
                mode_budget=budget,
            )

        spec(1)  # the sum is exactly the float maximum
        with pytest.raises(ValueError, match="weight sum of squares"):
            spec(2)

    def test_draw_bound_admits_exactly_max_draws(self):
        def spec(trials):
            return ScenarioSpec(
                model="SingleMode", input_n_a=0, reservoir=ReservoirSpec.thermal(1.0), trials=trials, seed=1, gain_G=1
            )

        spec(MAX_DRAWS)
        with pytest.raises(ValueError, match="MAX_DRAWS"):
            spec(MAX_DRAWS + 1)

    @pytest.mark.parametrize("nbar", [1e-300, 0.2, 0.5, 3.7, 1e3, 1e9, 1e15])
    def test_max_draw_is_the_largest_thermal_draw(self, nbar):
        spec = ReservoirSpec.thermal(nbar)
        assert spec._max_draw == int(spec._draw_block(np.array([1.0 - 2.0**-53]))[0])


class TestRunScenario:
    def test_deterministic_single_mode(self):
        spec = ScenarioSpec(
            model="SingleMode", input_n_a=1, reservoir=ReservoirSpec.fock(0), trials=5000, seed=3, gain_G=50
        )
        stats = run_scenario(spec)
        assert stats.mean == 50.0
        assert stats.variance == 0.0
        assert stats.std_error_of_variance == 0.0

    def test_reproducible_and_seed_sensitive(self):
        spec = ScenarioSpec(
            model="GModes", input_n_a=1, reservoir=ReservoirSpec.thermal(1.0), trials=40_000, seed=17, gain_G=4
        )
        first, second = run_scenario(spec), run_scenario(spec)
        assert first == second  # bitwise identical stats
        other = run_scenario(
            ScenarioSpec(model="GModes", input_n_a=1, reservoir=ReservoirSpec.thermal(1.0), trials=40_000, seed=18, gain_G=4)
        )
        assert other != first
        pooled_se = math.hypot(first.std_error_of_variance, other.std_error_of_variance)
        assert abs(other.variance - first.variance) <= 5 * pooled_se

    @pytest.mark.parametrize(
        "reservoir", [ReservoirSpec.fock(3), ReservoirSpec.thermal(0.0), ReservoirSpec.empirical([1.0])]
    )
    def test_draw_free_reservoir_never_reaches_the_generator(self, reservoir, monkeypatch):
        # the public draws of a draw-free law are _max_draw everywhere, from the one draw-free branch of _draw_block
        assert reservoir._draw_free
        assert reservoir_draws(reservoir, 1000, seed=5, draw_index=2).tolist() == [reservoir._max_draw] * 1000

        def refuse(*args):
            raise AssertionError("a reservoir that always draws the same count needs no uniforms")

        monkeypatch.setattr("fockamp.montecarlo._slot_keys", refuse)
        spec = ScenarioSpec(
            model="MultiStepMulti", input_n_a=2, reservoir=reservoir, trials=1000, seed=5, step_gain_g=2, steps_N=3
        )
        stats = run_scenario(spec)
        assert (stats.mean, stats.variance) == (8 * 2 + reservoir._max_draw * (4 * 2 + 2 * 4 + 8), 0.0)

    def test_trial_splitting_pools_exactly(self):
        def spec(trials):
            return ScenarioSpec(
                model="GModes", input_n_a=2, reservoir=ReservoirSpec.thermal(0.7), trials=trials, seed=23, gain_G=4
            )

        full = run_scenario(spec(30_000))
        lo = run_scenario(spec(15_000))
        hi = run_scenario(spec(15_000), trial_offset=15_000)
        pooled_mean = (lo.mean * 15_000 + hi.mean * 15_000) / 30_000
        assert pooled_mean == full.mean

    @settings(max_examples=25, deadline=None)
    @given(
        model=st.sampled_from(
            [
                dict(model="SingleMode", gain_G=3),
                dict(model="GModes", gain_G=3),
                dict(model="MultiStepSingle", step_gain_g=2, steps_N=2),
                dict(model="MultiStepMulti", step_gain_g=2, steps_N=2),
                dict(model="Shelving", gain_G=4, cavity_mode_count=2),
                dict(model="Multiplexed", gain_G=2, mode_budget=2),
            ]
        ),
        reservoir=st.sampled_from(
            [ReservoirSpec.fock(2), ReservoirSpec.thermal(0.7), ReservoirSpec.empirical([0.5, 0.2, 0.3])]
        ),
        n_a=st.integers(min_value=0, max_value=2),
        seed=st.integers(min_value=-(2**70), max_value=2**70),
        trials=st.integers(min_value=2, max_value=_BLOCK + 64),
        fraction=st.floats(min_value=0.0, max_value=1.0),
    )
    # both parts and the whole cross a generator block boundary
    @example(dict(model="GModes", gain_G=3), ReservoirSpec.thermal(0.7), 1, 9, 2 * _BLOCK + 5, 0.6)
    def test_power_sums_split_and_merge_exactly(self, model, reservoir, n_a, seed, trials, fraction):
        split = 1 + round(fraction * (trials - 2))

        def sums(count, offset):
            spec = ScenarioSpec(input_n_a=n_a, reservoir=reservoir, trials=count, seed=seed, **model)
            return _power_sums(spec, offset)

        head, tail = sums(split, 0), sums(trials - split, split)
        assert tuple(x + y for x, y in zip(head, tail)) == sums(trials, 0)

    @settings(max_examples=60, deadline=None)
    @given(
        model=st.sampled_from(
            [
                dict(model="SingleMode", gain_G=3),
                dict(model="GModes", gain_G=3),
                dict(model="MultiStepSingle", step_gain_g=3, steps_N=3),
                dict(model="MultiStepMulti", step_gain_g=2, steps_N=3),
                dict(model="MultiStepMulti", step_gain_g=3, steps_N=2),
                dict(model="Shelving", gain_G=4, cavity_mode_count=3),
                dict(model="Multiplexed", gain_G=2),  # no draws at all when n_a = 0
            ]
        ),
        reservoir=st.sampled_from(
            [
                ReservoirSpec.fock(0),
                ReservoirSpec.fock(2),
                ReservoirSpec.thermal(0.0),
                ReservoirSpec.thermal(0.7),
                ReservoirSpec.empirical([1.0]),
                ReservoirSpec.empirical([0.5, 0.2, 0.3]),
                ReservoirSpec.thermal(1e5),
            ]
        ),
        n_a=st.integers(min_value=0, max_value=2),
        seed=st.integers(min_value=-(2**70), max_value=2**70),
        trials=st.integers(min_value=1, max_value=40),
        offset=st.integers(min_value=0, max_value=2**40),
    )
    # a full block whose x**4 sums leave the int64 range many times over
    @example(dict(model="SingleMode", gain_G=3), ReservoirSpec.thermal(1e5), 2, 9, _BLOCK, 0)
    def test_power_sums_match_per_slot_brute_force(self, model, reservoir, n_a, seed, trials, offset):
        spec = ScenarioSpec(input_n_a=n_a, reservoir=reservoir, trials=trials, seed=seed, **model)
        assert _power_sums(spec, offset) == brute_force_power_sums(spec, offset)
        weights = spelled_out_weights(spec)
        assert analytic_variance(spec) == sum(w * w for w in weights) * reservoir.stats.variance

    def test_a_weight_class_draws_its_slots_in_one_call(self, monkeypatch):
        calls = []

        def counted(seed, slots):
            calls.append(np.size(slots))
            return _slot_keys(seed, slots)

        monkeypatch.setattr("fockamp.montecarlo._slot_keys", counted)
        spec = ScenarioSpec(
            model="MultiStepMulti", input_n_a=1, reservoir=ReservoirSpec.thermal(1.0), trials=2, seed=5, step_gain_g=2, steps_N=11
        )
        _power_sums(spec, 0)
        # one key call per cascade step, 2 + 4 + ... + 2**11 = 4094 slots in all, where one call per slot made 4094
        assert calls == [2**n for n in range(1, 12)]

    @pytest.mark.parametrize("trials,offset", [(11, 0), (19, 6), (3, 2**40), (9, 5)])
    def test_slot_chunks_and_trial_blocks_match_brute_force(self, trials, offset, monkeypatch):
        # 8-trial blocks in 3-uniform tiles: a 3-trial block takes 2 slots per chunk, so classes of 3, 9 and 27 slots
        # split raggedly; an 8-trial block walks tiles of 3, 3 and 2 trials; a 1-trial block 8-slot chunks in tiles
        # of 3, 3 and 2 slots
        monkeypatch.setattr("fockamp.montecarlo._BLOCK", 8)
        monkeypatch.setattr("fockamp.montecarlo._TILE", 3)
        spec = ScenarioSpec(
            model="MultiStepMulti",
            input_n_a=1,
            reservoir=ReservoirSpec.empirical([0.5, 0.2, 0.3]),
            trials=trials,
            seed=-(2**65) - 3,
            step_gain_g=3,
            steps_N=3,
        )
        assert _power_sums(spec, offset) == brute_force_power_sums(spec, offset)

    @pytest.mark.parametrize("reservoir", [ReservoirSpec.thermal(0.7), ReservoirSpec.fock(2)], ids=lambda r: r.label)
    def test_readouts_match_brute_force_on_each_slot_prefix(self, reservoir, monkeypatch):
        # 2 slots per chunk at 3 trials; readouts cut chunks inside and at the ends of the classes of 2, 4 and 8 slots,
        # and each slot's 3 trials cross tiles of 2 and 1
        monkeypatch.setattr("fockamp.montecarlo._BLOCK", 8)
        monkeypatch.setattr("fockamp.montecarlo._TILE", 2)
        spec = ScenarioSpec(
            model="MultiStepMulti", input_n_a=1, reservoir=reservoir, trials=3, seed=-5, step_gain_g=2, steps_N=3
        )
        readouts = [1, 2, 3, 5, 9, 14]
        assert _power_sums(spec, 7, readouts) == [brute_force_power_sums(spec, 7, k) for k in readouts]

    def test_readouts_inside_a_chunk_whose_trials_cross_several_tiles(self):
        # a block of 1.5 tiles plus 3 trials: 2 slots per chunk, each slot in a full tile and a ragged one
        trials = _TILE * 3 // 2 + 3
        spec = ScenarioSpec(
            model="Shelving", input_n_a=1, reservoir=ReservoirSpec.thermal(0.7), trials=trials, seed=11, gain_G=5, cavity_mode_count=5
        )
        readouts = [1, 2, 3, 5]
        assert _power_sums(spec, 3, readouts) == [brute_force_power_sums(spec, 3, k) for k in readouts]

    @settings(max_examples=40, deadline=None)
    @given(
        model=st.sampled_from(
            [
                dict(model="SingleMode", gain_G=3),
                dict(model="MultiStepMulti", step_gain_g=2, steps_N=3),
                dict(model="Shelving", gain_G=7, cavity_mode_count=7),
            ]
        ),
        reservoir=st.sampled_from([ReservoirSpec.thermal(0.7), ReservoirSpec.empirical([0.5, 0.2, 0.3])]),
        seed=st.integers(min_value=-(2**70), max_value=2**70),
        trials=st.integers(min_value=2, max_value=40),
        offset=st.integers(min_value=0, max_value=2**40),
        block=st.sampled_from([8, 13, _BLOCK]),
        cut=st.integers(min_value=1, max_value=14),
    )
    def test_power_sums_do_not_depend_on_the_tile(self, model, reservoir, seed, trials, offset, block, cut):
        spec = ScenarioSpec(input_n_a=1, reservoir=reservoir, trials=trials, seed=seed, **model)
        slots = len(spelled_out_weights(spec))
        readouts = sorted({min(cut, slots), slots})
        runs = []
        for tile in (1, 3, 8, _TILE):
            with mock.patch.multiple("fockamp.montecarlo", _BLOCK=block, _TILE=tile):
                runs.append(_power_sums(spec, offset, readouts))
        assert runs == [[brute_force_power_sums(spec, offset, k) for k in readouts]] * 4

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=-(2**70), max_value=2**70),
        slots=st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=6),
        start=st.integers(min_value=0, max_value=2**40),
        count=st.integers(min_value=0, max_value=20),
    )
    @example(seed=-1, slots=[2**64 - 1, 0], start=2**33, count=3)
    def test_uniforms_on_a_slot_array_stack_the_single_slot_rows(self, seed, slots, start, count):
        rows = _uniforms(seed, np.array(slots, dtype=np.uint64), start, count)
        single = np.stack([_uniforms(seed, j, start, count) for j in slots])
        assert rows.shape == (len(slots), count) == single.shape
        assert np.array_equal(rows, single)

    @pytest.mark.parametrize(
        "model,kwargs",
        [
            ("SingleMode", dict(gain_G=8)),
            ("GModes", dict(gain_G=8)),
            ("MultiStepSingle", dict(step_gain_g=2, steps_N=3)),
            ("MultiStepMulti", dict(step_gain_g=2, steps_N=3)),
            ("Shelving", dict(gain_G=6, cavity_mode_count=3)),
            ("Multiplexed", dict(gain_G=4, mode_budget=2)),
        ],
    )
    def test_variance_matches_closed_form(self, model, kwargs):
        # exact: the weight-table variance sum(w^2) * var_b is each model's closed form
        for grid_kwargs, reservoir, n_a in itertools.product(GAIN_GRID[model], GRID_RESERVOIRS, (0, 1, 2)):
            spec = ScenarioSpec(model=model, input_n_a=n_a, reservoir=reservoir, trials=1, seed=0, **grid_kwargs)
            assert analytic_variance(spec) == closed_form_variance(spec), spec
        # statistical: the sampler agrees with the closed form
        spec = ScenarioSpec(
            model=model, input_n_a=1, reservoir=ReservoirSpec.thermal(1.0), trials=150_000, seed=31, **kwargs
        )
        stats = run_scenario(spec)
        assert abs(z_score(stats, closed_form_variance(spec))) <= 4.0

    @pytest.mark.parametrize(
        "model,kwargs",
        [
            ("SingleMode", dict(gain_G=6)),
            ("GModes", dict(gain_G=6)),
            ("MultiStepSingle", dict(step_gain_g=4, steps_N=2)),
            ("MultiStepMulti", dict(step_gain_g=4, steps_N=2)),
        ],
    )
    def test_signal_content(self, model, kwargs):
        def run(n_a):
            return run_scenario(
                ScenarioSpec(
                    model=model, input_n_a=n_a, reservoir=ReservoirSpec.thermal(0.5), trials=120_000, seed=37, **kwargs
                )
            )

        gain = 6 if "gain_G" in kwargs else 16
        with_signal, background = run(2), run(0)
        se_mean = math.sqrt(
            with_signal.variance / with_signal.count + background.variance / background.count
        )
        assert abs((with_signal.mean - background.mean) - gain * 2) <= 4 * se_mean

    def test_multistep_single_background_mean(self):
        spec = ScenarioSpec(
            model="MultiStepSingle",
            input_n_a=0,
            reservoir=ReservoirSpec.thermal(0.5),
            trials=200_000,
            seed=41,
            step_gain_g=2,
            steps_N=3,
        )
        stats = run_scenario(spec)
        # background mean is sum_k g^(N-k) * nbar = (4+2+1)*0.5
        se = math.sqrt(stats.variance / stats.count)
        assert abs(stats.mean - 3.5) <= 4 * se
        assert abs(z_score(stats, 15.75)) <= 4.0


class TestExactEstimators:
    @settings(max_examples=200, deadline=None)
    @given(
        shift=st.integers(min_value=0, max_value=2**40),
        spread=st.lists(st.integers(min_value=0, max_value=2**20), min_size=1, max_size=40),
    )
    @example(2**40, [0, 1, 2, 3, 3, 7])
    def test_estimators_are_the_exact_values_rounded_once(self, shift, spread):
        x = [shift + v for v in spread]
        n = len(x)
        sums = [sum(v**k for v in x) for k in (1, 2, 3, 4)]
        if n == 1:  # one sample has no variance to estimate
            with pytest.raises(ValueError, match="a variance's trial count must be an integer >= 2, got 1"):
                _stats_from_power_sums(n, *sums)
            return
        stats = _stats_from_power_sums(n, *sums)
        mean = Fraction(sum(x), n)
        m2 = sum((v - mean) ** 2 for v in x) / n
        m4 = sum((v - mean) ** 4 for v in x) / n
        variance = m2 * n / (n - 1)
        var_of_var = (m4 - Fraction(n - 3, n - 1) * m2 * m2) / n
        assert stats.mean == float(mean)
        assert stats.variance == float(variance)
        assert stats.std_error_of_variance == math.sqrt(float(var_of_var))

    def test_sample_stats_invariants(self):
        for count in (0, 1):  # one sample has no variance to estimate, as in run_scenario and run_mode_sweep
            with pytest.raises(ValueError, match=f"a variance's trial count must be an integer >= 2, got {count}"):
                SampleStats(count, 0.0, 0.0, 0.0)
        for variance in (-1.0, math.nan, math.inf):  # the one real check: a real >= 0 within the float range
            with pytest.raises(ValueError, match="variance must be a real number"):
                SampleStats(2, 0.0, variance, 0.0)
        assert SampleStats(2, 0.0, 0.0, 0.0).count == 2

    @pytest.mark.parametrize(
        "field,bad,why",
        [
            *(("mean", bad, "within the float range") for bad in (math.nan, math.inf, -math.inf)),
            *(("std_error_of_variance", bad, "within the float range") for bad in (math.nan, math.inf)),
            ("std_error_of_variance", -1.0, ">= 0"),
        ],
    )
    def test_sample_stats_refuse_a_non_finite_mean_or_error_bar(self, field, bad, why):
        fields = {"count": 2, "mean": 0.0, "variance": 0.0, "std_error_of_variance": 0.0, field: bad}
        with pytest.raises(ValueError, match=f"{field} must be a real number {why}, got {bad}"):
            SampleStats(**fields)

    def test_one_trial_run_is_refused(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a one-trial run is refused before any uniforms are drawn")

        monkeypatch.setattr("fockamp.montecarlo._slot_keys", refuse)
        spec = ScenarioSpec(model="SingleMode", input_n_a=1, reservoir=ReservoirSpec.thermal(1.0), trials=1, seed=5, gain_G=2)
        with pytest.raises(ValueError, match="a variance's trial count must be an integer >= 2, got 1"):
            run_scenario(spec)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(model="Shelving", trials=1, cavity_mode_count=3), "a variance's trial count must be an integer >= 2, got 1"),
            (dict(model="GModes", trials=1000), "a mode sweep needs a Shelving spec, got GModes"),
        ],
        ids=["one-trial", "not-shelving"],
    )
    def test_mode_sweep_refusals_come_before_sampling(self, kwargs, message, monkeypatch):
        def refuse(*args):
            raise AssertionError("a refused sweep draws no uniforms")

        monkeypatch.setattr("fockamp.montecarlo._slot_keys", refuse)
        spec = ScenarioSpec(input_n_a=1, reservoir=ReservoirSpec.thermal(1.0), seed=5, gain_G=4, **kwargs)
        with pytest.raises(ValueError, match=message):
            run_mode_sweep(spec)

    # trial indices lie in [0, 2**64): with 10 trials, offset 2**64 - 3 would rerun trials 0..6 of offset 0
    @pytest.mark.parametrize("offset", [-1, 2**64, 2**64 - 3, 2**64 - 9, 2.5, "3", True, math.nan])
    def test_trial_offset_outside_the_counter_range_is_refused_before_sampling(self, offset, monkeypatch):
        def refuse(*args):
            raise AssertionError("a refused trial offset draws no uniforms")

        monkeypatch.setattr("fockamp.montecarlo._slot_keys", refuse)
        reservoir = ReservoirSpec.thermal(1.0)
        single = ScenarioSpec(model="SingleMode", input_n_a=1, reservoir=reservoir, trials=10, seed=5, gain_G=2)
        with pytest.raises(ValueError, match="trial_offset"):
            run_scenario(single, offset)
        with pytest.raises(ValueError, match="trial_offset"):
            run_mode_sweep(replace(single, model="Shelving", gain_G=3, cavity_mode_count=3), offset)

    def test_the_last_trial_offset_runs_up_to_trial_two_to_the_64_minus_one(self):
        single = ScenarioSpec(model="SingleMode", input_n_a=1, reservoir=ReservoirSpec.thermal(1.0), trials=10, seed=5, gain_G=2)
        offset = 2**64 - 10
        assert run_scenario(single, offset) == _stats_from_power_sums(10, *brute_force_power_sums(single, offset))
        shelving = replace(single, model="Shelving", gain_G=3, cavity_mode_count=3)
        assert run_mode_sweep(shelving, offset)[-1] == _stats_from_power_sums(10, *brute_force_power_sums(shelving, offset))

    def test_a_draw_free_spec_of_more_than_two_to_the_64_trials_runs_at_offset_0(self):
        single = ScenarioSpec(model="SingleMode", input_n_a=1, reservoir=ReservoirSpec.fock(2), trials=2**70, seed=5, gain_G=2)
        assert run_scenario(single) == SampleStats(2**70, 4.0, 0.0, 0.0)
        shelving = replace(single, model="Shelving", reservoir=ReservoirSpec.thermal(0), gain_G=3, cavity_mode_count=3)
        assert run_mode_sweep(shelving)[-1] == SampleStats(2**70, 3.0, 0.0, 0.0)
        for offset in (1, -1, "0"):
            with pytest.raises(ValueError, match="trial_offset"):
                run_scenario(single, offset)

    def test_signal_shift_leaves_variance_bitwise_unchanged(self):
        def run(gain, n_a):
            reservoir = ReservoirSpec.thermal(1.0)
            return run_scenario(
                ScenarioSpec(model="SingleMode", input_n_a=n_a, reservoir=reservoir, trials=200_000, seed=5, gain_G=gain)
            )

        background = run(50, 0)
        for gain, n_a in ((50, 1), (50, 100), (10**6, 1000), (2**20, 2**20)):  # G n_a = 50, 5000, 1e9, 2**40
            shifted = run(gain, n_a)
            assert (shifted.variance, shifted.std_error_of_variance) == (
                background.variance,
                background.std_error_of_variance,
            ), (gain, n_a)

    def test_mc_command_keeps_the_variance_under_a_large_mean(self, tmp_path):
        scenario = {"model": "SingleMode", "G": 1000000, "n_a": 1000, "reservoir": {"kind": "thermal", "nbar": 1.0}}
        config, out = tmp_path / "mc.json", tmp_path / "mc.csv"
        config.write_text(json.dumps({"scenarios": [scenario]}))
        assert main(["mc", "--config", str(config), "--out", str(out)]) == 0
        header, row = (line.split(",") for line in out.read_text().splitlines())
        cells = dict(zip(header, row))
        spec = ScenarioSpec(
            model="SingleMode",
            input_n_a=1000,
            reservoir=ReservoirSpec.thermal(1.0),
            trials=int(cells["trials"]),
            seed=int(cells["seed"]),
            gain_G=10**6,
        )
        _, k2, var_of_var = exact_output_moments(spec)
        assert k2 == 2.0 and abs(float(cells["variance"]) - k2) <= 6 * math.sqrt(var_of_var)
        assert math.isfinite(float(cells["z_score"]))


ORACLE_MODELS = [
    dict(model="SingleMode", gain_G=5),
    dict(model="GModes", gain_G=5),
    dict(model="MultiStepSingle", step_gain_g=2, steps_N=3),
    dict(model="MultiStepMulti", step_gain_g=2, steps_N=2),
    dict(model="Shelving", gain_G=6, cavity_mode_count=3),
    dict(model="Multiplexed", gain_G=3, mode_budget=2),
]
ORACLE_RESERVOIRS = [
    ReservoirSpec.thermal(0.3),
    ReservoirSpec.thermal(2.0),
    ReservoirSpec.empirical([0.1, 0.2, 0.3, 0.4]),
]


@pytest.mark.parametrize("reservoir", ORACLE_RESERVOIRS, ids=lambda r: r.label)
@pytest.mark.parametrize("model", ORACLE_MODELS, ids=lambda m: m["model"])
def test_sample_moments_against_exact_cumulants(model, reservoir):
    # the error bars come from the exact law, not from the sample's own m4, so a
    # sampler that fattens its tails cannot widen them
    spec = ScenarioSpec(input_n_a=1, reservoir=reservoir, trials=_BLOCK, seed=8128, **model)
    stats = run_scenario(spec)
    k1, k2, var_of_var = exact_output_moments(spec)
    assert abs(stats.mean - k1) <= 4.5 * math.sqrt(k2 / spec.trials)
    assert abs(stats.variance - k2) <= 4.5 * math.sqrt(var_of_var)


class TestShelving:
    def base(self, modes, n_a=1, trials=120_000):
        return ScenarioSpec(
            model="Shelving",
            input_n_a=n_a,
            reservoir=ReservoirSpec.thermal(1.0),
            trials=trials,
            seed=53,
            gain_G=6,
            cavity_mode_count=modes,
        )

    def test_single_cavity_mode_equals_single_mode_model(self):
        stats = run_scenario(self.base(1))
        reference = run_scenario(
            ScenarioSpec(
                model="SingleMode", input_n_a=1, reservoir=ReservoirSpec.thermal(1.0), trials=120_000, seed=53, gain_G=6
            )
        )
        assert stats == reference  # same substreams, same combination

    def test_all_modes_equals_g_modes_model(self):
        stats = run_scenario(self.base(6))
        reference = run_scenario(
            ScenarioSpec(
                model="GModes", input_n_a=1, reservoir=ReservoirSpec.thermal(1.0), trials=120_000, seed=53, gain_G=6
            )
        )
        assert stats == reference

    def test_intermediate_mode_count_variance(self):
        spec = self.base(3)
        stats = run_scenario(spec)
        assert abs(z_score(stats, 3 * 1.0 * 2.0)) <= 4.0  # m * nbar * (nbar + 1)

    @settings(max_examples=30, deadline=None)
    @given(
        gain=st.integers(min_value=1, max_value=9),
        trials=st.sampled_from([2, 3, 30_000, _BLOCK + 9]),  # 30 000 trials take several slots per chunk
        seed=st.integers(min_value=-(2**70), max_value=2**70),
        offset=st.integers(min_value=0, max_value=2**40),
        reservoir=st.sampled_from(
            [
                ReservoirSpec.thermal(0.7),
                ReservoirSpec.empirical([0.5, 0.2, 0.3]),
                ReservoirSpec.fock(2),
                ReservoirSpec.thermal(0.0),
            ]
        ),
    )
    @example(9, _BLOCK + 9, -(2**65) - 3, 7, ReservoirSpec.thermal(0.7))  # crosses a block boundary
    @example(5, 30_000, 2**64 + 11, 0, ReservoirSpec.empirical([0.5, 0.2, 0.3]))
    @example(4, 3, -1, 2**33, ReservoirSpec.fock(2))  # draw-free: one constant per readout
    def test_mode_sweep_equals_each_mode_count_run(self, gain, trials, seed, offset, reservoir):
        spec = ScenarioSpec(
            model="Shelving", input_n_a=2, reservoir=reservoir, trials=trials, seed=seed, gain_G=gain, cavity_mode_count=gain
        )
        sweep = run_mode_sweep(spec, offset)
        assert len(sweep) == gain
        for modes, stats in enumerate(sweep, start=1):
            assert stats == run_scenario(replace(spec, cavity_mode_count=modes), offset)

    @settings(max_examples=15, deadline=None)
    @given(
        gain=st.integers(min_value=1, max_value=6),
        trials=st.integers(min_value=1, max_value=_BLOCK),
        seed=st.integers(min_value=-(2**70), max_value=2**70),
        reservoir=st.sampled_from([ReservoirSpec.thermal(1.3), ReservoirSpec.fock(1)]),
    )
    @example(3, _BLOCK // 2 + 5, 9, ReservoirSpec.thermal(1.3))  # the 2T-trial run crosses a block boundary
    def test_mode_sweep_splits_and_merges_exactly(self, gain, trials, seed, reservoir):
        def sweep(count, offset):
            spec = ScenarioSpec(
                model="Shelving", input_n_a=1, reservoir=reservoir, trials=count, seed=seed, gain_G=gain, cavity_mode_count=gain
            )
            return _power_sums(spec, offset, range(1, gain + 1))

        head, tail, whole = sweep(trials, 0), sweep(trials, trials), sweep(2 * trials, 0)
        assert [tuple(x + y for x, y in zip(h, t)) for h, t in zip(head, tail)] == whole


class TestMultiplexed:
    def base(self, gain, n_a, reservoir, trials, seed, mode_budget=None):
        return ScenarioSpec(
            model="Multiplexed",
            input_n_a=n_a,
            reservoir=reservoir,
            trials=trials,
            seed=seed,
            gain_G=gain,
            mode_budget=mode_budget,
        )

    def test_noiseless_reservoir_is_deterministic(self):
        stats = run_scenario(self.base(5, 2, ReservoirSpec.fock(0), trials=2000, seed=61))
        assert stats.mean == 10.0 and stats.variance == 0.0

    def test_zero_photons_pure_background(self):
        stats = run_scenario(self.base(4, 0, ReservoirSpec.thermal(0.5), trials=150_000, seed=67, mode_budget=3))
        # 12 modes of background, no signal
        se = math.sqrt(stats.variance / stats.count)
        assert abs(stats.mean - 12 * 0.5) <= 4 * se
        assert abs(z_score(stats, 12 * 0.75)) <= 4.0

    def test_budget_variance(self):
        stats = run_scenario(self.base(4, 1, ReservoirSpec.thermal(1.0), trials=150_000, seed=71, mode_budget=2))
        assert abs(z_score(stats, 8 * 2.0)) <= 4.0


class TestCounterStream:
    """The counter-based generator, seen through reservoir_draws."""

    def test_uniform_range_and_determinism(self):
        spec = ReservoirSpec.thermal(1.0)
        first, second = reservoir_draws(spec, 4096, seed=123), reservoir_draws(spec, 4096, seed=123)
        assert np.array_equal(first, second)
        # uniforms in [0, 1): u < 0 would give a negative count, u = 1 an int64 wrap from -inf
        assert first.min() >= 0

    def test_streams_differ(self):
        spec = ReservoirSpec.thermal(1.0)
        slot0 = reservoir_draws(spec, 64, seed=123, draw_index=0)
        assert not np.array_equal(slot0, reservoir_draws(spec, 64, seed=123, draw_index=1))
        assert not np.array_equal(slot0, reservoir_draws(spec, 64, seed=124, draw_index=0))

    def test_matches_batch_engine(self):
        # trial t's draw depends only on (seed, t, slot): a short batch is a prefix of a
        # long one, and run_scenario reads the same counters
        spec = ReservoirSpec.thermal(0.9)
        draws = reservoir_draws(spec, 1000, seed=7)
        assert np.array_equal(reservoir_draws(spec, 10, seed=7), draws[:10])
        run = run_scenario(ScenarioSpec(model="SingleMode", input_n_a=0, reservoir=spec, trials=1000, seed=7, gain_G=1))
        assert run.mean == int(draws.sum()) / 1000
