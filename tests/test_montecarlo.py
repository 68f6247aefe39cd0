import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fockamp import (
    FockSpace,
    NumberStats,
    ReservoirSpec,
    ScenarioSpec,
    analytic_variance,
    moments,
    number_op,
    reservoir_draws,
    run_scenario,
    thermal_state,
    var_g_modes,
    var_multistep_multi,
    var_multistep_single,
    var_single_mode,
)
from fockamp.montecarlo import _BLOCK, _power_sums, _uniforms


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


def brute_force_power_sums(spec, trial_offset):
    """Draw every slot for every trial and sum x, x^2, x^3, x^4 in Python ints."""
    x = [spec.gain_G * spec.input_n_a] * spec.trials
    for j, w in enumerate(spelled_out_weights(spec)):
        draws = spec.reservoir._draw_block(_uniforms(spec.seed, j, trial_offset, spec.trials)).tolist()
        x = [v + w * d for v, d in zip(x, draws)]
    return tuple(sum(v**k for v in x) for k in (1, 2, 3, 4))


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
            return ScenarioSpec(model=model, input_n_a=n_a, reservoir=reservoir, trials=1, seed=1, gain_G=gain)

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
        def refuse(*args):
            raise AssertionError("a reservoir that always draws the same count needs no uniforms")

        monkeypatch.setattr("fockamp.montecarlo._uniforms", refuse)
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
            ]
        ),
        n_a=st.integers(min_value=0, max_value=2),
        seed=st.integers(min_value=-(2**70), max_value=2**70),
        trials=st.integers(min_value=1, max_value=40),
        offset=st.integers(min_value=0, max_value=2**40),
    )
    def test_power_sums_match_per_slot_brute_force(self, model, reservoir, n_a, seed, trials, offset):
        spec = ScenarioSpec(input_n_a=n_a, reservoir=reservoir, trials=trials, seed=seed, **model)
        assert _power_sums(spec, offset) == brute_force_power_sums(spec, offset)
        weights = spelled_out_weights(spec)
        assert analytic_variance(spec) == sum(w * w for w in weights) * reservoir.stats.variance

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
