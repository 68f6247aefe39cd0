"""Gain and integer inputs go through one check each, at every entry point.

Every gain-taking entry point refuses nan, +-inf, bool, strings and gains below
1 with ValueError.  Every integer-taking entry point also refuses non-integral
values and values below its minimum, and reads an integral float k as the int k.
"""
import math
import sys
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fockamp import (
    FockSpace,
    Mechanism,
    NumberStats,
    ReservoirSpec,
    ScenarioSpec,
    TransferPair,
    caves_number_out,
    filtered_amplified_stats,
    fock_state,
    ideal_schrodinger_map,
    leakage,
    nonlinear_bout,
    phase_sensitive_number_out,
    reservoir_draws,
    snr,
    thermal_state,
    var_caves,
    var_g_modes,
    var_multistep_multi,
    var_multistep_single,
    var_phase_sensitive,
    var_single_mode,
)
from fockamp.noise import MECHANISM_TAGS, gain_structure
from fockamp.verify import VerifyConfig

SP = FockSpace(2)
B = NumberStats(0.5, 0.75)

# each entry point as a function of the one gain under test; multi-step cascades
# are probed on both their total and their per-step gain
ENTRY_POINTS = {
    **{
        f"Mechanism.{tag}": (lambda g, tag=tag: Mechanism(tag, g, 2 if "MultiStep" in tag else None))
        for tag in MECHANISM_TAGS
    },
    "Mechanism.MultiStepSingleMode.step": lambda g: Mechanism("MultiStepSingleMode", 4, g),
    "Mechanism.MultiStepMultiMode.step": lambda g: Mechanism("MultiStepMultiMode", 4, g),
    "var_caves": lambda g: var_caves(g, B, B),
    "var_phase_sensitive": lambda g: var_phase_sensitive(g, B),
    "var_single_mode": lambda g: var_single_mode(g, B, B),
    "var_g_modes": lambda g: var_g_modes(g, B, B),
    "var_multistep_single": lambda g: var_multistep_single(g, 2, B, B),
    "var_multistep_single.step": lambda g: var_multistep_single(4, g, B, B),
    "var_multistep_multi": lambda g: var_multistep_multi(g, 2, B, B),
    "var_multistep_multi.step": lambda g: var_multistep_multi(4, g, B, B),
    "nonlinear_bout": lambda g: nonlinear_bout(SP, SP, g),
    "caves_number_out": lambda g: caves_number_out(SP, SP, g),
    "phase_sensitive_number_out": lambda g: phase_sensitive_number_out(SP, g),
    "ideal_schrodinger_map": lambda g: ideal_schrodinger_map(1, 5, 0, g),
    "filtered_amplified_stats": lambda g: filtered_amplified_stats(TransferPair(1.0, 1.0 + 0j, 0j), B, B, g, B),
    "VerifyConfig.gain": lambda g: VerifyConfig(gain=g),
}

BAD_GAINS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, True, False, "2"]),
    st.floats(max_value=1.0, exclude_max=True),
    st.integers(max_value=0),
)


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
@settings(max_examples=40, deadline=None)
@given(gain=BAD_GAINS)
@example(gain=10**400)  # an integer beyond the float range
def test_bad_gain_is_a_value_error(name, gain):
    with pytest.raises(ValueError):
        ENTRY_POINTS[name](gain)


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_integral_gain_is_accepted_as_int_or_float(name):
    ENTRY_POINTS[name](2)
    ENTRY_POINTS[name](2.0)


@settings(max_examples=40, deadline=None)
@given(dn_b=st.one_of(st.sampled_from([math.nan, math.inf]), st.floats(max_value=0.0, exclude_max=True)))
def test_snr_rejects_a_bad_reservoir_spread(dn_b):
    with pytest.raises(ValueError):
        snr(Mechanism.single_mode(2), 1, dn_b)


def _scenario(model="SingleMode", **fields):
    base = dict(model=model, input_n_a=1, reservoir=ReservoirSpec.thermal(0.5), trials=10, seed=1)
    if model in ("MultiStepSingle", "MultiStepMulti"):
        base.update(step_gain_g=2, steps_N=2)
    else:
        base.update(gain_G=40)
    return ScenarioSpec(**{**base, **fields})


# each integer-taking entry point as a function of the one integer under test, with its minimum
INTEGER_ENTRY_POINTS = {
    "FockSpace": (FockSpace, 0),
    "ReservoirSpec.fock": (ReservoirSpec.fock, 0),
    "ScenarioSpec.input_n_a": (lambda k: _scenario(input_n_a=k), 0),
    "ScenarioSpec.trials": (lambda k: _scenario(trials=k), 1),
    "ScenarioSpec.seed": (lambda k: _scenario(seed=k), None),
    "ScenarioSpec.gain_G": (lambda k: _scenario(gain_G=k), 1),
    "ScenarioSpec.step_gain_g": (lambda k: _scenario("MultiStepSingle", step_gain_g=k, steps_N=1), 2),
    "ScenarioSpec.steps_N": (lambda k: _scenario("MultiStepMulti", steps_N=k), 1),
    "ScenarioSpec.cavity_mode_count": (lambda k: _scenario("Shelving", cavity_mode_count=k), 1),
    "ScenarioSpec.mode_budget": (lambda k: _scenario("Multiplexed", input_n_a=0, gain_G=2, mode_budget=k), 0),
    "Mechanism.SingleMode": (Mechanism.single_mode, 1),
    "Mechanism.GModes": (Mechanism.g_modes, 1),
    "Mechanism.multistep_single.step": (lambda k: Mechanism.multistep_single(k, 2), 2),
    "Mechanism.multistep_multi.steps": (lambda k: Mechanism.multistep_multi(2, k), 1),
    "gain_structure.G": (gain_structure, 1),
    "gain_structure.g": (lambda k: gain_structure(None, k, 1), 2),
    "gain_structure.N": (lambda k: gain_structure(None, 2, k), 1),
    "ideal_schrodinger_map.n": (lambda k: ideal_schrodinger_map(k, 1000, 0, 2), 0),
    "ideal_schrodinger_map.M": (lambda k: ideal_schrodinger_map(0, k, 0, 2), 0),
    "ideal_schrodinger_map.N": (lambda k: ideal_schrodinger_map(1, 5, k, 2), 0),
    "fock_state.n": (lambda k: fock_state(FockSpace(8), k), 0),
    "leakage.top_k": (lambda k: leakage(thermal_state(FockSpace(8), 1.0), k), 0),
    "snr.n_a": (lambda k: snr(Mechanism.single_mode(2), k, 1.0), 1),
    "VerifyConfig.cutoff": (lambda k: VerifyConfig(cutoff=k), 0),
    "VerifyConfig.seed": (lambda k: VerifyConfig(seed=k), None),
    "reservoir_draws.count": (lambda k: reservoir_draws(ReservoirSpec.thermal(1.0), k, 0), 0),
    "reservoir_draws.seed": (lambda k: reservoir_draws(ReservoirSpec.thermal(1.0), 3, k), None),
    "reservoir_draws.draw_index": (lambda k: reservoir_draws(ReservoirSpec.thermal(1.0), 3, 0, k), 0),
}

NOT_INTEGERS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, True, False, "2"]),
    st.floats(allow_nan=False, allow_infinity=False).filter(lambda x: not x.is_integer()),
)


@pytest.mark.parametrize("name", sorted(INTEGER_ENTRY_POINTS))
@settings(max_examples=30, deadline=None)
@given(value=NOT_INTEGERS)
def test_non_integer_is_a_value_error(name, value):
    with pytest.raises(ValueError):
        INTEGER_ENTRY_POINTS[name][0](value)


@pytest.mark.parametrize("name", sorted(k for k, (_, minimum) in INTEGER_ENTRY_POINTS.items() if minimum is not None))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_integer_below_minimum_is_a_value_error(name, data):
    entry, minimum = INTEGER_ENTRY_POINTS[name]
    value = data.draw(st.integers(min_value=-(2**60), max_value=minimum - 1))
    as_float = data.draw(st.booleans())
    with pytest.raises(ValueError):
        entry(float(value) if as_float else value)


@pytest.mark.parametrize("name", sorted(INTEGER_ENTRY_POINTS))
@settings(max_examples=20, deadline=None)
@given(offset=st.integers(min_value=0, max_value=6))
def test_integral_float_reads_as_the_int(name, offset):
    entry, minimum = INTEGER_ENTRY_POINTS[name]
    k = (minimum or 0) + offset
    # repr tells 4 from 4.0, which == does not
    assert repr(entry(float(k))) == repr(entry(k))


def test_reported_integer_cases():
    for call in (
        lambda: ReservoirSpec.fock(1.5),
        lambda: FockSpace(True),
        lambda: ideal_schrodinger_map(True, 5, 0, 2),
        lambda: fock_state(SP, True),
        lambda: leakage(fock_state(SP, 0), True),
        lambda: snr(Mechanism.single_mode(2), 1.5, 1.0),
        lambda: snr(Mechanism.single_mode(2), True, 1.0),
        lambda: reservoir_draws(ReservoirSpec.thermal(1.0), 2.5, 0),
        lambda: reservoir_draws(ReservoirSpec.thermal(1.0), -5, 0),
        lambda: reservoir_draws(ReservoirSpec.thermal(1.0), 3, True),
        lambda: reservoir_draws(ReservoirSpec.thermal(1.0), 3, 1.5),
        lambda: reservoir_draws(ReservoirSpec.thermal(1.0), 3, 0, 2**64),  # its key would repeat slot 0's
    ):
        with pytest.raises(ValueError):
            call()
    assert reservoir_draws(ReservoirSpec.thermal(1.0), 3, 0, 2**64 - 1).shape == (3,)
    spec = _scenario(gain_G=4.0)
    assert spec.gain_G == 4 and type(spec.gain_G) is int


@settings(max_examples=60, deadline=None)
@given(g=st.integers(min_value=2, max_value=7), n=st.integers(min_value=1, max_value=9))
def test_gain_structure_of_a_cascade(g, n):
    structure = (g**n, g, n)
    assert gain_structure(g**n, g) == gain_structure(None, g, n) == gain_structure(g**n, g, n) == structure
    assert gain_structure(g**n) == (g**n, None, None)
    assert gain_structure(float(g**n), float(g), float(n)) == structure
    for bad in ((g**n + 1, g), (g**n, g, n + 1), (g**n, None, n), (None, g)):
        with pytest.raises(ValueError):
            gain_structure(*bad)


@pytest.mark.parametrize("tag", ["PhaseInsensitive", "PhaseSensitive", "SingleMode", "GModes"])
def test_only_cascades_carry_a_step_gain(tag):
    m = Mechanism(tag, 4, 2, 2)
    assert (m.step_gain_g, m.steps_N) == (None, None)
    spec = _scenario("GModes", step_gain_g=2, steps_N=2)
    assert (spec.step_gain_g, spec.steps_N) == (None, None)


def test_total_gain_beyond_the_float_range_is_refused():
    assert gain_structure(None, 2, 1023)[0] == 2**1023
    assert gain_structure(int(sys.float_info.max))[0] == int(sys.float_info.max)
    # 7**365 passes the log2 bound (1024.6 <= 1025) and is refused on its exact value
    for args in ((int(sys.float_info.max) + 1,), (10**400,), (10**400, 10), (None, 2, 1024), (None, 7, 365)):
        with pytest.raises(ValueError, match="float range"):
            gain_structure(*args)
    # a gain within the float range whose variance is not: nan, OverflowError or inf without the check
    a = NumberStats(1, 0)
    for call in (
        lambda: var_multistep_single(2**600, 2, a, B),
        lambda: var_multistep_multi(2**600, 2, a, B),
        lambda: var_g_modes(2**600, a, B),
        lambda: var_single_mode(2**600, a, B),
        lambda: var_caves(1e200, a, B),
        lambda: var_phase_sensitive(1e200, a),
    ):
        with pytest.raises(ValueError, match="float range"):
            call()


def test_deep_cascade_is_refused_before_its_gain_is_formed():
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="float range"):
            gain_structure(None, 2, 10**12)  # 2**(10**12) would take 125 GB
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
