"""Every gain-taking entry point refuses nan, +-inf, bool and gains below 1 with ValueError."""
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockamp import (
    FockSpace,
    Mechanism,
    NumberStats,
    TransferPair,
    caves_number_out,
    filtered_amplified_stats,
    fock_state,
    ideal_schrodinger_map,
    nonlinear_bout,
    phase_sensitive_number_out,
    snr,
    var_caves,
    var_g_modes,
    var_multistep_multi,
    var_multistep_single,
    var_phase_sensitive,
    var_single_mode,
)
from fockamp.noise import MECHANISM_TAGS

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
    "filtered_amplified_stats": lambda g: filtered_amplified_stats(
        TransferPair(1.0, 1.0 + 0j, 0j), fock_state(SP, 1), fock_state(SP, 0), g, B
    ),
}

BAD_GAINS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, True, False]),
    st.floats(max_value=1.0, exclude_max=True),
    st.integers(max_value=0),
)


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
@settings(max_examples=40, deadline=None)
@given(gain=BAD_GAINS)
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
