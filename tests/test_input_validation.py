"""Non-gain validators refuse nan and +-inf (and out-of-range values) with ValueError.

Each real input goes through ``fock._check_real``, which also refuses a bool or a numeric string.
"""
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fockamp import (
    DiagonalState,
    FockSpace,
    NumberStats,
    ReservoirSpec,
    TransferPair,
    lorentzian_transfer,
    nonlinear_bout,
    shift_operator,
    thermal_occupancy,
    thermal_state,
)

SP = FockSpace(5)
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
NOT_REAL = st.sampled_from([True, "1.0", "1"])  # read by float() as 1.0, a valid value of every field below
BEYOND_FLOAT = st.just(10**400)  # an int no float holds


@settings(max_examples=40, deadline=None)
@given(bad=NON_FINITE, index=st.integers(min_value=0, max_value=SP.cutoff))
def test_diagonal_state_rejects_non_finite_probabilities(bad, index):
    probs = np.full(SP.dim, 1.0 / SP.dim)
    probs[index] = bad
    with pytest.raises(ValueError):
        DiagonalState(SP, probs)


@settings(max_examples=40, deadline=None)
@given(nbar=st.one_of(NON_FINITE, NOT_REAL, st.floats(max_value=0.0, exclude_max=True)))
def test_thermal_state_rejects_bad_mean(nbar):
    with pytest.raises(ValueError, match="mean occupation"):
        thermal_state(SP, nbar)


@settings(max_examples=40, deadline=None)
@given(nbar=st.one_of(NON_FINITE, NOT_REAL, st.floats(max_value=0.0, exclude_max=True)))
def test_thermal_reservoir_rejects_bad_mean(nbar):
    with pytest.raises(ValueError):
        ReservoirSpec.thermal(nbar)


@settings(max_examples=40, deadline=None)
@given(bad=st.one_of(NON_FINITE, NOT_REAL), index=st.integers(min_value=0, max_value=2))
def test_empirical_reservoir_rejects_non_finite_probabilities(bad, index):
    probs = [0.0, 0.0, 0.0]  # the bad entry holds all the mass, so read as 1.0 it would sum to 1
    probs[index] = bad
    with pytest.raises(ValueError):
        ReservoirSpec.empirical(probs)


@settings(max_examples=40, deadline=None)
@given(bad=st.one_of(NON_FINITE, NOT_REAL, BEYOND_FLOAT), which=st.sampled_from(["omega", "T", "R"]))
def test_transfer_pair_rejects_non_finite_fields(bad, which):
    assume(which == "omega" or isinstance(bad, float))  # the amplitudes take a non-finite complex
    fields = {"omega": 1.0, "T": 1.0 + 0j, "R": 0j}
    fields[which] = bad if which == "omega" else complex(bad, 0.0)
    with pytest.raises(ValueError):
        TransferPair(**fields)


@settings(max_examples=40, deadline=None)
@given(temperature=st.one_of(NON_FINITE, NOT_REAL, st.floats(max_value=0.0)))
def test_thermal_env_rejects_bad_temperature(temperature):
    with pytest.raises(ValueError):
        thermal_occupancy(1.0, temperature)


@settings(max_examples=40, deadline=None)
@given(
    bad=st.one_of(NON_FINITE, NOT_REAL, BEYOND_FLOAT, st.floats(max_value=0.0)),
    which=st.sampled_from(["omega", "omega0", "gamma"]),
)
def test_lorentzian_rejects_bad_linewidth(bad, which):
    assume(which == "gamma" or not (isinstance(bad, float) and math.isfinite(bad)))  # any finite frequency is valid
    args = {"omega": 1.0, "omega0": 1.0, "gamma": 1.0, which: bad}
    with pytest.raises(ValueError):
        lorentzian_transfer(**args)


@settings(max_examples=40, deadline=None)
@given(omega=st.one_of(st.sampled_from([math.nan, 1e-320, 1e-300]), NOT_REAL, st.floats(max_value=0.0)))
def test_thermal_occupancy_rejects_bad_frequency(omega):
    # 1e-320 and 1e-300 are positive, but their occupancy at 300 K is beyond the float range
    with pytest.raises(ValueError):
        thermal_occupancy(omega, 300.0)


@settings(max_examples=40, deadline=None)
@given(phase=st.one_of(NON_FINITE, NOT_REAL), channel=st.sampled_from(["shift_operator", "nonlinear_bout"]))
def test_channel_rejects_bad_phase(phase, channel):
    with pytest.raises(ValueError, match="phase"):
        if channel == "shift_operator":
            shift_operator(FockSpace(3), phase)
        else:
            nonlinear_bout(FockSpace(2), FockSpace(1), 2, phase=phase)


@settings(max_examples=40, deadline=None)
@given(bad=st.one_of(NON_FINITE, NOT_REAL, BEYOND_FLOAT), which=st.sampled_from(["mean", "variance"]))
def test_number_stats_rejects_non_finite_moments(bad, which):
    fields = {"mean": 1.0, "variance": 2.0, which: bad}
    with pytest.raises(ValueError):
        NumberStats(**fields)

