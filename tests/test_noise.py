import math
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fockamp import (
    FockSpace,
    Mechanism,
    NumberStats,
    caves_number_out,
    fock_state,
    moments,
    nonlinear_bout,
    phase_sensitive_number_out,
    settle_cutoff,
    snr,
    thermal_state,
    var_caves,
    var_g_modes,
    var_multistep_multi,
    var_multistep_single,
    var_phase_sensitive,
    var_single_mode,
)
from fockamp.fock import default_cutoff


A0 = NumberStats(0.0, 0.0)
INPUTS = {
    "fock1": NumberStats(1.0, 0.0),
    "mixed": NumberStats(2.0, 3.0),
    "thermalish": NumberStats(1.0, 2.0),
}


class TestVarianceFormulas:
    def test_caves_gain_one(self):
        a = NumberStats(1.4, 0.9)
        assert var_caves(1.0, a, INPUTS["thermalish"]) == a.variance

    def test_caves_plug_ins(self):
        assert var_caves(2.0, INPUTS["fock1"], A0) == 4.0
        assert var_caves(3.0, INPUTS["fock1"], INPUTS["thermalish"]) == 38.0

    def test_phase_sensitive_gain_one(self):
        a = NumberStats(0.3, 0.25)
        assert var_phase_sensitive(1.0, a) == a.variance

    def test_phase_sensitive_plug_ins(self):
        assert var_phase_sensitive(2.0, A0) == 4.0
        assert var_phase_sensitive(2.0, INPUTS["fock1"]) == 12.0

    def test_single_mode_plug_ins(self):
        assert var_single_mode(10, INPUTS["fock1"], NumberStats(0.7, 2.0)) == 2.0
        assert var_single_mode(1, NumberStats(1.0, 1.0), A0) == 1.0
        assert var_single_mode(5, INPUTS["mixed"], INPUTS["thermalish"]) == 77.0

    def test_g_modes_plug_ins(self):
        a, b = INPUTS["fock1"], INPUTS["thermalish"]
        assert var_g_modes(1, a, b) == var_single_mode(1, a, b)
        assert var_g_modes(4, a, b) == 8.0
        assert var_g_modes(100, A0, NumberStats(0.5, 1.0)) == 100.0

    def test_multistep_single_plug_ins(self):
        a, b = INPUTS["fock1"], NumberStats(0.4, 1.0)
        assert var_multistep_single(5, 5, a, b) == var_single_mode(5, a, b)
        assert var_multistep_single(8, 2, a, b) == 21.0
        assert var_multistep_single(9, 3, A0, NumberStats(0.4, 2.0)) == 20.0

    def test_multistep_multi_plug_ins(self):
        a, b = INPUTS["fock1"], NumberStats(0.4, 1.0)
        assert var_multistep_multi(5, 5, a, b) == var_g_modes(5, a, b)
        assert var_multistep_multi(8, 2, a, b) == 56.0 + 64.0 * 0.0
        assert var_multistep_multi(9, 3, A0, b) == 36.0

    def test_gain_validation(self):
        with pytest.raises(ValueError):
            var_caves(0.5, A0, A0)
        with pytest.raises(ValueError):
            var_single_mode(2.5, A0, A0)
        with pytest.raises(ValueError):
            var_g_modes(0, A0, A0)
        with pytest.raises(ValueError):
            var_multistep_single(10, 3, A0, A0)  # 10 is not a power of 3
        with pytest.raises(ValueError):
            var_multistep_multi(12, 2, A0, A0)

    def test_reservoir_prefactor_is_exactly_one(self):
        # the noise floor: no admissible transformation can push this below 1
        for gain in (1, 7, 40):
            for s2 in (0.3, 1.0, 2.6):
                assert var_single_mode(gain, NumberStats(5.0, 0.0), NumberStats(0.4, s2)) == s2


class TestMechanism:
    def test_multistep_requires_exact_power(self):
        Mechanism("MultiStepSingleMode", 8, 2)
        with pytest.raises(ValueError):
            Mechanism("MultiStepSingleMode", 10, 3)
        with pytest.raises(ValueError):
            Mechanism("MultiStepMultiMode", 8, 2, steps_N=2)
        with pytest.raises(ValueError, match="requires a per-step gain"):
            Mechanism("MultiStepMultiMode", 8)

    def test_constructors_fill_steps(self):
        m = Mechanism.multistep_multi(2, 5)
        assert (m.gain_G, m.step_gain_g, m.steps_N) == (32, 2, 5)

    def test_integer_gain_for_nonlinear_tags(self):
        with pytest.raises(ValueError):
            Mechanism.single_mode(2.5)
        Mechanism.phase_insensitive(2.5)  # linear gains stay real

    def test_unknown_tag(self):
        with pytest.raises(ValueError):
            Mechanism("Quadratic", 2)


class TestSnr:
    def test_point_values(self):
        assert snr(Mechanism.single_mode(100), 1, 1.0) == 100.0
        assert snr(Mechanism.g_modes(100), 1, 1.0) == 10.0
        assert snr(Mechanism.phase_sensitive(2.0), 1, 1.0) == pytest.approx(1.5, abs=1e-15)

    def test_phase_insensitive_saturates(self):
        value = snr(Mechanism.phase_insensitive(1e6), 1, 1.0)
        assert value == pytest.approx(1.000001, rel=1e-9)

    def test_infinite_sentinels(self):
        assert snr(Mechanism.phase_insensitive(1.0), 1, 1.0) == math.inf
        assert snr(Mechanism.phase_sensitive(1.0), 1, 1.0) == math.inf
        assert snr(Mechanism.single_mode(5), 1, 0.0) == math.inf
        assert snr(Mechanism.g_modes(5), 2, 0.0) == math.inf

    def test_phase_sensitive_ignores_reservoir_noise(self):
        m = Mechanism.phase_sensitive(3.0)
        assert snr(m, 2, 0.5) == snr(m, 2, 10.0)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            snr(Mechanism.single_mode(2), 0, 1.0)
        with pytest.raises(ValueError):
            snr(Mechanism.single_mode(2), 1, -0.1)
        with pytest.raises(ValueError):
            snr(Mechanism.single_mode(2), math.nan, 1.0)
        # a quotient n_a / dn_b beyond the float range is refused; inf is kept for the dn_b = 0 sentinel
        with pytest.raises(ValueError, match="beyond the float range"):
            snr(Mechanism.single_mode(2), 1, 1e-320)

    def test_multistep_values(self):
        assert snr(Mechanism.multistep_single(2, 2), 1, 1.0) == pytest.approx(4 * math.sqrt(3) / math.sqrt(15))
        assert snr(Mechanism.multistep_multi(2, 2), 1, 1.0) == pytest.approx(2 / math.sqrt(3))


def _exact_root(square: Fraction) -> float:
    """sqrt of an exact rational, correct to far below a float ulp."""
    with localcontext() as ctx:
        ctx.prec = 40
        return float((Decimal(square.numerator) / Decimal(square.denominator)).sqrt())


def _cascade(draw):
    """(g, N) with g**N within the float range."""
    g = draw(st.integers(min_value=2, max_value=int(sys.float_info.max)))
    n_max = 1
    while g ** (n_max + 1) <= sys.float_info.max:
        n_max += 1
    return g, draw(st.integers(min_value=1, max_value=n_max))


class TestSnrAgainstExactOracle:
    """Each SNR is finite and within 1e-12 of exact rational arithmetic, up to G = float max."""

    @settings(max_examples=200, deadline=None)
    @given(cascade=st.composite(_cascade)())
    @example(cascade=(2, 600))
    @example(cascade=(3, 646))
    @example(cascade=(2, 1023))
    @example(cascade=(2**600, 1))  # a one-step cascade whose g^2 no float holds
    def test_cascades(self, cascade):
        g, n = cascade
        big_g = g**n
        exact = {
            # (g^2 - 1) G^2 / (G^2 - 1) and G (g - 1) / (G - 1)
            Mechanism.multistep_single(g, n): Fraction((g * g - 1) * big_g * big_g, big_g * big_g - 1),
            Mechanism.multistep_multi(g, n): Fraction(big_g * (g - 1), big_g - 1),
        }
        for mech, square in exact.items():
            value = snr(mech, 1, 1.0)
            assert math.isfinite(value)
            assert value == pytest.approx(_exact_root(square), rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(gain=st.floats(min_value=1.0, max_value=sys.float_info.max, exclude_min=True))
    @example(gain=1e308)
    @example(gain=sys.float_info.max)
    @example(gain=1.0 + 2.0**-52)
    def test_phase_sensitive(self, gain):
        big_g = Fraction(gain)
        value = snr(Mechanism.phase_sensitive(gain), 1, 1.0)
        assert math.isfinite(value)
        assert value == pytest.approx(_exact_root((2 * big_g - 1) ** 2 / (2 * big_g * (big_g - 1))), rel=1e-12)


class TestOrderings:
    @pytest.mark.parametrize("gain", [4, 16, 64, 256])
    def test_single_mode_beats_g_modes_beats_linear(self, gain):
        sm = snr(Mechanism.single_mode(gain), 1, 1.0)
        gm = snr(Mechanism.g_modes(gain), 1, 1.0)
        pi = snr(Mechanism.phase_insensitive(gain), 1, 1.0)
        assert sm > gm > pi

    @pytest.mark.parametrize("steps", range(2, 11))
    def test_two_per_step_multimode_trails_linear_bound(self, steps):
        gain = 2**steps
        assert snr(Mechanism.multistep_multi(2, steps), 1, 1.0) < snr(
            Mechanism.phase_insensitive(gain), 1, 1.0
        )

    @pytest.mark.parametrize("step_gain", [2, 4, 8])
    def test_cascades_interpolate_below_g_modes(self, step_gain):
        # multi-step cascades re-amplify early-stage noise by g**(N-k), so for
        # N >= 2 both cascade variants sit at or below the flat G-mode spread,
        # and the multi-mode cascade is always the noisier of the two
        gain = 64
        sm = snr(Mechanism.single_mode(gain), 1, 1.0)
        gm = snr(Mechanism.g_modes(gain), 1, 1.0)
        mss = snr(Mechanism("MultiStepSingleMode", gain, step_gain), 1, 1.0)
        msm = snr(Mechanism("MultiStepMultiMode", gain, step_gain), 1, 1.0)
        assert sm >= gm >= mss >= msm

    def test_one_step_cascades_recover_the_envelopes(self):
        assert snr(Mechanism.multistep_single(7, 1), 1, 1.0) == snr(Mechanism.single_mode(7), 1, 1.0)
        assert snr(Mechanism.multistep_multi(7, 1), 1, 1.0) == pytest.approx(
            snr(Mechanism.g_modes(7), 1, 1.0), rel=1e-15
        )

    def test_large_gain_limits(self):
        assert snr(Mechanism.phase_insensitive(1e4), 1, 1.0) == pytest.approx(1.0, rel=0.01)
        assert snr(Mechanism.phase_sensitive(1e4), 1, 1.0) == pytest.approx(math.sqrt(2), rel=0.01)


class TestMatrixOracleAgreement:
    @staticmethod
    def make_state(kind, par):
        # Fock inputs have no tail, so a small space is already exact; thermal
        # tails need the grown cutoff from the leakage policy.
        if kind == "fock":
            return fock_state(FockSpace(8), par)
        s = settle_cutoff(lambda k: thermal_state(FockSpace(k), par), default_cutoff(par, par * (par + 1), 3, 2))
        return thermal_state(FockSpace(s), par)

    @pytest.mark.parametrize("gain", [1.0, 2.0, 3.0])
    def test_caves_against_moments(self, gain):
        cases = [("fock", 1), ("thermal", 0.8)]
        for kind_a, par_a in cases:
            for kind_b, par_b in cases:
                rho_a = self.make_state(kind_a, par_a)
                rho_b = self.make_state(kind_b, par_b)
                got = moments([rho_a, rho_b], caves_number_out(rho_a.space, rho_b.space, gain)).variance
                want = var_caves(gain, rho_a.number_stats(), rho_b.number_stats())
                assert got == pytest.approx(want, rel=1e-8, abs=1e-8)

    @pytest.mark.parametrize("gain", [1.0, 1.5, 3.0])
    def test_phase_sensitive_against_moments(self, gain):
        for kind, par in (("fock", 2), ("thermal", 1.0)):
            rho = self.make_state(kind, par)
            got = moments(rho, phase_sensitive_number_out(rho.space, gain)).variance
            want = var_phase_sensitive(gain, rho.number_stats())
            assert got == pytest.approx(want, rel=1e-8, abs=1e-8)

    @pytest.mark.parametrize("gain", [1, 3, 5])
    def test_single_mode_exact_agreement(self, gain):
        sb, sa = FockSpace(45), FockSpace(3)
        rho_b, rho_a = thermal_state(sb, 1.0), fock_state(sa, 2)
        bout = nonlinear_bout(sb, sa, gain, 0.2)
        got = moments([rho_b, rho_a], bout.dagger() @ bout).variance
        want = var_single_mode(gain, rho_a.number_stats(), rho_b.number_stats())
        assert abs(got - want) <= 1e-12 * max(1.0, want)
