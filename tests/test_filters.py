import cmath
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_oracle
from fockamp import (
    HBAR_OVER_K,
    FockSpace,
    NumberStats,
    TransferPair,
    filtered_amplified_stats,
    fock_state,
    lorentzian_transfer,
    moments,
    read_transfer_table,
    settle_cutoff,
    thermal_occupancy,
    thermal_state,
    var_single_mode,
)

# temperature chosen so that hbar*omega/kT = omega
ENV = HBAR_OVER_K


class TestTransferPair:
    def test_lossless_enforced(self):
        TransferPair(1.0, complex(math.sqrt(0.5)), complex(0, math.sqrt(0.5)))
        with pytest.raises(ValueError):
            TransferPair(1.0, 0.9 + 0j, 0.1 + 0j)

    def test_fields_are_frozen_and_a_bad_frequency_is_named(self):
        tp = TransferPair(1.0, 1.0 + 0j, 0j)
        with pytest.raises(dataclasses.FrozenInstanceError):
            tp.omega = 2.0
        assert (tp.omega, tp.T, tp.R) == (1.0, 1.0 + 0j, 0j) and tp == TransferPair(1, 1.0 + 0j, 0j)
        with pytest.raises(ValueError, match="frequency"):
            TransferPair(math.inf, 1.0 + 0j, 0j)

    def test_resonance_is_exact(self):
        tp = lorentzian_transfer(5.0, 5.0, 0.5)
        assert tp.T == 1.0 + 0j
        assert tp.R == 0j

    def test_half_width_point(self):
        tp = lorentzian_transfer(1.0, 0.0, 2.0)  # detuning = gamma/2
        assert abs(tp.T) ** 2 == pytest.approx(0.5, abs=1e-15)
        assert abs(tp.R) ** 2 == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("omega", np.linspace(-40.0, 40.0, 17).tolist())
    def test_unitarity_identity(self, omega):
        tp = lorentzian_transfer(omega, 1.3, 0.7)
        assert abs(abs(tp.T) ** 2 + abs(tp.R) ** 2 - 1.0) <= 1e-12

    def test_transmission_monotone_off_resonance(self):
        t2 = [abs(lorentzian_transfer(2.0 + d, 2.0, 1.0).T) ** 2 for d in np.linspace(0, 10, 60)]
        assert all(b < a for a, b in zip(t2, t2[1:]))

    def test_linewidth_validation(self):
        with pytest.raises(ValueError):
            lorentzian_transfer(1.0, 1.0, 0.0)
        for omega in (1.0, 0.0):  # 5e-324 / 2 rounds to 0: a division by zero on resonance, T exactly 0 off it
            with pytest.raises(ValueError, match="half the linewidth"):
                lorentzian_transfer(omega, 1.0, 5e-324)
        tp = lorentzian_transfer(1.0, 1.0, 1e-323)  # the narrowest linewidth with a nonzero half
        assert (tp.T, tp.R) == (1.0 + 0j, 0j)


class TestFilteredOperator:
    def test_perfect_transmission_passes_the_input(self):
        sa, sc = FockSpace(5), FockSpace(5)
        op = dense_oracle.filtered_output_operator(sa, sc, TransferPair(1.0, 1.0 + 0j, 0j))
        for n in range(4):
            stats = moments([fock_state(sa, n), thermal_state(sc, 0.8)], op)
            assert stats.mean == pytest.approx(n, abs=1e-12)

    def test_full_reflection_swaps_in_the_internal_mode(self):
        sa, sc = FockSpace(5), FockSpace(6)
        op = dense_oracle.filtered_output_operator(sa, sc, TransferPair(1.0, 0j, 1.0 + 0j))
        rho_c = thermal_state(sc, 0.5)
        stats = moments([fock_state(sa, 3), rho_c], op)
        assert stats.mean == pytest.approx(rho_c.number_stats().mean, abs=1e-12)

    def test_half_transmission_is_bernoulli(self):
        sa, sc = FockSpace(4), FockSpace(4)
        tp = lorentzian_transfer(1.0, 0.0, 2.0)  # |T|^2 = 1/2 exactly
        stats = moments([fock_state(sa, 1), fock_state(sc, 0)], dense_oracle.filtered_output_operator(sa, sc, tp))
        assert stats.mean == pytest.approx(0.5, abs=1e-12)
        assert stats.variance == pytest.approx(0.25, abs=1e-12)


class TestThermalOccupancy:
    def test_hand_points(self):
        assert thermal_occupancy(math.log(2.0), ENV) == pytest.approx(1.0, rel=1e-12)
        assert thermal_occupancy(2.0 * math.log(2.0), ENV) == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_deep_suppression_matches_boltzmann_tail(self):
        # frozen from a 50-digit evaluation of 1/(e^30 - 1)
        value = thermal_occupancy(30.0, ENV)
        assert value == pytest.approx(9.357622968841050e-14, rel=1e-12)
        assert value == pytest.approx(math.exp(-30.0), rel=1e-6)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            thermal_occupancy(0.0, ENV)
        with pytest.raises(ValueError):
            thermal_occupancy(1.0, -4.0)

    def test_physical_constants_scale(self):
        x = 1.054571817e-34 * 2.0e15 / (1.380649e-23 * 300.0)
        assert thermal_occupancy(2.0e15, 300.0) == pytest.approx(1.0 / math.expm1(x), rel=1e-12)

    def test_log_occupancy_slope(self):
        omega = np.linspace(10.0, 40.0, 200)
        logs = [math.log(thermal_occupancy(w, ENV)) for w in omega]
        slope = np.polyfit(omega, logs, 1)[0]
        assert slope == pytest.approx(-1.0, rel=1e-6)


ONE, VACUUM = NumberStats(1.0, 0.0), NumberStats(0.0, 0.0)


class TestFilteredAmplifiedStats:
    def test_perfect_transmission_reduces_to_single_mode_noise(self):
        b_env = NumberStats(0.7, 1.9)
        out = filtered_amplified_stats(TransferPair(1.0, 1.0 + 0j, 0j), ONE, VACUUM, 50, b_env)
        assert out.mean == pytest.approx(0.7 + 50.0, abs=1e-12)
        assert out.variance == pytest.approx(1.9, abs=1e-12)
        assert out.variance == pytest.approx(var_single_mode(50, ONE, b_env), abs=1e-12)

    def test_full_reflection_gives_background_only(self):
        b_env = NumberStats(0.3, 0.6)
        out = filtered_amplified_stats(TransferPair(1.0, 0j, 1.0 + 0j), NumberStats(2.0, 0.0), VACUUM, 9, b_env)
        assert out.mean == pytest.approx(0.3, abs=1e-12)
        assert out.variance == pytest.approx(0.6, abs=1e-12)

    def test_bernoulli_amplification(self):
        tp = lorentzian_transfer(1.0, 0.0, 2.0)
        out = filtered_amplified_stats(tp, ONE, VACUUM, 2, VACUUM)
        assert out.mean == pytest.approx(1.0, abs=1e-12)
        assert out.variance == pytest.approx(1.0, abs=1e-12)  # G^2 * p(1-p) = 4 * 1/4

    def test_reflected_thermal_mode_raises_the_noise(self):
        b_env = NumberStats(0.1, 0.2)
        perfect = filtered_amplified_stats(TransferPair(1.0, 1.0 + 0j, 0j), ONE, VACUUM, 6, b_env)
        leaky = filtered_amplified_stats(lorentzian_transfer(1.0, 0.0, 2.0), ONE, NumberStats(0.8, 0.8 * 1.8), 6, b_env)
        assert leaky.variance > perfect.variance

    def test_gain_validation(self):
        with pytest.raises(ValueError):
            filtered_amplified_stats(TransferPair(1.0, 1.0 + 0j, 0j), VACUUM, VACUUM, 0, VACUUM)
        with pytest.raises(ValueError):
            filtered_amplified_stats(TransferPair(1.0, 1.0 + 0j, 0j), VACUUM, VACUUM, 2.5, VACUUM)


@st.composite
def transfer_pairs(draw):
    """A lossless filter at any |T|^2 in [0, 1], with independent phases on T and R."""
    t2 = draw(st.floats(0.0, 1.0))
    phase_t, phase_r = draw(st.floats(-math.pi, math.pi)), draw(st.floats(-math.pi, math.pi))
    return TransferPair(1.0, math.sqrt(t2) * cmath.exp(1j * phase_t), math.sqrt(1.0 - t2) * cmath.exp(1j * phase_r))


@st.composite
def fock_inputs(draw):
    """A Fock state strictly below its cutoff, so the truncated ladder matrices act on it exactly."""
    n = draw(st.integers(0, 6))
    return fock_state(FockSpace(n + draw(st.integers(1, 4))), n)


@st.composite
def thermal_inputs(draw):
    """A thermal state at a cutoff that passes the leakage guard."""
    nbar = draw(st.floats(0.0, 0.5))
    cutoff = settle_cutoff(lambda s: thermal_state(FockSpace(s), nbar), draw(st.integers(3, 20)))
    return thermal_state(FockSpace(cutoff), nbar)


def _assert_matches_dense_oracle(tp, rho_a, rho_c, rel):
    closed = filtered_amplified_stats(tp, rho_a.number_stats(), rho_c.number_stats(), 1, VACUUM)
    dense = moments([rho_a, rho_c], dense_oracle.filtered_output_operator(rho_a.space, rho_c.space, tp))
    assert abs(closed.mean - dense.mean) <= rel * max(1.0, dense.mean)
    # the dense variance is <n^2> - <n>^2, so its rounding scales with the second moment
    assert abs(closed.variance - dense.variance) <= rel * max(1.0, dense.variance + dense.mean**2)


class TestClosedFormAgainstDenseOracle:
    """The beam-splitter closed form against moments of the dense two-mode operator."""

    @settings(max_examples=40, deadline=None)
    @given(tp=transfer_pairs(), rho_a=fock_inputs(), rho_c=fock_inputs())
    def test_fock_inputs_below_their_cutoff(self, tp, rho_a, rho_c):
        _assert_matches_dense_oracle(tp, rho_a, rho_c, 1e-12)

    @settings(max_examples=40, deadline=None)
    @given(
        tp=transfer_pairs(),
        rho_a=st.one_of(fock_inputs(), thermal_inputs()),
        rho_c=st.one_of(fock_inputs(), thermal_inputs()),
    )
    def test_inputs_that_pass_the_leakage_guard(self, tp, rho_a, rho_c):
        _assert_matches_dense_oracle(tp, rho_a, rho_c, 1e-8)


class TestTransferTable:
    HEADER = "omega,T_re,T_im,R_re,R_im\n"

    def test_round_trips_lorentzian_samples(self, tmp_path):
        rows = [self.HEADER]
        for w in np.linspace(0.0, 4.0, 9):
            tp = lorentzian_transfer(float(w), 2.0, 1.0)
            rows.append(
                f"{float(w)!r},{tp.T.real!r},{tp.T.imag!r},{tp.R.real!r},{tp.R.imag!r}\n"
            )
        path = tmp_path / "filter.csv"
        path.write_text("".join(rows))
        pairs = read_transfer_table(path)
        assert len(pairs) == 9
        for w, tp in zip(np.linspace(0.0, 4.0, 9), pairs):
            ref = lorentzian_transfer(float(w), 2.0, 1.0)
            assert abs(tp.T - ref.T) <= 1e-12 and abs(tp.R - ref.R) <= 1e-12

    def test_rejects_lossy_row_with_its_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(self.HEADER + "1.0,1.0,0.0,0.0,0.0\n2.0,0.8,0.0,0.1,0.0\n")  # |T|^2+|R|^2 = 0.65
        with pytest.raises(ValueError, match=r"^row 3: \|T\|\^2\+\|R\|\^2 off unity by 3.500e-01 \(limit 1e-9\)$"):
            read_transfer_table(path)

    @pytest.mark.parametrize(
        "second_row",
        ["2.0,nan,0.0,1.0,0.0", "inf,1.0,0.0,0.0,0.0", "abc,1.0,0.0,0.0,0.0", "2.0,1.0"],
        ids=["T_re nan", "omega inf", "omega abc", "short row"],
    )
    def test_every_refusal_names_its_row(self, tmp_path, second_row):
        path = tmp_path / "bad.csv"
        path.write_text(self.HEADER + "1.0,1.0,0.0,0.0,0.0\n" + second_row + "\n")
        with pytest.raises(ValueError, match="^row 3: "):
            read_transfer_table(path)

    def test_requires_all_columns(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("omega,T_re\n1.0,1.0\n")
        with pytest.raises(ValueError, match="columns"):
            read_transfer_table(path)

    def test_accepts_small_unitarity_slack(self, tmp_path):
        # off unity by 1e-10: inside the 1e-9 gate, rescaled on load
        t = math.sqrt(0.5 + 5e-11)
        r = math.sqrt(0.5)
        path = tmp_path / "slack.csv"
        path.write_text(self.HEADER + f"1.0,{t!r},0.0,{r!r},0.0\n")
        (pair,) = read_transfer_table(path)
        assert abs(abs(pair.T) ** 2 + abs(pair.R) ** 2 - 1.0) <= 1e-12
