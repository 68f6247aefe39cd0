import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_oracle
from fockamp import (
    FockSpace,
    OperatorMatrix,
    annihilation,
    caves_number_out,
    check_pegg_barnett,
    commutator,
    fock_state,
    ideal_schrodinger_map,
    identity,
    moments,
    nonlinear_bout,
    number_op,
    phase_sensitive_number_out,
    shift_operator,
    tensor,
    thermal_state,
)
from fockamp.channels import COMMUTATOR_TOL


def sector(mat, n_a, dim_a):
    """Restrict a (b, a)-ordered two-mode matrix to one a-number sector."""
    return mat[n_a::dim_a, n_a::dim_a]


class TestShiftOperator:
    def test_two_level_swap(self):
        s = shift_operator(FockSpace(1), 0.0)
        assert np.array_equal(s.mat.real, [[0, 1], [1, 0]])
        assert np.array_equal(s.mat.imag, [[0, 0], [0, 0]])

    def test_lowering_and_wraparound(self):
        s = shift_operator(FockSpace(3), 0.0)
        e2 = np.zeros(4)
        e2[2] = 1.0
        assert np.array_equal(s.mat @ e2, [0, 1, 0, 0])
        e0 = np.zeros(4)
        e0[0] = 1.0
        assert np.array_equal(s.mat @ e0, [0, 0, 0, 1])

    @pytest.mark.parametrize("phi", [0.0, 0.3, 1.0, math.pi, 5.9])
    @pytest.mark.parametrize("s", [0, 1, 7, 30])
    def test_unitary(self, s, phi):
        mat = shift_operator(FockSpace(s), phi).mat
        assert np.max(np.abs(mat.conj().T @ mat - np.eye(s + 1))) <= 1e-12
        assert np.max(np.abs(mat @ mat.conj().T - np.eye(s + 1))) <= 1e-12

    def test_phase_stored_in_principal_range(self):
        assert abs(shift_operator(FockSpace(2), 2.0 * math.pi + 1.0).mat[0, 1] - np.exp(1j)) <= 1e-12


class TestNonlinearOutput:
    @pytest.mark.parametrize("gain", [1, 2, 4])
    @pytest.mark.parametrize("s_b,s_a", [(5, 0), (10, 3), (20, 6)])
    def test_number_identity(self, s_b, s_a, gain):
        sb, sa = FockSpace(s_b), FockSpace(s_a)
        bout = nonlinear_bout(sb, sa, gain, 0.4)
        target = tensor(number_op(sb), identity(sa)) + float(gain) * tensor(identity(sb), number_op(sa))
        assert np.max(np.abs((bout.dagger() @ bout).mat - target.mat)) <= 1e-12

    def test_vacuum_sector_is_truncated_annihilation(self):
        sb, sa = FockSpace(7), FockSpace(2)
        bout = nonlinear_bout(sb, sa, 1, 0.0)
        restricted = sector(bout.mat, 0, sa.dim)
        assert np.max(np.abs(restricted - annihilation(sb).mat)) <= 1e-13

    def test_gain_validation(self):
        sb, sa = FockSpace(3), FockSpace(1)
        with pytest.raises(ValueError):
            nonlinear_bout(sb, sa, 0, 0.0)
        with pytest.raises(ValueError):
            nonlinear_bout(sb, sa, 2.5, 0.0)
        nonlinear_bout(sb, sa, 2.0, 0.0)  # integer-valued float allowed

    def test_moments_phase_invariant(self):
        sb, sa = FockSpace(30), FockSpace(3)
        state = [thermal_state(sb, 0.5), fock_state(sa, 1)]
        results = []
        for phi in (0.0, 1.0, math.pi):
            bout = nonlinear_bout(sb, sa, 3, phi)
            num = bout.dagger() @ bout
            results.append((moments(state, num), np.diag(num.mat).real))
        base_stats, base_diag = results[0]
        for stats, diag in results[1:]:
            assert np.max(np.abs(diag - base_diag)) <= 1e-13
            assert abs(stats.mean - base_stats.mean) <= 1e-12
            assert abs(stats.variance - base_stats.variance) <= 1e-12


class TestCommutator:
    def test_identity_commutes(self):
        rng = np.random.default_rng(3)
        sp = FockSpace(5)
        x = OperatorMatrix((sp,), rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
        assert np.max(np.abs(commutator(identity(sp), x).mat)) == 0.0

    def test_truncated_ladder_commutator(self):
        a = annihilation(FockSpace(2))
        comm = commutator(a, a.dagger()).mat
        assert np.allclose(comm, np.diag([1, 1, -2]), atol=1e-14)

    def test_traceless(self):
        rng = np.random.default_rng(9)
        sp = FockSpace(11)
        x = OperatorMatrix((sp,), rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12)))
        y = OperatorMatrix((sp,), rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12)))
        assert abs(np.trace(commutator(x, y).mat)) <= 1e-10

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            commutator(number_op(FockSpace(2)), number_op(FockSpace(3)))


class TestPeggBarnettCheck:
    def test_single_mode_sector_pattern(self):
        sb = FockSpace(3)
        bout = nonlinear_bout(sb, FockSpace(0), 1, 0.0)
        comm = commutator(bout, bout.dagger())
        assert np.allclose(comm.mat, np.diag([1, 1, 1, -3]), atol=1e-14)
        assert check_pegg_barnett(comm, sb) <= 1e-13

    def test_identity_is_not_a_shifted_commutator(self):
        sb = FockSpace(3)
        dev = check_pegg_barnett(identity(sb), sb)
        assert dev > COMMUTATOR_TOL
        assert dev == pytest.approx(4.0)  # missing -(s+1) correction at the top
        with pytest.raises(ValueError, match="not a multiple"):
            check_pegg_barnett(identity(FockSpace(4)), FockSpace(1))  # side 5, b dimension 2

    def test_two_mode_clean_region(self):
        sb, sa = FockSpace(30), FockSpace(2)
        bout = nonlinear_bout(sb, sa, 2, 0.0)
        comm = commutator(bout, bout.dagger())
        diag = np.real(np.diag(comm.mat)).reshape(sb.dim, sa.dim)
        assert np.max(np.abs(diag[: 30 - 2 * 2, :] - 1.0)) <= 1e-12
        assert check_pegg_barnett(comm, sb) <= COMMUTATOR_TOL

    def test_correction_weight_per_sector(self):
        sb, sa = FockSpace(6), FockSpace(2)
        bout = nonlinear_bout(sb, sa, 3, 0.0)
        comm = commutator(bout, bout.dagger()).mat
        for n_a in range(sa.dim):
            block = sector(comm, n_a, sa.dim)
            expected = np.eye(sb.dim)
            expected[sb.cutoff, sb.cutoff] = -sb.cutoff
            assert np.max(np.abs(block - expected)) <= 1e-12


class TestLinearAmplifiers:
    def test_caves_gain_one_is_number_op(self):
        sa, sb = FockSpace(4), FockSpace(4)
        op = caves_number_out(sa, sb, 1.0)
        assert np.allclose(op.mat, tensor(number_op(sa), identity(sb)).mat, atol=1e-14)

    def test_caves_fock_input_moments(self):
        sa, sb = FockSpace(13), FockSpace(13)
        stats = moments([fock_state(sa, 1), fock_state(sb, 0)], caves_number_out(sa, sb, 2.0))
        # closed-form oracle: mean = G*n_a + (G-1)*(n_b+1), variance from the gain-2 plug-in
        assert abs(stats.mean - 3.0) <= 1e-10
        assert abs(stats.variance - 4.0) <= 1e-8

    def test_caves_rejects_gain_below_one(self):
        with pytest.raises(ValueError):
            caves_number_out(FockSpace(3), FockSpace(3), 0.9)

    def test_caves_accepts_real_gain(self):
        caves_number_out(FockSpace(3), FockSpace(3), 1.5)

    def test_caves_side_above_the_dense_bound_is_refused_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="side 4225 exceeds MAX_DENSE_SIDE"):
                caves_number_out(FockSpace(64), FockSpace(64), 2.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000  # the array itself would be 4225^2 * 16 B = 286 MB

    def test_phase_sensitive_gain_one_is_number_op(self):
        sa = FockSpace(6)
        assert np.allclose(phase_sensitive_number_out(sa, 1.0).mat, number_op(sa).mat, atol=1e-14)

    def test_phase_sensitive_vacuum_moments(self):
        sa = FockSpace(22)
        stats = moments(fock_state(sa, 0), phase_sensitive_number_out(sa, 2.0))
        assert abs(stats.mean - 1.0) <= 1e-10  # (G-1)<a a^dag> on vacuum
        assert abs(stats.variance - 4.0) <= 1e-8

    def test_phase_sensitive_rejects_gain_below_one(self):
        with pytest.raises(ValueError):
            phase_sensitive_number_out(FockSpace(3), 0.5)

    @pytest.mark.parametrize("gain", [1.0, 1.5, 2.0, 7.25, 100.0])
    def test_coefficient_identity(self, gain):
        assert abs(math.sqrt(gain) ** 2 - math.sqrt(gain - 1.0) ** 2 - 1.0) <= 1e-12


CUTOFFS = st.integers(min_value=0, max_value=12)
REAL_GAINS = st.floats(min_value=1.0, max_value=6.0)
INTEGER_GAINS = st.integers(min_value=1, max_value=5)
PHASES = st.floats(min_value=0.0, max_value=2.0 * math.pi, exclude_max=True)


class TestStructuredBuildsMatchDenseOracle:
    """The index-arithmetic builders against the kron/@ builds of tests/dense_oracle.py."""

    @settings(max_examples=60, deadline=None)
    @given(s_a=CUTOFFS, s_b=CUTOFFS, gain=REAL_GAINS)
    def test_caves(self, s_a, s_b, gain):
        sa, sb = FockSpace(s_a), FockSpace(s_b)
        built = caves_number_out(sa, sb, gain)
        oracle = dense_oracle.caves_number_out(sa, sb, gain)
        assert built.spaces == oracle.spaces
        assert np.max(np.abs(built.mat - oracle.mat)) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(s=CUTOFFS, gain=REAL_GAINS)
    def test_phase_sensitive(self, s, gain):
        sp = FockSpace(s)
        built = phase_sensitive_number_out(sp, gain)
        oracle = dense_oracle.phase_sensitive_number_out(sp, gain)
        assert built.spaces == oracle.spaces
        assert np.max(np.abs(built.mat - oracle.mat)) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(s_b=CUTOFFS, s_a=CUTOFFS, gain=INTEGER_GAINS, phase=PHASES)
    def test_nonlinear_bout_exact(self, s_b, s_a, gain, phase):
        sb, sa = FockSpace(s_b), FockSpace(s_a)
        built = nonlinear_bout(sb, sa, gain, phase)
        oracle = dense_oracle.nonlinear_bout(sb, sa, gain, phase)
        assert built.spaces == oracle.spaces
        assert np.array_equal(built.mat, oracle.mat)

    @settings(max_examples=60, deadline=None)
    @given(s=CUTOFFS, phase=PHASES)
    def test_shift_operator_exact(self, s, phase):
        sp = FockSpace(s)
        assert np.array_equal(shift_operator(sp, phase).mat, dense_oracle.shift_operator(sp, phase).mat)


class TestIdealMap:
    def test_transfer_example(self):
        rec = ideal_schrodinger_map(1, 5, 0, 3)
        assert (rec.M_out, rec.N_out) == (2, 3)
        assert rec.absorber_energy == 1.0

    def test_nothing_happens_without_photons(self):
        rec = ideal_schrodinger_map(0, 7, 4, 100)
        assert (rec.M_out, rec.N_out, rec.absorber_energy) == (7, 4, 0.0)

    def test_supply_constraint(self):
        with pytest.raises(ValueError):
            ideal_schrodinger_map(2, 5, 0, 3)

    def test_rejects_negative_and_fractional_gain(self):
        with pytest.raises(ValueError):
            ideal_schrodinger_map(1, 5, 0, 0)
        with pytest.raises(ValueError):
            ideal_schrodinger_map(-1, 5, 0, 2)
        with pytest.raises(ValueError):
            ideal_schrodinger_map(1, 5, 0, 2.5)

    def test_conservation_and_injectivity(self):
        gain = 4
        seen = set()
        for n in range(3):
            for m in range(0, 15):
                for nn in range(0, 8):
                    if m < gain * n:
                        continue
                    rec = ideal_schrodinger_map(n, m, nn, gain)
                    assert rec.M_out + rec.N_out == m + nn
                    assert rec.N_out - nn == gain * n
                    assert rec.absorber_energy == n
                    key = (rec.M_out, rec.N_out, rec.absorber_energy)
                    assert key not in seen
                    seen.add(key)
