import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockamp import (
    DiagonalState,
    FockSpace,
    NumberStats,
    OperatorMatrix,
    TruncationError,
    annihilation,
    check_truncation,
    commutator,
    default_cutoff,
    fock_state,
    identity,
    leakage,
    moments,
    number_op,
    settle_cutoff,
    tensor,
    thermal_state,
)
from fockamp.fock import MAX_DENSE_SIDE, _dense_side


def truncated_geometric(nbar, s):
    """Independent oracle: renormalized q^n law summed directly."""
    q = nbar / (nbar + 1.0)
    weights = [q**n for n in range(s + 1)]
    total = sum(weights)
    probs = [w / total for w in weights]
    mean = sum(n * p for n, p in enumerate(probs))
    second = sum(n * n * p for n, p in enumerate(probs))
    return probs, mean, second - mean * mean


class TestFockSpace:
    @pytest.mark.parametrize("cutoff,dim", [(0, 1), (3, 4), (100, 101)])
    def test_dimension(self, cutoff, dim):
        assert FockSpace(cutoff).dim == dim

    def test_negative_cutoff_rejected(self):
        with pytest.raises(ValueError):
            FockSpace(-1)


class TestLadderOperators:
    def test_annihilation_s1(self):
        assert np.array_equal(annihilation(FockSpace(1)).mat, [[0, 1], [0, 0]])

    def test_annihilation_s2_entries(self):
        a = annihilation(FockSpace(2)).mat
        assert a[0, 1] == 1.0
        assert a[1, 2] == math.sqrt(2)
        assert np.count_nonzero(a) == 2

    @pytest.mark.parametrize("s", [0, 1, 2, 7, 25])
    def test_number_op_is_adag_a(self, s):
        sp = FockSpace(s)
        a = annihilation(sp)
        assert np.allclose((a.dagger() @ a).mat, number_op(sp).mat, atol=1e-14)
        assert np.array_equal(np.diag(number_op(sp).mat).real, np.arange(s + 1))

    @pytest.mark.parametrize("s", [1, 2, 5, 14])
    def test_ladder_commutator_identity_except_top(self, s):
        sp = FockSpace(s)
        a = annihilation(sp)
        comm = commutator(a, a.dagger()).mat
        expected = np.eye(s + 1)
        expected[s, s] = -s
        assert np.max(np.abs(comm - expected)) <= 1e-13


class TestEmbed:
    def test_identity_embeds_to_identity(self):
        shape = [FockSpace(2), FockSpace(3), FockSpace(1)]
        full = tensor(*(identity(sp) for sp in shape))
        assert np.array_equal(full.mat, np.eye(3 * 4 * 2))

    def test_kron_order(self):
        shape = [FockSpace(1), FockSpace(1)]
        lifted = tensor(number_op(shape[0]), identity(shape[1]))
        assert np.array_equal(np.diag(lifted.mat).real, [0, 0, 1, 1])

    def test_distinct_factors_commute(self):
        rng = np.random.default_rng(5)
        shape = [FockSpace(3), FockSpace(2)]
        x = OperatorMatrix((shape[0],), rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        y = OperatorMatrix((shape[1],), rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        comm = commutator(tensor(x, identity(shape[1])), tensor(identity(shape[0]), y)).mat
        assert np.max(np.abs(comm)) <= 1e-13

    def test_empty_product_and_mismatched_matrix_are_refused(self):
        with pytest.raises(ValueError, match="at least one operator"):
            tensor()
        with pytest.raises(ValueError, match="does not match factor dimensions"):
            OperatorMatrix((FockSpace(1), FockSpace(2)), np.eye(5))


def _band_values(draw, length):
    """A scalar, or a complex vector of the band's length."""
    part = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
    if draw(st.booleans()):
        return complex(draw(part), draw(part))
    real = draw(st.lists(part, min_size=length, max_size=length))
    imag = draw(st.lists(part, min_size=length, max_size=length))
    return np.array(real) + 1j * np.array(imag)


@st.composite
def banded(draw):
    """(side, bands) for a side of 1..13: random offsets, the wrap offset 1 - side, and offsets past the edge."""
    side = draw(st.integers(1, 13))
    offsets = draw(st.sets(st.integers(-side - 2, side + 2), max_size=5)) | {1 - side}
    return side, {o: _band_values(draw, max(side - abs(o), 0)) for o in offsets}


class TestFromBands:
    @settings(max_examples=150, deadline=None)
    @given(case=banded())
    def test_matches_sum_of_np_diag(self, case):
        side, bands = case
        oracle = np.zeros((side, side), dtype=complex)
        for o, v in bands.items():
            length = max(side - abs(o), 0)
            if length:  # an offset past the edge has no entries
                oracle += np.diag(np.broadcast_to(np.asarray(v, dtype=complex), (length,)), k=o)
        op = OperatorMatrix.from_bands([FockSpace(side - 1)], bands)
        assert op.spaces == (FockSpace(side - 1),)
        assert np.array_equal(op.mat, oracle)

    def test_side_above_the_bound_is_refused(self):
        assert _dense_side((FockSpace(63), FockSpace(63))) == MAX_DENSE_SIDE == 4096  # the largest side allowed
        with pytest.raises(ValueError, match=f"side 4225 exceeds MAX_DENSE_SIDE = {MAX_DENSE_SIDE}"):
            OperatorMatrix.from_bands((FockSpace(64), FockSpace(64)), {0: 1.0})

    def test_wrong_band_length_is_refused(self):
        with pytest.raises(ValueError):
            OperatorMatrix.from_bands((FockSpace(3),), {1: np.ones(4)})


class TestStates:
    def test_fock_state_basics(self):
        st = fock_state(FockSpace(5), 2)
        assert st.probs[2] == 1.0 and st.probs.sum() == 1.0
        assert st.number_stats() == moments(st, number_op(st.space))
        assert moments(st, number_op(st.space)).mean == 2.0
        assert moments(st, number_op(st.space)).variance == 0.0

    def test_fock_state_beyond_cutoff(self):
        with pytest.raises(ValueError):
            fock_state(FockSpace(5), 6)
        with pytest.raises(ValueError):
            fock_state(FockSpace(5), -1)

    def test_thermal_zero_is_vacuum(self):
        st = thermal_state(FockSpace(5), 0.0)
        assert np.array_equal(st.probs, [1, 0, 0, 0, 0, 0])

    def test_thermal_negative_mean_rejected(self):
        with pytest.raises(ValueError):
            thermal_state(FockSpace(5), -0.2)

    def test_thermal_small_space_hand_values(self):
        st = thermal_state(FockSpace(2), 1.0)
        assert np.allclose(st.probs, [4 / 7, 2 / 7, 1 / 7], atol=1e-15)

    def test_thermal_large_space_matches_series_oracle(self):
        probs, mean, var = truncated_geometric(1.0, 60)
        st = thermal_state(FockSpace(60), 1.0)
        assert np.allclose(st.probs, probs, atol=1e-15)
        stats = moments(st, number_op(st.space))
        assert abs(stats.mean - mean) <= 1e-12 and abs(stats.variance - var) <= 1e-12
        # untruncated law has mean nbar and variance nbar(nbar+1)
        assert abs(stats.mean - 1.0) <= 1e-9
        assert abs(stats.variance - 2.0) <= 1e-9

    @pytest.mark.parametrize("nbar", [0.1, 0.9, 2.5])
    def test_thermal_monotone_and_normalized(self, nbar):
        st = thermal_state(FockSpace(40), nbar)
        assert abs(float(st.probs.sum()) - 1.0) <= 1e-12
        assert np.all(np.diff(st.probs) <= 0)

    def test_state_validation(self):
        with pytest.raises(ValueError):
            DiagonalState(FockSpace(2), np.array([0.5, 0.6, 0.2]))
        with pytest.raises(ValueError):
            DiagonalState(FockSpace(2), np.array([1.2, -0.2, 0.0]))
        with pytest.raises(ValueError):
            DiagonalState(FockSpace(3), np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="nonnegative"):
            NumberStats(1.0, -0.5)


class TestMoments:
    def test_fock_observable(self):
        st = fock_state(FockSpace(6), 2)
        stats = moments(st, number_op(st.space))
        assert (stats.mean, stats.variance) == (2.0, 0.0)

    def test_product_state_total_number(self):
        sa, sb = FockSpace(4), FockSpace(4)
        obs = tensor(number_op(sa), identity(sb)) + tensor(identity(sa), number_op(sb))
        stats = moments([fock_state(sa, 1), fock_state(sb, 3)], obs)
        assert (stats.mean, stats.variance) == (4.0, 0.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            moments(fock_state(FockSpace(3), 0), number_op(FockSpace(5)))

    def test_variance_scaling(self):
        st = thermal_state(FockSpace(40), 0.7)
        obs = number_op(st.space)
        base = moments(st, obs).variance
        assert base >= 0
        scaled = moments(st, 3.5 * obs).variance
        assert abs(scaled - 3.5**2 * base) <= 1e-10 * max(1.0, scaled)

    def test_independence_factorization(self):
        rng = np.random.default_rng(11)
        sa, sb = FockSpace(5), FockSpace(6)
        rho_a, rho_b = thermal_state(sa, 0.4), thermal_state(sb, 0.8)
        f = OperatorMatrix((sa,), np.diag(rng.standard_normal(sa.dim)))
        g = OperatorMatrix((sb,), np.diag(rng.standard_normal(sb.dim)))
        joint = moments([rho_a, rho_b], tensor(f, g)).mean
        split = moments(rho_a, f).mean * moments(rho_b, g).mean
        assert abs(joint - split) <= 1e-10

    def test_offdiagonal_observable_second_moment(self):
        # quadrature-like observable: the second moment must see the full matrix square
        sp = FockSpace(20)
        a = annihilation(sp)
        x = a + a.dagger()
        stats = moments(fock_state(sp, 0), x)
        assert abs(stats.mean) <= 1e-14
        assert abs(stats.variance - 1.0) <= 1e-12


class TestLeakage:
    def test_vacuum_and_top_fock(self):
        assert leakage(fock_state(FockSpace(5), 0), 1) == 0.0
        assert leakage(fock_state(FockSpace(5), 5), 1) == 1.0

    def test_thermal_tail_oracle(self):
        st = thermal_state(FockSpace(60), 1.0)
        probs, _, _ = truncated_geometric(1.0, 60)
        oracle_tail = sum(probs[-5:])
        assert abs(leakage(st, 5) - oracle_tail) <= 1e-18
        assert leakage(st, 5) < 1e-12

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            leakage(fock_state(FockSpace(5), 0), 7)

    def test_monotone_in_cutoff(self):
        leaks = [leakage(thermal_state(FockSpace(s), 1.0), 3) for s in (20, 32, 48, 64)]
        assert all(b < a for a, b in zip(leaks, leaks[1:]))


class TestCutoffPolicy:
    def test_default_cutoff_formula(self):
        assert default_cutoff(0.0, 0.0, 1.0, 0) == 20
        assert default_cutoff(1.0, 2.0, 3.0, 2) == math.ceil(1 + 6 + 10 * math.sqrt(3) + 10)

    def test_guard_raises_on_inadequate_cutoff(self):
        with pytest.raises(TruncationError):
            check_truncation(thermal_state(FockSpace(6), 1.0))

    def test_settle_cutoff_grows_until_guard_passes(self):
        start = default_cutoff(1.0, 2.0, 1.0, 0)
        s = settle_cutoff(lambda k: thermal_state(FockSpace(k), 1.0), start)
        assert s >= start
        check_truncation(thermal_state(FockSpace(s), 1.0))

    def test_settle_cutoff_gives_up_beyond_max_cutoff(self):
        # thermal(1e5) leaks past 1e-10 until s is about 2.3e6
        with pytest.raises(TruncationError, match="no adequate cutoff"):
            settle_cutoff(lambda k: thermal_state(FockSpace(k), 1e5), 3)
