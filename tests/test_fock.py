import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_oracle import tensor
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
    thermal_state,
)
from fockamp.fock import LEAKAGE_TOL, MAX_CUTOFF, MAX_DENSE_SIDE, _dense_side


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
    def test_distinct_factors_commute(self):
        rng = np.random.default_rng(5)
        shape = [FockSpace(3), FockSpace(2)]
        x = OperatorMatrix((shape[0],), rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        y = OperatorMatrix((shape[1],), rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        comm = commutator(tensor(x, identity(shape[1])), tensor(identity(shape[0]), y)).mat
        assert np.max(np.abs(comm)) <= 1e-13

    def test_empty_product_and_mismatched_matrix_are_refused(self):
        with pytest.raises(ValueError, match="does not match factor dimensions"):
            OperatorMatrix((FockSpace(1), FockSpace(2)), np.eye(5))
        with pytest.raises(ValueError, match="matrix entries must be numbers"):
            OperatorMatrix((FockSpace(4),), np.full((5, 5), "1"))  # a cast would read an all-ones matrix


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

    @pytest.mark.parametrize("value", [np.ones((1, 3)), np.ones((3, 1)), np.ones(2), "abc", "1", None])
    def test_band_that_is_not_a_vector_of_numbers_is_refused(self, value):
        # band 1 of side 4 has 3 entries; assignment alone would take (1, 3), "1" and None (as nan)
        with pytest.raises(ValueError):
            OperatorMatrix.from_bands((FockSpace(3),), {1: value})

    def test_non_finite_entries_pass_through(self):
        op = OperatorMatrix.from_bands((FockSpace(2),), {0: np.nan, 1: [np.inf, -np.inf]})
        assert np.isnan(op.bands[0]).all() and list(op.bands[1]) == [np.inf, -np.inf]

    def test_bands_are_frozen_copies_of_the_callers_arrays(self):
        main, upper = np.arange(4.0), np.array([1.0, 2.0, 3.0]) + 1j
        op = OperatorMatrix.from_bands((FockSpace(3),), {0: main, 1: upper, -2: 5.0})
        main[:], upper[:] = -1.0, 0.0
        assert np.array_equal(op.bands[0], [0.0, 1.0, 2.0, 3.0]) and np.array_equal(op.bands[1], [1 + 1j, 2 + 1j, 3 + 1j])
        assert np.array_equal(op.bands[-2], [5.0, 5.0])
        assert all(not values.flags.writeable for values in op.bands.values())


UNIT = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


@st.composite
def band_operator(draw, side):
    """An operator of the given side: a dense random matrix split by the constructor (zeros sprinkled in),
    or a band set holding the wrap offset 1 - side, bands of zeros and offsets past the edge."""
    space = (FockSpace(side - 1),)
    if draw(st.booleans()):
        entries = draw(st.lists(st.tuples(UNIT, UNIT, st.booleans()), min_size=side * side, max_size=side * side))
        mat = np.array([complex(re, im) if keep else 0j for re, im, keep in entries]).reshape(side, side)
        return OperatorMatrix(space, mat), mat
    offsets = draw(st.sets(st.integers(-side - 1, side + 1), max_size=4)) | {1 - side}
    bands = {}
    for o in offsets:
        length = max(side - abs(o), 0)
        kind = draw(st.sampled_from(["zero", "scalar", "vector"]))
        if kind == "zero":  # a band with no nonzero entries
            bands[o] = 0.0
        elif kind == "scalar":
            bands[o] = complex(draw(UNIT), draw(UNIT))
        else:
            parts = [np.array(draw(st.lists(UNIT, min_size=length, max_size=length)), dtype=float) for _ in range(2)]
            bands[o] = parts[0] + 1j * parts[1]
    op = OperatorMatrix.from_bands(space, bands)
    mat = np.zeros((side, side), dtype=complex)
    for o, v in bands.items():
        if side - abs(o) > 0:
            mat += np.diag(np.broadcast_to(np.asarray(v, dtype=complex), (side - abs(o),)), k=o)
    return op, mat


@st.composite
def operator_pairs(draw):
    side = draw(st.integers(1, 9))
    x, y = draw(band_operator(side)), draw(band_operator(side))
    weights = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=side, max_size=side))) + 1e-3
    scalar = complex(draw(UNIT), draw(UNIT))
    return x, y, DiagonalState(FockSpace(side - 1), weights / weights.sum()), scalar


def _dense_moments(probs, mat):
    mean = float(np.real(probs @ np.diag(mat)))
    return mean, max(float(np.real(probs @ np.diag(mat @ mat))) - mean * mean, 0.0)


class TestBandAlgebra:
    """Every band operation against ndarray arithmetic on the dense matrices."""

    @settings(max_examples=200, deadline=None)
    @given(case=operator_pairs())
    def test_matches_ndarray_arithmetic(self, case):
        (x, xm), (y, ym), state, scalar = case
        assert np.array_equal(x.mat, xm) and np.array_equal(y.mat, ym)
        assert np.array_equal(OperatorMatrix(x.spaces, xm).mat, xm)  # the split gives the matrix back exactly
        for built, want in (
            (x.dagger(), xm.conj().T),
            (x + y, xm + ym),
            (x - y, xm - ym),
            (scalar * x, scalar * xm),
            (x @ y, xm @ ym),
            (y @ x.dagger(), ym @ xm.conj().T),
        ):
            assert built.spaces == x.spaces and built.dim == xm.shape[0]
            assert np.max(np.abs(built.mat - want)) <= 1e-12
        for op, mat in ((x, xm), (x + x.dagger(), xm + xm.conj().T), (x @ y, xm @ ym)):
            stats, (mean, variance) = moments(state, op), _dense_moments(state.probs, mat)
            assert abs(stats.mean - mean) <= 1e-12 and abs(stats.variance - variance) <= 1e-12

    def test_band_storage_keeps_only_the_diagonals(self):
        op = OperatorMatrix((FockSpace(3),), np.diag([1.0, 2.0, 3.0], k=1) + np.diag([5.0], k=-3))
        assert sorted(op.bands) == [-3, 1]
        assert np.array_equal(op.bands[1], [1.0, 2.0, 3.0]) and not op.bands[1].flags.writeable
        assert not op.mat.flags.writeable
        assert sorted((op @ op.dagger()).bands) == [0]  # a weighted cyclic shift times its adjoint is diagonal


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
        with pytest.raises(ValueError, match="probabilities must be numbers"):
            DiagonalState(FockSpace(1), ["0.5", "0.5"])  # a cast would read the strings as 0.5
        with pytest.raises(ValueError, match="probabilities must be real"):
            DiagonalState(FockSpace(1), [0.5 + 1j, 0.5])  # a cast would drop the imaginary part
        with pytest.raises(ValueError, match="nonnegative"):
            NumberStats(1.0, -0.5)
        assert NumberStats(1.0, -1e-9).variance == 0.0  # a rounding-size negative variance, down to -1e-9, reads as 0


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
        assert leakage(fock_state(FockSpace(5), 0)) == 0.0
        assert leakage(fock_state(FockSpace(5), 5)) == 1.0
        assert leakage(fock_state(FockSpace(5), 3)) == 1.0  # level 3 is the lowest of the top three of 0..5
        assert leakage(fock_state(FockSpace(5), 2)) == 0.0
        st = thermal_state(FockSpace(1), 1.0)  # a space of fewer than 3 levels gives its whole mass
        assert leakage(st) == float(st.probs.sum()) and leakage(fock_state(FockSpace(1), 0)) == 1.0

    def test_thermal_tail_oracle(self):
        st = thermal_state(FockSpace(60), 1.0)
        probs, _, _ = truncated_geometric(1.0, 60)
        oracle_tail = sum(probs[-3:])  # the guard's top 3 levels, 58..60
        assert abs(leakage(st) - oracle_tail) <= 1e-18
        assert leakage(st) < 1e-12

    def test_monotone_in_cutoff(self):
        leaks = [leakage(thermal_state(FockSpace(s), 1.0)) for s in (20, 32, 48, 64)]
        assert all(b < a for a, b in zip(leaks, leaks[1:]))


class TestCutoffPolicy:
    def test_default_cutoff_formula(self):
        assert default_cutoff(0.0, 0.0, 1.0, 0) == 20
        assert default_cutoff(1.0, 2.0, 3.0, 2) == math.ceil(1 + 6 + 10 * math.sqrt(3) + 10)
        # a start that rounds to the float maximum is still within the float range
        assert default_cutoff(sys.float_info.max, 0.0, 0.0, 0) == int(sys.float_info.max)

    def test_guard_raises_on_inadequate_cutoff(self):
        with pytest.raises(TruncationError):
            check_truncation(thermal_state(FockSpace(6), 1.0))

    def test_settle_cutoff_grows_until_guard_passes(self):
        start = default_cutoff(1.0, 2.0, 1.0, 0)
        s = settle_cutoff(lambda k: thermal_state(FockSpace(k), 1.0), start)
        assert s >= start
        check_truncation(thermal_state(FockSpace(s), 1.0))

    def test_settle_cutoff_grows_by_the_documented_schedule(self):
        # each miss grows s to max(s + 8, int(1.5 * s)): at least 8 levels, then half again
        def tried(nbar, start):
            seen = []
            settled = settle_cutoff(lambda k: seen.append(k) or thermal_state(FockSpace(k), nbar), start)
            return settled, seen

        assert tried(0.05, 3) == (11, [3, 11])
        assert tried(5.0, 3) == (141, [3, 11, 19, 28, 42, 63, 94, 141])

    def test_settle_cutoff_accepts_max_cutoff_itself(self):
        assert settle_cutoff(lambda k: fock_state(FockSpace(k), 0), MAX_CUTOFF) == MAX_CUTOFF

    def test_leakage_exactly_at_the_tolerance_passes(self):
        def build(s):  # top-3 leakage is exactly LEAKAGE_TOL: all of it on the top level
            probs = np.zeros(s + 1)
            probs[0], probs[-1] = 1.0 - LEAKAGE_TOL, LEAKAGE_TOL
            return DiagonalState(FockSpace(s), probs)

        assert leakage(build(3)) == LEAKAGE_TOL
        check_truncation(build(3))
        assert settle_cutoff(build, 3) == 3

    def test_settle_cutoff_gives_up_beyond_max_cutoff(self):
        # thermal(1e5) leaks past 1e-10 until s is about 2.3e6
        with pytest.raises(TruncationError, match="no adequate cutoff"):
            settle_cutoff(lambda k: thermal_state(FockSpace(k), 1e5), 3)

    @pytest.mark.parametrize("start", [MAX_CUTOFF + 1, 1e308, 10**400])
    def test_settle_cutoff_refuses_a_start_above_max_cutoff_before_building_a_state(self, start):
        def refuse(s):
            raise AssertionError("a start above MAX_CUTOFF leaves no cutoff to search")

        with pytest.raises(TruncationError, match=f"start .* is above MAX_CUTOFF = {MAX_CUTOFF}"):
            settle_cutoff(refuse, start)

    @pytest.mark.parametrize(
        "args, match",
        [
            ((math.nan, 0.0, 1.0, 1), "n_b_mean"),
            ((0.0, -1.0, 1.0, 1), "n_b_var"),  # sqrt of a negative
            ((0.0, 0.0, math.inf, 1), "gain"),
            (("x", 0.0, 1.0, 1), "n_b_mean"),
            ((0.0, 0.0, 1.0, 1.5), "n_a_max"),
            ((0.0, 0.0, 1.0, -1), "n_a_max"),
            ((0.0, 0.0, 1.0, 10**400), "n_a_max"),  # no float holds it
            ((1e308, 0.0, 1e308, 10), "starting cutoff"),  # the sum is inf, whose ceil overflows
        ],
    )
    def test_default_cutoff_refuses_each_bad_scalar(self, args, match):
        with pytest.raises(ValueError, match=match):
            default_cutoff(*args)

    @pytest.mark.parametrize("start", [math.nan, "x", -1, 2.5, True])
    def test_settle_cutoff_refuses_a_start_that_is_not_an_integer_at_least_0(self, start):
        with pytest.raises(ValueError, match="start"):
            settle_cutoff(lambda k: thermal_state(FockSpace(k), 1.0), start)
