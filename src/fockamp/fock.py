"""Truncated bosonic Fock spaces: ladder operators, diagonal states, exact moments.

Everything here is desk-scale linear algebra on number-state bases.  States
are stored as probability vectors over number states (phase-randomized inputs
make off-diagonal density-matrix terms irrelevant to every quantity we
compute).  An operator is stored as its few nonzero diagonals on the number
basis: ``from_bands`` builds every structured operator here and in
``channels`` from them, and ``@``, ``+``, ``-``, ``dagger`` and ``moments``
work on them in O(side) per band.  Exact moments are the oracle the
closed-form noise formulas are checked against.  Dense arrays cross only
through ``OperatorMatrix(spaces, mat)`` and the ``.mat`` view: the tests
rebuild each ``channels`` operator from the ladder matrices with ``np.kron``
and ndarray ``@`` as the brute-force oracle.
"""
from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from functools import reduce
from types import MappingProxyType
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

__all__ = [
    "FockSpace",
    "OperatorMatrix",
    "DiagonalState",
    "NumberStats",
    "TruncationError",
    "annihilation",
    "number_op",
    "identity",
    "fock_state",
    "thermal_state",
    "moments",
    "leakage",
    "default_cutoff",
    "check_truncation",
    "settle_cutoff",
]

LEAKAGE_TOP_LEVELS = 3
LEAKAGE_TOL = 1e-10
MAX_CUTOFF = 100_000  # settle_cutoff gives up beyond this
MAX_DENSE_SIDE = 4096  # largest operator side: its bands and its dense view hold at most 256 MiB of complex entries
_FLOAT_MAX = sys.float_info.max


class TruncationError(RuntimeError):
    """A state carries non-negligible weight in the top levels of its space."""


def _shown(value) -> str:
    """``repr(value)``, but an int beyond the float range by its bit length: Python prints at most 4300 digits."""
    return f"an int of {value.bit_length()} bits" if isinstance(value, int) and value.bit_length() > 1024 else repr(value)


def _check_integer(value, name: str, minimum: Optional[int] = None, maximum: Optional[int] = None) -> int:
    """The one integer check: an int, or a real with an integral value (2.0 reads as 2).

    bool, nan, +-inf, non-integral values and values outside [``minimum``, ``maximum``] raise ValueError.
    """
    integral = isinstance(value, numbers.Integral) or (isinstance(value, numbers.Real) and float(value).is_integer())
    if isinstance(value, bool) or not integral:
        raise ValueError(f"{name} must be an integer, got {_shown(value)}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {_shown(value)}")
    if maximum is not None and value > maximum:
        raise ValueError(f"{name} must be an integer <= {maximum}, got {_shown(value)}")
    return int(value)


def _check_real(value, name: str, minimum: Optional[float] = None, strict: bool = False) -> float:
    """The one real check: an int or float within the float range, >= ``minimum`` (> it when ``strict``), as a float.

    bool, str, nan, +-inf and values out of range raise ValueError.  The slow numbers.Real ABC test comes last.
    """
    real = type(value) is float or (isinstance(value, (int, numbers.Real)) and not isinstance(value, bool))
    if not real or not abs(value) <= _FLOAT_MAX:
        raise ValueError(f"{name} must be a real number within the float range, got {_shown(value)}")
    if minimum is not None and (value <= minimum if strict else value < minimum):
        raise ValueError(f"{name} must be a real number {'>' if strict else '>='} {minimum:g}, got {_shown(value)}")
    return float(value)


def _check_numbers(value, name: str) -> np.ndarray:
    """The one numeric-array check: ``value`` as an array of numbers; str, None (which a cast reads as nan) and objects raise ValueError."""
    values = np.asarray(value)
    if values.dtype.kind not in "biufc":
        raise ValueError(f"{name} must be numbers, got {value!r}")
    return values


@dataclass(frozen=True)
class FockSpace:
    """Number-state space truncated at occupation ``cutoff`` (dimension cutoff+1)."""

    cutoff: int

    def __post_init__(self):
        object.__setattr__(self, "cutoff", _check_integer(self.cutoff, "cutoff", 0))

    @property
    def dim(self) -> int:
        return self.cutoff + 1


def _dense_side(spaces: Sequence[FockSpace]) -> int:
    """Side of the dense matrix on ``spaces``; ValueError above MAX_DENSE_SIDE."""
    side = math.prod(sp.dim for sp in spaces)
    if side > MAX_DENSE_SIDE:
        raise ValueError(f"dense operator side {side} exceeds MAX_DENSE_SIDE = {MAX_DENSE_SIDE}")
    return side


class OperatorMatrix:
    """Complex matrix on a tensor product of Fock spaces, stored as its nonzero diagonals.

    ``bands`` maps an offset k to the read-only vector of entries (i, i + k), as in
    ``np.diag`` (k > 0 above the main diagonal).  ``OperatorMatrix(spaces, mat)``
    splits a dense matrix into its nonzero diagonals; ``mat`` is a dense view built
    on each access.  A band set holds at most side² entries, so MAX_DENSE_SIDE caps both.
    """

    __slots__ = ("spaces", "dim", "bands")

    def __init__(self, spaces: Sequence[FockSpace], mat):
        spaces, mat = tuple(spaces), np.asarray(_check_numbers(mat, "matrix entries"), dtype=complex)
        side = _dense_side(spaces)
        if mat.shape != (side, side):
            raise ValueError(f"matrix shape {mat.shape} does not match factor dimensions (side {side})")
        rows, cols = np.nonzero(mat)
        self._set(spaces, side, {int(k): mat.diagonal(k).copy() for k in np.unique(cols - rows)})

    def _set(self, spaces: tuple, side: int, bands: dict) -> "OperatorMatrix":
        for values in bands.values():
            values.setflags(write=False)  # shared, never copied, between the operators built from them
        self.spaces, self.dim, self.bands = spaces, side, MappingProxyType(bands)
        return self

    def _with(self, bands: dict) -> "OperatorMatrix":
        return object.__new__(OperatorMatrix)._set(self.spaces, self.dim, bands)

    @classmethod
    def from_bands(cls, spaces: Sequence[FockSpace], bands: Mapping[int, object]) -> "OperatorMatrix":
        """Operator whose only nonzero diagonals are ``bands``: {k: scalar or vector of length side - |k|}."""
        spaces = tuple(spaces)
        side, full = _dense_side(spaces), {}
        for k, v in bands.items():
            values = _check_numbers(v, f"band {k}")
            if values.ndim > 1:  # the assignment below would read a (1, n) array as a vector
                raise ValueError(f"band {k} must be a number or a vector of numbers, got {v!r}")
            band = full[k] = np.empty(max(side - abs(k), 0), dtype=complex)  # a copy: never the caller's array
            band[:] = values
        return object.__new__(cls)._set(spaces, side, {k: v for k, v in full.items() if v.size})  # |k| >= side: no entries

    @property
    def mat(self) -> np.ndarray:
        mat = np.zeros((self.dim, self.dim), dtype=complex)
        for k, values in self.bands.items():  # entry (i, i + k) sits at flat index i * (side + 1) + k
            mat.reshape(-1)[k if k >= 0 else -k * self.dim :: self.dim + 1][: values.size] = values
        mat.setflags(write=False)
        return mat

    def dagger(self) -> "OperatorMatrix":
        return self._with({-k: values.conj() for k, values in self.bands.items()})

    def _check_same_shape(self, other: "OperatorMatrix"):
        if self.spaces != other.spaces:
            raise ValueError("operators act on different space shapes")

    def __matmul__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        """Band k1 times band k2 lands on band k1 + k2, in O(side) per pair."""
        self._check_same_shape(other)
        side, out = self.dim, {}
        right = [(k2, b, max(0, -k2)) for k2, b in other.bands.items()]  # band k starts at row max(0, -k)
        for k1, a in self.bands.items():
            start1, limit1 = max(0, -k1), min(side, side - k1)
            for k2, b, start2 in right:
                k = k1 + k2  # rows i in [lo, hi) hold both (i, i + k1) and (i + k1, i + k)
                start = max(0, -k)
                lo, hi = max(start1, start), min(limit1, side - k)
                if lo < hi:
                    term = a[lo - start1 : hi - start1] * b[lo + k1 - start2 : hi + k1 - start2]
                    band = out.get(k)
                    if band is None:
                        band = out[k] = np.zeros(side - abs(k), dtype=complex)
                    band[lo - start : hi - start] += term
        return self._with(out)

    def __add__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        self._check_same_shape(other)
        bands = dict(self.bands)
        for k, values in other.bands.items():
            bands[k] = bands[k] + values if k in bands else values
        return self._with(bands)

    def __sub__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        return self + (-1.0) * other

    def __rmul__(self, scalar) -> "OperatorMatrix":
        return self._with({k: scalar * values for k, values in self.bands.items()})


@dataclass(frozen=True)
class DiagonalState:
    """Probability vector over the number states of a single space."""

    space: FockSpace
    probs: np.ndarray

    def __post_init__(self):
        probs = _check_numbers(self.probs, "probabilities")
        if probs.dtype.kind == "c":  # the float cast below would drop the imaginary parts
            raise ValueError(f"probabilities must be real, got {self.probs!r}")
        probs = np.array(probs, dtype=float)  # a copy, frozen below
        if probs.shape != (self.space.dim,):
            raise ValueError(f"probability vector length {probs.shape} does not match dimension {self.space.dim}")
        if not np.all(np.isfinite(probs)):
            raise ValueError("probabilities must be finite")
        if np.any(probs < 0):
            raise ValueError("probabilities must be nonnegative")
        total = float(probs.sum())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {total}, expected 1 within 1e-12")
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)

    def number_stats(self) -> "NumberStats":
        n = np.arange(self.space.dim)
        mean = float(self.probs @ n)
        var = float(self.probs @ (n * n)) - mean * mean
        return NumberStats(mean, max(var, 0.0))


@dataclass(frozen=True)
class NumberStats:
    """(mean, variance) pair of a number observable."""

    mean: float
    variance: float

    def __post_init__(self):
        mean, variance = _check_real(self.mean, "mean"), _check_real(self.variance, "variance")
        if variance < -1e-9:
            raise ValueError(f"variance must be nonnegative, got {variance}")
        object.__setattr__(self, "variance", max(variance, 0.0))
        object.__setattr__(self, "mean", mean)


def annihilation(space: FockSpace) -> OperatorMatrix:
    """Ladder operator with entries <n-1|a|n> = sqrt(n)."""
    return OperatorMatrix.from_bands((space,), {1: np.sqrt(np.arange(1, space.dim, dtype=float))})


def number_op(space: FockSpace) -> OperatorMatrix:
    """diag(0, 1, ..., s)."""
    return OperatorMatrix.from_bands((space,), {0: np.arange(space.dim, dtype=float)})


def identity(space: FockSpace) -> OperatorMatrix:
    return OperatorMatrix.from_bands((space,), {0: 1.0})


def fock_state(space: FockSpace, n: int) -> DiagonalState:
    n = _check_integer(n, "occupation (at most the cutoff)", 0, space.cutoff)
    probs = np.zeros(space.dim)
    probs[n] = 1.0
    return DiagonalState(space, probs)


def thermal_state(space: FockSpace, nbar: float) -> DiagonalState:
    """Geometric number distribution with mean ``nbar``, renormalized over 0..s.

    Truncation is renormalized rather than clipped, so the probabilities sum to
    one exactly; the bias this introduces is controlled by the leakage check.
    """
    nbar = _check_real(nbar, "mean occupation", 0)
    q = nbar / (nbar + 1.0)
    weights = q ** np.arange(space.dim)  # 0.0**0 = 1, so nbar = 0 gives the vacuum exactly
    return DiagonalState(space, weights / weights.sum())


def moments(state: DiagonalState | Sequence[DiagonalState], observable: OperatorMatrix) -> NumberStats:
    """Exact <O> and <O^2> - <O>^2 of an observable against a diagonal state.

    ``state`` is either a DiagonalState on the observable's full (flattened)
    index space or a list of per-factor DiagonalStates, taken as independent.
    No structure is assumed for the observable: <i|O^2|i> is the sum over its
    bands k of O[i, i + k] O[i + k, i], and a dense matrix is just 2 side - 1 bands.
    """
    states = [state] if isinstance(state, DiagonalState) else state
    probs = reduce(np.kron, [st.probs for st in states])  # joint law of independent factors
    if probs.shape[0] != observable.dim:
        raise ValueError(f"state dimension {probs.shape[0]} does not match operator side {observable.dim}")
    bands = observable.bands
    diag_o2 = np.zeros(observable.dim, dtype=complex)
    for offset in sorted(bands.keys() & {-k for k in bands}):  # (i, i + k) meets (i + k, i) on rows of both bands
        diag_o2[max(0, -offset) : observable.dim - max(0, offset)] += bands[offset] * bands[-offset]
    mean = float(np.real(probs @ bands[0])) if 0 in bands else 0.0
    second = float(np.real(probs @ diag_o2))
    return NumberStats(mean, max(second - mean * mean, 0.0))


def leakage(state: DiagonalState) -> float:
    """Total probability in the LEAKAGE_TOP_LEVELS highest number states: all of it in a space of fewer levels."""
    return float(state.probs[-LEAKAGE_TOP_LEVELS:].sum())


def default_cutoff(n_b_mean: float, n_b_var: float, gain: float, n_a_max: int) -> int:
    """Starting cutoff for an amplification experiment.

    ceil(n_b + G*n_a_max + 10*sqrt(var_b + 1) + 10): mean reach of the amplified
    signal plus a ten-sigma-style pad.  Always validate with check_truncation;
    heavy-tailed reservoir states may need settle_cutoff to grow it further.
    The reals are >= 0 and n_a_max an integer >= 0; a start beyond the float range is a ValueError.
    """
    n_b_mean, n_b_var, gain = (_check_real(v, k, 0) for k, v in (("n_b_mean", n_b_mean), ("n_b_var", n_b_var), ("gain", gain)))
    n_a_max = _check_integer(n_a_max, "n_a_max (within the float range)", 0, _FLOAT_MAX)
    start = n_b_mean + gain * n_a_max + 10.0 * math.sqrt(n_b_var + 1.0) + 10.0
    if start > _FLOAT_MAX:
        raise ValueError(f"the starting cutoff n_b_mean + gain * n_a_max + 10 sqrt(n_b_var + 1) + 10 at gain = {gain:g}"
                         f" and n_a_max = {n_a_max} is beyond the float range")
    return math.ceil(start)


def check_truncation(state: DiagonalState):
    """Guard one state: abort when it leaks more than LEAKAGE_TOL into its top LEAKAGE_TOP_LEVELS levels."""
    k = min(LEAKAGE_TOP_LEVELS, state.space.dim)
    leak = leakage(state)
    if leak > LEAKAGE_TOL:
        raise TruncationError(f"cutoff {state.space.cutoff} inadequate: top-{k} leakage {leak:.3e} exceeds {LEAKAGE_TOL:.0e}")


def settle_cutoff(build_state: Callable[[int], DiagonalState], start: int) -> int:
    """Grow a cutoff s from ``start``, an integer >= 0, to max(s + 8, int(1.5 * s)) until the leakage guard passes."""
    s = max(_check_integer(start, "start", 0), LEAKAGE_TOP_LEVELS)
    if s > MAX_CUTOFF:  # refused before any state is built, as there is no cutoff to search
        raise TruncationError(f"start {_shown(start)} is above MAX_CUTOFF = {MAX_CUTOFF}: no cutoff to search")
    while s <= MAX_CUTOFF:
        if leakage(build_state(s)) <= LEAKAGE_TOL:
            return s
        s = max(s + 8, int(1.5 * s))
    raise TruncationError(f"no adequate cutoff at or below {MAX_CUTOFF}")
