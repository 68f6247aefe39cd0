"""Truncated bosonic Fock spaces: ladder operators, diagonal states, exact moments.

Everything here is dense, desk-scale linear algebra on number-state bases.
States are stored as probability vectors over number states (phase-randomized
inputs make off-diagonal density-matrix terms irrelevant to every quantity we
compute); operators are dense complex matrices.  Exact moments of those
matrices are the oracle the closed-form noise formulas are checked against.
One constructor, ``OperatorMatrix.from_bands``, builds every structured
operator here and in ``channels`` by filling its few nonzero diagonals.  The
ladder matrices, ``tensor`` and ``@`` are the brute-force oracle for the
operators themselves: the tests rebuild each ``channels`` operator from them.
"""
from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from functools import reduce
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
    "tensor",
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
MAX_DENSE_SIDE = 4096  # largest dense operator side from_bands allocates: 256 MiB of complex entries


class TruncationError(RuntimeError):
    """A state carries non-negligible weight in the top levels of its space."""


def _check_integer(value, name: str, minimum: Optional[int] = None, maximum: Optional[int] = None) -> int:
    """The one integer check: an int, or a real with an integral value (2.0 reads as 2).

    bool, nan, +-inf, non-integral values and values outside [``minimum``, ``maximum``] raise ValueError.
    """
    integral = isinstance(value, numbers.Integral) or (isinstance(value, numbers.Real) and float(value).is_integer())
    if isinstance(value, bool) or not integral:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    if maximum is not None and value > maximum:
        raise ValueError(f"{name} must be an integer <= {maximum}, got {value!r}")
    return int(value)


def _check_real(value, name: str, minimum: Optional[float] = None, strict: bool = False) -> float:
    """The one real check: an int or float within the float range, >= ``minimum`` (> it when ``strict``), as a float.

    bool, str, nan, +-inf and values out of range raise ValueError.  The slow numbers.Real ABC test comes last.
    """
    real = isinstance(value, float) or (isinstance(value, (int, numbers.Real)) and not isinstance(value, bool))
    if not real or not abs(value) <= sys.float_info.max:
        raise ValueError(f"{name} must be a real number within the float range, got {value!r}")
    if minimum is not None and (value <= minimum if strict else value < minimum):
        raise ValueError(f"{name} must be a real number {'>' if strict else '>='} {minimum:g}, got {value!r}")
    return float(value)


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


def _frozen_array(values, dtype) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense complex matrix acting on a tensor product of Fock spaces."""

    spaces: tuple[FockSpace, ...]
    mat: np.ndarray

    def __post_init__(self):
        spaces = tuple(self.spaces)
        object.__setattr__(self, "spaces", spaces)
        mat = _frozen_array(self.mat, complex)
        side = math.prod(sp.dim for sp in spaces)
        if mat.ndim != 2 or mat.shape != (side, side):
            raise ValueError(f"matrix shape {mat.shape} does not match factor dimensions (side {side})")
        object.__setattr__(self, "mat", mat)

    @classmethod
    def from_bands(cls, spaces: Sequence[FockSpace], bands: Mapping[int, object]) -> "OperatorMatrix":
        """Operator whose only nonzero diagonals are ``bands``: {k: scalar or vector of length side - |k|}.

        Offset k > 0 lies above the main diagonal and k < 0 below it, as in ``np.diag``.
        """
        spaces = tuple(spaces)
        side = _dense_side(spaces)
        mat = np.zeros((side, side), dtype=complex)
        for offset, values in bands.items():
            # entry (i, i + k) of the row-major matrix sits at flat index i * (side + 1) + k
            start = offset if offset >= 0 else -offset * side
            mat.reshape(-1)[start :: side + 1][: max(side - abs(offset), 0)] = values
        return cls(spaces, mat)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def dagger(self) -> "OperatorMatrix":
        return OperatorMatrix(self.spaces, self.mat.conj().T)

    def _check_same_shape(self, other: "OperatorMatrix"):
        if self.spaces != other.spaces:
            raise ValueError("operators act on different space shapes")

    def __matmul__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        self._check_same_shape(other)
        return OperatorMatrix(self.spaces, self.mat @ other.mat)

    def __add__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        self._check_same_shape(other)
        return OperatorMatrix(self.spaces, self.mat + other.mat)

    def __sub__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        self._check_same_shape(other)
        return OperatorMatrix(self.spaces, self.mat - other.mat)

    def __rmul__(self, scalar) -> "OperatorMatrix":
        return OperatorMatrix(self.spaces, scalar * self.mat)


@dataclass(frozen=True)
class DiagonalState:
    """Probability vector over the number states of a single space."""

    space: FockSpace
    probs: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        if probs.shape != (self.space.dim,):
            raise ValueError(f"probability vector length {probs.shape} does not match dimension {self.space.dim}")
        if not np.all(np.isfinite(probs)):
            raise ValueError("probabilities must be finite")
        if np.any(probs < 0):
            raise ValueError("probabilities must be nonnegative")
        total = float(probs.sum())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {total}, expected 1 within 1e-12")
        object.__setattr__(self, "probs", _frozen_array(probs, float))

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


def tensor(*ops: OperatorMatrix) -> OperatorMatrix:
    """Kronecker product, factor order preserved."""
    if not ops:
        raise ValueError("tensor() needs at least one operator")
    mat = ops[0].mat
    spaces = list(ops[0].spaces)
    for op in ops[1:]:
        mat = np.kron(mat, op.mat)
        spaces.extend(op.spaces)
    return OperatorMatrix(tuple(spaces), mat)


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
    No diagonality is assumed for the observable itself: the second moment uses
    the full matrix square.
    """
    states = [state] if isinstance(state, DiagonalState) else state
    probs = reduce(np.kron, [st.probs for st in states])  # joint law of independent factors
    if probs.shape[0] != observable.dim:
        raise ValueError(f"state dimension {probs.shape[0]} does not match operator side {observable.dim}")
    diag_o = observable.mat.diagonal()
    diag_o2 = np.einsum("ij,ji->i", observable.mat, observable.mat)
    mean = float(np.real(probs @ diag_o))
    second = float(np.real(probs @ diag_o2))
    return NumberStats(mean, max(second - mean * mean, 0.0))


def leakage(state: DiagonalState, top_k: int) -> float:
    """Total probability in the ``top_k`` highest number states."""
    top_k = _check_integer(top_k, "top_k (at most the dimension)", 0, state.space.dim)
    if top_k == 0:
        return 0.0
    return float(state.probs[-top_k:].sum())


def default_cutoff(n_b_mean: float, n_b_var: float, gain: float, n_a_max: int) -> int:
    """Starting cutoff for an amplification experiment.

    ceil(n_b + G*n_a_max + 10*sqrt(var_b + 1) + 10): mean reach of the amplified
    signal plus a ten-sigma-style pad.  Always validate with check_truncation;
    heavy-tailed reservoir states may need settle_cutoff to grow it further.
    """
    return math.ceil(n_b_mean + gain * n_a_max + 10.0 * math.sqrt(n_b_var + 1.0) + 10.0)


def check_truncation(*states: DiagonalState):
    """Abort when any state leaks more than LEAKAGE_TOL into its top LEAKAGE_TOP_LEVELS levels."""
    for st in states:
        k = min(LEAKAGE_TOP_LEVELS, st.space.dim)
        leak = leakage(st, k)
        if leak > LEAKAGE_TOL:
            raise TruncationError(
                f"cutoff {st.space.cutoff} inadequate: top-{k} leakage {leak:.3e} exceeds {LEAKAGE_TOL:.0e}"
            )


def settle_cutoff(build_state: Callable[[int], DiagonalState], start: int) -> int:
    """Grow a cutoff from ``start`` until the leakage guard passes for the state."""
    s = max(start, LEAKAGE_TOP_LEVELS)
    while s <= MAX_CUTOFF:
        if leakage(build_state(s), LEAKAGE_TOP_LEVELS) <= LEAKAGE_TOL:
            return s
        s = max(s + 8, int(1.5 * s))
    raise TruncationError(f"no adequate cutoff at or below {MAX_CUTOFF}")
