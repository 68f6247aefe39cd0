"""Amplification transformations as explicit matrices and basis maps.

Builds the cyclic shift (truncated phase) operator, the nonlinear single-mode
output operator b_out = S * sqrt(n_b + G n_a), the output-number operators of
the two linear amplifiers, and the idealized reservoir-transfer basis map, and
provides the commutator checks that certify each of them.

Each operator is a low-order polynomial in ladder operators, so it has a few
fixed diagonals on the number basis.  The builders fill those diagonals
directly by index arithmetic into one dense matrix (O(D) entries written, no
Kronecker or matrix products); the tests rebuild every operator from
``annihilation``/``creation``/``tensor``/``@`` as the brute-force oracle.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import FockSpace, OperatorMatrix, _check_integer
from .noise import _check_real_gain, gain_structure

__all__ = [
    "shift_operator",
    "nonlinear_bout",
    "commutator",
    "CommutatorCheck",
    "check_pegg_barnett",
    "caves_number_out",
    "phase_sensitive_number_out",
    "IdealMapRecord",
    "ideal_schrodinger_map",
]

TWO_PI = 2.0 * math.pi
COMMUTATOR_TOL = 1e-12  # check_pegg_barnett's largest accepted entry deviation


def _band(mat: np.ndarray, offset: int) -> np.ndarray:
    """Writable view of diagonal ``offset`` (> 0 above, < 0 below) of a C-contiguous square matrix."""
    side = mat.shape[0]
    start = offset if offset >= 0 else -offset * side
    return mat.reshape(-1)[start :: side + 1][: max(side - abs(offset), 0)]


def shift_operator(space: FockSpace, phase: float = 0.0) -> OperatorMatrix:
    """Cyclic lowering operator: <N-1|S|N> = e^{i phase} for N > 0, wraparound <s|S|0> = 1."""
    dim = space.dim
    mat = np.zeros((dim, dim), dtype=complex)
    _band(mat, 1)[:] = np.exp(1j * phase)
    mat[dim - 1, 0] = 1.0
    return OperatorMatrix((space,), mat)


def nonlinear_bout(
    space_b: FockSpace, space_a: FockSpace, gain: int, phase: float = 0.0
) -> OperatorMatrix:
    """Two-mode output operator (S_b x 1_a) sqrt(n_b x 1 + G 1 x n_a).

    Factor order is (b, a).  The square root is taken entrywise on the number
    basis, where the argument is already diagonal, so no iterative solver is
    involved.  The gain must be an integer: the scheme transfers G excitations
    per input photon between number states.
    """
    g = gain_structure(gain)[0]
    dim_a = space_a.dim
    n_b = np.arange(space_b.dim)
    n_a = np.arange(dim_a)
    root = np.sqrt((n_b[:, None] + g * n_a[None, :]).reshape(-1).astype(float))
    side = root.size
    mat = np.zeros((side, side), dtype=complex)
    # column (n_b, n_a) lands on row (n_b - 1, n_a) with the phase, ...
    _band(mat, dim_a)[:] = np.exp(1j * phase) * root[dim_a:]
    # ... and column (0, n_a) wraps around to row (s_b, n_a) with weight 1
    _band(mat, dim_a - side)[:] = root[:dim_a]
    return OperatorMatrix((space_b, space_a), mat)


def commutator(x: OperatorMatrix, y: OperatorMatrix) -> OperatorMatrix:
    """xy - yx."""
    return x @ y - y @ x


@dataclass(frozen=True)
class CommutatorCheck:
    """Outcome of comparing a commutator against the truncated-space ideal."""

    ok: bool
    max_deviation: float


def check_pegg_barnett(comm: OperatorMatrix, space_b: FockSpace) -> CommutatorCheck:
    """Verify [b_out, b_out^dag] = 1 - (s_b+1)|s_b><s_b| within every a-number sector.

    The ideal commutator on the (b, a) product space is the identity minus a
    rank-one correction of weight s_b + 1 at the top b level of each sector;
    away from that level the diagonal is exactly 1 and all off-diagonal entries
    vanish.  Returns the comparison verdict and the largest elementwise
    deviation from that pattern.
    """
    side = comm.dim
    dim_b = space_b.dim
    if side % dim_b != 0:
        raise ValueError(f"commutator side {side} is not a multiple of the b dimension {dim_b}")
    dim_a = side // dim_b
    expected = np.eye(side, dtype=complex)
    _band(expected, 0)[space_b.cutoff * dim_a :] -= space_b.cutoff + 1
    dev = float(np.max(np.abs(comm.mat - expected)))
    return CommutatorCheck(dev <= COMMUTATOR_TOL, dev)


def _lowered_fill(space: FockSpace) -> np.ndarray:
    """Diagonal of the truncated a a^dag on one mode: (1, 2, ..., s, 0)."""
    n = np.arange(space.dim, dtype=float)
    return np.where(n < space.cutoff, n + 1.0, 0.0)


def caves_number_out(space_a: FockSpace, space_b: FockSpace, gain: float) -> OperatorMatrix:
    """Output-number operator of the phase-insensitive linear amplifier.

    a_out = sqrt(G) a x 1 + sqrt(G-1) 1 x b_dag on the (a, b) product space;
    returns a_out^dag a_out = G a^dag a x 1 + (G-1) 1 x (b b^dag)_trunc
    + sqrt(G(G-1)) (a^dag x b^dag + a x b), at most 3 nonzeros per row.
    The gain may be any real >= 1.
    """
    g = _check_real_gain(gain)
    dim_b = space_b.dim
    n_a = np.arange(space_a.dim, dtype=float)[:, None]
    lowered = _lowered_fill(space_b)[None, :]
    side = space_a.dim * dim_b
    mat = np.zeros((side, side), dtype=complex)
    _band(mat, 0)[:] = (g * n_a + (g - 1.0) * lowered).reshape(-1)
    # a^dag x b^dag takes column (n_a, n_b) to row (n_a + 1, n_b + 1), dim_b + 1 further on;
    # the entries with n_b = s_b vanish because b^dag is truncated there
    pair = (math.sqrt(g * (g - 1.0)) * np.sqrt((n_a + 1.0) * lowered)).reshape(-1)[: -(dim_b + 1)]
    _band(mat, -(dim_b + 1))[:] = pair
    _band(mat, dim_b + 1)[:] = pair
    return OperatorMatrix((space_a, space_b), mat)


def phase_sensitive_number_out(space_a: FockSpace, gain: float) -> OperatorMatrix:
    """Output-number operator of the phase-sensitive linear amplifier.

    a_out = sqrt(G) a + sqrt(G-1) a_dag on a single mode; returns a_out^dag a_out
    = G a^dag a + (G-1) (a a^dag)_trunc + sqrt(G(G-1)) (a^dag a^dag + a a),
    the main diagonal and the +-2 diagonals.
    """
    g = _check_real_gain(gain)
    dim = space_a.dim
    n = np.arange(dim, dtype=float)
    mat = np.zeros((dim, dim), dtype=complex)
    _band(mat, 0)[:] = g * n + (g - 1.0) * _lowered_fill(space_a)
    # a^dag a^dag takes |n> to |n + 2> with weight sqrt((n+1)(n+2)) while n + 2 <= s
    m = n[:-2]
    pair = math.sqrt(g * (g - 1.0)) * np.sqrt((m + 1.0) * (m + 2.0))
    _band(mat, -2)[:] = pair
    _band(mat, 2)[:] = pair
    return OperatorMatrix((space_a,), mat)


@dataclass(frozen=True)
class IdealMapRecord:
    """One application of the idealized reservoir-transfer map.

    ``absorber_energy`` is the energy taken up by the photon absorber, in units
    of hbar (i.e. the value is n * omega); the input mode is left empty.
    """

    n_in: int
    M_out: int
    N_out: int
    absorber_energy: float
    phase: float


def ideal_schrodinger_map(
    n: int, M: int, N: int, gain: int, phase: float = 0.0, omega: float = 1.0
) -> IdealMapRecord:
    """Map |n, M, N> to |0, M - G n, N + G n>, banking n*omega in the absorber.

    Requires M >= G n: the G n excitations delivered to the monitored reservoir
    are drawn from the supply reservoir, so it must hold at least that many.
    """
    g = gain_structure(gain)[0]
    n, M, N = (_check_integer(value, name, 0) for name, value in (("n", n), ("M", M), ("N", N)))
    if M < g * n:
        raise ValueError(f"supply reservoir too small: M = {M} < G*n = {g * n}")
    return IdealMapRecord(
        n_in=n,
        M_out=M - g * n,
        N_out=N + g * n,
        absorber_energy=n * omega,
        phase=float(phase) % TWO_PI,
    )
