"""Amplification transformations as explicit matrices and basis maps.

Builds the cyclic shift (truncated phase) operator, the nonlinear single-mode
output operator b_out = S * sqrt(n_b + G n_a), the output-number operators of
the two linear amplifiers, and the idealized reservoir-transfer basis map, and
provides the commutator checks that certify each of them.

Each operator is a low-order polynomial in ladder operators, so it has a few
fixed diagonals on the number basis.  Each builder computes those diagonals by
index arithmetic for ``OperatorMatrix.from_bands`` (O(D) entries, no Kronecker
or matrix products); the tests rebuild every operator from ``annihilation``,
its ``dagger()``, ``identity``, ``tensor`` and ``@`` as the brute-force oracle.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import FockSpace, OperatorMatrix, _check_integer, _check_real, _dense_side
from .noise import gain_structure

__all__ = [
    "shift_operator",
    "nonlinear_bout",
    "commutator",
    "check_pegg_barnett",
    "caves_number_out",
    "phase_sensitive_number_out",
    "IdealMapRecord",
    "ideal_schrodinger_map",
]

COMMUTATOR_TOL = 1e-12  # check_pegg_barnett's largest accepted entry deviation


def shift_operator(space: FockSpace, phase: float = 0.0) -> OperatorMatrix:
    """Cyclic lowering operator: <N-1|S|N> = e^{i phase} for N > 0, wraparound <s|S|0> = 1."""
    return OperatorMatrix.from_bands((space,), {1: np.exp(1j * _check_real(phase, "phase")), 1 - space.dim: 1.0})


def nonlinear_bout(space_b: FockSpace, space_a: FockSpace, gain: int, phase: float = 0.0) -> OperatorMatrix:
    """Two-mode output operator (S_b x 1_a) sqrt(n_b x 1 + G 1 x n_a).

    Factor order is (b, a).  The square root is taken entrywise on the number
    basis, where the argument is already diagonal, so no iterative solver is
    involved.  The gain must be an integer: the scheme transfers G excitations
    per input photon between number states.
    """
    g, phase = gain_structure(gain)[0], _check_real(phase, "phase")
    side = _dense_side((space_b, space_a))  # refused before the O(side) root is formed
    dim_a = space_a.dim
    n_b = np.arange(space_b.dim)
    n_a = np.arange(dim_a)
    root = np.sqrt((n_b[:, None] + g * n_a[None, :]).reshape(-1).astype(float))
    # column (n_b, n_a) lands on row (n_b - 1, n_a) with the phase, and column
    # (0, n_a) wraps around to row (s_b, n_a) with weight 1
    bands = {dim_a: np.exp(1j * phase) * root[dim_a:], dim_a - side: root[:dim_a]}
    return OperatorMatrix.from_bands((space_b, space_a), bands)


def commutator(x: OperatorMatrix, y: OperatorMatrix) -> OperatorMatrix:
    """xy - yx."""
    return x @ y - y @ x


def check_pegg_barnett(comm: OperatorMatrix, space_b: FockSpace) -> float:
    """Verify [b_out, b_out^dag] = 1 - (s_b+1)|s_b><s_b| within every a-number sector.

    The ideal commutator on the (b, a) product space is the identity minus a
    rank-one correction of weight s_b + 1 at the top b level of each sector;
    away from that level the diagonal is exactly 1 and all off-diagonal entries
    vanish.  Returns the largest elementwise deviation from that pattern;
    callers accept it up to ``COMMUTATOR_TOL``.
    """
    side = comm.dim
    dim_b = space_b.dim
    if side % dim_b != 0:
        raise ValueError(f"commutator side {side} is not a multiple of the b dimension {dim_b}")
    dim_a = side // dim_b
    diag = np.where(np.arange(side) < space_b.cutoff * dim_a, 1.0, 1.0 - (space_b.cutoff + 1))
    expected = OperatorMatrix.from_bands(comm.spaces, {0: diag})
    return float(np.max(np.abs(comm.mat - expected.mat)))


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
    g = _check_real(gain, "gain", 1)
    _dense_side((space_a, space_b))  # refused before the O(side) bands are formed
    dim_b = space_b.dim
    n_a = np.arange(space_a.dim, dtype=float)[:, None]
    lowered = _lowered_fill(space_b)[None, :]
    # a^dag x b^dag takes column (n_a, n_b) to row (n_a + 1, n_b + 1), dim_b + 1 further on;
    # the entries with n_b = s_b vanish because b^dag is truncated there
    pair = (math.sqrt(g * (g - 1.0)) * np.sqrt((n_a + 1.0) * lowered)).reshape(-1)[: -(dim_b + 1)]
    bands = {0: (g * n_a + (g - 1.0) * lowered).reshape(-1), -(dim_b + 1): pair, dim_b + 1: pair}
    return OperatorMatrix.from_bands((space_a, space_b), bands)


def phase_sensitive_number_out(space_a: FockSpace, gain: float) -> OperatorMatrix:
    """Output-number operator of the phase-sensitive linear amplifier.

    a_out = sqrt(G) a + sqrt(G-1) a_dag on a single mode; returns a_out^dag a_out
    = G a^dag a + (G-1) (a a^dag)_trunc + sqrt(G(G-1)) (a^dag a^dag + a a),
    the main diagonal and the +-2 diagonals.
    """
    g = _check_real(gain, "gain", 1)
    n = np.arange(space_a.dim, dtype=float)
    # a^dag a^dag takes |n> to |n + 2> with weight sqrt((n+1)(n+2)) while n + 2 <= s
    pair = math.sqrt(g * (g - 1.0)) * np.sqrt((n[:-2] + 1.0) * (n[:-2] + 2.0))
    bands = {0: g * n + (g - 1.0) * _lowered_fill(space_a), -2: pair, 2: pair}
    return OperatorMatrix.from_bands((space_a,), bands)


@dataclass(frozen=True)
class IdealMapRecord:
    """One application of the idealized reservoir-transfer map.

    ``absorber_energy`` is the energy taken up by the photon absorber, in units
    of hbar*omega (i.e. the value is n); the input mode is left empty.
    """

    n_in: int
    M_out: int
    N_out: int
    absorber_energy: int


def ideal_schrodinger_map(n: int, M: int, N: int, gain: int) -> IdealMapRecord:
    """Map |n, M, N> to |0, M - G n, N + G n>, banking n hbar*omega in the absorber.

    Requires M >= G n: the G n excitations delivered to the monitored reservoir
    are drawn from the supply reservoir, so it must hold at least that many.
    """
    g = gain_structure(gain)[0]
    n, M, N = (_check_integer(value, name, 0) for name, value in (("n", n), ("M", M), ("N", N)))
    if M < g * n:
        raise ValueError(f"supply reservoir too small: M = {M} < G*n = {g * n}")
    return IdealMapRecord(n_in=n, M_out=M - g * n, N_out=N + g * n, absorber_energy=n)
