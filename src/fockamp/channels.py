"""Amplification transformations as explicit matrices and basis maps.

Builds the cyclic shift (truncated phase) operator, the nonlinear single-mode
output operator b_out = S * sqrt(n_b + G n_a), the output-number operators of
the two linear amplifiers, and the idealized reservoir-transfer basis map, and
provides the commutator checks that certify each of them.

Each operator is a low-order polynomial in ladder operators, so it has a few
fixed diagonals on the number basis.  Each builder computes those diagonals by
index arithmetic for ``OperatorMatrix.from_bands``, which stores only them
(O(D) entries, no Kronecker or matrix products), and the commutators are band
products.  The tests rebuild every operator from the dense ``.mat`` of
``annihilation`` and ``identity`` with ``np.kron`` and ndarray ``@`` as the
brute-force oracle.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import _FLOAT_MAX, FockSpace, OperatorMatrix, _check_integer, _check_real, _dense_side
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
    g, phase = float(gain_structure(gain)[0]), _check_real(phase, "phase")
    side = _dense_side((space_b, space_a))  # refused before the O(side) root is formed
    if space_b.cutoff + g * space_a.cutoff > _FLOAT_MAX:  # the largest n_b + G n_a, in the float arithmetic below
        raise ValueError(f"n_b + G n_a at gain G = {g:g} is beyond the float range")
    dim_a = space_a.dim
    n_b = np.arange(space_b.dim)
    n_a = np.arange(dim_a)
    # exact, so equal to the int sum rounded once, wherever G n_a <= 2**53
    root = np.sqrt((n_b[:, None] + g * n_a[None, :]).reshape(-1))
    # column (n_b, n_a) lands on row (n_b - 1, n_a) with the phase, and column
    # (0, n_a) wraps around to row (s_b, n_a) with weight 1
    bands = {dim_a: np.exp(1j * phase) * root[dim_a:], dim_a - side: root[:dim_a]}
    return OperatorMatrix.from_bands((space_b, space_a), bands)


def commutator(x: OperatorMatrix, y: OperatorMatrix) -> OperatorMatrix:
    """xy - yx."""
    return x @ y - y @ x


def check_pegg_barnett(comm: OperatorMatrix) -> float:
    """Verify [b_out, b_out^dag] = 1 - (s_b+1)|s_b><s_b| within every a-number sector.

    The ideal commutator on the (b, a) product space is the identity minus a
    rank-one correction of weight s_b + 1 at the top b level of each sector;
    away from that level the diagonal is exactly 1 and all off-diagonal entries
    vanish.  The b space is the first factor of ``comm.spaces``, and the a
    sectors are the rest.  Returns the largest elementwise deviation from that
    pattern; callers accept it up to ``COMMUTATOR_TOL``.
    """
    space_b = comm.spaces[0]
    dim_a = comm.dim // space_b.dim
    diag = np.where(np.arange(comm.dim) < space_b.cutoff * dim_a, 1.0, 1.0 - (space_b.cutoff + 1))
    miss = comm - OperatorMatrix.from_bands(comm.spaces, {0: diag})
    return float(np.max([np.max(np.abs(values)) for values in miss.bands.values()]))


def _lowered_fill(space: FockSpace) -> np.ndarray:
    """Diagonal of the truncated a a^dag on one mode: (1, 2, ..., s, 0)."""
    n = np.arange(space.dim, dtype=float)
    return np.where(n < space.cutoff, n + 1.0, 0.0)


def _linear_gain(gain: float) -> tuple[float, float]:
    """(G, sqrt(G(G-1))) of a linear amplifier: G a real >= 1 whose G(G-1) is within the float range."""
    g = _check_real(gain, "gain", 1)
    if g * (g - 1.0) > _FLOAT_MAX:  # refused before sqrt(G(G-1)) is inf
        raise ValueError(f"G(G-1) at gain G = {g:g} is beyond the float range")
    return g, math.sqrt(g * (g - 1.0))


def caves_number_out(space_a: FockSpace, space_b: FockSpace, gain: float) -> OperatorMatrix:
    """Output-number operator of the phase-insensitive linear amplifier.

    a_out = sqrt(G) a x 1 + sqrt(G-1) 1 x b_dag on the (a, b) product space;
    returns a_out^dag a_out = G a^dag a x 1 + (G-1) 1 x (b b^dag)_trunc
    + sqrt(G(G-1)) (a^dag x b^dag + a x b), at most 3 nonzeros per row.
    The gain may be any real >= 1 whose G(G-1) is within the float range.
    """
    g, root = _linear_gain(gain)
    _dense_side((space_a, space_b))  # refused before the O(side) bands are formed
    dim_b = space_b.dim
    n_a = np.arange(space_a.dim, dtype=float)[:, None]
    lowered = _lowered_fill(space_b)[None, :]
    # a^dag x b^dag takes column (n_a, n_b) to row (n_a + 1, n_b + 1), dim_b + 1 further on;
    # the entries with n_b = s_b vanish because b^dag is truncated there
    pair = (root * np.sqrt((n_a + 1.0) * lowered)).reshape(-1)[: -(dim_b + 1)]
    bands = {0: (g * n_a + (g - 1.0) * lowered).reshape(-1), -(dim_b + 1): pair, dim_b + 1: pair}
    return OperatorMatrix.from_bands((space_a, space_b), bands)


def phase_sensitive_number_out(space_a: FockSpace, gain: float) -> OperatorMatrix:
    """Output-number operator of the phase-sensitive linear amplifier.

    a_out = sqrt(G) a + sqrt(G-1) a_dag on a single mode; returns a_out^dag a_out
    = G a^dag a + (G-1) (a a^dag)_trunc + sqrt(G(G-1)) (a^dag a^dag + a a),
    the main diagonal and the +-2 diagonals.  G(G-1) must be within the float range.
    """
    g, root = _linear_gain(gain)
    n = np.arange(space_a.dim, dtype=float)
    # a^dag a^dag takes |n> to |n + 2> with weight sqrt((n+1)(n+2)) while n + 2 <= s
    pair = root * np.sqrt((n[:-2] + 1.0) * (n[:-2] + 2.0))
    bands = {0: g * n + (g - 1.0) * _lowered_fill(space_a), -2: pair, 2: pair}
    return OperatorMatrix.from_bands((space_a,), bands)


@dataclass(frozen=True)
class IdealMapRecord:
    """One application of the idealized reservoir-transfer map.

    ``absorber_energy`` is the energy taken up by the photon absorber, in units
    of hbar*omega; the input mode is left empty.
    """

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
    return IdealMapRecord(M_out=M - g * n, N_out=N + g * n, absorber_energy=n)
