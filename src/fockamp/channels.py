"""Amplification transformations as explicit matrices and basis maps.

Builds the cyclic shift (truncated phase) operator, the nonlinear single-mode
output operator b_out = S * sqrt(n_b + G n_a), the output-number operators of
the two linear amplifiers, and the idealized reservoir-transfer basis map, and
provides the commutator checks that certify each of them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import FockSpace, OperatorMatrix, annihilation, creation, identity, tensor
from .noise import _check_integer_gain, _check_real_gain

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


def shift_operator(space: FockSpace, phase: float = 0.0) -> OperatorMatrix:
    """Cyclic lowering operator: <N-1|S|N> = e^{i phase} for N > 0, wraparound <s|S|0> = 1."""
    dim = space.dim
    mat = np.zeros((dim, dim), dtype=complex)
    z = np.exp(1j * phase)
    for n in range(1, dim):
        mat[n - 1, n] = z
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
    g = _check_integer_gain(gain)
    n_b = np.arange(space_b.dim)
    n_a = np.arange(space_a.dim)
    diag = (n_b[:, None] + g * n_a[None, :]).reshape(-1).astype(float)
    s_full = tensor(shift_operator(space_b, phase), identity(space_a))
    return OperatorMatrix((space_b, space_a), s_full.mat * np.sqrt(diag)[None, :])


def commutator(x: OperatorMatrix, y: OperatorMatrix) -> OperatorMatrix:
    """xy - yx."""
    return x @ y - y @ x


@dataclass(frozen=True)
class CommutatorCheck:
    """Outcome of comparing a commutator against the truncated-space ideal."""

    ok: bool
    max_deviation: float


def check_pegg_barnett(comm: OperatorMatrix, space_b: FockSpace, tol: float = 1e-12) -> CommutatorCheck:
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
    top = np.zeros(dim_b)
    top[space_b.cutoff] = 1.0
    expected -= (space_b.cutoff + 1) * np.kron(np.diag(top), np.eye(dim_a))
    dev = float(np.max(np.abs(comm.mat - expected)))
    return CommutatorCheck(dev <= tol, dev)


def caves_number_out(space_a: FockSpace, space_b: FockSpace, gain: float) -> OperatorMatrix:
    """Output-number operator of the phase-insensitive linear amplifier.

    a_out = sqrt(G) a x 1 + sqrt(G-1) 1 x b_dag on the (a, b) product space;
    returns a_out^dag a_out.  The gain may be any real >= 1.
    """
    g = _check_real_gain(gain)
    a_out = math.sqrt(g) * tensor(annihilation(space_a), identity(space_b)) + math.sqrt(
        g - 1.0
    ) * tensor(identity(space_a), creation(space_b))
    return a_out.dagger() @ a_out


def phase_sensitive_number_out(space_a: FockSpace, gain: float) -> OperatorMatrix:
    """Output-number operator of the phase-sensitive linear amplifier.

    a_out = sqrt(G) a + sqrt(G-1) a_dag on a single mode; returns a_out^dag a_out.
    """
    g = _check_real_gain(gain)
    a_out = math.sqrt(g) * annihilation(space_a) + math.sqrt(g - 1.0) * creation(space_a)
    return a_out.dagger() @ a_out


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
    g = _check_integer_gain(gain)
    for name, value in (("n", n), ("M", M), ("N", N)):
        if not isinstance(value, (int, np.integer)) or value < 0:
            raise ValueError(f"{name} must be a nonnegative integer, got {value!r}")
    if M < g * n:
        raise ValueError(f"supply reservoir too small: M = {M} < G*n = {g * n}")
    return IdealMapRecord(
        n_in=int(n),
        M_out=int(M - g * n),
        N_out=int(N + g * n),
        absorber_energy=n * omega,
        phase=float(phase) % TWO_PI,
    )
