"""Brute-force builds of the amplifier and filter operators from ladder matrices, Kronecker products and @.

``fockamp.channels`` fills the few nonzero diagonals of each operator directly,
and ``fockamp.filters`` gives the filtered count's moments in closed form.
These builds take the long way, through the truncated ``annihilation`` matrix
and its ``dagger()``, ``identity``, ``tensor`` and matrix products, and serve
only as the oracle those are checked against at small cutoffs.
"""
import math

import numpy as np

from fockamp import FockSpace, OperatorMatrix, TransferPair, annihilation, identity, tensor


def shift_operator(space: FockSpace, phase: float = 0.0) -> OperatorMatrix:
    dim = space.dim
    mat = np.zeros((dim, dim), dtype=complex)
    z = np.exp(1j * phase)
    for n in range(1, dim):
        mat[n - 1, n] = z
    mat[dim - 1, 0] = 1.0
    return OperatorMatrix((space,), mat)


def nonlinear_bout(space_b: FockSpace, space_a: FockSpace, gain: int, phase: float = 0.0) -> OperatorMatrix:
    """(S_b x 1_a) times the diagonal sqrt(n_b + G n_a), factor order (b, a)."""
    n_b = np.arange(space_b.dim)
    n_a = np.arange(space_a.dim)
    diag = (n_b[:, None] + gain * n_a[None, :]).reshape(-1).astype(float)
    s_full = tensor(shift_operator(space_b, phase), identity(space_a))
    return OperatorMatrix((space_b, space_a), s_full.mat * np.sqrt(diag)[None, :])


def caves_number_out(space_a: FockSpace, space_b: FockSpace, gain: float) -> OperatorMatrix:
    """a_out^dag a_out for a_out = sqrt(G) a x 1 + sqrt(G-1) 1 x b_dag."""
    a_out = math.sqrt(gain) * tensor(annihilation(space_a), identity(space_b)) + math.sqrt(
        gain - 1.0
    ) * tensor(identity(space_a), annihilation(space_b).dagger())
    return a_out.dagger() @ a_out


def phase_sensitive_number_out(space_a: FockSpace, gain: float) -> OperatorMatrix:
    """a_out^dag a_out for a_out = sqrt(G) a + sqrt(G-1) a_dag."""
    a_out = math.sqrt(gain) * annihilation(space_a) + math.sqrt(gain - 1.0) * annihilation(space_a).dagger()
    return a_out.dagger() @ a_out


def filtered_output_operator(space_a: FockSpace, space_c: FockSpace, tp: TransferPair) -> OperatorMatrix:
    """Number operator of the filtered mode a_out = T a + R c on the (a, c) space."""
    a_out = tp.T * tensor(annihilation(space_a), identity(space_c)) + tp.R * tensor(
        identity(space_a), annihilation(space_c)
    )
    return a_out.dagger() @ a_out
