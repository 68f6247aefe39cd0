"""Brute-force builds of products and of the amplifier and filter operators, from ladder matrices, np.kron and @.

``fockamp.channels`` fills the few nonzero diagonals of each operator directly,
and ``fockamp.filters`` gives the filtered count's moments in closed form.
These builds take the long way, on plain numpy arrays: the dense ``.mat`` of
the truncated ``annihilation`` and of ``identity``, ``np.kron``, the conjugate
transpose and ndarray ``@``.  Only the final array is wrapped in an
``OperatorMatrix``, so no build runs through the band algebra it checks.
They serve only as the oracle at small cutoffs.
"""
import math
from functools import reduce

import numpy as np

from fockamp import FockSpace, OperatorMatrix, TransferPair, annihilation, identity


def tensor(*ops: OperatorMatrix) -> OperatorMatrix:
    """Kronecker product of the factors' dense views, factor order kept, wrapped once."""
    return OperatorMatrix([sp for op in ops for sp in op.spaces], reduce(np.kron, [op.mat for op in ops]))


def _number_out(spaces: tuple, a_out: np.ndarray) -> OperatorMatrix:
    """a_out^dag a_out as a dense product, wrapped once."""
    return OperatorMatrix(spaces, a_out.conj().T @ a_out)


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
    s_full = np.kron(shift_operator(space_b, phase).mat, identity(space_a).mat)
    return OperatorMatrix((space_b, space_a), s_full * np.sqrt(diag)[None, :])


def caves_number_out(space_a: FockSpace, space_b: FockSpace, gain: float) -> OperatorMatrix:
    """a_out^dag a_out for a_out = sqrt(G) a x 1 + sqrt(G-1) 1 x b_dag."""
    a, b = annihilation(space_a).mat, annihilation(space_b).mat
    a_out = math.sqrt(gain) * np.kron(a, identity(space_b).mat) + math.sqrt(gain - 1.0) * np.kron(
        identity(space_a).mat, b.conj().T
    )
    return _number_out((space_a, space_b), a_out)


def phase_sensitive_number_out(space_a: FockSpace, gain: float) -> OperatorMatrix:
    """a_out^dag a_out for a_out = sqrt(G) a + sqrt(G-1) a_dag."""
    a = annihilation(space_a).mat
    return _number_out((space_a,), math.sqrt(gain) * a + math.sqrt(gain - 1.0) * a.conj().T)


def filtered_output_operator(space_a: FockSpace, space_c: FockSpace, tp: TransferPair) -> OperatorMatrix:
    """Number operator of the filtered mode a_out = T a + R c on the (a, c) space."""
    a_out = tp.T * np.kron(annihilation(space_a).mat, identity(space_c).mat) + tp.R * np.kron(
        identity(space_a).mat, annihilation(space_c).mat
    )
    return _number_out((space_a, space_c), a_out)
