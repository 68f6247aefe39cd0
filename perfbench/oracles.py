"""Closed forms the benchmark checks fockamp against, written without fockamp.

Every function here uses plain numpy and the textbook formulas, so a defect in
the program under test cannot make its own check pass.  The operator oracles
expand each output-number operator into ladder-operator monomials:

    phase-insensitive  N = G a'a + (G-1) b b' + sqrt(G(G-1)) (a'b' + ab)
    phase-sensitive    N = G a'a + (G-1) a a' + sqrt(G(G-1)) (a'a' + aa)

On a space truncated at occupation s the products of truncated ladder
matrices give b b' = diag(1, ..., s, 0), which the diagonals below reproduce.
"""
from __future__ import annotations

import math

import numpy as np


def number_stats(probs: np.ndarray) -> tuple[float, float]:
    """(mean, variance) of a number distribution given as a probability vector."""
    n = np.arange(probs.size, dtype=float)
    mean = float(probs @ n)
    return mean, float(probs @ (n * n)) - mean * mean


def thermal_top_leakage(cutoff: int, nbar: float, top: int) -> float:
    """Weight in the ``top`` highest levels of a thermal state renormalized over 0..cutoff."""
    q = nbar / (nbar + 1.0)
    return q ** (cutoff - top + 1) * (1.0 - q**top) / (1.0 - q ** (cutoff + 1))


def _lowered_fill(cutoff: int) -> np.ndarray:
    """Diagonal of b b' for truncated ladder matrices: n+1 below the cutoff, 0 at it."""
    n = np.arange(cutoff + 1, dtype=float)
    return np.where(n < cutoff, n + 1.0, 0.0)


def caves_diagonal(cutoff: int, gain: float) -> np.ndarray:
    """Diagonal of the phase-insensitive output-number operator on the (a, b) space."""
    m = np.arange(cutoff + 1, dtype=float)
    return (gain * m[:, None] + (gain - 1.0) * _lowered_fill(cutoff)[None, :]).reshape(-1)


def caves_frobenius_sq(cutoff: int, gain: float) -> float:
    """Sum of squared moduli of all entries of the phase-insensitive operator."""
    diag = caves_diagonal(cutoff, gain)
    ladder = cutoff * (cutoff + 1) / 2.0  # sum of (m+1) over m < cutoff
    return float(diag @ diag) + 2.0 * gain * (gain - 1.0) * ladder * ladder


def phase_sensitive_diagonal(cutoff: int, gain: float) -> np.ndarray:
    n = np.arange(cutoff + 1, dtype=float)
    return gain * n + (gain - 1.0) * _lowered_fill(cutoff)


def phase_sensitive_frobenius_sq(cutoff: int, gain: float) -> float:
    diag = phase_sensitive_diagonal(cutoff, gain)
    n = np.arange(max(cutoff - 1, 0), dtype=float)  # a'a' reaches n+2 <= cutoff
    return float(diag @ diag) + 2.0 * gain * (gain - 1.0) * float(((n + 1.0) * (n + 2.0)).sum())


def var_caves(gain: float, a: tuple[float, float], b: tuple[float, float]) -> float:
    """Phase-insensitive output variance for independent number-diagonal inputs (mean, var)."""
    (ma, va), (mb, vb) = a, b
    return gain * gain * va + (gain - 1.0) ** 2 * vb + gain * (gain - 1.0) * (2.0 * ma * mb + ma + mb + 1.0)


def var_phase_sensitive(gain: float, a: tuple[float, float]) -> float:
    ma, va = a
    return (6.0 * gain * (gain - 1.0) + 1.0) * va + 2.0 * gain * (gain - 1.0) * (ma * ma + ma + 1.0)


def bout_number_target(cutoff_b: int, cutoff_a: int, gain: int) -> np.ndarray:
    """Diagonal of n_b + G n_a on the (b, a) space, the exact value of b_out' b_out."""
    n_b = np.arange(cutoff_b + 1, dtype=float)
    n_a = np.arange(cutoff_a + 1, dtype=float)
    return (n_b[:, None] + gain * n_a[None, :]).reshape(-1)


def mc_weights(model: str, gain: int, step_gain: int | None, steps: int | None, modes: int | None) -> list[int]:
    """Integer weight of each reservoir draw in one trial's output count."""
    if model == "SingleMode":
        return [1]
    if model == "GModes":
        return [1] * gain
    if model == "MultiStepSingle":
        return [step_gain ** (steps - k) for k in range(1, steps + 1)]
    if model == "MultiStepMulti":
        # step k adds g**k fresh modes, re-amplified by the remaining N-k steps
        return [step_gain ** (steps - k) for k in range(1, steps + 1) for _ in range(step_gain**k)]
    if model == "Shelving":
        return [1] * modes
    raise ValueError(f"no weight oracle for model {model!r}")


def reservoir_stats(kind: str, n: int, nbar: float, probs) -> tuple[float, float]:
    """(mean, variance) of one reservoir draw under the untruncated law."""
    if kind == "fock":
        return float(n), 0.0
    if kind == "thermal":
        return nbar, nbar * (nbar + 1.0)
    return number_stats(np.asarray(probs, dtype=float))


def mc_moments(weights: list[int], signal: int, reservoir: tuple[float, float]) -> tuple[float, float]:
    """Exact mean and variance of sum_j w_j draw_j + signal for i.i.d. draws."""
    mean_b, var_b = reservoir
    return sum(weights) * mean_b + signal, sum(w * w for w in weights) * var_b


def relative_error(value: float, reference: float) -> float:
    """|value - reference| scaled by max(1, |reference|); inf when either is not finite."""
    if not (math.isfinite(value) and math.isfinite(reference)):
        return math.inf
    return abs(value - reference) / max(1.0, abs(reference))
