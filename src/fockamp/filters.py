"""Lossless pre-amplification frequency filtering and thermal-noise suppression.

A filter is a pointwise pair of transmission/reflection amplitudes with
|T|^2 + |R|^2 = 1 that mixes the input mode a with an internal mode c,
a_out = T a + R c; the filtered count's moments are exact closed forms, with
nothing truncated.  It then feeds the single-mode amplifier at an independent
(typically much higher) frequency, where the reservoir occupancy is
Bose-Einstein suppressed; frequencies enter it only through hbar*omega / (k_B T).
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

from .fock import NumberStats, _check_real
from .noise import gain_structure, var_single_mode

__all__ = [
    "HBAR_OVER_K",
    "TransferPair",
    "lorentzian_transfer",
    "thermal_occupancy",
    "filtered_amplified_stats",
    "read_transfer_table",
]

# hbar / k_B in kelvin * seconds (CODATA hbar = 1.054571817e-34 J s, k_B = 1.380649e-23 J/K)
HBAR_OVER_K = 1.054571817e-34 / 1.380649e-23

UNITARITY_TOL = 1e-12
TABLE_UNITARITY_TOL = 1e-9


@dataclass(frozen=True, init=False)
class TransferPair:
    """Transmission/reflection amplitudes of a lossless filter at one frequency."""

    omega: float
    T: complex
    R: complex

    def __init__(self, omega: float, T: complex, R: complex):
        omega, miss = _check_real(omega, "frequency"), abs(abs(T) ** 2 + abs(R) ** 2 - 1.0)
        if not miss <= UNITARITY_TOL:  # written so that a nan amplitude fails
            raise ValueError(f"lossless filter requires |T|^2+|R|^2 = 1, off by {miss:.3e}")
        self.__dict__.update(omega=omega, T=T, R=R)  # the one write of each field, past the frozen __setattr__


def lorentzian_transfer(omega: float, omega0: float, gamma: float) -> TransferPair:
    """Single-pole resonance: T = (g/2)/(i(w-w0)+g/2), R = i(w-w0)/(i(w-w0)+g/2).

    Perfectly transmitting on resonance and lossless at every detuning.  This
    is the default filter model; externally tabulated (T, R) pairs can be used
    anywhere a TransferPair is accepted.
    """
    omega, omega0 = _check_real(omega, "frequency"), _check_real(omega0, "resonance frequency")
    gamma = _check_real(gamma, "linewidth", 0, strict=True)
    half = _check_real(gamma / 2.0, "half the linewidth", 0, strict=True)  # 0.0 for the subnormal 5e-324
    detuning = omega - omega0
    if abs(detuning) == math.inf:  # one comparison: verify's scan calls this 10**4 times per run
        raise ValueError(f"the detuning of frequency {omega!r} from resonance frequency {omega0!r} is beyond the float range")
    denom = 1j * detuning + half
    return TransferPair(omega, complex(half / denom), complex(1j * detuning / denom))


def thermal_occupancy(omega: float, temperature: float) -> float:
    """Bose-Einstein mean occupation 1/(exp(hbar*omega/kT) - 1) at a temperature in kelvin."""
    omega = _check_real(omega, "frequency", 0, strict=True)
    denom = math.expm1(HBAR_OVER_K * omega / _check_real(temperature, "temperature", 0, strict=True))
    if denom == 0.0 or 1.0 / denom == math.inf:
        raise ValueError(f"occupancy at frequency {omega} is not finite")
    return 1.0 / denom


def filtered_amplified_stats(tp: TransferPair, a: NumberStats, c: NumberStats, gain: int, b_env: NumberStats) -> NumberStats:
    """Output-count statistics of filter-then-amplify into a single mode.

    Independent number-diagonal modes ``a`` (input) and ``c`` (internal) give the
    filtered count exact moments (Campos, Saleh & Teich, PRA 40, 1371, 1989):
    mean_f = |T|^2 mean_a + |R|^2 mean_c and var_f = |T|^4 var_a + |R|^4 var_c
    + |T|^2 |R|^2 (mean_a (mean_c + 1) + mean_c (mean_a + 1)), partition noise last.
    Integer gain G adds G*mean_f to nbar_b; ``noise.var_single_mode`` gives the variance.
    """
    gain = gain_structure(gain)[0]
    t2, r2 = abs(tp.T) ** 2, abs(tp.R) ** 2
    filtered = NumberStats(
        t2 * a.mean + r2 * c.mean,
        t2 * t2 * a.variance + r2 * r2 * c.variance + t2 * r2 * (a.mean * (c.mean + 1.0) + c.mean * (a.mean + 1.0)),
    )
    return NumberStats(b_env.mean + gain * filtered.mean, var_single_mode(gain, filtered, b_env))


def read_transfer_table(path) -> list[TransferPair]:
    """Load (omega, T, R) rows from CSV columns omega,T_re,T_im,R_re,R_im.

    A row that does not parse, holds a non-finite value or violates
    |T|^2+|R|^2 = 1 beyond 1e-9 is rejected with its row number; accepted rows
    are rescaled onto the lossless constraint so the stored pairs satisfy it at
    full precision.
    """
    pairs = []
    with open(Path(path), newline="") as fh:
        reader = csv.DictReader(fh)
        required = {"omega", "T_re", "T_im", "R_re", "R_im"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise ValueError(f"filter table must have columns {sorted(required)}")
        for lineno, row in enumerate(reader, start=2):
            try:  # a short row reads None, which float() refuses with TypeError
                t = complex(float(row["T_re"]), float(row["T_im"]))
                r = complex(float(row["R_re"]), float(row["R_im"]))
                norm = abs(t) ** 2 + abs(r) ** 2
                if not abs(norm - 1.0) <= TABLE_UNITARITY_TOL:  # written so that a nan amplitude fails here
                    raise ValueError(f"|T|^2+|R|^2 off unity by {abs(norm - 1.0):.3e} (limit 1e-9)")
                scale = 1.0 / math.sqrt(norm)
                pairs.append(TransferPair(float(row["omega"]), t * scale, r * scale))
            except (TypeError, ValueError) as err:
                raise ValueError(f"row {lineno}: {err}") from err
    return pairs
