"""Closed-form output-number variances and signal-to-noise ratios.

One variance function per amplification mechanism, plus the SNR of each
mechanism for a fixed input photon number (signal = amplified-mode count minus
background, divided by the output standard deviation).  Linear-mechanism SNRs
are the upper bounds obtained for the most favorable input; nonlinear ones are
equalities.  Zero-noise denominators yield +inf rather than an error so gain
sweeps that include G = 1 stay plottable; a variance beyond floats is a ValueError.
"""
from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Optional

from .fock import NumberStats, _check_integer, _check_real

__all__ = [
    "MECHANISM_TAGS",
    "Mechanism",
    "gain_structure",
    "var_caves",
    "var_phase_sensitive",
    "var_single_mode",
    "var_g_modes",
    "var_multistep_single",
    "var_multistep_multi",
    "snr",
]

MECHANISM_TAGS = (
    "PhaseInsensitive",
    "PhaseSensitive",
    "SingleMode",
    "GModes",
    "MultiStepSingleMode",
    "MultiStepMultiMode",
)
_LINEAR = ("PhaseInsensitive", "PhaseSensitive")
_MULTISTEP = ("MultiStepSingleMode", "MultiStepMultiMode")


def gain_structure(G, g=None, N=None) -> tuple[int, Optional[int], Optional[int]]:
    """The gain structure (G, g, N) of a number-transfer scheme, as ints.

    Without a step gain g, G is an integer >= 1 and N must be absent.  An N-step
    cascade has g an integer >= 2, N >= 1 and G = g**N exactly: either G or N
    may be left out, and if both are given they must agree.  G must lie within
    the float range; a cascade's g**N is refused before it is formed.
    """
    if g is None and N is not None:
        raise ValueError(f"steps N = {N!r} needs a step gain g")
    if G is not None or N is None:
        G = _check_integer(G, "gain G", 1)
        if G > sys.float_info.max:
            raise ValueError("total gain G is beyond the float range")
        if g is None:
            return G, None, None
    g = _check_integer(g, "step gain g", 2)
    if N is None:
        N = 1
        while g**N < G:
            N += 1
    else:
        N = _check_integer(N, "steps N", 1)
        # g**N >= 2**N, and N * log2(g) bounds log2(g**N), so no power much beyond 2**1024 is formed
        if N >= 1024 or N * math.log2(g) > 1025.0 or g**N > sys.float_info.max:
            raise ValueError(f"total gain {g}**{N} is beyond the float range")
    if G is not None and G != g**N:
        raise ValueError(f"gain G = {G} does not equal g**N = {g}**{N}")
    return g**N, g, N


@dataclass(frozen=True)
class Mechanism:
    """Amplification mechanism label with its validated gain parameters.

    Only the cascades carry a step gain and a step count; the other tags have
    ``step_gain_g = steps_N = None``.
    """

    tag: str
    gain_G: float
    step_gain_g: Optional[int] = None
    steps_N: Optional[int] = None

    def __post_init__(self):
        if self.tag not in MECHANISM_TAGS:
            raise ValueError(f"unknown mechanism tag {self.tag!r}")
        if self.tag in _LINEAR:
            structure = (_check_real(self.gain_G, "gain", 1), None, None)
        elif self.tag in _MULTISTEP:
            if self.step_gain_g is None:
                raise ValueError(f"{self.tag} requires a per-step gain")
            structure = gain_structure(self.gain_G, self.step_gain_g, self.steps_N)
        else:
            structure = gain_structure(self.gain_G)
        for name, value in zip(("gain_G", "step_gain_g", "steps_N"), structure):
            object.__setattr__(self, name, value)

    @classmethod
    def phase_insensitive(cls, gain: float) -> "Mechanism":
        return cls("PhaseInsensitive", gain)

    @classmethod
    def phase_sensitive(cls, gain: float) -> "Mechanism":
        return cls("PhaseSensitive", gain)

    @classmethod
    def single_mode(cls, gain: int) -> "Mechanism":
        return cls("SingleMode", gain)

    @classmethod
    def g_modes(cls, gain: int) -> "Mechanism":
        return cls("GModes", gain)

    @classmethod
    def multistep_single(cls, step_gain: int, steps: int) -> "Mechanism":
        return cls("MultiStepSingleMode", None, step_gain, steps)

    @classmethod
    def multistep_multi(cls, step_gain: int, steps: int) -> "Mechanism":
        return cls("MultiStepMultiMode", None, step_gain, steps)


def _in_float_range(formula):
    """Refuse with ValueError a variance beyond the float range: inf, nan (inf * 0) or an int G**2 no float holds."""
    @functools.wraps(formula)
    def checked(*args, **kwargs):
        try:
            variance = formula(*args, **kwargs)
        except OverflowError:
            variance = math.inf
        if not math.isfinite(variance):
            raise ValueError(f"{formula.__name__}: the output variance is beyond the float range")
        return variance
    return checked


@_in_float_range
def var_caves(gain: float, a: NumberStats, b: NumberStats) -> float:
    """Output-number variance of the phase-insensitive linear amplifier."""
    g = _check_real(gain, "gain", 1)
    return (
        g * g * a.variance
        + (g - 1.0) ** 2 * b.variance
        + g * (g - 1.0) * (2.0 * a.mean * b.mean + a.mean + b.mean + 1.0)
    )


@_in_float_range
def var_phase_sensitive(gain: float, a: NumberStats) -> float:
    """Output-number variance of the phase-sensitive linear amplifier."""
    g = _check_real(gain, "gain", 1)
    return (6.0 * g * (g - 1.0) + 1.0) * a.variance + 2.0 * g * (g - 1.0) * (
        a.mean * a.mean + a.mean + 1.0
    )


@_in_float_range
def var_single_mode(gain: int, a: NumberStats, b: NumberStats) -> float:
    """Single-mode nonlinear amplification: reservoir noise enters unamplified."""
    g = gain_structure(gain)[0]
    return b.variance + g * g * a.variance


@_in_float_range
def var_g_modes(gain: int, a: NumberStats, b: NumberStats) -> float:
    """Amplification into G independent reservoir modes, summed readout."""
    g = gain_structure(gain)[0]
    return g * b.variance + g * g * a.variance


@_in_float_range
def var_multistep_single(total_gain: int, step_gain: int, a: NumberStats, b: NumberStats) -> float:
    """N-step cascade into a single mode per step, total gain g**N."""
    total, g, _ = gain_structure(total_gain, step_gain)
    big_g = float(total)
    return (big_g * big_g - 1.0) / (g * g - 1.0) * b.variance + big_g * big_g * a.variance


@_in_float_range
def var_multistep_multi(total_gain: int, step_gain: int, a: NumberStats, b: NumberStats) -> float:
    """N-step cascade, each step amplifying one excitation into g modes."""
    total, g, _ = gain_structure(total_gain, step_gain)
    big_g = float(total)
    return big_g * (big_g - 1.0) / (g - 1.0) * b.variance + big_g * big_g * a.variance


def _check_snr_inputs(n_a, dn_b) -> tuple[int, float]:
    """The signal and noise scale of ``snr`` as (int, float): n_a an integer >= 1 within the float range,
    dn_b a real >= 0."""
    n_a = _check_integer(n_a, "n_a", 1)
    if n_a > sys.float_info.max:
        raise ValueError("n_a is beyond the float range")
    return n_a, _check_real(dn_b, "dn_b", 0)


def snr(mechanism: Mechanism, n_a: int, dn_b: float) -> float:
    """Signal-to-noise ratio for a fixed input photon number n_a.

    dn_b is the standard deviation of the reservoir occupation.  Returns +inf
    when the noise denominator vanishes (zero-noise reservoir, or G = 1 for the
    linear mechanisms, where no noise is added at all); any other SNR beyond
    the float range, such as n_a / dn_b for a subnormal dn_b, is a ValueError.
    """
    n_a, dn_b = _check_snr_inputs(n_a, dn_b)
    g_tot, g_step, tag = mechanism.gain_G, mechanism.step_gain_g, mechanism.tag
    if (tag in _LINEAR and g_tot == 1.0) or (dn_b == 0.0 and tag != "PhaseSensitive"):
        return math.inf
    # each ratio is written so that no float G^2, g^2, G*(g - 1) or 2G(G - 1) is formed: finite up to G = float max
    if tag == "PhaseSensitive":
        half = 0.5 * g_tot  # (2G - 1)/sqrt(2G(G - 1)) with G halved; G - 1 stays exact near G = 1
        value = math.sqrt(2.0) * (half - 0.25) / (math.sqrt(half) * math.sqrt(half - 0.5)) * n_a
    elif tag == "PhaseInsensitive":
        value = g_tot / (g_tot - 1.0) * n_a / dn_b
    elif tag == "SingleMode":
        try:
            value = g_tot * n_a / dn_b
        except OverflowError:  # an int G * n_a no float holds
            value = math.inf
    elif tag == "GModes":
        value = math.sqrt(g_tot) * n_a / dn_b
    elif tag == "MultiStepSingleMode":
        # sqrt(g^2 - 1) as sqrt(g - 1) sqrt(g + 1), exact at g = 2, and 1/G/G: no int g^2 or G^2 meets a float
        value = math.sqrt(g_step - 1.0) * math.sqrt(g_step + 1.0) / math.sqrt(1.0 - 1.0 / g_tot / g_tot) * n_a / dn_b
    else:  # MultiStepMultiMode
        value = math.sqrt(g_tot) * math.sqrt(g_step - 1.0) / math.sqrt(g_tot - 1.0) * n_a / dn_b
    if not math.isfinite(value):
        raise ValueError(f"the {tag} SNR at n_a = {n_a:g}, dn_b = {dn_b:g} is beyond the float range")
    return value
