"""Seeded Monte Carlo photon-counting sampler.

Every amplification model reduces to one closed-form combination per trial:

    output = sum_j  w_j * (reservoir draw j)  +  signal

with integer weights fixed by the model (per-step gain factors for cascades,
all ones for parallel modes) and a deterministic signal of G excitations per
input photon.  Equal weights are kept as (w, m) classes, so the table has one
entry per cascade step, not one per draw.  Draw (t, j) comes from a
counter-based generator keyed on (seed, t, j), so trials are reproducible
under any execution order or split.  Both estimators come from exact integer
central sums rounded once: bitwise deterministic, and blind to a constant shift.

Reservoir draws use untruncated laws (the geometric law for thermal states),
so this module is the truncation-free statistical oracle for the closed-form
variances.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .fock import NumberStats, _check_integer, _check_real
from .noise import gain_structure

__all__ = [
    "ReservoirSpec",
    "ScenarioSpec",
    "SampleStats",
    "reservoir_draws",
    "run_scenario",
    "analytic_variance",
]

MC_MODELS = ("SingleMode", "GModes", "MultiStepSingle", "MultiStepMulti", "Multiplexed", "Shelving")

_MASK = (1 << 64) - 1
_PHI = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_BLOCK = 1 << 17
MAX_DRAWS = 1 << 36  # most reservoir draws (trials * draw slots) one run may take: ~40 min at 3e7 draws/s


def _mix_u64(z: np.ndarray) -> np.ndarray:
    """64-bit finalizer (SplitMix64 style), wrapping modulo 2**64."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


def _uniforms(seed: int, slots, start: int, count: int) -> np.ndarray:
    """Uniforms in [0, 1) for trials start..start+count-1: one row per draw slot, a 1-D row for a single slot."""
    slot = np.asarray(slots, dtype=np.uint64).reshape(-1, 1)  # an array, so the key arithmetic wraps without warning
    key = _mix_u64(np.uint64(seed & _MASK) ^ _mix_u64((slot + np.uint64(1)) * np.uint64(_PHI)))
    t = np.arange(start, start + count, dtype=np.uint64)
    z = _mix_u64(_mix_u64(t * np.uint64(_PHI) + key) ^ _mix_u64(key + np.uint64(_MIX2)))
    return ((z >> np.uint64(11)) * (2.0**-53)).reshape(np.shape(slots) + (count,))


@dataclass(frozen=True)
class ReservoirSpec:
    """Occupation-number law of one reservoir mode."""

    kind: str  # "fock" | "thermal" | "empirical"
    n: int = 0
    nbar: float = 0.0
    probs: Optional[tuple] = None

    def __post_init__(self):
        if self.kind == "fock":
            object.__setattr__(self, "n", _check_integer(self.n, "fock occupation", 0))
        elif self.kind == "thermal":
            object.__setattr__(self, "nbar", _check_real(self.nbar, "thermal mean", 0))
            if self.nbar / (self.nbar + 1.0) == 1.0:
                raise ValueError(f"thermal mean {self.nbar} too large: q = nbar/(nbar+1) rounds to 1")
        elif self.kind == "empirical":
            probs = tuple(_check_real(p, "empirical probability", 0) for p in self.probs)  # () sums to 0
            if abs(sum(probs) - 1.0) > 1e-12:
                raise ValueError(f"empirical probabilities sum to {sum(probs)}, expected 1 within 1e-12")
            object.__setattr__(self, "probs", probs)
        else:
            raise ValueError(f"unknown reservoir kind {self.kind!r}")

    @classmethod
    def fock(cls, n: int) -> "ReservoirSpec":
        return cls("fock", n=n)

    @classmethod
    def thermal(cls, nbar: float) -> "ReservoirSpec":
        return cls("thermal", nbar=nbar)

    @classmethod
    def empirical(cls, probs: Sequence[float]) -> "ReservoirSpec":
        return cls("empirical", probs=probs)

    @property
    def stats(self) -> NumberStats:
        if self.kind == "fock":
            return NumberStats(float(self.n), 0.0)
        if self.kind == "thermal":
            return NumberStats(self.nbar, self.nbar * (self.nbar + 1.0))
        p = np.asarray(self.probs)
        n = np.arange(p.size)
        mean = float(p @ n)
        return NumberStats(mean, float(p @ (n * n)) - mean * mean)

    @property
    def _max_draw(self) -> int:
        """Largest count one draw can return (a uniform is at most 1 - 2**-53)."""
        if self.kind == "fock":
            return self.n
        if self.kind == "thermal":
            if self.nbar == 0.0:
                return 0
            return math.floor(math.log(2.0**-53) / math.log(self.nbar / (self.nbar + 1.0)))
        return len(self.probs) - 1

    @property
    def label(self) -> str:
        if self.kind == "fock":
            return f"fock({self.n})"
        if self.kind == "thermal":
            return f"thermal({self.nbar:g})"
        return f"empirical(len={len(self.probs)})"

    def _draw_block(self, u: np.ndarray) -> np.ndarray:
        if self.kind == "fock":
            return np.full(u.shape, self.n, dtype=np.int64)
        if self.kind == "thermal":
            if self.nbar == 0.0:
                return np.zeros(u.shape, dtype=np.int64)
            q = self.nbar / (self.nbar + 1.0)
            return np.floor(np.log1p(-u) / math.log(q)).astype(np.int64)
        cdf = np.cumsum(np.asarray(self.probs))
        idx = np.searchsorted(cdf, u, side="right")
        return np.minimum(idx, len(self.probs) - 1).astype(np.int64)


def reservoir_draws(spec: ReservoirSpec, count: int, seed: int, draw_index: int = 0) -> np.ndarray:
    """Draws for trials 0..count-1 of one draw slot: count >= 0, any integer seed, slot in [0, 2**64)."""
    count, draw_index = (_check_integer(value, name, 0) for name, value in (("count", count), ("draw_index", draw_index)))
    if draw_index > _MASK:  # the slot key wraps modulo 2**64, so slot 2**64 would repeat slot 0
        raise ValueError(f"draw_index must be below 2**64, got {draw_index}")
    return spec._draw_block(_uniforms(_check_integer(seed, "seed"), draw_index, 0, count))


@dataclass(frozen=True)
class SampleStats:
    """Estimators from one scenario run (variance unbiased, its error bar from m4)."""

    count: int
    mean: float
    variance: float
    std_error_of_variance: float

    def __post_init__(self):
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")
        if self.variance < 0:
            raise ValueError(f"variance must be nonnegative, got {self.variance}")


@dataclass(frozen=True)
class ScenarioSpec:
    """One photon-counting scenario: model, gain structure, reservoir, trial plan."""

    model: str
    input_n_a: int
    reservoir: ReservoirSpec
    trials: int
    seed: int
    gain_G: Optional[int] = None
    step_gain_g: Optional[int] = None
    steps_N: Optional[int] = None
    cavity_mode_count: Optional[int] = None
    mode_budget: Optional[int] = None

    def __post_init__(self):
        if self.model not in MC_MODELS:
            raise ValueError(f"unknown model {self.model!r}")
        for name, minimum in (("input_n_a", 0), ("trials", 1), ("seed", None)):
            object.__setattr__(self, name, _check_integer(getattr(self, name), name, minimum))
        for name in ("cavity_mode_count", "mode_budget"):  # checked when given, whichever the model
            if getattr(self, name) is not None:
                object.__setattr__(self, name, _check_integer(getattr(self, name), name, 0))
        if self.model in ("MultiStepSingle", "MultiStepMulti"):
            if self.step_gain_g is None:
                raise ValueError(f"{self.model} requires step_gain_g")
            structure = gain_structure(self.gain_G, self.step_gain_g, self.steps_N)
        else:
            structure = gain_structure(self.gain_G)
        for name, value in zip(("gain_G", "step_gain_g", "steps_N"), structure):
            object.__setattr__(self, name, value)
        if self.model == "Shelving":
            m = self.cavity_mode_count
            if m is None or not 1 <= m <= self.gain_G:
                raise ValueError(f"cavity mode count must lie in [1, G], got {m}")
        if self.model == "Multiplexed":
            budget = self.mode_budget if self.mode_budget is not None else self.input_n_a
            if budget < self.input_n_a:
                raise ValueError(f"mode budget {budget} below input photon number {self.input_n_a}")
            object.__setattr__(self, "mode_budget", budget)
        classes = _weight_classes(self)
        peak = self.gain_G * self.input_n_a + self.reservoir._max_draw * sum(m * w for w, m in classes)
        if peak >= 2**63:
            raise ValueError(f"a trial can count up to {peak} excitations, beyond the int64 range")
        if sum(m * w * w for w, m in classes) > sys.float_info.max:
            raise ValueError("the weight sum of squares behind the analytic variance is beyond the float range")
        draws = self.trials * sum(m for _, m in classes)
        if draws > MAX_DRAWS and self.reservoir.kind != "fock" and self.reservoir._max_draw > 0:  # draw-free is O(1)
            raise ValueError(f"the run needs {draws} reservoir draws (trials * draw slots), above MAX_DRAWS = {MAX_DRAWS}")


def _weight_classes(spec: ScenarioSpec) -> list[tuple[int, int]]:
    """(w, m) pairs in draw-slot order: m independent reservoir draws enter each trial with weight w."""
    if spec.model in ("MultiStepSingle", "MultiStepMulti"):
        # Step n feeds g**n fresh modes (one in the single-mode cascade) whose
        # noise the remaining N-n steps amplify by g**(N-n); the multi-mode
        # readout sums the g**N last-step modes.
        g, n_steps = spec.step_gain_g, spec.steps_N
        multi = spec.model == "MultiStepMulti"
        return [(g ** (n_steps - n), g**n if multi else 1) for n in range(1, n_steps + 1)]
    if spec.model == "SingleMode":
        return [(1, 1)]
    if spec.model == "GModes":
        return [(1, spec.gain_G)]
    if spec.model == "Multiplexed":
        return [(1, spec.gain_G * spec.mode_budget)]
    # Shelving: G fluorescence quanta per absorbed photon spread over the
    # cavity modes; each mode carries one independent reservoir draw, so one
    # mode reproduces SingleMode and G modes reproduce GModes, bitwise.
    return [(1, spec.cavity_mode_count)]


def analytic_variance(spec: ScenarioSpec) -> float:
    """Closed-form output variance at fixed n_a: sum(m * w^2) * var_b over the weight classes.

    Each independent reservoir draw enters with its integer weight w.  The
    per-mechanism formulas in ``noise`` are the independent check on this sum.
    """
    return sum(m * w * w for w, m in _weight_classes(spec)) * spec.reservoir.stats.variance


def _power_sums(spec: ScenarioSpec, trial_offset: int) -> tuple[int, int, int, int]:
    """Exact sums of x, x^2, x^3, x^4 over all trial outputs: each block's distinct outputs, in Python ints."""
    classes = _weight_classes(spec)
    signal = spec.gain_G * spec.input_n_a
    if spec.reservoir.kind == "fock" or spec.reservoir._max_draw == 0:
        # every draw is _max_draw, so every trial counts the same c
        c = signal + spec.reservoir._max_draw * sum(m * w for w, m in classes)
        return tuple(spec.trials * c**k for k in range(1, 5))
    sums = [0, 0, 0, 0]
    end = trial_offset + spec.trials
    for start in range(trial_offset, end, _BLOCK):
        count = min(_BLOCK, end - start)
        x = np.full(count, signal, dtype=np.int64)
        first = 0  # a class's slots follow its predecessors' in draw-slot order
        for w, m in classes:
            for lo in range(first, first + m, _BLOCK // count):  # chunks of at most _BLOCK uniforms
                u = _uniforms(spec.seed, np.arange(lo, min(lo + _BLOCK // count, first + m)), start, count)
                x += w * spec.reservoir._draw_block(u).sum(axis=0)
            first += m
        values, counts = (a.astype(object) for a in np.unique(x, return_counts=True))
        for k in range(4):
            counts = counts * values
            sums[k] += int(counts.sum())
    return tuple(sums)


def _stats_from_power_sums(n: int, s1: int, s2: int, s3: int, s4: int) -> SampleStats:
    if n < 2:
        raise ValueError(f"a variance needs at least 2 trials, got {n}")
    mean = s1 / n
    # c2 = n^2 m2, c4 = n^4 m4: each estimator is one correctly rounded int/int, >= 0 as m4 >= m2^2
    c2 = n * s2 - s1 * s1
    c4 = n**3 * s4 - 4 * n**2 * s1 * s3 + 6 * n * s1 * s1 * s2 - 3 * s1**4
    variance = c2 / (n * (n - 1))
    var_of_var = ((n - 1) * c4 - (n - 3) * c2 * c2) / ((n - 1) * n**5)
    return SampleStats(n, mean, variance, math.sqrt(var_of_var))


def run_scenario(spec: ScenarioSpec, trial_offset: int = 0) -> SampleStats:
    """Simulate the scenario and return output-count estimators.

    Trial t draws from substreams keyed on (seed, trial_offset + t, draw slot),
    so a run of 2T trials decomposes exactly into two T-trial runs at offsets
    0 and T.
    """
    if spec.trials < 2:  # refused before any sampling, as _stats_from_power_sums would refuse it after
        raise ValueError(f"a variance needs at least 2 trials, got {spec.trials}")
    return _stats_from_power_sums(spec.trials, *_power_sums(spec, trial_offset))

