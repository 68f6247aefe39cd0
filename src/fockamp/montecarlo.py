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
As slot j's draws depend on nothing else, the first k slots of a run are a
k-slot run: a readout after k slots gives that run's sums from the same pass,
so one pass over a G-mode shelving run serves every mode count 1..G.

Reservoir draws use untruncated laws (the geometric law for thermal states),
so this module is the truncation-free statistical oracle for the closed-form
variances.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .fock import _FLOAT_MAX, DiagonalState, FockSpace, NumberStats, _check_integer, _check_real
from .noise import _gain_fields

__all__ = [
    "ReservoirSpec",
    "ScenarioSpec",
    "SampleStats",
    "reservoir_draws",
    "run_scenario",
    "run_mode_sweep",
    "analytic_variance",
]

_CASCADES = ("MultiStepSingle", "MultiStepMulti")
MC_MODELS = ("SingleMode", "GModes") + _CASCADES + ("Multiplexed", "Shelving")

_MASK = (1 << 64) - 1
_PHI, _MIX1, _MIX2 = np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)
_U1, _U11, _U27, _U30, _U31 = (np.uint64(k) for k in (1, 11, 27, 30, 31))  # numpy scalars made once, not per call
_BLOCK = 1 << 17  # trials per fold
_TILE = 1 << 15  # uniforms per generator tile, sized for a per-core L2 cache with its scratch and draws
MAX_DRAWS = 1 << 36  # most reservoir draws (trials * draw slots) one run may take: ~40 min at 3e7 draws/s
_check_trials = functools.partial(_check_integer, name="a variance's trial count", minimum=2)  # the one trial-count rule


def _mix_u64(z: np.ndarray, scratch: Optional[np.ndarray] = None) -> np.ndarray:
    """SplitMix64-style finalizer mod 2**64, in place on ``z``, which it returns; shifts go to ``scratch`` or fresh arrays."""
    for bits, factor in ((_U30, _MIX1), (_U27, _MIX2)):
        z ^= np.right_shift(z, bits, out=scratch)
        z *= factor
    z ^= np.right_shift(z, _U31, out=scratch)
    return z


def _slot_keys(seed: int, slots) -> np.ndarray:
    """Both keys of each draw slot, shape (2, slots, 1): the counter's offset and the final xor."""
    slot = np.asarray(slots, dtype=np.uint64).reshape(-1, 1)  # an array, so the key arithmetic wraps without warning
    key = _mix_u64(np.uint64(seed & _MASK) ^ _mix_u64((slot + _U1) * _PHI))
    return np.stack((key, _mix_u64(key + _MIX2)))


def _tile_uniforms(keys: np.ndarray, start: int, work: np.ndarray) -> np.ndarray:
    """Uniforms in [0, 1) for trials start.. of the keyed slots, made in place in ``work``: uint64, (2, slots, trials)."""
    z, scratch = work
    np.multiply(np.arange(start, start + z.shape[1], dtype=np.uint64), _PHI, out=z)
    z += keys[0]
    _mix_u64(z, scratch)
    z ^= keys[1]
    np.right_shift(_mix_u64(z, scratch), _U11, out=z)
    return np.multiply(z.view(np.int64), 2.0**-53, out=scratch.view(np.float64))  # work's second half; exact: z < 2**53


def _uniforms(seed: int, slots, start: int, count: int) -> np.ndarray:
    """Uniforms in [0, 1) for trials start..start+count-1: one row per draw slot, a 1-D row for a single slot."""
    keys = _slot_keys(seed, slots)
    return _tile_uniforms(keys, start, np.empty((2, keys.shape[1], count), dtype=np.uint64)).reshape(np.shape(slots) + (count,))


@dataclass(frozen=True)
class ReservoirSpec:
    """Occupation-number law of one reservoir mode: its moments, label and largest draw are worked out once, here."""

    kind: str  # "fock" | "thermal" | "empirical"
    n: int = 0
    nbar: float = 0.0
    probs: Optional[tuple] = None
    stats: NumberStats = field(init=False, repr=False, compare=False)
    label: str = field(init=False, repr=False, compare=False)
    _max_draw: int = field(init=False, repr=False, compare=False)  # the largest count one draw can return

    def __post_init__(self):
        if self.kind == "fock":
            n = _check_integer(self.n, "fock occupation (at most 2**63 - 1, as every draw is an int64)", 0, 2**63 - 1)
            self.__dict__.update(n=n, stats=NumberStats(float(n), 0.0), label=f"fock({n})", _max_draw=n)  # past the frozen __setattr__
        elif self.kind == "thermal":
            nbar = _check_real(self.nbar, "thermal mean", 0)
            q = nbar / (nbar + 1.0)
            if q == 1.0:
                raise ValueError(f"thermal mean {nbar} too large: q = nbar/(nbar+1) rounds to 1")
            top = math.floor(math.log(2.0**-53) / math.log(q)) if nbar else 0  # a uniform is at most 1 - 2**-53
            self.__dict__.update(nbar=nbar, stats=NumberStats(nbar, nbar * (nbar + 1.0)), label=f"thermal({nbar:g})", _max_draw=top)
        elif self.kind == "empirical":
            probs = tuple(_check_real(p, "empirical probability", 0) for p in self.probs)
            state = DiagonalState(FockSpace(max(len(probs) - 1, 0)), probs)  # the one sum check
            self.__dict__.update(probs=probs, stats=state.number_stats(), label=f"empirical(len={len(probs)})", _max_draw=len(probs) - 1)
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
    def _draw_free(self) -> bool:  # every draw is _max_draw: a Fock law, thermal(0) or a one-level empirical law
        return self.kind == "fock" or self._max_draw == 0

    def _draw_block(self, u: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Draws for the uniforms ``u``, written into ``out`` (int64, u's shape) when given; a thermal law overwrites u."""
        out = np.empty(u.shape, dtype=np.int64) if out is None else out
        if self._draw_free:
            out[...] = self._max_draw
        elif self.kind == "thermal":
            q = self.nbar / (self.nbar + 1.0)
            v = np.divide(np.log1p(np.negative(u, out=u), out=u), math.log(q), out=u)
            np.copyto(out, v, casting="unsafe")  # v >= 0, so the cast's truncation is the floor
        else:
            np.minimum(np.searchsorted(np.cumsum(self.probs), u, side="right"), self._max_draw, out=out)
        return out


def reservoir_draws(spec: ReservoirSpec, count: int, seed: int, draw_index: int = 0) -> np.ndarray:
    """Draws for trials 0..count-1 of one draw slot: count >= 0, any integer seed, slot in [0, 2**64)."""
    count = _check_integer(count, "count", 0)
    # the slot key wraps modulo 2**64, so slot 2**64 would repeat slot 0
    draw_index = _check_integer(draw_index, "draw_index", 0, _MASK)
    return spec._draw_block(_uniforms(_check_integer(seed, "seed"), draw_index, 0, count))


@dataclass(frozen=True)
class SampleStats:
    """Estimators from one scenario run (variance unbiased, its error bar from m4)."""

    count: int
    mean: float
    variance: float
    std_error_of_variance: float

    def __post_init__(self):
        _check_trials(self.count)
        for name, minimum in (("mean", None), ("variance", 0), ("std_error_of_variance", 0)):
            _check_real(getattr(self, name), name, minimum)


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
    _classes: tuple = field(init=False, repr=False, compare=False)  # (w, m): m independent draws of weight w, in slot order

    def __post_init__(self):
        if self.model not in MC_MODELS:
            raise ValueError(f"unknown model {self.model!r}")
        for name, minimum in (("input_n_a", 0), ("trials", 1), ("seed", None)):
            object.__setattr__(self, name, _check_integer(getattr(self, name), name, minimum))
        for name in ("cavity_mode_count", "mode_budget"):  # checked when given, whichever the model
            if getattr(self, name) is not None:
                object.__setattr__(self, name, _check_integer(getattr(self, name), name, 0))
        structure = _gain_fields(self.model, self.model in _CASCADES, self.gain_G, self.step_gain_g, self.steps_N)
        for name, value in zip(("gain_G", "step_gain_g", "steps_N"), structure):
            object.__setattr__(self, name, value)
        if self.model in _CASCADES:
            # Step n feeds g**n fresh modes (one in the single-mode cascade) whose
            # noise the remaining N-n steps amplify by g**(N-n); the multi-mode
            # readout sums the g**N last-step modes.
            g, n_steps = self.step_gain_g, self.steps_N
            classes = tuple((g ** (n_steps - n), g**n if self.model == "MultiStepMulti" else 1) for n in range(1, n_steps + 1))
        elif self.model == "SingleMode":
            classes = ((1, 1),)
        elif self.model == "GModes":
            classes = ((1, self.gain_G),)
        elif self.model == "Multiplexed":
            budget = self.mode_budget if self.mode_budget is not None else self.input_n_a
            object.__setattr__(self, "mode_budget", _check_integer(budget, "mode_budget (at least input_n_a)", self.input_n_a))
            classes = ((1, self.gain_G * self.mode_budget),)
        else:
            # Shelving: G fluorescence quanta per absorbed photon spread over the
            # cavity modes; each mode carries one independent reservoir draw, so one
            # mode reproduces SingleMode and G modes reproduce GModes, bitwise.
            classes = ((1, _check_integer(self.cavity_mode_count, "cavity_mode_count (in [1, G])", 1, self.gain_G)),)
        object.__setattr__(self, "_classes", classes)
        peak = self.gain_G * self.input_n_a + self.reservoir._max_draw * sum(m * w for w, m in classes)
        if peak >= 2**63:
            raise ValueError(f"a trial can count up to {peak} excitations, beyond the int64 range")
        if sum(m * w * w for w, m in classes) > _FLOAT_MAX:
            raise ValueError("the weight sum of squares behind the analytic variance is beyond the float range")
        draws = self.trials * sum(m for _, m in classes)
        if draws > MAX_DRAWS and not self.reservoir._draw_free:  # a draw-free run costs O(1)
            raise ValueError(f"the run needs {draws} reservoir draws (trials * draw slots), above MAX_DRAWS = {MAX_DRAWS}")


def analytic_variance(spec: ScenarioSpec) -> float:
    """Closed-form output variance at fixed n_a: sum(m * w^2) * var_b over the weight classes.

    Each independent reservoir draw enters with its integer weight w.  The
    per-mechanism formulas in ``noise`` are the independent check on this sum.
    """
    return sum(m * w * w for w, m in spec._classes) * spec.reservoir.stats.variance


def _fold(x: np.ndarray, sums: list) -> None:
    """Add the exact sums of x, x^2, x^3, x^4 to ``sums``: each distinct output once, in Python ints."""
    values, counts = (a.astype(object) for a in np.unique(x, return_counts=True))
    for k in range(4):
        counts = counts * values
        sums[k] += int(counts.sum())


def _power_sums(spec: ScenarioSpec, trial_offset: int, readouts: Optional[Sequence[int]] = None):
    """Exact sums of x, x^2, x^3, x^4 over all trial outputs: each block's distinct outputs, in Python ints.

    Given ``readouts``, ascending slot counts that end at the spec's own, it returns one such 4-tuple per readout k:
    x read after its first k draw slots, which is the k-slot run's x, as slot j is keyed on (seed, trial, j) alone.
    """
    # trial indices lie in [0, 2**64); a draw-free spec of more trials runs at offset 0 alone
    trial_offset = _check_integer(trial_offset, "trial_offset (at most 2**64 - trials)", 0, max(2**64 - spec.trials, 0))
    signal = spec.gain_G * spec.input_n_a
    points = [sum(m for _, m in spec._classes)] if readouts is None else list(readouts)
    if spec.reservoir._draw_free:
        # every draw is _max_draw, so after k slots every trial counts the same c: the signal plus that many weights
        firsts = list(itertools.accumulate((m for _, m in spec._classes), initial=0))
        weights = (sum(w * min(m, max(k - f, 0)) for (w, m), f in zip(spec._classes, firsts)) for k in points)
        counts = [signal + spec.reservoir._max_draw * weight for weight in weights]
        sums = [tuple(spec.trials * c**p for p in range(1, 5)) for c in counts]
        return sums[0] if readouts is None else sums
    sums = [[0, 0, 0, 0] for _ in points]
    end = trial_offset + spec.trials
    for start in range(trial_offset, end, _BLOCK):
        count = min(_BLOCK, end - start)
        x = np.full(count, signal, dtype=np.int64)
        lo, readout = 0, 0  # the next draw slot, and the next readout
        span = min(count, _TILE)  # a tile holds _TILE // span slots of span trials each
        work = np.empty((2, _TILE // span, span), dtype=np.uint64)  # the generator's tile, reused by every tile
        for w, m in spec._classes:
            top = lo + m  # a class's slots follow its predecessors' in draw-slot order
            while lo < top:  # tiles of at most _TILE // span slots, each ending by the next readout
                hi = min(lo + _TILE // span, top, points[readout])
                keys = _slot_keys(spec.seed, np.arange(lo, hi))
                for t in range(0, count, span):
                    tile = work[:, : hi - lo, : count - t]  # a ragged tile is a corner of the work tile
                    u = _tile_uniforms(keys, start + t, tile)
                    draws = spec.reservoir._draw_block(u, tile[0].view(np.int64))  # in the tile's free first half
                    draws = draws[0] if len(draws) == 1 else draws.sum(axis=0)
                    if w != 1:
                        draws *= w
                    x[t : t + len(draws)] += draws
                lo = hi
                if lo == points[readout]:
                    _fold(x, sums[readout])
                    readout += 1
    return tuple(sums[0]) if readouts is None else [tuple(s) for s in sums]


def _stats_from_power_sums(n: int, s1: int, s2: int, s3: int, s4: int) -> SampleStats:
    _check_trials(n)  # the runs refuse before sampling; a direct call of one trial is refused here, not divided by 0
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
    0 and T.  Trial indices lie in [0, 2**64), so trial_offset is an integer in [0, 2**64 - trials].
    """
    _check_trials(spec.trials)  # refused before any sampling
    return _stats_from_power_sums(spec.trials, *_power_sums(spec, trial_offset))


def run_mode_sweep(spec: ScenarioSpec, trial_offset: int = 0) -> list[SampleStats]:
    """Estimators for every cavity-mode count 1..cavity_mode_count of a Shelving spec, from one pass of its draws.

    The k-mode run draws exactly the first k draw slots of this one, so entry k - 1 equals
    ``run_scenario(replace(spec, cavity_mode_count=k), trial_offset)`` bitwise.
    """
    if spec.model != "Shelving":  # refused before any sampling, as is a spec of fewer than 2 trials
        raise ValueError(f"a mode sweep needs a Shelving spec, got {spec.model}")
    _check_trials(spec.trials)
    sums = _power_sums(spec, trial_offset, range(1, spec.cavity_mode_count + 1))
    return [_stats_from_power_sums(spec.trials, *mode_sums) for mode_sums in sums]
