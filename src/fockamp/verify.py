"""Self-contained invariant suite behind the ``verify`` CLI command.

Each check exercises one contract of the operator algebra, the amplification
channels, the closed-form noise expressions, or the filtering pipeline, and
returns a figure, its bound and a detail; ``run_checks`` alone decides PASS as
figure <= bound, so a NaN, a crash or a truncation refusal fails.  A count of
violations has bound 0.  All checks are deterministic given the configured seed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import channels, filters, noise
from .fock import (
    LEAKAGE_TOP_LEVELS,
    MAX_CUTOFF,
    DiagonalState,
    FockSpace,
    NumberStats,
    OperatorMatrix,
    TruncationError,
    _check_integer,
    _check_real,
    annihilation,
    check_truncation,
    default_cutoff,
    fock_state,
    leakage,
    moments,
    number_op,
    settle_cutoff,
    thermal_state,
)

__all__ = ["CheckResult", "VerifyConfig", "run_checks"]


@dataclass(frozen=True)
class CheckResult:
    """One check's verdict: passed is figure <= bound, so a NaN figure, a crash or a truncation refusal fails."""

    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class VerifyConfig:
    """Settings of one verify run; an invalid value raises ValueError on construction."""

    cutoff: Optional[int] = None  # overrides the heuristic when set
    gain: float = 3.0
    seed: int = 2024
    fixed_phase: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "fixed_phase", _check_real(self.fixed_phase, "fixed_phase"))
        # at most MAX_CUTOFF, as settle_cutoff never goes past it either
        object.__setattr__(self, "cutoff", None if self.cutoff is None else _check_integer(self.cutoff, "cutoff", 0, MAX_CUTOFF))
        object.__setattr__(self, "gain", _check_real(self.gain, "gain", 1))
        object.__setattr__(self, "seed", _check_integer(self.seed, "seed", 0))


def _thermal(nbar: float, gain: float, n_a_max: int, cutoff: Optional[int]) -> DiagonalState:
    """Guarded thermal state at ``cutoff``, or when it is None at the heuristic's, grown until the leakage guard passes."""
    if cutoff is None:
        start = default_cutoff(nbar, nbar * (nbar + 1.0), gain, n_a_max)
        cutoff = settle_cutoff(lambda s: thermal_state(FockSpace(s), nbar), start)
    state = thermal_state(FockSpace(cutoff), nbar)
    check_truncation(state)
    return state


def _rel_err(value: float, reference: float) -> float:
    return abs(value - reference) / max(1.0, abs(reference))


def run_checks(cfg: VerifyConfig = VerifyConfig()) -> list[CheckResult]:
    checks: list[tuple[str, Callable[[], tuple[float, float, str]]]] = []
    rng = np.random.default_rng(cfg.seed)
    gain, g_int = cfg.gain, round(cfg.gain)  # the nearest integer gain, >= 1 since gain is

    def check(name):  # registers the decorated function as the check called ``name``
        return lambda fn: checks.append((name, fn))

    # ---------------------------------------------------------------- fock core

    @check("ladder commutator pattern")
    def _():
        a = annihilation(FockSpace(12))
        dev = channels.check_pegg_barnett(channels.commutator(a, a.dagger()))
        return dev, channels.COMMUTATOR_TOL, f"max deviation {dev:.2e}"

    @check("number operator equals a^dag a")
    def _():
        sp = FockSpace(9)
        dev = np.max(np.abs((annihilation(sp).dagger() @ annihilation(sp)).mat - number_op(sp).mat))
        return dev, 1e-12, f"max deviation {dev:.2e}"

    @check("thermal state normalized and monotone")
    def _():
        states = [thermal_state(FockSpace(50), nbar) for nbar in (0.1, 0.7, 1.0, 3.5)]
        worst = np.max([abs(float(st.probs.sum()) - 1.0) for st in states])
        monotone = all(np.all(np.diff(st.probs) <= 0) for st in states)
        return worst if monotone else math.inf, 1e-12, f"worst |sum-1| {worst:.2e}"

    @check("thermal moments at large cutoff")
    def _():
        st = thermal_state(FockSpace(60), 1.0)
        stats = moments(st, number_op(st.space))
        err = np.max([abs(stats.mean - 1.0), abs(stats.variance - 2.0)])
        return err, 1e-9, f"max |error| {err:.2e}"

    @check("variance scaling under observable rescaling")
    def _():
        st = thermal_state(FockSpace(40), 0.8)
        obs = number_op(st.space)
        base = moments(st, obs)
        scaled = moments(st, 2.5 * obs)
        err = abs(scaled.variance - 2.5**2 * base.variance)
        return err, 1e-10 * max(1.0, scaled.variance), f"|var(2.5 O) - 2.5^2 var(O)| = {err:.2e}"

    @check("independent factors multiply expectations")
    def _():
        sa, sb = FockSpace(6), FockSpace(7)
        rho_a, rho_b = thermal_state(sa, 0.5), fock_state(sb, 3)
        fv, gv = rng.standard_normal(sa.dim), rng.standard_normal(sb.dim)
        f, g = OperatorMatrix.from_bands((sa,), {0: fv}), OperatorMatrix.from_bands((sb,), {0: gv})
        joint = moments([rho_a, rho_b], OperatorMatrix.from_bands((sa, sb), {0: np.kron(fv, gv)})).mean
        split = moments(rho_a, f).mean * moments(rho_b, g).mean
        return abs(joint - split), 1e-10, f"|joint - product| = {abs(joint - split):.2e}"

    @check("leakage shrinks as the cutoff grows")
    def _():
        leaks = [leakage(thermal_state(FockSpace(s), 1.0)) for s in (20, 30, 45, 60)]
        rises = sum(not l2 < l1 for l1, l2 in zip(leaks, leaks[1:]))  # a NaN step counts as a rise
        return rises, 0, f"top-{LEAKAGE_TOP_LEVELS} leakage {leaks[0]:.1e} -> {leaks[-1]:.1e}"

    @check("operators on distinct factors commute")
    def _():
        shape = [FockSpace(4), FockSpace(3)]
        x = OperatorMatrix(shape, np.kron(rng.standard_normal((5, 5)), np.eye(4)))
        y = OperatorMatrix(shape, np.kron(np.eye(5), rng.standard_normal((4, 4))))
        dev = np.max(np.abs(channels.commutator(x, y).mat))
        return dev, 1e-12, f"max |[X x 1, 1 x Y]| = {dev:.2e}"

    @check("truncation guard at configured cutoff")
    def _():
        sp = _thermal(1.0, gain, 2, cfg.cutoff).space
        return 0, 0, f"cutoff {sp.cutoff} passes the top-{LEAKAGE_TOP_LEVELS} leakage guard"

    # ------------------------------------------------------------ amp channels

    @check("shift operator unitary")
    def _():
        shifts = [channels.shift_operator(FockSpace(24), phi).mat for phi in (0.0, 0.7, math.pi, 5.1)]
        worst = np.max([np.abs(s.conj().T @ s - np.eye(25)) for s in shifts])
        return worst, 1e-12, f"max |S^dag S - 1| = {worst:.2e}"

    @check("nonlinear output-number identity")
    def _():
        devs = []
        for sb, sa in ((FockSpace(25), FockSpace(4)), (FockSpace(12), FockSpace(8))):
            bout = channels.nonlinear_bout(sb, sa, g_int, 0.35)
            n_out = np.add.outer(np.arange(sb.dim), float(g_int) * np.arange(sa.dim)).ravel()  # n_b + G n_a on (b, a)
            target = OperatorMatrix.from_bands((sb, sa), {0: n_out})
            devs.append(np.max(np.abs((bout.dagger() @ bout).mat - target.mat)))
        worst = np.max(devs)
        return worst, 1e-12, f"max |b^dag b - (n_b + G n_a)| = {worst:.2e}"

    @check("truncated commutator, single-mode sector")
    def _():
        bout = channels.nonlinear_bout(FockSpace(3), FockSpace(0), 1, 0.0)
        dev = channels.check_pegg_barnett(channels.commutator(bout, bout.dagger()))
        return dev, channels.COMMUTATOR_TOL, f"max deviation from 1 - (s+1)|s><s| pattern: {dev:.2e}"

    @check("truncated commutator, two-mode clean region")
    def _():
        sb, sa = FockSpace(30), FockSpace(2)
        bout = channels.nonlinear_bout(sb, sa, 2, 0.0)
        comm = channels.commutator(bout, bout.dagger()).mat
        diag = np.real(np.diag(comm)).reshape(sb.dim, sa.dim)  # [b level, a level]
        clean = diag[: 30 - 2 * 2, :]
        dev = float(np.max(np.abs(clean - 1.0)))
        return dev, 1e-12, f"max |diag - 1| below level s_b - G*s_a: {dev:.2e}"

    @check("output moments independent of the shift phase")
    def _():
        sb, sa = FockSpace(30), FockSpace(3)
        state = [thermal_state(sb, 0.5), fock_state(sa, 1)]
        phases = [cfg.fixed_phase, float(np.random.default_rng(cfg.seed).uniform(0, 2 * math.pi))]
        results = []
        for phi in phases:
            bout = channels.nonlinear_bout(sb, sa, 2, phi)
            results.append(moments(state, bout.dagger() @ bout))
        dev = np.max([abs(results[0].mean - results[1].mean), abs(results[0].variance - results[1].variance)])
        return dev, 1e-12, f"phases {phases[0]:.3f} vs {phases[1]:.3f}: max moment difference {dev:.2e}"

    @check("linear-gain coefficient identity")
    def _():
        worst = np.max([abs(math.sqrt(g) ** 2 - math.sqrt(g - 1.0) ** 2 - 1.0) for g in (1.0, 1.5, 2.0, 7.25, 100.0)])
        return worst, 1e-12, f"max |G - (G-1) - 1| = {worst:.2e}"

    @check("commutator is traceless")
    def _():
        d = 14
        x = OperatorMatrix((FockSpace(d - 1),), rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        y = OperatorMatrix((FockSpace(d - 1),), rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        tr = abs(np.trace(channels.commutator(x, y).mat))
        return tr, 1e-10, f"|trace| = {tr:.2e}"

    @check("idealized transfer map bookkeeping")
    def _():
        seen = set()
        for n in range(3):
            for m in range(12):
                for nn in range(6):
                    if m < g_int * n:
                        try:
                            channels.ideal_schrodinger_map(n, m, nn, g_int)
                        except ValueError:
                            continue
                        return 1, 0, f"inadmissible input (n={n}, M={m}) not rejected"
                    rec = channels.ideal_schrodinger_map(n, m, nn, g_int)
                    if rec.M_out + rec.N_out != m + nn or rec.N_out - nn != g_int * n:
                        return 1, 0, f"conservation violated at (n={n}, M={m}, N={nn})"
                    key = (rec.M_out, rec.N_out, rec.absorber_energy)
                    if key in seen:
                        return 1, 0, f"output collision at (n={n}, M={m}, N={nn})"
                    seen.add(key)
        return 0, 0, f"{len(seen)} admissible inputs map injectively, conserve M+N, reject M < G n"

    # ----------------------------------------------------------- moment oracles

    @check("phase-insensitive variance matches the matrix oracle")
    def _():
        rho_a = fock_state(_thermal(0.0, gain, 1, cfg.cutoff).space, 1)  # a before b: fixes which refusal a low cutoff gets
        check_truncation(rho_a)
        rho_b = _thermal(0.6, gain, 1, cfg.cutoff)
        mc = moments([rho_a, rho_b], channels.caves_number_out(rho_a.space, rho_b.space, gain))
        an = noise.var_caves(gain, rho_a.number_stats(), rho_b.number_stats())
        err = _rel_err(mc.variance, an)
        return err, 1e-8, f"relative error {err:.2e} at G = {gain:g}"

    @check("phase-sensitive variance matches the matrix oracle")
    def _():
        rho_a = _thermal(0.6, gain, 2, cfg.cutoff)  # a reach of 2G, so a refusal names the gain as configured
        mc = moments(rho_a, channels.phase_sensitive_number_out(rho_a.space, gain))
        an = noise.var_phase_sensitive(gain, rho_a.number_stats())
        err = _rel_err(mc.variance, an)
        return err, 1e-8, f"relative error {err:.2e} at G = {gain:g}"

    @check("single-mode variance exact through the operator identity")
    def _():
        rho_b, rho_a = _thermal(1.0, g_int, 2, cfg.cutoff), fock_state(FockSpace(4), 2)
        bout = channels.nonlinear_bout(rho_b.space, rho_a.space, g_int, 0.0)
        mc = moments([rho_b, rho_a], bout.dagger() @ bout)
        an = noise.var_single_mode(g_int, rho_a.number_stats(), rho_b.number_stats())
        err = abs(mc.variance - an)
        return err, 1e-12 * max(1.0, an), f"|matrix - closed form| = {err:.2e}"

    # ------------------------------------------------------------- closed forms

    @check("gain-1 consistency of the closed forms")
    def _():
        a, b = NumberStats(1.3, 0.6), NumberStats(0.9, 1.7)
        errs = [
            abs(noise.var_caves(1.0, a, b) - a.variance),
            abs(noise.var_phase_sensitive(1.0, a) - a.variance),
            abs(noise.var_multistep_single(3, 3, a, b) - noise.var_single_mode(3, a, b)),
            abs(noise.var_multistep_multi(3, 3, a, b) - noise.var_g_modes(3, a, b)),
        ]
        err = np.max(errs)
        return err, 1e-12, f"max reduction error {err:.2e}"

    @check("SNR ordering: single mode, G modes, linear bound")
    def _():
        broken = 0
        for g in (4, 16, 64, 256):
            sm = noise.snr(noise.Mechanism("SingleMode", g), 1, 1.0)
            gm = noise.snr(noise.Mechanism("GModes", g), 1, 1.0)
            pi = noise.snr(noise.Mechanism("PhaseInsensitive", g), 1, 1.0)
            broken += not sm > gm > pi
        return broken, 0, "SingleMode > GModes > PhaseInsensitive on G in {4, 16, 64, 256}"

    @check("two-per-step cascade into modes trails the linear bound")
    def _():
        broken = 0
        for n_steps in range(2, 11):
            mm = noise.snr(noise.Mechanism("MultiStepMultiMode", None, 2, n_steps), 1, 1.0)
            pi = noise.snr(noise.Mechanism("PhaseInsensitive", 2**n_steps), 1, 1.0)
            broken += not mm < pi
        return broken, 0, "MultiStepMultiMode(g=2) < PhaseInsensitive for G = 2^N, N = 2..10"

    @check("large-gain saturation of the linear SNRs")
    def _():
        pi = noise.snr(noise.Mechanism("PhaseInsensitive", 1e4), 1, 1.0)
        ps = noise.snr(noise.Mechanism("PhaseSensitive", 1e4), 1, 1.0)
        err = np.max([abs(pi - 1.0), abs(ps - math.sqrt(2.0)) / math.sqrt(2.0)])
        return err, 0.01, f"max relative miss {err:.2e} at G = 1e4"

    @check("reservoir-noise floor of single-mode amplification")
    def _():
        a = NumberStats(5.0, 0.0)
        devs = [abs(noise.var_single_mode(g, a, NumberStats(0.4, s2)) - s2) for g in (1, 7, 40) for s2 in (0.3, 1.0, 2.6)]
        dev = np.max(devs)
        return dev, 0.0, f"b-variance prefactor deviation {dev:.2e} (must be exactly 1)"

    # ---------------------------------------------------------------- filtering

    @check("filter unitarity over a frequency scan")
    def _():
        scan = (filters.lorentzian_transfer(float(w), 1.5e15, 2e13) for w in np.linspace(0.2e15, 3.0e15, 10_000))
        worst = np.max(np.fromiter((abs(abs(tp.T) ** 2 + abs(tp.R) ** 2 - 1.0) for tp in scan), float))
        return worst, 1e-12, f"max ||T|^2+|R|^2 - 1| over 10^4 points = {worst:.2e}"

    @check("on-resonance transmission is exact")
    def _():
        tp = filters.lorentzian_transfer(1.5e15, 1.5e15, 2e13)
        return np.max([abs(tp.T - 1.0), abs(tp.R)]), 0.0, f"T = {tp.T}, R = {tp.R}"

    @check("transmission falls monotonically off resonance")
    def _():
        det = np.linspace(0.0, 5e13, 40)
        t2 = [abs(filters.lorentzian_transfer(1.5e15 + d, 1.5e15, 2e13).T) ** 2 for d in det]
        rises = sum(not b < a for a, b in zip(t2, t2[1:]))  # a NaN step counts as a rise
        return rises, 0, f"|T|^2 spans {t2[0]:.3f} -> {t2[-1]:.3f}"

    @check("exponential suppression of thermal occupancy")
    def _():
        temperature = 4.0
        x = np.linspace(10.0, 40.0, 200)
        omega = x * temperature / filters.HBAR_OVER_K
        slope = np.polyfit(omega, [math.log(filters.thermal_occupancy(w, temperature)) for w in omega], 1)[0]
        target = -filters.HBAR_OVER_K / temperature
        err = abs(slope - target) / abs(target)
        return err, 1e-6, f"log-slope relative error {err:.2e}"

    @check("filter-then-amplify consistency")
    def _():
        a, c = fock_state(FockSpace(6), 1).number_stats(), fock_state(FockSpace(6), 0).number_stats()
        b_env = NumberStats(0.4, 1.3)
        perfect = filters.TransferPair(1.0, 1.0 + 0j, 0j)
        out = filters.filtered_amplified_stats(perfect, a, c, 5, b_env)
        exact = abs(out.variance - noise.var_single_mode(5, a, b_env))
        half = filters.lorentzian_transfer(1.0, 0.0, 2.0)  # detuning = gamma/2: |T|^2 = 1/2
        out_half = filters.filtered_amplified_stats(half, a, c, 2, NumberStats(0.0, 0.0))
        bernoulli = abs(out_half.variance - 4.0 * 0.25)
        err = np.max([exact, bernoulli])
        return err, 1e-10, f"max |pipeline - oracle| = {err:.2e}"

    @check("reflected internal noise amplifies the background")
    def _():
        sc = FockSpace(30)
        a = fock_state(FockSpace(8), 1).number_stats()
        b_env = NumberStats(0.1, 0.2)
        perfect = filters.filtered_amplified_stats(
            filters.TransferPair(1.0, 1.0 + 0j, 0j), a, fock_state(sc, 0).number_stats(), 6, b_env
        )
        tp = filters.lorentzian_transfer(1.0, 0.0, 2.0)
        leaky = filters.filtered_amplified_stats(tp, a, thermal_state(sc, 0.8).number_stats(), 6, b_env)
        return int(not leaky.variance > perfect.variance), 0, (
            f"variance {leaky.variance:.3f} (thermal internal mode) > {perfect.variance:.3f} (perfect filter)"
        )

    results = []
    for name, fn in checks:
        try:
            figure, bound, detail = fn()
        except TruncationError as exc:  # an inadequate cutoff fails its check with the guard's message
            figure, bound, detail = math.nan, 0, str(exc)
        except Exception as exc:  # a crashed check is a failed check
            figure, bound, detail = math.nan, 0, f"raised {type(exc).__name__}: {exc}"
        results.append(CheckResult(name, bool(figure <= bound), detail))  # the one verdict rule; a NaN fails
    return results
