"""The three workloads: inputs drawn from the seed, and the checked operations of one pass.

A pass is a sequence of ``Op``s.  ``call`` holds the program work the runner
times; ``check`` compares its output with an oracle that is not the code under
test and returns ``None`` when the output is right, or why it is not.  The
seed changes input values (gains, states, phases, cell seeds, command order)
but not operator sizes or trial counts, so every seed asks for the same work.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import math
import struct
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Iterator, Optional

import numpy as np

from fockamp import FockSpace, NumberStats, ReservoirSpec, ScenarioSpec, fock_state, thermal_state
from fockamp.fock import LEAKAGE_TOL, LEAKAGE_TOP_LEVELS, default_cutoff

import oracles
from layers import CLI_COMMANDS, Api


@dataclass
class Op:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], Optional[str]]
    result: object = None


@dataclass
class PassRecord:
    """What the checks of one pass saw: worst deviations, digest inputs, counts."""

    worst: dict = field(default_factory=dict)
    counts: dict = field(default_factory=lambda: {"states_built": 0, "csv_bytes": 0})
    cells: list = field(default_factory=list)  # mc-sweep: (mean, variance, |z|) per cell
    outputs: dict = field(default_factory=dict)  # cli-defaults: sha256 of each command's output

    def deviation(self, name: str, value: float) -> float:
        self.worst[name] = max(self.worst.get(name, 0.0), value)
        return value


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: Callable[[int], dict]
    ops: Callable[[dict, Api, PassRecord, dict], Iterator[Op]]
    pass_checks: Optional[Callable[[PassRecord], list]]  # checks over a whole pass, if any
    digests: Callable[[PassRecord], dict]
    describe: Callable[[dict], dict]


def _over(value: float, tol: float, what: str) -> Optional[str]:
    # written so that NaN fails too
    return None if value <= tol else f"{what}: {value:.3e} exceeds {tol:.0e}"


# ------------------------------------------------------------------ dense-oracle

# Gains are drawn inside each band; the cutoff is settled from the band's top
# gain, so the operator side is fixed per band whatever the seed: 2500 and 2809.
DENSE_BANDS = ((1.0, 2.0), (2.0, 3.0))
ENVELOPE_NBAR = 1.0  # the hottest reservoir state in the sweep sets the cutoff
ENVELOPE_N_A = 2
GRID_GAINS = range(1, 6)
GRID_S_A = range(0, 11)
GRID_S_B = range(0, 61, 5)
MOMENTS_TOL = 1e-8
BUILD_TOL = 1e-12
IDENTITY_TOL = 1e-12


def dense_inputs(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    bands = [{"gain": float(rng.uniform(lo, hi)), "start_gain": hi} for lo, hi in DENSE_BANDS]
    states = [
        ("fock", int(rng.integers(0, ENVELOPE_N_A + 1))),
        ("thermal", ENVELOPE_NBAR),
        ("thermal", float(rng.uniform(0.2, 0.9))),
    ]
    cells = list(itertools.product(GRID_GAINS, GRID_S_A, GRID_S_B))
    grid = [cells[i] + (float(rng.uniform(0.0, 2.0 * math.pi)),) for i in rng.permutation(len(cells))]
    return {"bands": bands, "states": states, "grid": grid}


def _dense_state(space: FockSpace, spec: tuple):
    kind, value = spec
    return fock_state(space, value) if kind == "fock" else thermal_state(space, value)


def _check_settle(start: int, cutoff) -> Optional[str]:
    if not isinstance(cutoff, int) or cutoff < start:
        return f"settled cutoff {cutoff!r} below the start {start}"
    leak = oracles.thermal_top_leakage(cutoff, ENVELOPE_NBAR, LEAKAGE_TOP_LEVELS)
    return _over(leak, LEAKAGE_TOL, f"top-{LEAKAGE_TOP_LEVELS} leakage at cutoff {cutoff}")


def _check_operator(rec: PassRecord, diagonal: np.ndarray, frobenius_sq: float, op) -> Optional[str]:
    mat = op.mat
    if mat.shape != (diagonal.size, diagonal.size):
        return f"operator shape {mat.shape}, expected side {diagonal.size}"
    diag_dev = float(np.max(np.abs(mat.diagonal() - diagonal) / np.maximum(1.0, np.abs(diagonal))))
    frob_dev = oracles.relative_error(float(np.vdot(mat, mat).real), frobenius_sq)
    dev = rec.deviation("build_rel", max(diag_dev, frob_dev))
    return _over(dev, BUILD_TOL, "operator diagonal/Frobenius relative deviation")


def _check_moments(rec: PassRecord, want: float, out) -> Optional[str]:
    stats, closed_form = out
    dev = rec.deviation("moments_rel", oracles.relative_error(stats.variance, want))
    problem = _over(dev, MOMENTS_TOL, "dense variance vs closed form")
    if problem is None:
        dev = rec.deviation("closed_form_rel", oracles.relative_error(closed_form, want))
        problem = _over(dev, BUILD_TOL, "fockamp.noise closed form vs benchmark closed form")
    return problem


def _check_identity(rec: PassRecord, target: np.ndarray, product) -> Optional[str]:
    mat = product.mat
    if mat.shape != (target.size, target.size):
        return f"b_out'b_out shape {mat.shape}, expected side {target.size}"
    off = mat.copy()
    np.fill_diagonal(off, 0.0)
    dev = max(float(np.max(np.abs(mat.diagonal() - target))), float(np.max(np.abs(off))))
    return _over(rec.deviation("identity_abs", dev), IDENTITY_TOL, "b_out'b_out - (n_b + G n_a)")


def _bout_product(api: Api, space_b: FockSpace, space_a: FockSpace, gain: int, phase: float):
    bout = api.nonlinear_bout(space_b, space_a, gain, phase)
    return api.matmul(bout.dagger(), bout)


def dense_ops(inp: dict, api: Api, rec: PassRecord, state: dict) -> Iterator[Op]:
    def build_state(cutoff: int):
        rec.counts["states_built"] += 1
        return thermal_state(FockSpace(cutoff), ENVELOPE_NBAR)

    for band in inp["bands"]:
        gain = band["gain"]
        start = default_cutoff(ENVELOPE_NBAR, ENVELOPE_NBAR * (ENVELOPE_NBAR + 1.0), band["start_gain"], ENVELOPE_N_A)
        settle = Op("settle_cutoff", partial(api.settle_cutoff, build_state, start), partial(_check_settle, start))
        yield settle
        if settle.result is None:
            continue
        s = settle.result
        space = FockSpace(s)
        states = [_dense_state(space, spec) for spec in inp["states"]]
        stats = [oracles.number_stats(np.asarray(st.probs)) for st in states]
        program_stats = [NumberStats(*st) for st in stats]

        caves = Op(
            "caves_number_out",
            partial(api.caves_number_out, space, space, gain),
            partial(_check_operator, rec, oracles.caves_diagonal(s, gain), oracles.caves_frobenius_sq(s, gain)),
        )
        yield caves
        if caves.result is not None:
            for i, j in itertools.product(range(len(states)), repeat=2):
                yield Op(
                    "caves_moments",
                    partial(
                        lambda a, b, pa, pb: (api.moments([a, b], caves.result), api.var_caves(gain, pa, pb)),
                        states[i], states[j], program_stats[i], program_stats[j],
                    ),
                    partial(_check_moments, rec, oracles.var_caves(gain, stats[i], stats[j])),
                )

        sensitive = Op(
            "phase_sensitive_number_out",
            partial(api.phase_sensitive_number_out, space, gain),
            partial(
                _check_operator, rec, oracles.phase_sensitive_diagonal(s, gain), oracles.phase_sensitive_frobenius_sq(s, gain)
            ),
        )
        yield sensitive
        if sensitive.result is not None:
            for st, st_stats, st_program in zip(states, stats, program_stats):
                yield Op(
                    "phase_sensitive_moments",
                    partial(
                        lambda a, pa: (api.moments(a, sensitive.result), api.var_phase_sensitive(gain, pa)),
                        st, st_program,
                    ),
                    partial(_check_moments, rec, oracles.var_phase_sensitive(gain, st_stats)),
                )

    for gain, s_a, s_b, phase in inp["grid"]:
        yield Op(
            "nonlinear_bout",
            partial(_bout_product, api, FockSpace(s_b), FockSpace(s_a), gain, phase),
            partial(_check_identity, rec, oracles.bout_number_target(s_b, s_a, gain)),
        )


def dense_digests(rec: PassRecord) -> dict:
    return {"worst_deviation": dict(sorted(rec.worst.items()))}


def dense_describe(inp: dict) -> dict:
    return {
        "bands": [dict(b, lo=lo, hi=hi) for b, (lo, hi) in zip(inp["bands"], DENSE_BANDS)],
        "states": [list(s) for s in inp["states"]],
        "grid_cells": len(inp["grid"]),
        "grid": {"gains": list(GRID_GAINS), "s_a": list(GRID_S_A), "s_b": list(GRID_S_B)},
        "envelope": {"nbar": ENVELOPE_NBAR, "n_a_max": ENVELOPE_N_A},
        "tolerances": {"moments_rel": MOMENTS_TOL, "build_rel": BUILD_TOL, "identity_abs": IDENTITY_TOL},
    }


# ---------------------------------------------------------------------- mc-sweep

MC_BLOCK = 1 << 17  # fockamp.montecarlo generates draws in blocks of this many trials
MC_TRIALS = MC_BLOCK + MC_BLOCK // 2  # two blocks per cell, the second one partial
MC_Z_MAX = 6.0
MC_Z_TYPICAL = 4.0
MC_TYPICAL_SHARE = 0.95
EMPIRICAL_LEVELS = 5
EMPIRICAL_CELLS = (
    {"model": "SingleMode", "gain_G": 4, "input_n_a": 1},
    {"model": "GModes", "gain_G": 4, "input_n_a": 1},
    {"model": "MultiStepSingle", "step_gain_g": 2, "steps_N": 2, "input_n_a": 0},
    {"model": "MultiStepMulti", "step_gain_g": 2, "steps_N": 2, "input_n_a": 2},
)


def _thermal_cells() -> Iterator[tuple]:
    """The 120-cell acceptance sweep: thermal reservoirs, n_a 0..2, four models."""
    for nbar in (0.2, 1.0):
        reservoir = ReservoirSpec.thermal(nbar)
        for n_a in (0, 1, 2):
            for gain in (2, 4, 8, 16):
                for model in ("SingleMode", "GModes"):
                    yield reservoir, {"model": model, "gain_G": gain, "input_n_a": n_a}
            for step_gain, steps in itertools.product((2, 4), (1, 2, 3, 4)):
                if step_gain**steps <= 16:
                    for model in ("MultiStepSingle", "MultiStepMulti"):
                        yield reservoir, {"model": model, "step_gain_g": step_gain, "steps_N": steps, "input_n_a": n_a}


def mc_inputs(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    probs = rng.dirichlet(np.ones(EMPIRICAL_LEVELS))
    probs = probs / probs.sum()
    empirical = ReservoirSpec.empirical(probs.tolist())
    cells = list(_thermal_cells()) + [(empirical, cell) for cell in EMPIRICAL_CELLS]
    seeds = rng.choice(1 << 31, size=len(cells), replace=False)
    specs = [
        ScenarioSpec(reservoir=reservoir, trials=MC_TRIALS, seed=int(cell_seed), **cell)
        for (reservoir, cell), cell_seed in zip(cells, seeds)
    ]
    return {"specs": specs}


def mc_expected(spec: ScenarioSpec) -> tuple[float, float]:
    res = spec.reservoir
    weights = oracles.mc_weights(spec.model, spec.gain_G, spec.step_gain_g, spec.steps_N, spec.cavity_mode_count)
    reservoir = oracles.reservoir_stats(res.kind, res.n, res.nbar, res.probs)
    return oracles.mc_moments(weights, spec.gain_G * spec.input_n_a, reservoir)


def _check_cell(rec: PassRecord, state: dict, index: int, expected: tuple, out) -> Optional[str]:
    stats, analytic = out
    mean, variance = expected
    se = stats.std_error_of_variance
    z_var = abs(stats.variance - variance) / se if se > 0 else math.inf
    z_mean = abs(stats.mean - mean) / math.sqrt(stats.variance / stats.count) if stats.variance > 0 else math.inf
    rec.cells.append((stats.mean, stats.variance, z_var))
    rec.deviation("z_max", z_var)
    if rec.deviation("analytic_rel", oracles.relative_error(analytic, variance)) > 1e-12:
        return f"analytic_variance {analytic!r} vs sum w^2 var_b {variance!r}"
    first = state.setdefault("cells", {}).setdefault(index, (stats.mean, stats.variance))
    if first != (stats.mean, stats.variance):
        return f"cell {index} gave {(stats.mean, stats.variance)} after {first} on an earlier pass"
    return _over(z_var, MC_Z_MAX, "|z| of the variance") or _over(z_mean, MC_Z_MAX, "|z| of the mean")


def mc_ops(inp: dict, api: Api, rec: PassRecord, state: dict) -> Iterator[Op]:
    for index, spec in enumerate(inp["specs"]):
        yield Op(
            spec.model,
            partial(lambda sp: (api.run_scenario(sp), api.analytic_variance(sp)), spec),
            partial(_check_cell, rec, state, index, mc_expected(spec)),
        )


def mc_pass_checks(rec: PassRecord) -> list:
    if not rec.cells:
        return ["no cell finished"]
    share = sum(1 for _, _, z in rec.cells if z <= MC_Z_TYPICAL) / len(rec.cells)
    if share >= MC_TYPICAL_SHARE:
        return []
    return [f"only {100 * share:.1f}% of cells within {MC_Z_TYPICAL} standard errors"]


def mc_digests(rec: PassRecord) -> dict:
    packed = b"".join(struct.pack("<dd", mean, var) for mean, var, _ in rec.cells)
    return {"cells_sha256": hashlib.sha256(packed).hexdigest(), "z_max": rec.worst.get("z_max")}


def mc_describe(inp: dict) -> dict:
    specs = inp["specs"]
    empirical = next(s.reservoir for s in specs if s.reservoir.kind == "empirical")
    return {
        "cells": len(specs),
        "trials_per_cell": MC_TRIALS,
        "draws_per_pass": sum(
            len(oracles.mc_weights(s.model, s.gain_G, s.step_gain_g, s.steps_N, s.cavity_mode_count)) * s.trials
            for s in specs
        ),
        "empirical_probs": list(empirical.probs),
        "cell_seeds": [s.seed for s in specs],
        "z_limits": {"every_cell": MC_Z_MAX, "typical": MC_Z_TYPICAL, "typical_share": MC_TYPICAL_SHARE},
    }


# ------------------------------------------------------------------ cli-defaults


def cli_inputs(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    return {"order": [CLI_COMMANDS[i] for i in rng.permutation(len(CLI_COMMANDS))]}


def _invoke(main: Callable, argv: list) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def _content_problem(command: str, stdout: str, data: bytes) -> Optional[str]:
    if command == "verify":
        last = stdout.strip().splitlines()[-1] if stdout.strip() else ""
        passed, _, total = last.partition(" ")[0].partition("/")
        return None if passed and passed == total else f"verify summary {last!r}"
    rows = data.decode().splitlines()
    if len(rows) < 2:
        return f"{command} wrote {len(rows)} lines"
    if command == "mc":
        header = rows[0].split(",")
        z_col = header.index("z_score")
        worst = max(abs(float(r.split(",")[z_col])) for r in rows[1:])
        return _over(worst, MC_Z_MAX, "mc CSV |z_score|")
    return None


def _check_cli(rec: PassRecord, state: dict, command: str, path: Optional[Path], rerun: bool, out) -> Optional[str]:
    code, stdout = out
    if code != 0:
        return f"{command} exited {code}"
    data = stdout.encode() if path is None else path.read_bytes()
    if path is not None:
        rec.counts["csv_bytes"] += len(data)
    digest = hashlib.sha256(data).hexdigest()
    if rerun:
        return None if rec.outputs[command] == digest else f"{command} rerun output differs"
    rec.outputs[command] = digest
    first = state.setdefault("outputs", {}).setdefault(command, digest)
    if first != digest:
        return f"{command} output differs from the first pass"
    return _content_problem(command, stdout, data)


def cli_ops(inp: dict, api: Api, rec: PassRecord, state: dict) -> Iterator[Op]:
    workdir = state["workdir"]
    for command in inp["order"]:
        for rerun in (False, True):
            path = None if command == "verify" else workdir / f"{command}-{int(rerun)}.csv"
            argv = [command] + ([] if path is None else ["--out", str(path)])
            yield Op(
                command,
                partial(_invoke, api.cli[command], argv),
                partial(_check_cli, rec, state, command, path, rerun),
            )


def cli_digests(rec: PassRecord) -> dict:
    return {"sha256": dict(sorted(rec.outputs.items()))}


WORKLOADS = {
    w.name: w
    for w in (
        Workload("dense-oracle", dense_inputs, dense_ops, None, dense_digests, dense_describe),
        Workload("mc-sweep", mc_inputs, mc_ops, mc_pass_checks, mc_digests, mc_describe),
        Workload("cli-defaults", cli_inputs, cli_ops, None, cli_digests, lambda inp: dict(inp)),
    )
}
