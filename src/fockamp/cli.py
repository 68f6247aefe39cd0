"""Command-line front end: verification suite, SNR tables, Monte Carlo runs, filter scans.

Configuration comes from an optional JSON file plus flags (flags win); every
run logs its fully resolved configuration to stderr and prints a short summary
to stdout.  Result data goes to CSV files only, with numbers serialized at 17
significant digits so re-parsing reproduces them bit for bit.  Commands are
pure functions of their resolved configuration: identical config and seed give
byte-identical output files.

Exit codes: 0 success, 1 check failure, 2 configuration error.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from pathlib import Path

from . import filters, noise
from .fock import FockSpace, NumberStats, _check_integer, fock_state
from .montecarlo import ReservoirSpec, ScenarioSpec, _power_sums, _stats_from_power_sums, analytic_variance, run_scenario
from .verify import VerifyConfig, run_checks

__all__ = ["main", "cmd_verify", "cmd_snr_table", "cmd_mc", "cmd_filter_scan", "cmd_shelving_demo"]

OUT_DIR_ENV = "FOCKAMP_OUT_DIR"

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG_ERROR = 2


class ConfigError(Exception):
    pass


def _fmt(value) -> str:
    """CSV cell: 17 significant digits for floats, plain text otherwise."""
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return format(value, ".17g")
    return str(value)


def _load_config(path) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    return cfg


def _resolve(args, defaults: dict) -> dict:
    """defaults < config file < explicit flags (the flag of each default key, where the command has one)."""
    resolved = dict(defaults)
    resolved.update(_load_config(getattr(args, "config", None)))
    for key in defaults:
        value = getattr(args, key, None)
        if value is not None:
            resolved[key] = value
    return resolved


def _log_config(command: str, resolved: dict):
    print(f"[{command}] resolved config: {json.dumps(resolved, sort_keys=True)}", file=sys.stderr)


def _out_path(resolved: dict, default_name: str) -> Path:
    if resolved.get("out"):
        return Path(resolved["out"])
    base = os.environ.get(OUT_DIR_ENV, ".")
    return Path(base) / default_name


def _write_csv(path: Path, header: list[str], rows: list[list]) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
    return path


# --------------------------------------------------------------------- verify


def cmd_verify(args) -> int:
    resolved = _resolve(args, {"cutoff": None, "gain": None, "seed": 2024, "fixed_phase": None})
    _log_config("verify", resolved)
    try:
        gain = None if resolved["gain"] is None else noise._check_real_gain(resolved["gain"])
        cutoff = None if resolved["cutoff"] is None else FockSpace(resolved["cutoff"]).cutoff
        phase = None if resolved["fixed_phase"] is None else float(resolved["fixed_phase"])
        if phase is not None and not math.isfinite(phase):
            raise ValueError(f"fixed_phase must be finite, got {phase}")
        cfg = VerifyConfig(cutoff=cutoff, gain=gain, seed=_check_integer(resolved["seed"], "seed"), fixed_phase=phase)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid verify config: {exc}")
    results = run_checks(cfg)
    width = max(len(r.name) for r in results)
    failures = 0
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        failures += 0 if r.passed else 1
        print(f"{mark}  {r.name:<{width}}  {r.detail}")
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return EXIT_OK if failures == 0 else EXIT_CHECK_FAILED


# ------------------------------------------------------------------ snr-table

_DEFAULT_MECHANISMS = [
    {"tag": "PhaseInsensitive"},
    {"tag": "PhaseSensitive"},
    {"tag": "SingleMode"},
    {"tag": "GModes"},
    {"tag": "MultiStepSingleMode", "g": 2},
    {"tag": "MultiStepMultiMode", "g": 2},
]


def cmd_snr_table(args) -> int:
    resolved = _resolve(
        args,
        {
            "mechanisms": _DEFAULT_MECHANISMS,
            "grid": [1, 2, 4, 8, 16, 64, 256],
            "n_a": 1,
            "dn_b": 1.0,
            "out": None,
        },
    )
    _log_config("snr-table", resolved)
    try:
        n_a, dn_b = _check_integer(resolved["n_a"], "n_a"), float(resolved["dn_b"])
        noise._check_snr_inputs(n_a, dn_b)
        families = [(entry["tag"], entry.get("g")) for entry in resolved["mechanisms"]]
        grid = list(resolved["grid"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid snr-table config ({type(exc).__name__}: {exc})")
    rows = []
    skipped = 0
    for tag, step_g in families:
        for grid_g in grid:
            try:
                mech = noise.Mechanism(tag, grid_g, step_g)
                value = noise.snr(mech, n_a, dn_b)
            except ValueError as exc:
                skipped += 1
                print(f"warning: skipping {tag} at G = {grid_g}: {exc}", file=sys.stderr)
                continue
            rows.append([tag, mech.gain_G, mech.step_gain_g, mech.steps_N, n_a, dn_b, value])
    path = _write_csv(_out_path(resolved, "snr_table.csv"), ["mechanism", "G", "g", "N", "n_a", "dn_b", "snr"], rows)
    print(f"wrote {len(rows)} rows to {path} ({skipped} grid points skipped)")
    return EXIT_OK


# ------------------------------------------------------------------------- mc


def _reservoir_from_config(cfg: dict) -> ReservoirSpec:
    if not isinstance(cfg, dict):
        raise ConfigError(f"reservoir must be a JSON object, got {cfg!r}")
    kind = cfg.get("kind")
    if kind == "fock":
        return ReservoirSpec.fock(cfg["n"])
    if kind == "thermal":
        return ReservoirSpec.thermal(float(cfg["nbar"]))
    if kind == "empirical":
        return ReservoirSpec.empirical([float(p) for p in cfg["probs"]])
    raise ConfigError(f"unknown reservoir kind {kind!r}")


def _scenario_from_config(cfg: dict, trials: int, seed: int) -> ScenarioSpec:
    try:
        return ScenarioSpec(
            model=cfg["model"],
            input_n_a=cfg.get("n_a", 0),
            reservoir=_reservoir_from_config(cfg.get("reservoir", {"kind": "thermal", "nbar": 1.0})),
            trials=cfg.get("trials", trials),
            seed=cfg.get("seed", seed),
            gain_G=cfg.get("G"),
            step_gain_g=cfg.get("g"),
            steps_N=cfg.get("N"),
            cavity_mode_count=cfg.get("cavity_modes"),
            mode_budget=cfg.get("mode_budget"),
        )
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"invalid scenario {cfg}: {exc}")


_DEFAULT_SCENARIOS = [
    {"model": "SingleMode", "G": 50, "n_a": 1, "reservoir": {"kind": "fock", "n": 0}},
    {"model": "GModes", "G": 4, "n_a": 1, "reservoir": {"kind": "thermal", "nbar": 1.0}},
    {"model": "MultiStepSingle", "g": 2, "N": 3, "n_a": 0, "reservoir": {"kind": "thermal", "nbar": 0.5}},
    {"model": "MultiStepMulti", "g": 2, "N": 2, "n_a": 1, "reservoir": {"kind": "thermal", "nbar": 1.0}},
]


def cmd_mc(args) -> int:
    resolved = _resolve(args, {"scenarios": _DEFAULT_SCENARIOS, "trials": 100_000, "seed": 12345, "out": None})
    _log_config("mc", resolved)
    # validate every scenario before any sampling happens
    try:
        trials, seed = _check_integer(resolved["trials"], "trials", 1), _check_integer(resolved["seed"], "seed")
        specs = [_scenario_from_config(c, trials, seed) for c in resolved["scenarios"]]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid mc config: {exc}")
    rows = []
    for spec in specs:
        stats = run_scenario(spec)
        target = analytic_variance(spec)
        if stats.std_error_of_variance == 0.0:
            z = 0.0 if stats.variance == target else math.copysign(math.inf, stats.variance - target)
        else:
            z = (stats.variance - target) / stats.std_error_of_variance
        rows.append(
            [
                spec.model,
                spec.gain_G,
                spec.step_gain_g,
                spec.steps_N,
                spec.input_n_a,
                spec.reservoir.label,
                spec.trials,
                spec.seed,
                stats.mean,
                stats.variance,
                target,
                z,
            ]
        )
    header = ["model", "G", "g", "N", "n_a", "reservoir", "trials", "seed", "mean", "variance", "analytic_variance", "z_score"]
    path = _write_csv(_out_path(resolved, "mc_runs.csv"), header, rows)
    print(f"wrote {len(rows)} scenario rows to {path}")
    return EXIT_OK


# ------------------------------------------------------------------ filter-scan


def cmd_filter_scan(args) -> int:
    resolved = _resolve(
        args,
        {
            "omega_min": 0.75e15,
            "omega_max": 2.25e15,
            "points": 101,
            "omega0": 1.5e15,
            "gamma": 1.0e13,
            "omega_amp": 2.0e15,
            "temperature": 300.0,
            "gain": 100,
            "n_a": 1,
            "cutoff_c": 0,
            "table": None,
            "out": None,
        },
    )
    _log_config("filter-scan", resolved)
    try:
        env = filters.ThermalEnv(float(resolved["temperature"]))
        nbar_amp = filters.thermal_occupancy(float(resolved["omega_amp"]), env)
        b_env = NumberStats(nbar_amp, nbar_amp * (nbar_amp + 1.0))
        gain = _check_integer(resolved["gain"], "gain", 1)
        n_a = _check_integer(resolved["n_a"], "n_a", 0)
        space_a = FockSpace(max(n_a, 1))
        space_c = FockSpace(resolved["cutoff_c"])
        rho_a = fock_state(space_a, n_a)
        rho_c = fock_state(space_c, 0)

        if resolved["table"]:
            pairs = filters.read_transfer_table(resolved["table"])
        else:
            count = _check_integer(resolved["points"], "points")
            lo, hi = float(resolved["omega_min"]), float(resolved["omega_max"])
            step = (hi - lo) / (count - 1) if count > 1 else 0.0
            pairs = [
                filters.lorentzian_transfer(lo + k * step, float(resolved["omega0"]), float(resolved["gamma"]))
                for k in range(count)
            ]
    except (OSError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid filter-scan config: {exc}")

    rows = []
    for tp in pairs:
        out = filters.filtered_amplified_stats(tp, rho_a, rho_c, gain, b_env)
        signal = out.mean - b_env.mean
        snr_value = signal / math.sqrt(out.variance) if out.variance > 0 else math.inf
        rows.append([tp.omega, abs(tp.T) ** 2, abs(tp.R) ** 2, nbar_amp, snr_value])
    header = ["omega", "abs_T2", "abs_R2", "nbar_at_omega_amp", "snr_end_to_end"]
    path = _write_csv(_out_path(resolved, "filter_scan.csv"), header, rows)
    print(f"wrote {len(rows)} scan rows to {path}")
    return EXIT_OK


# --------------------------------------------------------------- shelving-demo


def cmd_shelving_demo(args) -> int:
    resolved = _resolve(args, {"gain": 8, "n_a": 1, "nbar": 1.0, "trials": 200_000, "seed": 7, "out": None})
    _log_config("shelving-demo", resolved)
    try:
        gain = _check_integer(resolved["gain"], "gain", 1)
        n_a, trials, seed = (_check_integer(resolved[key], key) for key in ("n_a", "trials", "seed"))
        reservoir = ReservoirSpec.thermal(float(resolved["nbar"]))
        specs = [
            ScenarioSpec(
                model="Shelving",
                input_n_a=n_a,
                reservoir=reservoir,
                trials=trials,
                seed=seed,
                gain_G=gain,
                cavity_mode_count=modes,
            )
            for modes in range(gain, 0, -1)
        ]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid shelving-demo config: {exc}")
    dn_b = math.sqrt(reservoir.stats.variance)
    rows = []
    for spec in specs:
        modes = spec.cavity_mode_count
        s1, s2, s3, s4 = _power_sums(spec, 0)
        stats = _stats_from_power_sums(spec.trials, s1, s2, s3, s4)
        # an n_a = 0 run would reuse these draws, so its sum is exactly s1 - trials * G * n_a
        background_mean = (s1 - spec.trials * gain * n_a) / spec.trials
        snr_mc = (stats.mean - background_mean) / math.sqrt(stats.variance) if stats.variance > 0 else math.inf
        snr_analytic = gain * n_a / math.sqrt(modes * reservoir.stats.variance) if dn_b > 0 else math.inf
        rows.append(
            [modes, gain, n_a, reservoir.label, spec.trials, spec.seed, stats.mean, stats.variance, snr_mc, snr_analytic]
        )
    header = ["cavity_modes", "G", "n_a", "reservoir", "trials", "seed", "mean", "variance", "snr_mc", "snr_analytic"]
    path = _write_csv(_out_path(resolved, "shelving_demo.csv"), header, rows)
    lo, hi = rows[0][-1], rows[-1][-1]
    print(f"wrote {len(rows)} rows to {path}; analytic SNR rises {lo:.3f} -> {hi:.3f} as modes drop {gain} -> 1")
    return EXIT_OK


# ----------------------------------------------------------------------- main


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fockamp",
        description="Photon-number amplification laboratory: verification, SNR tables, Monte Carlo, filter scans.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, trials=False, gain=False, cutoff=False, phase=False):
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--seed", type=int, help="master seed for anything random")
        p.add_argument("--out", help="output CSV path (default under $%s)" % OUT_DIR_ENV)
        if trials:
            p.add_argument("--trials", type=int, help="Monte Carlo trials per scenario")
        if gain:
            p.add_argument("--gain", type=float, help="gain used by gain-dependent checks")
        if cutoff:
            p.add_argument("--cutoff", type=int, help="override the automatic cutoff heuristic")
        if phase:
            p.add_argument("--fixed-phase", dest="fixed_phase", type=float, help="fix the shift-operator phase")

    common(sub.add_parser("verify", help="run the invariant suite"), gain=True, cutoff=True, phase=True)
    common(sub.add_parser("snr-table", help="SNR versus gain for each mechanism"))
    common(sub.add_parser("mc", help="Monte Carlo scenarios with analytic z-scores"), trials=True)
    common(sub.add_parser("filter-scan", help="frequency scan of the filter-then-amplify pipeline"))
    common(sub.add_parser("shelving-demo", help="sweep cavity mode count from G down to 1"), trials=True, gain=True)
    return parser


_COMMANDS = {
    "verify": cmd_verify,
    "snr-table": cmd_snr_table,
    "mc": cmd_mc,
    "filter-scan": cmd_filter_scan,
    "shelving-demo": cmd_shelving_demo,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
