"""Command-line front end: verification suite, SNR tables, Monte Carlo runs, filter scans.

Configuration comes from an optional JSON file plus flags (flags win); every
run logs its fully resolved configuration to stderr and prints a short summary
to stdout.  Result data goes to CSV files only, with numbers serialized at 17
significant digits so re-parsing reproduces them bit for bit.  Commands are
pure functions of their resolved configuration: identical config and seed give
byte-identical output files.

Each ``_COMMANDS`` entry's ``parse`` validates the resolved config and returns
the run step, so every configuration error comes before any output is written.
A CSV command's run step returns its rows, and ``main`` writes them.

Exit codes: 0 success, 1 check failure, 2 configuration error.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import numbers
import os
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Callable, Optional

from . import filters, noise
from .fock import NumberStats, _check_integer, _check_real
from .montecarlo import MAX_DRAWS, ReservoirSpec, ScenarioSpec, analytic_variance, run_mode_sweep, run_scenario
from .verify import VerifyConfig, run_checks

__all__ = ["main"]

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
        return format(value, ".17g")
    return str(value)


def _typed(value, kind: type, what: str):
    """``value`` if it is a JSON list or object (``kind`` list or dict), else a ConfigError."""
    if not isinstance(value, kind):
        raise ConfigError(f"{what} must be a JSON {'list' if kind is list else 'object'}, got {value!r}")
    return value


def _out_path(cfg: dict, default_name: str) -> Path:
    """The CSV's path, its parent made; a directory, or a parent that is a file, is refused before any run."""
    out = cfg["out"]
    if out is not None and (not isinstance(out, str) or not out):
        raise ConfigError(f"out must be a non-empty path, got {out!r}")
    path = Path(os.environ.get(OUT_DIR_ENV, ".")) / default_name if out is None else Path(out)
    if path.is_dir():
        raise ConfigError(f"out must not name a directory, got {str(path)!r}")
    path.parent.mkdir(parents=True, exist_ok=True)  # an OSError where a parent is a file
    return path


def _write_csv(path: Path, header: list[str], rows: list[list]):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_fmt(v) for v in row] for row in rows)


def _snr(signal, variance: float) -> float:  # +inf for a noiseless output
    return signal / math.sqrt(variance) if variance > 0 else math.inf


# --------------------------------------------------------------------- verify


def _parse_verify(cfg: dict) -> Callable[[], bool]:
    checks = VerifyConfig(cutoff=cfg["cutoff"], gain=cfg["gain"], seed=cfg["seed"], fixed_phase=cfg["fixed_phase"])

    def run() -> bool:  # whether every check passed
        results = run_checks(checks)
        width = max(len(r.name) for r in results)
        failures = sum(not r.passed for r in results)
        for r in results:
            print(f"{'PASS' if r.passed else 'FAIL'}  {r.name:<{width}}  {r.detail}")
        print(f"{len(results) - failures}/{len(results)} checks passed")
        return failures == 0

    return run


# ------------------------------------------------------------------ snr-table

_DEFAULT_MECHANISMS = [{"tag": tag, "g": 2} if tag in noise._MULTISTEP else {"tag": tag} for tag in noise.MECHANISM_TAGS]


def _parse_snr_table(cfg: dict) -> Callable[[], list]:
    n_a, dn_b = noise._check_snr_inputs(cfg["n_a"], cfg["dn_b"])
    families = []
    for entry in _typed(cfg["mechanisms"], list, "mechanisms"):
        tag = _typed(entry, dict, "mechanism").get("tag")
        if tag not in noise.MECHANISM_TAGS:
            raise ConfigError(f"unknown mechanism tag {tag!r}")
        step_g = _check_integer(entry.get("g"), f"{tag} step gain g", 2) if tag in noise._MULTISTEP else None
        families.append((tag, step_g))
    grid = _typed(cfg["grid"], list, "grid")
    if any(isinstance(g, bool) or not isinstance(g, numbers.Real) for g in grid):
        raise ConfigError(f"grid entries must be numbers, got {grid!r}")

    def run() -> list:
        rows = []
        for tag, step_g in families:
            for grid_g in grid:
                try:
                    mech = noise.Mechanism(tag, grid_g, step_g)
                    value = noise.snr(mech, n_a, dn_b)
                except (ValueError, OverflowError) as exc:  # a gain this mechanism cannot take, or beyond floats
                    print(f"warning: skipping {tag} at G = {grid_g}: {exc}", file=sys.stderr)
                    continue
                rows.append([tag, mech.gain_G, mech.step_gain_g, mech.steps_N, n_a, dn_b, value])
        return rows

    return run


# ------------------------------------------------------------------------- mc


def _reservoir_from_config(cfg) -> ReservoirSpec:
    kind = _typed(cfg, dict, "reservoir").get("kind")
    if kind == "fock":
        return ReservoirSpec.fock(cfg["n"])
    if kind == "thermal":
        return ReservoirSpec.thermal(cfg["nbar"])
    if kind == "empirical":
        return ReservoirSpec.empirical(cfg["probs"])
    raise ConfigError(f"unknown reservoir kind {kind!r}")


_DEFAULT_SCENARIOS = [
    {"model": "SingleMode", "G": 50, "n_a": 1, "reservoir": {"kind": "fock", "n": 0}},
    {"model": "GModes", "G": 4, "n_a": 1, "reservoir": {"kind": "thermal", "nbar": 1.0}},
    {"model": "MultiStepSingle", "g": 2, "N": 3, "n_a": 0, "reservoir": {"kind": "thermal", "nbar": 0.5}},
    {"model": "MultiStepMulti", "g": 2, "N": 2, "n_a": 1, "reservoir": {"kind": "thermal", "nbar": 1.0}},
]


def _parse_mc(cfg: dict) -> Callable[[], list]:
    trials, seed = _check_integer(cfg["trials"], "trials", 2), _check_integer(cfg["seed"], "seed")
    # every scenario is validated here, before any sampling happens; a variance needs 2 trials
    specs = [
        ScenarioSpec(
            model=_typed(c, dict, "scenario")["model"],  # checked first, so c.get below is safe
            input_n_a=c.get("n_a", 0),
            reservoir=_reservoir_from_config(c.get("reservoir", {"kind": "thermal", "nbar": 1.0})),
            trials=_check_integer(c.get("trials", trials), "trials", 2),
            seed=c.get("seed", seed),
            gain_G=c.get("G"),
            step_gain_g=c.get("g"),
            steps_N=c.get("N"),
            cavity_mode_count=c.get("cavity_modes"),
            mode_budget=c.get("mode_budget"),
        )
        for c in _typed(cfg["scenarios"], list, "scenarios")
    ]

    def run() -> list:
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
        return rows

    return run


# ------------------------------------------------------------------ filter-scan


def _parse_filter_scan(cfg: dict) -> Callable[[], list]:
    nbar_amp = filters.thermal_occupancy(cfg["omega_amp"], cfg["temperature"])
    b_env = NumberStats(nbar_amp, nbar_amp * (nbar_amp + 1.0))
    gain = noise.gain_structure(cfg["gain"])[0]
    n_a = _check_integer(cfg["n_a"], "n_a", 0)
    if float(gain) ** 2 * n_a == math.inf:  # bounds the filtered variance; OverflowError past the float range
        raise ConfigError("G^2 * n_a is beyond the float range")
    a, vacuum = NumberStats(n_a, 0.0), NumberStats(0.0, 0.0)
    if cfg["table"] is not None:
        pairs = filters.read_transfer_table(cfg["table"])
    else:
        count = _check_integer(cfg["points"], "points", 1)
        lo, hi, omega0 = (_check_real(cfg[key], key) for key in ("omega_min", "omega_max", "omega0"))
        step = (hi - lo) / (count - 1) if count > 1 else 0.0
        pairs = [filters.lorentzian_transfer(lo + k * step, omega0, cfg["gamma"]) for k in range(count)]

    def run() -> list:
        rows = []
        for tp in pairs:
            out = filters.filtered_amplified_stats(tp, a, vacuum, gain, b_env)
            signal = out.mean - b_env.mean
            snr_value = _snr(signal, out.variance)
            rows.append([tp.omega, abs(tp.T) ** 2, abs(tp.R) ** 2, nbar_amp, snr_value])
        return rows

    return run


# --------------------------------------------------------------- shelving-demo


def _parse_shelving_demo(cfg: dict) -> Callable[[], list]:
    gain = _check_integer(cfg["gain"], "gain", 1)
    n_a, trials, seed = (_check_integer(cfg[k], k, least) for k, least in (("n_a", 0), ("trials", 2), ("seed", None)))
    reservoir = ReservoirSpec.thermal(cfg["nbar"])
    # conservative: the sweep draws trials * G, and this bounds the trials * G(G+1)/2 of G separate runs, as documented
    if trials * gain * (gain + 1) // 2 > MAX_DRAWS:
        raise ConfigError(f"{trials} trials of G(G+1)/2 = {gain * (gain + 1) // 2} draw slots exceed MAX_DRAWS = {MAX_DRAWS}")
    spec = ScenarioSpec(
        model="Shelving", input_n_a=n_a, reservoir=reservoir, trials=trials, seed=seed, gain_G=gain, cavity_mode_count=gain
    )

    def run() -> list:
        rows, sweep = [], run_mode_sweep(spec)
        for modes in range(gain, 0, -1):
            stats = sweep[modes - 1]
            # an n_a = 0 run would reuse these draws, so the measured signal is exactly G * n_a
            snr_mc = _snr(gain * n_a, stats.variance)
            variance = analytic_variance(replace(spec, cavity_mode_count=modes))
            snr_analytic = _snr(gain * n_a, variance)
            rows.append([modes, gain, n_a, reservoir.label, trials, seed, stats.mean, stats.variance, snr_mc, snr_analytic])
        return rows

    return run


# ----------------------------------------------------------------------- main


@dataclass(frozen=True)
class _Command:
    help: str
    defaults: dict  # the config keys the command reads, with their values when unset, besides out
    flags: tuple[str, ...]  # the defaults keys that also have a flag, besides --out
    parse: Callable[[dict], Callable]  # validates the resolved config, returns the run step: rows, or verify's verdict
    csv: Optional[tuple[str, list[str]]] = None  # the CSV's default file name and header; a CSV command also reads out


_FLAGS = {
    "seed": dict(type=int, help="master seed for anything random"),
    "trials": dict(type=int, help="Monte Carlo trials per scenario"),
    "gain": dict(type=float, help="gain G of the gain-dependent checks (verify) or of the shelving run (shelving-demo)"),
    "cutoff": dict(type=int, help="override the automatic cutoff heuristic"),
    "fixed_phase": dict(type=float, help="fix the shift-operator phase"),
}

_COMMANDS = {
    "verify": _Command(
        "run the invariant suite",
        asdict(VerifyConfig()),
        ("seed", "gain", "cutoff", "fixed_phase"),
        _parse_verify,
    ),
    "snr-table": _Command(
        "SNR versus gain for each mechanism",
        {"mechanisms": _DEFAULT_MECHANISMS, "grid": [1, 2, 4, 8, 16, 64, 256], "n_a": 1, "dn_b": 1.0},
        (),
        _parse_snr_table,
        ("snr_table.csv", "mechanism G g N n_a dn_b snr".split()),
    ),
    "mc": _Command(
        "Monte Carlo scenarios with analytic z-scores",
        {"scenarios": _DEFAULT_SCENARIOS, "trials": 100_000, "seed": 12345},
        ("seed", "trials"),
        _parse_mc,
        ("mc_runs.csv", "model G g N n_a reservoir trials seed mean variance analytic_variance z_score".split()),
    ),
    "filter-scan": _Command(
        "frequency scan of the filter-then-amplify pipeline",
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
            "table": None,
        },
        (),
        _parse_filter_scan,
        ("filter_scan.csv", "omega abs_T2 abs_R2 nbar_at_omega_amp snr_end_to_end".split()),
    ),
    "shelving-demo": _Command(
        "sweep cavity mode count from G down to 1",
        {"gain": 8, "n_a": 1, "nbar": 1.0, "trials": 200_000, "seed": 7},
        ("seed", "trials", "gain"),
        _parse_shelving_demo,
        ("shelving_demo.csv", "cavity_modes G n_a reservoir trials seed mean variance snr_mc snr_analytic".split()),
    ),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fockamp",
        description="Photon-number amplification laboratory: verification, SNR tables, Monte Carlo, filter scans.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--config", help="JSON config file; flags override its values")
        if command.csv:
            p.add_argument("--out", help="output CSV path (default under $%s)" % OUT_DIR_ENV)
        for key in command.flags:
            p.add_argument("--" + key.replace("_", "-"), dest=key, **_FLAGS[key])
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    command = _COMMANDS[args.command]
    try:  # resolving and parsing only: an error raised by the run step is not a configuration error
        # defaults < config file < explicit flags, for the keys the command reads
        defaults = {**command.defaults, "out": None} if command.csv else command.defaults
        cfg = dict(defaults)
        if args.config is not None:
            with open(args.config) as fh:
                cfg.update(_typed(json.load(fh), dict, f"config {args.config}"))
        cfg.update((key, getattr(args, key)) for key in defaults if getattr(args, key, None) is not None)
        print(f"[{args.command}] resolved config: {json.dumps(cfg, sort_keys=True)}", file=sys.stderr)
        run = command.parse(cfg)
        path = _out_path(cfg, command.csv[0]) if command.csv else None
    except (ConfigError, KeyError, TypeError, ValueError, OSError, OverflowError) as exc:
        print(f"configuration error: invalid {args.command} config ({type(exc).__name__}: {exc})", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    if path is None:  # verify: its stdout is its output, and its verdict the exit code
        return EXIT_OK if run() else EXIT_CHECK_FAILED
    rows = run()
    _write_csv(path, command.csv[1], rows)
    print(f"wrote {len(rows)} rows to {path}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
