"""fockamp benchmark: one workload per run, every operation checked, metrics as JSON.

    python3 perfbench/run.py --workload dense-oracle --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Run from anywhere; the program is imported from ``src/`` next to this
directory, never from an installed copy.  The run repeats whole passes of the
workload until ``--seconds`` have elapsed and reports medians.  With
``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics, including the tracing overhead.  The last line of standard
output is one JSON object; the full report, with the run manifest, output
digests and (traced) the spans, goes to ``.perfbench_out/``.  The exit code
is 0 only when every check passed.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("dense-oracle", "mc-sweep", "cli-defaults")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
PROBE_REPEATS = 15

# Import fockamp and build the workload's inputs in a fresh interpreter; prints seconds taken.
SETUP_CODE = """
import sys, time
sys.path[:0] = [sys.argv[1], sys.argv[2]]
start = time.perf_counter()
import fockamp, fockamp.cli
import workloads
workloads.WORKLOADS[sys.argv[3]].make_inputs(int(sys.argv[4]))
print(repr(time.perf_counter() - start))
"""


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def fail(message: str, code: int = 2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def run_all(args) -> int:
    """Every workload in its own process, so each reports its own peak memory."""
    results, code = {}, 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        print(proc.stdout, end="")
        lines = proc.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
        code = max(code, proc.returncode)
    print(json.dumps(results, sort_keys=True))
    return code


def measure_setup(workload: str, seed: int) -> list[float]:
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(HERE), workload, str(seed)],
            stdout=subprocess.PIPE, text=True, check=True, timeout=120,
        )
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def run_pass(workload, inputs: dict, state: dict, tracer) -> dict:
    """One pass: time each operation's program call, then check its output outside the timing."""
    from layers import Api, patch_cli_boundary
    from workloads import PassRecord

    api, rec = Api(tracer), PassRecord()
    latencies, failures = [], []
    cpu0, start = time.process_time(), time.perf_counter()
    with patch_cli_boundary(tracer) if tracer is not None else contextlib.nullcontext():
        for index, op in enumerate(workload.ops(inputs, api, rec, state)):
            if tracer is not None:
                tracer.op_index = index
            t0 = time.perf_counter()
            try:
                op.result = op.call()
                problem = None
            except Exception as exc:  # a failed operation is counted, and the pass goes on
                problem = f"raised {type(exc).__name__}: {exc}"
            latencies.append(time.perf_counter() - t0)
            if problem is None:
                try:
                    problem = op.check(op.result)
                except Exception as exc:
                    problem = f"check raised {type(exc).__name__}: {exc}"
            if problem is not None:
                failures.append(f"{op.kind} #{index}: {problem}")
    pass_problems = workload.pass_checks(rec) if workload.pass_checks else []
    elapsed = time.perf_counter() - start
    return {
        "latencies": latencies,
        "failures": failures + [f"pass: {p}" for p in pass_problems],
        "checks": len(latencies) + (1 if workload.pass_checks else 0),
        "wall": sum(latencies),
        "elapsed": elapsed,
        "cpu": time.process_time() - cpu0,
        "record": rec,
        "tracer": tracer,
    }


def typical_latencies(passes: list) -> list:
    """Each operation's median latency over the passes, in pass order.

    A per-operation median keeps a slow moment of a shared machine from moving
    the figures.  Passes that a failure cut short count up to their length.
    """
    return [statistics.median(ops) for ops in zip(*(p["latencies"] for p in passes))]


def layer_values(p: dict) -> dict:
    """Per-layer figures of one traced pass."""
    values = dict(p["tracer"].counters)
    busy = values.get("montecarlo.run_scenario.busy_s", 0.0)
    values["montecarlo.draws_per_s"] = values.get("montecarlo.draws", 0.0) / busy if busy > 0 else 0.0
    values["fock.settle_cutoff.states_built"] = p["record"].counts["states_built"]
    values["cli.csv_bytes"] = p["record"].counts["csv_bytes"]
    values["process.cpu_s"] = p["cpu"]
    values["process.cpu_util"] = p["cpu"] / p["elapsed"]
    return values


def probe_reservoir_draws(seed: int) -> dict:
    """Median time of one block-sized reservoir_draws call per reservoir kind."""
    import numpy as np
    from fockamp import ReservoirSpec, reservoir_draws
    from workloads import EMPIRICAL_LEVELS, MC_BLOCK

    probs = np.random.default_rng(seed).dirichlet(np.ones(EMPIRICAL_LEVELS))
    specs = {
        "fock": ReservoirSpec.fock(1),
        "thermal": ReservoirSpec.thermal(1.0),
        "empirical": ReservoirSpec.empirical((probs / probs.sum()).tolist()),
    }
    out = {}
    for kind, spec in specs.items():
        times = []
        for slot in range(PROBE_REPEATS):
            t0 = time.perf_counter()
            reservoir_draws(spec, MC_BLOCK, seed, slot)
            times.append(time.perf_counter() - t0)
        out[f"montecarlo.reservoir_draws.{kind}.block_ms"] = statistics.median(times) * 1e3
    return out


def blas_info() -> dict:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    except TypeError:  # numpy older than 1.25 has no mode argument
        return {}
    blas = deps.get("blas", {})
    return {k: blas.get(k) for k in ("name", "version", "openblas configuration")}


def git_commit():
    """HEAD of the repository rooted here, or None (a plain checkout, or one nested in another repo)."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def manifest(args, workload, inputs) -> dict:
    import numpy as np

    return {
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": workload.describe(inputs),
        "src_lines": src_lines(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fockamp" / "__init__.py").is_file():
        fail(f"no fockamp sources under {SRC}")
    threads = str(min(2, len(os.sched_getaffinity(0))))
    for var in BLAS_THREAD_VARS:  # before numpy loads its BLAS
        os.environ[var] = threads
    if args.workload == "all":
        return run_all(args)

    sys.path[:0] = [str(SRC), str(HERE)]
    import fockamp
    from layers import Tracer
    from workloads import WORKLOADS

    if Path(fockamp.__file__).resolve().parent != SRC / "fockamp":
        fail(f"imported fockamp from {fockamp.__file__}, expected {SRC / 'fockamp'}")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS[args.workload]

    setup_samples = measure_setup(workload.name, args.seed)
    inputs = workload.make_inputs(args.seed)
    run_dir = OUT / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    state = {"workdir": run_dir}
    passes = []
    try:
        start = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            passes.append(run_pass(workload, inputs, state, Tracer() if traced else None))
            enough = len(passes) >= 2 or not args.trace
            if enough and time.perf_counter() - start >= args.seconds:
                break
        probes = probe_reservoir_draws(args.seed) if args.trace else {}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = sum(p["checks"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    untraced = [p for p in passes if p["tracer"] is None]
    traced = [p for p in passes if p["tracer"] is not None]
    typical = typical_latencies(untraced)
    wall = sum(typical)
    percentiles = statistics.quantiles(typical, n=100, method="inclusive") if len(typical) > 1 else typical * 99
    report = {
        "setup_s": statistics.median(setup_samples),
        "wall_s": wall,
        "ops_per_s": statistics.median(len(p["latencies"]) for p in untraced) / wall,
        "op_p50_ms": percentiles[49] * 1e3,
        "op_p90_ms": percentiles[89] * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fail_ratio": len(failures) / attempted,
        "ops": sum(len(p["latencies"]) for p in passes),
        "passes": len(untraced),
    }
    if traced:
        per_pass = [layer_values(p) for p in traced]
        names = {m["name"] for m in bench["per_layer"]} | set().union(*per_pass)
        for name in names:
            report[name] = statistics.median(v.get(name, 0.0) for v in per_pass)
        report.update(probes)
        report["trace.overhead_s"] = sum(typical_latencies(traced)) - wall
        report["traced_passes"] = len(traced)
    elif workload.name == "mc-sweep":
        draws = workload.describe(inputs)["draws_per_pass"]
        report["draws_per_s"] = draws / wall

    chosen = bench["per_layer"] if args.trace else bench["end_to_end"]
    missing = [m["name"] for m in chosen if m["name"] not in report]
    if missing:
        fail(f"BENCHMARK.json names metrics this run does not compute: {missing}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": report[m["name"]], "unit": m["unit"]} for m in chosen},
    }
    details = {
        "manifest": manifest(args, workload, inputs),
        "digests": workload.digests(passes[0]["record"]),
        "report": report,
        "setup_samples_s": setup_samples,
        "pass_wall_s": [p["wall"] for p in passes],
        "failures": failures[:50],
    }
    for key in ("manifest", "digests"):
        print(f"{key}: {json.dumps(details[key], sort_keys=True)}")
    for failure in failures[:20]:
        print(f"FAILED {failure}")
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    units.update(fail_ratio="ratio", draws_per_s="1/s", ops="count", passes="count", traced_passes="count")
    for name in sorted(report):
        print(f"{name} = {report[name]:.6g} {units.get(name, '')}".rstrip())
    OUT.mkdir(exist_ok=True)
    record = dict(details, result=result)
    if traced:
        record["spans"] = [p["tracer"].spans for p in traced]
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
