"""The fockamp entry points the workloads call, and the spans recorded around them.

Untraced, ``Api`` hands out fockamp's own functions, so an untraced pass runs
no benchmark code between the workload and the program.  Traced, each entry
point is wrapped in a span named ``<module>.<function>``; spans and counters
stay in memory until the run ends.  Spans sit only at module boundaries the
benchmark can reach from outside: the benchmark's own calls, and the names
``fockamp.cli`` calls across into ``verify``, ``montecarlo``, ``filters`` and
``noise``, which ``patch_cli_boundary`` rebinds for one traced pass.
"""
from __future__ import annotations

import contextlib
import operator
import time
from collections import defaultdict
from typing import Callable, Optional

from fockamp import channels, cli, filters, fock, montecarlo, noise

import oracles

CLI_COMMANDS = ("verify", "snr-table", "mc", "filter-scan", "shelving-demo")

Hook = Callable[[dict, tuple, object, float], None]


class Tracer:
    """In-memory spans (id, parent id, operation index, name, start, end) plus counters."""

    def __init__(self):
        self.spans: list = []
        self.counters: defaultdict = defaultdict(float)
        self.op_index: Optional[int] = None
        self._open: list[int] = []

    def wrap(self, name: str, fn: Callable, hook: Optional[Hook] = None) -> Callable:
        def traced(*args, **kwargs):
            span_id = len(self.spans)
            parent = self._open[-1] if self._open else None
            self.spans.append(None)
            self._open.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._open.pop()
                self.spans[span_id] = (span_id, parent, self.op_index, name, start, end)
            self.counters[name + ".calls"] += 1
            self.counters[name + ".busy_s"] += end - start
            if hook is not None:
                hook(self.counters, args, result, end - start)
            return result

        return traced


def _untraced(name: str, fn: Callable, hook: Optional[Hook] = None) -> Callable:
    return fn


def _operator_hook(counters: dict, args: tuple, result, elapsed: float):
    """Bytes and side length of every operator handed back to the benchmark."""
    counters["fock.operator_mb"] += result.mat.nbytes / 1e6
    counters["channels.dim_max"] = max(counters["channels.dim_max"], result.dim)


def _scenario_hook(counters: dict, args: tuple, result, elapsed: float):
    """Per-model busy time, and the draws the spec asks for (a fock reservoir draws none)."""
    spec = args[0]
    counters[f"montecarlo.run_scenario.{spec.model}.busy_s"] += elapsed
    counters["montecarlo.trials"] += spec.trials
    if spec.reservoir.kind != "fock":
        weights = oracles.mc_weights(spec.model, spec.gain_G, spec.step_gain_g, spec.steps_N, spec.cavity_mode_count)
        counters["montecarlo.draws"] += len(weights) * spec.trials


def _checks_hook(counters: dict, args: tuple, result, elapsed: float):
    counters["verify.checks_passed"] += sum(1 for r in result if r.passed)


class Api:
    """fockamp's public functions as the workloads call them, traced when a tracer is given."""

    def __init__(self, tracer: Optional[Tracer] = None):
        w = _untraced if tracer is None else tracer.wrap
        self.settle_cutoff = w("fock.settle_cutoff", fock.settle_cutoff)
        self.moments = w("fock.moments", fock.moments)
        self.matmul = w("fock.matmul", operator.matmul, _operator_hook)
        self.caves_number_out = w("channels.caves_number_out", channels.caves_number_out, _operator_hook)
        self.phase_sensitive_number_out = w(
            "channels.phase_sensitive_number_out", channels.phase_sensitive_number_out, _operator_hook
        )
        self.nonlinear_bout = w("channels.nonlinear_bout", channels.nonlinear_bout, _operator_hook)
        self.var_caves = w("noise.closed_form", noise.var_caves)
        self.var_phase_sensitive = w("noise.closed_form", noise.var_phase_sensitive)
        self.run_scenario = w("montecarlo.run_scenario", montecarlo.run_scenario, _scenario_hook)
        self.analytic_variance = w("montecarlo.analytic_variance", montecarlo.analytic_variance)
        self.cli = {command: w(f"cli.{command}", cli.main) for command in CLI_COMMANDS}


@contextlib.contextmanager
def patch_cli_boundary(tracer: Tracer):
    """Rebind the names fockamp.cli calls into other modules to traced wrappers, then restore them."""
    targets = [
        (cli, "run_checks", "verify.run_checks", _checks_hook),
        (cli, "run_scenario", "montecarlo.run_scenario", _scenario_hook),
        (cli, "analytic_variance", "montecarlo.analytic_variance", None),
        (filters, "filtered_amplified_stats", "filters.filtered_amplified_stats", None),
        (noise, "snr", "noise.closed_form", None),
    ]
    saved = [(module, attr, getattr(module, attr)) for module, attr, _, _ in targets]
    try:
        for module, attr, name, hook in targets:
            setattr(module, attr, tracer.wrap(name, getattr(module, attr), hook))
        yield
    finally:
        for module, attr, fn in saved:
            setattr(module, attr, fn)
