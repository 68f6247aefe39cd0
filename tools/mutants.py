"""Operator mutation scan: does tier-1 notice each swapped operator in a module?

    python3 tools/mutants.py src/fockamp/noise.py

Each mutant swaps one comparison, arithmetic or boolean operator of the module
(``<`` and ``<=``, ``>`` and ``>=``, ``==`` and ``!=``, ``+`` and ``-``, ``*``
and ``/``, ``//`` to ``/``, ``%`` and ``**`` to ``*``, ``and`` and ``or``, and
so on), writes the module back with ``ast.unparse`` into a private copy of the
repository, and runs tier-1 there with ``-x``.  A mutant whose run fails or
takes over 4x the unmutated run is killed (a swap can make a loop endless); one
whose run passes survives and is reported.  Every run, the unmutated one too,
passes Hypothesis the one seed ``HYPOTHESIS_SEED``, so the property tests draw
the same examples for every mutant and in every scan.  Up to 4 mutants run at
once, one per CPU, each in its own copy.  The slow Monte Carlo sweep and the
failure kept by design are deselected.  A site is its position in ``ast.walk``
order, plus the operator's index within a chained comparison: nested operators
can share a line and column, but never that position.  Standard library only;
exit code 1 when any mutant survives.
"""
from __future__ import annotations

import argparse
import ast
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DESELECT = (
    "tests/test_acceptance.py::test_snr_hierarchy_across_mechanisms",  # fails by design (see README)
    "tests/test_acceptance.py::test_monte_carlo_matches_variance_formulas",  # slow
)
HYPOTHESIS_SEED = 0
SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is, ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult, ast.FloorDiv: ast.Div,
    ast.Mod: ast.Mult, ast.Pow: ast.Mult, ast.LShift: ast.RShift, ast.RShift: ast.LShift,
    ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd, ast.BitXor: ast.BitOr, ast.MatMult: ast.Mult,
    ast.And: ast.Or, ast.Or: ast.And,
}


def _ops(node: ast.AST) -> list:
    """The swappable operator slots of one node: (holder, index), index None for a single op."""
    if isinstance(node, ast.Compare):
        return [(node.ops, i) for i in range(len(node.ops))]
    if isinstance(node, (ast.BinOp, ast.AugAssign, ast.BoolOp)):
        return [(node, None)]
    return []


def sites(source: str) -> list[tuple[int, int, int, str, str]]:
    """(walk index, op index, line, original op, swapped op) for every operator with a swap, outside annotations."""
    tree, found = ast.parse(source), []
    annotations = [n.annotation for n in ast.walk(tree) if isinstance(n, (ast.arg, ast.AnnAssign)) and n.annotation]
    annotations += [n.returns for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.returns]
    skip = {id(n) for a in annotations for n in ast.walk(a)}  # never evaluated under `from __future__ import annotations`
    for index, node in enumerate(ast.walk(tree)):
        for holder, i in _ops(node) if id(node) not in skip else ():
            op = holder[i] if i is not None else holder.op
            if type(op) in SWAPS:
                found.append((index, i or 0, node.lineno, type(op).__name__, SWAPS[type(op)].__name__))
    return found


def mutate(source: str, walk_index: int, op_index: int) -> str:
    """The module with the operator at (walk_index, op_index) swapped, as unparsed source."""
    tree = ast.parse(source)
    node = next(n for i, n in enumerate(ast.walk(tree)) if i == walk_index)
    holder, i = _ops(node)[op_index]
    if i is None:
        holder.op = SWAPS[type(holder.op)]()
    else:
        holder[i] = SWAPS[type(holder[i])]()
    return ast.unparse(tree)


def run_tier1(copy: Path, timeout: float) -> str:
    """'passed', 'failed' or 'timeout' for tier-1 (-x, the fixed Hypothesis seed, deselections applied) in ``copy``."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", f"--hypothesis-seed={HYPOTHESIS_SEED}",
            *(f"--deselect={t}" for t in DESELECT)]
    # a session of its own, so a timeout also ends the processes the tests start
    proc = subprocess.Popen(argv, cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                            start_new_session=True)
    try:
        return "passed" if proc.wait(timeout) == 0 else "failed"
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return "timeout"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("module", help="path of a module under src/, relative to the repository root")
    path = (ROOT / parser.parse_args(argv).module).resolve()
    # the mutants are written into the copies only: a path outside src/ would name a file that no copy holds
    if not (path.is_relative_to(ROOT / "src") and path.suffix == ".py" and path.is_file()):
        parser.error(f"the module must be a .py file under {ROOT / 'src'}, got {path}")
    rel = path.relative_to(ROOT)
    source = path.read_text()
    workers = min(os.cpu_count() or 1, 4)  # each worker holds a whole tier-1 session in memory
    found = sites(source)
    scratch = Path(tempfile.mkdtemp(prefix="mutants-"))
    try:
        copies = []
        for w in range(workers):
            copy = scratch / f"w{w}"
            for tree in ("src", "tests", "tools"):  # the tests load this tool too
                shutil.copytree(ROOT / tree, copy / tree, ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "pyproject.toml", copy)
            copies.append(copy)
        start = time.perf_counter()
        if run_tier1(copies[0], 3600) != "passed":
            print("the unmutated tier-1 run does not pass; nothing to measure", file=sys.stderr)
            return 2
        timeout = 4 * (time.perf_counter() - start)
        print(f"{rel}: {len(found)} sites; clean run {time.perf_counter() - start:.1f} s, timeout {timeout:.0f} s", flush=True)
        free, lock = list(copies), threading.Lock()

        def one(site):
            with lock:
                copy = free.pop()
            try:
                (copy / rel).write_text(mutate(source, site[0], site[1]))
                verdict = run_tier1(copy, timeout)
                (copy / rel).write_text(source)
            finally:
                with lock:
                    free.append(copy)
            index, op_index, line, before, after = site
            print(f"  line {line}: {before} -> {after} (site {index}.{op_index}): {verdict}", flush=True)
            return site, verdict

        with ThreadPoolExecutor(workers) as pool:
            results = list(pool.map(one, found))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    survivors = [site for site, verdict in results if verdict == "passed"]
    timeouts = sum(verdict == "timeout" for _, verdict in results)
    print(f"{rel}: {len(results)} mutants, {len(results) - len(survivors)} killed ({timeouts} by timeout), "
          f"{len(survivors)} survived")
    lines = source.splitlines()
    for index, op_index, line, before, after in survivors:
        print(f"SURVIVED line {line}: {before} -> {after} (site {index}.{op_index}): {lines[line - 1].strip()}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
