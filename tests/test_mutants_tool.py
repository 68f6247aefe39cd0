"""tools/mutants.py: its operator sites, its tier-1 command line, and the refusal of a module path outside src/."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def test_nested_operators_that_share_a_line_and_column_are_separate_sites():
    source = "y = a + b + c < d <= e\n"
    found = mutants.sites(source)
    assert [(before, after) for _, _, _, before, after in found] == [("Lt", "LtE"), ("LtE", "Lt"), ("Add", "Sub"), ("Add", "Sub")]
    assert {mutants.mutate(source, index, op).strip() for index, op, *_ in found} == {
        "y = a + b + c <= d <= e",
        "y = a + b + c < d < e",
        "y = a + b - c < d <= e",
        "y = a - b + c < d <= e",
    }


@pytest.mark.parametrize(
    "module",
    [
        pytest.param(str(ROOT / "tools" / "mutants.py"), id="absolute-path-outside-src"),
        "tests/test_noise.py",
        "src/fockamp/../../tools/mutants.py",
        "src/fockamp/missing.py",
        "src/fockamp",
        "pyproject.toml",
    ],
)
def test_a_module_outside_src_is_refused_before_any_copy(module, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a refused module makes no copy")

    monkeypatch.setattr(mutants.tempfile, "mkdtemp", refuse)
    with pytest.raises(SystemExit) as exit_:
        mutants.main([module])
    assert exit_.value.code == 2


def test_every_tier1_run_passes_the_one_hypothesis_seed(tmp_path, monkeypatch):
    calls = []

    class Finished:
        def __init__(self, argv, **kwargs):
            calls.append((argv, kwargs))

        def wait(self, timeout=None):
            return 0

    monkeypatch.setattr(mutants.subprocess, "Popen", Finished)
    assert mutants.run_tier1(tmp_path, 60) == "passed"
    ((argv, kwargs),) = calls
    assert f"--hypothesis-seed={mutants.HYPOTHESIS_SEED}" in argv
    assert argv[1:4] == ["-m", "pytest", "-x"]
    assert kwargs["cwd"] == tmp_path
