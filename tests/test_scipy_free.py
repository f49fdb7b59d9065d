"""scipy stays unloaded on every import path of the package.

numpy does every factorization, ridge solve, eigenvalue-1 step and the
Bayes-rule structure; scipy is a test oracle only. The test process itself has
scipy loaded, so each probe runs in a fresh interpreter and reports the scipy
modules loaded after each step: importing every module, and every CLI command.
"""

from __future__ import annotations

import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

from beliefscape.fileio import save_landscape
from test_cli import equal_belief_rows_landscape
from test_golden_reports import CASES, write_inputs

SRC = Path(__file__).resolve().parents[1] / "src"

# A step is a module name to import or an argv list for the CLI.
PROBE = """
import contextlib, importlib, io, json, sys

for step in json.loads(sys.argv[1]):
    if isinstance(step, str):
        importlib.import_module(step)
    else:
        from beliefscape.cli import main
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            main(step)
    print(json.dumps([step, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""

MODULES = sorted(f"beliefscape.{m.name}" for m in pkgutil.iter_modules([str(SRC / "beliefscape")]))

COMMON_STEPS = (
    MODULES
    + [CASES[case] for case in sorted(CASES)]
    + [["selftest"], ["ridge", "scarce.json"]]
    # equal belief rows: B rank deficient, a 2-D null space
    + [["ridge", "equal_rows.json"], ["check", "equal_rows.json"]]
)


def probe(steps, cwd: Path) -> list:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(steps)],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return [json.loads(line) for line in result.stdout.splitlines()]


@pytest.fixture
def inputs_dir(tmp_path):
    write_inputs(tmp_path)
    save_landscape(equal_belief_rows_landscape(), str(tmp_path / "equal_rows.json"))
    return tmp_path


def test_import_beliefscape_loads_no_scipy(tmp_path):
    assert probe(["beliefscape"], tmp_path) == [["beliefscape", []]]


def test_common_commands_load_no_scipy(inputs_dir):
    reports = probe(COMMON_STEPS, inputs_dir)
    assert [step for step, _ in reports] == list(COMMON_STEPS)
    for step, loaded in reports:
        assert loaded == [], f"{step} loaded {loaded[:3]}"


def test_the_probe_sees_scipy(tmp_path):
    # Control: the probe does report scipy once something imports it.
    [(step, loaded)] = probe(["scipy.optimize"], tmp_path)
    assert "scipy.optimize" in loaded
