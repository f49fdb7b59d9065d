"""scipy stays unloaded on the common paths.

numpy does every factorization, graph search, ridge solve and the Bayes-rule
structure of the scarce-signal route; scipy is imported only inside the two
solvers that need it: ``linprog``, for a restoration with two or more free
directions where Bayes' rule does not pin the structure (dependent belief rows,
a prior family or a zero prior entry), and ``nnls``, for
``reconstruct_from_prior`` on dependent belief rows. The test process itself has
scipy loaded, so each probe runs in a fresh interpreter and reports the scipy
modules loaded after each step.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from beliefscape import InformationalEnvironment, InformationStructure, Prior, generate_landscape
from beliefscape.fileio import save_landscape
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

COMMON_STEPS = (
    ["beliefscape.cli"]
    + [CASES[case] for case in sorted(CASES)]
    + [["selftest"], ["ridge", "scarce.json"]]  # ridge: 1-D null space, closed form
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
    return tmp_path


def test_import_beliefscape_loads_no_scipy(tmp_path):
    assert probe(["beliefscape"], tmp_path) == [["beliefscape", []]]


def test_common_commands_load_no_scipy(inputs_dir):
    reports = probe(COMMON_STEPS, inputs_dir)
    assert [step for step, _ in reports] == list(COMMON_STEPS)
    for step, loaded in reports:
        assert loaded == [], f"{step} loaded {loaded[:3]}"


# Controls: the probe does see scipy when a solver imports it. Each case names
# the command and the solver it reaches. ridge_lp: signals 1 and 2 have
# proportional structure columns, so B has two equal rows: rank 2 of 3 and a 2-D
# null space, which Bayes' rule leaves to the restoration LP.
SCIPY_CASES = {
    "ridge_lp": (
        [[0.2, 0.1, 0.7], [0.4, 0.2, 0.4], [0.1, 0.05, 0.85], [0.5, 0.25, 0.25]],
        [0.1, 0.2, 0.3, 0.4],
    ),
}


@pytest.mark.parametrize("case", sorted(SCIPY_CASES))
def test_the_scipy_solvers_load_it(case, tmp_path):
    structure, prior = SCIPY_CASES[case]
    env = InformationalEnvironment(InformationStructure(structure), Prior(prior))
    save_landscape(generate_landscape(env), str(tmp_path / "control.json"))
    [(step, loaded)] = probe([["ridge", "control.json"]], tmp_path)
    assert "scipy" in loaded
