"""``import beliefscape.cli`` loads neither the selftest's modules nor ``csv``,
and no command loads ``dataclasses``.

``selfcheck`` and the ``fixtures`` it imports serve the ``selftest`` command
alone, and ``csv`` serves CSV files alone, so each is imported where it is
used. No class in the package is a dataclass, so nothing generates code at
import. The test process has these modules loaded already, so the probe runs
in a fresh interpreter and reports which of them are loaded after each step.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from beliefscape import fixtures
from beliefscape.fileio import save_environment

SRC = Path(__file__).resolve().parents[1] / "src"
LAZY = ("beliefscape.fixtures", "beliefscape.selfcheck", "csv")
NEVER = "dataclasses"

# Imports the CLI, then runs each argv in turn.
PROBE = """
import contextlib, io, json, sys

lazy, never = json.loads(sys.argv[2]), sys.argv[3]
import beliefscape.cli
print(json.dumps(["import", [m for m in lazy if m in sys.modules], never in sys.modules]))
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        beliefscape.cli.main(argv)
    print(json.dumps([argv, [m for m in lazy if m in sys.modules], never in sys.modules]))
"""


def test_cli_loads_selftest_and_csv_modules_only_when_used(tmp_path):
    save_environment(fixtures.truth_or_noise_environment(0.5), str(tmp_path / "env.json"))
    steps = [
        ["generate", "env.json", "-o", "land.json"],
        ["identify", "land.json"],
        ["generate", "env.json", "-o", "land_B.csv"],
        ["selftest", "--trials", "1"],
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(steps), json.dumps(LAZY), NEVER],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    loaded = [json.loads(line) for line in result.stdout.splitlines()]
    assert loaded == [
        ["import", [], False],
        [steps[0], [], False],
        [steps[1], [], False],
        [steps[2], ["csv"], False],  # the control: the probe sees a lazy module once it loads
        [steps[3], list(LAZY), False],
    ]
