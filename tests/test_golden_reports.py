"""Golden CLI reports: every command's report, pinned against files in tests/golden/.

Each case runs ``beliefscape`` in-process from a fresh working directory that
holds the shipped fixtures under short relative names, so ``argv`` and the
input digests in the reports do not depend on where the tests run. Exit
codes, keys, strings, booleans and integers must match exactly; floats within
``FLOAT_ATOL``. ``selftest`` is left out: its details quote worst errors at
the 1e-15 level, which is noise.

To rewrite golden files after a deliberate change of a report, run
``PYTHONPATH=src python tests/test_golden_reports.py [CASE ...]``. Named cases
are rewritten; with no names, only the files that are missing or fail are, so
unrelated files keep their bytes.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from beliefscape import (
    BeliefLandscape,
    HypotheticalBeliefMatrix,
    StateBeliefMatrix,
    fixtures,
    generate_landscape,
    sample_environment,
)
from beliefscape.cli import main
from beliefscape.fileio import save_environment, save_landscape

GOLDEN_DIR = Path(__file__).parent / "golden"
FLOAT_ATOL = 1e-11

CASES = {
    "identify_consistent": ["identify", "ton.json"],
    "identify_inconsistent": ["identify", "a916.json"],
    "check_regression": ["check", "ton.json"],
    "check_minimum_norm": ["check", "scarce.json"],
    "sp_unique": ["sp", "ton.json"],
    "sp_family": ["sp", "partition.json"],
    "ridge_lambda": ["ridge", "scarce.json", "--lambda", "1e-6"],
    "ridge_lp": ["ridge", "scarce4.json"],
    "rationalize": ["rationalize", "a916.json"],
    "reduce": ["reduce", "split.json"],
    "partition": ["partition", "partition.json"],
    "infer_state": ["infer-state", "env.json", "--signal", "reveal-th2", "--share", "0.5"],
    "infer_state_inconsistent": ["infer-state", "a916.json", "--signal", "s1", "--share", "0.375"],
    "generate": ["generate", "env.json"],
    "identify_pretty": ["identify", "--format", "pretty", "a58.json"],
    "partition_not_partitional": ["partition", "ton.json"],
    "check_infeasible": ["check", "infeas.json"],
    "ridge_infeasible": ["ridge", "infeas.json"],
    "check_infeasible_pretty": ["check", "--format", "pretty", "infeas.json"],
    "reduce_verdict_error": ["reduce", "--no-validate", "negw.json"],
    "identify_column": ["identify", "--column", "reveal-th2", "ton.json"],
    "identify_column_outside": ["identify", "--column", "a", "col_outside.json"],
}


def write_inputs(directory: Path) -> None:
    """The fixture files every case reads, under the names CASES uses."""
    c1, c2 = np.array([0.5, 0.25]), np.array([0.25, 0.5])
    landscapes = {
        "ton.json": fixtures.truth_or_noise_landscape(0.5),
        "a916.json": fixtures.symmetric_binary_landscape(9 / 16, 9 / 16),
        "a58.json": fixtures.symmetric_binary_landscape(5 / 8, 5 / 8),
        "scarce.json": fixtures.two_signal_three_state_landscape(),
        # four states, two signals: a 2-D null space, which Bayes' rule resolves
        "scarce4.json": generate_landscape(sample_environment(np.random.default_rng(7), 4, 2)),
        "partition.json": fixtures.coarse_partition_landscape([0.25, 1 / 6, 1 / 3, 0.25]),
        "split.json": fixtures.split_state_landscape(),
        # two signals, three states, and peer predictions no stochastic structure meets
        "infeas.json": BeliefLandscape(
            StateBeliefMatrix(fixtures.TWO_SIGNAL_THREE_STATE_B),
            HypotheticalBeliefMatrix([[0.9, 0.1], [0.1, 0.9]]),
        ),
        # third column is 1.2 * first - 0.2 * second: a dependency no mixture explains
        "negw.json": BeliefLandscape(
            StateBeliefMatrix(np.column_stack([c1, c2, 1.2 * c1 - 0.2 * c2])),
            HypotheticalBeliefMatrix(np.eye(2)),
        ),
    }
    for name, landscape in landscapes.items():
        save_landscape(landscape, str(directory / name))
    save_environment(fixtures.truth_or_noise_environment(0.5), str(directory / "env.json"))
    # one in-range hypothetical column whose per-state probabilities are 1.05 and -0.35
    column_doc = {"states": ["th1", "th2"], "signals": ["a", "b"],
                  "B": [[0.75, 0.25], [0.25, 0.75]], "Q": [[0.7], [0.0]]}
    (directory / "col_outside.json").write_text(json.dumps(column_doc))


def run_case(argv: list[str]) -> dict:
    """Exit code and report of one in-process run, from the current directory."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    text = out.getvalue()
    if "--format" in argv:
        return {"argv": argv, "exit": code, "stdout_text": text}
    return {"argv": argv, "exit": code, "stdout": json.loads(text)}


def assert_matches(actual, expected, where: str = "$") -> None:
    if isinstance(expected, bool) or expected is None or isinstance(expected, str):
        assert actual == expected, f"{where}: {actual!r} != {expected!r}"
    elif isinstance(expected, int):
        assert type(actual) is int and actual == expected, f"{where}: {actual!r} != {expected!r}"
    elif isinstance(expected, float):
        assert isinstance(actual, float) and not isinstance(actual, bool), f"{where}: {actual!r}"
        assert actual == pytest.approx(expected, rel=0, abs=FLOAT_ATOL), (
            f"{where}: {actual!r} != {expected!r}"
        )
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), f"{where}: {actual!r}"
        for i, (a, e) in enumerate(zip(actual, expected)):
            assert_matches(a, e, f"{where}[{i}]")
    elif isinstance(expected, dict):
        assert isinstance(actual, dict), f"{where}: {actual!r}"
        assert list(actual) == list(expected), f"{where}: keys {list(actual)} != {list(expected)}"
        for key in expected:
            assert_matches(actual[key], expected[key], f"{where}.{key}")
    else:  # pragma: no cover - golden files hold JSON values only
        raise TypeError(f"{where}: unexpected golden value {expected!r}")


def _as_number(token: str) -> float | None:
    try:
        return float(token.strip("[]"))
    except ValueError:
        return None


def assert_text_matches(actual: str, expected: str) -> None:
    """Pretty output, word by word: numbers within FLOAT_ATOL, everything else exactly."""
    actual_lines, expected_lines = actual.splitlines(), expected.splitlines()
    assert len(actual_lines) == len(expected_lines)
    for line, (got_line, want_line) in enumerate(zip(actual_lines, expected_lines), 1):
        got_words, want_words = got_line.split(), want_line.split()
        assert len(got_words) == len(want_words), f"line {line}: {got_line!r}"
        for got, want in zip(got_words, want_words):
            number = _as_number(want)
            if number is None:
                assert got == want, f"line {line}: {got_line!r} != {want_line!r}"
            else:
                assert _as_number(got) == pytest.approx(number, rel=0, abs=FLOAT_ATOL), (
                    f"line {line}: {got_line!r} != {want_line!r}"
                )


@pytest.fixture
def inputs_dir(tmp_path, monkeypatch):
    write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    return tmp_path


def assert_run_matches(actual: dict, expected: dict) -> None:
    assert actual["argv"] == expected["argv"]
    assert actual["exit"] == expected["exit"]
    if "stdout_text" in expected:
        assert_text_matches(actual["stdout_text"], expected["stdout_text"])
    else:
        assert_matches(actual["stdout"], expected["stdout"])


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_matches_golden(case, inputs_dir):
    expected = json.loads((GOLDEN_DIR / f"{case}.json").read_text())
    assert_run_matches(run_case(CASES[case]), expected)


def _stale(case: str, run: dict) -> bool:
    path = GOLDEN_DIR / f"{case}.json"
    if not path.exists():
        return True
    try:
        assert_run_matches(run, json.loads(path.read_text()))
    except AssertionError:
        return True
    return False


def _rewrite_golden(names: list[str]) -> None:
    import tempfile

    unknown = sorted(set(names) - set(CASES))
    if unknown:
        raise SystemExit(f"unknown case(s): {', '.join(unknown)}")
    GOLDEN_DIR.mkdir(exist_ok=True)
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        write_inputs(Path(scratch))
        os.chdir(scratch)
        try:
            runs = {case: run_case(CASES[case]) for case in names or CASES}
        finally:
            os.chdir(here)
    for case, run in runs.items():
        if names or _stale(case, run):
            (GOLDEN_DIR / f"{case}.json").write_text(json.dumps(run, indent=2) + "\n")
            print(f"rewrote {case}")


if __name__ == "__main__":
    _rewrite_golden(sys.argv[1:])
