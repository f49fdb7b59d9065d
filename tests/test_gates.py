"""Every public entry point that takes a raw array rejects a nan, an inf, a wrong dimension
and a wrong-length axis with a StructuralError (also a ValueError) before it computes.

An SVD of a matrix with an inf entry may never return, so the cases that would reach one
without the gate run in a child process with a timeout: a missing gate fails, not hangs.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from beliefscape import (
    Regularizer,
    StructuralError,
    fixtures,
    identify_single_column,
    identify_structure,
    infer_state,
    least_squares_coefficients,
    min_norm_solution,
    null_space_basis,
    regression_operator,
    ridge_solution_at,
    unit_eigenvector_eigenvalue_one,
)

SRC = Path(__file__).resolve().parents[1] / "src"

LAND = fixtures.truth_or_noise_landscape(0.3)  # 3 states, 4 signals
B, Q = LAND.B.entries, LAND.Q.entries
COLUMN = np.array([0.2, 0.5, 0.9])

# name -> (call on the raw array, a valid raw array, one with a wrong-length axis or None).
# A "-matrix" case reaches np.linalg.svd with that array unless the gate stops it.
ENTRY_POINTS = {
    "regression_operator-matrix": (regression_operator, B, None),
    "least_squares_coefficients-matrix": (lambda m: least_squares_coefficients(m, Q), B, B[:3]),
    "least_squares_coefficients-target": (lambda t: least_squares_coefficients(B, t), Q, Q[:3]),
    "min_norm_solution-matrix": (lambda m: min_norm_solution(m, Q), B, B[:3]),
    "min_norm_solution-target": (lambda t: min_norm_solution(B, t), Q, Q[:3]),
    "min_norm_solution-reg": (lambda r: min_norm_solution(B, Q, reg=r), np.eye(3), np.eye(2)),
    "ridge_solution_at-matrix": (lambda m: ridge_solution_at(m, Q, 1e-6), B, B[:3]),
    "ridge_solution_at-target": (lambda t: ridge_solution_at(B, t, 1e-6), Q, Q[:3]),
    "null_space_basis-matrix": (null_space_basis, B, None),
    "unit_eigenvector_eigenvalue_one": (unit_eigenvector_eigenvalue_one, Q, Q[:, :3]),
    "Regularizer": (Regularizer, np.eye(3), np.eye(3)[:, :2]),
    "identify_structure": (lambda q: identify_structure(LAND.B, q), Q, Q[:3, :3]),
    "identify_single_column": (lambda c: identify_single_column(LAND.B, c), Q[:, 1], Q[:3, 1]),
    "infer_state-column": (lambda c: infer_state(c, 0.5), COLUMN, COLUMN[:0]),
    "infer_state-share": (lambda s: infer_state(COLUMN, s), np.array(0.5), None),
}
BAD = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf}


def poisoned(good: np.ndarray, value: float, at: int = 0) -> np.ndarray:
    bad = np.array(good, dtype=float)
    bad.flat[at] = value
    return bad


def malformed_cases():
    """(entry point, kind of input) pairs that run in this process: every kind but an inf in
    a "-matrix" case, which :func:`test_an_inf_never_reaches_the_svd` runs in a child."""
    for name, (_, _, short) in ENTRY_POINTS.items():
        kinds = [*BAD, "wrong-dimension"] + ([] if short is None else ["wrong-axis"])
        for kind in kinds:
            if not (name.endswith("-matrix") and "inf" in kind):
                yield name, kind


@pytest.mark.parametrize("name, kind", list(malformed_cases()))
def test_malformed_input_is_a_structural_error(name, kind):
    call, good, short = ENTRY_POINTS[name]
    assert call(good) is not None  # the valid input passes
    if kind in BAD:
        bad = poisoned(good, BAD[kind])
    else:
        bad = short if kind == "wrong-axis" else good[None]
    with pytest.raises(StructuralError):
        call(bad)


def test_a_structural_error_is_a_value_error():
    assert issubclass(StructuralError, ValueError)
    with pytest.raises(ValueError, match="^lam must be positive and finite$"):
        ridge_solution_at(B, Q, np.inf)


# Run in a child: each inf case that reached np.linalg.svd without the gate, 8x5
# Dirichlet rows with one inf at a drawn position, on which svd alone never returns, and
# a finite matrix that whitening by a finite regularizer overflows to inf.
PROBE = """
import json, sys, time
import numpy as np
sys.path.insert(0, sys.argv[1])
from test_gates import B, ENTRY_POINTS, Q, poisoned
from beliefscape import StructuralError, min_norm_solution

rng = np.random.default_rng(4)
rows = rng.dirichlet(np.ones(5), size=8)
cases = {
    f"{name} {value}": (call, poisoned(good, value))
    for name, (call, good, _) in ENTRY_POINTS.items() if name.endswith("-matrix")
    for value in (np.inf, -np.inf)
}
cases["dirichlet 8x5"] = (
    lambda m: min_norm_solution(m, np.eye(8)), poisoned(rows, np.inf, rng.integers(rows.size))
)
cases["whitened overflow"] = (
    lambda m: min_norm_solution(m, Q, reg=np.diag([1e-30, 1.0, 1.0])), B * 1e300
)
for label, (call, bad) in cases.items():
    start = time.perf_counter()
    try:
        call(bad)
        got = "returned"
    except StructuralError:
        got = "StructuralError"
    print(json.dumps([label, got, time.perf_counter() - start]), flush=True)
"""


def test_an_inf_never_reaches_the_svd():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    try:
        result = subprocess.run(
            [sys.executable, "-c", PROBE, str(Path(__file__).parent)],
            env=env, capture_output=True, text=True, timeout=60,
        )
    except subprocess.TimeoutExpired as exc:
        done = exc.stdout.decode() if isinstance(exc.stdout, bytes) else exc.stdout
        pytest.fail(f"an inf case did not return within 60 s; the cases before it:\n{done or ''}")
    assert result.returncode == 0, result.stderr
    outcomes = [json.loads(line) for line in result.stdout.splitlines()]
    assert len(outcomes) == 12
    for label, got, seconds in outcomes:
        assert got == "StructuralError", label
        assert seconds < 1.0, label


@st.composite
def poisoned_inputs(draw):
    """An entry point, a finite array of its input's shape, and one entry made nan or ±inf."""
    name = draw(st.sampled_from(sorted(ENTRY_POINTS)))
    call, good, _ = ENTRY_POINTS[name]
    finite = st.floats(allow_nan=False, allow_infinity=False)
    array = draw(hnp.arrays(np.float64, good.shape, elements=finite))
    at = draw(st.integers(0, max(array.size - 1, 0)))
    return name, call, poisoned(array, draw(st.sampled_from(list(BAD.values()))), at)


@settings(max_examples=200, deadline=None)
@given(poisoned_inputs())
def test_one_non_finite_entry_anywhere_is_rejected(case):
    name, call, bad = case
    with pytest.raises(StructuralError, match="non-finite entries$"):
        call(bad)
