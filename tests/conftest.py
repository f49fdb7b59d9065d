"""Shared sampling helpers plus the acceptance-criteria summary."""

from __future__ import annotations

import numpy as np

from beliefscape import (
    BeliefLandscape,
    HypotheticalBeliefMatrix,
    StateBeliefMatrix,
    generate_landscape,
    sample_environment,
)


def interior_simplex(rng: np.random.Generator, n: int, min_mass: float = 0.02) -> np.ndarray:
    return min_mass + (1.0 - n * min_mass) * rng.dirichlet(np.ones(n))


def random_stochastic(rng: np.random.Generator, n_rows: int, n_cols: int) -> np.ndarray:
    return np.array([interior_simplex(rng, n_cols) for _ in range(n_rows)])


def random_beliefs(rng: np.random.Generator, n_signals: int, n_states: int) -> StateBeliefMatrix:
    """Plausible full-column-rank beliefs with interior rows."""
    while True:
        b = random_stochastic(rng, n_signals, n_states)
        s = np.linalg.svd(b, compute_uv=False)
        if s.min() > 1e-3 * s.max():
            return StateBeliefMatrix(b)


def random_plausible_landscape(
    rng: np.random.Generator, n_signals: int, n_states: int
) -> BeliefLandscape:
    """Plausible (B, Q) with no model behind it: Q is just row stochastic."""
    b = random_beliefs(rng, n_signals, n_states)
    q = random_stochastic(rng, n_signals, n_signals)
    return BeliefLandscape(b, HypotheticalBeliefMatrix(q))


def zero_belief_row_landscape() -> BeliefLandscape:
    """A generated 4-signal, 2-state landscape with belief type s2's row set to zeros:
    s2 has no positive belief anywhere, which only skipping validation lets through."""
    land = generate_landscape(sample_environment(np.random.default_rng(0), 2, 4))
    b = land.B.entries.copy()
    b[1] = 0.0
    return BeliefLandscape(StateBeliefMatrix(b, land.state_labels, land.signal_labels), land.Q)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion at the end of the run."""
    rows = []
    for status in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(status, []):
            nodeid = getattr(report, "nodeid", "")
            if "test_acceptance" in nodeid and "::" in nodeid:
                rows.append((nodeid.split("::")[-1], status == "passed"))
    if not rows:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name, ok in sorted(rows):
        terminalreporter.write_line(f"{'PASS' if ok else 'FAIL'}  {name}")
