"""Built-in checks: the worked examples plus randomized round trips.

Exposed through the ``selftest`` CLI command; returns one line per check so
an installation can be vetted without the development test suite.
"""

from __future__ import annotations

import numpy as np

from . import fixtures
from .core import DEFAULT_TOLERANCES, Tolerances, validate_landscape
from .forward import generate_landscape, sample_environment, signal_marginal
from .inverse import (
    consistency_check,
    identify,
    identify_underdetermined,
    signal_priors_identify,
)


def _close(a, b, tol=1e-8) -> bool:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a.shape == b.shape and float(np.max(np.abs(a - b))) <= tol


def run_selftest(
    seed: int = 0, trials: int = 50, tol: Tolerances = DEFAULT_TOLERANCES
) -> list[tuple[str, bool, str]]:
    """(name, ok, detail) of every check, each library call made with ``tol``."""
    results: list[tuple[str, bool, str]] = []

    def check(name: str, ok: bool, detail: str = "") -> None:
        results.append((name, bool(ok), detail))

    land = fixtures.truth_or_noise_landscape(0.3)
    report = validate_landscape(land.B, land.Q, tol)
    check("truth-or-noise landscape plausible", report.plausible)
    result = identify(land, tol)
    env = fixtures.truth_or_noise_environment(0.3)
    check(
        "truth-or-noise identification",
        _close(result.structure.entries, env.structure.entries)
        and result.prior.kind == "unique"
        and _close(result.prior.unique_prior.entries, env.prior.entries),
    )

    check(
        "symmetric binary a=b=5/8 consistent",
        consistency_check(fixtures.symmetric_binary_landscape(5 / 8, 5 / 8), tol).consistent,
    )
    check(
        "symmetric binary a=b=9/16 inconsistent",
        not consistency_check(fixtures.symmetric_binary_landscape(9 / 16, 9 / 16), tol).consistent,
    )

    under = identify_underdetermined(fixtures.two_signal_three_state_landscape(), tol)
    check(
        "two-signal/three-state minimum-norm route",
        _close(under.ridge_limit, fixtures.TWO_SIGNAL_THREE_STATE_RIDGE_LIMIT)
        and under.prior.kind == "unique"
        and _close(under.prior.unique_prior.entries, fixtures.TWO_SIGNAL_THREE_STATE_PRIOR)
        and under.restored.structure is not None
        and _close(under.restored.structure, fixtures.TWO_SIGNAL_THREE_STATE_STRUCTURE),
    )

    rng = np.random.default_rng(seed)

    def round_trips(name: str, error_of_a_draw, what: str = "worst error") -> None:
        errors = [error_of_a_draw() for _ in range(trials)]
        worst = max([0.0, *errors])
        check(name, all(e <= 1e-8 for e in errors), f"{what} {worst:.3g} over {trials} trials")

    def gap(a, b) -> float:
        return float(np.max(np.abs(a - b)))

    def draw_environment():
        """2-5 states, at least as many signals, and its landscape."""
        n_states = int(rng.integers(2, 6))
        env = sample_environment(rng, n_states, int(rng.integers(n_states, 9)))
        return env, generate_landscape(env, tol)

    def regression_error() -> float:
        env, land = draw_environment()
        res = identify(land, tol)
        return max(
            gap(res.structure.entries, env.structure.entries),
            gap(res.prior.unique_prior.entries, env.prior.entries),
        )

    def minimum_norm_error() -> float:
        n_states = int(rng.integers(3, 7))
        env = sample_environment(rng, n_states, n_states - 1)
        und = identify_underdetermined(generate_landscape(env, tol), tol)
        return max(und.residual, gap(und.prior.unique_prior.entries, env.prior.entries))

    def signal_priors_gap() -> float:
        env, land = draw_environment()
        sp, reg = signal_priors_identify(land, tol), identify(land, tol)
        return max(
            gap(sp.structure.entries, reg.structure.entries),
            gap(sp.prior.unique_prior.entries, reg.prior.unique_prior.entries),
            gap(sp.marginal.vectors[0], signal_marginal(env).entries),
        )

    round_trips("random regression round trips", regression_error)
    round_trips("random minimum-norm round trips", minimum_norm_error)
    round_trips("signal-priors route agrees with regression", signal_priors_gap, "worst gap")
    return results
