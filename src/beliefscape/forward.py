"""Forward map: from an informational environment to the belief landscape it generates.

This is the ground-truth oracle every inverse procedure is tested against.
"""

from __future__ import annotations

import warnings

import numpy as np

from .core import (
    DEFAULT_TOLERANCES,
    BeliefLandscape,
    DegenerateEnvironmentError,
    DroppedSignalWarning,
    HypotheticalBeliefMatrix,
    InformationStructure,
    InformationalEnvironment,
    Prior,
    SignalMarginal,
    StateBeliefMatrix,
    Tolerances,
)


def signal_marginal(env: InformationalEnvironment) -> SignalMarginal:
    """Ex-ante probability of each signal: prior-weighted column sums of the structure."""
    marginal = env.structure.entries.T @ env.prior.entries
    return SignalMarginal(marginal, signal_labels=env.signal_labels)


def _bayes(structure: np.ndarray, prior: np.ndarray, tol: Tolerances) -> tuple:
    """Bayes' rule on arrays: (surviving-signal mask, posteriors, peer predictions).

    Survivors have marginal above ``tol_entry``. Builds no objects, emits no warnings.
    The mask indexes only when a signal drops. Unmasked, the operands keep the layout
    ``a[:, mask]`` gives them, since a product's rounding follows its operands' layout.
    """
    joint = prior[:, None] * structure
    marginal = joint.sum(axis=0)
    keep = marginal > tol.tol_entry
    if keep.all():
        beliefs = np.ascontiguousarray(joint.T) / marginal[:, None]
        return keep, beliefs, beliefs @ np.asfortranarray(structure)
    beliefs = joint[:, keep].T / marginal[keep][:, None]
    return keep, beliefs, beliefs @ structure[:, keep]


def _survivor_labels(env: InformationalEnvironment, keep: np.ndarray) -> tuple[str, ...]:
    """Labels of the signals ``_bayes`` kept; warns about dropped ones, raises if none is left."""
    if keep.all():
        return env.signal_labels
    if not keep.any():
        raise DegenerateEnvironmentError("every signal has zero marginal probability")
    dropped = [l for l, k in zip(env.signal_labels, keep) if not k]
    warnings.warn(f"dropped zero-marginal signals: {', '.join(dropped)}", DroppedSignalWarning)
    return tuple(l for l, k in zip(env.signal_labels, keep) if k)


def posterior_matrix(
    env: InformationalEnvironment, tol: Tolerances = DEFAULT_TOLERANCES
) -> StateBeliefMatrix:
    """Posterior over states after each signal, one row per surviving signal.

    Signals with zero marginal probability would give 0/0 rows; they are
    dropped with a warning, shrinking the signal set.
    """
    keep, beliefs, _ = _bayes(env.structure.entries, env.prior.entries, tol)
    labels = _survivor_labels(env, keep)
    return StateBeliefMatrix(beliefs, state_labels=env.state_labels, signal_labels=labels)


def generate_landscape(
    env: InformationalEnvironment, tol: Tolerances = DEFAULT_TOLERANCES
) -> BeliefLandscape:
    """Generate the belief landscape of an environment (posteriors, then peer predictions).

    Zero-marginal signals are dropped from both matrices; their hypothetical
    columns are identically zero anyway.
    """
    keep, beliefs, hypotheticals = _bayes(env.structure.entries, env.prior.entries, tol)
    labels = _survivor_labels(env, keep)
    return BeliefLandscape(
        StateBeliefMatrix(beliefs, state_labels=env.state_labels, signal_labels=labels),
        HypotheticalBeliefMatrix(hypotheticals, signal_labels=labels),
    )


def _interior_simplex_point(rng: np.random.Generator, n: int, min_mass: float) -> np.ndarray:
    # Uniform on the simplex slice {x : x_i >= min_mass}: shift and shrink.
    if n * min_mass >= 1.0:
        raise ValueError(f"cannot put mass {min_mass} on each of {n} cells")
    return min_mass + (1.0 - n * min_mass) * rng.dirichlet(np.ones(n))


def sample_environment(
    rng: np.random.Generator,
    n_states: int,
    n_signals: int,
    min_mass: float = 0.02,
) -> InformationalEnvironment:
    """Random interior environment for round-trip tests.

    The prior and every structure row are drawn uniformly from the simplex
    truncated to entries >= min_mass, keeping samples away from the
    reducible and rank-deficient boundaries.
    """
    prior = _interior_simplex_point(rng, n_states, min_mass)
    rows = np.array([_interior_simplex_point(rng, n_signals, min_mass) for _ in range(n_states)])
    return InformationalEnvironment(InformationStructure(rows), Prior(prior))
