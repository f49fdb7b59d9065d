"""The unmasked Bayes steps and the one-SVD eigenvalue-1 step against their references.

``forward._bayes`` and ``inverse._bayes_step`` index with their keep or seen
mask only when a signal or a state actually drops, and ``linalg._fixed_direction``
reads the rank and first null vector straight from ``np.linalg.svd``. The
references below are the masked formulas and the ``_SVD.null_basis`` route,
and the fast code must give the same floats bit for bit: a matmul's rounding
follows its operands' memory layout, so the layouts must match too.
"""

from __future__ import annotations

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefscape import (
    DEFAULT_TOLERANCES,
    BeliefLandscape,
    DroppedSignalWarning,
    HypotheticalBeliefMatrix,
    InformationalEnvironment,
    InformationStructure,
    Prior,
    StateBeliefMatrix,
    generate_landscape,
    sample_environment,
    unit_eigenvector_eigenvalue_one,
)
from beliefscape import forward, inverse, linalg

TOL = DEFAULT_TOLERANCES


def masked_bayes(structure, prior, tol):
    """Bayes' rule with the keep mask always applied."""
    joint = prior[:, None] * structure
    marginal = joint.sum(axis=0)
    keep = marginal > tol.tol_entry
    beliefs = joint[:, keep].T / marginal[keep][:, None]
    return keep, beliefs, beliefs @ structure[:, keep]


def masked_bayes_step(landscape, p, tol):
    """Bayes' rule read backwards with the seen mask always applied, judged by ``masked_bayes``."""
    seen = p > tol.tol_entry
    b, q = landscape.B.entries[:, seen], landscape.Q.entries
    gram = (b / p[seen]) @ b.T
    fit = (gram * gram).sum(axis=0)
    weights = np.divide((gram * q).sum(axis=0), fit, out=np.zeros_like(fit), where=fit > 0)
    structure = np.full((landscape.n_states, landscape.n_signals), 1.0 / landscape.n_signals)
    structure[seen] = (b * weights[:, None]).T / p[seen][:, None]
    keep, beliefs, hypotheticals = masked_bayes(structure, p, tol)
    gaps = (float("inf"), float("inf"))
    if keep.all():
        gaps = (
            float(np.abs(beliefs - landscape.B.entries).max()),
            float(np.abs(hypotheticals - landscape.Q.entries).max()),
        )
    if structure.min() < -tol.tol_entry or max(gaps) > tol.tol_match:
        return "infeasible", structure, gaps
    return ("unique" if seen.all() else "family"), structure, gaps


def null_basis_direction(matrix, tol):
    """The first vector of ``_SVD.of(matrix - I).null_basis``, scaled to sum 1."""
    basis = linalg._SVD.of(matrix - np.eye(matrix.shape[0])).null_basis(tol)
    if basis.dimension == 0:
        return 0, None
    vector = basis.vectors[0]
    total = float(vector.sum())
    if abs(total) < 1e-12 * max(1.0, float(np.abs(vector).max())):
        return basis.dimension, None
    return basis.dimension, vector / total


def same(a, b) -> bool:
    """Equal floats, signed zeros and memory layout included."""
    if a is None or b is None:
        return a is None and b is None
    a, b = np.asarray(a), np.asarray(b)
    return (
        np.array_equal(a, b)
        and np.array_equal(np.signbit(a), np.signbit(b))
        and a.flags.c_contiguous == b.flags.c_contiguous
        and a.flags.f_contiguous == b.flags.f_contiguous
    )


KINDS = ("interior", "dropped_signal", "unseen_state", "reducible")


@st.composite
def environments(draw, kind):
    """A sampled environment of ``kind``:
    interior, one signal with zero marginal, one state with zero prior, or a
    block structure (states and signals in two groups) whose Q is reducible."""
    least = 1 if kind == "interior" else 2
    n_states = draw(st.integers(least, 5))
    # two signals in two blocks make Q the identity up to rounding, no longer a family
    n_signals = draw(st.integers(3 if kind == "reducible" else least, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    env = sample_environment(rng, n_states, n_signals)
    structure, prior = env.structure.entries.copy(), env.prior.entries.copy()
    if kind == "dropped_signal":
        structure[:, rng.integers(n_signals)] = 0.0
    elif kind == "unseen_state":
        prior[rng.integers(n_states)] = 0.0
    elif kind == "reducible":
        states = rng.permutation(n_states) < n_states // 2 + n_states % 2
        signals = rng.permutation(n_signals) < n_signals // 2 + n_signals % 2
        structure[states[:, None] != signals[None, :]] = 0.0
    structure /= structure.sum(axis=1, keepdims=True)
    prior /= prior.sum()
    if draw(st.booleans()):
        structure = np.asfortranarray(structure)
    return InformationalEnvironment(InformationStructure(structure), Prior(prior))


def landscape_of(env: InformationalEnvironment, fortran: bool) -> BeliefLandscape:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DroppedSignalWarning)
        landscape = generate_landscape(env)
    if not fortran:
        return landscape
    return BeliefLandscape(
        StateBeliefMatrix(np.asfortranarray(landscape.B.entries)),
        HypotheticalBeliefMatrix(landscape.Q.entries),
    )


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_bayes_matches_the_masked_formula(kind, data):
    env = data.draw(environments(kind))
    structure, prior = env.structure.entries, env.prior.entries
    fast, reference = forward._bayes(structure, prior, TOL), masked_bayes(structure, prior, TOL)
    assert all(same(a, b) for a, b in zip(fast, reference))
    assert reference[0].all() == (kind != "dropped_signal")


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_bayes_step_matches_the_masked_formula(kind, data):
    env = data.draw(environments(kind))
    landscape = landscape_of(env, data.draw(st.booleans()))
    # the generator's prior, and the one the judge reads off the landscape
    priors = [env.prior.entries]
    found = inverse._accuracy_prior(
        landscape.B.entries.T @ landscape.B._svd.solve(landscape.Q.entries, TOL).T,
        landscape.state_labels,
        TOL,
    )
    if found is not None:
        priors.append(found.representative().entries)
    for p in priors:
        fast, reference = inverse._bayes_step(landscape, p, TOL), masked_bayes_step(landscape, p, TOL)
        assert fast[0] == reference[0]
        assert same(fast[1], reference[1])
        assert fast[2] == reference[2]
    assert (env.prior.entries > TOL.tol_entry).all() == (kind != "unseen_state")


def eigenvalue_one_matrices(landscape: BeliefLandscape) -> list[np.ndarray]:
    """The matrices the judge and the signal-priors route take eigenvalue-1 vectors of."""
    x = landscape.B._svd.solve(landscape.Q.entries, TOL)
    return [landscape.B.entries.T @ x.T, landscape.Q.entries.T, landscape.Q.entries]


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_fixed_direction_matches_the_null_basis_route(kind, data):
    env = data.draw(environments(kind))
    landscape = landscape_of(env, data.draw(st.booleans()))
    if kind == "reducible":
        assert unit_eigenvector_eigenvalue_one(landscape.Q.entries.T, TOL).kind == "family"
    for matrix in eigenvalue_one_matrices(landscape):
        fast, reference = linalg._fixed_direction(matrix, TOL), null_basis_direction(matrix, TOL)
        assert fast[0] == reference[0]
        assert same(fast[1], reference[1])
        # and through the family route, which takes one direction per closed class
        lean = unit_eigenvector_eigenvalue_one(matrix, TOL)
        with mock.patch.object(linalg, "_fixed_direction", null_basis_direction):
            expected = unit_eigenvector_eigenvalue_one(matrix, TOL)
        assert (lean.kind, lean.family_classes) == (expected.kind, expected.family_classes)
        assert same(lean.vector, expected.vector)
        assert all(same(a, b) for a, b in zip(lean.family, expected.family, strict=True))
