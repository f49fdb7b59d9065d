"""The fast paths against the routes they replaced, which stay here as references.

``forward._bayes`` and ``inverse._bayes_step`` index with their keep or seen
mask only when a signal or a state actually drops, and ``linalg._fixed_vectors``
reads the rank and a unique fixed vector straight from ``np.linalg.svd``. The
references below are the masked formulas and the ``_SVD.null_basis`` route
(with the eigenvalue-1 step's rank cutoff, floored at ``tol_rank``), and the fast
code must give the same floats bit for bit: a matmul's rounding follows its
operands' memory layout, so the layouts must match too. A family of fixed vectors,
the rays of the fixed space, is checked against the route it replaced on exact
block data: one null-basis direction per block.

The typed results are checked the same way against the routes that built them
before the judge became one array kernel: the judge through
``unit_eigenvector_eigenvalue_one``, a ``PriorFamily`` and its representative
into the masked Bayes step, with the route ``_regression_guard`` decides (the
judge's record is compared with it field by field); signal-priors through ``unit_eigenvector_eigenvalue_one``
of Qᵀ; validation row by row; and the dependency reduction's repeated-QR scan
with a regression on the kept columns.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefscape import (
    DEFAULT_TOLERANCES,
    BeliefLandscape,
    ConsistencyVerdict,
    DroppedSignalWarning,
    HypotheticalBeliefMatrix,
    InformationalEnvironment,
    InformationStructure,
    NotConvexDependentError,
    NotModelGeneratedError,
    PlausibilityReport,
    Prior,
    PriorFamily,
    RankDeficientError,
    RestorationResult,
    SignalPriorsResult,
    StateBeliefMatrix,
    Tolerances,
    UnderdeterminedError,
    UnderdeterminedResult,
    Violation,
    consistency_check,
    generate_landscape,
    identify,
    identify_underdetermined,
    rationalize_noncommon,
    reduce_dependencies,
    regression_operator,
    sample_environment,
    signal_priors_identify,
    unit_eigenvector_eigenvalue_one,
    validate_landscape,
)
from beliefscape import core, fixtures, forward, inverse, linalg

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


class FlooredCutoff(Tolerances):
    """Tolerances whose rank cutoff is floored at ``tol_rank``, as the eigenvalue-1 step's is."""

    def rank_cutoff(self, singular_values: np.ndarray) -> float:
        return max(super().rank_cutoff(singular_values), self.tol_rank)


def null_basis_direction(matrix, tol):
    """The first vector of ``_SVD.of(matrix - I).null_basis`` under the floored cutoff,
    scaled to sum 1."""
    floored = FlooredCutoff(**{name: getattr(tol, name) for name in tol._fields})
    basis = linalg._SVD.of(matrix - np.eye(matrix.shape[0])).null_basis(floored)
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
    found = reference_prior(
        landscape.B.entries.T @ landscape.B._svd.solve(landscape.Q.entries, TOL).T,
        landscape.state_labels,
        TOL,
    )
    if found is not None:
        priors.append(found.representative().entries)
    b, q = landscape.B.entries, landscape.Q.entries
    for p in priors:
        fast, reference = inverse._bayes_step(b, q, p, TOL), masked_bayes_step(landscape, p, TOL)
        assert fast[0] == reference[0]
        assert same(fast[1], reference[1])
        assert fast[2] == reference[2]
    assert (env.prior.entries > TOL.tol_entry).all() == (kind != "unseen_state")


def eigenvalue_one_matrices(landscape: BeliefLandscape) -> list[np.ndarray]:
    """The matrices the judge and the signal-priors route take eigenvalue-1 vectors of."""
    x = landscape.B._svd.solve(landscape.Q.entries, TOL)
    return [landscape.B.entries.T @ x.T, landscape.Q.entries.T, landscape.Q.entries]


def components(linked: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """The connected components of a symmetric 0/1 pattern, by smallest member (scipy's)."""
    from scipy.sparse.csgraph import connected_components

    count, labels = connected_components(linked.astype(float), directed=False)
    return tuple(sorted(tuple(np.flatnonzero(labels == k).tolist()) for k in range(count)))


def block_classes(env: InformationalEnvironment, landscape: BeliefLandscape):
    """The state and signal blocks of the environment's exact support, over the landscape's
    signals: the classes of A's and of Q's fixed vectors."""
    support = (env.structure.entries > 0)[:, env.structure.entries.sum(axis=0) > 0]
    assert support.shape == (landscape.n_states, landscape.n_signals)
    signals = components(support.T @ support)
    return [components(support @ support.T), signals, signals]


def per_class_reference(matrix, classes, tol):
    """One ``null_basis_direction`` per class, zero off it: the family route before the
    fixed-space rays, given the classes exactly."""
    vectors = []
    for members in classes:
        idx = list(members)
        _, local = null_basis_direction(matrix[np.ix_(idx, idx)], tol)
        full = np.zeros(matrix.shape[0])
        full[idx] = local
        vectors.append(full)
    return vectors


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_fixed_direction_matches_the_null_basis_route(kind, data):
    env = data.draw(environments(kind))
    landscape = landscape_of(env, data.draw(st.booleans()))
    blocks = block_classes(env, landscape)
    assert (len(blocks[0]) == 2) == (kind == "reducible")
    for matrix, classes in zip(eigenvalue_one_matrices(landscape), blocks, strict=True):
        found_kind, vectors, found_classes = linalg._fixed_vectors(matrix, TOL)
        dimension, direction = null_basis_direction(matrix, TOL)
        assert dimension == len(classes)
        if dimension == 1:
            assert (found_kind, found_classes) == ("unique", ())
            assert same(vectors[0], direction)
        else:
            assert (found_kind, found_classes) == ("family", classes)
            expected = per_class_reference(matrix, classes, TOL)
            np.testing.assert_allclose(np.stack(vectors), np.stack(expected), rtol=0, atol=1e-12)


@st.composite
def block_environments(draw):
    """An environment whose structure is block diagonal, two or three blocks of 1-3 states and
    1-3 signals each, rows and prior Dirichlet(1); and each block's states."""
    shapes = draw(st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), min_size=2, max_size=3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    structure = np.zeros(tuple(map(sum, zip(*shapes))))
    classes, i, j = [], 0, 0
    for n, m in shapes:
        structure[i : i + n, j : j + m] = rng.dirichlet(np.ones(m), size=n)
        classes.append(tuple(range(i, i + n)))
        i, j = i + n, j + m
    prior = Prior(rng.dirichlet(np.ones(i)))
    return InformationalEnvironment(InformationStructure(structure), prior), tuple(classes)


@settings(max_examples=100, deadline=None)
@given(block_environments())
def test_block_environments_are_judged_a_family_of_one_ray_per_block(case):
    env, classes = case
    landscape = generate_landscape(env)
    verdict = consistency_check(landscape)
    prior = verdict.identification.prior
    assert verdict.consistent
    assert (prior.kind, prior.classes) == ("family", classes)
    expected = per_class_reference(eigenvalue_one_matrices(landscape)[0], classes, TOL)
    np.testing.assert_allclose(np.stack(prior.vectors), np.stack(expected), rtol=0, atol=1e-12)


# --------------------------------------------------------------------------
# The typed results against the routes that built them before the array kernel
# --------------------------------------------------------------------------


def reference_prior(accuracy, labels, tol):
    """The prior family read through ``unit_eigenvector_eigenvalue_one``; None without one."""
    eigen = unit_eigenvector_eigenvalue_one(accuracy, tol)
    if eigen.kind == "none":
        return None
    return PriorFamily(eigen.kind, eigen.vectors, eigen.classes, labels)


def reference_judge(landscape, tol):
    """The judge as a chain of typed values: prior family, representative, masked Bayes step;
    in the order of ``inverse._Judgement``'s fields."""
    beliefs = landscape.B
    x = beliefs._svd.solve(landscape.Q.entries, tol)
    accuracy = beliefs.entries.T @ x.T
    prior = reference_prior(accuracy, landscape.state_labels, tol)
    failed, route = [], "minimum-norm"
    try:
        inverse._regression_guard(beliefs, tol, "", landscape.Q.entries, ndim=2)
    except (UnderdeterminedError, RankDeficientError):
        pass  # X's sign counts on the regression route only
    else:
        route = "regression"
        if x.min() < -inverse._sign_floor(beliefs._svd, tol):
            failed.append("nonnegative_structure")
    gaps = (None, None)
    if prior is None or any(v.min() < -tol.tol_entry for v in prior.vectors):
        failed += ["prior", "reproduction"]
    else:
        kind, judged, gaps = masked_bayes_step(landscape, prior.representative().entries, tol)
        if kind == "infeasible":
            failed.append("reproduction")
    if failed:
        kind, judged = "infeasible", None
    return x, accuracy, prior, tuple(failed), kind, judged, gaps, route


def reference_consistency_check(landscape, tol):
    x, accuracy, prior, failed, kind, judged, gaps, _ = reference_judge(landscape, tol)
    if failed:
        shown = inverse._tidy_structure(x, landscape.B._svd, tol)
    else:
        structure = judged.clip(0.0, 1.0)
        shown = structure, True, int(np.count_nonzero(structure != judged)), ()
        accuracy = landscape.B.entries.T @ structure.T
    found = inverse._identification(
        landscape.B, x, landscape.Q.entries, shown, prior, accuracy, gaps, kind
    )
    return ConsistencyVerdict(not failed, failed, found)


def reference_identify(landscape, tol):
    identification = reference_consistency_check(landscape, tol).identification
    if identification.prior is None:
        raise NotModelGeneratedError(inverse._NO_PRIOR)
    return identification


def reference_underdetermined(landscape, tol):
    x, _, prior, _, kind, judged, _, _ = reference_judge(landscape, tol)
    if prior is None:
        raise NotModelGeneratedError(inverse._NO_PRIOR)
    return UnderdeterminedResult(
        ridge_limit=x,
        null_basis=landscape.B._svd.null_basis(tol),
        prior=prior,
        restored=RestorationResult(kind, None if judged is None else judged.clip(0.0, 1.0)),
        residual=float(np.abs(landscape.B.entries @ x - landscape.Q.entries).max()),
        state_labels=landscape.state_labels,
        signal_labels=landscape.signal_labels,
    )


def reference_signal_priors(landscape, tol):
    """Signal-priors through ``unit_eigenvector_eigenvalue_one`` of Qᵀ; supports for any kind,
    and a family's vectors rebuilt from their values on the supports."""
    b = landscape.B.entries
    eigen = unit_eigenvector_eigenvalue_one(landscape.Q.entries.T, tol)
    if eigen.kind == "none":
        raise NotModelGeneratedError(
            "the hypothetical matrix has no stationary signal distribution"
        )
    induced = [b.T @ vector for vector in eigen.vectors]
    supports = tuple(tuple(np.flatnonzero(p > tol.tol_entry).tolist()) for p in induced)
    if eigen.kind == "family":
        vectors = []
        for support, p in zip(supports, induced):
            full = np.zeros(p.size)
            full[list(support)] = p[list(support)]
            vectors.append(full)
        prior = PriorFamily("family", tuple(vectors), supports, landscape.state_labels)
        return SignalPriorsResult(eigen, prior, None)
    marginal, prior_vector = eigen.vectors[0], induced[0]
    prior = PriorFamily("unique", (prior_vector,), (), landscape.state_labels)
    structure = None
    if prior_vector.min() > tol.tol_entry:
        structure = InformationStructure(
            inverse._bayes_structure(b, marginal, prior_vector),
            state_labels=landscape.state_labels,
            signal_labels=landscape.signal_labels,
        )
    return SignalPriorsResult(eigen, prior, structure)


def reference_validate(B, Q, tol):
    """Validation row by row, with no whole-matrix shortcut."""
    violations = core._row_violations(B.entries, B.signal_labels, B.state_labels, "B", tol)
    violations += core._row_violations(Q.entries, Q.signal_labels, Q.signal_labels, "Q", tol)
    zero_columns = np.all(np.abs(B.entries) <= tol.tol_entry, axis=0)
    violations += [
        Violation("zero column", f"B column {B.state_labels[j]}", 0.0)
        for j in np.flatnonzero(zero_columns)
    ]
    return PlausibilityReport(plausible=not violations, violations=tuple(violations))


def equal(a, b) -> bool:
    """Field by field: arrays with ``same``, errors by message, other values with ==."""
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return same(a, b)
    if isinstance(a, Exception):
        return str(a) == str(b)
    if isinstance(a, core._Value):
        return all(equal(getattr(a, name), getattr(b, name)) for name in a._fields)
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(equal(x, y) for x, y in zip(a, b))
    return a == b


def outcome(function, *args):
    """The result, or the error raised (a result may itself be a tuple)."""
    try:
        return function(*args)
    except Exception as exc:  # compared, not swallowed
        return exc


# (the kernel-built entry point, the reference route)
JUDGED = {
    "consistency_check": (consistency_check, reference_consistency_check),
    "identify": (identify, reference_identify),
    "identify_underdetermined": (identify_underdetermined, reference_underdetermined),
    "signal_priors_identify": (signal_priors_identify, reference_signal_priors),
}
LANDSCAPE_KINDS = (*KINDS, "scarce")


@st.composite
def landscapes(draw, kind):
    """The landscape of an environment of ``kind`` ("scarce": more states than signals),
    in either memory layout, and in half the draws with 1e-3 moved within Q's first row."""
    if kind == "scarce":
        n_signals = draw(st.integers(1, 4))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        env = sample_environment(rng, n_signals + draw(st.integers(1, 2)), n_signals)
    else:
        env = draw(environments(kind))
    landscape = landscape_of(env, draw(st.booleans()))
    if landscape.n_signals > 1 and draw(st.booleans()):
        q = np.array(landscape.Q.entries)
        q[0, 0] += 1e-3
        q[0, 1] -= 1e-3
        landscape = BeliefLandscape(
            landscape.B, HypotheticalBeliefMatrix(q, signal_labels=landscape.signal_labels)
        )
    return landscape


@pytest.mark.parametrize("kind", LANDSCAPE_KINDS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_judged_results_match_the_typed_reference_routes(kind, data):
    landscape = data.draw(landscapes(kind))
    for name, (fast, reference) in JUDGED.items():
        got, expected = outcome(fast, landscape, TOL), outcome(reference, landscape, TOL)
        assert equal(got, expected), name


@pytest.mark.parametrize("kind", LANDSCAPE_KINDS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_the_judgement_record_matches_the_typed_reference_judge(kind, data):
    landscape = data.draw(landscapes(kind))
    judgement, expected = inverse._judge(landscape, TOL), reference_judge(landscape, TOL)
    assert len(judgement) == len(expected)
    for name, value in zip(judgement._fields, expected):
        assert equal(getattr(judgement, name), value), name


@pytest.mark.parametrize(
    "landscape, route",
    [
        (fixtures.truth_or_noise_rogue_hypotheticals(), "regression"),  # X's sign fails
        (fixtures.truth_or_noise_landscape(0.5), "regression"),
        (fixtures.two_signal_three_state_landscape(), "minimum-norm"),
        (fixtures.split_state_landscape(), "minimum-norm"),
    ],
    ids=["rogue", "truth_or_noise", "scarce", "split_state"],
)
def test_the_judge_reads_the_rank_of_b_once(landscape, route, monkeypatch):
    calls = []
    rank = linalg._SVD.rank
    monkeypatch.setattr(linalg._SVD, "rank", lambda svd, tol: calls.append(tol) or rank(svd, tol))
    assert inverse._judge(landscape, TOL).route == route
    assert calls == [TOL]


@pytest.mark.parametrize("n_signals", [3, 5, 8])
def test_rationalization_builds_one_labelled_value(n_signals, monkeypatch):
    # The structure is the one labelled value; the per-type priors stay one array.
    env = sample_environment(np.random.default_rng(n_signals), 3, n_signals)
    landscape = generate_landscape(env)
    calls = []
    freeze = core._freeze_labelled

    def counting(value, *args, **kwargs):
        calls.append(type(value).__name__)
        return freeze(value, *args, **kwargs)

    monkeypatch.setattr(core, "_freeze_labelled", counting)
    rationalize_noncommon(landscape)
    assert calls == ["InformationStructure"]


def test_a_two_block_structure_is_a_family_on_both_routes():
    env = sample_environment(np.random.default_rng(5), 4, 4)
    blocks = np.kron(np.eye(2), np.ones((2, 2)))  # states and signals in two groups
    structure = blocks * env.structure.entries
    structure /= structure.sum(axis=1, keepdims=True)
    env = InformationalEnvironment(InformationStructure(structure), env.prior)
    family = generate_landscape(env)
    verdict = consistency_check(family)
    assert verdict.consistent and verdict.identification.prior.kind == "family"
    assert signal_priors_identify(family).kind == "family"
    assert equal(verdict, reference_consistency_check(family, TOL))
    assert equal(signal_priors_identify(family), reference_signal_priors(family, TOL))


@st.composite
def validation_inputs(draw):
    """Landscapes with up to three defects: an entry pushed below zero (past or within
    tol_entry), a row sum moved (past or within tol_stochastic), a column of B zeroed."""
    landscape = draw(landscapes(draw(st.sampled_from(LANDSCAPE_KINDS))))
    b, q = np.array(landscape.B.entries), np.array(landscape.Q.entries)
    for _ in range(draw(st.integers(0, 3))):
        target = draw(st.sampled_from((b, q)))
        i = draw(st.integers(0, target.shape[0] - 1))
        j = draw(st.integers(0, target.shape[1] - 1))
        defect = draw(st.sampled_from(("negative", "row_sum", "zero_column")))
        size = draw(st.sampled_from((0.5, 2.0))) * (
            TOL.tol_stochastic if defect == "row_sum" else TOL.tol_entry
        )
        if defect == "negative":
            target[i, j] = -size
        elif defect == "row_sum":
            target[i, j] += draw(st.sampled_from((size, -size, 0.25)))
        else:
            b[:, j % b.shape[1]] = draw(st.sampled_from((0.0, size, -size)))
    labels = landscape.signal_labels
    return StateBeliefMatrix(b, signal_labels=labels), HypotheticalBeliefMatrix(q, labels)


@settings(max_examples=300, deadline=None)
@given(inputs=validation_inputs())
def test_validation_matches_the_per_row_reference(inputs):
    B, Q = inputs
    assert validate_landscape(B, Q, TOL) == reference_validate(B, Q, TOL)


def reference_reduction_scan(landscape, tol):
    """The kept and removed states and the mixing weights as the repeated-QR scan found them:
    a QR of the candidate columns drops the first one whose |R[j, j]| is at or below B's
    rank cutoff, then the next QR tests the rest; a regression on the kept columns weighs,
    and a weight at or below ``tol_entry`` is zero."""
    b = landscape.B.entries
    n_states = landscape.n_states
    target_rank = landscape.B.rank(tol)
    cutoff = tol.rank_cutoff(landscape.B._svd.s)
    kept = list(range(n_states))
    for _ in range(n_states - target_rank):
        weak = np.abs(np.linalg.qr(b[:, kept], mode="r").diagonal()) <= cutoff
        first = int(np.argmax(weak)) if weak.any() else weak.size
        if first >= target_rank:
            break
        del kept[first]
    kept = kept[:target_rank]
    removed = [j for j in range(n_states) if j not in kept]
    coefficients = regression_operator(b[:, kept], tol) @ b[:, removed]
    for j, w in zip(removed, coefficients.T):
        if w.min() < -tol.tol_entry:
            label = landscape.state_labels[j]
            raise NotConvexDependentError(f"column {label} needs negative weight")
    return tuple(kept), tuple(removed), np.where(coefficients.T > tol.tol_entry, coefficients.T, 0.0)


def dependent_beliefs(rng):
    """Row-normalized beliefs whose columns include up to three nonnegative mixtures of
    well-conditioned base columns, all shuffled: tall, square and wide."""
    n_signals = int(rng.integers(2, 7))
    rank = int(rng.integers(1, n_signals + 1))
    while True:
        base = rng.dirichlet(np.ones(n_signals), size=rank).T
        if np.linalg.cond(base) < 1e3:
            break
    weights = rng.dirichlet(np.ones(rank), size=int(rng.integers(1, 4)))
    weights *= rng.uniform(0.2, 3.0, size=(len(weights), 1))
    weights[rng.random(weights.shape) < 0.2] = 0.0
    columns = np.column_stack([base, base @ weights.T])
    columns = columns[:, rng.permutation(columns.shape[1])]
    return columns / columns.sum(axis=1, keepdims=True)


def test_reduction_matches_the_repeated_qr_scan():
    rng = np.random.default_rng(2024)
    shapes = set()
    reduced = 0
    for _ in range(2000):
        b = dependent_beliefs(rng)
        shapes.add(np.sign(b.shape[1] - b.shape[0]))
        landscape = BeliefLandscape(StateBeliefMatrix(b), HypotheticalBeliefMatrix(np.eye(len(b))))
        expected = outcome(reference_reduction_scan, landscape, TOL)
        got = outcome(reduce_dependencies, landscape, TOL)
        if isinstance(expected, Exception):  # the reference raised: so must the reduction
            assert type(got) is type(expected)
            assert str(got).startswith(str(expected))
            continue
        assert not isinstance(got, Exception), got
        reduced += 1
        kept, removed, weights = expected
        assert (got.kept_states, got.removed_states) == (kept, removed)
        np.testing.assert_allclose(np.array(got.mixing_weights), weights, rtol=0, atol=1e-12)
    assert shapes == {-1, 0, 1} and reduced > 500
