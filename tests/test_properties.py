"""Property tests for invariants of the model, over hypothesis-drawn environments."""

import contextlib
import io
import json

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from beliefscape import (
    DEFAULT_TOLERANCES,
    BeliefLandscape,
    HypotheticalBeliefMatrix,
    InformationalEnvironment,
    InformationStructure,
    Prior,
    RankDeficientError,
    StateBeliefMatrix,
    UnderdeterminedError,
    consistency_check,
    generate_landscape,
    identify,
    identify_structure,
    identify_underdetermined,
    sample_environment,
    signal_priors_identify,
)
from beliefscape.cli import main
from beliefscape.fileio import (
    dumps_report,
    landscape_from_doc,
    landscape_to_doc,
    load_landscape,
    save_landscape,
)


def relabel(landscape: BeliefLandscape, states, signals) -> BeliefLandscape:
    """The same landscape with its states and signals listed in another order."""
    b, q = landscape.B.entries, landscape.Q.entries
    signal_labels = [landscape.signal_labels[s] for s in signals]
    return BeliefLandscape(
        StateBeliefMatrix(
            b[np.ix_(signals, states)],
            state_labels=[landscape.state_labels[i] for i in states],
            signal_labels=signal_labels,
        ),
        HypotheticalBeliefMatrix(q[np.ix_(signals, signals)], signal_labels=signal_labels),
    )


@st.composite
def relabelled_landscapes(draw):
    """A landscape on any route, maybe with Q bumped off the model, and an order."""
    landscape = draw(routed_landscapes())
    if landscape.n_signals > 1 and draw(st.booleans()):
        # Move 1e-3 of mass within the first row of Q: still stochastic, no longer generated.
        q = landscape.Q.entries.copy()
        q[0, :2] += [1e-3, -1e-3]
        landscape = BeliefLandscape(landscape.B, HypotheticalBeliefMatrix(q))
    states = np.array(draw(st.permutations(range(landscape.n_states))))
    signals = np.array(draw(st.permutations(range(landscape.n_signals))))
    return landscape, states, signals


@settings(max_examples=100, deadline=None)
@given(relabelled_landscapes())
def test_relabelling_permutes_the_identification_and_keeps_the_verdict(case):
    landscape, states, signals = case
    relabelled = relabel(landscape, states, signals)
    verdict, relabelled_verdict = consistency_check(landscape), consistency_check(relabelled)
    assert relabelled_verdict.consistent == verdict.consistent
    assert relabelled_verdict.failed == verdict.failed
    if verdict.identification.prior is None:
        assert relabelled_verdict.identification.prior is None
        return
    result, relabelled_result = identify(landscape), identify(relabelled)
    assert relabelled_result.structure.state_labels == tuple(
        result.structure.state_labels[i] for i in states
    )
    np.testing.assert_allclose(
        relabelled_result.structure.entries,
        result.structure.entries[np.ix_(states, signals)],
        rtol=0,
        atol=1e-10,
    )
    assert relabelled_result.prior.kind == result.prior.kind
    np.testing.assert_allclose(
        relabelled_result.prior.representative().entries,
        result.prior.representative().entries[states],
        rtol=0,
        atol=1e-10,
    )


@st.composite
def scarce_landscapes(draw, n_states, free):
    """A generated landscape with ``free`` signals fewer than states, and an order of its states."""
    n = draw(n_states)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    landscape = generate_landscape(sample_environment(rng, n, n - free))
    return landscape, np.array(draw(st.permutations(range(n))))


def check_relabelling_permutes_the_restoration(landscape, states, free, signals=None):
    signals = np.arange(landscape.B.n_signals) if signals is None else signals
    result = identify_underdetermined(landscape)
    relabelled = identify_underdetermined(relabel(landscape, states, signals))
    assert result.null_basis.dimension == relabelled.null_basis.dimension == free
    assert relabelled.restored.kind == result.restored.kind
    assert (relabelled.restored.structure is None) == (result.restored.structure is None)
    if result.restored.structure is not None:
        np.testing.assert_allclose(
            relabelled.restored.structure,
            result.restored.structure[np.ix_(states, signals)],
            rtol=0,
            atol=1e-10,
        )
    assert relabelled.prior.kind == result.prior.kind
    np.testing.assert_allclose(
        relabelled.prior.representative().entries,
        result.prior.representative().entries[states],
        rtol=0,
        atol=1e-10,
    )


@settings(max_examples=100, deadline=None)
@given(scarce_landscapes(st.integers(3, 5), free=1))
def test_relabelling_states_permutes_the_restored_structure(case):
    check_relabelling_permutes_the_restoration(*case, free=1)


def test_relabelling_states_permutes_the_lp_restored_structure():
    # Bayes' rule pins the structure, so no null basis, whose orientation the SVD
    # picks, enters it: with two free directions too, relabelling only permutes it.
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = int(rng.integers(4, 6))
        landscape = generate_landscape(sample_environment(rng, n, n - 2))
        check_relabelling_permutes_the_restoration(landscape, rng.permutation(n), free=2)


@st.composite
def scarce_environments(draw):
    """2-4 signals and 1-2 more states, then maybe a split, and an order of states and signals.

    The environment is well conditioned before the split. Splitting a structure
    column into two proportional ones adds a signal whose belief row equals the
    first one's; copying a structure row onto another makes a split state, whose
    belief column is proportional to the original's.
    """
    n_signals = draw(st.integers(2, 4))
    n_states = n_signals + draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    env = sample_environment(rng, n_states, n_signals, min_mass=0.05)
    assume(np.linalg.cond(generate_landscape(env).B.entries) < 1e3)
    rows = env.structure.entries.copy()
    kind = draw(st.sampled_from(["plain", "equal rows", "split state"]))
    if kind == "equal rows":
        share = draw(st.floats(0.2, 0.8))
        rows = np.column_stack([rows, share * rows[:, 0]])
        rows[:, 0] *= 1.0 - share
    elif kind == "split state":
        rows[1] = rows[0]
    env = InformationalEnvironment(InformationStructure(rows), env.prior)
    landscape = generate_landscape(env)
    states = np.array(draw(st.permutations(range(env.n_states))))
    signals = np.array(draw(st.permutations(range(env.n_signals))))
    return env, landscape, states, signals


@settings(max_examples=100, deadline=None)
@given(scarce_environments())
def test_scarce_signals_recover_the_generating_structure(case):
    env, landscape, _, _ = case
    result = identify_underdetermined(landscape)
    assert result.restored.kind == "unique"
    np.testing.assert_allclose(
        result.restored.structure, env.structure.entries, rtol=0, atol=1e-8
    )


@settings(max_examples=100, deadline=None)
@given(scarce_environments())
def test_relabelling_signals_permutes_the_structure_columns(case):
    env, landscape, states, signals = case
    free = env.n_states - landscape.B.rank()
    check_relabelling_permutes_the_restoration(landscape, states, free, signals)


@settings(max_examples=100, deadline=None)
@given(scarce_environments())
def test_bumped_scarce_hypotheticals_check_inconsistent(tmp_path_factory, case):
    _, landscape, _, _ = case
    # Move 1e-3 of mass within the first row of Q: still stochastic, no longer generated.
    q = landscape.Q.entries.copy()
    q[0, :2] += [1e-3, -1e-3]
    path = str(tmp_path_factory.getbasetemp() / "bumped.json")
    save_landscape(BeliefLandscape(landscape.B, HypotheticalBeliefMatrix(q)), path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["check", path])
    report = json.loads(out.getvalue())
    assert (code, report["verdict"]) == (2, "inconsistent")
    assert report["result"]["route"] == "minimum-norm"


@st.composite
def rounded_edge_landscapes(draw):
    """A landscape near full revelation, structure rows (1 - d)·I + d·Dirichlet(1) for d
    from 1e-9 to 1e-3 at 3 or 4 states, or near uniform, 3×4 rows shrunk toward uniform
    by a spread from 1e-4 to 1e-2; stored to 12 significant digits as files store it."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        n = draw(st.integers(3, 4))
        d = 10 ** draw(st.floats(-9, -3))
        rows = (1 - d) * np.eye(n) + d * rng.dirichlet(np.ones(n), size=n)
        prior = Prior(rng.dirichlet(np.ones(n)))
    else:
        env = sample_environment(rng, 3, 4)
        rows = 0.25 + 10 ** draw(st.floats(-4, -2)) * (env.structure.entries - 0.25)
        prior = env.prior
    landscape = generate_landscape(InformationalEnvironment(InformationStructure(rows), prior))
    return landscape_from_doc(json.loads(dumps_report(landscape_to_doc(landscape))))


@settings(max_examples=100, deadline=None)
@given(rounded_edge_landscapes())
def test_rounded_landscapes_at_either_edge_are_judged_consistent_and_bumps_are_not(landscape):
    # Near full revelation the peer-accuracy matrix A is near I, so A - I is rounding-sized:
    # the eigenvalue-1 rank cutoff must not be relative to that matrix alone.
    assert consistency_check(landscape).consistent
    q = landscape.Q.entries.copy()
    q[0, :2] += [1e-6, -1e-6]
    bumped = BeliefLandscape(landscape.B, HypotheticalBeliefMatrix(q))
    assert not consistency_check(bumped).consistent


@st.composite
def well_conditioned_environments(draw, scarce=False):
    """An interior environment, one signal fewer than states when ``scarce``, and its landscape."""
    n_states = draw(st.integers(2, 5))
    n_signals = n_states - 1 if scarce else draw(st.integers(n_states, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    env = sample_environment(rng, n_states, n_signals, min_mass=0.05)
    landscape = generate_landscape(env)
    assume(np.linalg.cond(landscape.B.entries) < 1e3)
    return env, landscape


def assert_recovers(prior_family, env):
    assert prior_family.kind == "unique"
    np.testing.assert_allclose(
        prior_family.unique_prior.entries, env.prior.entries, rtol=0, atol=1e-8
    )


@settings(max_examples=100, deadline=None)
@given(well_conditioned_environments())
def test_forward_then_inverse_recovers_the_environment(case):
    env, landscape = case
    for route in (identify(landscape), signal_priors_identify(landscape)):
        np.testing.assert_allclose(
            route.structure.entries, env.structure.entries, rtol=0, atol=1e-8
        )
        assert_recovers(route.prior, env)


@settings(max_examples=100, deadline=None)
@given(well_conditioned_environments(scarce=True))
def test_minimum_norm_route_recovers_the_prior(case):
    env, landscape = case
    assert_recovers(identify_underdetermined(landscape).prior, env)


@st.composite
def routed_landscapes(draw):
    """A generated landscape with fewer, as many or more signals than states, or a split state.

    A split state copies one state's structure row onto another, which makes
    their belief columns proportional: enough signals, but dependent columns.
    """
    kind = draw(st.sampled_from(["scarce", "split", "square", "tall"]))
    n_states = draw(st.integers(2, 4))
    fewest, most = {
        "scarce": (1, n_states - 1),
        "split": (n_states, 6),
        "square": (n_states, n_states),
        "tall": (n_states + 1, 6),
    }[kind]
    n_signals = draw(st.integers(fewest, most))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    env = sample_environment(rng, n_states, n_signals, min_mass=0.05)
    if kind == "split":
        rows = env.structure.entries.copy()
        rows[1] = rows[0]
        env = InformationalEnvironment(InformationStructure(rows), env.prior)
    return generate_landscape(env)


@settings(max_examples=100, deadline=None)
@given(routed_landscapes())
def test_check_takes_the_regression_route_exactly_when_it_applies(tmp_path_factory, landscape):
    path = str(tmp_path_factory.getbasetemp() / "routed.json")
    save_landscape(landscape, path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(["check", path])
    route = json.loads(out.getvalue())["result"]["route"]
    stored = load_landscape(path)[0]
    try:
        identify_structure(stored.B, stored.Q)
    except (UnderdeterminedError, RankDeficientError):
        assert route == "minimum-norm"
    else:
        assert route == "regression"


@settings(max_examples=100, deadline=None)
@given(routed_landscapes())
def test_generated_landscapes_are_judged_consistent_by_an_environment_that_regenerates_them(
    landscape,
):
    verdict = consistency_check(landscape)
    assert verdict.consistent
    found = verdict.identification
    structure = found.structure.entries
    assert structure.min() >= 0.0 and structure.max() <= 1.0
    assert np.abs(structure.sum(axis=1) - 1.0).max() <= DEFAULT_TOLERANCES.tol_stochastic
    regenerated = generate_landscape(
        InformationalEnvironment(found.structure, found.prior.representative())
    )
    tol_match = DEFAULT_TOLERANCES.tol_match
    assert np.abs(regenerated.B.entries - landscape.B.entries).max() <= tol_match
    assert np.abs(regenerated.Q.entries - landscape.Q.entries).max() <= tol_match
