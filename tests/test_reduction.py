import warnings

import numpy as np
import pytest

from beliefscape import (
    BeliefLandscape,
    HypotheticalBeliefMatrix,
    InformationalEnvironment,
    InformationStructure,
    NotConvexDependentError,
    Prior,
    StateBeliefMatrix,
    StructuralError,
    Tolerances,
    consistency_check,
    generate_landscape,
    identify,
    posterior_matrix,
    reduce_dependencies,
    sample_environment,
)
from beliefscape import fixtures


class TestSplitStateFixture:
    def test_reduction_recovers_the_printed_matrices(self):
        land = fixtures.split_state_landscape()
        reduction = reduce_dependencies(land)
        assert reduction.kept_states == (0, 1, 3)
        assert reduction.removed_states == (2,)
        np.testing.assert_allclose(reduction.mixing_weights[0], [0.5, 0.5, 0.0], atol=1e-12)
        np.testing.assert_allclose(
            reduction.reduced.B.entries, fixtures.SPLIT_STATE_REDUCED_B, atol=1e-12
        )
        assert reduction.reduced.B.state_labels == ("th1", "th2", "th4")

    def test_identification_on_the_reduced_landscape(self):
        land = fixtures.split_state_landscape()
        reduction = reduce_dependencies(land)
        result = identify(reduction.reduced)
        np.testing.assert_allclose(
            result.structure.entries, fixtures.SPLIT_STATE_REDUCED_STRUCTURE, atol=1e-12
        )
        np.testing.assert_allclose(
            result.prior.unique_prior.entries, fixtures.SPLIT_STATE_REDUCED_PRIOR, atol=1e-12
        )

    def test_embedding_back_to_four_states(self):
        land = fixtures.split_state_landscape()
        reduction = reduce_dependencies(land)
        result = identify(reduction.reduced)
        structure, prior = reduction.embed(result.structure, result.prior.unique_prior)
        np.testing.assert_allclose(
            structure.entries, fixtures.SPLIT_STATE_EMBEDDED_STRUCTURE, atol=1e-12
        )
        np.testing.assert_allclose(prior.entries, fixtures.SPLIT_STATE_EMBEDDED_PRIOR, atol=1e-12)
        # the embedded environment reproduces the original beliefs exactly
        regenerated = posterior_matrix(InformationalEnvironment(structure, prior))
        np.testing.assert_allclose(regenerated.entries, land.B.entries, atol=1e-12)
        # and the reduced environment reproduces the untouched hypotheticals
        reduced_env = InformationalEnvironment(result.structure, result.prior.unique_prior)
        reduced_land = generate_landscape(reduced_env)
        np.testing.assert_allclose(reduced_land.Q.entries, land.Q.entries, atol=1e-12)
        np.testing.assert_allclose(
            reduced_land.B.entries, fixtures.SPLIT_STATE_REDUCED_B, atol=1e-12
        )


    def test_embedding_needs_the_reduced_state_count(self):
        reduction = reduce_dependencies(fixtures.split_state_landscape())
        full = fixtures.split_state_embedded_environment()  # four states, not the three kept
        with pytest.raises(StructuralError, match="^state axis: reduced B has 3 states"):
            reduction.embed(full.structure, full.prior)

    @pytest.mark.parametrize(
        "states, signals, message",
        [
            (("p", "q", "r"), ("w", "x", "y", "z"),
             "state axis: reduced B and structure carry different state labels"),
            (("th1", "th2", "th4"), ("w", "x", "y", "z"),
             "signal axis: reduced B and structure carry different signal labels"),
        ],
        ids=["states", "signals"],
    )
    def test_embedding_needs_the_reduced_labels(self, states, signals, message):
        reduction = reduce_dependencies(fixtures.split_state_landscape())
        found = identify(reduction.reduced)
        structure = InformationStructure(found.structure.entries, states, signals)
        prior = Prior(found.prior.unique_prior.entries, states)
        with pytest.raises(StructuralError) as info:
            reduction.embed(structure, prior)
        assert str(info.value) == message


class TestGeneralReduction:
    def test_full_rank_is_a_no_op(self):
        land = fixtures.truth_or_noise_landscape(0.5)
        reduction = reduce_dependencies(land)
        assert reduction.trivial
        assert reduction.removed_states == ()
        assert reduction.reduced is land

    def test_synthetic_split_round_trip(self):
        # Split one of two states with weights (0.3, 0.7): generate from the
        # reduced environment, stretch the beliefs to three columns, and check
        # the whole pipeline puts the pieces back together.
        rng = np.random.default_rng(55)
        weights = np.array([0.3, 0.7])
        for _ in range(10):
            env = sample_environment(rng, 2, 4)
            reduced_land = generate_landscape(env)
            b_kept = reduced_land.B.entries / (1.0 + weights)[None, :]
            b_full = np.column_stack([b_kept, b_kept @ weights])
            land = BeliefLandscape(
                StateBeliefMatrix(b_full, signal_labels=reduced_land.signal_labels),
                reduced_land.Q,
            )
            reduction = reduce_dependencies(land)
            assert reduction.kept_states == (0, 1)
            assert reduction.removed_states == (2,)
            np.testing.assert_allclose(reduction.mixing_weights[0], weights, atol=1e-8)
            result = identify(reduction.reduced)
            np.testing.assert_allclose(
                result.structure.entries, env.structure.entries, atol=1e-8
            )
            np.testing.assert_allclose(
                result.prior.unique_prior.entries, env.prior.entries, atol=1e-8
            )
            structure, prior = reduction.embed(result.structure, result.prior.unique_prior)
            regenerated = posterior_matrix(InformationalEnvironment(structure, prior))
            np.testing.assert_allclose(regenerated.entries, b_full, atol=1e-8)

    def test_dependent_column_before_a_kept_one_on_wide_beliefs(self):
        # Three signals, four states; state th3 splits over th1 and th2, and
        # th4 comes after it. A single unpivoted QR of the 3x4 beliefs has no
        # pivot for th4, so it would keep two states instead of three.
        rng = np.random.default_rng(77)
        weights = np.array([0.4, 0.6, 0.0])
        for _ in range(10):
            env = sample_environment(rng, 3, 3)
            reduced_land = generate_landscape(env)
            b_kept = reduced_land.B.entries / (1.0 + weights)[None, :]
            b_full = np.column_stack([b_kept[:, :2], b_kept @ weights, b_kept[:, 2]])
            land = BeliefLandscape(
                StateBeliefMatrix(b_full, signal_labels=reduced_land.signal_labels),
                reduced_land.Q,
            )
            reduction = reduce_dependencies(land)
            assert reduction.kept_states == (0, 1, 3)
            assert reduction.removed_states == (2,)
            np.testing.assert_allclose(reduction.mixing_weights[0], weights, atol=1e-8)
            result = identify(reduction.reduced)
            structure, prior = reduction.embed(result.structure, result.prior.unique_prior)
            regenerated = posterior_matrix(InformationalEnvironment(structure, prior))
            np.testing.assert_allclose(regenerated.entries, b_full, atol=1e-8)

    def test_dependency_needing_negative_weight_is_rejected(self):
        # Third column is 1.2 * first - 0.2 * second: dependent, but not a
        # nonnegative mixture, so no split-state reading exists.
        c1 = np.array([0.5, 0.25])
        c2 = np.array([0.25, 0.5])
        b = np.column_stack([c1, c2, 1.2 * c1 - 0.2 * c2])
        land = BeliefLandscape(
            StateBeliefMatrix(b), HypotheticalBeliefMatrix(np.eye(2))
        )
        with pytest.raises(NotConvexDependentError, match="negative weight"):
            reduce_dependencies(land)

    def test_dependency_beyond_match_tolerance_is_not_in_the_span(self):
        # Third column is half of each other column plus 1e-4 moved within it: the
        # coarse rank cutoff calls B rank 2, but no mixture of th1 and th2 meets th3.
        c1, c2 = np.array([0.6, 0.3, 0.1]), np.array([0.1, 0.3, 0.6])
        b = np.column_stack([c1, c2, 0.5 * c1 + 0.5 * c2 + [1e-4, -1e-4, 0.0]])
        b /= b.sum(axis=1, keepdims=True)
        land = BeliefLandscape(StateBeliefMatrix(b), HypotheticalBeliefMatrix(np.eye(3)))
        with pytest.raises(NotConvexDependentError, match="not in the span"):
            reduce_dependencies(land, Tolerances(tol_rank=1e-3))

    def test_null_vector_known_too_coarsely_is_not_separable(self):
        # th3 = (th1 + th2) / 2 with th1 and th2 close: B's second singular value sits
        # just above a cutoff of 0.9 of it, so the null vector (1, 1, -2)/sqrt(6) is known
        # only to within 0.9, more than any of its entries: no column can be told to go.
        c1, c2 = np.array([0.5, 0.3, 0.2]), np.array([0.45, 0.33, 0.22])
        b = np.column_stack([c1, c2, 0.5 * c1 + 0.5 * c2])
        b /= b.sum(axis=1, keepdims=True)
        land = BeliefLandscape(StateBeliefMatrix(b), HypotheticalBeliefMatrix(np.eye(3)))
        assert reduce_dependencies(land).removed_states == (2,)
        s = land.B._svd.s
        with pytest.raises(NotConvexDependentError, match="not separable"):
            reduce_dependencies(land, Tolerances(tol_rank=0.9 * s[1] / s[0]))

    def test_multiple_dependent_columns(self):
        rng = np.random.default_rng(66)
        env = sample_environment(rng, 2, 5)
        reduced_land = generate_landscape(env)
        w1 = np.array([0.5, 0.5])
        w2 = np.array([0.25, 0.75])
        scale = 1.0 + w1 + w2
        b_kept = reduced_land.B.entries / scale[None, :]
        b_full = np.column_stack([b_kept, b_kept @ w1, b_kept @ w2])
        land = BeliefLandscape(
            StateBeliefMatrix(b_full, signal_labels=reduced_land.signal_labels),
            reduced_land.Q,
        )
        reduction = reduce_dependencies(land)
        assert reduction.kept_states == (0, 1)
        assert reduction.removed_states == (2, 3)
        np.testing.assert_allclose(reduction.reduced.B.entries, reduced_land.B.entries, atol=1e-8)
        result = identify(reduction.reduced)
        structure, prior = reduction.embed(result.structure, result.prior.unique_prior)
        np.testing.assert_allclose(
            posterior_matrix(InformationalEnvironment(structure, prior)).entries,
            b_full,
            atol=1e-8,
        )


def test_zero_belief_column_embeds_as_an_unseen_state():
    # A prior with a zero entry gives a zero belief column; its mixing weights are
    # all zero, and the embedding gives it prior zero and the uniform row.
    structure = InformationStructure([[0.7, 0.2, 0.1], [0.1, 0.3, 0.6], [0.3, 0.3, 0.4]])
    env = InformationalEnvironment(structure, Prior([0.5, 0.5, 0.0]))
    land = generate_landscape(env)
    assert consistency_check(land).consistent
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reduction = reduce_dependencies(land)
        assert reduction.removed_states == (2,)
        np.testing.assert_array_equal(reduction.mixing_weights[0], [0.0, 0.0])
        result = identify(reduction.reduced)
        embedded, prior = reduction.embed(result.structure, result.prior.unique_prior)
        regenerated = generate_landscape(InformationalEnvironment(embedded, prior))
    assert prior.entries[2] == 0.0
    np.testing.assert_array_equal(embedded.entries[2], np.full(3, 1 / 3))
    np.testing.assert_allclose(regenerated.B.entries, land.B.entries, rtol=0, atol=1e-12)
    np.testing.assert_allclose(regenerated.Q.entries, land.Q.entries, rtol=0, atol=1e-12)


def test_split_state_of_a_zero_prior_state_embeds_with_its_weights():
    # th3 splits from th1 (weight 2/3 on th1, a rounding-sized one on th2, which is
    # set to exactly zero); a reduced prior with no mass on th1 leaves th3 no mass
    # either, and its row is the mixture its weights give: th1's row.
    structure = InformationStructure([[0.7, 0.2, 0.1], [0.1, 0.3, 0.6], [0.7, 0.2, 0.1]])
    land = generate_landscape(InformationalEnvironment(structure, Prior([0.3, 0.5, 0.2])))
    reduction = reduce_dependencies(land)
    assert reduction.removed_states == (2,)
    np.testing.assert_allclose(reduction.mixing_weights[0], [2 / 3, 0.0], rtol=0, atol=1e-12)
    assert reduction.mixing_weights[0][1] == 0.0
    embedded, prior = reduction.embed(InformationStructure(structure.entries[:2]), Prior([0, 1]))
    assert prior.entries[2] == 0.0
    np.testing.assert_array_equal(embedded.entries[2], structure.entries[0])
