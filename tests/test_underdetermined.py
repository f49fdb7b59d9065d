import warnings

import numpy as np

from beliefscape import (
    BeliefLandscape,
    HypotheticalBeliefMatrix,
    InformationalEnvironment,
    InformationStructure,
    Prior,
    StateBeliefMatrix,
    generate_landscape,
    identify_underdetermined,
    min_norm_solution,
    null_space_basis,
    sample_environment,
)
from beliefscape import fixtures


class TestTwoSignalThreeState:
    def test_full_identification(self):
        land = fixtures.two_signal_three_state_landscape()
        result = identify_underdetermined(land)
        np.testing.assert_allclose(
            result.ridge_limit, fixtures.TWO_SIGNAL_THREE_STATE_RIDGE_LIMIT, atol=1e-12
        )
        assert result.null_basis.dimension == 1
        v = result.null_basis.vectors[0]
        d = fixtures.TWO_SIGNAL_THREE_STATE_NULL_DIRECTION
        assert abs(v @ d) / (np.linalg.norm(v) * np.linalg.norm(d)) >= 1 - 1e-10
        assert result.prior.kind == "unique"
        np.testing.assert_allclose(
            result.prior.unique_prior.entries, fixtures.TWO_SIGNAL_THREE_STATE_PRIOR, atol=1e-12
        )
        assert result.residual <= 1e-12

    def test_ridge_accuracy_matrix_and_its_fixed_point(self):
        land = fixtures.two_signal_three_state_landscape()
        result = identify_underdetermined(land)
        accuracy = land.B.entries.T @ result.ridge_limit.T
        np.testing.assert_allclose(
            accuracy, fixtures.TWO_SIGNAL_THREE_STATE_RIDGE_ACCURACY, atol=1e-12
        )
        np.testing.assert_allclose(
            accuracy @ fixtures.TWO_SIGNAL_THREE_STATE_PRIOR,
            fixtures.TWO_SIGNAL_THREE_STATE_PRIOR,
            atol=1e-12,
        )

    def test_restoration_reaches_the_generating_structure(self):
        land = fixtures.two_signal_three_state_landscape()
        result = identify_underdetermined(land)
        assert result.restored.kind == "unique"  # Bayes' rule pins it
        np.testing.assert_allclose(
            result.restored.structure, fixtures.TWO_SIGNAL_THREE_STATE_STRUCTURE, atol=1e-9
        )
        restored = result.restored_structure
        assert restored is not None
        regenerated = generate_landscape(
            fixtures.two_signal_three_state_environment()
        )
        np.testing.assert_allclose(regenerated.B.entries, land.B.entries, atol=1e-12)
        np.testing.assert_allclose(regenerated.Q.entries, land.Q.entries, atol=1e-12)


class TestRestoreFeasibility:
    """The stochastic structure ``identify_underdetermined`` settles on."""

    def test_already_stochastic_with_empty_basis(self):
        land = fixtures.symmetric_binary_landscape(5 / 8, 5 / 8)
        result = identify_underdetermined(land)
        assert result.null_basis.dimension == 0
        assert result.restored.kind == "unique"
        np.testing.assert_allclose(
            result.restored.structure, fixtures.SYMMETRIC_BINARY_BELIEFS, atol=1e-12
        )

    def test_nonstochastic_with_empty_basis_is_infeasible(self):
        land = fixtures.symmetric_binary_landscape(0.9, 0.9)
        result = identify_underdetermined(land)
        assert result.null_basis.dimension == 0
        assert result.ridge_limit.min() < 0  # the one exact solution is no structure
        assert result.restored.kind == "infeasible"
        assert result.restored.structure is None
        assert result.restored_structure is None

    def test_partition_restoration_pins_a_unique_point(self):
        p2, p3 = 1 / 6, 1 / 3
        land = fixtures.coarse_partition_landscape([0.25, p2, p3, 0.25])
        result = identify_underdetermined(land)
        assert result.restored.kind == "unique"
        np.testing.assert_allclose(
            result.restored.structure, fixtures.COARSE_PARTITION_STRUCTURE, atol=1e-9
        )

    def test_single_signal_column_is_forced_to_ones(self):
        # With one signal every structure row has a single entry, so the row
        # sums pin the whole matrix.
        land = BeliefLandscape(
            StateBeliefMatrix([[0.2, 0.5, 0.3]]), HypotheticalBeliefMatrix([[1.0]])
        )
        result = identify_underdetermined(land)
        assert result.restored.kind == "unique"
        np.testing.assert_allclose(result.restored.structure, np.ones((3, 1)), atol=1e-9)

    def test_signal_seen_only_in_an_unweighed_state_is_infeasible(self):
        # Q's second column is zero, so the prior puts nothing on th3, the only
        # state signal s2's belief weighs: Q fixes no marginal for s2.
        land = BeliefLandscape(
            StateBeliefMatrix([[0.5, 0.5, 0.0], [0.0, 0.0, 1.0]]),
            HypotheticalBeliefMatrix([[1.0, 0.0], [1.0, 0.0]]),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = identify_underdetermined(land)
        assert result.restored.kind == "infeasible"

    def test_zero_prior_state_has_no_identified_row(self):
        # State th3 has prior zero, so no belief row weighs it and nothing pins its row.
        structure = np.array([[0.7, 0.3], [0.2, 0.8], [0.6, 0.4]])
        env = InformationalEnvironment(InformationStructure(structure), Prior([0.5, 0.5, 0.0]))
        result = identify_underdetermined(generate_landscape(env))
        assert result.restored.kind == "family"
        restored = result.restored.structure
        np.testing.assert_allclose(restored[:2], structure[:2], rtol=0, atol=1e-12)
        np.testing.assert_allclose(restored[2], [0.5, 0.5], rtol=0, atol=0)
        np.testing.assert_allclose(restored.sum(axis=1), 1.0, rtol=0, atol=1e-12)


class TestPartitionFixture:
    def test_identity_regularizer_limit_mixes_the_middle_block(self):
        p2, p3 = 1 / 6, 1 / 3
        land = fixtures.coarse_partition_landscape([0.25, p2, p3, 0.25])
        result = identify_underdetermined(land)
        denominator = p2**2 + p3**2
        expected = np.array(
            [
                [1.0, 0.0, 0.0],
                [0.0, p2 * (p2 + p3) / denominator, 0.0],
                [0.0, p3 * (p2 + p3) / denominator, 0.0],
                [0.0, 0.0, 1.0],
            ]
        )
        np.testing.assert_allclose(result.ridge_limit, expected, atol=1e-12)
        assert np.max(np.abs(result.ridge_limit - fixtures.COARSE_PARTITION_STRUCTURE)) > 0.1
        assert result.residual <= 1e-12  # an exact solution all the same

    def test_prior_family_has_three_classes(self):
        p2, p3 = 1 / 6, 1 / 3
        land = fixtures.coarse_partition_landscape([0.25, p2, p3, 0.25])
        result = identify_underdetermined(land)
        assert result.prior.kind == "family"
        assert result.prior.classes == ((0,), (1, 2), (3,))
        np.testing.assert_allclose(
            result.prior.vectors[1],
            [0, p2 / (p2 + p3), p3 / (p2 + p3), 0],
            atol=1e-12,
        )


class TestRandomRoundTrips:
    def test_prior_survives_the_wrong_structure(self):
        rng = np.random.default_rng(1234)
        for _ in range(60):
            n_states = int(rng.integers(3, 7))
            env = sample_environment(rng, n_states, n_states - 1)
            land = generate_landscape(env)
            result = identify_underdetermined(land)
            assert result.residual <= 1e-8
            assert result.prior.kind == "unique"
            np.testing.assert_allclose(
                result.prior.unique_prior.entries, env.prior.entries, atol=1e-8
            )
            # the true structure differs from the limit only inside null(B)
            v = result.null_basis.as_matrix(n_states)
            gap = env.structure.entries - result.ridge_limit
            np.testing.assert_allclose(gap - v @ (v.T @ gap), 0.0, atol=1e-8)

    def test_any_two_exact_solutions_differ_inside_the_null_space(self):
        rng = np.random.default_rng(4321)
        for _ in range(20):
            env = sample_environment(rng, 4, 3)
            land = generate_landscape(env)
            b = land.B.entries
            basis = null_space_basis(b).as_matrix(4)
            x = min_norm_solution(b, land.Q.entries)
            shift = basis @ rng.standard_normal((basis.shape[1], 3))
            other = x + shift  # still solves exactly
            np.testing.assert_allclose(b @ other, land.Q.entries, atol=1e-10)
            diff = other - x
            np.testing.assert_allclose(diff - basis @ (basis.T @ diff), 0.0, atol=1e-10)
