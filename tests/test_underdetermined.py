import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefscape import (
    DEFAULT_TOLERANCES,
    NotInHullError,
    Prior,
    StateBeliefMatrix,
    generate_landscape,
    identify_underdetermined,
    min_norm_solution,
    null_space_basis,
    reconstruct_from_prior,
    restore_feasibility,
    sample_environment,
)
from beliefscape import fixtures
from beliefscape.inverse import _lexmin_point, _restore_general, _restore_one_direction
from beliefscape.linalg import NullSpaceBasis


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
    def test_already_stochastic_with_empty_basis(self):
        structure = fixtures.TWO_SIGNAL_THREE_STATE_STRUCTURE
        result = restore_feasibility(structure, NullSpaceBasis(vectors=(), dimension=0))
        assert result.kind == "unique"
        np.testing.assert_allclose(result.structure, structure, atol=1e-15)

    def test_nonstochastic_with_empty_basis_is_infeasible(self):
        bad = np.array([[1.5, -0.5], [0.5, 0.5]])
        result = restore_feasibility(bad, NullSpaceBasis(vectors=(), dimension=0))
        assert result.kind == "infeasible"

    def test_unfixable_entry_off_the_null_direction(self):
        ridge = np.array([[0.5, 0.5], [-1.0, 2.0]])
        basis = NullSpaceBasis(vectors=(np.array([1.0, 0.0]),), dimension=1)
        result = restore_feasibility(ridge, basis)
        assert result.kind == "infeasible"

    def test_empty_box_in_one_column_is_infeasible(self):
        # Both rows move with the direction: in column 0, row 0 needs a coefficient
        # of at least 0.5 * sqrt(2) and row 1 one of at most 0.1 * sqrt(2).
        direction = np.array([1.0, 1.0]) / np.sqrt(2.0)
        feasible = np.full((2, 2), 0.5)
        assert _restore_one_direction(feasible, direction, 0.0, DEFAULT_TOLERANCES)[0] == "family"
        empty_first_column = np.array([[-0.5, 0.5], [0.9, 0.5]])
        assert _restore_one_direction(
            empty_first_column, direction, 0.0, DEFAULT_TOLERANCES
        ) == ("infeasible", None)

    @pytest.mark.parametrize(
        "total, kind", [(1.25, "unique"), (1.3, "infeasible"), (-1.3, "infeasible")]
    )
    def test_total_outside_the_box_sums_is_infeasible(self, total, kind):
        # Row 1 (0.5 + 0.8 c in [0, 1]) binds: each column's box is [-0.625, 0.625].
        direction = np.array([0.6, 0.8])
        ridge = np.full((2, 2), 0.5)
        assert _restore_one_direction(ridge, direction, total, DEFAULT_TOLERANCES)[0] == kind

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
        b = np.array([[0.2, 0.5, 0.3]])
        q = np.array([[1.0]])
        result = restore_feasibility(min_norm_solution(b, q), null_space_basis(b))
        assert result.kind == "unique"
        np.testing.assert_allclose(result.structure, np.ones((3, 1)), atol=1e-9)

    def test_two_free_directions_solved_by_feasibility_program(self):
        b = np.array([[0.4, 0.3, 0.2, 0.1], [0.1, 0.2, 0.3, 0.4]])
        planted = np.array([[0.5, 0.5], [0.2, 0.8], [0.7, 0.3], [0.4, 0.6]])
        q = b @ planted
        ridge = min_norm_solution(b, q)
        basis = null_space_basis(b)
        assert basis.dimension == 2
        result = restore_feasibility(ridge, basis)
        assert result.kind == "family"
        x = result.structure
        np.testing.assert_allclose(b @ x, q, atol=1e-9)
        assert x.min() >= -1e-9
        np.testing.assert_allclose(x.sum(axis=1), 1.0, atol=1e-9)

    def test_program_agrees_with_the_closed_form_on_one_direction(self):
        # The LP is the route for two or more directions; forced onto one, it
        # must pick the closed form's representative and kind.
        rng = np.random.default_rng(2024)
        for _ in range(200):
            n_states = int(rng.integers(3, 6))
            land = generate_landscape(sample_environment(rng, n_states, n_states - 1))
            ridge = land.B._svd.pinv(DEFAULT_TOLERANCES) @ land.Q.entries
            v = land.B._svd.null_basis(DEFAULT_TOLERANCES).as_matrix(n_states)
            assert v.shape[1] == 1
            totals = v.T @ (1.0 - ridge.sum(axis=1))
            closed = _restore_one_direction(ridge, v[:, 0], float(totals[0]), DEFAULT_TOLERANCES)
            program = _restore_general(ridge, v, totals, DEFAULT_TOLERANCES)
            assert program[0] == closed[0]
            # the LP's box carries tol_entry slack; the closed form's box is exact
            np.testing.assert_allclose(program[1], closed[1], rtol=0, atol=1e-7)


def sequential_point(lo, hi, total, minimal):
    """A box endpoint one coordinate at a time: the reference for the array form."""
    point = np.empty_like(lo)
    remaining = total
    for j in range(lo.size):
        if minimal:
            value = max(lo[j], remaining - hi[j + 1 :].sum())
        else:
            value = min(hi[j], remaining - lo[j + 1 :].sum())
        point[j] = min(max(value, lo[j]), hi[j])
        remaining -= point[j]
    return point


@st.composite
def boxes_with_totals(draw):
    """A box with some zero-width coordinates, and a total at either end of it or inside."""
    n = draw(st.integers(1, 8))
    coordinate = st.floats(-10.0, 10.0, allow_nan=False)
    width = st.one_of(st.just(0.0), st.floats(0.0, 10.0))
    lo = np.array(draw(st.lists(coordinate, min_size=n, max_size=n)))
    hi = lo + np.array(draw(st.lists(width, min_size=n, max_size=n)))
    low, high = lo.sum(), hi.sum()
    inside = st.floats(0.0, 1.0).map(lambda share: low + share * (high - low))
    return lo, hi, draw(st.one_of(st.sampled_from([low, high]), inside))


@settings(max_examples=300, deadline=None)
@given(boxes_with_totals())
def test_box_endpoints_match_the_sequential_reference(case):
    lo, hi, total = case
    # The two forms sum in different orders: allow a few roundings of each term.
    atol = 8 * lo.size * np.finfo(float).eps * (np.abs(lo).sum() + np.abs(hi).sum() + abs(total))
    np.testing.assert_allclose(
        _lexmin_point(lo, hi, total), sequential_point(lo, hi, total, True), rtol=0, atol=atol
    )
    np.testing.assert_allclose(
        -_lexmin_point(-hi, -lo, -total),
        sequential_point(lo, hi, total, False),
        rtol=0,
        atol=atol,
    )


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
        assert [cp.states for cp in result.prior.class_priors] == [(0,), (1, 2), (3,)]
        np.testing.assert_allclose(
            result.prior.class_priors[1].weights,
            [p2 / (p2 + p3), p3 / (p2 + p3)],
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


class TestReconstructFromPrior:
    def test_two_signal_three_state(self):
        structure = reconstruct_from_prior(
            StateBeliefMatrix(fixtures.TWO_SIGNAL_THREE_STATE_B),
            Prior(fixtures.TWO_SIGNAL_THREE_STATE_PRIOR),
        )
        np.testing.assert_allclose(
            structure.entries, fixtures.TWO_SIGNAL_THREE_STATE_STRUCTURE, atol=1e-10
        )

    def test_identity_beliefs(self):
        structure = reconstruct_from_prior(
            StateBeliefMatrix(np.eye(3)), Prior([0.2, 0.3, 0.5])
        )
        np.testing.assert_allclose(structure.entries, np.eye(3), atol=1e-12)

    def test_symmetric_binary_with_even_prior(self):
        structure = reconstruct_from_prior(
            StateBeliefMatrix(fixtures.SYMMETRIC_BINARY_BELIEFS), Prior([0.5, 0.5])
        )
        np.testing.assert_allclose(
            structure.entries, fixtures.SYMMETRIC_BINARY_BELIEFS, atol=1e-12
        )
        # and it regenerates the a = b = 5/8 hypotheticals
        q = fixtures.SYMMETRIC_BINARY_BELIEFS @ structure.entries
        np.testing.assert_allclose(q, [[5 / 8, 3 / 8], [3 / 8, 5 / 8]], atol=1e-12)

    def test_prior_outside_the_belief_hull(self):
        beliefs = StateBeliefMatrix([[0.25, 0.75], [0.3, 0.7]])
        with pytest.raises(NotInHullError):
            reconstruct_from_prior(beliefs, Prior([0.9, 0.1]))

    def test_boundary_prior_rejected(self):
        with pytest.raises(NotInHullError, match="positive mass"):
            reconstruct_from_prior(StateBeliefMatrix(np.eye(2)), Prior([1.0, 0.0]))


def test_reconstruct_from_prior_on_dependent_rows_finds_nonnegative_weights():
    # The third belief row is the mean of the first two. The minimum-norm weights
    # (11/15, -1/15, 1/3) mix the rows into the prior with a negative weight;
    # the nonnegative mixture (0.9, 0.1, 0) exists, and Bayes' rule rebuilds from it.
    beliefs = StateBeliefMatrix([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
    structure = reconstruct_from_prior(beliefs, Prior([0.9, 0.1]))
    np.testing.assert_allclose(structure.entries, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], atol=1e-12)
