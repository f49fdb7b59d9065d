from fractions import Fraction

import numpy as np
import pytest

from beliefscape import (
    DEFAULT_TOLERANCES,
    EigenvalueOneResult,
    RankDeficientError,
    Regularizer,
    least_squares_coefficients,
    min_norm_solution,
    null_space_basis,
    regression_operator,
    ridge_solution_at,
    unit_eigenvector_eigenvalue_one,
)
from beliefscape import fixtures, linalg

from conftest import random_stochastic


class TestLeastSquares:
    def test_all_ones_against_stochastic_columns(self):
        # Rows of a row-stochastic matrix mix to one with unit coefficients.
        b = fixtures.truth_or_noise_landscape(0.5).B.entries
        beta = least_squares_coefficients(b, np.ones(4))
        np.testing.assert_allclose(beta, np.ones(3), atol=1e-12)

    @pytest.mark.parametrize("epsilon", [0.1, 0.5, 0.9])
    def test_reveal_column_regresses_to_its_signal_probabilities(self, epsilon):
        b = fixtures.truth_or_noise_landscape(epsilon).B.entries
        column = np.array([(1 - epsilon) / 3, 1 - epsilon, 0.0, 0.0])
        beta = least_squares_coefficients(b, column)
        np.testing.assert_allclose(beta, [1 - epsilon, 0.0, 0.0], atol=1e-12)

    def test_symmetric_binary_first_basis_vector(self):
        beta = least_squares_coefficients(fixtures.SYMMETRIC_BINARY_BELIEFS, np.array([1.0, 0.0]))
        np.testing.assert_allclose(beta, [-0.5, 1.5], atol=1e-12)

    def test_recovers_planted_coefficients(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            b = random_stochastic(rng, 6, 4)
            x = rng.standard_normal(4)
            np.testing.assert_allclose(
                least_squares_coefficients(b, b @ x), x, atol=1e-8
            )

    def test_rank_deficiency_raises(self):
        with pytest.raises(RankDeficientError):
            least_squares_coefficients(fixtures.SPLIT_STATE_B, np.ones(4))


class TestRegressionOperator:
    def test_truth_or_noise_operator(self):
        op = regression_operator(fixtures.truth_or_noise_landscape(0.5).B.entries)
        expected = np.array(
            [
                [1 / 4, 11 / 12, -1 / 12, -1 / 12],
                [1 / 4, -1 / 12, 11 / 12, -1 / 12],
                [1 / 4, -1 / 12, -1 / 12, 11 / 12],
            ]
        )
        np.testing.assert_allclose(op, expected, atol=1e-12)

    def test_symmetric_binary_operator(self):
        op = regression_operator(fixtures.SYMMETRIC_BINARY_BELIEFS)
        np.testing.assert_allclose(op, [[-0.5, 1.5], [1.5, -0.5]], atol=1e-12)


class TestMinNormSolution:
    def test_two_signal_three_state_value(self):
        x = min_norm_solution(fixtures.TWO_SIGNAL_THREE_STATE_B, fixtures.TWO_SIGNAL_THREE_STATE_Q)
        np.testing.assert_allclose(x, fixtures.TWO_SIGNAL_THREE_STATE_RIDGE_LIMIT, atol=1e-12)

    def test_identity_design_returns_target(self):
        rng = np.random.default_rng(3)
        q = rng.random((4, 4))
        np.testing.assert_allclose(min_norm_solution(np.eye(4), q), q, atol=1e-14)

    def test_recovers_planted_solution_when_unique(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            b = random_stochastic(rng, 5, 3)
            x0 = rng.standard_normal((3, 4))
            np.testing.assert_allclose(min_norm_solution(b, b @ x0), x0, atol=1e-9)

    def test_beats_random_candidates_and_is_orthogonal_to_null(self):
        rng = np.random.default_rng(9)
        b = fixtures.TWO_SIGNAL_THREE_STATE_B
        q = fixtures.TWO_SIGNAL_THREE_STATE_Q
        x = min_norm_solution(b, q)
        fit = np.linalg.norm(b @ x - q)
        for _ in range(100):
            y = rng.standard_normal(x.shape)
            assert fit <= np.linalg.norm(b @ y - q) + 1e-12
        # minimum norm among exact solutions: columns orthogonal to null(B)
        basis = null_space_basis(b).as_matrix(3)
        np.testing.assert_allclose(basis.T @ x, 0.0, atol=1e-12)


def _exact_solve(a, b):
    """Gauss-Jordan elimination on Fraction matrices: a^-1 @ b, exactly."""
    n = len(a)
    rows = [list(ra) + list(rb) for ra, rb in zip(a, b)]
    for c in range(n):
        pivot = next(r for r in range(c, n) if rows[r][c] != 0)
        rows[c], rows[pivot] = rows[pivot], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for r in range(n):
            if r != c:
                rows[r] = [x - rows[r][c] * y for x, y in zip(rows[r], rows[c])]
    return [row[n:] for row in rows]


def _exact_ridge(b, q, lam, reg_diagonal):
    """The ridge solution of the float inputs in exact arithmetic, by the push-through
    identity (BᵀB + λR)⁻¹BᵀQ = R⁻¹Bᵀ(BR⁻¹Bᵀ + λI)⁻¹Q, for a diagonal R."""
    B = [[Fraction(x) for x in row] for row in b.tolist()]
    Q = [[Fraction(x) for x in row] for row in q.tolist()]
    r_inv = [1 / Fraction(d) for d in reg_diagonal]
    n_rows, n_cols = len(B), len(B[0])
    kernel = [
        [sum(B[i][k] * r_inv[k] * B[j][k] for k in range(n_cols)) + Fraction(lam) * (i == j)
         for j in range(n_rows)]
        for i in range(n_rows)
    ]
    y = _exact_solve(kernel, Q)
    return np.array([
        [float(r_inv[k] * sum(B[i][k] * y[i][c] for i in range(n_rows))) for c in range(len(Q[0]))]
        for k in range(n_cols)
    ])


class TestRidgeSolution:
    def test_converges_to_min_norm_with_shrinking_gap(self):
        b = fixtures.TWO_SIGNAL_THREE_STATE_B
        q = fixtures.TWO_SIGNAL_THREE_STATE_Q
        limit = min_norm_solution(b, q)
        gaps = [
            np.max(np.abs(ridge_solution_at(b, q, lam) - limit))
            for lam in (1e-2, 1e-4, 1e-6)
        ]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-4

    def test_gap_at_tiny_lambda_on_all_fixtures(self):
        cases = [
            fixtures.truth_or_noise_landscape(0.5),
            fixtures.symmetric_binary_landscape(9 / 16, 9 / 16),
            fixtures.two_signal_three_state_landscape(),
            fixtures.split_state_landscape(),
            fixtures.coarse_partition_landscape([0.25, 0.25, 0.25, 0.25]),
            fixtures.coarse_partition_landscape([0.25, 1 / 6, 1 / 3, 0.25]),
        ]
        for land in cases:
            b, q = land.B.entries, land.Q.entries
            gap = np.max(np.abs(ridge_solution_at(b, q, 1e-8) - min_norm_solution(b, q)))
            assert gap < 1e-5

    def test_partition_diagonal_regularizer_limit(self):
        p2, p3 = 1 / 6, 1 / 3
        land = fixtures.coarse_partition_landscape([0.25, p2, p3, 0.25])
        reg = np.diag([1.0, 1.0, p3 / p2, 1.0])
        limit = min_norm_solution(land.B.entries, land.Q.entries, reg=reg)
        np.testing.assert_allclose(limit, fixtures.COARSE_PARTITION_STRUCTURE, atol=1e-10)
        at = ridge_solution_at(land.B.entries, land.Q.entries, 1e-9, reg=reg)
        np.testing.assert_allclose(at, limit, atol=1e-6)

    @pytest.mark.parametrize("reg_diagonal", [None, (1.0, 2.0, 0.5)])
    @pytest.mark.parametrize("lam", [1e-4, 1e-6, 1e-8])
    def test_matches_the_exact_ridge_solution(self, lam, reg_diagonal):
        # A normal-equations solve loses cond(BᵀB + λR) ≈ 1/λ digits here (2.3e-9 off at 1e-8).
        b = fixtures.TWO_SIGNAL_THREE_STATE_B
        q = fixtures.TWO_SIGNAL_THREE_STATE_Q
        reg = None if reg_diagonal is None else np.diag(reg_diagonal)
        exact = _exact_ridge(b, q, lam, reg_diagonal or (1.0, 1.0, 1.0))
        np.testing.assert_allclose(ridge_solution_at(b, q, lam, reg=reg), exact, rtol=0, atol=1e-13)

    def test_huge_lambda_shrinks_everything(self):
        b = fixtures.TWO_SIGNAL_THREE_STATE_B
        q = fixtures.TWO_SIGNAL_THREE_STATE_Q
        assert np.max(np.abs(ridge_solution_at(b, q, 1e12))) < 1e-10

    def test_lambda_must_be_positive(self):
        with pytest.raises(ValueError):
            ridge_solution_at(np.eye(2), np.eye(2), 0.0)

    def test_nan_lambda_is_rejected(self):
        with pytest.raises(ValueError, match="positive and finite"):
            ridge_solution_at(np.eye(2), np.eye(2), float("nan"))

    def test_regularizer_validation(self):
        with pytest.raises(ValueError, match="symmetric"):
            Regularizer([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(ValueError, match="positive definite"):
            Regularizer([[1.0, 0.0], [0.0, -2.0]])
        # exactly singular, though eigvalsh puts its smallest eigenvalue a rounding above 0
        with pytest.raises(ValueError, match="positive definite"):
            Regularizer([[1.0, 3.0, 0.0], [3.0, 9.0, 0.0], [0.0, 0.0, 1.0]])
        # inf passes the symmetry and Cholesky tests, nan would fail as "symmetric"
        for bad in (np.inf, -np.inf, np.nan):
            with pytest.raises(ValueError, match="^regularizer contains non-finite entries$"):
                Regularizer(np.diag([1.0, 1.0, bad]))
        with pytest.raises(ValueError, match=r"^regularizer must be square, got shape \(2, 3\)$"):
            Regularizer([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        beliefs = fixtures.two_signal_three_state_landscape().B.entries
        message = r"^column axis: matrix has 3 columns, regularizer has 2$"
        with pytest.raises(ValueError, match=message):
            min_norm_solution(beliefs, np.eye(2), reg=np.eye(2))


@pytest.mark.parametrize("function", [unit_eigenvector_eigenvalue_one])
def test_square_matrix_required(function):
    with pytest.raises(ValueError, match=r"^matrix must be square, got shape \(2, 3\)$"):
        function(np.ones((2, 3)))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_finite_matrix_required(bad):
    # inf once came back as kind "family", and nan as LinAlgError from the SVD
    with pytest.raises(ValueError, match="^matrix contains non-finite entries$"):
        unit_eigenvector_eigenvalue_one([[bad, 0.0], [0.0, 1.0]])


class TestNullSpace:
    def test_two_signal_three_state_direction(self):
        basis = null_space_basis(fixtures.TWO_SIGNAL_THREE_STATE_B)
        assert basis.dimension == 1
        v = basis.vectors[0]
        d = fixtures.TWO_SIGNAL_THREE_STATE_NULL_DIRECTION
        cosine = abs(v @ d) / (np.linalg.norm(v) * np.linalg.norm(d))
        assert cosine >= 1 - 1e-12

    def test_full_rank_has_empty_basis(self):
        basis = null_space_basis(fixtures.SYMMETRIC_BINARY_BELIEFS)
        assert basis.dimension == 0
        assert basis.as_matrix(2).shape == (2, 0)

    def test_split_state_direction(self):
        # Third column is half the first plus half the second, so (1, 1, -2, 0)
        # kills it; verify both the direction and that it really annihilates B.
        direction = np.array([1.0, 1.0, -2.0, 0.0])
        np.testing.assert_allclose(fixtures.SPLIT_STATE_B @ direction, 0.0, atol=1e-12)
        basis = null_space_basis(fixtures.SPLIT_STATE_B)
        assert basis.dimension == 1
        v = basis.vectors[0]
        cosine = abs(v @ direction) / (np.linalg.norm(v) * np.linalg.norm(direction))
        assert cosine >= 1 - 1e-12

    def test_basis_is_orthonormal_and_annihilates(self):
        rng = np.random.default_rng(21)
        b = random_stochastic(rng, 2, 5)
        basis = null_space_basis(b)
        assert basis.dimension == 3
        mat = basis.as_matrix(5)
        np.testing.assert_allclose(mat.T @ mat, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(b @ mat, 0.0, atol=1e-12)


class TestEigenvalueOne:
    def test_accuracy_matrix_fixed_point(self):
        m = fixtures.TWO_SIGNAL_THREE_STATE_ACCURACY
        result = unit_eigenvector_eigenvalue_one(m)
        assert result.kind == "unique"
        np.testing.assert_allclose(result.vectors[0], [0.5, 1 / 6, 1 / 3], atol=1e-12)

    def test_identity_gives_full_family(self):
        result = unit_eigenvector_eigenvalue_one(np.eye(3))
        assert result.kind == "family"
        np.testing.assert_allclose(np.stack(result.vectors), np.eye(3), atol=1e-12)

    def test_split_state_hypotheticals_stationary_vector(self):
        # Independent oracle: dense eigendecomposition of Q^T.
        qt = fixtures.SPLIT_STATE_Q.T
        values, vectors = np.linalg.eig(qt)
        idx = int(np.argmin(np.abs(values - 1.0)))
        oracle = np.real(vectors[:, idx])
        oracle = oracle / oracle.sum()
        result = unit_eigenvector_eigenvalue_one(qt)
        assert result.kind == "unique"
        np.testing.assert_allclose(result.vectors[0], oracle, atol=1e-10)
        np.testing.assert_allclose(result.vectors[0], fixtures.SPLIT_STATE_MARGINAL, atol=1e-12)

    def test_no_eigenvalue_one(self):
        result = unit_eigenvector_eigenvalue_one(0.5 * np.eye(3))
        assert result.kind == "none"

    def test_a_fixed_direction_summing_to_zero_is_no_prior(self):
        # M - I has the one null vector (1, -1)/sqrt(2), which no scaling puts on the simplex.
        assert unit_eigenvector_eigenvalue_one(np.array([[0.0, -1.0], [-1.0, 0.0]])).kind == "none"

    def test_a_closed_class_without_a_fixed_vector_is_skipped(self):
        result = unit_eigenvector_eigenvalue_one(np.diag([1.0, 1.0, 0.5]))
        assert (result.kind, result.classes) == ("family", ((0,), (1,)))
        np.testing.assert_array_equal(np.stack(result.vectors), np.eye(3)[:2])

    def test_no_closed_class_with_a_fixed_vector_is_none(self):
        # A 2-D fixed space whose rays (1, -1, 0, 0) and (0, 0, 1, -1) are not
        # nonnegative, and whose most-fixed direction alone sums to zero.
        matrix = np.kron(np.eye(2), [[0.0, -1.0], [-1.0, 0.0]])
        assert linalg._fixed_vectors(matrix, DEFAULT_TOLERANCES) == ("none", (), ())
        assert unit_eigenvector_eigenvalue_one(matrix) == EigenvalueOneResult("none", (), ())

    def test_members_are_fixed_points_on_the_simplex(self):
        cases = [
            fixtures.TWO_SIGNAL_THREE_STATE_ACCURACY,
            fixtures.TWO_SIGNAL_THREE_STATE_RIDGE_ACCURACY,
            fixtures.SPLIT_STATE_Q.T,
            np.eye(4),
        ]
        for m in cases:
            result = unit_eigenvector_eigenvalue_one(m)
            for member in result.vectors:
                np.testing.assert_allclose(m @ member, member, atol=1e-8)
                assert member.min() >= -1e-9
                assert abs(member.sum() - 1.0) <= 1e-9


