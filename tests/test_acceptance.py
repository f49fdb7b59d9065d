"""Acceptance gate: every exit criterion at its stated tolerance.

Each test function is one criterion; the conftest summary hook prints one
pass/fail line per criterion at the end of the run.
"""

import json
import subprocess
import sys

import numpy as np
import pytest

import beliefscape as bs
from beliefscape import fixtures

from conftest import random_beliefs, random_stochastic

LAMBDAS = tuple(10.0 ** (-k) for k in range(2, 9))


# --------------------------------------------------------------------------
# 1. Exact reproduction of the worked examples (1e-9 unless noted)
# --------------------------------------------------------------------------


def test_criterion_1a_truth_or_noise_regression():
    land = fixtures.truth_or_noise_landscape(0.5)
    operator = bs.regression_operator(land.B.entries)
    expected = np.array(
        [
            [1 / 4, 11 / 12, -1 / 12, -1 / 12],
            [1 / 4, -1 / 12, 11 / 12, -1 / 12],
            [1 / 4, -1 / 12, -1 / 12, 11 / 12],
        ]
    )
    np.testing.assert_allclose(operator, expected, atol=1e-9)
    for epsilon in (0.1, 0.5, 0.9):
        land = fixtures.truth_or_noise_landscape(epsilon)
        null_coeff = bs.least_squares_coefficients(land.B.entries, land.Q.entries[:, 0])
        np.testing.assert_allclose(null_coeff, [epsilon] * 3, atol=1e-9)
        reveal_coeff = bs.least_squares_coefficients(land.B.entries, land.Q.entries[:, 1])
        np.testing.assert_allclose(reveal_coeff, [1 - epsilon, 0.0, 0.0], atol=1e-9)


def test_criterion_1b_symmetric_binary_verdicts():
    operator = bs.regression_operator(fixtures.SYMMETRIC_BINARY_BELIEFS)
    np.testing.assert_allclose(operator, [[-0.5, 1.5], [1.5, -0.5]], atol=1e-9)

    verdict = bs.consistency_check(fixtures.symmetric_binary_landscape(9 / 16, 9 / 16))
    assert not verdict.consistent
    np.testing.assert_allclose(
        verdict.identification.structure.entries,
        [[3 / 8, 5 / 8], [5 / 8, 3 / 8]],
        atol=1e-9,
    )

    verdict = bs.consistency_check(fixtures.symmetric_binary_landscape(5 / 8, 5 / 8))
    assert verdict.consistent
    np.testing.assert_allclose(
        verdict.identification.prior.unique_prior.entries, [0.5, 0.5], atol=1e-9
    )


def test_criterion_1c_noncommon_prior_rationalization():
    rationalization = bs.rationalize_noncommon(
        fixtures.symmetric_binary_landscape(9 / 16, 9 / 16)
    )
    np.testing.assert_allclose(
        rationalization.type_priors[0].entries, [5 / 14, 9 / 14], atol=1e-9
    )
    np.testing.assert_allclose(
        rationalization.type_priors[1].entries, [9 / 14, 5 / 14], atol=1e-9
    )
    assert max(rationalization.belief_residuals) <= 1e-12
    assert max(rationalization.hypothetical_residuals) <= 1e-12


def test_criterion_1d_scarce_signal_identification():
    land = fixtures.two_signal_three_state_landscape()
    result = bs.identify_underdetermined(land)
    np.testing.assert_allclose(
        result.ridge_limit, fixtures.TWO_SIGNAL_THREE_STATE_RIDGE_LIMIT, atol=1e-9
    )
    v = result.null_basis.vectors[0]
    d = fixtures.TWO_SIGNAL_THREE_STATE_NULL_DIRECTION
    cosine = abs(v @ d) / (np.linalg.norm(v) * np.linalg.norm(d))
    assert cosine >= 1 - 1e-10
    np.testing.assert_allclose(
        result.restored.structure, fixtures.TWO_SIGNAL_THREE_STATE_STRUCTURE, atol=1e-9
    )
    np.testing.assert_allclose(
        result.prior.unique_prior.entries, fixtures.TWO_SIGNAL_THREE_STATE_PRIOR, atol=1e-9
    )
    accuracy = bs.peer_accuracy_matrix(
        land.B, bs.InformationStructure(fixtures.TWO_SIGNAL_THREE_STATE_STRUCTURE)
    )
    np.testing.assert_allclose(accuracy, fixtures.TWO_SIGNAL_THREE_STATE_ACCURACY, atol=1e-9)
    ridge_accuracy = land.B.entries.T @ result.ridge_limit.T
    np.testing.assert_allclose(
        ridge_accuracy, fixtures.TWO_SIGNAL_THREE_STATE_RIDGE_ACCURACY, atol=1e-9
    )
    for matrix in (accuracy, ridge_accuracy):
        eigen = bs.unit_eigenvector_eigenvalue_one(matrix)
        assert eigen.kind == "unique"
        np.testing.assert_allclose(
            eigen.vectors[0], fixtures.TWO_SIGNAL_THREE_STATE_PRIOR, atol=1e-9
        )


def test_criterion_1e_split_state_reduction():
    land = fixtures.split_state_landscape()
    reduction = bs.reduce_dependencies(land)
    result = bs.identify(reduction.reduced)
    np.testing.assert_allclose(
        result.structure.entries, fixtures.SPLIT_STATE_REDUCED_STRUCTURE, atol=1e-9
    )
    np.testing.assert_allclose(
        result.prior.unique_prior.entries, fixtures.SPLIT_STATE_REDUCED_PRIOR, atol=1e-9
    )
    structure, prior = reduction.embed(result.structure, result.prior.unique_prior)
    np.testing.assert_allclose(
        structure.entries, fixtures.SPLIT_STATE_EMBEDDED_STRUCTURE, atol=1e-9
    )
    np.testing.assert_allclose(prior.entries, fixtures.SPLIT_STATE_EMBEDDED_PRIOR, atol=1e-9)
    # Forward oracle: the embedded environment regenerates the four-column
    # beliefs; the reduced environment regenerates the untouched hypotheticals
    # (peer predictions condition on the merged states, not the split labels).
    regenerated_beliefs = bs.posterior_matrix(bs.InformationalEnvironment(structure, prior))
    np.testing.assert_allclose(regenerated_beliefs.entries, land.B.entries, atol=1e-9)
    reduced_land = bs.generate_landscape(
        bs.InformationalEnvironment(result.structure, result.prior.unique_prior)
    )
    np.testing.assert_allclose(reduced_land.Q.entries, land.Q.entries, atol=1e-9)
    np.testing.assert_allclose(
        reduced_land.B.entries, fixtures.SPLIT_STATE_REDUCED_B, atol=1e-9
    )


@pytest.mark.parametrize("p2,p3", [(1 / 4, 1 / 4), (1 / 6, 1 / 3)])
def test_criterion_1f_partition_fixture(p2, p3):
    prior = np.array([0.25, p2, p3, 0.75 - p2 - p3])
    land = fixtures.coarse_partition_landscape(prior)
    b, q = land.B.entries, land.Q.entries

    denominator = p2**2 + p3**2
    closed_form_limit = np.array(
        [
            [1.0, 0.0, 0.0],
            [0.0, p2 * (p2 + p3) / denominator, 0.0],
            [0.0, p3 * (p2 + p3) / denominator, 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    np.testing.assert_allclose(bs.min_norm_solution(b, q), closed_form_limit, atol=1e-9)

    # Deviation of the ridge limit from the generating structure: the small-
    # penalty limit of lambda * (B'B + lambda I)^-1 applied to it, which is
    # the null-space projection. Zero exactly when p2 = p3.
    structure = fixtures.COARSE_PARTITION_STRUCTURE
    basis = bs.null_space_basis(b).as_matrix(4)
    deviation = basis @ (basis.T @ structure)
    closed_form_deviation = np.zeros((4, 3))
    closed_form_deviation[1, 1] = p3 * (p3 - p2) / denominator
    closed_form_deviation[2, 1] = p2 * (p2 - p3) / denominator
    np.testing.assert_allclose(deviation, closed_form_deviation, atol=1e-9)
    # the lambda form converges to that projection (solving at tiny lambda is
    # ill-conditioned, so check convergence where the solve is trustworthy)
    for lam, bound in ((1e-4, 1e-3), (1e-6, 1e-5)):
        at_lambda = lam * np.linalg.solve(b.T @ b + lam * np.eye(4), structure)
        np.testing.assert_allclose(at_lambda, deviation, atol=bound)
    if p2 == p3:
        assert np.max(np.abs(deviation)) <= 1e-9
    else:
        assert np.max(np.abs(deviation)) > 1e-3

    reg = np.diag([1.0, 1.0, p3 / p2, 1.0])
    np.testing.assert_allclose(bs.min_norm_solution(b, q, reg=reg), structure, atol=1e-9)

    partition = bs.detect_partitional(land)
    assert partition.partitional
    assert partition.cells == ((0,), (1, 2), (3,))

    family = bs.identify_underdetermined(land).prior
    assert family.kind == "family"
    assert family.classes == ((0,), (1, 2), (3,))
    np.testing.assert_allclose(
        family.vectors[1], [0, p2 / (p2 + p3), p3 / (p2 + p3), 0], atol=1e-9
    )


def test_criterion_1g_rogue_hypotheticals_flagged():
    land = fixtures.truth_or_noise_rogue_hypotheticals()
    result = bs.identify_structure(land.B, land.Q)
    assert not result.consistent_structure
    expected = (
        np.array(
            [
                [25.0, 23.0, -1.0, 1.0],
                [25.0, -1.0, 23.0, 1.0],
                [13.0, 11.0, 11.0, 13.0],
            ]
        )
        / 48.0
    )
    np.testing.assert_allclose(result.structure.entries, expected, atol=1e-12)
    negative_values = sorted(v for _, _, v in result.diagnostics.negative_entries)
    np.testing.assert_allclose(negative_values, [-1 / 48, -1 / 48], atol=1e-12)
    assert "nonnegative_structure" in bs.consistency_check(land).failed


# --------------------------------------------------------------------------
# 2-4. Randomized round trips and cross-method agreement
# --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def generated_suite():
    rng = np.random.default_rng(20240501)
    suite = []
    for _ in range(500):
        n_states = int(rng.integers(2, 6))
        n_signals = int(rng.integers(n_states, 9))
        env = bs.sample_environment(rng, n_states, n_signals)
        suite.append((env, bs.generate_landscape(env)))
    return suite


def test_criterion_2_regression_round_trip(generated_suite):
    for env, land in generated_suite:
        result = bs.identify(land)
        assert result.prior.kind == "unique"
        structure_error = np.max(np.abs(result.structure.entries - env.structure.entries))
        prior_error = np.max(np.abs(result.prior.unique_prior.entries - env.prior.entries))
        assert max(structure_error, prior_error) <= 1e-8


def test_criterion_3_minimum_norm_round_trip():
    rng = np.random.default_rng(20240502)
    for _ in range(200):
        n_states = int(rng.integers(3, 7))
        env = bs.sample_environment(rng, n_states, n_states - 1)
        land = bs.generate_landscape(env)
        result = bs.identify_underdetermined(land)
        assert np.max(np.abs(land.B.entries @ result.ridge_limit - land.Q.entries)) <= 1e-8
        assert result.prior.kind == "unique"
        assert np.max(np.abs(result.prior.unique_prior.entries - env.prior.entries)) <= 1e-8
        basis = result.null_basis.as_matrix(n_states)
        gap = env.structure.entries - result.ridge_limit
        assert np.max(np.abs(gap - basis @ (basis.T @ gap))) <= 1e-8


def test_criterion_4_signal_priors_agreement(generated_suite):
    for env, land in generated_suite:
        sp = bs.signal_priors_identify(land)
        reg = bs.identify(land)
        assert sp.kind == "unique"
        assert np.max(np.abs(sp.structure.entries - reg.structure.entries)) <= 1e-8
        assert (
            np.max(np.abs(sp.prior.unique_prior.entries - reg.prior.unique_prior.entries))
            <= 1e-8
        )
        assert np.max(np.abs(sp.marginal.vectors[0] - bs.signal_marginal(env).entries)) <= 1e-8


# --------------------------------------------------------------------------
# 5. Ridge path converges to the minimum-norm solution
# --------------------------------------------------------------------------


def test_criterion_5_ridge_convergence():
    def gaps(b, q):
        limit = bs.min_norm_solution(b, q)
        return [np.max(np.abs(bs.ridge_solution_at(b, q, lam) - limit)) for lam in LAMBDAS]

    cases = [(fixtures.TWO_SIGNAL_THREE_STATE_B, fixtures.TWO_SIGNAL_THREE_STATE_Q)]
    # The gap at penalty lambda scales like lambda / sigma_min^3, which is
    # unbounded as the belief matrix approaches a further rank deficiency, so
    # random instances are drawn away from that boundary (smallest singular
    # value at least 0.3; the 1e-4 bound needs roughly 0.22).
    rng = np.random.default_rng(20240503)
    while len(cases) < 51:
        n_states = int(rng.integers(3, 7))
        env = bs.sample_environment(rng, n_states, n_states - 1)
        land = bs.generate_landscape(env)
        if np.linalg.svd(land.B.entries, compute_uv=False).min() >= 0.3:
            cases.append((land.B.entries, land.Q.entries))
    for b, q in cases:
        sequence = gaps(b, q)
        assert sequence[LAMBDAS.index(1e-6)] <= 1e-4
        assert all(a > b_ for a, b_ in zip(sequence, sequence[1:]))


# --------------------------------------------------------------------------
# 6. Property suite
# --------------------------------------------------------------------------


def test_criterion_6a_martingale_identity(generated_suite):
    for env, land in generated_suite[:200]:
        marginal = bs.signal_marginal(env).entries
        assert np.max(np.abs(land.B.entries.T @ marginal - env.prior.entries)) <= 1e-8


def test_criterion_6b_regression_output_rows_sum_to_one():
    rng = np.random.default_rng(20240504)
    for _ in range(100):
        n_states = int(rng.integers(2, 5))
        n_signals = int(rng.integers(n_states, 8))
        beliefs = random_beliefs(rng, n_signals, n_states)
        q = random_stochastic(rng, n_signals, n_signals)
        result = bs.identify_structure(beliefs, q)
        assert np.max(np.abs(result.structure.entries.sum(axis=1) - 1.0)) <= 1e-8


def test_criterion_6c_accuracy_columns_are_stochastic(generated_suite):
    for env, land in generated_suite[:200]:
        accuracy = bs.peer_accuracy_matrix(land.B, env.structure)
        assert np.max(np.abs(accuracy.sum(axis=0) - 1.0)) <= 1e-8
        assert np.max(np.abs(accuracy @ env.prior.entries - env.prior.entries)) <= 1e-8


def test_criterion_6d_prior_injectivity():
    rng = np.random.default_rng(20240505)
    beliefs = random_beliefs(rng, 6, 4)
    pairs = 0
    while pairs < 100:
        alpha = rng.dirichlet(np.ones(6))
        beta = rng.dirichlet(np.ones(6))
        p1 = beliefs.entries.T @ alpha
        p2 = beliefs.entries.T @ beta
        if np.max(np.abs(p1 - p2)) < 1e-4:
            continue
        q1 = beliefs.entries @ ((beliefs.entries * alpha[:, None]).T / p1[:, None])
        q2 = beliefs.entries @ ((beliefs.entries * beta[:, None]).T / p2[:, None])
        assert np.max(np.abs(q1 - q2)) > 1e-8
        pairs += 1


def test_criterion_6e_perturbation_fragility():
    rng = np.random.default_rng(20240506)
    flips = 0
    for _ in range(100):
        n_states = int(rng.integers(2, 5))
        n_signals = int(rng.integers(n_states + 1, 9))
        env = bs.sample_environment(rng, n_states, n_signals)
        land = bs.generate_landscape(env)
        bump = rng.standard_normal(land.Q.entries.shape)
        bump -= bump.mean(axis=1, keepdims=True)
        bump *= 1e-3 / np.linalg.norm(bump)
        perturbed = bs.BeliefLandscape(
            land.B,
            bs.HypotheticalBeliefMatrix(
                land.Q.entries + bump, signal_labels=land.signal_labels
            ),
        )
        if not bs.consistency_check(perturbed).consistent:
            flips += 1
    assert flips >= 99


def test_criterion_6f_per_type_priors_reproduce_plausible_landscapes():
    # Plausible pairs whose regression output is a nonnegative structure:
    # built by pushing an arbitrary stochastic matrix through the beliefs.
    rng = np.random.default_rng(20240507)
    for _ in range(100):
        n_states = int(rng.integers(2, 5))
        n_signals = int(rng.integers(n_states, 8))
        beliefs = random_beliefs(rng, n_signals, n_states)
        planted = random_stochastic(rng, n_states, n_signals)
        land = bs.BeliefLandscape(
            beliefs, bs.HypotheticalBeliefMatrix(beliefs.entries @ planted)
        )
        result = bs.identify_structure(land.B, land.Q)
        assert result.consistent_structure  # nonnegative regression output
        rationalization = bs.rationalize_noncommon(land)
        assert max(rationalization.belief_residuals) <= 1e-8
        assert max(rationalization.hypothetical_residuals) <= 1e-8


# --------------------------------------------------------------------------
# 7. CLI contract
# --------------------------------------------------------------------------


def test_criterion_7_cli_contract(tmp_path, capsys):
    from beliefscape.cli import main
    from beliefscape.fileio import dumps_report, save_environment, save_landscape

    a916 = tmp_path / "a916.json"
    env_path = tmp_path / "env.json"
    scarce = tmp_path / "scarce.json"
    save_landscape(fixtures.symmetric_binary_landscape(9 / 16, 9 / 16), str(a916))
    save_environment(fixtures.truth_or_noise_environment(0.5), str(env_path))
    save_landscape(fixtures.two_signal_three_state_landscape(), str(scarce))

    # identify on an unattainable landscape: structure reported, exit 2
    code = main(["identify", str(a916)])
    out1 = capsys.readouterr().out
    assert code == 2
    doc = json.loads(out1)
    assert doc["verdict"] == "inconsistent"
    np.testing.assert_allclose(
        doc["result"]["structure"], [[3 / 8, 5 / 8], [5 / 8, 3 / 8]], atol=1e-9
    )

    # generate | identify - recovers the environment, exit 0
    generate = subprocess.run(
        [sys.executable, "-m", "beliefscape", "generate", str(env_path)],
        capture_output=True,
        text=True,
    )
    assert generate.returncode == 0
    identify = subprocess.run(
        [sys.executable, "-m", "beliefscape", "identify", "-"],
        input=generate.stdout,
        capture_output=True,
        text=True,
    )
    assert identify.returncode == 0
    piped = json.loads(identify.stdout)
    assert piped["verdict"] == "consistent"
    np.testing.assert_allclose(piped["result"]["prior"]["values"], [1 / 3] * 3, atol=1e-9)
    expected_structure = fixtures.truth_or_noise_environment(0.5).structure.entries
    np.testing.assert_allclose(piped["result"]["structure"], expected_structure, atol=1e-9)

    # ridge reports limit, null direction, prior, restored structure, exit 0
    code = main(["ridge", str(scarce)])
    out3 = capsys.readouterr().out
    assert code == 0
    ridge_doc = json.loads(out3)
    result = ridge_doc["result"]
    np.testing.assert_allclose(
        result["ridge_limit"], fixtures.TWO_SIGNAL_THREE_STATE_RIDGE_LIMIT, atol=1e-9
    )
    v = np.array(result["null_basis"][0])
    d = fixtures.TWO_SIGNAL_THREE_STATE_NULL_DIRECTION
    assert abs(v @ d) / (np.linalg.norm(v) * np.linalg.norm(d)) >= 1 - 1e-9
    np.testing.assert_allclose(result["prior"]["values"], [0.5, 1 / 6, 1 / 3], atol=1e-9)
    np.testing.assert_allclose(
        result["restoration"]["structure"],
        fixtures.TWO_SIGNAL_THREE_STATE_STRUCTURE,
        atol=1e-8,
    )

    # byte-stable: rerun and reserialize
    code = main(["identify", str(a916)])
    rerun = capsys.readouterr().out
    assert rerun == out1
    assert dumps_report(json.loads(out1)) == out1
