import warnings

import numpy as np
import pytest

from beliefscape import (
    DegenerateEnvironmentError,
    DroppedSignalWarning,
    InformationStructure,
    InformationalEnvironment,
    Prior,
    generate_landscape,
    posterior_matrix,
    sample_environment,
    signal_marginal,
    validate_landscape,
)
from beliefscape import fixtures


class TestPosteriorMatrix:
    @pytest.mark.parametrize("epsilon", [0.1, 0.5, 0.9])
    def test_truth_or_noise(self, epsilon):
        env = fixtures.truth_or_noise_environment(epsilon)
        expected = fixtures.truth_or_noise_landscape(epsilon).B.entries
        np.testing.assert_allclose(posterior_matrix(env).entries, expected, atol=1e-12)

    def test_fully_revealing_structure(self):
        env = InformationalEnvironment(InformationStructure(np.eye(3)), Prior([0.2, 0.3, 0.5]))
        np.testing.assert_allclose(posterior_matrix(env).entries, np.eye(3), atol=1e-15)

    def test_split_state_environment_generates_its_beliefs(self):
        env = fixtures.split_state_embedded_environment()
        np.testing.assert_allclose(
            posterior_matrix(env).entries, fixtures.SPLIT_STATE_B, atol=1e-12
        )


    def test_builds_no_hypothetical_matrix(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("posterior_matrix built a hypothetical matrix")

        monkeypatch.setattr("beliefscape.forward.HypotheticalBeliefMatrix", refuse)
        env = fixtures.truth_or_noise_environment(0.5)
        expected = fixtures.truth_or_noise_landscape(0.5).B.entries
        np.testing.assert_allclose(posterior_matrix(env).entries, expected, atol=1e-12)
        structure = InformationStructure([[0.5, 0.5, 0.0], [0.25, 0.75, 0.0]])
        with pytest.warns(DroppedSignalWarning, match="s3"):
            beliefs = posterior_matrix(InformationalEnvironment(structure, Prior([0.5, 0.5])))
        assert beliefs.signal_labels == ("s1", "s2")


class TestSignalMarginal:
    def test_truth_or_noise(self):
        epsilon = 0.4
        env = fixtures.truth_or_noise_environment(epsilon)
        expected = [epsilon] + [(1 - epsilon) / 3] * 3
        np.testing.assert_allclose(signal_marginal(env).entries, expected, atol=1e-12)

    def test_identity_structure_returns_prior(self):
        env = InformationalEnvironment(InformationStructure(np.eye(3)), Prior([0.2, 0.3, 0.5]))
        np.testing.assert_allclose(signal_marginal(env).entries, [0.2, 0.3, 0.5], atol=1e-15)

    def test_split_state_marginal_is_stationary_for_hypotheticals(self):
        env = fixtures.split_state_embedded_environment()
        marginal = signal_marginal(env).entries
        np.testing.assert_allclose(marginal, fixtures.SPLIT_STATE_MARGINAL, atol=1e-12)
        np.testing.assert_allclose(
            fixtures.SPLIT_STATE_Q.T @ marginal, marginal, atol=1e-12
        )


class TestGenerateLandscape:
    def test_matches_closed_form_fixture(self):
        env = fixtures.truth_or_noise_environment(0.25)
        land = generate_landscape(env)
        expected = fixtures.truth_or_noise_landscape(0.25)
        np.testing.assert_allclose(land.B.entries, expected.B.entries, atol=1e-12)
        np.testing.assert_allclose(land.Q.entries, expected.Q.entries, atol=1e-12)

    def test_random_environments_generate_plausible_landscapes(self):
        rng = np.random.default_rng(100)
        for _ in range(500):
            n_states = int(rng.integers(2, 6))
            n_signals = int(rng.integers(2, 9))
            env = sample_environment(rng, n_states, n_signals)
            land = generate_landscape(env)
            assert validate_landscape(land.B, land.Q).plausible

    def test_martingale_and_product_identities(self):
        rng = np.random.default_rng(200)
        for _ in range(100):
            n_states = int(rng.integers(2, 6))
            n_signals = int(rng.integers(2, 9))
            env = sample_environment(rng, n_states, n_signals)
            land = generate_landscape(env)
            marginal = signal_marginal(env).entries
            # marginal-weighted posteriors average back to the prior
            np.testing.assert_allclose(
                land.B.entries.T @ marginal, env.prior.entries, atol=1e-12
            )
            # the hypotheticals are exactly beliefs @ structure
            np.testing.assert_allclose(
                land.Q.entries, land.B.entries @ env.structure.entries, atol=1e-12
            )
            # marginal is stationary for the hypotheticals
            np.testing.assert_allclose(
                land.Q.entries.T @ marginal, marginal, atol=1e-12
            )
            # peer-accuracy columns are distributions
            accuracy = land.B.entries.T @ env.structure.entries.T
            np.testing.assert_allclose(accuracy.sum(axis=0), 1.0, atol=1e-12)
            # and the prior is its fixed point
            np.testing.assert_allclose(
                accuracy @ env.prior.entries, env.prior.entries, atol=1e-12
            )

    def test_zero_marginal_signal_dropped_with_warning(self):
        # Signal s3 is never drawn in any state, so no belief type forms on it.
        structure = InformationStructure(
            [[0.5, 0.5, 0.0], [0.25, 0.75, 0.0], [0.2, 0.8, 0.0]]
        )
        env = InformationalEnvironment(structure, Prior([0.5, 0.3, 0.2]))
        with pytest.warns(DroppedSignalWarning, match="s3"):
            land = generate_landscape(env)
        assert land.signal_labels == ("s1", "s2")
        assert validate_landscape(land.B, land.Q).plausible

    @pytest.mark.filterwarnings("ignore::beliefscape.core.DroppedSignalWarning")
    def test_all_signals_dropped_is_an_error(self):
        structure = InformationStructure([[1.0, 0.0], [1.0, 0.0]])
        env = InformationalEnvironment(structure, Prior([0.0, 1.0]))
        # only signal s1 is ever drawn, but it is drawn from a zero-prior state
        env2 = InformationalEnvironment(
            InformationStructure([[0.0, 1.0], [0.0, 1.0]]), Prior([1.0, 0.0])
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(DegenerateEnvironmentError):
                generate_landscape(
                    InformationalEnvironment(
                        InformationStructure([[1.0, 0.0], [1.0, 0.0]]),
                        Prior([0.0, 0.0]),
                    )
                )
        land = generate_landscape(env)
        assert land.signal_labels == ("s1",)
        land2 = generate_landscape(env2)
        assert land2.signal_labels == ("s2",)


class TestSampler:
    def test_samples_are_interior(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            env = sample_environment(rng, 4, 6)
            assert env.prior.entries.min() >= 0.02
            assert env.structure.entries.min() >= 0.02
            np.testing.assert_allclose(env.prior.entries.sum(), 1.0, atol=1e-12)
            np.testing.assert_allclose(env.structure.entries.sum(axis=1), 1.0, atol=1e-12)

    def test_infeasible_mass_rejected(self):
        rng = np.random.default_rng(7)
        with pytest.raises(ValueError):
            sample_environment(rng, 60, 2)
