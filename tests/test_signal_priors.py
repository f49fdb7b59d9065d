import numpy as np
import pytest

from beliefscape import (
    BeliefLandscape,
    HypotheticalBeliefMatrix,
    InconsistentLandscapeError,
    InformationalEnvironment,
    InformationStructure,
    Prior,
    StateBeliefMatrix,
    consistency_check,
    detect_partitional,
    generate_landscape,
    identify,
    sample_environment,
    signal_marginal,
    signal_priors_identify,
)
from beliefscape import fixtures


class TestSignalPriors:
    def test_split_state_full_landscape(self):
        # The signal-priors route does not need full column rank: on the
        # four-state landscape it lands directly on the embedded environment.
        sp = signal_priors_identify(fixtures.split_state_landscape())
        assert sp.kind == "unique"
        np.testing.assert_allclose(sp.marginal.vectors[0], fixtures.SPLIT_STATE_MARGINAL, atol=1e-12)
        np.testing.assert_allclose(
            sp.prior.unique_prior.entries, fixtures.SPLIT_STATE_EMBEDDED_PRIOR, atol=1e-12
        )
        np.testing.assert_allclose(
            sp.structure.entries, fixtures.SPLIT_STATE_EMBEDDED_STRUCTURE, atol=1e-12
        )

    def test_reduced_split_state_prior(self):
        land = fixtures.split_state_landscape()
        reduced = BeliefLandscape(
            StateBeliefMatrix(
                fixtures.SPLIT_STATE_REDUCED_B,
                state_labels=("th1", "th2", "th4"),
                signal_labels=land.signal_labels,
            ),
            land.Q,
        )
        sp = signal_priors_identify(reduced)
        np.testing.assert_allclose(
            sp.prior.unique_prior.entries, fixtures.SPLIT_STATE_REDUCED_PRIOR, atol=1e-12
        )
        np.testing.assert_allclose(
            sp.structure.entries, fixtures.SPLIT_STATE_REDUCED_STRUCTURE, atol=1e-12
        )

    def test_identity_hypotheticals_leave_signal_weights_free(self):
        land = fixtures.coarse_partition_landscape([0.25, 1 / 6, 1 / 3, 0.25])
        sp = signal_priors_identify(land)
        assert sp.kind == "family"
        assert sp.structure is None
        np.testing.assert_allclose(np.stack(sp.marginal.vectors), np.eye(3), atol=1e-12)
        assert sp.marginal.classes == ((0,), (1,), (2,))  # one signal class per cell
        # the induced priors are exactly the per-cell conditionals
        assert sp.prior.classes == ((0,), (1, 2), (3,))
        np.testing.assert_allclose(sp.prior.vectors[1], [0, 1 / 3, 2 / 3, 0], atol=1e-12)

    def test_partitional_landscapes_are_a_family_despite_rounding_in_q(self):
        # Generation leaves one-ulp noise in Q = I for about a third of the priors;
        # the stationary step must still see two closed classes.
        structure = InformationStructure([[1, 0], [1, 0], [0, 1], [1, 0], [0, 1]])
        rng = np.random.default_rng(0)
        noisy = 0
        for _ in range(60):
            prior = Prior(rng.dirichlet(np.ones(5)))
            land = generate_landscape(InformationalEnvironment(structure, prior))
            noisy += not np.array_equal(land.Q.entries, np.eye(2))
            sp = signal_priors_identify(land)
            assert (sp.kind, sp.prior.classes) == ("family", ((0, 1, 3), (2, 4)))
        assert noisy > 0

    def test_agrees_with_regression_on_generated_landscapes(self):
        rng = np.random.default_rng(314)
        for _ in range(50):
            n_states = int(rng.integers(2, 6))
            n_signals = int(rng.integers(n_states, 9))
            env = sample_environment(rng, n_states, n_signals)
            land = generate_landscape(env)
            sp = signal_priors_identify(land)
            reg = identify(land)
            assert sp.kind == "unique"
            np.testing.assert_allclose(
                sp.structure.entries, reg.structure.entries, atol=1e-8
            )
            np.testing.assert_allclose(
                sp.prior.unique_prior.entries, reg.prior.unique_prior.entries, atol=1e-8
            )
            np.testing.assert_allclose(
                sp.marginal.vectors[0], signal_marginal(env).entries, atol=1e-8
            )


class TestDetectPartitional:
    def test_partition_fixture(self):
        land = fixtures.coarse_partition_landscape([0.25, 1 / 6, 1 / 3, 0.25])
        result = detect_partitional(land)
        assert result.partitional
        assert result.cells == fixtures.COARSE_PARTITION_CELLS
        assert result.zero_prior_states == ()

    def test_noisy_signals_are_not_partitional(self):
        result = detect_partitional(fixtures.truth_or_noise_landscape(0.5))
        assert not result.partitional

    def test_supports_read_off_the_beliefs(self):
        land = BeliefLandscape(
            StateBeliefMatrix([[0.5, 0.5, 0.0], [0.0, 0.0, 1.0]]),
            HypotheticalBeliefMatrix(np.eye(2)),
        )
        result = detect_partitional(land)
        assert result.cells == ((0, 1), (2,))

    def test_states_outside_every_support_carry_prior_zero(self):
        land = BeliefLandscape(
            StateBeliefMatrix([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
            HypotheticalBeliefMatrix(np.eye(2)),
        )
        result = detect_partitional(land)
        assert result.zero_prior_states == (2,)

    def test_overlapping_supports_are_contradictory(self):
        land = BeliefLandscape(
            StateBeliefMatrix([[0.5, 0.5], [0.5, 0.5]]),
            HypotheticalBeliefMatrix(np.eye(2)),
        )
        with pytest.raises(InconsistentLandscapeError):
            detect_partitional(land)

    def test_overlap_is_the_judges_reproduction_failure(self):
        land = BeliefLandscape(
            StateBeliefMatrix([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5]]),
            HypotheticalBeliefMatrix(np.eye(2)),
        )
        assert consistency_check(land).failed == ("reproduction",)
        with pytest.raises(InconsistentLandscapeError, match=r"\(failed: reproduction\)"):
            detect_partitional(land)

    def test_classes_sharing_a_state_are_no_partition(self):
        # 6e-9 of signal s1's belief sits on th4, a state of s2's cell: the judge accepts
        # within tol_match, and th4 falls in both classes
        land = BeliefLandscape(
            StateBeliefMatrix([[0.3 - 6e-9, 0.7, 0.0, 6e-9], [0.0, 0.0, 0.5, 0.5]]),
            HypotheticalBeliefMatrix(np.eye(2)),
        )
        verdict = consistency_check(land)
        assert verdict.consistent and verdict.identification.prior.classes == ((0, 1, 3), (2, 3))
        with pytest.raises(InconsistentLandscapeError, match="not one disjoint class per signal"):
            detect_partitional(land)

    def test_cells_are_the_generating_partition(self):
        """Seeded partitions with zero-prior states and signals out of state order: the
        cells, in signal order, and the zero-prior states are the generator's."""
        rng = np.random.default_rng(1)
        for _ in range(400):
            n_states = int(rng.integers(2, 9))
            order = rng.permutation(n_states)
            n_zero = int(rng.integers(0, n_states - 1))  # at least two states keep a prior
            zero, kept = tuple(sorted(order[:n_zero].tolist())), order[n_zero:]
            n_cells = int(rng.integers(2, kept.size + 1))
            cuts = np.sort(rng.choice(np.arange(1, kept.size), n_cells - 1, replace=False))
            cells = sorted(tuple(sorted(cell.tolist())) for cell in np.split(kept, cuts))
            if rng.random() < 0.5:
                cells.reverse()
            else:
                cells = [cells[i] for i in rng.permutation(n_cells)]
            structure = np.zeros((n_states, n_cells))
            for s, cell in enumerate(cells):
                structure[list(cell), s] = 1.0
            structure[list(zero), 0] = 1.0  # never seen: no belief row carries these states
            prior = rng.dirichlet(np.ones(n_states))
            prior[list(zero)] = 0.0
            prior = Prior(prior / prior.sum())
            land = generate_landscape(InformationalEnvironment(InformationStructure(structure), prior))
            assert consistency_check(land).consistent
            result = detect_partitional(land)
            assert (result.partitional, result.cells, result.zero_prior_states) == (
                True, tuple(cells), zero
            )

    def test_generated_partition_round_trip(self):
        land = generate_landscape(
            fixtures.coarse_partition_environment([0.1, 0.2, 0.3, 0.4])
        )
        result = detect_partitional(land)
        assert result.partitional
        assert result.cells == fixtures.COARSE_PARTITION_CELLS
        # a non-deterministic environment never produces identity hypotheticals
        rng = np.random.default_rng(9)
        noisy = generate_landscape(sample_environment(rng, 3, 4))
        assert not detect_partitional(noisy).partitional
