import importlib
import json
import warnings

import numpy as np
import pytest

from beliefscape import (
    BeliefLandscape,
    DEFAULT_TOLERANCES,
    HypotheticalBeliefMatrix,
    InformationalEnvironment,
    InformationStructure,
    NotModelGeneratedError,
    Prior,
    RankDeficientError,
    StateBeliefMatrix,
    StructuralError,
    StructureSupportError,
    UnderdeterminedError,
    consistency_check,
    generate_landscape,
    identify,
    identify_single_column,
    identify_structure,
    identify_underdetermined,
    infer_state,
    peer_accuracy_matrix,
    rationalize_noncommon,
    sample_environment,
    signal_priors_identify,
    unit_eigenvector_eigenvalue_one,
)
from beliefscape import fixtures, inverse, linalg
from beliefscape.fileio import dumps_report, landscape_from_doc, landscape_to_doc

from conftest import random_beliefs, random_stochastic, zero_belief_row_landscape


def test_identify_names_only_the_function():
    # The inverse procedures live in beliefscape.inverse; no submodule shadows the function.
    assert identify is inverse.identify
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("beliefscape.identify")


class TestIdentifyStructure:
    @pytest.mark.parametrize("epsilon", [0.1, 0.5, 0.9])
    def test_truth_or_noise_columns(self, epsilon):
        land = fixtures.truth_or_noise_landscape(epsilon)
        result = identify_structure(land.B, land.Q)
        assert result.consistent_structure
        expected = fixtures.truth_or_noise_environment(epsilon).structure.entries
        np.testing.assert_allclose(result.structure.entries, expected, atol=1e-12)

    def test_symmetric_binary_structure_valid_but_not_generated(self):
        land = fixtures.symmetric_binary_landscape(9 / 16, 9 / 16)
        result = identify_structure(land.B, land.Q)
        np.testing.assert_allclose(
            result.structure.entries, [[3 / 8, 5 / 8], [5 / 8, 3 / 8]], atol=1e-12
        )
        assert result.consistent_structure  # a perfectly valid structure on its own
        assert not consistency_check(land).consistent  # yet nothing generates (B, Q)

    def test_rogue_hypotheticals_keep_their_negative_output(self):
        land = fixtures.truth_or_noise_rogue_hypotheticals()
        result = identify_structure(land.B, land.Q)
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
        assert result.diagnostics.negative_entries
        values = sorted(v for _, _, v in result.diagnostics.negative_entries)
        np.testing.assert_allclose(values, [-1 / 48, -1 / 48], atol=1e-12)

    def test_rows_sum_to_one_even_for_arbitrary_hypotheticals(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            beliefs = random_beliefs(rng, 5, 3)
            q = random_stochastic(rng, 5, 5)
            result = identify_structure(beliefs, q)
            np.testing.assert_allclose(
                result.structure.entries.sum(axis=1), 1.0, atol=1e-9
            )

    def test_underdetermined_input_rejected(self):
        land = fixtures.two_signal_three_state_landscape()
        with pytest.raises(UnderdeterminedError):
            identify_structure(land.B, land.Q)

    def test_the_band_for_x_is_tol_entry_plus_the_rounding_b_pseudoinverse_carries(self):
        tol = DEFAULT_TOLERANCES
        near_singular = [[0.5005, 0.4995], [0.4995, 0.5005]]  # σ_min = 1e-3
        for b in (near_singular, fixtures.split_state_landscape().B.entries):  # full rank, rank 3 of 4
            s = np.linalg.svd(b, compute_uv=False)
            sigma_r = s[s > tol.tol_rank * s[0]][-1]  # smallest above the rank cutoff
            band = inverse._sign_floor(StateBeliefMatrix(b)._svd, tol)
            assert band == pytest.approx(tol.tol_entry + 1e-11 / sigma_r, rel=1e-12)
        assert inverse._sign_floor(linalg._SVD.of(np.zeros((2, 2))), tol) == tol.tol_entry

    def test_entries_inside_the_band_are_clipped_and_past_it_flagged(self):
        # σ_min(B) = 1e-3: the band is 1e-9 + 1e-8 = 1.1e-8
        svd, tol = StateBeliefMatrix([[0.5005, 0.4995], [0.4995, 0.5005]])._svd, DEFAULT_TOLERANCES
        inside = np.array([[1.0 + 5e-9, 0.0], [0.25, 0.75]])  # past 1 + tol_entry
        structure, valid, n_clipped, negative = inverse._tidy_structure(inside, svd, tol)
        assert (valid, n_clipped, negative) == (True, 1, ())
        np.testing.assert_array_equal(structure, [[1.0, 0.0], [0.25, 0.75]])
        past = np.array([[1.0 + 2e-8, -2e-8], [0.25, 0.75]])
        structure, valid, n_clipped, negative = inverse._tidy_structure(past, svd, tol)
        assert (valid, n_clipped, negative) == (False, 0, ((0, 1, -2e-8),))
        assert structure is past


def prior_of(beliefs: StateBeliefMatrix, structure: InformationStructure):
    """The eigenvalue-1 vectors of the peer-accuracy matrix of a given structure."""
    return unit_eigenvector_eigenvalue_one(peer_accuracy_matrix(beliefs, structure))


class TestIdentifyPrior:
    def test_two_signal_three_state_unique(self):
        beliefs = StateBeliefMatrix(fixtures.TWO_SIGNAL_THREE_STATE_B)
        structure = InformationStructure(fixtures.TWO_SIGNAL_THREE_STATE_STRUCTURE)
        family = prior_of(beliefs, structure)
        assert family.kind == "unique"
        np.testing.assert_allclose(
            family.vectors[0], fixtures.TWO_SIGNAL_THREE_STATE_PRIOR, atol=1e-12
        )

    def test_partition_fixture_gives_class_family(self):
        p2, p3 = 1 / 6, 1 / 3
        land = fixtures.coarse_partition_landscape([0.25, p2, p3, 0.25])
        family = prior_of(land.B, InformationStructure(fixtures.COARSE_PARTITION_STRUCTURE))
        assert family.kind == "family"
        assert family.classes == ((0,), (1, 2), (3,))
        np.testing.assert_allclose(
            family.vectors[1], [0, p2 / (p2 + p3), p3 / (p2 + p3), 0], atol=1e-12
        )

    def test_fully_revealing_identity_pair_leaves_every_state_its_own_class(self):
        beliefs = StateBeliefMatrix(np.eye(3))
        structure = InformationStructure(np.eye(3))
        family = prior_of(beliefs, structure)
        assert family.kind == "family"
        members = np.stack(family.vectors)
        np.testing.assert_allclose(members, np.eye(3), atol=1e-12)


class TestIdentify:
    def test_truth_or_noise_environment_recovered(self):
        land = fixtures.truth_or_noise_landscape(0.5)
        result = identify(land)
        env = fixtures.truth_or_noise_environment(0.5)
        np.testing.assert_allclose(result.structure.entries, env.structure.entries, atol=1e-12)
        assert result.prior.kind == "unique"
        np.testing.assert_allclose(result.prior.unique_prior.entries, env.prior.entries, atol=1e-12)
        assert result.diagnostics.roundtrip_belief_error < 1e-12
        assert result.diagnostics.roundtrip_hypothetical_error < 1e-12

    def test_symmetric_binary_five_eighths(self):
        land = fixtures.symmetric_binary_landscape(5 / 8, 5 / 8)
        result = identify(land)
        np.testing.assert_allclose(
            result.structure.entries, fixtures.SYMMETRIC_BINARY_BELIEFS, atol=1e-12
        )
        np.testing.assert_allclose(result.prior.unique_prior.entries, [0.5, 0.5], atol=1e-12)

    def test_random_round_trip(self):
        rng = np.random.default_rng(500)
        for _ in range(50):
            n_states = int(rng.integers(2, 6))
            n_signals = int(rng.integers(n_states, 9))
            env = sample_environment(rng, n_states, n_signals)
            result = identify(generate_landscape(env))
            np.testing.assert_allclose(
                result.structure.entries, env.structure.entries, atol=1e-8
            )
            assert result.prior.kind == "unique"
            np.testing.assert_allclose(
                result.prior.unique_prior.entries, env.prior.entries, atol=1e-8
            )


class TestRoundTripErrors:
    @pytest.mark.parametrize("dead", [[1], [0, 1]], ids=["one_dropped", "none_survive"])
    def test_dropped_signal_reads_as_infinite_error(self, dead):
        # The regeneration drops every signal whose structure column is all zero.
        landscape = fixtures.symmetric_binary_landscape(5 / 8, 5 / 8)
        entries = np.array([[0.625, 0.375], [0.375, 0.625]])
        entries[:, dead] = 0.0
        errors = inverse._roundtrip_errors(
            landscape.B.entries, landscape.Q.entries, entries, np.array([0.5, 0.5]),
            DEFAULT_TOLERANCES,
        )
        assert errors == (float("inf"), float("inf"))

    def test_programming_error_propagates(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("not a library error")

        monkeypatch.setattr(inverse, "_bayes", broken)
        with pytest.raises(TypeError, match="not a library error"):
            identify(fixtures.symmetric_binary_landscape(5 / 8, 5 / 8))

    def test_round_trip_leaves_the_warning_filters_alone(self, monkeypatch):
        # catch_warnings swaps process-global state; a pure check never enters it.
        def forbidden(*args, **kwargs):
            raise AssertionError("warnings.catch_warnings entered")

        landscape = fixtures.symmetric_binary_landscape(5 / 8, 5 / 8)
        with monkeypatch.context() as patch:  # undone before pytest's own catch_warnings
            patch.setattr(warnings, "catch_warnings", forbidden)
            verdict = consistency_check(landscape)
            diagnostics = identify(landscape).diagnostics
        assert verdict.consistent
        assert diagnostics.roundtrip_belief_error < 1e-12


class TestConsistencyCheck:
    def test_five_eighths_consistent(self):
        verdict = consistency_check(fixtures.symmetric_binary_landscape(5 / 8, 5 / 8))
        assert verdict.consistent
        assert verdict.failed == ()

    def test_nine_sixteenths_fails_reproduction(self):
        verdict = consistency_check(fixtures.symmetric_binary_landscape(9 / 16, 9 / 16))
        assert not verdict.consistent
        assert verdict.failed == ("reproduction",)

    def test_rogue_hypotheticals_fail_nonnegativity(self):
        verdict = consistency_check(fixtures.truth_or_noise_rogue_hypotheticals())
        assert not verdict.consistent
        assert "nonnegative_structure" in verdict.failed

    def test_scarce_input_gets_the_verdict_of_identify_underdetermined(self):
        land = fixtures.two_signal_three_state_landscape()
        moved = BeliefLandscape(land.B, HypotheticalBeliefMatrix([[0.9, 0.1], [0.1, 0.9]]))
        verdicts = []
        for landscape in (land, moved):
            verdict = consistency_check(landscape)
            kind = identify_underdetermined(landscape).restored.kind
            assert verdict.consistent == (kind != "infeasible")
            verdicts.append(verdict.failed)
        assert verdicts == [(), ("reproduction",)]

    @pytest.mark.parametrize("spread", [1e-2, 1e-3, 1e-4])
    def test_weak_landscapes_survive_their_own_rounding(self, spread):
        # Structure rows shrunk toward uniform give cond(B) near 2e3, 2e4 and 2e5;
        # stored to 12 digits, each is still judged consistent, while 1e-6 of
        # mass moved within a row of Q is not.
        rng = np.random.default_rng(0)
        false_alarms = rejected = 0
        for _ in range(100):
            env = sample_environment(rng, 3, 4)
            rows = 0.25 + spread * (env.structure.entries - 0.25)
            weak = InformationalEnvironment(InformationStructure(rows), env.prior)
            land = generate_landscape(weak)
            land = landscape_from_doc(json.loads(dumps_report(landscape_to_doc(land))))
            false_alarms += not consistency_check(land).consistent
            q = land.Q.entries.copy()
            q[0, :2] += [1e-6, -1e-6]
            moved = BeliefLandscape(land.B, HypotheticalBeliefMatrix(q))
            rejected += not consistency_check(moved).consistent
        assert (false_alarms, rejected) == (0, 100)

    def test_fully_revealing_landscape_with_rounding_noise_is_consistent(self):
        # B = I: A - I is Q's noise alone, up to 1e-15, which must not count as rank.
        rng = np.random.default_rng(2)
        for _ in range(50):
            q = np.eye(3) + rng.uniform(0.0, 1e-15, (3, 3))
            q /= q.sum(axis=1, keepdims=True)
            verdict = consistency_check(
                BeliefLandscape(StateBeliefMatrix(np.eye(3)), HypotheticalBeliefMatrix(q))
            )
            assert verdict.consistent
            assert verdict.identification.prior.classes == ((0,), (1,), (2,))

    def test_perturbed_hypotheticals_flip_to_inconsistent(self):
        rng = np.random.default_rng(321)
        flips = 0
        trials = 40
        for _ in range(trials):
            n_states = int(rng.integers(2, 5))
            n_signals = int(rng.integers(n_states + 1, 9))
            env = sample_environment(rng, n_states, n_signals)
            land = generate_landscape(env)
            bump = rng.standard_normal(land.Q.entries.shape)
            bump -= bump.mean(axis=1, keepdims=True)  # keep rows summing to 1
            bump *= 1e-3 / np.linalg.norm(bump)
            perturbed = BeliefLandscape(
                land.B,
                HypotheticalBeliefMatrix(
                    land.Q.entries + bump, signal_labels=land.signal_labels
                ),
            )
            if not consistency_check(perturbed).consistent:
                flips += 1
        assert flips == trials

    def test_distinct_priors_induce_distinct_hypotheticals(self):
        # With the beliefs fixed, the attainable hypotheticals are parameterized
        # by the prior alone, so two different priors cannot collide.
        rng = np.random.default_rng(77)
        beliefs = random_beliefs(rng, 6, 4)
        for _ in range(50):
            alpha = rng.dirichlet(np.ones(6))
            beta = rng.dirichlet(np.ones(6))
            p1 = beliefs.entries.T @ alpha
            p2 = beliefs.entries.T @ beta
            if np.max(np.abs(p1 - p2)) < 1e-3:
                continue
            s1 = (beliefs.entries * alpha[:, None]).T / p1[:, None]
            s2 = (beliefs.entries * beta[:, None]).T / p2[:, None]
            q1 = beliefs.entries @ s1
            q2 = beliefs.entries @ s2
            assert np.max(np.abs(q1 - q2)) > 1e-8

    def test_sparse_rounded_landscapes_keep_a_nonnegative_regression(self):
        # X = B⁺Q carries the stored rounding times 1/σ_min(B), up to 7.6e-13/σ_min(B)
        # below zero here. identify_structure allows X the same band as the judge, so on
        # a full-rank B it finds a valid structure wherever the verdict is consistent.
        judged = failed = full_rank = disagree = 0
        for _, land in sparse_landscapes():
            judged += 1
            consistent = consistency_check(land).consistent
            failed += not consistent
            if consistent and land.B.rank() == land.n_states:
                full_rank += 1
                disagree += not identify_structure(land.B, land.Q).consistent_structure
        assert (judged, failed, full_rank, disagree) == (1144, 0, 943, 0)

    @pytest.mark.parametrize(
        "shape", [(2, 2), (3, 3), (2, 4), (4, 2), (6, 3), (5, 5), (3, 6)], ids="{0[0]}x{0[1]}".format
    )
    def test_bumped_hypotheticals_are_rejected_at_every_shape(self, shape):
        # Mass moved from the second to the first entry of Q's first row of stored model
        # data, from 1e-7 to 1e-4.
        rng = np.random.default_rng(5)
        accepted = 0
        for delta in (1e-7, 1e-6, 1e-5, 1e-4):
            for _ in range(40):
                land = stored(generate_landscape(sample_environment(rng, *shape)))
                accepted += consistency_check(moved_mass(land, 1, -delta)).consistent
        assert accepted == 0


def stored(landscape: BeliefLandscape) -> BeliefLandscape:
    """The landscape as a file stores it, to 12 significant digits."""
    return landscape_from_doc(json.loads(dumps_report(landscape_to_doc(landscape))))


def sparse_landscapes():
    """(draw, stored landscape) of the sparse recipe: 6x6 structures with most entries zero,
    prior Dirichlet(1), ``default_rng(7)``; of 1500 draws, those that give every signal mass."""
    rng = np.random.default_rng(7)
    for draw in range(1500):
        rows = rng.dirichlet(np.ones(6), size=6)
        rows[rng.random((6, 6)) < 0.6] = 0.0
        for empty in np.flatnonzero(rows.sum(axis=1) == 0):
            rows[empty, rng.integers(6)] = 1.0
        rows /= rows.sum(axis=1, keepdims=True)
        prior = Prior(rng.dirichlet(np.ones(6)))
        if (rows.sum(axis=0) == 0).any():
            continue
        env = InformationalEnvironment(InformationStructure(rows), prior)
        yield draw, stored(generate_landscape(env))


def moved_mass(landscape: BeliefLandscape, signal: int, delta: float) -> BeliefLandscape:
    """delta of Q's first row moved from its first signal to ``signal``."""
    q = landscape.Q.entries.copy()
    q[0, 0] -= delta
    q[0, signal] += delta
    return BeliefLandscape(landscape.B, HypotheticalBeliefMatrix(q))


def two_block_landscape(rng, signals=(1, 4)):
    """Model data with a block-diagonal structure, two blocks of 1-3 states and of a number of
    signals from the half-open range ``signals``, rows and prior Dirichlet(1); and its blocks'
    (states, signals) shapes."""
    blocks = []
    for _ in range(2):
        n, m = rng.integers(1, 4), rng.integers(*signals)
        blocks.append(rng.dirichlet(np.ones(m), size=n))
    (n0, m0), (n1, m1) = shapes = [block.shape for block in blocks]
    structure = np.zeros((n0 + n1, m0 + m1))
    structure[:n0, :m0], structure[n0:, m0:] = blocks
    prior = Prior(rng.dirichlet(np.ones(n0 + n1)))
    return generate_landscape(InformationalEnvironment(InformationStructure(structure), prior)), shapes


class TestFixedSpaceRays:
    """A family prior is read off the fixed space of A - I: one ray per class."""

    def test_two_block_landscapes_are_families_of_their_blocks(self):
        # The minimum-norm X of a block with more states than signals can give A
        # negative entries, so A's entry pattern does not show the blocks; A - I's
        # fixed space does.
        rng = np.random.default_rng(11)
        scarce = failed = 0
        for _ in range(1000):
            land, ((n0, m0), (n1, m1)) = two_block_landscape(rng)
            scarce += n0 > m0 or n1 > m1
            verdict = consistency_check(land)
            prior = verdict.identification.prior
            blocks = (tuple(range(n0)), tuple(range(n0, n0 + n1)))
            failed += not (verdict.consistent and prior.classes == blocks)
        assert (scarce, failed) == (582, 0)

    @pytest.mark.parametrize("n", [3, 4])
    def test_near_revealing_stored_landscapes_keep_every_state(self, n):
        # Rows (1 - d)·I + d·Dirichlet(1) at d = 1e-11, stored to 12 digits. A - I can have
        # a fixed space of two or more dimensions at the tol_rank floor while all of A's
        # off-diagonal entries are below tol_entry, so the entry pattern makes every
        # state a class of its own; the fixed space's rays still cover every state.
        rng = np.random.default_rng(1)
        d = 1e-11
        failed = 0
        for _ in range(200):
            rows = (1 - d) * np.eye(n) + d * rng.dirichlet(np.ones(n), size=n)
            prior = Prior(rng.dirichlet(np.ones(n)))
            land = generate_landscape(InformationalEnvironment(InformationStructure(rows), prior))
            failed += not consistency_check(stored(land)).consistent
        assert failed == 0

    def test_bumped_block_landscapes_are_rejected(self):
        # Mass moved within the first block's row of Q, or into the second block.
        rng = np.random.default_rng(21)
        accepted = 0
        for _ in range(100):
            land, ((_, m0), _) = two_block_landscape(rng, signals=(2, 4))
            land = stored(land)
            for delta in (1e-6, 1e-4):
                for signal in (1, m0):
                    accepted += consistency_check(moved_mass(land, signal, delta)).consistent
        assert accepted == 0


class TestPeerAccuracy:
    def test_two_signal_three_state_value(self):
        acc = peer_accuracy_matrix(
            StateBeliefMatrix(fixtures.TWO_SIGNAL_THREE_STATE_B),
            InformationStructure(fixtures.TWO_SIGNAL_THREE_STATE_STRUCTURE),
        )
        np.testing.assert_allclose(acc, fixtures.TWO_SIGNAL_THREE_STATE_ACCURACY, atol=1e-12)

    def test_identity_pair_is_perfectly_accurate(self):
        acc = peer_accuracy_matrix(
            StateBeliefMatrix(np.eye(3)), InformationStructure(np.eye(3))
        )
        np.testing.assert_allclose(acc, np.eye(3), atol=1e-15)

    def test_diagonal_dominance_grows_with_informativeness(self):
        def dominance(epsilon):
            land = fixtures.truth_or_noise_landscape(epsilon)
            env = fixtures.truth_or_noise_environment(epsilon)
            acc = peer_accuracy_matrix(land.B, env.structure)
            off = acc[~np.eye(3, dtype=bool)]
            return acc.diagonal().min() - off.max()

        assert dominance(0.1) > dominance(0.9) > 0


class TestSingleColumn:
    def test_null_signal_column(self):
        epsilon = 0.35
        land = fixtures.truth_or_noise_landscape(epsilon)
        coeff = identify_single_column(land.B, land.Q.entries[:, 0])
        np.testing.assert_allclose(coeff, [epsilon] * 3, atol=1e-12)

    def test_reveal_column(self):
        epsilon = 0.35
        land = fixtures.truth_or_noise_landscape(epsilon)
        coeff = identify_single_column(land.B, land.Q.entries[:, 1])
        np.testing.assert_allclose(coeff, [1 - epsilon, 0.0, 0.0], atol=1e-12)

    def test_underdetermined_rejected(self):
        land = fixtures.two_signal_three_state_landscape()
        with pytest.raises(UnderdeterminedError):
            identify_single_column(land.B, land.Q.entries[:, 0])

    def test_checks_signal_count_then_length_then_rank(self):
        scarce = fixtures.two_signal_three_state_landscape().B  # 3 states, 2 signals
        split = fixtures.split_state_landscape().B  # dependent columns
        with pytest.raises(UnderdeterminedError):
            identify_single_column(scarce, [0.5, 0.5, 0.5])
        with pytest.raises(StructuralError, match="column has 1$"):
            identify_single_column(split, [0.5])
        with pytest.raises(RankDeficientError):
            identify_single_column(split, np.full(split.n_signals, 0.5))

    def test_a_column_of_the_wrong_shape_names_its_shape(self):
        beliefs = fixtures.truth_or_noise_landscape(0.5).B  # 3 states, 4 signals
        message = r"^hypothetical column must be 1-dimensional, got shape \(4, 1\)$"
        with pytest.raises(StructuralError, match=message):
            identify_single_column(beliefs, np.full((4, 1), 0.25))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_a_non_finite_column_is_a_structural_error(self, bad):
        land = fixtures.truth_or_noise_landscape(0.5)
        column = land.Q.entries[:, 0].copy()
        column[1] = bad
        with pytest.raises(StructuralError, match="^hypothetical column contains non-finite entries$"):
            identify_single_column(land.B, column)


def test_state_axis_mismatches_share_one_message():
    beliefs = fixtures.truth_or_noise_landscape(0.5).B  # 3 states, 4 signals
    two_states = InformationStructure(np.full((2, 4), 0.25))
    with pytest.raises(StructuralError) as caught:
        peer_accuracy_matrix(beliefs, two_states)
    assert str(caught.value) == "state axis: B has 3 states, structure has 2"


@pytest.mark.parametrize(
    "states, signals, message",
    [
        (("a", "b"), ("s1", "s2"), "state axis: B and structure carry different state labels"),
        (("th1", "th2"), ("x", "y"), "signal axis: B and structure carry different signal labels"),
    ],
    ids=["states", "signals"],
)
def test_peer_accuracy_matrix_compares_labels(states, signals, message):
    beliefs = fixtures.symmetric_binary_landscape(5 / 8, 5 / 8).B
    structure = InformationStructure(np.full((2, 2), 0.5), states, signals)
    with pytest.raises(StructuralError) as caught:
        peer_accuracy_matrix(beliefs, structure)
    assert str(caught.value) == message


def test_peer_accuracy_matrix_checks_the_signal_axis():
    beliefs = fixtures.truth_or_noise_landscape(0.5).B  # 3 states, 4 signals
    five_signals = InformationStructure(np.full((3, 5), 0.2))
    with pytest.raises(StructuralError, match="^signal axis: B has 4 signals, structure has 5$"):
        peer_accuracy_matrix(beliefs, five_signals)


class TestInferState:
    def test_reveal_column_matches_its_state(self):
        epsilon = 0.3
        inference = infer_state([1 - epsilon, 0.0, 0.0], 1 - epsilon)
        assert inference.state_index == 0
        assert not inference.ambiguous

    def test_duplicate_entries_are_ambiguous(self):
        inference = infer_state([0.3, 0.3, 0.4], 0.3)
        assert inference.ambiguous
        assert inference.state_index is None

    def test_forward_simulated_share(self):
        # In the third state the second signal is drawn with probability one.
        column = fixtures.TWO_SIGNAL_THREE_STATE_STRUCTURE[:, 1]
        inference = infer_state(column, 1.0)
        assert inference.state_index == 2

    @pytest.mark.parametrize(
        "column, share",
        [
            ([0.2, 0.5, 0.9], np.nan),
            ([0.2, 0.5, 0.9], np.inf),
            ([0.2, np.nan, 0.9], 0.5),
            (0.3, 0.3),  # a scalar is no column
            ([[0.2, 0.5, 0.9]], 0.5),  # nor is a 2-D array
            ([0.2, 0.5, 0.9], [0.3]),  # and a list is no share
        ],
    )
    def test_non_finite_share_or_column_rejected(self, column, share):
        with pytest.raises(ValueError, match="finite|dimensional"):
            infer_state(column, share)

    @pytest.mark.parametrize("share", [7.0, -3.0, np.nan])
    def test_a_share_outside_the_unit_interval_is_a_structural_error(self, share):
        with pytest.raises(StructuralError, match="^observed share (must be in|contains)"):
            infer_state([0.2, 0.5], share)

    def test_empty_column_rejected(self):
        with pytest.raises(ValueError, match="^no states to match the observation against$"):
            infer_state([], 0.5)


class TestRationalization:
    def test_symmetric_binary_nine_sixteenths(self):
        land = fixtures.symmetric_binary_landscape(9 / 16, 9 / 16)
        rat = rationalize_noncommon(land)
        np.testing.assert_allclose(rat.type_priors[0].entries, [5 / 14, 9 / 14], atol=1e-12)
        np.testing.assert_allclose(rat.type_priors[1].entries, [9 / 14, 5 / 14], atol=1e-12)
        assert max(rat.belief_residuals) <= 1e-12
        assert max(rat.hypothetical_residuals) <= 1e-12

    def test_common_prior_landscape_reproduces_rows(self):
        rng = np.random.default_rng(88)
        for _ in range(20):
            env = sample_environment(rng, 3, 5)
            land = generate_landscape(env)
            rat = rationalize_noncommon(land)
            assert max(rat.belief_residuals) <= 1e-8
            assert max(rat.hypothetical_residuals) <= 1e-8
            # a common-prior landscape's every type holds the generator's prior
            np.testing.assert_allclose(
                rat.priors, np.tile(env.prior.entries, (land.B.n_signals, 1)), rtol=0, atol=1e-8
            )

    def test_zero_mass_type_is_one_structural_error(self):
        # 0/0 would give a nan row; under an error filter it would raise RuntimeWarning instead.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(
                StructuralError,
                match="^belief type s2 has no positive belief on a state the structure supports$",
            ):
                rationalize_noncommon(zero_belief_row_landscape())

    def test_planted_structure_rows_reproduced(self):
        # Hypotheticals built from an arbitrary stochastic matrix over the
        # beliefs' span: per-type priors must reproduce both rows exactly.
        rng = np.random.default_rng(99)
        for _ in range(20):
            beliefs = random_beliefs(rng, 5, 3)
            planted = random_stochastic(rng, 3, 5)
            q = HypotheticalBeliefMatrix(beliefs.entries @ planted)
            land = BeliefLandscape(beliefs, q)
            rat = rationalize_noncommon(land)
            np.testing.assert_allclose(rat.structure.entries, planted, atol=1e-9)
            assert max(rat.belief_residuals) <= 1e-8
            assert max(rat.hypothetical_residuals) <= 1e-8

    def test_matches_per_type_loop(self):
        # The per-type, per-state loop is the reference for the vectorised form.
        rng = np.random.default_rng(5)
        for _ in range(10):
            beliefs = random_beliefs(rng, 6, 4)
            planted = random_stochastic(rng, 4, 6)
            land = BeliefLandscape(beliefs, HypotheticalBeliefMatrix(beliefs.entries @ planted))
            rat = rationalize_noncommon(land)
            # one read-only array; type_priors labels its rows when read
            assert rat.priors.shape == (6, 4) and not rat.priors.flags.writeable
            assert len(rat.type_priors) == 6
            b, structure = beliefs.entries, rat.structure.entries
            for s, prior in enumerate(rat.type_priors):
                assert prior.state_labels == land.state_labels
                np.testing.assert_array_equal(prior.entries, rat.priors[s])
                ratios = np.array([b[s, t] / structure[t, s] for t in range(4)])
                np.testing.assert_allclose(rat.priors[s], ratios / ratios.sum(), rtol=1e-14)
                reproduced = prior.entries * structure[:, s]
                assert rat.belief_residuals[s] == pytest.approx(
                    np.max(np.abs(reproduced / reproduced.sum() - b[s])), abs=1e-15
                )
                assert rat.hypothetical_residuals[s] == pytest.approx(
                    np.max(np.abs(b[s] @ structure - land.Q.entries[s])), abs=1e-15
                )

    def test_first_unsupported_belief_is_named(self):
        # Gaps at (s2, th2) and (s3, th1): signal-major order names s2 first.
        beliefs = StateBeliefMatrix([[0.5, 0.25, 0.25], [0.0, 0.5, 0.5], [0.25, 0.25, 0.5]])
        structure = np.array([[0.5, 0.0, 0.0], [0.5, 0.0, 0.5], [0.5, 0.25, 0.25]])
        land = BeliefLandscape(beliefs, HypotheticalBeliefMatrix(beliefs.entries @ structure))
        with pytest.raises(StructureSupportError, match="signal s2 in state th2"):
            rationalize_noncommon(land)

    def test_unsupported_belief_raises(self):
        beliefs = StateBeliefMatrix(np.eye(2))
        q = HypotheticalBeliefMatrix([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(StructureSupportError, match="s1"):
            rationalize_noncommon(BeliefLandscape(beliefs, q))


def no_eigenvalue_one_landscape() -> BeliefLandscape:
    """B = I and Q = [[0.5, 0.2], [0.1, 0.3]]: A = Qᵀ has eigenvalues 0.57 and 0.23.

    Validated input never gets here: for row-stochastic B and Q, A shares its
    nonzero spectrum with QᵀBB⁺, which has 1ᵀ as a left eigenvector.
    """
    q = HypotheticalBeliefMatrix([[0.5, 0.2], [0.1, 0.3]])
    return BeliefLandscape(StateBeliefMatrix(np.eye(2)), q)


class TestNoEigenvalueOne:
    @pytest.mark.parametrize(
        "call, message",
        [
            (identify, "the peer-accuracy matrix has no eigenvalue-1 eigenvector"),
            (identify_underdetermined, "the peer-accuracy matrix has no eigenvalue-1 eigenvector"),
            (
                signal_priors_identify,
                "the hypothetical matrix has no stationary signal distribution",
            ),
        ],
        ids=["identify", "identify_underdetermined", "signal_priors_identify"],
    )
    def test_no_prior_is_a_finding(self, call, message):
        with pytest.raises(NotModelGeneratedError, match=f"^{message}$"):
            call(no_eigenvalue_one_landscape())

    def test_consistency_check_fails_prior_and_reproduction(self):
        verdict = consistency_check(no_eigenvalue_one_landscape())
        assert not verdict.consistent
        assert verdict.failed == ("prior", "reproduction")
        assert verdict.identification.prior is None
        diagnostics = verdict.identification.diagnostics
        assert diagnostics.roundtrip_belief_error is None
        assert diagnostics.roundtrip_hypothetical_error is None
