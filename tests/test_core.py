import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefscape import (
    BeliefLandscape,
    HypotheticalBeliefMatrix,
    InformationStructure,
    InformationalEnvironment,
    Prior,
    SignalMarginal,
    StateBeliefMatrix,
    StructuralError,
    Tolerances,
    validate_environment,
    validate_landscape,
)
from beliefscape import fixtures
from beliefscape.core import _LABEL_AXES, _check_labels


class TestTypes:
    def test_entries_are_immutable(self):
        b = StateBeliefMatrix([[0.5, 0.5], [1.0, 0.0]])
        with pytest.raises(ValueError):
            b.entries[0, 0] = 0.3

    def test_default_labels(self):
        b = StateBeliefMatrix([[0.5, 0.5], [1.0, 0.0]])
        assert b.state_labels == ("th1", "th2")
        assert b.signal_labels == ("s1", "s2")

    def test_label_count_mismatch(self):
        with pytest.raises(StructuralError, match="states"):
            StateBeliefMatrix([[0.5, 0.5]], state_labels=("a", "b", "c"))

    def test_duplicate_labels(self):
        with pytest.raises(StructuralError, match="duplicate"):
            StateBeliefMatrix([[0.5, 0.5]], state_labels=("a", "a"))

    def test_hypotheticals_must_be_square(self):
        with pytest.raises(StructuralError, match="square"):
            HypotheticalBeliefMatrix([[0.5, 0.5, 0.0]])

    def test_landscape_signal_axis_checked(self):
        b = StateBeliefMatrix([[0.5, 0.5], [1.0, 0.0], [0.0, 1.0]])
        q = HypotheticalBeliefMatrix(np.eye(2))
        with pytest.raises(StructuralError, match="signal axis"):
            BeliefLandscape(b, q)

    def test_environment_state_axis_checked(self):
        structure = InformationStructure(np.eye(3))
        with pytest.raises(StructuralError, match="state axis"):
            InformationalEnvironment(structure, Prior([0.5, 0.5]))

    def test_non_finite_rejected(self):
        with pytest.raises(StructuralError, match="non-finite"):
            Prior([0.5, np.nan])

    def test_tolerances_must_be_positive(self):
        with pytest.raises(ValueError):
            Tolerances(tol_match=0.0)

    @pytest.mark.parametrize("name", ["tol_stochastic", "tol_entry", "tol_rank", "tol_match"])
    @pytest.mark.parametrize(
        "value", [np.nan, np.inf, True, np.array([1e-10]), "1e-10"],
        ids=["nan", "inf", "True", "array", "str"],
    )
    def test_tolerances_must_be_finite(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite$"):
            Tolerances(**{name: value})

    def test_a_numpy_float_tolerance_is_a_real_number(self):
        tol = Tolerances(tol_rank=np.float64(1e-10))
        assert tol == Tolerances() and hash(tol) == hash(Tolerances())


# (constructor, arguments, full message) for every malformed input of the five labelled types.
MALFORMED = {
    "B-ndim": (
        StateBeliefMatrix, ([0.5, 0.5],),
        "state belief matrix must be 2-dimensional, got shape (2,)",
    ),
    "B-ndim-before-non-finite": (
        StateBeliefMatrix, ([np.nan],),
        "state belief matrix must be 2-dimensional, got shape (1,)",
    ),
    "B-non-finite": (
        StateBeliefMatrix, ([[0.5, np.inf]],),
        "state belief matrix contains non-finite entries",
    ),
    "B-non-finite-before-labels": (
        StateBeliefMatrix, ([[np.nan, 0.5]], ("a",)),
        "state belief matrix contains non-finite entries",
    ),
    "B-state-count": (
        StateBeliefMatrix, ([[0.5, 0.5]], ("a", "b", "c")),
        "states: 3 labels for 2 entries",
    ),
    "B-signal-count": (
        StateBeliefMatrix, ([[0.5, 0.5]], None, ("a", "b")),
        "signals: 2 labels for 1 entries",
    ),
    "B-state-duplicate": (
        StateBeliefMatrix, ([[0.5, 0.5]], ("a", "a")),
        "states: duplicate label 'a'",
    ),
    "B-signal-duplicate": (
        StateBeliefMatrix, ([[0.5, 0.5], [1.0, 0.0]], None, ("a", "a")),
        "signals: duplicate label 'a'",
    ),
    "B-states-before-signals": (
        StateBeliefMatrix, ([[0.5, 0.5]], ("a", "a"), ("x", "y")),
        "states: duplicate label 'a'",
    ),
    "B-signal-one-string": (
        StateBeliefMatrix, ([[0.5, 0.5], [1.0, 0.0]], None, "ab"),
        "signals: labels must be a sequence of strings, got one string",
    ),
    "Q-ndim": (
        HypotheticalBeliefMatrix, ([[[1.0]]],),
        "hypothetical belief matrix must be 2-dimensional, got shape (1, 1, 1)",
    ),
    "Q-ndim-before-non-finite": (
        HypotheticalBeliefMatrix, ([np.nan],),
        "hypothetical belief matrix must be 2-dimensional, got shape (1,)",
    ),
    "Q-huge-and-non-finite": (
        HypotheticalBeliefMatrix, ([[1e308, 1e308], [np.nan, 1.0]],),
        "hypothetical belief matrix contains non-finite entries",
    ),
    "Q-non-finite": (
        HypotheticalBeliefMatrix, ([[np.nan, 1.0], [0.0, 1.0]],),
        "hypothetical belief matrix contains non-finite entries",
    ),
    "Q-non-square": (
        HypotheticalBeliefMatrix, ([[0.5, 0.5, 0.0]],),
        "hypothetical belief matrix must be square, got shape (1, 3)",
    ),
    "Q-non-finite-before-non-square": (
        HypotheticalBeliefMatrix, ([[0.5, np.nan, 0.0]],),
        "hypothetical belief matrix contains non-finite entries",
    ),
    "Q-non-square-before-labels": (
        HypotheticalBeliefMatrix, ([[0.5, 0.5, 0.0]], ("a",)),
        "hypothetical belief matrix must be square, got shape (1, 3)",
    ),
    "Q-signal-count": (
        HypotheticalBeliefMatrix, (np.eye(2), ("a",)),
        "signals: 1 labels for 2 entries",
    ),
    "Q-signal-duplicate": (
        HypotheticalBeliefMatrix, (np.eye(2), ("a", "a")),
        "signals: duplicate label 'a'",
    ),
    "I-ndim": (
        InformationStructure, (1.0,),
        "information structure must be 2-dimensional, got shape ()",
    ),
    "I-ndim-before-non-finite": (
        InformationStructure, ([np.inf],),
        "information structure must be 2-dimensional, got shape (1,)",
    ),
    "I-opposite-infinities": (
        InformationStructure, ([[np.inf, -np.inf]],),
        "information structure contains non-finite entries",
    ),
    "I-non-finite": (
        InformationStructure, ([[1.0, -np.inf]],),
        "information structure contains non-finite entries",
    ),
    "I-state-count": (
        InformationStructure, ([[0.5, 0.5]], ("a", "b")),
        "states: 2 labels for 1 entries",
    ),
    "I-signal-count": (
        InformationStructure, ([[0.5, 0.5]], None, ("a",)),
        "signals: 1 labels for 2 entries",
    ),
    "I-state-duplicate": (
        InformationStructure, (np.eye(2), ("a", "a")),
        "states: duplicate label 'a'",
    ),
    "I-signal-duplicate": (
        InformationStructure, (np.eye(2), None, ("a", "a")),
        "signals: duplicate label 'a'",
    ),
    "prior-ndim": (Prior, ([[0.5, 0.5]],), "prior must be 1-dimensional, got shape (1, 2)"),
    "prior-non-finite": (Prior, ([0.5, np.nan],), "prior contains non-finite entries"),
    "prior-ndim-before-non-finite": (
        Prior, ([[np.nan]],), "prior must be 1-dimensional, got shape (1, 1)"
    ),
    "prior-non-finite-before-labels": (
        Prior, ([np.nan, 0.5], ("a",)), "prior contains non-finite entries"
    ),
    "prior-state-count": (Prior, ([0.5, 0.5], ("a",)), "states: 1 labels for 2 entries"),
    "prior-state-duplicate": (Prior, ([0.5, 0.5], ("a", "a")), "states: duplicate label 'a'"),
    "prior-state-one-string": (
        Prior, ([0.5, 0.5], "ab"), "states: labels must be a sequence of strings, got one string"
    ),
    "marginal-ndim": (
        SignalMarginal, (0.5,),
        "signal marginal must be 1-dimensional, got shape ()",
    ),
    "marginal-ndim-before-non-finite": (
        SignalMarginal, (np.nan,),
        "signal marginal must be 1-dimensional, got shape ()",
    ),
    "marginal-non-finite": (
        SignalMarginal, ([np.inf, 0.5],),
        "signal marginal contains non-finite entries",
    ),
    "marginal-signal-count": (
        SignalMarginal, ([0.5, 0.5], ("a", "b", "c")),
        "signals: 3 labels for 2 entries",
    ),
    "marginal-signal-duplicate": (
        SignalMarginal, ([0.5, 0.5], ("a", "a")),
        "signals: duplicate label 'a'",
    ),
    "landscape-signal-labels": (
        BeliefLandscape,
        (
            StateBeliefMatrix(np.eye(2), None, ("a", "b")),
            HypotheticalBeliefMatrix(np.eye(2), ("a", "c")),
        ),
        "signal axis: B and Q carry different signal labels",
    ),
    "environment-state-labels": (
        InformationalEnvironment,
        (InformationStructure(np.eye(2), ("a", "b")), Prior([0.5, 0.5], ("a", "c"))),
        "state axis: structure and prior carry different state labels",
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_message(case):
    constructor, args, message = MALFORMED[case]
    with pytest.raises(StructuralError) as info:
        constructor(*args)
    assert str(info.value) == message


# Finite entries whose sum overflows: the finiteness check must not read the sum.
HUGE = {
    "B": (StateBeliefMatrix, [[1e308, 1e308]]),
    "Q": (HypotheticalBeliefMatrix, [[1e308, 1e308], [1e308, 1e308]]),
    "I": (InformationStructure, [[1e308, 1e308]]),
    "prior": (Prior, [1e308, 1e308]),
    "marginal": (SignalMarginal, [1e308, 1e308]),
}


@pytest.mark.parametrize("case", sorted(HUGE))
def test_finite_entries_whose_sum_overflows_are_accepted(case):
    constructor, entries = HUGE[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = constructor(entries)
    np.testing.assert_array_equal(value.entries, entries)
    assert not value.entries.flags.writeable


def reference_check_labels(labels, n, field):
    """The per-item conversion ``_check_labels`` did before it accepted exact-str tuples as is."""
    axis, default = _LABEL_AXES[field]
    if labels is None:
        return default(n)
    labels = tuple(str(x) for x in labels)
    if len(labels) != n:
        raise StructuralError(f"{axis}: {len(labels)} labels for {n} entries")
    for i, label in enumerate(labels):
        if label in labels[:i]:
            raise StructuralError(f"{axis}: duplicate label {label!r}")
    return labels


class Label(str):
    pass


# Label inputs for two entries, each converted (or rejected) exactly as by the reference.
LABEL_INPUTS = {
    "tuple": ("a", "b"),
    "list": ["a", "b"],
    "np-str-items": (np.str_("a"), np.str_("b")),
    "np-array": np.array(["a", "b"]),
    "str-subclass": (Label("a"), "b"),
    "ints": (1, 2),
    "duplicate-after-str": (1, "1"),
    "duplicate": ("a", "a"),
    "duplicate-list": ["a", "a"],
    "too-few": ("a",),
    "too-few-list": ["a"],
    "too-many": ("a", "b", "c"),
    "empty": (),
    "default": None,
}


@pytest.mark.parametrize("field", sorted(_LABEL_AXES))
@pytest.mark.parametrize("case", sorted(LABEL_INPUTS))
def test_check_labels_matches_the_per_item_conversion(case, field):
    def outcome(check):
        try:
            labels = check(LABEL_INPUTS[case], 2, field)
        except StructuralError as exc:
            return "error", str(exc)
        return labels, [type(label) for label in labels]

    assert outcome(_check_labels) == outcome(reference_check_labels)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.text(max_size=3), min_size=1, max_size=8), st.data())
def test_a_repeated_label_is_named(labels, data):
    labels.insert(data.draw(st.integers(0, len(labels))), data.draw(st.sampled_from(labels)))
    seen = set()
    for first in labels:  # the first label that occurs a second time
        if first in seen:
            break
        seen.add(first)
    value, axis = data.draw(st.sampled_from([(Prior, "states"), (SignalMarginal, "signals")]))
    with pytest.raises(StructuralError) as info:
        value(np.full(len(labels), 1 / len(labels)), labels)
    assert str(info.value) == f"{axis}: duplicate label {first!r}"


class TestValidateLandscape:
    def test_truth_or_noise_is_plausible(self):
        land = fixtures.truth_or_noise_landscape(0.5)
        report = validate_landscape(land.B, land.Q)
        assert report.plausible
        assert land.B.rank() == land.n_states == 3

    def test_row_sum_violation(self):
        b = StateBeliefMatrix([[0.5, 0.6], [0.5, 0.5]])
        q = HypotheticalBeliefMatrix(np.eye(2))
        report = validate_landscape(b, q)
        assert not report.plausible
        assert any(v.kind == "row sum" for v in report.violations)

    def test_split_state_plausible_but_rank_deficient(self):
        land = fixtures.split_state_landscape()
        report = validate_landscape(land.B, land.Q)
        assert report.plausible
        assert land.B.rank() == 3 < land.n_states

    def test_negative_entry_beyond_tolerance(self):
        b = StateBeliefMatrix([[1.1, -0.1], [0.5, 0.5]])
        report = validate_landscape(b, HypotheticalBeliefMatrix(np.eye(2)))
        assert not report.plausible
        assert any(v.kind == "negative entry" for v in report.violations)

    def test_q_with_other_signal_labels_is_rejected(self):
        land = fixtures.symmetric_binary_landscape(5 / 8, 5 / 8)
        relabelled = HypotheticalBeliefMatrix(land.Q.entries, ("x", "y"))
        with pytest.raises(StructuralError, match="^signal axis: B and Q carry different signal"):
            validate_landscape(land.B, relabelled)

    def test_tiny_negative_entry_tolerated(self):
        b = StateBeliefMatrix([[1.0 + 1e-10, -1e-10], [0.5, 0.5]])
        report = validate_landscape(b, HypotheticalBeliefMatrix(np.eye(2)))
        assert report.plausible

    def test_zero_column_detected(self):
        b = StateBeliefMatrix([[1.0, 0.0], [1.0, 0.0]])
        report = validate_landscape(b, HypotheticalBeliefMatrix(np.eye(2)))
        assert any(v.kind == "zero column" for v in report.violations)

    def test_every_violation_reported(self):
        b = StateBeliefMatrix([[0.7, 0.7], [-0.2, 1.0]])
        report = validate_landscape(b, HypotheticalBeliefMatrix([[0.9, 0.0], [0.0, 1.0]]))
        kinds = {v.kind for v in report.violations}
        assert {"row sum", "negative entry"} <= kinds

    @pytest.mark.parametrize("seed", range(6))
    def test_violations_in_reference_order(self, seed):
        # Per row: negatives in column order, then the row sum; B before Q;
        # zero columns last. The loop below is the order's reference.
        rng = np.random.default_rng(seed)
        b = rng.dirichlet(np.ones(5), size=4)
        b[rng.random(b.shape) < 0.2] *= -1.0
        b[:, rng.integers(5)] = 0.0
        q = rng.dirichlet(np.ones(4), size=4)
        q[rng.integers(4), rng.integers(4)] = -0.3
        B, Q = StateBeliefMatrix(b), HypotheticalBeliefMatrix(q)
        tol = Tolerances()

        def reference(matrix, rows, cols, name):
            found = []
            for i, row in enumerate(matrix):
                for j, value in enumerate(row):
                    if value < -tol.tol_entry:
                        found.append(("negative entry", f"{name}[{rows[i]}, {cols[j]}]", value))
                if abs(row.sum() - 1.0) > tol.tol_stochastic:
                    found.append(("row sum", f"{name} row {rows[i]}", row.sum()))
            return found

        expected = reference(b, B.signal_labels, B.state_labels, "B")
        expected += reference(q, Q.signal_labels, Q.signal_labels, "Q")
        expected += [
            ("zero column", f"B column {B.state_labels[j]}", 0.0)
            for j in range(5)
            if np.all(np.abs(b[:, j]) <= tol.tol_entry)
        ]
        got = [(v.kind, v.where, v.value) for v in validate_landscape(B, Q, tol).violations]
        assert [g[:2] for g in got] == [e[:2] for e in expected]
        np.testing.assert_allclose([g[2] for g in got], [e[2] for e in expected], atol=1e-15)

    def test_dimension_mismatch_is_structural(self):
        b = StateBeliefMatrix([[0.5, 0.5]])
        q = HypotheticalBeliefMatrix(np.eye(2))
        with pytest.raises(StructuralError, match="signal axis"):
            validate_landscape(b, q)


class TestValidateEnvironment:
    def test_identity_environment(self):
        env = InformationalEnvironment(InformationStructure(np.eye(2)), Prior([0.5, 0.5]))
        report = validate_environment(env)
        assert report.plausible

    def test_structure_row_sum_violation(self):
        env = InformationalEnvironment(
            InformationStructure([[0.7, 0.7], [0.5, 0.5]]), Prior([0.5, 0.5])
        )
        report = validate_environment(env)
        assert not report.plausible

    def test_split_state_embedded_environment_valid(self):
        env = fixtures.split_state_embedded_environment()
        report = validate_environment(env)
        assert report.plausible

    @pytest.mark.parametrize(
        "prior, described",
        [((1.2, -0.2), "negative entry at prior[th2]: -0.2"), ((0.5, 0.6), "sum at prior: 1.1")],
    )
    def test_prior_off_the_simplex_described(self, prior, described):
        env = InformationalEnvironment(InformationStructure(np.eye(2)), Prior(prior))
        report = validate_environment(env)
        assert [v.describe() for v in report.violations] == [described]

    def test_boundary_prior_not_interior(self):
        # a prior on the simplex's boundary is still on the simplex
        env = InformationalEnvironment(InformationStructure(np.eye(2)), Prior([1.0, 0.0]))
        report = validate_environment(env)
        assert report.plausible


def test_all_fixture_landscapes_are_plausible():
    cases = [
        fixtures.truth_or_noise_landscape(0.1),
        fixtures.truth_or_noise_landscape(0.9),
        fixtures.truth_or_noise_rogue_hypotheticals(),
        fixtures.symmetric_binary_landscape(9 / 16, 9 / 16),
        fixtures.symmetric_binary_landscape(5 / 8, 5 / 8),
        fixtures.two_signal_three_state_landscape(),
        fixtures.split_state_landscape(),
        fixtures.coarse_partition_landscape([0.25, 0.25, 0.25, 0.25]),
        fixtures.coarse_partition_landscape([0.25, 1 / 6, 1 / 3, 0.25]),
    ]
    for land in cases:
        assert validate_landscape(land.B, land.Q).plausible


def test_all_fixture_environments_are_valid():
    cases = [
        fixtures.truth_or_noise_environment(0.1),
        fixtures.truth_or_noise_environment(0.9),
        fixtures.two_signal_three_state_environment(),
        fixtures.split_state_embedded_environment(),
        fixtures.coarse_partition_environment([0.25, 1 / 6, 1 / 3, 0.25]),
    ]
    for env in cases:
        assert validate_environment(env).plausible
