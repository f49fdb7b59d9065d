"""Values validate and results don't: the record contract.

The nine value types are plain classes (``core._Value``) that check their entries
when built and are immutable after: no field can be assigned or deleted and their
arrays are read-only. Every record that only carries a result is a named tuple,
with the fields, in the order, that its constructor has always taken. Neither is
a dataclass.
"""

import dataclasses

import numpy as np
import pytest

from beliefscape import (
    DEFAULT_TOLERANCES,
    BeliefLandscape,
    HypotheticalBeliefMatrix,
    StateBeliefMatrix,
    Tolerances,
    consistency_check,
    core,
    detect_partitional,
    fixtures,
    forward,
    identify,
    identify_underdetermined,
    infer_state,
    inverse,
    linalg,
    null_space_basis,
    rationalize_noncommon,
    reduce_dependencies,
    signal_priors_identify,
    unit_eigenvector_eigenvalue_one,
    validate_landscape,
)

FIELDS = {
    "Violation": ("kind", "where", "value"),
    "PlausibilityReport": ("plausible", "violations"),
    "NullSpaceBasis": ("vectors", "dimension"),
    "_SVD": ("u", "s", "vt", "chol"),
    "EigenvalueOneResult": ("kind", "vectors", "classes"),
    "PriorFamily": ("kind", "vectors", "classes", "state_labels"),
    "StructureDiagnostics": (
        "residual",
        "negative_entries",
        "max_row_sum_error",
        "clipped_entries",
        "roundtrip_belief_error",
        "roundtrip_hypothetical_error",
    ),
    "IdentificationResult": (
        "structure",
        "prior",
        "peer_accuracy",
        "diagnostics",
        "consistent_structure",
        "restoration_kind",
    ),
    "ConsistencyVerdict": ("consistent", "failed", "identification"),
    "RestorationResult": ("kind", "structure"),
    "UnderdeterminedResult": (
        "ridge_limit",
        "null_basis",
        "prior",
        "restored",
        "residual",
        "state_labels",
        "signal_labels",
    ),
    "SignalPriorsResult": ("marginal", "prior", "structure"),
    "StateInference": ("state_index", "ambiguous", "gaps"),
    "NonCommonPriorRationalization": (
        "structure",
        "priors",
        "belief_residuals",
        "hypothetical_residuals",
    ),
    "ReductionResult": (
        "reduced",
        "kept_states",
        "removed_states",
        "mixing_weights",
        "column_scale",
        "state_labels",
    ),
    "PartitionResult": ("partitional", "cells", "zero_prior_states"),
}

# Value type -> its constructor's fields, in order.
VALUE_FIELDS = {
    "Tolerances": ("tol_stochastic", "tol_entry", "tol_rank", "tol_match"),
    "StateBeliefMatrix": ("entries", "state_labels", "signal_labels"),
    "HypotheticalBeliefMatrix": ("entries", "signal_labels"),
    "InformationStructure": ("entries", "state_labels", "signal_labels"),
    "Prior": ("entries", "state_labels"),
    "SignalMarginal": ("entries", "signal_labels"),
    "BeliefLandscape": ("B", "Q"),
    "InformationalEnvironment": ("structure", "prior"),
    "Regularizer": ("matrix",),
}


def built_records():
    """One of each result record, built by the library on the fixtures."""
    crowd = fixtures.truth_or_noise_landscape(0.5)
    scarce = fixtures.two_signal_three_state_landscape()
    partition = fixtures.coarse_partition_landscape([0.25, 1 / 6, 1 / 3, 0.25])
    off_sum = BeliefLandscape(
        StateBeliefMatrix([[0.7, 0.2], [0.3, 0.8]]), HypotheticalBeliefMatrix(np.eye(2))
    )
    report = validate_landscape(off_sum.B, off_sum.Q)
    verdict = consistency_check(crowd)
    underdetermined = identify_underdetermined(scarce)
    records = [
        report,
        report.violations[0],
        null_space_basis(scarce.B.entries),
        crowd.B._svd,
        unit_eigenvector_eigenvalue_one(crowd.Q.entries.T),
        verdict,
        verdict.identification,
        verdict.identification.prior,
        verdict.identification.diagnostics,
        underdetermined,
        underdetermined.restored,
        signal_priors_identify(crowd),
        infer_state(verdict.identification.structure.entries[:, 0], 0.5),
        rationalize_noncommon(crowd),
        reduce_dependencies(fixtures.split_state_landscape()),
        detect_partitional(partition),
    ]
    return {type(record).__name__: record for record in records}


RECORDS = built_records()


def built_values():
    """One of each value type, built on the fixtures."""
    env = fixtures.truth_or_noise_environment(0.5)
    crowd = fixtures.truth_or_noise_landscape(0.5)
    values = [
        DEFAULT_TOLERANCES,
        crowd.B,
        crowd.Q,
        env.structure,
        env.prior,
        forward.signal_marginal(env),
        crowd,
        env,
        linalg.Regularizer(np.diag([2.0, 1.0, 1.0])),
    ]
    return {type(value).__name__: value for value in values}


VALUES = built_values()


def test_every_result_record_is_built():
    assert set(RECORDS) == set(FIELDS)


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_a_result_record_is_a_named_tuple(name):
    record = RECORDS[name]
    assert isinstance(record, tuple)
    assert type(record)._fields == FIELDS[name]
    assert not dataclasses.is_dataclass(record)
    assert repr(record).startswith(f"{name}(")
    with pytest.raises(AttributeError):
        setattr(record, FIELDS[name][0], None)
    assert tuple(record._asdict()) == FIELDS[name]


def test_every_value_type_is_built():
    assert set(VALUES) == set(VALUE_FIELDS)


@pytest.mark.parametrize("name", sorted(VALUE_FIELDS))
def test_a_value_is_immutable(name):
    value = VALUES[name]
    assert type(value)._fields == VALUE_FIELDS[name]
    assert repr(value).startswith(f"{name}(")
    for field in VALUE_FIELDS[name]:
        before = getattr(value, field)
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
        assert getattr(value, field) is before
    for field in ("entries", "matrix"):
        array = getattr(value, field, None)
        if array is not None:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.0


def test_tolerances_compare_and_hash_by_value():
    assert Tolerances() == DEFAULT_TOLERANCES
    assert hash(Tolerances()) == hash(DEFAULT_TOLERANCES)
    assert Tolerances(tol_rank=1e-9) != DEFAULT_TOLERANCES
    assert len({Tolerances(), DEFAULT_TOLERANCES, Tolerances(tol_match=1e-7)}) == 2
    assert Tolerances() != tuple(getattr(DEFAULT_TOLERANCES, f) for f in VALUE_FIELDS["Tolerances"])


def test_no_class_is_a_dataclass_and_the_values_are_exactly_the_value_types():
    classes = {
        name: value
        for module in (core, linalg, inverse)
        for name, value in vars(module).items()
        if isinstance(value, type) and value.__module__ == module.__name__
    }
    assert not any(dataclasses.is_dataclass(cls) for cls in classes.values())
    values = {name for name, cls in classes.items() if issubclass(cls, core._Value)} - {"_Value"}
    assert values == set(VALUE_FIELDS)
    assert set(FIELDS) <= set(classes)


def test_unique_prior_is_read_again_and_none_for_a_family():
    prior = identify(fixtures.truth_or_noise_landscape(0.5)).prior
    first, second = prior.unique_prior, prior.unique_prior
    np.testing.assert_array_equal(first.entries, second.entries)
    assert first.state_labels == second.state_labels == prior.state_labels
    partition = fixtures.coarse_partition_landscape([0.25, 1 / 6, 1 / 3, 0.25])
    family = signal_priors_identify(partition).prior
    assert family.kind == "family" and family.unique_prior is None

