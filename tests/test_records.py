"""Values validate and results don't: the record contract.

The nine value types are frozen dataclasses that check their entries when built.
Every record that only carries a result is a named tuple, with the fields, in the
order, that its constructor has always taken.
"""

import dataclasses

import numpy as np
import pytest

from beliefscape import (
    BeliefLandscape,
    HypotheticalBeliefMatrix,
    StateBeliefMatrix,
    consistency_check,
    core,
    detect_partitional,
    fixtures,
    identify,
    identify_underdetermined,
    infer_state,
    inverse,
    irreducibility,
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
    "ClassDecomposition": ("classes", "closed", "irreducible", "class_edges"),
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
        "type_priors",
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

VALUE_TYPES = {
    "Tolerances",
    "StateBeliefMatrix",
    "HypotheticalBeliefMatrix",
    "InformationStructure",
    "Prior",
    "SignalMarginal",
    "BeliefLandscape",
    "InformationalEnvironment",
    "Regularizer",
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
        irreducibility(partition.Q.entries),
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


def test_exactly_the_value_types_are_dataclasses():
    classes = {
        name: value
        for module in (core, linalg, inverse)
        for name, value in vars(module).items()
        if isinstance(value, type) and value.__module__ == module.__name__
    }
    assert {name for name, cls in classes.items() if dataclasses.is_dataclass(cls)} == VALUE_TYPES
    assert set(FIELDS) <= set(classes)


def test_unique_prior_is_read_again_and_none_for_a_family():
    prior = identify(fixtures.truth_or_noise_landscape(0.5)).prior
    first, second = prior.unique_prior, prior.unique_prior
    np.testing.assert_array_equal(first.entries, second.entries)
    assert first.state_labels == second.state_labels == prior.state_labels
    partition = fixtures.coarse_partition_landscape([0.25, 1 / 6, 1 / 3, 0.25])
    family = signal_priors_identify(partition).prior
    assert family.kind == "family" and family.unique_prior is None

