"""Domain types: belief matrices, information structures, priors, and their validation.

Orientation conventions are fixed here once and inherited by every other
module:

* state belief matrix ``B``: rows are belief types (signals), columns are states;
* information structure: rows are states, columns are signals;
* hypothetical belief matrix ``Q``: square, rows are the conditioning belief type.

Values validate and results don't: a value type is a frozen dataclass that checks
its entries when built; a record that only carries a result is a named tuple
(``_replace()`` copies it, ``_asdict()`` reads it). Both are immutable after
construction and every operation is a pure function, so concurrent use needs no coordination.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np


class BeliefscapeError(Exception):
    """Base class for all library errors."""


class StructuralError(BeliefscapeError):
    """Dimension or label mismatch; the input cannot be interpreted at all."""


class RankDeficientError(BeliefscapeError):
    """The belief matrix has linearly dependent columns.

    Use the dependency-reduction path, or the ridge path if there are more
    states than signals.
    """


class UnderdeterminedError(BeliefscapeError):
    """More states than signals; the plain regression path does not apply."""


class NotModelGeneratedError(BeliefscapeError):
    """No eigenvalue-1 eigenvector exists; the data cannot come from the model."""


class NotInHullError(BeliefscapeError):
    """The prior is not a convex combination of the observed belief rows."""


class NotConvexDependentError(BeliefscapeError):
    """A dependent belief column is not a convex combination of the kept ones."""


class StructureSupportError(BeliefscapeError):
    """The structure puts no probability where beliefs are positive.

    Raised by the per-type prior construction when it would divide by a
    (near-)zero or negative structure entry.
    """


class InconsistentLandscapeError(BeliefscapeError):
    """The landscape violates an identity it would have to satisfy."""


class DegenerateEnvironmentError(BeliefscapeError):
    """Every signal has zero marginal probability; no beliefs can form."""


class DroppedSignalWarning(UserWarning):
    """A signal with zero marginal probability was removed from the landscape."""


@dataclass(frozen=True)
class Tolerances:
    """Numerical slack used throughout; the model itself is exact.

    ``tol_rank`` is relative: the cutoff on singular values is
    ``tol_rank * largest_singular_value``; the eigenvalue-1 step floors it at ``tol_rank``.
    """

    tol_stochastic: float = 1e-9
    tol_entry: float = 1e-9
    tol_rank: float = 1e-10
    tol_match: float = 1e-8

    def __post_init__(self) -> None:
        for field in fields(self):
            if not 0 < getattr(self, field.name) < np.inf:  # nan fails too
                raise ValueError(f"{field.name} must be positive and finite")

    def rank_cutoff(self, singular_values: np.ndarray) -> float:
        """The cutoff for singular values in descending order, as LAPACK returns them."""
        return self.tol_rank * singular_values[0] if singular_values.size else 0.0


DEFAULT_TOLERANCES = Tolerances()


def state_labels_for(n: int) -> tuple[str, ...]:
    return tuple(f"th{i + 1}" for i in range(n))


def signal_labels_for(n: int) -> tuple[str, ...]:
    return tuple(f"s{i + 1}" for i in range(n))


# Label field -> (axis name in messages, default labels).
_LABEL_AXES = {
    "state_labels": ("states", state_labels_for),
    "signal_labels": ("signals", signal_labels_for),
}


def _check_labels(labels: Sequence[str] | None, n: int, field: str) -> tuple[str, ...]:
    axis, default = _LABEL_AXES[field]
    if labels is None:
        return default(n)
    if type(labels) is not tuple or not set(map(type, labels)) <= {str}:
        labels = tuple(map(str, labels))
    if len(labels) != n:
        raise StructuralError(f"{axis}: {len(labels)} labels for {n} entries")
    if len(set(labels)) != len(labels):
        raise StructuralError(f"{axis}: duplicate labels")
    return labels


def _freeze_labelled(value, name: str, ndim: int, square: bool = False, **axis_of: int) -> None:
    """Freeze ``value.entries`` and check or default each label field, in argument order.

    The entries are copied as floats and checked for dimension, then finiteness, then
    squareness. Finiteness is counted entry by entry: a sum would overflow, with a
    warning, on finite entries near the largest float.
    ``axis_of`` maps a label field to the axis of the entries it labels.
    """
    entries = np.array(value.entries, dtype=float)
    if entries.ndim != ndim:
        raise StructuralError(f"{name} must be {ndim}-dimensional, got shape {entries.shape}")
    if np.count_nonzero(np.isfinite(entries)) != entries.size:
        raise StructuralError(f"{name} contains non-finite entries")
    entries.setflags(write=False)
    if square and entries.shape[0] != entries.shape[1]:
        raise StructuralError(f"{name} must be square, got shape {entries.shape}")
    object.__setattr__(value, "entries", entries)
    for field, axis in axis_of.items():
        labels = _check_labels(getattr(value, field), entries.shape[axis], field)
        object.__setattr__(value, field, labels)


@dataclass(frozen=True)
class StateBeliefMatrix:
    """Belief types by states; row ``s`` is type ``s``'s distribution over states."""

    entries: np.ndarray
    state_labels: tuple[str, ...] = None  # type: ignore[assignment]
    signal_labels: tuple[str, ...] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        _freeze_labelled(self, "state belief matrix", 2, state_labels=1, signal_labels=0)

    @property
    def n_signals(self) -> int:
        return self.entries.shape[0]

    @property
    def n_states(self) -> int:
        return self.entries.shape[1]

    @cached_property
    def _svd(self):
        """The one SVD of these beliefs; rank, regression and null space all read it."""
        from .linalg import _SVD  # linalg imports this module

        return _SVD.of(self.entries)

    def rank(self, tol: Tolerances = DEFAULT_TOLERANCES) -> int:
        return self._svd.rank(tol)


def _require_states(beliefs: StateBeliefMatrix, n: int, what: str) -> None:
    if beliefs.n_states != n:
        raise StructuralError(f"state axis: beliefs have {beliefs.n_states} states, {what} has {n}")


def _require_length(vector: np.ndarray, n: int, what: str) -> None:
    if vector.shape != (n,):
        raise StructuralError(f"signal axis: {what} has length {vector.size}, expected {n}")


@dataclass(frozen=True)
class HypotheticalBeliefMatrix:
    """Each row is that belief type's expected distribution of a random peer's type."""

    entries: np.ndarray
    signal_labels: tuple[str, ...] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        _freeze_labelled(self, "hypothetical belief matrix", 2, square=True, signal_labels=0)

    @property
    def n_signals(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class InformationStructure:
    """States by signals; row ``theta`` is the signal distribution in state ``theta``."""

    entries: np.ndarray
    state_labels: tuple[str, ...] = None  # type: ignore[assignment]
    signal_labels: tuple[str, ...] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        _freeze_labelled(self, "information structure", 2, state_labels=0, signal_labels=1)

    @property
    def n_states(self) -> int:
        return self.entries.shape[0]

    @property
    def n_signals(self) -> int:
        return self.entries.shape[1]


@dataclass(frozen=True)
class Prior:
    """Probability vector over states."""

    entries: np.ndarray
    state_labels: tuple[str, ...] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        _freeze_labelled(self, "prior", 1, state_labels=0)

    @property
    def n_states(self) -> int:
        return self.entries.size


@dataclass(frozen=True)
class SignalMarginal:
    """Ex-ante probability of observing each signal."""

    entries: np.ndarray
    signal_labels: tuple[str, ...] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        _freeze_labelled(self, "signal marginal", 1, signal_labels=0)


@dataclass(frozen=True)
class BeliefLandscape:
    """The observed ex-post data: state beliefs paired with hypothetical beliefs."""

    B: StateBeliefMatrix
    Q: HypotheticalBeliefMatrix

    def __post_init__(self) -> None:
        if self.B.n_signals != self.Q.n_signals:
            raise StructuralError(
                f"signal axis: B has {self.B.n_signals} rows, Q has {self.Q.n_signals}"
            )
        if self.B.signal_labels != self.Q.signal_labels:
            raise StructuralError("signal axis: B and Q carry different signal labels")

    @property
    def n_signals(self) -> int:
        return self.B.n_signals

    @property
    def n_states(self) -> int:
        return self.B.n_states

    @property
    def state_labels(self) -> tuple[str, ...]:
        return self.B.state_labels

    @property
    def signal_labels(self) -> tuple[str, ...]:
        return self.B.signal_labels


@dataclass(frozen=True)
class InformationalEnvironment:
    """The ex-ante ground truth: an information structure plus a common prior."""

    structure: InformationStructure
    prior: Prior

    def __post_init__(self) -> None:
        if self.structure.n_states != self.prior.n_states:
            raise StructuralError(
                f"state axis: structure has {self.structure.n_states} states,"
                f" prior has {self.prior.n_states}"
            )
        if self.structure.state_labels != self.prior.state_labels:
            raise StructuralError("state axis: structure and prior carry different state labels")

    @property
    def n_states(self) -> int:
        return self.structure.n_states

    @property
    def n_signals(self) -> int:
        return self.structure.n_signals

    @property
    def state_labels(self) -> tuple[str, ...]:
        return self.structure.state_labels

    @property
    def signal_labels(self) -> tuple[str, ...]:
        return self.structure.signal_labels


class Violation(NamedTuple):
    """One plausibility failure, located by row/column label."""

    kind: str
    where: str
    value: float

    def describe(self) -> str:
        return f"{self.kind} at {self.where}: {self.value:.6g}"


class PlausibilityReport(NamedTuple):
    """Outcome of validating a landscape or an environment: plausible exactly when no
    violation was found. Rank is not a plausibility question; read it from
    :meth:`StateBeliefMatrix.rank`.
    """

    plausible: bool
    violations: tuple[Violation, ...]


def _row_violations(matrix: np.ndarray, row_labels, col_labels, name: str, tol: Tolerances):
    """Per offending row: its negative entries in column order, then its row sum."""
    negative = matrix < -tol.tol_entry
    totals = matrix.sum(axis=1)
    off_sum = np.abs(totals - 1.0) > tol.tol_stochastic
    found = []
    for i in np.flatnonzero(negative.any(axis=1) | off_sum):
        found += [
            Violation("negative entry", f"{name}[{row_labels[i]}, {col_labels[j]}]", float(matrix[i, j]))
            for j in np.flatnonzero(negative[i])
        ]
        if off_sum[i]:
            found.append(Violation("row sum", f"{name} row {row_labels[i]}", float(totals[i])))
    return found


def validate_landscape(
    B: StateBeliefMatrix,
    Q: HypotheticalBeliefMatrix,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> PlausibilityReport:
    """Check that (B, Q) is plausible: nonnegative, row stochastic, no zero column of B.

    Entries within ``tol_entry`` below zero count as zero, so exact inputs
    survive float noise. Reports every violation rather than stopping at the
    first one. Reads the entries only: B is not factorized.
    """
    if B.n_signals != Q.n_signals:
        raise StructuralError(f"signal axis: B has {B.n_signals} rows, Q has {Q.n_signals}")
    b, q = B.entries, Q.entries
    violations = []
    # Whole-matrix reductions clear a plausible landscape; only one that trips them
    # is searched row by row. Once no entry is below -tol_entry, a column of B is
    # zero exactly when its largest entry is at most tol_entry.
    if (
        not b.size
        or min(b.min(), q.min()) < -tol.tol_entry
        or np.abs(b.sum(axis=1) - 1.0).max() > tol.tol_stochastic
        or np.abs(q.sum(axis=1) - 1.0).max() > tol.tol_stochastic
        or b.max(axis=0).min() <= tol.tol_entry
    ):
        violations = _row_violations(b, B.signal_labels, B.state_labels, "B", tol)
        violations += _row_violations(q, Q.signal_labels, Q.signal_labels, "Q", tol)
        zero_columns = np.all(np.abs(b) <= tol.tol_entry, axis=0)
        violations += [
            Violation("zero column", f"B column {B.state_labels[j]}", 0.0)
            for j in np.flatnonzero(zero_columns)
        ]
    return PlausibilityReport(not violations, tuple(violations))


def validate_environment(
    env: InformationalEnvironment,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> PlausibilityReport:
    """Check row-stochasticity of the structure and simplex membership of the prior."""
    violations = _row_violations(
        env.structure.entries, env.state_labels, env.signal_labels, "structure", tol
    )
    prior = env.prior.entries
    for i, value in enumerate(prior):
        if value < -tol.tol_entry:
            violations.append(Violation("negative entry", f"prior[{env.state_labels[i]}]", float(value)))
    total = float(prior.sum())
    if abs(total - 1.0) > tol.tol_stochastic:
        violations.append(Violation("sum", "prior", total))
    return PlausibilityReport(not violations, tuple(violations))
