"""Domain types: belief matrices, information structures, priors, and their validation.

Orientation conventions are fixed here once and inherited by every other
module:

* state belief matrix ``B``: rows are belief types (signals), columns are states;
* information structure: rows are states, columns are signals;
* hypothetical belief matrix ``Q``: square, rows are the conditioning belief type.

Values validate and results don't: a value type is a plain class (a :class:`_Value`)
that checks and stores its fields in its own ``__init__``; a record that only carries
a result is a named tuple (``_replace()`` copies it, ``_asdict()`` reads it). Neither
needs generated code. Both are immutable after construction and every operation is a
pure function, so concurrent use needs no coordination.

Each input rule is written once, here (:func:`_array`, :func:`_same_axis`, :func:`_check_labels`,
:func:`_positive_finite`, :func:`_share`); the readers and the CLI apply it, and nothing re-checks.
"""

from __future__ import annotations

import numbers
from functools import cached_property
from typing import NamedTuple, Optional, Sequence

import numpy as np


class BeliefscapeError(Exception):
    """Base class for all library errors."""


class StructuralError(BeliefscapeError, ValueError):
    """Malformed input of any kind (a wrong dimension, shape, count or label, a nan or inf,
    a scalar out of range); the input cannot be interpreted at all. Also a ValueError."""


class RankDeficientError(BeliefscapeError):
    """The belief matrix has linearly dependent columns.

    Use the dependency-reduction path, or the ridge path if there are more
    states than signals.
    """


class UnderdeterminedError(BeliefscapeError):
    """More states than signals; the plain regression path does not apply."""


class NotModelGeneratedError(BeliefscapeError):
    """No eigenvalue-1 eigenvector exists; the data cannot come from the model."""


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


def _array(value, what: str, ndim, square: bool = False) -> np.ndarray:
    """A read-only float copy of ``value``, checked for dimension (``ndim``, or one of a tuple
    of them), finiteness (entry by entry: a sum can overflow) and squareness, in that order."""
    try:
        entries = np.array(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise StructuralError(f"{what} is not an array of numbers ({exc})") from None
    dims = ndim if isinstance(ndim, tuple) else (ndim,)
    if entries.ndim not in dims:
        expected = " or ".join(map(str, dims))
        raise StructuralError(f"{what} must be {expected}-dimensional, got shape {entries.shape}")
    if np.count_nonzero(np.isfinite(entries)) != entries.size:
        raise StructuralError(f"{what} contains non-finite entries")
    if square and entries.shape[0] != entries.shape[1]:
        raise StructuralError(f"{what} must be square, got shape {entries.shape}")
    entries.setflags(write=False)
    return entries


def _same_axis(axis: str, a: str, n_a: int, b: str, n_b: int, labels_a=None, labels_b=None) -> None:
    """The one axis check: ``a`` and ``b`` agree on ``axis``, first in count, then in labels."""
    if n_a != n_b:
        raise StructuralError(f"{axis} axis: {a} has {n_a} {axis}s, {b} has {n_b}")
    if labels_a != labels_b:
        raise StructuralError(f"{axis} axis: {a} and {b} carry different {axis} labels")


def _positive_finite(value, what: str):
    """``value`` if a real number (np.float64 is one, a bool or an array is not) in (0, inf)."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool) or not 0 < value < np.inf:
        raise StructuralError(f"{what} must be positive and finite")
    return value


def _share(value, what: str) -> float:
    """``value`` as a float if one finite number (what :func:`_array` takes at 0-D) in [0, 1]."""
    share = float(_array(value, what, 0))
    if not 0 <= share <= 1:
        raise StructuralError(f"{what} must be in [0, 1], got {share!r}")
    return share


class _Value:
    """A value type: ``__init__`` checks its fields and stores them once with ``_store``, then
    none can be assigned or deleted. ``repr``, ``==`` and ``hash`` read ``_fields`` in order.
    """

    _fields: tuple[str, ...] = ()

    def _store(self, **fields) -> None:
        self.__dict__.update(fields)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())


class Tolerances(_Value):
    """Numerical slack used throughout; the model itself is exact.

    ``tol_rank`` is relative: the cutoff on singular values is
    ``tol_rank * largest_singular_value``; the eigenvalue-1 step floors it at ``tol_rank``.
    """

    _fields = ("tol_stochastic", "tol_entry", "tol_rank", "tol_match")

    def __init__(self, tol_stochastic=1e-9, tol_entry=1e-9, tol_rank=1e-10, tol_match=1e-8) -> None:
        values = (tol_stochastic, tol_entry, tol_rank, tol_match)
        self._store(**{name: _positive_finite(v, name) for name, v in zip(self._fields, values)})

    def rank_cutoff(self, singular_values: np.ndarray) -> float:
        """The cutoff for singular values in descending order, as LAPACK returns them."""
        return self.tol_rank * singular_values[0] if singular_values.size else 0.0


DEFAULT_TOLERANCES = Tolerances()


def state_labels_for(n: int) -> tuple[str, ...]:
    return tuple(f"th{i + 1}" for i in range(n))


def signal_labels_for(n: int) -> tuple[str, ...]:
    return tuple(f"s{i + 1}" for i in range(n))


_Labels = Optional[Sequence[str]]  # None: the default labels

# Label field -> (axis name in messages, default labels).
_LABEL_AXES = {
    "state_labels": ("states", state_labels_for),
    "signal_labels": ("signals", signal_labels_for),
}


def _check_labels(labels: _Labels, n: int, field: str) -> tuple[str, ...]:
    """``n`` labels made strings, none repeated (named by its second occurrence); None: defaults."""
    axis, default = _LABEL_AXES[field]
    if labels is None:
        return default(n)
    if isinstance(labels, str):  # iterating it would make one label per character
        raise StructuralError(f"{axis}: labels must be a sequence of strings, got one string")
    if type(labels) is not tuple or not set(map(type, labels)) <= {str}:
        labels = tuple(map(str, labels))
    if len(labels) != n:
        raise StructuralError(f"{axis}: {len(labels)} labels for {n} entries")
    if len(set(labels)) != len(labels):
        repeat = next(label for i, label in enumerate(labels) if label in labels[:i])
        raise StructuralError(f"{axis}: duplicate label {repeat!r}")
    return labels


def _freeze_labelled(value, entries, name: str, ndim: int, *labelled, square: bool = False) -> None:
    """Store the checked entries and label fields on ``value``; ``labelled`` gives each later
    field of ``value._fields`` its (labels, axis), in order."""
    entries = _array(entries, name, ndim, square)
    fields = {"entries": entries}
    for field, (labels, axis) in zip(value._fields[1:], labelled):
        fields[field] = _check_labels(labels, entries.shape[axis], field)
    value._store(**fields)


class StateBeliefMatrix(_Value):
    """Belief types by states; row ``s`` is type ``s``'s distribution over states."""

    _fields = ("entries", "state_labels", "signal_labels")

    def __init__(self, entries, state_labels: _Labels = None, signal_labels: _Labels = None) -> None:
        _freeze_labelled(self, entries, "state belief matrix", 2, (state_labels, 1), (signal_labels, 0))

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


class HypotheticalBeliefMatrix(_Value):
    """Each row is that belief type's expected distribution of a random peer's type."""

    _fields = ("entries", "signal_labels")

    def __init__(self, entries, signal_labels: _Labels = None) -> None:
        _freeze_labelled(self, entries, "hypothetical belief matrix", 2, (signal_labels, 0), square=True)

    @property
    def n_signals(self) -> int:
        return self.entries.shape[0]


class InformationStructure(_Value):
    """States by signals; row ``theta`` is the signal distribution in state ``theta``."""

    _fields = ("entries", "state_labels", "signal_labels")

    def __init__(self, entries, state_labels: _Labels = None, signal_labels: _Labels = None) -> None:
        _freeze_labelled(
            self, entries, "information structure", 2, (state_labels, 0), (signal_labels, 1)
        )

    @property
    def n_states(self) -> int:
        return self.entries.shape[0]

    @property
    def n_signals(self) -> int:
        return self.entries.shape[1]


class Prior(_Value):
    """Probability vector over states."""

    _fields = ("entries", "state_labels")

    def __init__(self, entries, state_labels: _Labels = None) -> None:
        _freeze_labelled(self, entries, "prior", 1, (state_labels, 0))

    @property
    def n_states(self) -> int:
        return self.entries.size


class SignalMarginal(_Value):
    """Ex-ante probability of observing each signal."""

    _fields = ("entries", "signal_labels")

    def __init__(self, entries, signal_labels: _Labels = None) -> None:
        _freeze_labelled(self, entries, "signal marginal", 1, (signal_labels, 0))


class BeliefLandscape(_Value):
    """The observed ex-post data: state beliefs paired with hypothetical beliefs."""

    _fields = ("B", "Q")

    def __init__(self, B: StateBeliefMatrix, Q: HypotheticalBeliefMatrix) -> None:
        _same_axis("signal", "B", B.n_signals, "Q", Q.n_signals, B.signal_labels, Q.signal_labels)
        self._store(B=B, Q=Q)

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


class InformationalEnvironment(_Value):
    """The ex-ante ground truth: an information structure plus a common prior."""

    _fields = ("structure", "prior")

    def __init__(self, structure: InformationStructure, prior: Prior) -> None:
        _same_axis(
            "state", "structure", structure.n_states, "prior", prior.n_states,
            structure.state_labels, prior.state_labels,
        )
        self._store(structure=structure, prior=prior)

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
    _same_axis("signal", "B", B.n_signals, "Q", Q.n_signals, B.signal_labels, Q.signal_labels)
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
