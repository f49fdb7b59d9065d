"""Inverse procedures: recover the informational environment from a belief landscape.

One kernel of plain arrays identifies and judges every landscape, whatever
the shape and rank of B (``_judge``): X = B⁺Q from B's cached SVD (the paper's
regression of each hypothetical column on the state beliefs at full column
rank, the minimum-norm solution otherwise), the prior as the eigenvalue-1
eigenvector of the accuracy matrix BᵀXᵀ, then the structure from Bayes' rule
with that prior, kept only if it regenerates the landscape. Its one record,
``_Judgement``, is what :func:`consistency_check`, :func:`identify`,
:func:`identify_underdetermined` and every CLI command that judges a landscape
build their typed result from, once, at their edge; the CLI reads its route there.
The signal-priors route takes the same eigenvalue-1 step on Qᵀ, the stationary
signal distribution, instead.
Each reports its prior as a :class:`PriorFamily`: the eigenvalue-1 fields
(kind, vectors, classes) plus state labels, from which the unique prior and
the balanced mixture the Bayes step judges with are derived. Every result here
is a named tuple: values validate (``core``), results don't.
Dependency reduction, partition detection, non-common-prior rationalization and
crowd-wisdom state inference round out the toolbox.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .core import (
    DEFAULT_TOLERANCES,
    BeliefLandscape,
    InconsistentLandscapeError,
    InformationStructure,
    NotConvexDependentError,
    NotModelGeneratedError,
    Prior,
    StateBeliefMatrix,
    StructuralError,
    StructureSupportError,
    Tolerances,
    UnderdeterminedError,
    _array,
    _same_axis,
    _share,
)
from .forward import _bayes
from .linalg import EigenvalueOneResult, NullSpaceBasis, _fixed_vectors

# --------------------------------------------------------------------------
# Prior families
# --------------------------------------------------------------------------


class PriorFamily(NamedTuple):
    """The eigenvalue-1 fields (:class:`linalg.EigenvalueOneResult`) plus state labels:
    one prior, or one extreme ray of the fixed space per class (kind "family"), each
    zero off its support in ``classes``.

    In the family case the identified set is every convex combination of the
    rays; relative weight across classes cannot be determined from ex-post data.
    """

    kind: str
    vectors: tuple[np.ndarray, ...]
    classes: tuple[tuple[int, ...], ...]
    state_labels: tuple[str, ...]

    @property
    def unique_prior(self) -> Prior | None:
        if self.kind != "unique":
            return None
        return Prior(self.vectors[0], state_labels=self.state_labels)

    def representative(self) -> Prior:
        """The unique prior, or the balanced mixture of the class vectors."""
        return Prior(_balanced_mixture(self.kind, self.vectors), state_labels=self.state_labels)


def _balanced_mixture(kind: str, vectors) -> np.ndarray:
    """The one vector of kind "unique", or the mean of a family's class vectors."""
    return vectors[0] if kind == "unique" else np.mean(np.stack(vectors), axis=0)


_NO_PRIOR = "the peer-accuracy matrix has no eigenvalue-1 eigenvector"


def peer_accuracy_matrix(beliefs: StateBeliefMatrix, structure: InformationStructure) -> np.ndarray:
    """Entry (i, j): expected peer probability on state i when the true state is j."""
    b, s = beliefs, structure
    _same_axis("state", "B", b.n_states, "structure", s.n_states, b.state_labels, s.state_labels)
    _same_axis("signal", "B", b.n_signals, "structure", s.n_signals, b.signal_labels, s.signal_labels)
    return beliefs.entries.T @ structure.entries.T


# --------------------------------------------------------------------------
# Regression identification (at least as many signals as states)
# --------------------------------------------------------------------------


class StructureDiagnostics(NamedTuple):
    """Numerical health of an identified structure.

    ``residual`` is the largest absolute entry of beliefs @ X minus the
    hypotheticals, X the solve before any tidying; the next three fields
    describe the reported structure. The round-trip errors are the judge's
    gaps, those of the structure Bayes' rule judged (the reported one on a
    consistent verdict); None when no nonnegative prior was found to judge with.
    """

    residual: float
    negative_entries: tuple[tuple[str, str, float], ...]
    max_row_sum_error: float
    clipped_entries: int
    roundtrip_belief_error: float | None = None
    roundtrip_hypothetical_error: float | None = None


class IdentificationResult(NamedTuple):
    structure: InformationStructure
    prior: PriorFamily | None
    peer_accuracy: np.ndarray | None
    diagnostics: StructureDiagnostics
    consistent_structure: bool
    restoration_kind: str | None = None  # the judge's RestorationResult.kind; None unjudged


def _sign_floor(svd, tol: Tolerances, rank: int | None = None) -> float:
    """How far X = B⁺Q may stray outside [0, 1]: ``tol_entry`` plus the input's rounding
    carried by B⁺, 1e-11/σ_r, with σ_r B's smallest singular value above the rank cutoff
    and 1e-11 = 20u for u = 5e-13, the rounding of the 12 digits files store. ``rank``
    is B's, when the caller has already read it."""
    rank = svd.rank(tol) if rank is None else rank
    return tol.tol_entry + 1e-11 / svd.s[rank - 1] if rank else tol.tol_entry


def _tidy_structure(raw: np.ndarray, svd, tol: Tolerances) -> tuple[np.ndarray, bool, int, tuple]:
    """Clip X = B⁺Q within :func:`_sign_floor` of [0, 1]; anything further flags
    inconsistency untouched."""
    floor = _sign_floor(svd, tol)
    negative = raw < -floor
    if negative.any() or (raw > 1.0 + floor).any():
        ij = zip(*np.nonzero(negative))
        return raw, False, 0, tuple((int(i), int(j), float(raw[i, j])) for i, j in ij)
    clipped = np.clip(raw, 0.0, 1.0)
    n_clipped = int(np.count_nonzero(clipped != raw))
    totals = clipped.sum(axis=1, keepdims=True)
    renormalized = np.divide(clipped, totals, out=clipped.copy(), where=totals > 0)
    close = np.abs(renormalized - clipped).max(axis=1, keepdims=True) <= tol.tol_entry
    return np.where(close, renormalized, clipped), True, n_clipped, ()


def _regression_guard(beliefs: StateBeliefMatrix, tol: Tolerances, remedy: str, target, ndim=1):
    """(B⁺, ``target`` through the gates) after the checks, in order: at least as many signals
    as states, a target (a column, or at ``ndim`` 2 a square Q) over the signals, full rank."""
    if beliefs.n_states > beliefs.n_signals:
        raise UnderdeterminedError(
            f"{beliefs.n_states} states but only {beliefs.n_signals} signals; {remedy}"
        )
    what = "hypothetical column" if ndim == 1 else "hypothetical belief matrix"
    target = _array(target, what, ndim, square=ndim == 2)
    _same_axis("signal", "B", beliefs.n_signals, what, target.shape[0])
    beliefs._svd.require_full_rank(tol)
    return beliefs._svd.pinv(tol), target


def _identification(
    beliefs: StateBeliefMatrix, x, q, shown, prior=None, accuracy=None, gaps=(None, None), kind=None
) -> IdentificationResult:
    """The result for the solve ``x`` that shows (structure, consistent, clipped, negative ij)."""
    structure, consistent, n_clipped, negative_ij = shown
    states, signals = beliefs.state_labels, beliefs.signal_labels
    diagnostics = StructureDiagnostics(
        float(np.abs(beliefs.entries @ x - q).max()),
        tuple((states[i], signals[j], value) for i, j, value in negative_ij),
        float(np.abs(structure.sum(axis=1) - 1.0).max()),
        n_clipped,
        *gaps,
    )
    return IdentificationResult(
        InformationStructure(structure, state_labels=states, signal_labels=signals),
        prior,
        accuracy,
        diagnostics,
        consistent,
        kind,
    )


def identify_structure(
    beliefs: StateBeliefMatrix,
    hypotheticals,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> IdentificationResult:
    """Recover the structure by regressing each hypothetical column on the beliefs.

    Requires at least as many signals as states and full column rank. Entries
    within :func:`_sign_floor` of [0, 1] are snapped; genuinely negative output is left
    untouched and flagged: such hypotheticals lie outside the family any
    common-prior environment can produce.
    """
    q = getattr(hypotheticals, "entries", hypotheticals)
    operator, q = _regression_guard(beliefs, tol, "use the minimum-norm path", q, ndim=2)
    raw = operator @ q
    return _identification(beliefs, raw, q, _tidy_structure(raw, beliefs._svd, tol))


def _roundtrip_errors(
    b: np.ndarray, q: np.ndarray, structure: np.ndarray, prior: np.ndarray, tol: Tolerances
) -> tuple[float, float]:
    """Largest gaps of B and Q to Bayes' rule on (structure, prior); inf if a signal drops."""
    _, beliefs, hypotheticals = _bayes(structure, prior, tol)
    if beliefs.shape != b.shape:  # a signal dropped
        return float("inf"), float("inf")
    return float(np.abs(beliefs - b).max()), float(np.abs(hypotheticals - q).max())


# --------------------------------------------------------------------------
# Consistency verdict
# --------------------------------------------------------------------------


class ConsistencyVerdict(NamedTuple):
    """Whether some common-prior environment generates the landscape, and why not.

    ``failed`` can contain "nonnegative_structure" (judged on the regression
    witness X = B⁺Q, on the regression route only), "prior" and "reproduction".
    ``identification`` is never None. On a consistent verdict its structure and
    peer accuracy are the judged Bayes structure's; on an inconsistent one, the
    witness X tidied as :func:`identify_structure` tidies it, and BᵀXᵀ.
    """

    consistent: bool
    failed: tuple[str, ...]
    identification: IdentificationResult


def consistency_check(
    landscape: BeliefLandscape, tol: Tolerances = DEFAULT_TOLERANCES
) -> ConsistencyVerdict:
    """Judge a landscape: a nonnegative prior, and a Bayes structure that regenerates it.

    Plausibility of the inputs is nowhere near sufficient; most row-stochastic
    hypothetical matrices fail the round trip.
    """
    return _verdict(landscape, _judge(landscape, tol), tol)


def _verdict(landscape, judgement: _Judgement, tol: Tolerances) -> ConsistencyVerdict:
    """The :class:`ConsistencyVerdict` on one judgement of ``landscape``."""
    beliefs, x, judged, failed = landscape.B, judgement.x, judgement.judged, judgement.failed
    if failed:
        shown, accuracy = _tidy_structure(x, beliefs._svd, tol), judgement.accuracy
    else:
        structure = judged.clip(0.0, 1.0)
        shown = structure, True, int(np.count_nonzero(structure != judged)), ()
        accuracy = beliefs.entries.T @ structure.T  # the peer accuracy of what was judged
    q, prior, gaps, kind = landscape.Q.entries, judgement.prior, judgement.gaps, judgement.kind
    found = _identification(beliefs, x, q, shown, prior, accuracy, gaps, kind)
    return ConsistencyVerdict(not failed, failed, found)


def identify(
    landscape: BeliefLandscape, tol: Tolerances = DEFAULT_TOLERANCES
) -> IdentificationResult:
    """Structure, prior, accuracy and round trip, as :func:`consistency_check` judged them."""
    identification = consistency_check(landscape, tol).identification
    if identification.prior is None:
        raise NotModelGeneratedError(_NO_PRIOR)
    return identification


# --------------------------------------------------------------------------
# The one judge for every B: X = B⁺Q, the prior from BᵀXᵀ, then Bayes' rule
# --------------------------------------------------------------------------


class RestorationResult(NamedTuple):
    """What the Bayes step decides: ``kind`` and ``structure``.

    Every exact solution of hypotheticals = beliefs @ X is B⁺Q plus per-column
    combinations of B's null basis (held by :class:`UnderdeterminedResult`;
    empty at full column rank). Bayes' rule picks one of them. With p the
    identified prior (a family's balanced mixture of its class vectors),
    Q = B diag(1/p) Bᵀ diag(m), so each column of Q fixes one entry of the
    signal marginal m whatever B's row rank;
    then structure[θ, s] = B[s, θ] m[s] / p[θ]. A state with p at or below
    ``tol_entry`` has no identified row and gets the uniform one. ``kind`` is
    "infeasible" (no environment with this prior generates the data) unless
    the structure is nonnegative and Bayes' rule regenerates B and Q from it
    within ``tol_match``; otherwise "family" when some state has no identified
    row, and "unique" when every state has one. It is "infeasible" exactly
    when the consistency verdict is inconsistent.
    """

    kind: str
    structure: np.ndarray | None


class UnderdeterminedResult(NamedTuple):
    """Everything the judge identifies, read for scarce signals or dependent columns.

    The ridge limit solves hypotheticals = beliefs @ X but need not be a
    stochastic matrix; any true structure differs from it column-wise by
    null-basis combinations only, and the prior survives regardless.
    """

    ridge_limit: np.ndarray
    null_basis: NullSpaceBasis
    prior: PriorFamily
    restored: RestorationResult
    residual: float
    state_labels: tuple[str, ...]
    signal_labels: tuple[str, ...]

    @property
    def restored_structure(self) -> InformationStructure | None:
        if self.restored.structure is None:
            return None
        return InformationStructure(
            self.restored.structure,
            state_labels=self.state_labels,
            signal_labels=self.signal_labels,
        )


def _bayes_structure(b: np.ndarray, weights: np.ndarray, prior: np.ndarray) -> np.ndarray:
    """Bayes' rule read backwards: structure[θ, s] = b[s, θ] * weights[s] / prior[θ]."""
    return (b * weights[:, None]).T / prior[:, None]


def _bayes_step(
    b: np.ndarray, q: np.ndarray, p: np.ndarray, tol: Tolerances
) -> tuple[str, np.ndarray, tuple[float, float]]:
    """Bayes' rule with prior p: the restoration kind, the structure before clipping, its gaps.

    The mask indexes only when some state is unseen. Unmasked, B is taken in the
    Fortran order that ``B[:, seen]`` has, so the products round as they do masked.
    """
    seen = p > tol.tol_entry
    every = bool(seen.all())
    if every:
        b_seen, p_seen = np.asfortranarray(b), p
    else:
        b_seen, p_seen = b[:, seen], p[seen]
    gram = (b_seen / p_seen) @ b_seen.T  # Q = gram @ diag(m)
    fit = (gram * gram).sum(axis=0)
    weights = np.divide((gram * q).sum(axis=0), fit, out=np.zeros(fit.shape), where=fit > 0)
    rows = _bayes_structure(b_seen, weights, p_seen)
    if every:
        structure = rows
    else:
        n_signals, n_states = b.shape
        structure = np.full((n_states, n_signals), 1.0 / n_signals)
        structure[seen] = rows
    gaps = _roundtrip_errors(b, q, structure, p, tol)
    if structure.min() < -tol.tol_entry or max(gaps) > tol.tol_match:
        return "infeasible", structure, gaps
    return ("unique" if every else "family"), structure, gaps


class _Judgement(NamedTuple):
    """:func:`_judge`'s answer, read by field name by every judged result and the CLI.
    ``prior`` is None without an eigenvalue-1 vector; ``judged`` is None on a failed verdict."""

    x: np.ndarray
    accuracy: np.ndarray
    prior: PriorFamily | None
    failed: tuple[str, ...]
    kind: str
    judged: np.ndarray | None
    gaps: tuple[float | None, float | None]
    route: str


def _judge(landscape: BeliefLandscape, tol: Tolerances) -> _Judgement:
    """The one kernel, whatever B's shape and rank, from B's cached SVD; it reads B's rank once.

    X = B⁺Q is the regression at full column rank and the minimum-norm solution
    otherwise. The prior comes from A = Bᵀ Xᵀ before any tidying: renormalizing
    X's rows would move A off its fixed point by about cond(B) times the input's
    rounding. Its kind, vectors and classes are :func:`linalg._fixed_vectors`'s.
    Bayes' rule with that prior judges (see :class:`RestorationResult`); X's own sign
    counts on the regression route only, below -:func:`_sign_floor`, the one band
    :func:`_tidy_structure` and ``identify --column`` read too. A failed verdict has
    kind "infeasible" and judged None; its gaps are None when no nonnegative prior
    was found to judge with.
    """
    b, svd, q = landscape.B.entries, landscape.B._svd, landscape.Q.entries
    x = svd.solve(q, tol)
    accuracy = b.T @ x.T
    eigen = _fixed_vectors(accuracy, tol)
    rank = svd.rank(tol)
    route = "regression" if rank == b.shape[1] else "minimum-norm"
    failed = []
    if route == "regression" and x.min() < -_sign_floor(svd, tol, rank):
        failed.append("nonnegative_structure")
    prior = None if eigen[0] == "none" else PriorFamily(*eigen, landscape.state_labels)
    gaps = (None, None)
    if prior is None or any(v.min() < -tol.tol_entry for v in prior.vectors):
        failed += ["prior", "reproduction"]
    else:
        kind, judged, gaps = _bayes_step(b, q, _balanced_mixture(prior.kind, prior.vectors), tol)
        if kind == "infeasible":
            failed.append("reproduction")
    if failed:
        kind, judged = "infeasible", None
    return _Judgement(x, accuracy, prior, tuple(failed), kind, judged, gaps, route)


def identify_underdetermined(
    landscape: BeliefLandscape, tol: Tolerances = DEFAULT_TOLERANCES
) -> UnderdeterminedResult:
    """The judge's findings for more states than signals (or dependent columns).

    The prior holds for any exact solution of Q = B X, so no regularizer would
    change it; Bayes' rule with it (a family's balanced mixture) gives the structure
    in closed form, whatever B's row rank (see :class:`RestorationResult`).
    """
    judgement = _judge(landscape, tol)
    if judgement.prior is None:
        raise NotModelGeneratedError(_NO_PRIOR)
    x, kind, judged = judgement.x, judgement.kind, judgement.judged
    return UnderdeterminedResult(
        ridge_limit=x,
        null_basis=landscape.B._svd.null_basis(tol),
        prior=judgement.prior,
        restored=RestorationResult(kind, None if judged is None else judged.clip(0.0, 1.0)),
        residual=float(np.abs(landscape.B.entries @ x - landscape.Q.entries).max()),
        state_labels=landscape.state_labels,
        signal_labels=landscape.signal_labels,
    )


# --------------------------------------------------------------------------
# Signal-priors route: start from the stationary vector of the hypotheticals
# --------------------------------------------------------------------------


class SignalPriorsResult(NamedTuple):
    """Identification that first pulls the signal marginal out of the hypotheticals.

    ``marginal`` is the eigenvalue-1 record of Qᵀ over the signals: one
    stationary marginal, or, when Q is reducible, one ray per signal class
    with that ray's support. Each marginal m induces the prior Bᵀm, so the
    prior is a family exactly when the marginal is, and a structure is given
    only for a unique prior that is positive on every state.
    """

    marginal: EigenvalueOneResult
    prior: PriorFamily
    structure: InformationStructure | None

    @property
    def kind(self) -> str:
        return self.marginal.kind


def signal_priors_identify(
    landscape: BeliefLandscape, tol: Tolerances = DEFAULT_TOLERANCES
) -> SignalPriorsResult:
    """Marginal from the hypotheticals' stationary vector, then prior, then structure.

    The marginal is the eigenvalue-1 step of the judge taken on Qᵀ; each marginal
    m induces the prior Bᵀm. A family's vectors are its induced priors set to zero
    outside their supports, which are its classes. B is not factorized.
    """
    b = landscape.B.entries
    marginal = EigenvalueOneResult(*_fixed_vectors(landscape.Q.entries.T, tol))
    if marginal.kind == "none":
        raise NotModelGeneratedError("the hypothetical matrix has no stationary signal distribution")
    induced = tuple(b.T @ m for m in marginal.vectors)
    classes, structure = (), None
    if marginal.kind == "family":
        induced = tuple(np.where(p > tol.tol_entry, p, 0.0) for p in induced)
        classes = tuple(tuple(np.flatnonzero(p).tolist()) for p in induced)
    elif induced[0].min() > tol.tol_entry:
        structure = InformationStructure(
            _bayes_structure(b, marginal.vectors[0], induced[0]),
            state_labels=landscape.state_labels,
            signal_labels=landscape.signal_labels,
        )
    prior = PriorFamily(marginal.kind, induced, classes, landscape.state_labels)
    return SignalPriorsResult(marginal, prior, structure)


def identify_single_column(
    beliefs: StateBeliefMatrix, hypothetical_column, tol: Tolerances = DEFAULT_TOLERANCES
) -> np.ndarray:
    """Per-state probabilities of one signal from its hypothetical column alone."""
    remedy = "a single column identifies nothing here"
    operator, column = _regression_guard(beliefs, tol, remedy, hypothetical_column)
    return operator @ column


class StateInference(NamedTuple):
    """Which state matches an observed signal share; None when ambiguous."""

    state_index: int | None
    ambiguous: bool
    gaps: tuple[float, ...]


def infer_state(
    structure_column, observed_share: float, tol: Tolerances = DEFAULT_TOLERANCES
) -> StateInference:
    """Match the observed population share of one signal against its per-state probabilities.

    The nearest entry wins unless the runner-up is within ``tol_match`` of it or the
    winning entry has a near-duplicate. A column that is not 1-D or is empty, a share that
    is not one number in [0, 1], and a nan or inf in either raise StructuralError.
    """
    column = _array(structure_column, "structure column", 1)
    if not column.size:
        raise StructuralError("no states to match the observation against")
    gaps = np.abs(column - _share(observed_share, "observed share"))
    order = np.argsort(gaps, kind="stable")
    best = int(order[0])
    duplicates = np.abs(column - column[best]) <= 2 * tol.tol_match
    ambiguous = gaps.size > 1 and bool(gaps[order[1]] - gaps[best] < tol.tol_match)
    ambiguous = ambiguous or int(duplicates.sum()) > 1
    return StateInference(
        state_index=None if ambiguous else best,
        ambiguous=ambiguous,
        gaps=tuple(float(g) for g in gaps),
    )


# --------------------------------------------------------------------------
# Non-common-prior rationalization
# --------------------------------------------------------------------------


class NonCommonPriorRationalization(NamedTuple):
    """One prior per belief type that reproduces that type's rows exactly: row ``s`` of
    ``priors`` (signals x states, read-only) is type ``s``'s prior.

    Every plausible landscape whose regression output is a valid structure
    can be rationalized this way even when no single common prior works.
    """

    structure: InformationStructure
    priors: np.ndarray
    belief_residuals: tuple[float, ...]
    hypothetical_residuals: tuple[float, ...]

    @property
    def type_priors(self) -> tuple[Prior, ...]:
        """The rows of ``priors`` as labelled :class:`Prior` values, built on each read."""
        return tuple(Prior(p, state_labels=self.structure.state_labels) for p in self.priors)


def rationalize_noncommon(
    landscape: BeliefLandscape, tol: Tolerances = DEFAULT_TOLERANCES
) -> NonCommonPriorRationalization:
    """Per-type priors under the regression structure.

    For each belief type, the prior is proportional to belief / structure
    entry by entry; it exists whenever the structure supports the beliefs and
    the type puts positive belief on some state the structure supports.
    """
    partial = identify_structure(landscape.B, landscape.Q, tol)
    weights = partial.structure.entries.T  # signals x states, aligned with the beliefs
    b = landscape.B.entries
    supported = weights > tol.tol_entry
    unsupported = ~supported & (np.abs(b) > tol.tol_entry)
    if unsupported.any():
        s, theta = np.argwhere(unsupported)[0]  # first offender, signal-major
        raise StructureSupportError(
            f"structure puts no probability on signal {landscape.signal_labels[s]}"
            f" in state {landscape.state_labels[theta]}, but the belief there"
            f" is {b[s, theta]:.6g}"
        )
    ratios = np.divide(np.maximum(b, 0.0), weights, out=np.zeros_like(b), where=supported)
    mass = ratios.sum(axis=1, keepdims=True)
    if not (mass > 0.0).all():
        s = int(np.argmin(mass[:, 0] > 0.0))  # first massless type
        raise StructuralError(
            f"belief type {landscape.signal_labels[s]} has no positive belief"
            " on a state the structure supports"
        )
    priors = _array(ratios / mass, "prior", 2)
    reproduced_b = priors * weights
    reproduced_b = reproduced_b / reproduced_b.sum(axis=1, keepdims=True)
    reproduced_q = b @ partial.structure.entries
    return NonCommonPriorRationalization(
        structure=partial.structure,
        priors=priors,
        belief_residuals=tuple(np.max(np.abs(reproduced_b - b), axis=1).tolist()),
        hypothetical_residuals=tuple(
            np.max(np.abs(reproduced_q - landscape.Q.entries), axis=1).tolist()
        ),
    )


# --------------------------------------------------------------------------
# Removing linear dependencies: a dependent state is one "split apart" from
# the states whose belief columns mix to its own.
# --------------------------------------------------------------------------


class ReductionResult(NamedTuple):
    """A full-rank reduced landscape plus the recipe to embed results back.

    Each removed belief column equals a nonnegative mixture of kept columns;
    kept columns are rescaled by one plus their total mixture weight, which
    keeps rows summing to one. Embedding spreads the identified prior back
    and rebuilds removed structure rows as prior-weighted mixtures of kept
    rows; a removed state with no mass (all its weights zero: a zero belief
    column) gets prior zero and the uniform row, as the judge gives an unseen
    state. That regenerates the landscape when each removed column is
    proportional to one kept column (a split state); a column that mixes two
    or more is absorbed into their rows, and the embedding in general misses Q.
    So no verdict reads :meth:`embed`: the ``reduce`` command reports the judge's.
    """

    reduced: BeliefLandscape
    kept_states: tuple[int, ...]
    removed_states: tuple[int, ...]
    mixing_weights: tuple[np.ndarray, ...]
    column_scale: np.ndarray
    state_labels: tuple[str, ...]

    @property
    def trivial(self) -> bool:
        return not self.removed_states

    def embed(
        self, structure: InformationStructure, prior: Prior
    ) -> tuple[InformationStructure, Prior]:
        """Map a reduced structure and prior back onto the full state space."""
        n_full, b = len(self.state_labels), self.reduced.B
        for what, given in (("structure", structure), ("prior", prior)):
            _same_axis("state", "reduced B", b.n_states, what, given.n_states,
                       b.state_labels, given.state_labels)
        _same_axis("signal", "reduced B", b.n_signals, "structure", structure.n_signals,
                   b.signal_labels, structure.signal_labels)
        full_prior = np.zeros(n_full)
        kept = list(self.kept_states)
        full_prior[kept] = prior.entries / self.column_scale
        rows = np.zeros((n_full, structure.n_signals))
        rows[kept] = structure.entries
        for removed, weights in zip(self.removed_states, self.mixing_weights):
            mass = weights * full_prior[kept]
            total = mass.sum()
            full_prior[removed] = total
            if total > 0:
                rows[removed] = (mass / total) @ structure.entries
            elif weights.any():
                rows[removed] = (weights / weights.sum()) @ structure.entries
            else:
                rows[removed] = 1.0 / structure.n_signals
        return (
            InformationStructure(
                rows, state_labels=self.state_labels, signal_labels=structure.signal_labels
            ),
            Prior(full_prior, state_labels=self.state_labels),
        )


def reduce_dependencies(
    landscape: BeliefLandscape, tol: Tolerances = DEFAULT_TOLERANCES
) -> ReductionResult:
    """Drop dependent belief columns and rescale so the reduced matrix is full rank.

    Columns are kept greedily in index order while they increase the rank;
    each dropped column must be a nonnegative mixture of the kept ones,
    otherwise the split-state reading does not apply. Both come from the null
    basis N of B's cached SVD (orthonormal rows), with no other factorization.
    Column j adds no rank to the columns before it exactly when some null vector
    is nonzero at j and zero past it, so the dropped columns are those that,
    scanned from the last, add rank to N's columns already dropped. N is known
    to within the rank cutoff over B's smallest singular value above it, which
    sets what adds rank. The kept columns K and dropped ones R split B N = 0 into
    B_K N_Kᵀ = -B_R N_Rᵀ, so the mixing weights are -N_R⁻¹ N_K, those at or below
    ``tol_entry`` set to exactly zero. A dropped column outside the span of the kept
    ones, or needing a negative weight, raises NotConvexDependentError.
    """
    b = landscape.B.entries
    n_states = landscape.n_states
    svd = landscape.B._svd
    rank = svd.rank(tol)
    if rank == n_states:
        return ReductionResult(
            reduced=landscape,
            kept_states=tuple(range(n_states)),
            removed_states=(),
            mixing_weights=(),
            column_scale=np.ones(n_states),
            state_labels=landscape.state_labels,
        )
    null = svd.vt[rank:]
    cutoff = tol.rank_cutoff(svd.s) / svd.s[rank - 1] if rank else 0.0
    directions = np.zeros((0, null.shape[0]))  # orthonormal, spanning the dropped columns of N
    removed = []
    for j in range(n_states - 1, -1, -1):
        column = null[:, j] - directions.T @ (directions @ null[:, j])
        size = np.linalg.norm(column)
        if size > cutoff:
            removed.insert(0, j)
            directions = np.vstack([directions, column / size])
            if len(removed) == null.shape[0]:
                break
    else:
        raise NotConvexDependentError(
            "the dependent columns are not separable within the rank cutoff"
        )
    kept = [j for j in range(n_states) if j not in removed]
    kept_matrix = b[:, kept]
    coefficients = -np.linalg.solve(null[:, removed], null[:, kept]).T
    # One refinement step through B⁺ from the same SVD: Z = B⁺G for the gap
    # G = B_R - B_K W gives B_K (Z_K + W Z_R) = G - G Z_R, a second-order remainder.
    # N's rounding is divided by N_R's entries, which shrink as the weights grow;
    # the step brings the weights to a regression's accuracy.
    z = svd.pinv(tol) @ (b[:, removed] - kept_matrix @ coefficients)
    coefficients = coefficients + z[kept] + coefficients @ z[removed]
    residuals = np.max(np.abs(kept_matrix @ coefficients - b[:, removed]), axis=0)
    for j, w, residual in zip(removed, coefficients.T, residuals):
        if residual > tol.tol_match:
            raise NotConvexDependentError(
                f"column {landscape.state_labels[j]} is not in the span of the kept columns"
            )
        if w.min() < -tol.tol_entry:
            raise NotConvexDependentError(
                f"column {landscape.state_labels[j]} needs negative weight"
                f" {w.min():.6g} on a kept column"
            )
    weights = np.where(coefficients.T > tol.tol_entry, coefficients.T, 0.0)
    scale = 1.0 + weights.sum(axis=0)
    reduced_b = kept_matrix * scale[None, :]
    kept_labels = tuple(landscape.state_labels[j] for j in kept)
    reduced = BeliefLandscape(
        StateBeliefMatrix(
            reduced_b, state_labels=kept_labels, signal_labels=landscape.signal_labels
        ),
        landscape.Q,
    )
    return ReductionResult(
        reduced=reduced,
        kept_states=tuple(kept),
        removed_states=tuple(removed),
        mixing_weights=tuple(weights),
        column_scale=scale,
        state_labels=landscape.state_labels,
    )


# --------------------------------------------------------------------------
# Partitional structures
# --------------------------------------------------------------------------


class PartitionResult(NamedTuple):
    """Partition read off a landscape whose hypothetical matrix is the identity: deterministic
    signals, one cell per signal, in signal order; states outside every cell carry prior zero."""

    partitional: bool
    cells: tuple[tuple[int, ...], ...]
    zero_prior_states: tuple[int, ...]


def detect_partitional(
    landscape: BeliefLandscape, tol: Tolerances = DEFAULT_TOLERANCES
) -> PartitionResult:
    """Identity hypotheticals characterize deterministic (partitional) signals.

    The cells are the judge's classes (one signal: its unique prior's support), each at the
    signal whose belief row carries its first state. A landscape the judge rejects, or whose
    classes are not one disjoint cell per signal (possible near ``tol_entry``), is inconsistent.
    """
    if np.max(np.abs(landscape.Q.entries - np.eye(landscape.n_signals))) > tol.tol_match:
        return PartitionResult(partitional=False, cells=(), zero_prior_states=())
    judgement = _judge(landscape, tol)
    if judgement.failed:
        failed = ", ".join(judgement.failed)
        raise InconsistentLandscapeError(f"identity hypotheticals the judge rejects (failed: {failed})")
    prior = judgement.prior
    cells = prior.classes or (tuple(np.flatnonzero(prior.vectors[0] > tol.tol_entry).tolist()),)
    covered = np.bincount([i for cell in cells for i in cell], minlength=landscape.n_states)
    if len(cells) != landscape.n_signals or covered.max() > 1:
        raise InconsistentLandscapeError("identity hypotheticals, but not one disjoint class per signal")
    cells = tuple(sorted(cells, key=lambda cell: landscape.B.entries[:, cell[0]].argmax()))
    zero_prior = tuple(np.flatnonzero(covered == 0).tolist())
    return PartitionResult(partitional=True, cells=cells, zero_prior_states=zero_prior)
