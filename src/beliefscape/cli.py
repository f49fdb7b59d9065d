"""Command-line interface.

Reads landscape or environment files (JSON, or paired CSV matrices), runs the
forward or inverse procedures, and prints a deterministic report to standard
output. ``-`` means standard input or output. Each command's handler returns
what it found; ``main`` writes the one report and maps its verdict to the exit
code: 0 success, 1 structural error or failed selftest, 2 inconsistent,
infeasible or ambiguous verdict, 64 usage.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings

import numpy as np

from .core import (
    DEFAULT_TOLERANCES,
    BeliefscapeError,
    DroppedSignalWarning,
    HypotheticalBeliefMatrix,
    InconsistentLandscapeError,
    NotConvexDependentError,
    NotModelGeneratedError,
    StructuralError,
    StructureSupportError,
    Tolerances,
    Violation,
    _positive_finite,
    _share,
    validate_environment,
    validate_landscape,
)
from .fileio import (
    ParseError,
    _named,
    beliefs_and_column_from_doc,
    dumps_report,
    environment_from_doc,
    landscape_from_doc,
    landscape_to_doc,
    load_environment,
    load_landscape,
    load_matrix,
    read_document,
    save_landscape,
)
from .forward import generate_landscape
from .inverse import (
    IdentificationResult,
    PriorFamily,
    _judge,
    _sign_floor,
    _verdict,
    consistency_check,
    detect_partitional,
    identify_single_column,
    identify_underdetermined,
    infer_state,
    rationalize_noncommon,
    reduce_dependencies,
    signal_priors_identify,
)
from .linalg import _SVD, Regularizer

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_VERDICT = 2
EXIT_USAGE = 64

# Errors that are machine-detectable findings about the data, not breakage.
_VERDICT_ERRORS = (
    InconsistentLandscapeError,
    NotConvexDependentError,
    NotModelGeneratedError,
    StructureSupportError,
)

# Verdicts that end in a nonzero exit; every other verdict, or none, exits 0.
_VERDICT_EXIT = {"inconsistent": EXIT_VERDICT, "infeasible": EXIT_VERDICT,
                 "ambiguous": EXIT_VERDICT, "fail": EXIT_ERROR}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; usage errors are 64 here
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


_TOLERANCE_NAMES = tuple(name.removeprefix("tol_") for name in Tolerances._fields)  # --tol-<name>


def _number_type(parse, rule, what: str):
    """An argparse type: ``core``'s ``rule`` on the ``parse``d text; any ValueError is a usage error."""

    def convert(text: str):
        try:
            return rule(parse(text), what)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {what}: {text!r}") from None

    return convert


_positive_value = _number_type(float, _positive_finite, "positive finite value")
_unit_interval = _number_type(float, _share, "value in [0, 1]")
_positive_int = _number_type(int, _positive_finite, "positive integer")


def build_parser() -> _Parser:
    parser = _Parser(prog="beliefscape", description=__doc__)
    common = argparse.ArgumentParser(add_help=False)  # the flags every command takes
    for name in _TOLERANCE_NAMES:
        default = getattr(DEFAULT_TOLERANCES, f"tol_{name}")
        common.add_argument(f"--tol-{name}", type=_positive_value, default=default, metavar="X")
    common.add_argument("--format", choices=("json", "pretty"), default="json")
    common.add_argument("--no-validate", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("generate", parents=[common], help="landscape from an environment file")
    p.add_argument("path")
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("identify", parents=[common], help="recover structure and prior")
    p.add_argument("path")
    p.add_argument("--column", default=None, metavar="SIGNAL", help="regress a single column")

    p = sub.add_parser("sp", parents=[common], help="signal-priors identification")
    p.add_argument("path")

    p = sub.add_parser("ridge", parents=[common], help="minimum-norm route (more states than signals)")
    p.add_argument("path")
    p.add_argument("--lambda", dest="lam", type=_positive_value, default=None, metavar="X")
    p.add_argument("--reg", default=None, metavar="FILE", help="regularizer matrix file")

    p = sub.add_parser("check", parents=[common], help="consistency verdict for a landscape")
    p.add_argument("path")

    p = sub.add_parser("rationalize", parents=[common], help="per-type priors without a common prior")
    p.add_argument("path")

    p = sub.add_parser("reduce", parents=[common], help="remove dependent belief columns")
    p.add_argument("path")

    p = sub.add_parser("partition", parents=[common], help="detect deterministic signals")
    p.add_argument("path")

    p = sub.add_parser("infer-state", parents=[common], help="match a signal share to a state")
    p.add_argument("path", help="environment or landscape file")
    p.add_argument("--signal", required=True)
    p.add_argument("--share", required=True, type=_unit_interval)

    p = sub.add_parser("selftest", parents=[common], help="run the built-in checks")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=_positive_int, default=50)

    return parser


def _report(ns, argv, inputs, result, verdict=None, warning_list=()):
    doc = {
        "command": ns.command,
        "argv": list(argv),
        "inputs": dict(inputs),
        "tolerances": {name: getattr(ns, f"tol_{name}") for name in _TOLERANCE_NAMES},
    }
    if verdict is not None:
        doc["verdict"] = verdict
    doc["result"] = result
    doc["warnings"] = list(warning_list)
    return doc


def _prior_payload(prior: PriorFamily) -> dict:
    if prior.kind == "unique":
        return {
            "kind": "unique",
            "states": list(prior.state_labels),
            "values": prior.vectors[0],
        }
    return {
        "kind": "family",
        "states": list(prior.state_labels),
        "classes": [
            {"states": [prior.state_labels[i] for i in states], "weights": vector[list(states)]}
            for states, vector in zip(prior.classes, prior.vectors)
        ],
    }


def _identification_payload(result: IdentificationResult) -> dict:
    diag = result.diagnostics
    payload = {
        "states": list(result.structure.state_labels),
        "signals": list(result.structure.signal_labels),
        "structure": result.structure.entries,
        "consistent_structure": result.consistent_structure,
        "restoration_kind": result.restoration_kind,
        "diagnostics": {
            "residual": diag.residual,
            "max_row_sum_error": diag.max_row_sum_error,
            "clipped_entries": diag.clipped_entries,
            "negative_entries": [
                {"state": s, "signal": g, "value": v} for s, g, v in diag.negative_entries
            ],
        },
    }
    if diag.roundtrip_belief_error is not None:
        payload["diagnostics"]["roundtrip_belief_error"] = diag.roundtrip_belief_error
        payload["diagnostics"]["roundtrip_hypothetical_error"] = diag.roundtrip_hypothetical_error
    if result.prior is not None:
        payload["prior"] = _prior_payload(result.prior)
    if result.peer_accuracy is not None:
        payload["peer_accuracy"] = result.peer_accuracy
    return payload


def _clip_warnings(result: IdentificationResult) -> list[str]:
    count = result.diagnostics.clipped_entries
    if count == 0:
        return []
    return [f"snapped {count} structure entr{'y' if count == 1 else 'ies'} into [0, 1]"]


def _validate_or_fail(kind: str, violations) -> None:
    if violations:
        details = "; ".join(v.describe() for v in violations)
        raise StructuralError(f"{kind} failed validation: {details}")


def _load_validated_landscape(ns, tol, inputs):
    landscape, digests = load_landscape(ns.path)
    inputs.update(digests)
    if not ns.no_validate:
        _validate_or_fail("landscape", validate_landscape(landscape.B, landscape.Q, tol).violations)
    return landscape


def _judged(ns, tol, inputs):
    """The loaded landscape, the judge's route, its consistency verdict and the verdict's label."""
    landscape = _load_validated_landscape(ns, tol, inputs)
    judgement = _judge(landscape, tol)
    verdict = _verdict(landscape, judgement, tol)
    label = "consistent" if verdict.consistent else "inconsistent"
    return landscape, judgement.route, verdict, label


def _load_regularizer(path: str, n_states: int, inputs) -> Regularizer:
    """The --reg matrix: a JSON {"matrix": rows} or a CSV matrix, n_states x n_states."""
    matrix, digests = load_matrix(path, n_states, n_states)
    inputs.update(digests)
    return _named(path, lambda: Regularizer(matrix))


# --------------------------------------------------------------------------
# Command handlers: each loads its files through ``fileio``, records the
# digests it returns in ``inputs`` at once, so a report cut short by a verdict
# error still names them, and returns (result, verdict, warnings), which main
# turns into the one report and the exit code; None means the handler wrote
# its own output (generate's pipeline mode).
# --------------------------------------------------------------------------


def _cmd_generate(ns, tol, inputs):
    env, digests = load_environment(ns.path)
    inputs.update(digests)
    if not ns.no_validate:
        _validate_or_fail("environment", validate_environment(env, tol).violations)
    with warnings.catch_warnings(record=True) as buffer:
        warnings.simplefilter("always", DroppedSignalWarning)
        landscape = generate_landscape(env, tol)
        caught = [str(w.message) for w in buffer if issubclass(w.category, DroppedSignalWarning)]
    if ns.output is None or ns.output == "-":
        # Pipeline mode: stdout carries the landscape document itself, stderr the warnings.
        sys.stdout.write(dumps_report(landscape_to_doc(landscape)))
        for message in caught:
            print(f"beliefscape: warning: {message}", file=sys.stderr)
        return None
    save_landscape(landscape, ns.output)
    result = {
        "output": ns.output,
        "states": list(landscape.state_labels),
        "signals": list(landscape.signal_labels),
    }
    return result, None, caught


def _cmd_identify(ns, tol, inputs):
    if ns.column is not None:
        doc, name, digests = read_document(ns.path)
        inputs.update(digests)
        beliefs, column = beliefs_and_column_from_doc(doc, ns.column, name)
        if not ns.no_validate:
            # Q may be the one column: the identity stands in for Q, and the column's
            # entries must be probabilities.
            stand_in = HypotheticalBeliefMatrix(np.eye(beliefs.n_signals), beliefs.signal_labels)
            violations = validate_landscape(beliefs, stand_in, tol).violations + tuple(
                Violation("entry outside [0, 1]", f"Q[{signal}, {ns.column}]", float(value))
                for signal, value in zip(beliefs.signal_labels, column)
                if not -tol.tol_entry <= value <= 1 + tol.tol_entry
            )
            _validate_or_fail("landscape", violations)
        probabilities = identify_single_column(beliefs, column, tol)
        floor = _sign_floor(beliefs._svd, tol)  # the band the full identify allows X
        outside = [
            Violation("per-state probability outside [0, 1]", state, float(value)).describe()
            for state, value in zip(beliefs.state_labels, probabilities)
            if not -floor <= value <= 1 + floor
        ]
        result = {
            "signal": ns.column,
            "states": list(beliefs.state_labels),
            "per_state_probability": probabilities,
        }
        return result, "inconsistent" if outside else None, outside
    _, route, verdict, label = _judged(ns, tol, inputs)
    result = {"route": route, **_identification_payload(verdict.identification)}
    result["consistency"] = {"consistent": verdict.consistent, "failed": list(verdict.failed)}
    return result, label, _clip_warnings(verdict.identification)


def _cmd_sp(ns, tol, inputs):
    landscape = _load_validated_landscape(ns, tol, inputs)
    sp = signal_priors_identify(landscape, tol)
    result = {
        "kind": sp.kind,
        "prior": _prior_payload(sp.prior),
        "signals": list(landscape.signal_labels),
    }
    if sp.kind == "unique":
        result["marginal"] = sp.marginal.vectors[0]
        if sp.structure is not None:
            result["structure"] = sp.structure.entries
    else:
        result["marginal_family"] = list(sp.marginal.vectors)
    return result, None, ()


def _cmd_ridge(ns, tol, inputs):
    landscape = _load_validated_landscape(ns, tol, inputs)
    reg = _load_regularizer(ns.reg, landscape.n_states, inputs) if ns.reg else None
    under = identify_underdetermined(landscape, tol)
    # --reg moves only the ridge numbers, which all read one factorization
    svd = landscape.B._svd if reg is None else _SVD.of(landscape.B.entries, reg)
    q = landscape.Q.entries
    ridge_limit = under.ridge_limit if reg is None else svd.solve(q, tol)
    result = {
        "states": list(under.state_labels),
        "signals": list(under.signal_labels),
        "ridge_limit": ridge_limit,
        "residual": float(np.max(np.abs(landscape.B.entries @ ridge_limit - q))),
        "null_basis": list(under.null_basis.vectors),
        "prior": _prior_payload(under.prior),
        "restoration": {
            "kind": under.restored.kind,
            "structure": under.restored.structure,
            # null-basis coefficients left free once row sums pin their totals
            "free_directions": under.null_basis.dimension * max(landscape.n_signals - 1, 0),
        },
    }
    if ns.lam is not None:
        at_lambda = svd.solve(q, tol, ns.lam)
        result["ridge_at_lambda"] = {
            "lambda": ns.lam,
            "solution": at_lambda,
            "gap_to_limit": float(np.max(np.abs(at_lambda - ridge_limit))),
        }
    return result, "infeasible" if under.restored.kind == "infeasible" else "feasible", ()


def _cmd_check(ns, tol, inputs):
    _, route, verdict, label = _judged(ns, tol, inputs)
    result = {
        "route": route,
        "consistent": verdict.consistent,
        "restoration_kind": verdict.identification.restoration_kind,
        "failed": list(verdict.failed),
        "diagnostics": _identification_payload(verdict.identification)["diagnostics"],
    }
    return result, label, _clip_warnings(verdict.identification)


def _cmd_rationalize(ns, tol, inputs):
    landscape = _load_validated_landscape(ns, tol, inputs)
    rat = rationalize_noncommon(landscape, tol)
    result = {
        "states": list(landscape.state_labels),
        "signals": list(landscape.signal_labels),
        "structure": rat.structure.entries,
        "type_priors": rat.priors,
        "belief_residuals": rat.belief_residuals,
        "hypothetical_residuals": rat.hypothetical_residuals,
    }
    return result, None, ()


def _cmd_reduce(ns, tol, inputs):
    landscape, _, verdict, label = _judged(ns, tol, inputs)
    try:
        reduction = reduce_dependencies(landscape, tol)
    except NotConvexDependentError as exc:
        if not verdict.consistent:
            raise  # main reports the finding as infeasible
        # no split-state reading, but the judge's environment generates the data
        result = {"split_state": False, "message": str(exc)}
    else:
        result = {
            "trivial": reduction.trivial,
            "kept_states": [landscape.state_labels[i] for i in reduction.kept_states],
            "removed_states": [landscape.state_labels[i] for i in reduction.removed_states],
            "mixing_weights": {
                landscape.state_labels[removed]: weights
                for removed, weights in zip(reduction.removed_states, reduction.mixing_weights)
            },
            "reduced_beliefs": reduction.reduced.B.entries,
        }
        if reduction.trivial:
            return result, None, ()
    # No embedding of the reduced landscape regenerates a removed state that mixes
    # two kept ones, which is model data; so the judge gives verdict and environment.
    result["consistency"] = {"consistent": verdict.consistent, "failed": list(verdict.failed)}
    if verdict.consistent:
        found = verdict.identification
        result["embedded_structure"] = found.structure.entries
        result["embedded_prior"] = found.prior.representative().entries
    return result, label, ()


def _cmd_partition(ns, tol, inputs):
    landscape = _load_validated_landscape(ns, tol, inputs)
    partition = detect_partitional(landscape, tol)
    if not partition.partitional:
        return {"partitional": False}, "not_partitional", ()
    result = {
        "partitional": True,
        "cells": [[landscape.state_labels[i] for i in cell] for cell in partition.cells],
        "zero_prior_states": [landscape.state_labels[i] for i in partition.zero_prior_states],
    }
    return result, "partitional", ()


def _cmd_infer_state(ns, tol, inputs):
    doc, name, digests = read_document(ns.path)
    inputs.update(digests)
    if "I" in doc and "prior" in doc:
        env = environment_from_doc(doc, name)
        if not ns.no_validate:
            _validate_or_fail("environment", validate_environment(env, tol).violations)
        structure, source = env.structure, "environment"
    else:
        landscape = landscape_from_doc(doc, name)
        if not ns.no_validate:
            _validate_or_fail("landscape", validate_landscape(landscape.B, landscape.Q, tol).violations)
        verdict = consistency_check(landscape, tol)
        if not verdict.consistent:
            raise InconsistentLandscapeError(
                f"{name}: no common-prior environment generates the landscape"
                f" (failed: {', '.join(verdict.failed)}); no state to infer"
            )
        structure, source = verdict.identification.structure, "identified landscape"
    if ns.signal not in structure.signal_labels:
        raise ParseError(f"{name}: no signal labelled {ns.signal!r}")
    column = structure.entries[:, structure.signal_labels.index(ns.signal)]
    inference = infer_state(column, ns.share, tol)
    result = {
        "source": source,
        "signal": ns.signal,
        "observed_share": ns.share,
        "per_state_probability": column,
        "ambiguous": inference.ambiguous,
        "state": None
        if inference.state_index is None
        else structure.state_labels[inference.state_index],
    }
    return result, "ambiguous" if inference.ambiguous else "matched", ()


def _cmd_selftest(ns, tol, inputs):
    from .selfcheck import run_selftest  # loads the fixtures; no other command needs either

    checks = run_selftest(seed=ns.seed, trials=ns.trials, tol=tol)
    n_pass = sum(1 for _, ok, _ in checks if ok)
    result = {
        "passed": n_pass,
        "failed": len(checks) - n_pass,
        "checks": [
            {"name": name, "ok": ok, **({"detail": detail} if detail else {})}
            for name, ok, detail in checks
        ],
    }
    return result, "pass" if n_pass == len(checks) else "fail", ()


_HANDLERS = {
    "generate": _cmd_generate,
    "identify": _cmd_identify,
    "sp": _cmd_sp,
    "ridge": _cmd_ridge,
    "check": _cmd_check,
    "rationalize": _cmd_rationalize,
    "reduce": _cmd_reduce,
    "partition": _cmd_partition,
    "infer-state": _cmd_infer_state,
    "selftest": _cmd_selftest,
}


# --------------------------------------------------------------------------
# Rendering
# --------------------------------------------------------------------------


def _is_matrix(value) -> bool:
    return (
        isinstance(value, list)
        and value
        and all(isinstance(r, list) and all(isinstance(c, (int, float)) for c in r) for r in value)
    )


def _pretty_lines(value, indent: int = 0) -> list[str]:
    pad = "  " * indent
    lines: list[str] = []
    if isinstance(value, dict):
        for key, item in value.items():
            if isinstance(item, (dict, list)) and not _is_matrix(item) and item:
                lines.append(f"{pad}{key}:")
                lines.extend(_pretty_lines(item, indent + 1))
            elif _is_matrix(item):
                lines.append(f"{pad}{key}:")
                width = max(len(f"{c:.6g}") for r in item for c in r)
                for row in item:
                    cells = "  ".join(f"{c:.6g}".rjust(width) for c in row)
                    lines.append(f"{pad}  [{cells}]")
            else:
                lines.append(f"{pad}{key}: {json.dumps(item)}")
    elif isinstance(value, list):
        for item in value:
            if isinstance(item, (dict, list)):
                lines.extend(_pretty_lines(item, indent))
            else:
                lines.append(f"{pad}- {json.dumps(item)}")
    return lines


def _render(doc: dict, ns) -> str:
    text = dumps_report(doc)
    if ns.format == "json":
        return text
    lines = _pretty_lines(json.loads(text))
    if "verdict" in doc and sys.stdout.isatty() and not os.environ.get("NO_COLOR"):
        exits_ok = _VERDICT_EXIT.get(doc["verdict"], EXIT_OK) == EXIT_OK
        color = "\033[32m" if exits_ok else "\033[31m"
        lines = [
            line.replace(f'verdict: "{doc["verdict"]}"', f'verdict: {color}{doc["verdict"]}\033[0m')
            for line in lines
        ]
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    ns = build_parser().parse_args(argv)
    tol = Tolerances(**{f"tol_{name}": getattr(ns, f"tol_{name}") for name in _TOLERANCE_NAMES})
    finding = None
    inputs: dict[str, str] = {}
    try:
        try:
            outcome = _HANDLERS[ns.command](ns, tol, inputs)
        except _VERDICT_ERRORS as exc:
            # A finding about the data, not breakage: reported as an infeasible result.
            finding = exc
            outcome = {"error": type(exc).__name__, "message": str(exc)}, "infeasible", ()
        if outcome is None:
            return EXIT_OK
        result, verdict, warning_list = outcome
        sys.stdout.write(_render(_report(ns, argv, inputs, result, verdict, warning_list), ns))
    except (BeliefscapeError, OSError) as exc:
        print(f"beliefscape: error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    if finding is not None:
        print(f"beliefscape: {finding}", file=sys.stderr)
    return _VERDICT_EXIT.get(verdict, EXIT_OK)


if __name__ == "__main__":
    raise SystemExit(main())
