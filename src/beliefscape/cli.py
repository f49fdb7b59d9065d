"""Command-line interface.

Reads landscape or environment files (JSON, or paired CSV matrices), runs the
forward or inverse procedures, and prints a deterministic report to standard
output. ``-`` means standard input or output. Exit codes: 0 success,
1 structural error, 2 inconsistent/infeasible/ambiguous verdict, 64 usage.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from .core import (
    DEFAULT_TOLERANCES,
    BeliefscapeError,
    DroppedSignalWarning,
    InconsistentLandscapeError,
    NotConvexDependentError,
    NotModelGeneratedError,
    StructuralError,
    StructureSupportError,
    Tolerances,
    validate_environment,
    validate_landscape,
)
from .fileio import (
    ParseError,
    dumps_report,
    jsonable,
    landscape_to_doc,
    load_environment,
    load_landscape,
    read_document,
    save_landscape,
    sha256_hex,
)
from .forward import generate_landscape
from .identify import (
    IdentificationResult,
    PriorFamily,
    consistency_check,
    detect_partitional,
    identify,
    identify_single_column,
    identify_underdetermined,
    infer_state,
    rationalize_noncommon,
    reduce_dependencies,
    signal_priors_identify,
)
from .linalg import ridge_solution_at
from .selfcheck import run_selftest

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


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; usage errors are 64 here
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


_TOLERANCE_NAMES = ("stochastic", "entry", "rank", "match")  # --tol-<name>, Tolerances.tol_<name>


def _common_flags() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    for name in _TOLERANCE_NAMES:
        default = getattr(DEFAULT_TOLERANCES, f"tol_{name}")
        common.add_argument(f"--tol-{name}", type=float, default=default, metavar="X")
    common.add_argument("--format", choices=("json", "pretty"), default="json")
    common.add_argument("--no-validate", action="store_true")
    return common


def build_parser() -> _Parser:
    parser = _Parser(prog="beliefscape", description=__doc__)
    common = _common_flags()
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
    p.add_argument("--lambda", dest="lam", type=float, default=None, metavar="X")
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
    p.add_argument("--share", required=True, type=float)

    p = sub.add_parser("selftest", parents=[common], help="run the built-in checks")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=50)

    return parser


def _tolerances(ns: argparse.Namespace) -> Tolerances:
    return Tolerances(**{f"tol_{name}": getattr(ns, f"tol_{name}") for name in _TOLERANCE_NAMES})


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
            "values": prior.unique_prior.entries,
        }
    return {
        "kind": "family",
        "states": list(prior.state_labels),
        "classes": [
            {"states": list(cp.state_labels), "weights": cp.weights}
            for cp in prior.class_priors
        ],
    }


def _identification_payload(result: IdentificationResult) -> dict:
    diag = result.diagnostics
    payload = {
        "states": list(result.structure.state_labels),
        "signals": list(result.structure.signal_labels),
        "structure": result.structure.entries,
        "consistent_structure": result.consistent_structure,
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


def _clip_warnings(result: IdentificationResult | None) -> list[str]:
    if result is None or result.diagnostics.clipped_entries == 0:
        return []
    count = result.diagnostics.clipped_entries
    return [f"snapped {count} structure entr{'y' if count == 1 else 'ies'} into [0, 1]"]


def _validate_or_fail(kind: str, obj_report) -> None:
    if not obj_report.plausible:
        details = "; ".join(v.describe() for v in obj_report.violations)
        raise StructuralError(f"{kind} failed validation: {details}")


def _load_validated_landscape(ns, tol):
    landscape, digests = load_landscape(ns.path)
    if not ns.no_validate:
        _validate_or_fail("landscape", validate_landscape(landscape.B, landscape.Q, tol))
    return landscape, digests


def _load_matrix_file(path: str) -> np.ndarray:
    if path.endswith(".csv"):
        from .fileio import _read_csv_matrix

        _, _, matrix = _read_csv_matrix(Path(path))
        return matrix
    doc, _, name = read_document(path)
    rows = doc.get("matrix", doc) if isinstance(doc, dict) else doc
    try:
        return np.array(rows, dtype=float)
    except (TypeError, ValueError):
        raise ParseError(f"{name}: expected a numeric matrix") from None
    except OverflowError:
        where = f"matrix{_overflow(rows)}"
        raise ParseError(f"{name}: number too large for a float at {where}") from None


def _overflow(rows: list) -> str:
    """The 1-based place of the first cell of rows (or of a flat list) that no float holds."""
    for i, row in enumerate(rows):
        for j, cell in enumerate(row if isinstance(row, list) else [row]):
            try:
                float(cell)
            except OverflowError:
                return f"[{i + 1}, {j + 1}]" if isinstance(row, list) else f"[{i + 1}]"
            except (TypeError, ValueError):
                pass
    return ""


# --------------------------------------------------------------------------
# Command handlers: each writes its report and returns (exit_code, doc)
# --------------------------------------------------------------------------


def _cmd_generate(ns, tol, argv):
    env, digests = load_environment(ns.path)
    if not ns.no_validate:
        _validate_or_fail("environment", validate_environment(env, tol))
    caught: list[str] = []
    with warnings.catch_warnings(record=True) as buffer:
        warnings.simplefilter("always", DroppedSignalWarning)
        landscape = generate_landscape(env, tol)
        caught = [str(w.message) for w in buffer if issubclass(w.category, DroppedSignalWarning)]
    if ns.output is None or ns.output == "-":
        # Pipeline mode: stdout carries the landscape document itself.
        sys.stdout.write(dumps_report(landscape_to_doc(landscape)))
        return EXIT_OK, None
    save_landscape(landscape, ns.output)
    result = {
        "output": ns.output,
        "states": list(landscape.state_labels),
        "signals": list(landscape.signal_labels),
    }
    doc = _report(ns, argv, digests, result, warning_list=caught)
    sys.stdout.write(_render(doc, ns))
    return EXIT_OK, doc


def _cmd_identify(ns, tol, argv):
    if ns.column is not None:
        if ns.path != "-" and ns.path.endswith(".csv"):
            raise ParseError("--column expects a JSON landscape document")
        landscape_doc, raw, name = read_document(ns.path)
        from .fileio import beliefs_and_column_from_doc

        beliefs, column = beliefs_and_column_from_doc(landscape_doc, ns.column, name)
        coefficients = identify_single_column(beliefs, column, tol)
        result = {
            "signal": ns.column,
            "states": list(beliefs.state_labels),
            "per_state_probability": coefficients,
        }
        doc = _report(ns, argv, {name: sha256_hex(raw)}, result)
        sys.stdout.write(_render(doc, ns))
        return EXIT_OK, doc
    landscape, digests = _load_validated_landscape(ns, tol)
    verdict = consistency_check(landscape, tol)
    result = _identification_payload(verdict.identification)
    result["consistency"] = {"consistent": verdict.consistent, "failed": list(verdict.failed)}
    label = "consistent" if verdict.consistent else "inconsistent"
    doc = _report(ns, argv, digests, result, verdict=label,
                  warning_list=_clip_warnings(verdict.identification))
    sys.stdout.write(_render(doc, ns))
    return EXIT_OK if verdict.consistent else EXIT_VERDICT, doc


def _cmd_sp(ns, tol, argv):
    landscape, digests = _load_validated_landscape(ns, tol)
    sp = signal_priors_identify(landscape, tol)
    result = {"kind": sp.kind, "prior": _prior_payload(sp.prior)}
    if sp.kind == "unique":
        result["signals"] = list(landscape.signal_labels)
        result["marginal"] = sp.marginal.entries
        if sp.structure is not None:
            result["structure"] = sp.structure.entries
    else:
        result["signals"] = list(landscape.signal_labels)
        result["marginal_family"] = list(sp.marginal_family)
    doc = _report(ns, argv, digests, result)
    sys.stdout.write(_render(doc, ns))
    return EXIT_OK, doc


def _cmd_ridge(ns, tol, argv):
    landscape, digests = _load_validated_landscape(ns, tol)
    reg = _load_matrix_file(ns.reg) if ns.reg else None
    under = identify_underdetermined(landscape, tol, reg=reg)
    result = {
        "states": list(under.state_labels),
        "signals": list(under.signal_labels),
        "ridge_limit": under.ridge_limit,
        "residual": under.residual,
        "null_basis": list(under.null_basis.vectors),
        "prior": _prior_payload(under.prior),
        "restoration": {
            "kind": under.restored.kind,
            "structure": under.restored.structure,
            "free_directions": under.restored.affine_dimension,
        },
    }
    if ns.lam is not None:
        at_lambda = ridge_solution_at(landscape.B.entries, landscape.Q.entries, ns.lam, reg=reg)
        result["ridge_at_lambda"] = {
            "lambda": ns.lam,
            "solution": at_lambda,
            "gap_to_limit": float(np.max(np.abs(at_lambda - under.ridge_limit))),
        }
    infeasible = under.restored.kind == "infeasible"
    doc = _report(ns, argv, digests, result, verdict="infeasible" if infeasible else "feasible")
    sys.stdout.write(_render(doc, ns))
    return EXIT_VERDICT if infeasible else EXIT_OK, doc


def _cmd_check(ns, tol, argv):
    landscape, digests = _load_validated_landscape(ns, tol)
    plain_path = (
        landscape.n_states <= landscape.n_signals and landscape.B.has_full_column_rank(tol)
    )
    warning_list: list[str] = []
    if plain_path:
        verdict = consistency_check(landscape, tol)
        result = {
            "route": "regression",
            "consistent": verdict.consistent,
            "failed": list(verdict.failed),
        }
        if verdict.identification is not None:
            result["diagnostics"] = _identification_payload(verdict.identification)["diagnostics"]
            warning_list = _clip_warnings(verdict.identification)
        label = "consistent" if verdict.consistent else "inconsistent"
        code = EXIT_OK if verdict.consistent else EXIT_VERDICT
    else:
        under = identify_underdetermined(landscape, tol)
        feasible = under.restored.kind != "infeasible"
        result = {
            "route": "minimum-norm",
            "feasible": feasible,
            "restoration_kind": under.restored.kind,
            "residual": under.residual,
        }
        label = "feasible" if feasible else "infeasible"
        code = EXIT_OK if feasible else EXIT_VERDICT
    doc = _report(ns, argv, digests, result, verdict=label, warning_list=warning_list)
    sys.stdout.write(_render(doc, ns))
    return code, doc


def _cmd_rationalize(ns, tol, argv):
    landscape, digests = _load_validated_landscape(ns, tol)
    rat = rationalize_noncommon(landscape, tol)
    result = {
        "states": list(landscape.state_labels),
        "signals": list(landscape.signal_labels),
        "structure": rat.structure.entries,
        "type_priors": [p.entries for p in rat.type_priors],
        "belief_residuals": rat.belief_residuals,
        "hypothetical_residuals": rat.hypothetical_residuals,
    }
    doc = _report(ns, argv, digests, result)
    sys.stdout.write(_render(doc, ns))
    return EXIT_OK, doc


def _cmd_reduce(ns, tol, argv):
    landscape, digests = _load_validated_landscape(ns, tol)
    reduction = reduce_dependencies(landscape, tol)
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
    if not reduction.trivial:
        reduced_result = identify(reduction.reduced, tol)
        result["reduced_structure"] = reduced_result.structure.entries
        result["reduced_prior"] = _prior_payload(reduced_result.prior)
        if reduced_result.prior.kind == "unique":
            structure, prior = reduction.embed(
                reduced_result.structure, reduced_result.prior.unique_prior
            )
            result["embedded_structure"] = structure.entries
            result["embedded_prior"] = prior.entries
    doc = _report(ns, argv, digests, result)
    sys.stdout.write(_render(doc, ns))
    return EXIT_OK, doc


def _cmd_partition(ns, tol, argv):
    landscape, digests = _load_validated_landscape(ns, tol)
    partition = detect_partitional(landscape, tol)
    if partition.partitional:
        result = {
            "partitional": True,
            "cells": [[landscape.state_labels[i] for i in cell] for cell in partition.cells],
            "zero_prior_states": [
                landscape.state_labels[i] for i in partition.zero_prior_states
            ],
        }
        label = "partitional"
    else:
        result = {"partitional": False}
        label = "not_partitional"
    doc = _report(ns, argv, digests, result, verdict=label)
    sys.stdout.write(_render(doc, ns))
    return EXIT_OK, doc


def _cmd_infer_state(ns, tol, argv):
    doc_in, raw, name = read_document(ns.path)
    digests = {name: sha256_hex(raw)}
    if "I" in doc_in and "prior" in doc_in:
        from .fileio import environment_from_doc

        env = environment_from_doc(doc_in, name)
        if ns.signal not in env.signal_labels:
            raise ParseError(f"{name}: no signal labelled {ns.signal!r}")
        column = env.structure.entries[:, env.signal_labels.index(ns.signal)]
        state_labels = env.state_labels
        source = "environment"
    else:
        from .fileio import landscape_from_doc

        landscape = landscape_from_doc(doc_in, name)
        if not ns.no_validate:
            _validate_or_fail("landscape", validate_landscape(landscape.B, landscape.Q, tol))
        identified = identify(landscape, tol)
        if ns.signal not in landscape.signal_labels:
            raise ParseError(f"{name}: no signal labelled {ns.signal!r}")
        column = identified.structure.entries[:, landscape.signal_labels.index(ns.signal)]
        state_labels = landscape.state_labels
        source = "identified landscape"
    inference = infer_state(column, ns.share, tol)
    result = {
        "source": source,
        "signal": ns.signal,
        "observed_share": ns.share,
        "per_state_probability": column,
        "ambiguous": inference.ambiguous,
        "state": None
        if inference.state_index is None
        else state_labels[inference.state_index],
    }
    label = "ambiguous" if inference.ambiguous else "matched"
    doc = _report(ns, argv, digests, result, verdict=label)
    sys.stdout.write(_render(doc, ns))
    return EXIT_VERDICT if inference.ambiguous else EXIT_OK, doc


def _cmd_selftest(ns, tol, argv):
    checks = run_selftest(seed=ns.seed, trials=ns.trials)
    n_pass = sum(1 for _, ok, _ in checks if ok)
    result = {
        "passed": n_pass,
        "failed": len(checks) - n_pass,
        "checks": [
            {"name": name, "ok": ok, **({"detail": detail} if detail else {})}
            for name, ok, detail in checks
        ],
    }
    doc = _report(ns, argv, {}, result, verdict="pass" if n_pass == len(checks) else "fail")
    sys.stdout.write(_render(doc, ns))
    return EXIT_OK if n_pass == len(checks) else EXIT_ERROR, doc


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
    else:
        lines.append(f"{pad}{json.dumps(value)}")
    return lines


def _render(doc: dict, ns) -> str:
    if ns.format == "json":
        return dumps_report(doc)
    lines = _pretty_lines(jsonable(doc))
    if "verdict" in doc and sys.stdout.isatty() and not os.environ.get("NO_COLOR"):
        good = doc["verdict"] in ("consistent", "feasible", "matched", "pass", "partitional")
        color = "\033[32m" if good else "\033[31m"
        lines = [
            line.replace(f'verdict: "{doc["verdict"]}"', f'verdict: {color}{doc["verdict"]}\033[0m')
            for line in lines
        ]
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        tol = _tolerances(ns)
    except ValueError as exc:
        print(f"beliefscape: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    handler = _HANDLERS[ns.command]
    try:
        code, _ = handler(ns, tol, argv)
        return code
    except _VERDICT_ERRORS as exc:
        doc = _report(ns, argv, {}, {"error": type(exc).__name__, "message": str(exc)},
                      verdict="infeasible")
        sys.stdout.write(_render(doc, ns))
        print(f"beliefscape: {exc}", file=sys.stderr)
        return EXIT_VERDICT
    except (BeliefscapeError, OSError) as exc:
        print(f"beliefscape: error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
