"""File formats and deterministic report serialization.

JSON is canonical; CSV is provided for matrices kept in spreadsheets, and a
CSV pair is parsed as the JSON document it spells. Each input file is read
once, by ``_read``, and its digest is of the bytes parsed. Numbers are written
as decimals with 12 significant digits, which makes save/load round trips
byte-stable after the first save. The encoder is the only code that rounds:
documents hold unrounded values. ``dumps_report`` formats each float block
(float list or ndarray, or equal-length float lists) in one ``%`` call over
one template of its layout, ``_g12`` each CSV row. A ``%.12g`` token with a
point and no exponent is the rounded value's JSON; only a block with another
token (0, 1e-05, nan) goes through ``_float_tokens``. The JSON is
byte-identical to indent-2 ``json.dumps`` of the 12-digit values.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
from json.encoder import encode_basestring_ascii as _quote  # what json.dumps uses for str
from pathlib import Path

import numpy as np

from .core import (
    BeliefLandscape,
    HypotheticalBeliefMatrix,
    InformationStructure,
    InformationalEnvironment,
    Prior,
    StateBeliefMatrix,
    StructuralError,
    _array,
    _check_labels,
)


class ParseError(StructuralError):
    """The file could not be interpreted; the message carries the location."""


def round12(value: float) -> float:
    """Round to 12 significant decimal digits (the serialization precision)."""
    return float(f"{value:.12g}")


def _g12(values) -> list[str]:
    """``f"{v:.12g}"`` of every value, formatted in one call."""
    return (("%.12g " * len(values)) % tuple(values)).split()


def _float_tokens(values) -> list[str]:
    """The JSON text of ``round12(v)`` for each float ``v``.

    A 12-digit token with a point and no exponent is already the repr of the
    rounded value. The others (integral values, exponents, nan and inf) are
    encoded again from the rounded float.
    """
    return [t if "." in t and "e" not in t else json.dumps(float(t)) for t in _g12(values)]


def dumps_report(doc: dict) -> str:
    """Byte for byte ``json.dumps(indent=2)`` of ``doc`` with floats in 12 digits, plus a newline."""
    return _encode(doc, "\n") + "\n"


def _encode(value, newline: str) -> str:
    """Indent-2 JSON of ``value`` in 12 digits; ``newline`` starts a line at this depth."""
    if type(value) is str:
        return _quote(value)
    if isinstance(value, np.ndarray):
        if value.dtype.kind == "f":
            return _encode_floats(tuple(value.ravel().tolist()), value.shape, newline)
        value = value.tolist()
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = newline + "  "
        items = {str(k): v for k, v in value.items()}
        body = (f"{_quote(k)}: {_encode(v, inner)}" for k, v in items.items())
        return "{" + inner + ("," + inner).join(body) + newline + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        types = set(map(type, value))
        if types == {float}:
            return _encode_floats(tuple(value), (len(value),), newline)
        if types <= {list, tuple} and len(set(map(len, value))) == 1:
            if {type(cell) for row in value for cell in row} <= {float}:
                shape = (len(value), len(value[0]))
                return _encode_floats(tuple([c for row in value for c in row]), shape, newline)
        inner = newline + "  "
        body = map(_quote, value) if types == {str} else [_encode(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(body) + newline + "]"
    if isinstance(value, (float, np.floating)):
        return json.dumps(round12(float(value)))
    return json.dumps(int(value) if isinstance(value, np.integer) else value)


def _encode_floats(cells: tuple, shape: tuple, newline: str) -> str:
    """The float block ``cells`` (row-major, of ``shape``) in one ``%`` call over its layout."""
    template = "%.12g"
    for depth, n in reversed(list(enumerate(shape))):  # innermost axis first
        pad = newline + "  " * (depth + 1)
        template = "[" + pad + ("," + pad).join([template] * n) + pad[:-2] + "]" if n else "[]"
    text = template % cells
    # unless every token has a point (nan and inf have none) and none an exponent
    if text.count(".") != len(cells) or "e" in text:
        text = template.replace("%.12g", "%s") % tuple(_float_tokens(cells))
    return text


# --------------------------------------------------------------------------
# Document parsing
# --------------------------------------------------------------------------


def _labels(doc: dict, key: str, source: str) -> list[str]:
    # Only the JSON layout: the value that holds the labels checks the rest, after making
    # each item a string, so a number would pass there.
    values = doc.get(key)
    if not isinstance(values, list) or not values or not all(isinstance(v, str) for v in values):
        raise ParseError(f"{source}: '{key}' must be a non-empty list of strings")
    return values


def _matrix(doc: dict, key: str, n_rows: int, n_cols: int, source: str) -> np.ndarray:
    rows = doc.get(key)
    if not isinstance(rows, list) or len(rows) != n_rows:
        got = len(rows) if isinstance(rows, list) else type(rows).__name__
        raise ParseError(f"{source}: '{key}' must have {n_rows} rows, got {got}")
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n_cols:
            got = len(row) if isinstance(row, list) else type(row).__name__
            raise ParseError(f"{source}: {key} row {i + 1} must have {n_cols} columns, got {got}")
    return _numbers(rows, key, source, vector=False)


def _vector(doc: dict, key: str, n: int, source: str) -> np.ndarray:
    values = doc.get(key)
    if not isinstance(values, list) or len(values) != n:
        got = len(values) if isinstance(values, list) else type(values).__name__
        raise ParseError(f"{source}: '{key}' must have {n} entries, got {got}")
    return _numbers([values], key, source, vector=True)[0]


def _numbers(rows: list[list], key: str, source: str, vector: bool) -> np.ndarray:
    """Rows of equal length as one float array; a bad cell is named by its 1-based place.

    JSON numbers (int or float, not bool) pass; huge integers that no float
    holds do not.
    """
    if {type(cell) for row in rows for cell in row} <= {float, int}:
        try:
            return np.array(rows, dtype=float)
        except OverflowError:
            pass
    for i, row in enumerate(rows):
        for j, cell in enumerate(row):
            where = f"{key}[{j + 1}]" if vector else f"{key}[{i + 1}, {j + 1}]"
            if isinstance(cell, bool) or not isinstance(cell, (int, float)):
                raise ParseError(f"{source}: non-numeric cell at {where}")
            try:
                float(cell)
            except OverflowError:
                raise ParseError(f"{source}: number too large for a float at {where}") from None
    return np.array(rows, dtype=float)


def _named(source: str, make):
    """``make()``, a value constructor's StructuralError raised as a ParseError naming ``source``."""
    try:
        return make()
    except StructuralError as exc:
        raise ParseError(f"{source}: {exc}") from None


def _beliefs_from_doc(doc: dict, source: str) -> StateBeliefMatrix:
    """The labels and B of a landscape document: what every reader of one checks first."""
    states = _labels(doc, "states", source)
    signals = _labels(doc, "signals", source)
    b = _matrix(doc, "B", len(signals), len(states), source)
    return _named(source, lambda: StateBeliefMatrix(b, state_labels=states, signal_labels=signals))


def landscape_from_doc(doc: dict, source: str = "<input>") -> BeliefLandscape:
    beliefs = _beliefs_from_doc(doc, source)
    q = _matrix(doc, "Q", beliefs.n_signals, beliefs.n_signals, source)
    hypotheticals = _named(source, lambda: HypotheticalBeliefMatrix(q, beliefs.signal_labels))
    return BeliefLandscape(beliefs, hypotheticals)


def beliefs_and_column_from_doc(
    doc: dict, column_label: str, source: str = "<input>"
) -> tuple[StateBeliefMatrix, np.ndarray]:
    """Beliefs plus one hypothetical column: either Q is n x 1, or pick by label; Q is finite."""
    beliefs = _beliefs_from_doc(doc, source)
    signals, n = beliefs.signal_labels, beliefs.n_signals
    if column_label not in signals:
        raise ParseError(f"{source}: no signal labelled {column_label!r}")
    rows = doc.get("Q")
    one = isinstance(rows, list) and rows and isinstance(rows[0], list) and len(rows[0]) == 1
    parsed = _matrix(doc, "Q", n, 1 if one else n, source)
    q = _named(source, lambda: _array(parsed, "hypothetical belief matrix", 2))
    return beliefs, q[:, 0 if one else signals.index(column_label)]


def environment_from_doc(doc: dict, source: str = "<input>") -> InformationalEnvironment:
    states = _labels(doc, "states", source)
    signals = _labels(doc, "signals", source)
    structure = _matrix(doc, "I", len(states), len(signals), source)
    prior = _vector(doc, "prior", len(states), source)
    return _named(source, lambda: InformationalEnvironment(
        InformationStructure(structure, state_labels=states, signal_labels=signals),
        Prior(prior, state_labels=states),
    ))


def landscape_to_doc(landscape: BeliefLandscape) -> dict:
    return {
        "states": list(landscape.state_labels),
        "signals": list(landscape.signal_labels),
        "B": landscape.B.entries.tolist(),
        "Q": landscape.Q.entries.tolist(),
    }


def environment_to_doc(env: InformationalEnvironment) -> dict:
    return {
        "states": list(env.state_labels),
        "signals": list(env.signal_labels),
        "prior": env.prior.entries.tolist(),
        "I": env.structure.entries.tolist(),
    }


# --------------------------------------------------------------------------
# Files: JSON everywhere, CSV via paired matrix files
# --------------------------------------------------------------------------


def _partner_path(path: Path, old: str, new: str) -> Path:
    stem = path.stem
    pos = stem.rfind(old)
    if pos < 0:
        raise ParseError(
            f"{path}: cannot derive the companion file; expected {old!r} in the name"
        )
    return path.with_name(stem[:pos] + new + stem[pos + len(old) :] + path.suffix)


def _read(path_or_dash: str) -> tuple[str, str, str]:
    """(UTF-8 text, name, sha256 of the bytes decoded) of one read of a file or '-' (stdin)."""
    if path_or_dash == "-":
        raw, name = sys.stdin.buffer.read(), "<stdin>"
    else:
        name = path_or_dash
        try:
            raw = Path(path_or_dash).read_bytes()
        except OSError as exc:
            raise ParseError(f"{name}: {exc}") from exc
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{name}: not UTF-8 text ({exc})") from None
    return text, name, hashlib.sha256(raw).hexdigest()


def _read_csv_matrix(path: str | Path, digests: dict[str, str]) -> tuple[list, list, list]:
    """(row labels, column labels, rows of ``float()``s) of one CSV file, read in one pass that
    names the first bad row or cell. Its sha256 goes into ``digests`` under ``str(path)``."""
    import csv  # loaded only where CSV files are read or written

    text, _, digests[str(path)] = _read(str(path))
    rows = [r for r in csv.reader(io.StringIO(text, newline=None)) if r]  # text mode's newlines
    if len(rows) < 2:
        raise ParseError(f"{path}: expected a header row and at least one data row")
    col_labels = rows[0][1:]
    if not col_labels or any(not c for c in col_labels):
        raise ParseError(f"{path}: header must be a leading blank cell then column labels")
    width, data = len(col_labels) + 1, []
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != width:
            raise ParseError(f"{path}: row {i} has {len(row)} cells, expected {width}")
        data.append([])
        for j, cell in enumerate(row[1:], start=2):
            try:
                data[-1].append(float(cell))
            except ValueError:
                raise ParseError(f"{path}: non-numeric cell at row {i}, column {j}") from None
    return [row[0] for row in rows[1:]], col_labels, data


def _write_csv_matrix(path: Path, row_labels, col_labels, matrix: np.ndarray) -> None:
    import csv

    with path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([""] + list(col_labels))
        writer.writerows([label] + _g12(row.tolist()) for label, row in zip(row_labels, matrix))


def read_document(path_or_dash: str) -> tuple[dict, str, dict[str, str]]:
    """A JSON document from a path or standard input ('-'): (doc, name, {name: sha256})."""
    if path_or_dash.endswith(".csv"):
        raise ParseError(f"{path_or_dash}: expected a JSON document")
    text, name, digest = _read(path_or_dash)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{name}: invalid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{name}: expected a JSON object")
    return doc, name, {name: digest}


def _landscape_csv(path: Path, digests: dict[str, str]) -> dict:
    """The landscape document of a B/Q CSV pair; the Q file is opened after B parses."""
    q_path = _partner_path(path, "B", "Q")
    signals, states, b = _read_csv_matrix(path, digests)
    q_rows, q_cols, q = _read_csv_matrix(q_path, digests)
    if q_rows != signals or q_cols != signals:
        raise ParseError(f"{q_path}: labels do not match {path}")
    return {"states": states, "signals": signals, "B": b, "Q": q}


def _environment_csv(path: Path, digests: dict[str, str]) -> dict:
    """The environment document of an I/prior CSV pair; the prior file is opened after I parses."""
    p_path = _partner_path(path, "I", "prior")
    states, signals, structure = _read_csv_matrix(path, digests)
    p_rows, p_cols, prior = _read_csv_matrix(p_path, digests)
    if p_cols != states or len(p_rows) != 1:
        raise ParseError(f"{p_path}: expected one row over the state labels of {path}")
    return {"states": states, "signals": signals, "I": structure, "prior": prior[0]}


def _load(path_or_dash: str, csv_doc, from_doc):
    """``from_doc`` of a JSON document or of the CSV pair ``csv_doc`` reads; the input digests."""
    if path_or_dash.endswith(".csv"):
        path, digests = Path(path_or_dash), {}
        doc, name = csv_doc(path, digests), str(path)
    else:
        doc, name, digests = read_document(path_or_dash)
    return from_doc(doc, name), digests


def load_landscape(path_or_dash: str) -> tuple[BeliefLandscape, dict[str, str]]:
    """Load a landscape from JSON ('-' for stdin) or a paired B/Q CSV file."""
    return _load(path_or_dash, _landscape_csv, landscape_from_doc)


def load_environment(path_or_dash: str) -> tuple[InformationalEnvironment, dict[str, str]]:
    """Load an environment from JSON ('-' for stdin) or paired I/prior CSV files."""
    return _load(path_or_dash, _environment_csv, environment_from_doc)


def load_matrix(path: str, n_rows: int, n_cols: int) -> tuple[np.ndarray, dict[str, str]]:
    """An n_rows x n_cols matrix from JSON {"matrix": rows} or a labelled CSV matrix; digests.
    No value holds a CSV's labels, so each list meets a state axis's rule (``--reg``'s axes)."""
    def csv_doc(csv_path, digests):
        rows, columns, matrix = _read_csv_matrix(csv_path, digests)
        for labels in (rows, columns):
            _named(str(csv_path), lambda: _check_labels(labels, len(labels), "state_labels"))
        return {"matrix": matrix}

    return _load(path, csv_doc, lambda doc, name: _matrix(doc, "matrix", n_rows, n_cols, name))


def save_landscape(landscape: BeliefLandscape, path: str) -> None:
    """Write a landscape as JSON, or as B/Q CSV files when the path ends in .csv."""
    if path.endswith(".csv"):
        b_path = Path(path)
        q_path = _partner_path(b_path, "B", "Q")
        _write_csv_matrix(
            b_path, landscape.signal_labels, landscape.state_labels, landscape.B.entries
        )
        _write_csv_matrix(
            q_path, landscape.signal_labels, landscape.signal_labels, landscape.Q.entries
        )
        return
    Path(path).write_text(dumps_report(landscape_to_doc(landscape)), encoding="utf-8")


def save_environment(env: InformationalEnvironment, path: str) -> None:
    if path.endswith(".csv"):
        i_path = Path(path)
        p_path = _partner_path(i_path, "I", "prior")
        _write_csv_matrix(i_path, env.state_labels, env.signal_labels, env.structure.entries)
        _write_csv_matrix(p_path, ["prior"], env.state_labels, env.prior.entries[None, :])
        return
    Path(path).write_text(dumps_report(environment_to_doc(env)), encoding="utf-8")
