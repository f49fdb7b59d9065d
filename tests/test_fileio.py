"""Serialization and parsing in ``beliefscape.fileio``.

``dumps_report`` is the one encoder that rounds to 12 digits, and it formats
floats a list at a time; the per-element rounding plus ``json.dumps(indent=2)``
it replaced is kept here as the reference, and its output must match it byte
for byte. Documents and CLI results hold unrounded values until then.
Matrix and vector cells are converted in one step; a bad cell must still be
named by its place.
"""

from __future__ import annotations

import builtins
import collections
import contextlib
import functools
import hashlib
import io
import json
import os
import tempfile
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from beliefscape import (
    BeliefLandscape,
    HypotheticalBeliefMatrix,
    InformationalEnvironment,
    InformationStructure,
    Prior,
    StateBeliefMatrix,
    cli,
    fixtures,
)
from beliefscape.fileio import (
    ParseError,
    _read_csv_matrix,
    beliefs_and_column_from_doc,
    dumps_report,
    environment_from_doc,
    environment_to_doc,
    landscape_from_doc,
    landscape_to_doc,
    load_environment,
    load_landscape,
    load_matrix,
    read_document,
    round12,
    save_environment,
    save_landscape,
)
from test_golden_reports import CASES, write_inputs


def reference_jsonable(value):
    """The element-by-element conversion, as it was before the one-call formatting."""
    if isinstance(value, np.ndarray):
        return [reference_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.floating, float)):
        return round12(float(value))
    if isinstance(value, (np.integer, int)) or isinstance(value, bool):
        return int(value) if not isinstance(value, bool) else value
    if isinstance(value, dict):
        return {str(k): reference_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [reference_jsonable(v) for v in value]
    return value


def reference_dumps(doc) -> str:
    return json.dumps(reference_jsonable(doc), indent=2) + "\n"


# --------------------------------------------------------------------------
# Byte identity with the reference
# --------------------------------------------------------------------------

any_float = st.floats(width=64, allow_nan=True, allow_infinity=True, allow_subnormal=True)
# every double, plus the ranges reports hold and the band where 12-digit %g
# switches to an exponent while repr does not (1e12 to 1e16)
floats = st.one_of(
    any_float,
    st.floats(0, 1),
    st.floats(-1e-3, 1e-3),
    st.floats(1e11, 1e17),
    st.integers(-(10**6), 10**6).map(float),
)
float_arrays = hnp.arrays(
    np.float64, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=6), elements=floats
)
# rows of float lists: equal-length ones (n x 0 included) are one block for the encoder
float_rows = st.one_of(
    st.integers(0, 6).flatmap(
        lambda width: st.lists(st.lists(floats, min_size=width, max_size=width), max_size=4)
    ),
    st.lists(st.lists(floats, max_size=6), max_size=4),
)
# cells that force the re-encoding of their block: no point, or an exponent
FALLBACK_CELLS = (0.0, -0.0, 1e-5, 1e13, float("nan"), float("inf"))


def wide_block(seed: int, n_rows: int, n_cols: int, special, form: str):
    """A seeded n_rows x n_cols block in [0.1, 1) as an array, rows of lists or of tuples;
    ``special``, unless None, replaces one cell."""
    rng = np.random.default_rng(seed)
    block = 0.1 + 0.9 * rng.random((n_rows, n_cols))
    if special is not None and block.size:
        block[rng.integers(n_rows), rng.integers(n_cols)] = special
    if form == "array":
        return block
    rows = block.tolist()
    return rows if form == "lists" else tuple(map(tuple, rows))


wide_blocks = st.builds(
    wide_block,
    st.integers(0, 2**32 - 1),
    st.integers(0, 4),
    st.integers(0, 60),
    st.sampled_from((None,) + FALLBACK_CELLS),
    st.sampled_from(("array", "lists", "tuples")),
)
scalars = st.one_of(
    floats,
    st.integers(),
    st.booleans(),
    st.none(),
    st.text(),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    floats.map(np.float64),
)
labels = st.lists(st.text(), min_size=1, max_size=8)  # all-str lists take their own path
documents = st.recursive(
    st.one_of(
        scalars,
        float_arrays,
        st.lists(floats, max_size=8),
        float_rows,
        wide_blocks,
        labels,
        labels.map(tuple),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        # int keys may collide with their str form; the later value wins
        st.dictionaries(st.one_of(st.text(), st.integers(-3, 3)), children, max_size=5),
    ),
    max_leaves=30,
)


@settings(max_examples=200, deadline=None)
@given(documents)
def test_dumps_report_matches_reference(doc):
    assert dumps_report(doc) == reference_dumps(doc)


def test_zero_dimensional_array_is_a_scalar():
    doc = {"a": np.array(2.5), "b": [np.array(1 / 3), np.array(7)]}
    assert dumps_report(doc) == reference_dumps({"a": 2.5, "b": [round12(1 / 3), 7]})


def _stdout(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        cli.main(list(argv))
    return out.getvalue()


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_stdout_is_the_reference_encoding(case, tmp_path, monkeypatch):
    """Exact and platform-independent, unlike the golden files' float tolerance."""
    write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    argv = CASES[case]
    stdout = _stdout(argv)
    if "--format" in argv:
        doc = json.loads(_stdout(["json" if a == "pretty" else a for a in argv]))
        doc["argv"] = argv
        expected = "\n".join(cli._pretty_lines(reference_jsonable(doc))) + "\n"
    else:
        expected = reference_dumps(json.loads(stdout))
    assert stdout == expected


finite = st.one_of(st.floats(0, 1), st.floats(allow_nan=False, allow_infinity=False))
labels = st.text("abxyz019_-", min_size=1, max_size=3)


@st.composite
def landscapes_and_environments(draw):
    """Any finite entries under drawn labels: the file formats hold more than the model."""
    states = draw(st.lists(labels, min_size=1, max_size=5, unique=True))
    signals = draw(st.lists(labels, min_size=1, max_size=6, unique=True))

    def matrix(n_rows, n_cols):
        return draw(hnp.arrays(np.float64, (n_rows, n_cols), elements=finite))

    landscape = BeliefLandscape(
        StateBeliefMatrix(matrix(len(signals), len(states)), states, signals),
        HypotheticalBeliefMatrix(matrix(len(signals), len(signals)), signals),
    )
    env = InformationalEnvironment(
        InformationStructure(matrix(len(states), len(signals)), states, signals),
        Prior(matrix(1, len(states))[0], states),
    )
    return landscape, env


@settings(max_examples=150, deadline=None)
@given(landscapes_and_environments(), st.sampled_from([".json", ".csv"]))
def test_save_load_save_is_byte_identical(case, suffix):
    landscape, env = case
    with tempfile.TemporaryDirectory() as directory:
        for save, load, value, stem in (
            (save_landscape, load_landscape, landscape, "crowd_B"),
            (save_environment, load_environment, env, "crowd_I"),
        ):
            path = os.path.join(directory, stem + suffix)
            save(value, path)
            first = {name: Path(directory, name).read_bytes() for name in os.listdir(directory)}
            save(load(path)[0], path)
            assert {name: Path(directory, name).read_bytes() for name in first} == first


@pytest.mark.parametrize(
    "states", [["th1", " "], ["th1", "th1 "], [" th1", "th2"]], ids=["blank", "trailing", "leading"]
)
def test_csv_labels_are_read_as_written(states, tmp_path):
    """Labels with blanks at either end load from a CSV pair as the JSON reader loads them."""
    land = fixtures.symmetric_binary_landscape(5 / 8, 5 / 8)
    structure = InformationStructure([[0.7, 0.3], [0.2, 0.8]])
    env = InformationalEnvironment(structure, Prior([0.4, 0.6]))
    for value, to_doc, from_doc, save, load, stem in (
        (land, landscape_to_doc, landscape_from_doc, save_landscape, load_landscape, "crowd_B"),
        (env, environment_to_doc, environment_from_doc, save_environment, load_environment,
         "crowd_I"),
    ):
        value = from_doc({**to_doc(value), "states": states})
        loaded = []
        for suffix in (".csv", ".json"):
            save(value, str(tmp_path / (stem + suffix)))
            loaded.append(to_doc(load(str(tmp_path / (stem + suffix)))[0]))
        assert loaded[0]["states"] == states
        assert dumps_report(loaded[0]) == dumps_report(loaded[1])


def test_saved_documents_match_reference():
    land = fixtures.truth_or_noise_landscape(0.3)
    env = fixtures.truth_or_noise_environment(0.3)
    for doc in (landscape_to_doc(land), environment_to_doc(env)):
        assert dumps_report(doc) == reference_dumps(doc)
    # unrounded until the encoder: the one place that rounds
    assert landscape_to_doc(land)["B"] == land.B.entries.tolist()
    assert environment_to_doc(env)["I"] == env.structure.entries.tolist()


# --------------------------------------------------------------------------
# Parsing: one conversion, bad cells still located
# --------------------------------------------------------------------------


def _landscape_doc() -> dict:
    return landscape_to_doc(fixtures.truth_or_noise_landscape(0.5))


def _environment_doc() -> dict:
    return environment_to_doc(fixtures.truth_or_noise_environment(0.5))


BAD_CELLS = [True, False, "0.5", None, [0.5]]


@pytest.mark.parametrize("cell", BAD_CELLS, ids=repr)
@pytest.mark.parametrize("key", ["B", "Q"])
def test_non_numeric_landscape_cell_located(key, cell):
    doc = _landscape_doc()
    doc[key][1][0] = cell
    with pytest.raises(ParseError, match=rf"non-numeric cell at {key}\[2, 1\]$"):
        landscape_from_doc(doc)


@pytest.mark.parametrize("cell", BAD_CELLS, ids=repr)
def test_non_numeric_environment_cell_located(cell):
    doc = _environment_doc()
    doc["I"][1][1] = cell
    with pytest.raises(ParseError, match=r"non-numeric cell at I\[2, 2\]$"):
        environment_from_doc(doc)
    doc = _environment_doc()
    doc["prior"][1] = cell
    with pytest.raises(ParseError, match=r"non-numeric cell at prior\[2\]$"):
        environment_from_doc(doc)


def test_first_bad_cell_in_reading_order_is_named():
    doc = _landscape_doc()
    doc["B"][1][1] = "x"
    doc["B"][0][1] = None
    with pytest.raises(ParseError, match=r"B\[1, 2\]$"):
        landscape_from_doc(doc)


def test_numpy_float_cells_load():
    doc = _landscape_doc()
    expected = landscape_from_doc(doc)
    doc["B"] = [[np.float64(c) for c in row] for row in doc["B"]]
    doc["Q"][0] = [np.float64(c) for c in doc["Q"][0]]
    loaded = landscape_from_doc(doc)
    assert np.array_equal(loaded.B.entries, expected.B.entries)
    assert np.array_equal(loaded.Q.entries, expected.Q.entries)


def test_integer_cells_load_as_floats():
    doc = _environment_doc()
    doc["I"] = [[1] + [0] * (len(doc["signals"]) - 1) for _ in doc["states"]]
    structure = environment_from_doc(doc).structure.entries
    assert structure.dtype == float and structure[0, 0] == 1.0


HUGE = 10**400  # a JSON integer literal no float holds


def test_huge_integer_cell_located():
    doc = _landscape_doc()
    doc["B"][1][1] = HUGE
    with pytest.raises(ParseError, match=r"too large for a float at B\[2, 2\]$"):
        landscape_from_doc(doc)
    doc = _environment_doc()
    doc["prior"][0] = -HUGE
    with pytest.raises(ParseError, match=r"too large for a float at prior\[1\]$"):
        environment_from_doc(doc)


def test_huge_integer_in_files_is_a_structural_error(tmp_path, capsys):
    path = tmp_path / "land.json"
    doc = landscape_to_doc(fixtures.two_signal_three_state_landscape())
    doc["B"][1][1] = HUGE
    path.write_text(json.dumps(doc))
    assert cli.main(["identify", str(path)]) == cli.EXIT_ERROR
    assert "B[2, 2]" in capsys.readouterr().err

    path.write_text(json.dumps(landscape_to_doc(fixtures.two_signal_three_state_landscape())))
    reg = tmp_path / "reg.json"
    reg.write_text(json.dumps({"matrix": [[1, 0, 0], [0, 1, 0], [0, 0, HUGE]]}))
    assert cli.main(["ridge", str(path), "--reg", str(reg)]) == cli.EXIT_ERROR
    assert "matrix[3, 3]" in capsys.readouterr().err


@pytest.mark.parametrize("cell", [" 1.5 ", "nan", "1_0", "+2", "", "x", "0x1"], ids=repr)
def test_csv_cells_follow_float_parsing(cell, tmp_path):
    path = tmp_path / "m.csv"
    path.write_text(f",a,b\nr1,0.5,0.5\nr2,0.25,{cell}\n")
    try:
        expected = float(cell)
    except ValueError:
        with pytest.raises(ParseError, match=r"non-numeric cell at row 3, column 3$"):
            _read_csv_matrix(path, {})
        return
    rows, columns, data = _read_csv_matrix(path, {})
    assert (rows, columns) == (["r1", "r2"], ["a", "b"])
    np.testing.assert_array_equal(data, [[0.5, 0.5], [0.25, expected]])


@pytest.mark.parametrize(
    "text, message",
    [
        (",a,b\nr1,0.5,x\nr2,0.5\n", "non-numeric cell at row 2, column 3"),
        (",a,b\nr1,0.5\nr2,0.5,x\n", "row 2 has 2 cells, expected 3"),
        (",a,b\nr1,0.5,0.5,0\nr2,0.5,0.5,0\n", "row 2 has 4 cells, expected 3"),
        (",a,b\nr1,0.5,0.5\nr2,x,0.5\nr3,0.5\n", "non-numeric cell at row 3, column 2"),
    ],
)
def test_first_bad_csv_row_or_cell_is_named(text, message, tmp_path):
    path = tmp_path / "m.csv"
    path.write_text(text)
    with pytest.raises(ParseError, match=f"{message}$"):
        _read_csv_matrix(path, {})


# --------------------------------------------------------------------------
# Reading files: one read per file, every rejection named and located
# --------------------------------------------------------------------------


@pytest.mark.parametrize(
    "parse, doc, message",
    [
        (landscape_from_doc, {"states": [], "signals": ["s1"]},
         "'states' must be a non-empty list of strings"),
        (environment_from_doc,
         {"states": ["a", "b", "c"], "signals": ["s1"], "I": [[1], [1], [1]], "prior": [0.5, 0.5]},
         "'prior' must have 3 entries, got 2"),
        (functools.partial(beliefs_and_column_from_doc, column_label="zz"),
         {"states": ["a"], "signals": ["s1", "s2"], "B": [[1], [1]], "Q": [[1, 0], [0, 1]]},
         "no signal labelled 'zz'"),
        (functools.partial(beliefs_and_column_from_doc, column_label="zzz"),
         {"states": ["th1", "th2"], "signals": ["a", "b"], "B": [[0.75, 0.25], [0.25, 0.75]],
          "Q": [[0.625], [0.375]]},
         "no signal labelled 'zzz'"),
    ],
    ids=["no_states", "short_prior", "unknown_column", "unknown_column_of_one_column_q"],
)
def test_bad_document_is_named(parse, doc, message):
    with pytest.raises(ParseError) as info:
        parse(doc, source="doc.json")
    assert str(info.value) == f"doc.json: {message}"


B_CSV = ",th1,th2\ns1,0.75,0.25\ns2,0.25,0.75\n"


@pytest.mark.parametrize(
    "files, load, message",
    [
        ({"crowd.csv": B_CSV}, load_landscape,
         "crowd.csv: cannot derive the companion file; expected 'B' in the name"),
        ({"x_B.csv": ",th1,th2\n"}, load_landscape,
         "x_B.csv: expected a header row and at least one data row"),
        ({"x_B.csv": ",th1,\ns1,1,0\n"}, load_landscape,
         "x_B.csv: header must be a leading blank cell then column labels"),
        ({"x_B.csv": ",th1,th1\ns1,1,0\n", "x_Q.csv": ",s1\ns1,1\n"}, load_landscape,
         "x_B.csv: states: duplicate label 'th1'"),
        ({"x_B.csv": ",th1,th2\ns1,1,0\ns1,0,1\n", "x_Q.csv": ",s1,s1\ns1,1,0\ns1,0,1\n"},
         load_landscape, "x_B.csv: signals: duplicate label 's1'"),
        ({"x_B.csv": B_CSV, "x_Q.csv": ",s1,s3\ns1,0.5,0.5\ns3,0.5,0.5\n"}, load_landscape,
         "x_Q.csv: labels do not match {dir}/x_B.csv"),
        ({"x_I.csv": ",s1,s2\nth1,1,0\nth2,0,1\n", "x_prior.csv": ",th1,th3\nprior,0.5,0.5\n"},
         load_environment, "x_prior.csv: expected one row over the state labels of {dir}/x_I.csv"),
        ({"x.json": "{"}, load_landscape, "x.json: invalid JSON (Expecting property name"
         " enclosed in double quotes: line 1 column 2 (char 1))"),
    ],
    ids=["no_partner", "no_rows", "blank_label", "duplicate_column", "duplicate_row",
         "pair_labels", "prior_labels", "invalid_json"],
)
def test_bad_file_is_named(tmp_path, files, load, message):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    first = tmp_path / next(iter(files))
    expected = f"{tmp_path}/{message.format(dir=tmp_path)}"
    with pytest.raises(ParseError) as info:
        load(str(first))
    assert str(info.value) == expected


LANDSCAPE_DOC = landscape_to_doc(fixtures.symmetric_binary_landscape(5 / 8, 5 / 8))
ENVIRONMENT_DOC = {"states": ["th1", "th2"], "signals": ["s1", "s2"], "prior": [0.5, 0.5],
                   "I": [[0.7, 0.3], [0.2, 0.8]]}


def load_regularizer(path):
    return load_matrix(path, 2, 2)


@pytest.mark.parametrize(
    "files, load, axis",
    [
        ({"x.json": json.dumps({**LANDSCAPE_DOC, "states": ["x", "x"]})}, load_landscape, "states"),
        ({"x.json": json.dumps({**LANDSCAPE_DOC, "signals": ["x", "x"]})}, load_landscape,
         "signals"),
        ({"x.json": json.dumps({**ENVIRONMENT_DOC, "states": ["x", "x"]})}, load_environment,
         "states"),
        ({"x_B.csv": ",x,x\ns1,1,0\ns2,0,1\n", "x_Q.csv": ",s1,s2\ns1,1,0\ns2,0,1\n"},
         load_landscape, "states"),
        ({"x_B.csv": ",th1,th2\nx,1,0\nx,0,1\n", "x_Q.csv": ",x,x\nx,1,0\nx,0,1\n"},
         load_landscape, "signals"),
        ({"x_I.csv": ",s1,s2\nx,1,0\nx,0,1\n", "x_prior.csv": ",x,x\nprior,0.5,0.5\n"},
         load_environment, "states"),
        ({"x_I.csv": ",x,x\nth1,1,0\nth2,0,1\n", "x_prior.csv": ",th1,th2\nprior,0.5,0.5\n"},
         load_environment, "signals"),
        ({"reg.csv": ",a,b\nx,1,0\nx,0,1\n"}, load_regularizer, "states"),
        ({"reg.csv": ",x,x\na,1,0\nb,0,1\n"}, load_regularizer, "states"),
    ],
    ids=["json_states", "json_signals", "json_environment_states", "B_states", "B_Q_signals",
         "I_prior_states", "I_signals", "reg_rows", "reg_columns"],
)
def test_a_repeated_label_gives_one_message_in_every_format(tmp_path, files, load, axis):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    first = tmp_path / next(iter(files))
    with pytest.raises(ParseError) as info:
        load(str(first))
    assert str(info.value) == f"{first}: {axis}: duplicate label 'x'"


@pytest.mark.parametrize(
    "name, load",
    [
        ("x_B.csv", load_landscape),
        ("x_I.csv", load_environment),
        ("reg.csv", lambda path: load_matrix(path, 2, 2)),
        ("x.json", load_landscape),
    ],
    ids=["landscape", "environment", "matrix", "json"],
)
def test_non_utf8_file_is_a_parse_error(tmp_path, name, load):
    path = tmp_path / name
    path.write_bytes(",th1,th2\ns1,0.5,0.5\nsé,0.5,0.5\n".encode("latin-1"))
    with pytest.raises(ParseError) as info:
        load(str(path))
    assert str(info.value).startswith(f"{path}: not UTF-8 text (")


def test_document_from_standard_input(monkeypatch):
    raw = dumps_report(_landscape_doc()).encode()
    monkeypatch.setattr("sys.stdin", types.SimpleNamespace(buffer=io.BytesIO(raw)))
    doc, name, digests = read_document("-")
    assert (doc, name) == (json.loads(raw), "<stdin>")
    assert digests == {"<stdin>": hashlib.sha256(raw).hexdigest()}


@pytest.fixture
def reads(monkeypatch):
    """How often each file is opened for reading, by path.

    ``Path.read_bytes`` and ``read_text`` open through ``Path.open`` on every
    supported Python (3.10's pathlib binds ``io.open`` at import, so a patched
    ``io.open`` would not see them); a bare ``open(...)`` goes through
    ``builtins.open``. Counting at those two places sees each open once.
    """
    counts = collections.Counter()

    def counting(real_open):
        def counting_open(file, mode="r", *args, **kwargs):
            if isinstance(file, (str, os.PathLike)) and not set(mode) & set("wax+"):
                counts[str(file)] += 1
            return real_open(file, mode, *args, **kwargs)

        return counting_open

    monkeypatch.setattr(Path, "open", counting(Path.open))
    monkeypatch.setattr(builtins, "open", counting(builtins.open))
    return counts


def _digests(*paths) -> dict[str, str]:
    return {str(p): hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}


def test_each_input_file_is_read_once(tmp_path, reads, capsys):
    land, env = fixtures.truth_or_noise_landscape(0.5), fixtures.truth_or_noise_environment(0.5)
    for name in ("crowd_B.csv", "crowd.json"):
        save_landscape(land, str(tmp_path / name))
    for name in ("crowd_I.csv", "env.json"):
        save_environment(env, str(tmp_path / name))
    cases = [
        (load_landscape, "crowd_B.csv", ["crowd_B.csv", "crowd_Q.csv"]),
        (load_landscape, "crowd.json", ["crowd.json"]),
        (load_environment, "crowd_I.csv", ["crowd_I.csv", "crowd_prior.csv"]),
        (load_environment, "env.json", ["env.json"]),
    ]
    for load, name, files in cases:
        expected = _digests(*[tmp_path / f for f in files])
        reads.clear()
        assert load(str(tmp_path / name))[1] == expected
        assert reads == {path: 1 for path in expected}

    scarce, reg = tmp_path / "scarce.json", tmp_path / "reg.csv"
    save_landscape(fixtures.two_signal_three_state_landscape(), str(scarce))
    reg.write_text(",a,b,c\na,1,0,0\nb,0,1,0\nc,0,0,2\n")
    expected = _digests(scarce, reg)
    reads.clear()
    assert cli.main(["ridge", str(scarce), "--reg", str(reg)]) == 0
    assert json.loads(capsys.readouterr().out)["inputs"] == expected
    assert reads == {path: 1 for path in expected}
