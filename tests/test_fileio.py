"""Serialization and parsing in ``beliefscape.fileio``.

``dumps_report`` is the one encoder that rounds to 12 digits, and it formats
floats a list at a time; the per-element rounding plus ``json.dumps(indent=2)``
it replaced is kept here as the reference, and its output must match it byte
for byte. Documents and CLI results hold unrounded values until then.
Matrix and vector cells are converted in one step; a bad cell must still be
named by its place.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile
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
    dumps_report,
    environment_from_doc,
    environment_to_doc,
    landscape_from_doc,
    landscape_to_doc,
    load_environment,
    load_landscape,
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
documents = st.recursive(
    st.one_of(scalars, float_arrays, st.lists(floats, max_size=8), float_rows, wide_blocks),
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
            _read_csv_matrix(path)
        return
    rows, columns, data = _read_csv_matrix(path)
    assert (rows, columns) == (["r1", "r2"], ["a", "b"])
    np.testing.assert_array_equal(data, [[0.5, 0.5], [0.25, expected]])


@pytest.mark.parametrize(
    "text, message",
    [
        (",a,b\nr1,0.5,x\nr2,0.5\n", "non-numeric cell at row 2, column 3"),
        (",a,b\nr1,0.5\nr2,0.5,x\n", "row 2 has 2 cells, expected 3"),
        (",a,b\nr1,0.5,0.5,0\nr2,0.5,0.5,0\n", "row 2 has 4 cells, expected 3"),
    ],
)
def test_first_bad_csv_row_or_cell_is_named(text, message, tmp_path):
    path = tmp_path / "m.csv"
    path.write_text(text)
    with pytest.raises(ParseError, match=f"{message}$"):
        _read_csv_matrix(path)
