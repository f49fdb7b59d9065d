import hashlib
import io
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from beliefscape import (
    BeliefLandscape,
    HypotheticalBeliefMatrix,
    InformationalEnvironment,
    InformationStructure,
    Prior,
    fixtures,
    generate_landscape,
    sample_environment,
)
from beliefscape.cli import main
from beliefscape.fileio import (
    ParseError,
    dumps_report,
    landscape_from_doc,
    landscape_to_doc,
    load_landscape,
    save_environment,
    save_landscape,
)
from test_identify import no_eigenvalue_one_landscape, sparse_landscapes


@pytest.fixture
def workdir(tmp_path):
    save_landscape(fixtures.symmetric_binary_landscape(9 / 16, 9 / 16), str(tmp_path / "a916.json"))
    save_landscape(fixtures.symmetric_binary_landscape(5 / 8, 5 / 8), str(tmp_path / "a58.json"))
    save_landscape(fixtures.two_signal_three_state_landscape(), str(tmp_path / "scarce.json"))
    save_landscape(
        fixtures.coarse_partition_landscape([0.25, 1 / 6, 1 / 3, 0.25]),
        str(tmp_path / "partition.json"),
    )
    save_environment(fixtures.truth_or_noise_environment(0.5), str(tmp_path / "env.json"))
    return tmp_path


def equal_belief_rows_landscape():
    """Signals 1 and 2 have proportional structure columns, so B has two equal rows."""
    structure = [[0.2, 0.1, 0.7], [0.4, 0.2, 0.4], [0.1, 0.05, 0.85], [0.5, 0.25, 0.25]]
    env = InformationalEnvironment(InformationStructure(structure), Prior([0.1, 0.2, 0.3, 0.4]))
    return generate_landscape(env)


def split_state_environment(rng, n_states: int, n_signals: int) -> InformationalEnvironment:
    """An extra state copies one structure row and takes part of that state's prior mass."""
    env = sample_environment(rng, n_states, n_signals)
    k = int(rng.integers(n_states))
    share = rng.uniform(0.2, 0.8)
    rows = np.vstack([env.structure.entries, env.structure.entries[k]])
    prior = np.append(env.prior.entries, (1 - share) * env.prior.entries[k])
    prior[k] *= share
    return InformationalEnvironment(InformationStructure(rows), Prior(prior))


def mixed_state_environment(rng, n_states: int, n_signals: int) -> InformationalEnvironment:
    """An extra state whose structure row mixes two others: its belief column is a
    nonnegative combination of theirs, proportional to neither."""
    env = sample_environment(rng, n_states, n_signals)
    a, b = rng.choice(n_states, size=2, replace=False)
    w = rng.uniform(0.2, 0.8)
    rows = env.structure.entries
    rows = np.vstack([rows, w * rows[a] + (1 - w) * rows[b]])
    prior = 0.2 / (n_states + 1) + 0.8 * rng.dirichlet(np.ones(n_states + 1))
    return InformationalEnvironment(InformationStructure(rows), Prior(prior))


def run_cli(args, capsys):
    code = main([str(a) for a in args])
    out = capsys.readouterr().out
    return code, out


class TestFileRoundTrips:
    def test_json_save_load_is_stable(self, tmp_path):
        path = tmp_path / "land.json"
        land = fixtures.two_signal_three_state_landscape()
        save_landscape(land, str(path))
        first = path.read_bytes()
        loaded, _ = load_landscape(str(path))
        np.testing.assert_allclose(loaded.B.entries, land.B.entries, atol=1e-12)
        save_landscape(loaded, str(path))
        assert path.read_bytes() == first

    def test_csv_save_load_round_trip(self, tmp_path):
        b_path = tmp_path / "crowd_B.csv"
        land = fixtures.split_state_landscape()
        save_landscape(land, str(b_path))
        assert (tmp_path / "crowd_Q.csv").exists()
        loaded, digests = load_landscape(str(b_path))
        assert loaded.state_labels == land.state_labels
        np.testing.assert_allclose(loaded.B.entries, land.B.entries, atol=1e-12)
        np.testing.assert_allclose(loaded.Q.entries, land.Q.entries, atol=1e-12)
        assert len(digests) == 2

    def test_header_shape_mismatch_located(self, tmp_path):
        p = tmp_path / "bad_B.csv"
        p.write_text(",th1,th2,th3,th4\ns1,0.1,0.2,0.7\n")
        with pytest.raises(ParseError, match="row 2"):
            load_landscape(str(p))

    def test_non_numeric_cell_located(self, tmp_path):
        p = tmp_path / "bad_B.csv"
        p.write_text(",th1,th2\ns1,0.5,oops\ns2,0.5,0.5\n")
        with pytest.raises(ParseError, match="row 2, column 3"):
            load_landscape(str(p))

    def test_duplicate_label_rejected(self):
        doc = landscape_to_doc(fixtures.symmetric_binary_landscape(0.5, 0.5))
        doc["states"] = ["x", "x"]
        with pytest.raises(ParseError, match="duplicate"):
            landscape_from_doc(doc)

    def test_wrong_matrix_width_located(self):
        doc = landscape_to_doc(fixtures.symmetric_binary_landscape(0.5, 0.5))
        doc["B"] = [[0.25, 0.75, 0.0], [0.75, 0.25, 0.0]]
        with pytest.raises(ParseError, match="row 1 must have 2 columns"):
            landscape_from_doc(doc)


class TestCommandContract:
    def test_identify_inconsistent_landscape_exits_2(self, workdir, capsys):
        code, out = run_cli(["identify", workdir / "a916.json"], capsys)
        assert code == 2
        doc = json.loads(out)
        assert doc["verdict"] == "inconsistent"
        np.testing.assert_allclose(
            doc["result"]["structure"], [[3 / 8, 5 / 8], [5 / 8, 3 / 8]], atol=1e-9
        )
        assert doc["result"]["consistency"]["failed"] == ["reproduction"]

    def test_identify_consistent_landscape_exits_0(self, workdir, capsys):
        code, out = run_cli(["identify", workdir / "a58.json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "consistent"
        np.testing.assert_allclose(doc["result"]["prior"]["values"], [0.5, 0.5], atol=1e-9)

    def test_generate_pipes_into_identify(self, workdir):
        generate = subprocess.run(
            [sys.executable, "-m", "beliefscape", "generate", str(workdir / "env.json")],
            capture_output=True,
            text=True,
        )
        assert generate.returncode == 0
        identify = subprocess.run(
            [sys.executable, "-m", "beliefscape", "identify", "-"],
            input=generate.stdout,
            capture_output=True,
            text=True,
        )
        assert identify.returncode == 0
        doc = json.loads(identify.stdout)
        assert doc["verdict"] == "consistent"
        np.testing.assert_allclose(doc["result"]["prior"]["values"], [1 / 3] * 3, atol=1e-9)
        structure = np.array(doc["result"]["structure"])
        expected = fixtures.truth_or_noise_environment(0.5).structure.entries
        np.testing.assert_allclose(structure, expected, atol=1e-9)

    def test_ridge_reports_the_whole_route(self, workdir, capsys):
        code, out = run_cli(["ridge", workdir / "scarce.json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "feasible"
        result = doc["result"]
        np.testing.assert_allclose(
            result["ridge_limit"], fixtures.TWO_SIGNAL_THREE_STATE_RIDGE_LIMIT, atol=1e-9
        )
        v = np.array(result["null_basis"][0])
        d = fixtures.TWO_SIGNAL_THREE_STATE_NULL_DIRECTION
        assert abs(v @ d) / (np.linalg.norm(v) * np.linalg.norm(d)) >= 1 - 1e-9
        np.testing.assert_allclose(result["prior"]["values"], [0.5, 1 / 6, 1 / 3], atol=1e-9)
        np.testing.assert_allclose(
            result["restoration"]["structure"],
            fixtures.TWO_SIGNAL_THREE_STATE_STRUCTURE,
            atol=1e-8,
        )

    def test_reports_are_byte_identical_across_runs(self, workdir, capsys):
        args = ["identify", workdir / "a916.json"]
        code1, out1 = run_cli(args, capsys)
        code2, out2 = run_cli(args, capsys)
        assert (code1, out1) == (code2, out2)
        assert out1.encode() == out2.encode()

    def test_report_json_reserializes_identically(self, workdir, capsys):
        _, out = run_cli(["identify", workdir / "a916.json"], capsys)
        assert dumps_report(json.loads(out)) == out

    def test_unknown_command_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 64

    def test_unknown_flag_is_a_usage_error(self, workdir, capsys):
        with pytest.raises(SystemExit) as info:
            main(["identify", "--bogus", str(workdir / "a58.json")])
        assert info.value.code == 64

    def test_missing_file_is_a_structural_error(self, capsys):
        code, _ = run_cli(["identify", "no-such-file.json"], capsys)
        assert code == 1

    def test_check_never_errors_on_plausible_input(self, workdir, capsys):
        for name, expected_code in [
            ("a58.json", 0),
            ("a916.json", 2),
            ("scarce.json", 0),  # routed through the minimum-norm path
            ("partition.json", 0),
        ]:
            code, out = run_cli(["check", workdir / name], capsys)
            assert code == expected_code, name
            assert json.loads(out)["verdict"] in {
                "consistent",
                "inconsistent",
                "feasible",
                "infeasible",
            }

    def test_identify_reports_the_minimum_norm_route_on_scarce_input(self, workdir, capsys):
        code, out = run_cli(["identify", workdir / "scarce.json"], capsys)
        doc = json.loads(out)
        assert (code, doc["verdict"], doc["result"]["route"]) == (0, "consistent", "minimum-norm")
        assert doc["result"]["restoration_kind"] == "unique"
        np.testing.assert_allclose(
            doc["result"]["structure"], fixtures.TWO_SIGNAL_THREE_STATE_STRUCTURE, atol=1e-9
        )
        np.testing.assert_allclose(
            doc["result"]["peer_accuracy"], fixtures.TWO_SIGNAL_THREE_STATE_ACCURACY, atol=1e-9
        )


class TestMoreCommands:
    def test_generate_to_file_writes_loadable_landscape(self, workdir, capsys):
        out_path = workdir / "generated.json"
        code, out = run_cli(["generate", workdir / "env.json", "-o", out_path], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["output"] == str(out_path)
        loaded, _ = load_landscape(str(out_path))
        expected = fixtures.truth_or_noise_landscape(0.5)
        np.testing.assert_allclose(loaded.B.entries, expected.B.entries, atol=1e-9)

    def test_identify_single_column(self, workdir, capsys):
        land = fixtures.truth_or_noise_landscape(0.5)
        doc = landscape_to_doc(land)
        doc["Q"] = [[row[0]] for row in doc["Q"]]  # keep only the null-signal column
        path = workdir / "column.json"
        path.write_text(dumps_report(doc))
        code, out = run_cli(["identify", "--column", "null", path], capsys)
        assert code == 0
        report = json.loads(out)
        np.testing.assert_allclose(
            report["result"]["per_state_probability"], [0.5, 0.5, 0.5], atol=1e-9
        )

    def test_identify_single_column_validates_beliefs(self, workdir, capsys):
        doc = {"states": ["s1", "s2"], "signals": ["a", "b"],
               "B": [[1.5, -0.7], [0.2, 0.3]], "Q": [[0.5], [0.5]]}
        path = workdir / "implausible_column.json"
        path.write_text(dumps_report(doc))
        assert main(["identify", "--column", "a", str(path)]) == 1
        assert "landscape failed validation: negative entry at B[a, s2]" in capsys.readouterr().err
        # Validation (exit 1) is skipped; the per-state result for s2, 1.10, is a verdict.
        code, _ = run_cli(["identify", "--column", "a", "--no-validate", path], capsys)
        assert code == 2

    def test_identify_single_column_validates_the_column(self, workdir, capsys):
        doc = {"states": ["s1", "s2"], "signals": ["a", "b"],
               "B": [[0.75, 0.25], [0.25, 0.75]], "Q": [[1.7], [-0.4]]}
        path = workdir / "col.json"
        path.write_text(dumps_report(doc))
        assert main(["identify", "--column", "a", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "beliefscape: error: landscape failed validation: entry outside [0, 1] at Q[a, a]: 1.7;"
            " entry outside [0, 1] at Q[b, a]: -0.4\n"
        )
        # Validation (exit 1) is skipped; the per-state results 2.75 and -1.45 are a verdict.
        code, _ = run_cli(["identify", "--column", "a", "--no-validate", path], capsys)
        assert code == 2
        doc["Q"] = [[0.5], [0.3]]  # B @ [0.6, 0.2]
        path.write_text(dumps_report(doc))
        code, out = run_cli(["identify", "--column", "a", path], capsys)
        assert code == 0
        np.testing.assert_allclose(json.loads(out)["result"]["per_state_probability"],
                                   [0.6, 0.2], atol=1e-12)

    @pytest.mark.parametrize("flags", [[], ["--no-validate"]])
    def test_identify_single_column_flags_results_outside_the_unit_interval(
        self, workdir, capsys, flags
    ):
        doc = {"states": ["s1", "s2"], "signals": ["a", "b"],
               "B": [[0.75, 0.25], [0.25, 0.75]], "Q": [[0.7], [0.0]]}
        path = workdir / "col.json"
        path.write_text(dumps_report(doc))
        code, out = run_cli(["identify", "--column", "a", *flags, path], capsys)
        assert code == 2
        report = json.loads(out)
        assert report["verdict"] == "inconsistent"
        assert report["warnings"] == [
            "per-state probability outside [0, 1] at s1: 1.05",
            "per-state probability outside [0, 1] at s2: -0.35",
        ]
        np.testing.assert_allclose(report["result"]["per_state_probability"], [1.05, -0.35])

    @pytest.mark.parametrize("flags", [[], ["--no-validate"]])
    @pytest.mark.parametrize(
        "q", [[[0.7, float("nan")], [0.2, 0.8]], [[float("nan")], [0.375]]],
        ids=["unselected-column", "one-column"],
    )
    def test_identify_single_column_rejects_a_non_finite_q(self, workdir, capsys, q, flags):
        # A structural error, as for the full identify, whichever column holds the nan
        doc = {"states": ["s1", "s2"], "signals": ["a", "b"],
               "B": [[0.75, 0.25], [0.25, 0.75]], "Q": q}
        path = workdir / "nanq.json"
        path.write_text(json.dumps(doc))
        assert main(["identify", "--column", "a", *flags, str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            f"beliefscape: error: {path}: hypothetical belief matrix contains non-finite entries\n"
        )

    @pytest.mark.parametrize(
        "command, name, key, message",
        [
            ("check", "a916.json", "B", "state belief matrix contains non-finite entries"),
            ("generate", "env.json", "prior", "prior contains non-finite entries"),
        ],
    )
    def test_a_non_finite_value_in_a_file_names_the_file(
        self, workdir, capsys, command, name, key, message
    ):
        # JSON reads Infinity and NaN; the value constructor's error is reported as the file's
        doc = json.loads((workdir / name).read_text())
        row = doc[key][0] if key == "B" else doc[key]
        row[0] = float("inf") if key == "B" else float("nan")
        path = workdir / f"bad_{name}"
        path.write_text(json.dumps(doc))
        assert main([command, str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"beliefscape: error: {path}: {message}\n"

    def test_identify_single_column_allows_x_the_band_identify_does(self, workdir, capsys):
        # Draw 113 of the sparse stored recipe: X[th1, s1] = -3.3e-9, inside the band
        # tol_entry + 1e-11/σ_min(B) = 3.6e-7 in which the full identify judges X.
        land = next(land for draw, land in sparse_landscapes() if draw == 113)
        path = workdir / "sparse.json"
        save_landscape(land, str(path))
        assert run_cli(["identify", path], capsys)[0] == 0
        for signal in land.signal_labels:
            code, out = run_cli(["identify", "--column", signal, path], capsys)
            assert code == 0, signal
            assert "verdict" not in json.loads(out)

    def test_sp_command(self, workdir, capsys):
        save_landscape(
            fixtures.split_state_landscape(), str(workdir / "split.json")
        )
        code, out = run_cli(["sp", workdir / "split.json"], capsys)
        assert code == 0
        doc = json.loads(out)
        np.testing.assert_allclose(
            doc["result"]["marginal"], fixtures.SPLIT_STATE_MARGINAL, atol=1e-9
        )

    def test_partition_command(self, workdir, capsys):
        code, out = run_cli(["partition", workdir / "partition.json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "partitional"
        assert doc["result"]["cells"] == [["th1"], ["th2", "th3"], ["th4"]]

    def test_rationalize_command(self, workdir, capsys):
        code, out = run_cli(["rationalize", workdir / "a916.json"], capsys)
        assert code == 0
        doc = json.loads(out)
        np.testing.assert_allclose(
            doc["result"]["type_priors"], [[5 / 14, 9 / 14], [9 / 14, 5 / 14]], atol=1e-9
        )

    def test_reduce_command(self, workdir, capsys):
        rng = np.random.default_rng(5)
        path = workdir / "split.json"
        for n_states in (2, 3, 4):
            env = split_state_environment(rng, n_states, n_states + 1)
            save_landscape(generate_landscape(env), str(path))
            landscape, _ = load_landscape(str(path))
            code, out = run_cli(["reduce", path], capsys)
            assert code == 0
            result = json.loads(out)["result"]
            assert result["removed_states"] == [landscape.state_labels[-1]]
            np.testing.assert_allclose(result["embedded_prior"], env.prior.entries, atol=1e-8)
            embedded = InformationalEnvironment(
                InformationStructure(result["embedded_structure"]), Prior(result["embedded_prior"])
            )
            regenerated = generate_landscape(embedded)
            np.testing.assert_allclose(regenerated.B.entries, landscape.B.entries, atol=1e-8)
            np.testing.assert_allclose(regenerated.Q.entries, landscape.Q.entries, atol=1e-8)

    def test_reduce_agrees_with_check_on_a_state_that_mixes_two_others(self, workdir, capsys):
        # The reduced landscape absorbs the mixed row into the kept rows, so no
        # embedding of it regenerates Q; the judge recovers the environment itself.
        rng = np.random.default_rng(8)
        path = workdir / "mixed.json"
        for n_states in (2, 3, 4, 2, 3, 4):
            env = mixed_state_environment(rng, n_states, n_states + 1)
            save_landscape(generate_landscape(env), str(path))
            code, out = run_cli(["reduce", path], capsys)
            doc = json.loads(out)
            assert (code, doc["verdict"]) == (0, "consistent")
            result = doc["result"]
            assert result["removed_states"] == [f"th{n_states + 1}"]
            np.testing.assert_allclose(result["embedded_structure"], env.structure.entries, atol=1e-8)
            np.testing.assert_allclose(result["embedded_prior"], env.prior.entries, atol=1e-8)
            code, out = run_cli(["check", path], capsys)
            assert (code, json.loads(out)["verdict"]) == (0, "consistent")

    def test_reduce_and_check_share_one_verdict(self, workdir, capsys):
        # Split and mixed states, each also with 1e-3 moved within Q's first row
        # (still stochastic, no longer generated): reduce exits as check does, and a
        # consistent reduce embeds exactly what identify reports.
        rng = np.random.default_rng(11)
        path = workdir / "dependent.json"
        for make in (split_state_environment, mixed_state_environment):
            for n_states in (2, 3, 4, 2, 3, 4):
                landscape = generate_landscape(make(rng, n_states, n_states + 1))
                q = landscape.Q.entries.copy()
                q[0, :2] += [1e-3, -1e-3]
                moved = BeliefLandscape(landscape.B, HypotheticalBeliefMatrix(q))
                for case, expected in ((landscape, 0), (moved, 2)):
                    save_landscape(case, str(path))
                    code, out = run_cli(["reduce", path], capsys)
                    reduced = json.loads(out)["result"]
                    assert reduced["trivial"] is False
                    assert code == run_cli(["check", path], capsys)[0] == expected
                    if code == 0:
                        identified = json.loads(run_cli(["identify", path], capsys)[1])["result"]
                        assert reduced["embedded_structure"] == identified["structure"]
                        assert reduced["embedded_prior"] == identified["prior"]["values"]

    def test_reduce_exits_as_check_does_on_generated_scarce_landscapes(self, workdir, capsys):
        # Most of these have a dependent column that needs a negative weight on a kept
        # one: no split-state reading, yet the judge's environment generates the data.
        rng = np.random.default_rng(1)
        path = workdir / "scarce_draw.json"
        no_split = 0
        for _ in range(300):
            n_signals = int(rng.integers(2, 5))
            env = sample_environment(rng, n_signals + int(rng.integers(1, 3)), n_signals)
            save_landscape(generate_landscape(env), str(path))
            code, out = run_cli(["reduce", path], capsys)
            assert code == run_cli(["check", path], capsys)[0] == 0
            doc = json.loads(out)
            assert doc["verdict"] == "consistent"
            result = doc["result"]
            if "split_state" in result:
                no_split += 1
                assert result["split_state"] is False and result["message"]
                assert result["consistency"] == {"consistent": True, "failed": []}
                identified = json.loads(run_cli(["identify", path], capsys)[1])["result"]
                assert result["embedded_structure"] == identified["structure"]
                assert result["embedded_prior"] == identified["prior"]["values"]
        assert no_split >= 200

    @pytest.mark.parametrize("name", ["a916.json", "split.json"])
    def test_infer_state_names_no_state_on_an_inconsistent_landscape(self, workdir, capsys, name):
        save_landscape(fixtures.split_state_landscape(), str(workdir / "split.json"))
        path = workdir / name
        code, out = run_cli(["infer-state", path, "--signal", "s1", "--share", "0.5"], capsys)
        doc = json.loads(out)
        assert (code, doc["verdict"]) == (2, "infeasible")
        assert doc["result"]["error"] == "InconsistentLandscapeError"
        assert "state" not in doc["result"]
        assert doc["inputs"] == {str(path): hashlib.sha256(path.read_bytes()).hexdigest()}

    def test_reduce_on_a_full_rank_landscape_is_trivial(self, workdir, capsys):
        path = workdir / "ton.json"
        save_landscape(fixtures.truth_or_noise_landscape(0.5), str(path))
        code, out = run_cli(["reduce", path], capsys)
        doc = json.loads(out)
        assert code == 0
        assert "verdict" not in doc
        assert doc["result"]["trivial"] is True
        assert doc["result"]["removed_states"] == []
        assert "consistency" not in doc["result"]

    @pytest.mark.parametrize("command", ["check", "identify", "sp", "ridge"])
    def test_no_eigenvalue_one_past_validation(self, workdir, command, capsys):
        # B = I, Q = [[0.5, 0.2], [0.1, 0.3]]: Q is not stochastic, so only
        # --no-validate lets it through, and A = Qᵀ has no eigenvalue 1.
        path = workdir / "no_eigenvalue_one.json"
        save_landscape(no_eigenvalue_one_landscape(), str(path))
        code, out = run_cli([command, "--no-validate", path], capsys)
        doc = json.loads(out)
        assert code == 2
        result = doc["result"]
        if command in ("check", "identify"):
            assert doc["verdict"] == "inconsistent"
            assert "prior" not in result
            assert not [k for k in result["diagnostics"] if k.startswith("roundtrip_")]
            failed = result["failed"] if command == "check" else result["consistency"]["failed"]
            assert failed == ["prior", "reproduction"]
        else:
            assert doc["verdict"] == "infeasible"
            assert result["error"] == "NotModelGeneratedError"

    def test_infer_state_from_environment(self, workdir, capsys):
        code, out = run_cli(
            ["infer-state", workdir / "env.json", "--signal", "reveal-th2", "--share", "0.5"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "matched"
        assert doc["result"]["state"] == "th2"

    def test_infer_state_validates_an_environment(self, workdir, capsys):
        doc = {"states": ["th1", "th2"], "signals": ["s1", "s2"],
               "prior": [0.5, 0.5], "I": [[1.4, -0.4], [0.2, 0.8]]}
        path = workdir / "bad_env.json"
        path.write_text(json.dumps(doc))
        message = (
            "beliefscape: error: environment failed validation:"
            " negative entry at structure[th1, s2]: -0.4\n"
        )
        for command in (["generate", path], ["infer-state", path, "--signal", "s1", "--share", "0.5"]):
            assert main([str(a) for a in command]) == 1
            out, err = capsys.readouterr()
            assert (out, err) == ("", message)
        code, out = run_cli(["infer-state", path, "--signal", "s1", "--share", "0.5", "--no-validate"],
                            capsys)
        assert code == 0
        assert json.loads(out)["verdict"] == "matched"

    def test_infer_state_ambiguous_exits_2(self, workdir, capsys):
        # every state shows the null signal with the same probability
        code, out = run_cli(
            ["infer-state", workdir / "env.json", "--signal", "null", "--share", "0.5"],
            capsys,
        )
        assert code == 2
        assert json.loads(out)["verdict"] == "ambiguous"

    def test_tolerance_flags_are_honored(self, workdir, capsys):
        # an absurdly loose match tolerance declares everything consistent
        code, _ = run_cli(
            ["identify", "--tol-match", "10.0", workdir / "a916.json"], capsys
        )
        assert code == 0

    def test_pretty_format(self, workdir, capsys):
        code, out = run_cli(["identify", "--format", "pretty", workdir / "a58.json"], capsys)
        assert code == 0
        assert 'verdict: "consistent"' in out
        assert "structure:" in out

    @pytest.mark.parametrize(
        "args, verdict, color",
        [
            (["identify", "a58.json"], "consistent", "32"),
            (["partition", "a58.json"], "not_partitional", "32"),
            (["identify", "a916.json"], "inconsistent", "31"),
        ],
    )
    def test_pretty_verdict_is_green_exactly_when_it_exits_0(
        self, workdir, monkeypatch, args, verdict, color
    ):
        class Terminal(io.StringIO):
            def isatty(self):
                return True

        terminal = Terminal()
        monkeypatch.setattr(sys, "stdout", terminal)
        monkeypatch.delenv("NO_COLOR", raising=False)
        code = main([args[0], "--format", "pretty", str(workdir / args[1])])
        assert (code == 0) == (color == "32")
        assert f"verdict: \033[{color}m{verdict}\033[0m" in terminal.getvalue()

    def test_no_validate_skips_plausibility(self, workdir, capsys):
        land = fixtures.symmetric_binary_landscape(0.5, 0.5)
        doc = landscape_to_doc(land)
        doc["B"] = [[0.6, 0.6], [0.75, 0.25]]  # row sums off
        path = workdir / "implausible.json"
        path.write_text(dumps_report(doc))
        code, _ = run_cli(["identify", path], capsys)
        assert code == 1
        code, _ = run_cli(["identify", "--no-validate", path], capsys)
        assert code == 2  # proceeds, lands on an inconsistency verdict

    def test_selftest_runs_clean(self, capsys):
        code, out = run_cli(["selftest", "--trials", "5", "--seed", "1"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "pass"
        assert doc["result"]["failed"] == 0

    def test_selftest_honors_the_tolerances(self, capsys):
        code, out = run_cli(["selftest", "--tol-match", "1e-30", "--trials", "1"], capsys)
        doc = json.loads(out)
        assert (code, doc["verdict"]) == (1, "fail")
        assert doc["tolerances"]["match"] == 1e-30
        failed = [c["name"] for c in doc["result"]["checks"] if not c["ok"]]
        assert "symmetric binary a=b=5/8 consistent" in failed

    def test_failed_selftest_exits_1(self, monkeypatch, capsys):
        checks = [("round trip", True, ""), ("prior injectivity", False, "worst 0.3")]
        monkeypatch.setattr("beliefscape.selfcheck.run_selftest", lambda seed, trials, tol: checks)
        code, out = run_cli(["selftest"], capsys)
        assert code == 1
        doc = json.loads(out)
        assert doc["verdict"] == "fail"
        assert doc["result"] == {
            "passed": 1,
            "failed": 1,
            "checks": [
                {"name": "round trip", "ok": True},
                {"name": "prior injectivity", "ok": False, "detail": "worst 0.3"},
            ],
        }

    def test_environment_csv_round_trip(self, tmp_path, capsys):
        from beliefscape.fileio import load_environment

        i_path = tmp_path / "noise_I.csv"
        env = fixtures.truth_or_noise_environment(0.5)
        save_environment(env, str(i_path))
        assert (tmp_path / "noise_prior.csv").exists()
        loaded, digests = load_environment(str(i_path))
        np.testing.assert_allclose(loaded.structure.entries, env.structure.entries, atol=1e-12)
        np.testing.assert_allclose(loaded.prior.entries, env.prior.entries, atol=1e-12)
        assert loaded.signal_labels == env.signal_labels
        code, out = run_cli(["generate", i_path], capsys)
        assert code == 0
        generated = json.loads(out)
        assert generated["signals"] == list(env.signal_labels)

    def test_column_selected_by_label_from_square_q(self, workdir, capsys):
        land = fixtures.truth_or_noise_landscape(0.25)
        path = workdir / "full.json"
        path.write_text(dumps_report(landscape_to_doc(land)))
        code, out = run_cli(["identify", "--column", "reveal-th1", path], capsys)
        assert code == 0
        doc = json.loads(out)
        np.testing.assert_allclose(
            doc["result"]["per_state_probability"], [0.75, 0.0, 0.0], atol=1e-9
        )

    def test_ridge_with_lambda_and_regularizer(self, workdir, capsys):
        reg_path = workdir / "reg.json"
        reg_path.write_text(json.dumps({"matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 2]]}))
        code, out = run_cli(
            ["ridge", workdir / "scarce.json", "--lambda", "1e-6", "--reg", reg_path],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        at_lambda = doc["result"]["ridge_at_lambda"]
        assert at_lambda["lambda"] == 1e-6
        assert at_lambda["gap_to_limit"] < 1e-4
        # the weighted limit still solves the defining equation
        land = fixtures.two_signal_three_state_landscape()
        limit = np.array(doc["result"]["ridge_limit"])
        np.testing.assert_allclose(land.B.entries @ limit, land.Q.entries, atol=1e-8)

    def test_ridge_names_the_regularizer_among_its_inputs(self, workdir, capsys):
        reg_json, reg_csv = workdir / "reg.json", workdir / "reg.csv"
        reg_json.write_text(json.dumps({"matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 2]]}))
        reg_csv.write_text(",a,b,c\na,1,0,0\nb,0,1,0\nc,0,0,2\n")
        scarce = str(workdir / "scarce.json")
        for reg in (reg_json, reg_csv):
            code, out = run_cli(["ridge", scarce, "--reg", reg], capsys)
            inputs = json.loads(out)["inputs"]
            assert code == 0
            assert list(inputs) == [scarce, str(reg)]
            assert inputs[str(reg)] == hashlib.sha256(reg.read_bytes()).hexdigest()

    def test_regularizer_moves_only_the_ridge_numbers(self, workdir, capsys):
        # The prior and the Bayes structure hold for every exact solution of Q = B X;
        # --reg only picks which solution the ridge numbers name.
        ridge_numbers = ("ridge_limit", "residual", "ridge_at_lambda")
        rng = np.random.default_rng(11)
        path, reg = workdir / "land.json", workdir / "reg.json"
        for k in range(12):
            n_signals = 2 + k % 3
            n_states = n_signals + 1 + k % 2
            save_landscape(generate_landscape(sample_environment(rng, n_states, n_signals)), str(path))
            reg.write_text(json.dumps({"matrix": np.diag(rng.uniform(0.2, 5.0, n_states)).tolist()}))
            for lam in ([], ["--lambda", "1e-6"]):
                plain, weighted = (
                    json.loads(run_cli(["ridge", path, *lam, *flags], capsys)[1])
                    for flags in ([], ["--reg", reg])
                )
                assert weighted["result"]["ridge_limit"] != plain["result"]["ridge_limit"]
                assert weighted["verdict"] == plain["verdict"]
                for doc in (plain, weighted):
                    for key in ridge_numbers:
                        doc["result"].pop(key, None)
                assert weighted["result"] == plain["result"]

    def test_check_routes_rank_deficient_input_to_minimum_norm(self, workdir, capsys):
        # The split fixture's Q is not generated: its stationary vector forces the
        # environment SPLIT_STATE_EMBEDDED_*, which regenerates B but not Q. States
        # th1 and th3 of the generated landscape share a structure row.
        split = [[0.5, 0.3, 0.2], [0.1, 0.3, 0.6], [0.5, 0.3, 0.2]]
        env = InformationalEnvironment(InformationStructure(split), Prior([0.3, 0.4, 0.3]))
        save_landscape(fixtures.split_state_landscape(), str(workdir / "split.json"))
        save_landscape(generate_landscape(env), str(workdir / "split_generated.json"))
        for name, expected in [
            ("split.json", (2, "inconsistent")),
            ("split_generated.json", (0, "consistent")),
        ]:
            code, out = run_cli(["check", workdir / name], capsys)
            doc = json.loads(out)
            assert doc["result"]["route"] == "minimum-norm"
            assert (code, doc["verdict"]) == expected, name

    def test_check_rejects_moved_mass_on_equal_belief_rows(self, workdir, capsys):
        # Equal belief rows leave B rank deficient; 1e-3 moved within Q's third
        # row is still stochastic, but no environment generates it.
        landscape = equal_belief_rows_landscape()
        q = landscape.Q.entries.copy()
        q[2, :2] += [1e-3, -1e-3]
        moved = BeliefLandscape(landscape.B, HypotheticalBeliefMatrix(q))
        save_landscape(moved, str(workdir / "moved.json"))
        code, out = run_cli(["check", workdir / "moved.json"], capsys)
        assert (code, json.loads(out)["verdict"]) == (2, "inconsistent")

    def test_infer_state_from_landscape(self, workdir, capsys):
        land = fixtures.truth_or_noise_landscape(0.25)
        path = workdir / "land.json"
        path.write_text(dumps_report(landscape_to_doc(land)))
        code, out = run_cli(
            ["infer-state", path, "--signal", "reveal-th3", "--share", "0.74"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["source"] == "identified landscape"
        assert doc["result"]["state"] == "th3"

    def test_sp_family_on_identity_hypotheticals(self, workdir, capsys):
        code, out = run_cli(["sp", workdir / "partition.json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["kind"] == "family"
        assert len(doc["result"]["marginal_family"]) == 3

    def test_generate_reports_dropped_signals(self, tmp_path, capsys):
        from beliefscape import InformationStructure, InformationalEnvironment, Prior

        env = InformationalEnvironment(
            InformationStructure([[0.5, 0.5, 0.0], [0.25, 0.75, 0.0], [0.2, 0.8, 0.0]]),
            Prior([0.5, 0.3, 0.2]),
        )
        path = tmp_path / "degenerate_env.json"
        save_environment(env, str(path))
        out_path = tmp_path / "landscape.json"
        code, out = run_cli(["generate", path, "-o", out_path], capsys)
        assert code == 0
        doc = json.loads(out)
        assert any("s3" in w for w in doc["warnings"])
        assert doc["result"]["signals"] == ["s1", "s2"]

    def test_generate_pipeline_writes_dropped_signals_to_stderr(self, tmp_path, capsys):
        env = InformationalEnvironment(
            InformationStructure([[0.5, 0.5, 0.0], [0.3, 0.7, 0.0]], signal_labels=("a", "b", "c")),
            Prior([0.5, 0.5]),
        )
        path = tmp_path / "dropenv.json"
        save_environment(env, str(path))
        assert main(["generate", str(path)]) == 0
        out, err = capsys.readouterr()
        assert err == "beliefscape: warning: dropped zero-marginal signals: c\n"
        # stdout is the landscape document alone, as -o writes it
        assert main(["generate", str(path), "-o", str(tmp_path / "land.json")]) == 0
        assert json.loads(capsys.readouterr().out)["warnings"] == [
            "dropped zero-marginal signals: c"
        ]
        assert out == (tmp_path / "land.json").read_text()


class TestBadInput:
    """Bad flag values are usage errors (64); bad --reg files are structural errors (1)."""

    @pytest.mark.parametrize(
        "args",
        [
            # nan compares false with everything: check would call any landscape consistent
            ["check", "a916.json", "--tol-match", "nan"],
            ["check", "a916.json", "--tol-rank", "nan"],
            ["check", "a916.json", "--tol-entry", "inf"],
            ["check", "a916.json", "--tol-stochastic", "0"],
            ["ridge", "scarce.json", "--lambda", "-1"],
            ["ridge", "scarce.json", "--lambda", "0"],
            ["ridge", "scarce.json", "--lambda", "nan"],
            ["ridge", "scarce.json", "--lambda", "inf"],
            ["ridge", "scarce.json", "--lambda", "x"],
        ],
    )
    def test_bad_number_is_a_usage_error(self, workdir, args, capsys):
        command, name, flag, value = args
        with pytest.raises(SystemExit) as info:
            main([command, str(workdir / name), flag, value])
        assert info.value.code == 64
        out, err = capsys.readouterr()
        assert out == ""
        assert f"argument {flag}: invalid positive finite value: '{value}'" in err

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--share", "7"], "argument --share: invalid value in [0, 1]: '7'"),
            (["--share", "nan"], "argument --share: invalid value in [0, 1]: 'nan'"),
            (["--share", "-0.1"], "argument --share: invalid value in [0, 1]: '-0.1'"),
            (["--trials", "0"], "argument --trials: invalid positive integer: '0'"),
            (["--trials", "-1"], "argument --trials: invalid positive integer: '-1'"),
        ],
        ids=["share_7", "share_nan", "share_negative", "trials_0", "trials_negative"],
    )
    def test_out_of_range_count_or_share_is_a_usage_error(self, workdir, args, message,
                                                          capsys):
        if args[0] == "--share":
            args = ["infer-state", str(workdir / "env.json"), "--signal", "reveal-th2", *args]
        else:
            args = ["selftest", *args]
        with pytest.raises(SystemExit) as info:
            main(args)
        assert info.value.code == 64
        out, err = capsys.readouterr()
        assert out == ""
        assert message in err

    @pytest.mark.parametrize("share", ["0", "1"])
    def test_share_bounds_are_accepted(self, workdir, share, capsys):
        code, out = run_cli(
            ["infer-state", workdir / "env.json", "--signal", "reveal-th2", "--share", share],
            capsys,
        )
        assert code in (0, 2)
        assert json.loads(out)["result"]["observed_share"] == float(share)

    @pytest.mark.parametrize(
        "name, text, message",
        [
            ("asym.json", '{"matrix": [[1, 0.5, 0], [0, 1, 0], [0, 0, 1]]}', "must be symmetric"),
            ("indef.json", '{"matrix": [[1, 0, 0], [0, -1, 0], [0, 0, 1]]}', "positive definite"),
            ("singular.json", '{"matrix": [[1, 3, 0], [3, 9, 0], [0, 0, 1]]}', "positive definite"),
            ("small.json", '{"matrix": [[1, 0], [0, 1]]}', "'matrix' must have 3 rows, got 2"),
            ("wide.json", '{"matrix": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]}',
             "matrix row 1 must have 3 columns, got 4"),
            ("text.json", '{"matrix": [["1", 0, 0], [0, true, 0], [0, 0, 1]]}',
             r"non-numeric cell at matrix\[1, 1\]"),
            ("flag.json", '{"matrix": [[1, 0, 0], [0, true, 0], [0, 0, 1]]}',
             r"non-numeric cell at matrix\[2, 2\]"),
            ("rows.json", '[[1, 0, 0], [0, 1, 0], [0, 0, 1]]', "expected a JSON object"),
            ("small.csv", ",a,b\na,1,0\nb,0,1\n", "'matrix' must have 3 rows, got 2"),
            ("asym.csv", ",a,b,c\na,1,0.5,0\nb,0,1,0\nc,0,0,1\n", "must be symmetric"),
            ("inf.json", '{"matrix": [[1, 0, 0], [0, 1, 0], [0, 0, Infinity]]}',
             "non-finite entries"),
            ("nan.json", '{"matrix": [[1, 0, 0], [0, NaN, 0], [0, 0, 1]]}', "non-finite entries"),
            ("inf.csv", ",a,b,c\na,1,0,0\nb,0,1,0\nc,0,0,inf\n", "non-finite entries"),
        ],
    )
    def test_bad_regularizer_file_is_a_structural_error(self, workdir, name, text, message,
                                                        capsys):
        reg = workdir / name
        reg.write_text(text)
        assert main(["ridge", str(workdir / "scarce.json"), "--reg", str(reg)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"beliefscape: error: {reg}: ")
        assert re.search(message, err)

    NOT_UTF8 = (
        "not UTF-8 text ('utf-8' codec can't decode byte 0xe9 in position 21:"
        " invalid continuation byte)"
    )

    @pytest.mark.parametrize(
        "args, message",
        [
            (["infer-state", "env.json", "--signal", "zz", "--share", "0.5"],
             "no signal labelled 'zz'"),
            (["identify", "--column", "zz", "a916.json"], "no signal labelled 'zz'"),
            (["infer-state", "crowd_B.csv", "--signal", "s1", "--share", "0.5"],
             "expected a JSON document"),
            (["identify", "--column", "s1", "crowd_B.csv"], "expected a JSON document"),
            (["check", "latin1_B.csv"], NOT_UTF8),
            (["generate", "latin1_I.csv"], NOT_UTF8),
            (["ridge", "scarce.json", "--reg", "latin1.csv"], NOT_UTF8),
        ],
        ids=["infer_state_signal", "column_signal", "infer_state_csv", "column_csv",
             "check_latin1", "generate_latin1", "ridge_reg_latin1"],
    )
    def test_unreadable_input_is_one_error_line(self, workdir, args, message, capsys,
                                                 monkeypatch):
        monkeypatch.chdir(workdir)
        save_landscape(fixtures.truth_or_noise_landscape(0.5), "crowd_B.csv")
        for name in ("latin1_B.csv", "latin1_Q.csv", "latin1_I.csv", "latin1.csv"):
            Path(name).write_bytes(",th1,th2\ns1,0.5,0.5\nsé,0.5,0.5\n".encode("latin-1"))
        path = args[1] if args[0] == "infer-state" else args[-1]
        assert main(args) == 1
        assert capsys.readouterr() == ("", f"beliefscape: error: {path}: {message}\n")

    def test_csv_regularizer_is_read(self, workdir, capsys):
        reg = workdir / "reg.csv"
        reg.write_text(",a,b,c\na,1,0,0\nb,0,1,0\nc,0,0,2\n")
        json_reg = workdir / "reg.json"
        json_reg.write_text(json.dumps({"matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 2]]}))
        reports = [
            json.loads(run_cli(["ridge", workdir / "scarce.json", "--lambda", "1e-3", "--reg", r],
                               capsys)[1])
            for r in (reg, json_reg)
        ]
        assert reports[0]["result"] == reports[1]["result"]
