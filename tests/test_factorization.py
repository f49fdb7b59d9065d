"""Each belief matrix is factorized once.

Rank tests, the regression, the minimum-norm solution, the null space and the
dependency reduction all read one SVD of B, kept on the StateBeliefMatrix, and
each eigenvalue-1 step makes one SVD of its shifted matrix M - I, whether the
prior is unique or a family. These tests count every SVD call,
through each name an SVD can be reached by: the public numpy and scipy
functions and the module globals that ``numpy.linalg.pinv`` and
``scipy.linalg.null_space`` call.
"""

from __future__ import annotations

import importlib
import json
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from beliefscape import (
    DEFAULT_TOLERANCES,
    InformationalEnvironment,
    InformationStructure,
    Prior,
    StateBeliefMatrix,
    consistency_check,
    fixtures,
    generate_landscape,
    identify,
    identify_underdetermined,
    rationalize_noncommon,
    reduce_dependencies,
    ridge_solution_at,
    sample_environment,
    signal_priors_identify,
    unit_eigenvector_eigenvalue_one,
    validate_landscape,
)
from beliefscape.cli import main
from beliefscape.fileio import load_landscape, save_landscape


def _numpy_linalg_module():
    """The module whose global ``svd`` numpy.linalg.pinv calls."""
    try:
        return importlib.import_module("numpy.linalg._linalg")  # numpy >= 2
    except ImportError:
        return importlib.import_module("numpy.linalg.linalg")


_SVD_HOMES = (
    np.linalg,
    _numpy_linalg_module(),
    scipy.linalg,
    sys.modules[scipy.linalg.null_space.__module__],
)


@pytest.fixture
def svd_inputs(monkeypatch):
    """Copies of every matrix handed to an SVD while the test runs."""
    seen: list[np.ndarray] = []

    def counting(original):
        def svd(a, *args, **kwargs):
            seen.append(np.array(a, dtype=float, copy=True))
            return original(a, *args, **kwargs)

        return svd

    for home in _SVD_HOMES:
        monkeypatch.setattr(home, "svd", counting(home.svd))
    return seen


def svds_of(seen: list[np.ndarray], matrix: np.ndarray) -> int:
    return sum(1 for a in seen if a.shape == matrix.shape and np.array_equal(a, matrix))


LANDSCAPES = {
    "symmetric_binary": lambda: fixtures.symmetric_binary_landscape(9 / 16, 9 / 16),
    "truth_or_noise": lambda: fixtures.truth_or_noise_landscape(0.5),
    "sampled_4x6": lambda: generate_landscape(
        sample_environment(np.random.default_rng(3), 4, 6)
    ),
}


@pytest.mark.parametrize("name", sorted(LANDSCAPES))
def test_validate_check_rationalize_factorize_once(name, svd_inputs):
    landscape = LANDSCAPES[name]()
    validate_landscape(landscape.B, landscape.Q)
    consistency_check(landscape)
    rationalize_noncommon(landscape)
    assert svds_of(svd_inputs, landscape.B.entries) == 1


TON = LANDSCAPES["truth_or_noise"]
SCARCE = fixtures.two_signal_three_state_landscape  # 3 states, 2 signals
PARTITION = partial(fixtures.coarse_partition_landscape, [0.25, 1 / 6, 1 / 3, 0.25])


@pytest.mark.parametrize(
    "command, landscape",
    [
        pytest.param(["check"], TON, id="check"),
        pytest.param(["identify"], TON, id="identify"),
        pytest.param(["identify", "--column", "null"], TON, id="identify-column"),
        pytest.param(["check"], SCARCE, id="check-scarce"),
        pytest.param(["ridge", "--lambda", "1e-6"], SCARCE, id="ridge-lambda"),
        pytest.param(
            ["ridge", "--lambda", "1e-6", "--reg", "reg.json"], SCARCE, id="ridge-reg-lambda"
        ),
    ],
)
def test_cli_factorizes_once(command, landscape, tmp_path, monkeypatch, svd_inputs, capsys):
    monkeypatch.chdir(tmp_path)
    Path("reg.json").write_text(json.dumps({"matrix": np.diag([2.0, 1.0, 1.0]).tolist()}))
    save_landscape(landscape(), "land.json")
    b = load_landscape("land.json")[0].B.entries
    svd_inputs.clear()
    assert main([*command, "land.json"]) == 0
    capsys.readouterr()
    assert svds_of(svd_inputs, b) == 1
    # nor any other matrix, such as B whitened by --reg, twice
    assert [svds_of(svd_inputs, a) for a in svd_inputs] == [1] * len(svd_inputs)


@pytest.mark.parametrize("name", sorted(LANDSCAPES))
def test_validation_factorizes_nothing(name, svd_inputs):
    landscape = LANDSCAPES[name]()
    assert validate_landscape(landscape.B, landscape.Q).plausible
    assert svd_inputs == []


def cli_svd_inputs(command, landscape, svd_inputs, capsys):
    """The landscape as its file gives it, and every matrix the command factorizes."""
    save_landscape(landscape, "land.json")
    loaded = load_landscape("land.json")[0]
    svd_inputs.clear()
    assert main([command, "land.json"]) == 0
    capsys.readouterr()
    return loaded, list(svd_inputs)


@pytest.mark.parametrize("landscape", [TON, PARTITION], ids=["truth_or_noise", "partition"])
def test_partition_command_factorizes_nothing(landscape, tmp_path, monkeypatch, svd_inputs, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli_svd_inputs("partition", landscape(), svd_inputs, capsys)[1] == []


@pytest.mark.parametrize("landscape", [TON, SCARCE], ids=["truth_or_noise", "scarce"])
def test_sp_command_factorizes_only_q_transpose_minus_identity(
    landscape, tmp_path, monkeypatch, svd_inputs, capsys
):
    monkeypatch.chdir(tmp_path)
    loaded, seen = cli_svd_inputs("sp", landscape(), svd_inputs, capsys)
    assert len(seen) == 1 and svds_of(seen, shifted(loaded.Q.entries.T)) == 1


def test_underdetermined_factorizes_once(svd_inputs):
    landscape = fixtures.two_signal_three_state_landscape()
    identify_underdetermined(landscape)
    assert svds_of(svd_inputs, landscape.B.entries) == 1


def shifted(matrix: np.ndarray) -> np.ndarray:
    return matrix - np.eye(matrix.shape[0])


def accuracy(landscape) -> np.ndarray:
    """The judge's A = Bᵀ(B⁺Q)ᵀ, from B's cached SVD."""
    x = landscape.B._svd.solve(landscape.Q.entries, DEFAULT_TOLERANCES)
    return landscape.B.entries.T @ x.T


# call -> (the matrix M whose eigenvalue-1 vectors it takes, whether it reads B's SVD)
EIGENVALUE_ONE_CALLS = {
    "consistency_check": (consistency_check, accuracy, True),
    "identify_underdetermined": (identify_underdetermined, accuracy, True),
    "signal_priors_identify": (signal_priors_identify, lambda land: land.Q.entries.T, False),
}


@pytest.mark.parametrize("call", sorted(EIGENVALUE_ONE_CALLS))
@pytest.mark.parametrize(
    "landscape, family",
    [
        pytest.param(LANDSCAPES["sampled_4x6"], False, id="4x6"),
        pytest.param(TON, False, id="truth_or_noise"),
        pytest.param(SCARCE, False, id="scarce"),
        pytest.param(PARTITION, True, id="partition"),
    ],
)
def test_one_svd_per_eigenvalue_one_step(call, landscape, family, svd_inputs):
    """Every SVD a call makes: B's, once, and one of M - I, with nothing else factorized,
    for a family of priors too."""
    landscape = landscape()
    function, eigen_matrix, reads_b = EIGENVALUE_ONE_CALLS[call]
    svd_inputs.clear()
    function(landscape)
    seen = list(svd_inputs)
    matrix = eigen_matrix(landscape)
    expected = [landscape.B.entries] * reads_b + [shifted(matrix)]
    assert len(seen) == len(expected)
    assert [svds_of(seen, m) for m in expected] == [1] * len(expected)
    assert unit_eigenvector_eigenvalue_one(matrix).kind == ("family" if family else "unique")


def generated_split_landscape():
    """A sampled environment with one state split in two: a dependent last belief column."""
    env = sample_environment(np.random.default_rng(8), 3, 5)
    rows = np.vstack([env.structure.entries, env.structure.entries[1]])
    prior = np.append(env.prior.entries, 0.4 * env.prior.entries[1])
    prior[1] *= 0.6
    return generate_landscape(InformationalEnvironment(InformationStructure(rows), Prior(prior)))


@pytest.fixture
def qr_calls(monkeypatch):
    calls: list[np.ndarray] = []
    original = np.linalg.qr

    def qr(a, *args, **kwargs):
        calls.append(np.array(a, dtype=float, copy=True))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", qr)
    return calls


@pytest.mark.parametrize(
    "landscape",
    [
        pytest.param(fixtures.split_state_landscape, id="split_fixture"),
        pytest.param(generated_split_landscape, id="generated_split"),
    ],
)
def test_reduce_and_identify_factorize_once(landscape, svd_inputs, qr_calls):
    """B once, the reduced B once and its A - I once; no QR and no SVD of the kept columns."""
    landscape = landscape()
    svd_inputs.clear()
    reduction = reduce_dependencies(landscape)
    identify(reduction.reduced)
    assert not reduction.trivial
    reduced = reduction.reduced
    expected = [landscape.B.entries, reduced.B.entries, shifted(accuracy(reduced))]
    assert len(svd_inputs) == len(expected)
    assert [svds_of(svd_inputs, m) for m in expected] == [1] * len(expected)
    assert qr_calls == []


@pytest.mark.parametrize("shape", [(2, 3), (2, 4), (3, 5), (4, 3), (50, 60)], ids=str)
@pytest.mark.parametrize("lam", [1e-6, 1e-3])
def test_cached_factorization_gives_the_ridge_solution_bit_for_bit(shape, lam):
    """What ``ridge --lambda`` reads from B's own SVD equals ``ridge_solution_at``."""
    rng = np.random.default_rng(sum(shape))
    n_signals, n_states = shape
    beliefs = StateBeliefMatrix(rng.dirichlet(np.ones(n_states), size=n_signals))
    q = rng.dirichlet(np.ones(n_signals), size=n_signals)
    cached = beliefs._svd.pinv(DEFAULT_TOLERANCES, lam) @ q
    assert np.array_equal(cached, ridge_solution_at(beliefs.entries, q, lam))
