"""The package's public surface: every exported name resolves, the package
re-exports only names its modules export, deleted names stay gone, and bad
inputs raise ParameterError."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import smoothscore
from smoothscore import ParameterError

# Every module but __main__, which runs the CLI when imported.
MODULES = sorted(m.name for m in pkgutil.iter_modules(smoothscore.__path__)
                 if m.name != "__main__")
# Removed with the one-trial subspace-code API and the sampler grid override,
# or moved out of the package.
DELETED = [("channel", "SubspaceCode"), ("channel", "build_subspace_code"),
           ("channel", "channel_draw"), ("channel", "decode_nearest"),
           ("samplers", "sample_exact_with_grid"),
           ("samplers", "sample_independent_with_grid"),
           # converse_bound checks its own inputs.
           ("channel", "ConverseInput"),
           # A test oracle only; it lives in tests/test_diagnostics.py.
           ("diagnostics", "tv_gaussians_1d")]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"smoothscore.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_imports_only_names_in_a_module_all():
    tree = ast.parse(Path(smoothscore.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert {node.module for node in imports} <= set(MODULES)
    for node in imports:
        exported = importlib.import_module(f"smoothscore.{node.module}").__all__
        assert [a.name for a in node.names if a.name not in exported] == [], node.module


@pytest.mark.parametrize("module, name", DELETED)
def test_deleted_names_are_not_importable(module, name):
    assert not hasattr(smoothscore, name)
    assert not hasattr(importlib.import_module(f"smoothscore.{module}"), name)
    with pytest.raises(ImportError):
        exec(f"from smoothscore import {name}", {})


def test_coding_experiment_takes_no_worker_count():
    # The blocks run on the calling thread; there is no thread pool to size.
    params = inspect.signature(smoothscore.run_coding_experiment).parameters
    assert "workers" not in params


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call", [
    lambda: smoothscore.tube_probability(8, 2, [[0.3, 0.5]], 10, np.random.default_rng(0)),
    lambda: smoothscore.tube_probability(8, 2, 0.3, 10, np.random.default_rng(0)),
    lambda: smoothscore.lambda_norm(smoothscore.GaussianTarget(eigvals=[1.0, 4.0], kappa=4.0),
                                    np.ones(3)),
    lambda: smoothscore.lambda_norm(smoothscore.GaussianTarget(eigvals=[1.0, 4.0], kappa=4.0),
                                    np.ones((2, 2))),
    lambda: smoothscore.empirical_covariance([[1.0, 0.0], [np.nan, 2.0]]),
    lambda: smoothscore.empirical_covariance([[1.0, 0.0], [np.inf, 2.0]]),
    lambda: smoothscore.tube_probability(8, 2, ["a"], 10, np.random.default_rng(0)),
    lambda: smoothscore.empirical_covariance(np.ones((3, 2, 2))),
    lambda: smoothscore.empirical_covariance(3.0),
    lambda: smoothscore.quantize_vector(smoothscore.QuantizerConfig(bits=3, clip_radius=1.0),
                                        ["a"]),
    lambda: smoothscore.smallest_bit_depth("3"),
    lambda: smoothscore.GaussianTarget(np.ones(2), "x"),
    lambda: smoothscore.GaussianTarget(["a"], 2.0),
    lambda: smoothscore.GaussianTarget(np.ones(2), 10**400),
    lambda: smoothscore.GaussianTarget(np.ones(2), 2.0, mean=["a", 0.0]),
    lambda: smoothscore.GaussianTarget(np.ones(2), 2.0, basis=[["1", "0"], ["0", "1"]]),
    lambda: smoothscore.lambda_norm(smoothscore.GaussianTarget(eigvals=[1.0, 4.0], kappa=4.0),
                                    ["a", "b"]),
    lambda: smoothscore.bit_lower_bound_table([1, 2], 0.1, [(4, 3, 0.1)]),
], ids=["tube-2d-thetas", "tube-scalar-theta", "lambda-norm-length", "lambda-norm-2d",
        "covariance-nan", "covariance-inf", "tube-theta-str", "covariance-3d",
        "covariance-scalar", "quantize-str", "bit-depth-str", "target-kappa-str",
        "target-eigvals-str", "target-kappa-huge-int", "target-mean-str", "target-basis-str",
        "lambda-norm-str", "converse-table-lengths"])
def test_bad_inputs_raise_parameter_error(call):
    with pytest.raises(ParameterError):
        call()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call", [
    lambda o: o.smoothed_score(1.0, ["a", "b"]),
    lambda o: o.smoothed_score("1", np.zeros(2)),
    lambda o: o.smoothed_scores(["1", "2"], np.zeros(2)),
    lambda o: o.smoothed_scores([1.0, 2.0], [[0.0, 0.0], [0.0]]),
    lambda o: o.finite_bit_query([1.0], ["0", "0"],
                                 lambda g: (g, np.zeros((1, 2), dtype=np.uint64)), 0),
], ids=["score-point-str", "score-tau-numeric-str", "scores-taus-numeric-str",
        "scores-ragged-points", "finite-bit-point-str"])
def test_bad_queries_raise_parameter_error_unrecorded(call):
    oracle = smoothscore.ScoreOracle(smoothscore.GaussianTarget(eigvals=[1.0, 4.0], kappa=4.0))
    with pytest.raises(ParameterError):
        call(oracle)
    assert oracle.tape.query_count == 0
    assert oracle.tape.bits_sent == 0
