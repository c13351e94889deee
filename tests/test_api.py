"""The package's public surface: every exported name resolves, the package
re-exports only names its modules export, deleted names stay gone, and bad
inputs raise ParameterError."""

import ast
import importlib
import inspect
import math
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import smoothscore
from smoothscore import ParameterError, errors

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
           ("diagnostics", "tv_gaussians_1d"),
           # Each sampler's law is SamplerParams.law.
           ("diagnostics", "law_of_alg1"), ("diagnostics", "law_of_alg2"),
           ("diagnostics", "law_of_alg3_ideal"),
           # An alias; the package takes run_streams from streams.
           ("samplers", "run_streams")]


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


def test_numeric_input_rules_live_in_errors_only():
    # errors.py alone decides what a real number or an array of reals is:
    # nowhere else may a module test numbers.Real or convert an input with a
    # typed np.asarray.  streams._words sizes a seed by numbers.Integral,
    # which dispatches on a type and checks nothing.
    found = []
    for path in sorted(Path(smoothscore.__file__).parent.glob("*.py")):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "numbers":
                found.append((path.name, node.lineno, "from numbers import"))
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id == "numbers"
                  and (path.name, node.attr) != ("streams.py", "Integral")):
                found.append((path.name, node.lineno, f"numbers.{node.attr}"))
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "asarray"
                  and (len(node.args) > 1 or any(k.arg == "dtype" for k in node.keywords))):
                found.append((path.name, node.lineno, "typed asarray"))
    assert found == []


def test_diagnostics_imports_only_errors():
    # Each sampler's law lives in its spec, SamplerParams.law; diagnostics
    # only turns variance ratios into KL and TV, so it imports no module
    # that knows a grid, a target or a sampler.
    tree = ast.parse((Path(smoothscore.__file__).parent / "diagnostics.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {getattr(node, "module", None) or "", *(a.name for a in node.names)}
    words = {word for name in names for word in name.split(".")}
    assert words & set(MODULES) == {"errors"}


def _src_nodes():
    """(file name, name of the innermost enclosing function, node) for every
    AST node of the package's modules."""
    for path in sorted(Path(smoothscore.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        # ast.walk goes breadth first, so a nested function's name wins.
        owner = {id(node): fn.name for fn in ast.walk(tree)
                 if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                 for node in ast.walk(fn)}
        for node in ast.walk(tree):
            yield path.name, owner.get(id(node)), node


def test_json_documents_are_read_in_one_place():
    # errors.parse_json is the one reader of a JSON document; cli._cmd_sample
    # re-reads a run descriptor with json.loads only for a seed beyond 64 bits.
    readers = {"json.load", "json.loads", "orjson.loads"}
    found = []
    for name, owner, node in _src_nodes():
        if isinstance(node, ast.ImportFrom) and node.module in ("json", "orjson"):
            found.append((name, owner, f"from {node.module} import"))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and isinstance(node.func.value, ast.Name)
              and f"{node.func.value.id}.{node.func.attr}" in readers):
            found.append((name, owner, f"{node.func.value.id}.{node.func.attr}"))
    assert sorted(found) == [("cli.py", "_cmd_sample", "json.loads"),
                             ("errors.py", "parse_json", "orjson.loads")]


def test_float_arrays_are_written_in_one_place():
    # cli._float_rows is the one user of orjson.dumps on floats: it alone
    # knows which fields orjson lays out unlike repr.  cli._trial_rows writes
    # only ints and bools, which orjson lays out as str does, so they need
    # no fix-ups.
    found = [(name, owner) for name, owner, node in _src_nodes()
             if isinstance(node, ast.Attribute) and node.attr == "dumps"
             and isinstance(node.value, ast.Name) and node.value.id == "orjson"]
    assert sorted(found) == [("cli.py", "_float_rows"), ("cli.py", "_trial_rows")]


# 1 + 2**-53, halfway between 1 and the next float64, written out exactly.
_HALFWAY = "1.00000000000000011102230246251565404236316680908203125"
_HARD_TOKENS = [
    _HALFWAY, _HALFWAY[:-1] + "4", _HALFWAY[:-1] + "6",
    "2.2250738585072011e-308", "2.4703282292062327e-324", "2.4703282292062328e-324",
    "1.7976931348623157e308",
    # 400-digit mantissas: the halfway value exactly, and just above it.
    _HALFWAY + "0" * 346, _HALFWAY + "0" * 345 + "1",
]


def test_json_reader_gives_each_float_the_bits_of_float():
    # 10**5 random finite bit patterns, each written by repr and by "%.25e",
    # then the hard rounding cases, all read in one document.
    x = np.frombuffer(np.random.default_rng(2026).bytes(8 * 101_000), np.float64)
    x = x[np.isfinite(x)][:100_000]
    assert x.size == 100_000
    tokens = [f(v) for v in x.tolist() for f in (repr, "%.25e".__mod__)]
    tokens += _HARD_TOKENS + ["-" + t for t in _HARD_TOKENS]
    got = np.array(errors.parse_json("[" + ",".join(tokens) + "]", "floats"))
    want = np.array([float(t) for t in tokens])
    assert got.dtype == want.dtype == np.float64
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("data", [
    b"[NaN]", b"[Infinity]", b"[-Infinity]", b"[1e400]", b'["\\ud800"]',
    b"\xef\xbb\xbf[1.0]", b"\xff", b"[1.0", "[1, 2",
], ids=["nan", "inf", "minus-inf", "beyond-float64", "lone-surrogate", "bom", "not-utf8",
        "truncated", "truncated-str"])
def test_json_reader_refuses_what_strict_json_refuses(data):
    with pytest.raises(ParameterError, match="^doc is not JSON"):
        errors.parse_json(data, "doc")


@pytest.mark.parametrize("encode", [str.encode, str])
def test_json_reader_caps_the_arrays_and_objects_it_opens(encode):
    cap = errors._MAX_OPENS
    flat = "[" + '{"a": []},' * ((cap - 2) // 2) + "[]]"
    assert len(errors.parse_json(encode(flat), "doc")) == cap // 2
    with pytest.raises(ParameterError, match=f"^doc opens more than {cap} arrays"):
        errors.parse_json(encode("[" + flat), "doc")


@pytest.mark.parametrize("data", [None, 1.5, memoryview(b"[1]")])
def test_json_reader_takes_text_or_bytes_only(data):
    with pytest.raises(ParameterError, match="must be text or bytes"):
        errors.parse_json(data, "doc")
    assert errors.parse_json(bytearray(b"[1]"), "doc") == [1]


def test_json_reader_reads_integers_beyond_64_bits_as_floats():
    assert errors.parse_json(b"[18446744073709551615, 18446744073709551619]", "doc") == [
        2**64 - 1, float(2**64 + 3)]


@pytest.mark.parametrize("module, name", DELETED)
def test_deleted_names_are_not_importable(module, name):
    assert not hasattr(importlib.import_module(f"smoothscore.{module}"), name)
    if any(name in importlib.import_module(f"smoothscore.{m}").__all__ for m in MODULES):
        return  # the package still exports it from its own module
    assert not hasattr(smoothscore, name)
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
    lambda: errors.check_real("x", True, 0.0, 2.0),
    lambda: errors.check_real("x", np.True_, 0.0, 2.0),
    lambda: errors.check_real("x", "0.5", 0.0, 1.0),
    lambda: errors.check_real("x", 0.5 + 0j, 0.0, 1.0),
    lambda: errors.check_real("x", None, 0.0, 1.0),
    lambda: errors.check_real("x", [0.5], 0.0, 1.0),
    lambda: errors.check_real("x", np.array(0.5), 0.0, 1.0),
    lambda: errors.check_real("x", math.nan, -math.inf, math.inf),
    lambda: errors.check_real("x", math.inf, 0.0, math.inf),
    lambda: errors.check_real("x", -math.inf, -math.inf, 0.0),
    lambda: errors.check_real("x", 10**400, 0.0, math.inf),
    lambda: errors.check_real("x", 0.0, 0.0, 1.0, open_low=True),
    lambda: errors.check_real("x", 1, 0.0, 1.0, open_high=True),
    lambda: errors.check_real("x", 1.5, 0.0, 1.0),
    lambda: errors.check_real("x", -0.5, 0.0, 1.0),
    lambda: smoothscore.build_grid(0.1, True),
    lambda: smoothscore.sampler_params("exact", 2, True, 0.1),
    lambda: smoothscore.converse_bound(True, 0.1, 0.1),
    lambda: smoothscore.fixed_error_bound(True, 0.1),
    lambda: smoothscore.fixed_error_bound(5, "0.1"),
    lambda: smoothscore.bit_lower_bound_table(["x"], 0.1, [(8, 3, 0.1)]),
    lambda: smoothscore.bit_lower_bound_table([True], 0.1, [(8, 3, 0.1)]),
    lambda: smoothscore.betainc_reg("1", 2, 0.5),
    lambda: smoothscore.betainc_reg(1, 2, "0.5"),
    lambda: smoothscore.betainc_reg(1, 2, True),
    lambda: smoothscore.estimate_mean(smoothscore.GaussianTarget([1.0, 4.0], 4.0), True),
    lambda: smoothscore.smallest_bit_depth(True),
    lambda: smoothscore.GaussianTarget.from_precision([[1, 0], [0]]),
    lambda: smoothscore.GaussianTarget.from_precision([["1", "0"], ["0", "5"]]),
    lambda: smoothscore.GaussianTarget.from_precision(np.diag([1.0, 5.0]), kappa="5"),
    lambda: smoothscore.GaussianTarget.from_covariance([[1, 0], [0]]),
    lambda: smoothscore.GaussianTarget.from_covariance(np.diag([1.0, 0.2]), kappa="5"),
    lambda: smoothscore.SamplerParams("quantized", smoothscore.build_grid(0.1, 4.0),
                                      sigma2="0.1", r_clip=1.0, bits=8).law(
        smoothscore.GaussianTarget([1.0, 4.0], 4.0)),
    lambda: smoothscore.SamplerParams("quantized", smoothscore.build_grid(0.1, 4.0),
                                      sigma2=math.nan, r_clip=1.0, bits=8).law(
        smoothscore.GaussianTarget([1.0, 4.0], 4.0)),
    lambda: smoothscore.SamplerParams("bogus", smoothscore.build_grid(0.1, 4.0)),
    lambda: smoothscore.SamplerParams("quantized", smoothscore.build_grid(0.1, 4.0)),
    lambda: smoothscore.SamplerParams("quantized", smoothscore.build_grid(0.1, 4.0),
                                      sigma2=0.1, r_clip=1.0),
    lambda: smoothscore.SamplerParams("exact", smoothscore.build_grid(0.1, 4.0), sigma2=0.1),
    lambda: smoothscore.SamplerParams("independent", smoothscore.build_grid(0.1, 4.0),
                                      bits=8),
    lambda: smoothscore.SamplerParams("uncentered", smoothscore.build_grid(0.1, 4.0),
                                      r_clip=1.0),
    lambda: smoothscore.SamplerParams("quantized", smoothscore.build_grid(0.1, 4.0),
                                      sigma2=0.1, r_clip=0.0, bits=8),
    lambda: smoothscore.SamplerParams("quantized", smoothscore.build_grid(0.1, 4.0),
                                      sigma2=0.1, r_clip=1.0, bits=8.0),
    lambda: errors.as_real_array("x", [1.0, True]),
    lambda: errors.as_real_array("x", [[0.5, False]]),
    lambda: errors.as_real_array("x", [np.True_, 2.0]),
    lambda: errors.as_real_array("x", ((1.0, 0.5), (0.5, False))),
    lambda: errors.as_real_array("x", [np.array([True, False]), np.array([0.5, 2.0])]),
    lambda: errors.as_real_array("x", [[0.5] * 100, [0.5] * 99 + [True]]),
    lambda: smoothscore.empirical_covariance([["1"], ["2"]]),
    lambda: smoothscore.CoDiagonalLawPair(["1.0"]),
    lambda: smoothscore.eval_r(smoothscore.build_grid(0.1, 10.0), math.nan),
    lambda: smoothscore.eval_r(smoothscore.build_grid(0.1, 10.0), math.inf),
    lambda: smoothscore.eval_sq_sum(smoothscore.build_grid(0.1, 10.0), [1.0, math.nan]),
    lambda: smoothscore.eval_r(smoothscore.build_grid(0.1, 10.0), "1.0"),
    lambda: smoothscore.exact_accuracy(2.5, 0.1),
    lambda: smoothscore.independent_accuracy(True, 0.1),
    lambda: smoothscore.exact_accuracy("3", 0.1),
], ids=["tube-2d-thetas", "tube-scalar-theta", "lambda-norm-length", "lambda-norm-2d",
        "covariance-nan", "covariance-inf", "tube-theta-str", "covariance-3d",
        "covariance-scalar", "quantize-str", "bit-depth-str", "target-kappa-str",
        "target-eigvals-str", "target-kappa-huge-int", "target-mean-str", "target-basis-str",
        "lambda-norm-str", "converse-table-lengths",
        "real-bool", "real-numpy-bool", "real-str", "real-complex", "real-none", "real-list",
        "real-0d-array", "real-nan", "real-inf", "real-minus-inf", "real-huge-int",
        "real-open-low", "real-open-high", "real-above", "real-below",
        "grid-kappa-bool", "params-kappa-bool", "converse-bool", "fixed-error-bool",
        "fixed-error-delta-str", "converse-table-kappa-str", "converse-table-kappa-bool",
        "betainc-a-str", "betainc-x-str", "betainc-x-bool", "mean-delta-mu-bool",
        "bit-depth-bool", "precision-ragged", "precision-str", "precision-kappa-str",
        "covariance-matrix-ragged", "covariance-matrix-kappa-str", "alg3-sigma2-str",
        "quantized-law-sigma2-nan", "params-unknown-algorithm", "params-quantized-bare",
        "params-quantized-no-bits", "params-exact-sigma2", "params-independent-bits",
        "params-uncentered-r-clip", "params-quantized-zero-r-clip",
        "params-quantized-float-bits", "array-bool-among-floats", "array-nested-bool",
        "array-numpy-bool", "array-tuple-bool", "array-bool-subarray", "array-long-nest-bool",
        "empirical-covariance-str", "law-pair-str", "eval-r-nan", "eval-r-inf",
        "eval-sq-sum-nan", "eval-r-str", "exact-accuracy-fractional-dim",
        "independent-accuracy-bool-dim", "exact-accuracy-str-dim"])
def test_bad_inputs_raise_parameter_error(call):
    with pytest.raises(ParameterError):
        call()


@pytest.mark.parametrize("value", [[1, 2.5], [0.0, 1.0], [[0, 1], [1.0, 0.5]], (0.0,),
                                   np.array([0.0, 1.0]), [[0.5] * 100, [0.5] * 99 + [1]]])
def test_numbers_that_equal_0_or_1_are_accepted(value):
    assert np.array_equal(errors.as_real_array("x", value), np.asarray(value, dtype=float))


def test_sampler_params_keep_their_fields_as_checked_reals():
    grid = smoothscore.build_grid(0.1, 4.0)
    p = smoothscore.SamplerParams("quantized", grid, sigma2=0, r_clip=2, bits=np.int64(9))
    assert (p.sigma2, p.r_clip, p.bits) == (0.0, 2.0, 9)
    assert type(p.sigma2) is float and type(p.r_clip) is float and type(p.bits) is int
    for algorithm in ("exact", "independent", "uncentered"):
        assert smoothscore.SamplerParams(algorithm, grid).total_bits(3) == 0


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
