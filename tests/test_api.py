"""The package's public surface: every exported name resolves, the package
re-exports only names its modules export, and deleted names stay gone."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import smoothscore

# Every module but __main__, which runs the CLI when imported.
MODULES = sorted(m.name for m in pkgutil.iter_modules(smoothscore.__path__)
                 if m.name != "__main__")
# Removed with the one-trial subspace-code API and the sampler grid override,
# or moved out of the package.
DELETED = [("channel", "SubspaceCode"), ("channel", "build_subspace_code"),
           ("channel", "channel_draw"), ("channel", "decode_nearest"),
           ("samplers", "sample_exact_with_grid"),
           ("samplers", "sample_independent_with_grid"),
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
