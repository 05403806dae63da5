"""The package declares ``requires-python = ">=3.10"``: every module of it
parses as Python 3.10, whichever interpreter runs the tests."""

import ast
from pathlib import Path

import pytest

import milnor_forge

MODULES = sorted(Path(milnor_forge.__file__).resolve().parent.glob("*.py"))


def test_modules_found():
    assert len(MODULES) > 5


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_parses_as_python_3_10(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
