import doctest
import importlib
import pkgutil
from pathlib import Path

import pytest

import quandlehom

# every module of the package; importing __main__ would run the CLI
MODULES = ["quandlehom"] + [
    f"quandlehom.{name}"
    for _, name, _ in pkgutil.iter_modules(quandlehom.__path__)
    if name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    failures, _ = doctest.testmod(importlib.import_module(name), verbose=False)
    assert failures == 0


def test_readme_examples():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    failures, tried = doctest.testfile(str(readme), module_relative=False)
    assert tried > 0
    assert failures == 0
