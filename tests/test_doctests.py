import doctest
from pathlib import Path

import pytest

import quandlehom.chains
import quandlehom.homology
import quandlehom.intlinalg
import quandlehom.quandle


@pytest.mark.parametrize(
    "module",
    [
        quandlehom.quandle,
        quandlehom.chains,
        quandlehom.intlinalg,
        quandlehom.homology,
    ],
)
def test_module_doctests(module):
    failures, _ = doctest.testmod(module, verbose=False)
    assert failures == 0


def test_readme_examples():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    failures, tried = doctest.testfile(str(readme), module_relative=False)
    assert tried > 0
    assert failures == 0
