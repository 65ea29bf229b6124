import doctest
from pathlib import Path

import pytest

from spherical import bruhat, classify, divisibility, permutations, reduced_words


@pytest.mark.parametrize(
    "module", [permutations, bruhat, reduced_words, divisibility, classify]
)
def test_doctests(module):
    failures, _ = doctest.testmod(module)
    assert failures == 0


def test_readme_tour():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    failures, _ = doctest.testfile(str(readme), module_relative=False)
    assert failures == 0
