import doctest
import re
import shlex
from pathlib import Path

import pytest

from spherical import bruhat, classify, divisibility, permutations, reduced_words, tree
from spherical.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.mark.parametrize(
    "module", [permutations, bruhat, reduced_words, divisibility, classify, tree]
)
def test_doctests(module):
    failures, _ = doctest.testmod(module)
    assert failures == 0


def test_readme_tour():
    failures, _ = doctest.testfile(str(README), module_relative=False)
    assert failures == 0


# A "$ spherical ..." line in the README and the output lines under it, up
# to the next command or the closing fence.
CLI_EXAMPLE = re.compile(r"^\$ spherical (.*)\n((?:(?!\$ |```).*\n)*)", re.M)


def test_readme_cli(capsys):
    examples = CLI_EXAMPLE.findall(README.read_text())
    assert examples
    for command, expected in examples:
        main(shlex.split(command))
        assert capsys.readouterr().out == expected, command
