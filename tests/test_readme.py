"""Every ``fanolab ...`` line of the README's CLI block runs and answers."""

import pathlib
import re
import shlex

import pytest

from fanolab.cli import main

README = pathlib.Path(__file__).parent.parent / "README.md"


def _examples():
    block = re.search(r"## CLI\n.*?```sh\n(.*?)```", README.read_text(),
                      re.S).group(1)
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("fanolab ")]


def test_readme_has_examples():
    assert len(_examples()) >= 10


@pytest.mark.parametrize("argv", _examples(), ids=" ".join)
def test_readme_example_runs(capsys, argv):
    code = main(argv)
    assert code in (0, 2)
    assert capsys.readouterr().out
