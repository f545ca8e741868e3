"""The `sh` examples under `## CLI` in README.md, run through `cli.main`.

Every line must exit 0. A `# -> X` comment pins the whole stdout; a comment
listing terms that ends in `...` pins its start.
"""

import contextlib
import io
import shlex
from pathlib import Path

import pytest

from cfinite.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def cli_examples():
    section = README.read_text().split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("cfinite ")]


def test_readme_has_cli_examples():
    assert len(cli_examples()) >= 7


@pytest.mark.parametrize("line", cli_examples())
def test_readme_example(line):
    argv = shlex.split(line, comments=True)[1:]
    comment = line.partition(" #")[2].strip()
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code == 0
    got = out.getvalue().rstrip("\n")
    if comment.startswith("-> "):
        assert got == comment[3:]
    elif comment.endswith("..."):
        assert got.startswith(comment[:-3].rstrip(" ,"))
