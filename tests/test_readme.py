"""README.md's documented library usage and CLI walkthrough run as written."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from fairtrack import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    section = README.read_text().split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    mota, idf1, switches = out.getvalue().split()
    assert 0.0 <= float(idf1) <= 1.0 and float(mota) <= 1.0 and int(switches) >= 0


def test_cli_walkthrough_runs(tmp_path, monkeypatch):
    """Each ``fairtrack`` line of the CLI section's sh block, in order, in an
    empty directory, exits 0; comment lines are skipped."""
    section = README.read_text().split("\n## CLI\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    commands = [shlex.split(line)[1:] for line in block.splitlines()
                if line.startswith("fairtrack ")]
    assert commands
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0, argv
