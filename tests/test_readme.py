"""README.md's documented library usage runs as written."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    section = README.read_text().split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    mota, idf1, switches = out.getvalue().split()
    assert 0.0 <= float(idf1) <= 1.0 and float(mota) <= 1.0 and int(switches) >= 0
