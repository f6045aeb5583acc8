"""The library example in README.md runs as printed and meets its residual."""

import contextlib
import io
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example():
    text = README.read_text(encoding="utf-8")
    example = text.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(example, str(README), "exec"), {})
    assert float(printed.getvalue()) < 1e-5
