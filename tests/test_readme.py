"""The README's code examples run against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_block(section: str) -> str:
    """The first ```python block under the README heading ``section``."""
    text = README.read_text()
    start = text.index(f"\n## {section}\n")
    match = re.compile(r"```python\n(.*?)```", re.S).search(text, start)
    assert match is not None, f"no python block under {section!r}"
    return match.group(1)


def test_library_example_runs(capsys):
    namespace = {}
    exec(compile(_python_block("Library example"), "README.md", "exec"), namespace)
    out = namespace["out"]
    assert out.f_before < out.f_after and 0.0 < out.p_accept < 1.0
    assert 0.0 < namespace["noisy"].p_accept < 1.0
    printed = capsys.readouterr().out.split()
    assert [float(v) for v in printed] == [out.f_before, out.f_after, out.p_accept, out.ratio]
