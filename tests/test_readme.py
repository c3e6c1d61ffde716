"""The README's library example runs as written against the package."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    section = README.read_text().split("## Library use", 1)[1].split("\n## ", 1)[0]
    match = re.search(r"```python\n(.*?)```", section, re.S)
    assert match, "no python block under the README's Library use heading"
    return match.group(1)


def test_library_example_runs_verbatim(capsys):
    exec(compile(library_example(), str(README), "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out.startswith("RunMetrics(")
