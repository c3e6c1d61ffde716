"""The README's library example runs as written against the package, and
its command-line examples parse."""

import re
import shlex
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


def command_lines() -> list[str]:
    section = README.read_text().split("## Command line", 1)[1].split("\n## ", 1)[0]
    match = re.search(r"```sh\n(.*?)```", section, re.S)
    assert match, "no sh block under the README's Command line heading"
    return [line for line in match.group(1).splitlines() if line.startswith("lmsharq ")]


def test_every_command_line_example_parses():
    from lmsharq.cli import build_parser

    lines = command_lines()
    assert lines, "no lmsharq line in the README's Command line block"
    for line in lines:
        # argparse exits on an unknown option; parsing runs no command
        build_parser().parse_args(shlex.split(line)[1:])
