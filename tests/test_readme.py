"""The library quick start in README.md and in PAPER.md runs as written and
prints what it says."""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", ["README.md", "PAPER.md"])
def test_library_quick_start_prints_its_commented_values(name, capsys):
    doc = ROOT / name
    block = doc.read_text().split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, str(doc), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    statements = [line for line in block.splitlines() if line.startswith("print(")]
    assert len(printed) == len(statements)
    # A comment such as "# (0.6008..., 0.3355...)" or "# True: why" states
    # the printed line; "..." stands for further digits.
    claims = [
        (line, statement.rsplit("  # ", 1)[1].split(": ", 1)[0])
        for statement, line in zip(statements, printed)
        if "  # " in statement
    ]
    assert len(claims) == 3  # taus, feasibility and the pure Nash strings
    for line, claim in claims:
        assert re.fullmatch(re.escape(claim).replace(r"\.\.\.", r"\d*"), line), (line, claim)
