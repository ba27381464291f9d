"""README.md's ``python`` blocks run as written, so the documented library API cannot drift from the code."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), flags=re.DOTALL | re.MULTILINE)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block-{k}" for k in range(len(BLOCKS))])
def test_readme_python_block_runs(block):
    exec(compile(block, str(README), "exec"), {"__name__": "readme"})
