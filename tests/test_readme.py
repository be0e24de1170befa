"""The README's library example runs as written."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    block = re.match(r"\s*```python\n(.*?)```", section, re.S)
    assert block, "no python block opens the Library example section"
    # optimize=0 keeps the example's asserts under python -O as well
    exec(compile(block.group(1), "README.md", "exec", optimize=0), {})
