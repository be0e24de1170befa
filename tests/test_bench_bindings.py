"""The bench's layer table must match the package's bindings.

bench/layers.py names every callable the traced benchmark wraps and every
attribute that binds it.  A `from .serialize import f` copy of a listed
callable escapes the wrapper, so resolve(strict=True) refuses it; running
that check here makes a stale table fail the test suite on every
interpreter, not only in a traced benchmark run.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_layer_table_resolves_strictly():
    paths = [str(ROOT / "src"), str(ROOT / "bench")]
    code = f"import sys; sys.path[:0] = {paths!r}; import layers; layers.resolve(strict=True)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
