"""The README's library quickstart runs against this checkout's package."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_quickstart_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    code = re.search(r"^```python\n(.*?)^```", readme, re.S | re.M).group(1)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert out.returncode == 0, out.stderr
