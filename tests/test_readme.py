"""README code: every ```python block runs clean in a fresh interpreter."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_readme_python_blocks_run(tmp_path):
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", text, flags=re.M | re.S)
    assert blocks, "README.md has no python block"
    for i, code in enumerate(blocks):
        proc = subprocess.run(
            [sys.executable, "-c", code],
            cwd=tmp_path,
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, f"block {i}:\n{code}\n{proc.stderr}"
