"""tools/compare_outputs.py: a tree compared with itself is identical throughout."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_same_tree_reports_every_output_identical():
    src = str(ROOT / "src")
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "compare_outputs.py"), src, src],
                          capture_output=True, text=True, timeout=300)
    lines = done.stdout.splitlines()
    assert done.returncode == 0, done.stdout + done.stderr
    assert len(lines) == 8 and all(line.split()[1].startswith("identical") for line in lines)
    assert sum("max ulp 0, max diff / column max 0" in line for line in lines) == 3
