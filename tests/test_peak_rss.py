"""tools/peak_rss.py: the median child-only peak memory of a qcwaves command."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_prints_the_median_peak_of_its_runs():
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "peak_rss.py"), "2", "--version"],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    peak = re.fullmatch(r"median peak RSS (\d+\.\d\d) MB over 2 runs\n", done.stdout)
    assert peak and 0.0 < float(peak.group(1)) < 1000.0


def test_a_failed_command_is_reported():
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "peak_rss.py"), "1", "verify"],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 1 and "qcwaves exited 2" in done.stderr
