"""Print the median peak memory of a qcwaves command, counted in the child process alone.

    python -S tools/peak_rss.py N ARGS...

runs ``qcwaves ARGS...`` N times with this tree's ``src/`` on PYTHONPATH and prints the
median ``ru_maxrss`` of the children in MB. A child's peak includes the memory of the parent
it was started from, so the parent runs without ``site`` (it restarts itself under ``-S``).
"""

import os
import statistics
import subprocess
import sys

if not sys.flags.no_site:
    os.execv(sys.executable, [sys.executable, "-S", *sys.argv])
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
LAUNCH = "import sys; from qcwaves.cli import main; sys.exit(main())"

peaks = []
for _ in range(int(sys.argv[1])):
    child = subprocess.Popen([sys.executable, "-c", LAUNCH, *sys.argv[2:]],
                             env={**os.environ, "PYTHONPATH": SRC}, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode not in (0, 4):  # 4: a verify check failed, and the run is whole
        sys.exit(f"qcwaves exited {child.returncode}")
    peaks.append(usage.ru_maxrss / 1024.0)
print(f"median peak RSS {statistics.median(peaks):.2f} MB over {len(peaks)} runs")
