"""Set-up probe: one fresh interpreter that imports lexivis and loads one workload's inputs.

Usage: python3 perfbench/probe.py <workload> <work dir> <seed>

Prints the system-wide monotonic clock reading at the moment the inputs are
loaded; the caller subtracts the reading it took just before starting this
interpreter, which gives the time from a fresh interpreter to the first
operation the workload could time.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import WORKLOADS  # noqa: E402  (imports lexivis: part of set-up)

WORKLOADS[sys.argv[1]].load(Path(sys.argv[2]), int(sys.argv[3]))
print(time.clock_gettime(time.CLOCK_MONOTONIC))
