"""Times one benchmark set-up in a fresh process and prints the seconds.

Usage: python setup_probe.py WORKLOAD SEED WORKDIR  (from a checkout root,
with the checkout's src on PYTHONPATH)

Set-up is importing gkm3 (with its cli module, whose renderer the
in-process operations use) plus generating the workload's inputs and its
first round of operations.
"""

import sys
import time
from pathlib import Path

t0 = time.perf_counter()
import gkm3.cli  # noqa: E402,F401

from workloads import Workload  # noqa: E402

Workload(sys.argv[1], Path.cwd(), int(sys.argv[2]), Path(sys.argv[3])).next_round()
print(time.perf_counter() - t0)
