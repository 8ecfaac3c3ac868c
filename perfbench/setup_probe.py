"""Time one fresh interpreter's set-up: import zetacheck.cli, one warm-up call.

Usage: python3 setup_probe.py WORKLOAD TMP_DIR
Prints the elapsed seconds on stdout.  run.py starts this several times per
run and reports the median as setup_s.
"""

import time

T0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import zetacheck.cli  # noqa: E402,F401

import workloads  # noqa: E402

workloads.warm_up(sys.argv[1], sys.argv[2])
print(repr(time.perf_counter() - T0))
