"""Set-up in a fresh interpreter: import lwerng, default_params(), build the
workload's inputs.  Prints the import time as JSON.

    python3 perfbench/setup_child.py WORKLOAD SEED
"""

import json
import sys
import time

t0 = time.perf_counter()
from common import load_lwerng  # noqa: E402

lw = load_lwerng()
import_s = time.perf_counter() - t0

import workloads  # noqa: E402

workloads.make(lw, sys.argv[1], int(sys.argv[2])).setup()
print(json.dumps({"import_s": import_s}))
