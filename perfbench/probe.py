"""Set-up probe: import one workload (and with it perisurf), warm it up,
print ``ready`` and leave without interpreter teardown.

    python3 perfbench/probe.py census_sweep

``run.py`` times this process from spawn to exit as ``setup_s``.
"""

import importlib
import os
import sys

importlib.import_module(sys.argv[1]).warm_up()
sys.stdout.write("ready\n")
sys.stdout.flush()
os._exit(0)
