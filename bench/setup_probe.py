"""Time one set-up of polarsolve in a fresh interpreter.

Set-up is what happens before the first solve: importing polarsolve (and
numpy with it), loading and validating a config, and building its grid.

Usage: python3 bench/setup_probe.py SRC_DIR CONFIG SUBCOMMAND
Prints the seconds taken as the only line of standard output.
"""

import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])

from dataclasses import replace  # noqa: E402

from polarsolve.config import load_config, validate  # noqa: E402
from polarsolve.grids import build_grid  # noqa: E402

config = validate(replace(load_config(sys.argv[2]), experiment=sys.argv[3]))
build_grid(config.resolved_grid_n())
print(repr(time.perf_counter() - start))
