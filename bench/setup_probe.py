"""Set-up as a user pays it: a fresh interpreter imports preproj.cli and
parses every quiver file of the workload, before any computation.

Usage: python3 bench/setup_probe.py QUIVER_DIR   (package on PYTHONPATH)
"""

import sys
from pathlib import Path

import preproj.cli  # noqa: F401
from preproj.quiver import parse_quiver

files = sorted(Path(sys.argv[1]).glob("*.quiver"))
if not files:
    raise SystemExit("no quiver files in %s" % sys.argv[1])
for f in files:
    parse_quiver(f.read_text(encoding="utf-8"))
