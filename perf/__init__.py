"""The repo's timing benchmark (see ``perf/README.md``).

``repro bench`` gates load *quality*; this package measures *time*: what
a user of ``repro sweep`` or ``repro serve`` waits for, end to end, and
which layer the wait belongs to.  It drives the program only through its
public surface — CLI argv, the HTTP API, and (for the traced replay) the
functions the ``repro`` packages export.
"""

from __future__ import annotations

import sys
from pathlib import Path

PERF = Path(__file__).resolve().parent
REPO = PERF.parent
SRC = REPO / "src"
OUT = PERF / "out"

# The benchmark measures the checkout it lives in, never an installed
# copy: children get SRC through PYTHONPATH, the in-process replay and
# the checker through sys.path.
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
