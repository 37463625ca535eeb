"""Make ``cdgps`` importable from the source tree for the benchmark's self-tests
(``python3 -m pytest benchmarks``)."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
