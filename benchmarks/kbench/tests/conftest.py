"""kbench self-tests: ``PYTHONPATH=src python -m pytest benchmarks/kbench/tests -q``
(under 20 s; not part of tier-1, which collects ``tests/`` only)."""

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[3]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)
