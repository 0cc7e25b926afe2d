"""``python -m benchmarks.kbench`` from the repository root."""

import pathlib
import sys

sys.path.insert(
    0, str(pathlib.Path(__file__).resolve().parent.parent.parent / "src")
)

from benchmarks.kbench.cli import main  # noqa: E402

sys.exit(main())
