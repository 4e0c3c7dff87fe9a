"""Script entry point of the benchmark: ``python3 benchmarks/e2e/run.py``.

Same options as ``PYTHONPATH=src python -m benchmarks.e2e``; it sets up
the import path itself.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from benchmarks.e2e.harness import main  # noqa: E402

if __name__ == "__main__":
    raise SystemExit(main())
