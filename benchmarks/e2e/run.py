"""Measure one workload; the last line of standard output is JSON.

    python3 benchmarks/e2e/run.py --workload hall_online --seed 1 --seconds 12 --trace 0

Run from the repository root; ``repro`` is imported from ``src``.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
# Replace this script's own directory (whose module names are generic)
# with the repository root, and make ``src`` importable.
sys.path[0:1] = [str(ROOT), str(ROOT / "src")]

from benchmarks.e2e.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main(["one", *sys.argv[1:]]))
