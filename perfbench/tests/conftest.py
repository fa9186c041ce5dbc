"""Make the benchmark's modules and the program importable in its tests.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]
