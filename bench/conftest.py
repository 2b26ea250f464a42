"""Import the checkout's own sources and the benchmark modules in tests.

Run the benchmark's own tests from the repository root:

    python3 -m pytest bench
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
