"""``python -m repro`` entry point.

Every matrix the toolflow multiplies is tiny (at most 256x256, mostly
4x4), so BLAS threads only add hand-off cost, and they stall whenever
another process holds a CPU.  Unless the caller set them, the thread
counts are pinned to one before numpy loads.
"""

import sys

from repro.config import pin_blas_threads

pin_blas_threads()

from repro.cli import main  # noqa: E402  (numpy loads after the pins)

if __name__ == "__main__":
    sys.exit(main())
