"""Backend flags read by the benchmark's environment block (perfbench/run.py).

Every kernel runs as plain numpy; nothing here is used by the package.
The module goes once the benchmark stops reading these two names.
"""

import importlib.util

JIT_ENABLED = False
HAVE_NUMBA = importlib.util.find_spec("numba") is not None
