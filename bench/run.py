"""Script entry point of the benchmark (the ``BENCHMARK.json`` command)::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Equivalent to ``python -m bench`` from the repository root; see
``bench/harness.py`` and ``bench/README.md``.
"""

import os
import sys

if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    from bench.harness import main

    sys.exit(main())
