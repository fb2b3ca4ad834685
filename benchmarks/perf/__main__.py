"""``PYTHONPATH=src python -m benchmarks.perf`` — same command line as ``run.py``."""

import sys

from benchmarks.perf.run import main

sys.exit(main())
