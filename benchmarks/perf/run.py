"""Entry point: ``python3 benchmarks/perf/run.py --workload NAME --seed N --seconds S --trace 0|1``.

Puts the checkout root and its ``src/`` on the import path (and takes this
directory off it, so ``trace.py`` here never shadows the standard library's),
then hands over to :mod:`benchmarks.perf.cli`.
"""

import sys
import time

_STARTED = time.perf_counter()

from pathlib import Path  # noqa: E402

_HERE = Path(__file__).resolve().parent
_ROOT = _HERE.parents[1]
sys.path[:] = [entry for entry in sys.path if Path(entry or ".").resolve() != _HERE]
for _entry in (_ROOT, _ROOT / "src"):
    if str(_entry) not in sys.path:
        sys.path.insert(0, str(_entry))

if not (_ROOT / "src" / "repro").is_dir():
    sys.exit(f"{_ROOT / 'src' / 'repro'}: the program to measure is not in this checkout")

from benchmarks.perf.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main(_STARTED))
