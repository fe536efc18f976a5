"""Time one set-up of a workload in a fresh interpreter.

    python3 perfbench/setup_probe.py <workload> <seed>

Set-up is importing sumprodlab plus building the workload's inputs.  The
benchmark's own modules are imported between the two timed parts, so
their import is not counted.  Prints {"setup_s": <seconds>}.
"""

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    workload, seed = sys.argv[1], int(sys.argv[2])
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    import sumprodlab  # noqa: F401  (the import is what is timed)

    imported = time.perf_counter()
    import workloads

    bench = workloads.make(workload, ROOT)
    built_from = time.perf_counter()
    bench.build(seed)
    end = time.perf_counter()
    print(json.dumps({"setup_s": (imported - start) + (end - built_from)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
