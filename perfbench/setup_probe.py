"""Set-up cost of one fresh process, printed as JSON.

Times everything a user pays before the first pass of a workload can
start: ``import repro``, loading the compiled kernel provider from its
warm on-disk cache, and the lazy first-touch imports (``scipy.spatial``
inside the first neighbor query), paid here by a seconds-scale run of the
workload's own code path.  The yardstick loop of ``run.py`` runs before
and after, in this process, so the caller can pace the result.

Usage, from the root of a checkout::

    python3 perfbench/setup_probe.py WORKLOAD SCRATCH_DIR LOOPS
"""

import sys
import time


def _yardstick(loops: int) -> float:
    start = time.perf_counter()
    total = 0
    for i in range(loops):
        total += i * i
    return time.perf_counter() - start


if __name__ == "__main__":
    loops = int(sys.argv[3])
    before = _yardstick(loops)
    start = time.perf_counter()

    import json
    import os

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path[:0] = [os.path.join(root, "src"), root]

    from repro.kernels import kernel_tier_label

    from perfbench.workloads import DEFAULT_SEED, WORKLOADS

    kernel_tier_label("auto")
    WORKLOADS[sys.argv[1]].tiny(DEFAULT_SEED, "auto", sys.argv[2])
    setup_s = time.perf_counter() - start
    print(json.dumps({"setup_s": setup_s, "yardsticks": [before, _yardstick(loops)]}))
