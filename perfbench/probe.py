"""Measurements that need a fresh interpreter; prints one JSON line.

    python3 perfbench/probe.py setup
        wall seconds, and CPU seconds of the importing thread, from
        interpreter start until biasforge is imported (numpy and mpmath
        with it) and the lazy tables every run pays are built; and the
        speed kernel's seconds per rep right after, for comparison.
    python3 perfbench/probe.py fixed WORKLOAD SEED SIZE
        untraced wall seconds of a workload's fixed pass, with its
        operation counts; the traced run subtracts it from its own.
"""

import json
import sys
import time

t0, cpu0 = time.perf_counter(), time.thread_time()
import workloads as wl  # noqa: E402  (timed: it imports numpy)


def main(argv) -> int:
    if argv == ["setup"]:
        bf = wl.import_biasforge()
        wl.setup(bf)
        wall_s, cpu_s = time.perf_counter() - t0, time.thread_time() - cpu0
        print(json.dumps({"setup_s": wall_s, "setup_cpu_s": cpu_s, "kernel_s": wl.speed.kernel(reps=20)}))
        return 0
    if len(argv) == 4 and argv[0] == "fixed" and argv[1] in wl.WORKLOADS and argv[3] in wl.SCALES:
        workload, seed, size = argv[1], int(argv[2]), argv[3]
        bf = wl.import_biasforge()
        wl.setup(bf)
        ledger = wl.Ledger()
        wall = wl.FIXED[workload](bf, seed, wl.SCALES[size], ledger)
        print(json.dumps({"wall_s": wall, "attempted": ledger.attempted, "failed": ledger.failed}))
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
