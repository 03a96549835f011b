"""Record the reference figure CSVs the planning workload compares against.

    python3 perfbench/record_figures.py

Writes perfbench/reference/<figure>.csv from the checkout's current code.
Re-record only when a change to the figures is intended.
"""

import sys

import workloads as wl


def main() -> int:
    bf = wl.import_biasforge()
    ledger = wl.Ledger()
    wl.REFERENCE_DIR.mkdir(exist_ok=True)
    got, _ = wl.write_figures(bf, wl.REFERENCE_DIR, ledger)
    if ledger.failed or len(got) != len(bf.cli.SWEEP_FIGURES):
        print("perfbench: a figure failed to write", file=sys.stderr)
        return 1
    print(f"wrote {len(got)} figures to {wl.REFERENCE_DIR}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
