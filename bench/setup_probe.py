"""Time one cold set-up of a workload and print the seconds it took.

Usage, from the repository root: ``python3 bench/setup_probe.py WORKLOAD SEED``

Set-up is the import of heraldsim plus parsing and building the workload's
inputs.  ``run.py`` runs this in several fresh processes and reports the
median as ``setup_s``.  numpy is imported before the clock starts: its import
is a fixed cost outside the program, about twice the rest, and it swung by
half between otherwise identical sets of runs on a shared host.
"""

import sys
from pathlib import Path
from time import perf_counter

import numpy  # noqa: F401


def main() -> None:
    name, seed = sys.argv[1], int(sys.argv[2])
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    started = perf_counter()
    import workloads
    workloads.build(name, seed)
    print(perf_counter() - started)


if __name__ == "__main__":
    main()
