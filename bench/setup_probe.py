"""Set-up probe: in a fresh interpreter, import the package and run one
warm-up operation of a workload, then print "ready".

    python3 bench/setup_probe.py <workload> <work dir>

`run.py` starts it with the checkout's environment and times it from
process start to the "ready" line.
"""

import sys
from pathlib import Path

import workloads


def main() -> None:
    name, work_dir = sys.argv[1], Path(sys.argv[2])
    workloads.use_checkout(Path(__file__).resolve().parent.parent)
    workloads.warm_up(name, work_dir)
    print("ready", flush=True)


if __name__ == "__main__":
    main()
