"""One fresh-interpreter set-up: import ``tsvc.cli`` and build inputs.

    python3 tsvcbench/setup_child.py WORKLOAD SEED WORKDIR

Prints one JSON line with the in-process import time and the number of
modules ``import tsvc.cli`` added.  ``run.py`` times the whole process
from spawn to exit as ``setup_s``.
"""

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(1, os.path.join(os.path.dirname(HERE), "src"))

# Inputs of this many leading commands are built, as a run builds them.
INPUT_COMMANDS = 8


def main(argv) -> int:
    name, seed, workdir = argv[0], int(argv[1]), argv[2]
    before = set(sys.modules)
    start = time.perf_counter()
    import tsvc.cli  # noqa: F401

    import_s = time.perf_counter() - start
    modules = len(set(sys.modules) - before)

    from workloads import WORKLOADS

    os.makedirs(workdir, exist_ok=True)
    for index in range(INPUT_COMMANDS):
        WORKLOADS[name].prepare(seed, index, workdir)
    print(json.dumps({"import_s": import_s, "modules": modules}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
