"""The fixed-seed outputs stay byte-identical.

Replays the committed seed-0 commands of every benchmark workload
through ``tsvcbench/run.py`` and compares their output digests with
``tsvcbench/digests.json``.  The replay runs in a fresh interpreter,
because ``run.py`` pins BLAS to one thread before numpy loads.  It reads
``tsvcbench/`` and edits nothing there.
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "tsvcbench"

# Prints {workload: [digest, or the command's error, per command]}.
_REPLAY = """
import json, sys
sys.path.insert(0, sys.argv[1])
import digests, run
replayed = {}
for name, committed in digests.load_committed().items():
    results = run.run_commands(name, digests.DEFAULT_SEED, range(len(committed)))
    replayed[name] = [r.error or r.digest for r in results]
print(json.dumps(replayed))
"""


def test_seed0_commands_match_committed_digests():
    proc = subprocess.run([sys.executable, "-c", _REPLAY, str(BENCH)],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    replayed = json.loads(proc.stdout.splitlines()[-1])
    committed = json.loads((BENCH / "digests.json").read_text())["workloads"]
    assert replayed == committed
