"""Output digests: the benchmark's byte-identity gate.

A command's digest is the SHA-256 of its exit code, its standard output
and every output file, keyed by role.  ``digests.json`` holds the
digests of the first commands of seed 0 for each workload; every run
checks them, and every run also writes the digests of all its own
commands to a record so that two builds can be compared on any seed.

    python3 tsvcbench/digests.py record            # rewrite digests.json
    python3 tsvcbench/digests.py compare A.json B.json

``record`` runs the committed commands through the CLI in-process and
must only be used when outputs are meant to change.  ``compare`` checks
two run records (written under ``.tsvcbench/records/``) on the
commands both ran and exits 1 on any mismatch.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
COMMITTED = os.path.join(HERE, "digests.json")
DEFAULT_SEED = 0
COMMITTED_COMMANDS = 8


def digest(exit_code: int, stdout: str, texts: dict) -> str:
    h = hashlib.sha256()
    h.update(f"exit={exit_code}\0stdout\0{stdout}\0".encode())
    for role in sorted(texts):
        h.update(f"{role}\0{texts[role]}\0".encode())
    return h.hexdigest()


def load_committed() -> dict:
    with open(COMMITTED, encoding="utf-8") as handle:
        doc = json.load(handle)
    if doc.get("seed") != DEFAULT_SEED:
        raise ValueError(f"{COMMITTED}: expected seed {DEFAULT_SEED}")
    return doc["workloads"]


def compare(path_a: str, path_b: str) -> int:
    records = []
    for path in (path_a, path_b):
        with open(path, encoding="utf-8") as handle:
            records.append(json.load(handle))
    a, b = records
    for key in ("workload", "seed"):
        if a["meta"][key] != b["meta"][key]:
            print(f"records differ in {key}: {a['meta'][key]} vs {b['meta'][key]}")
            return 1
    da = {(c["seed"], c["index"]): c["digest"] for c in a["commands"]}
    db = {(c["seed"], c["index"]): c["digest"] for c in b["commands"]}
    common = sorted(set(da) & set(db))
    differ = [key for key in common if da[key] != db[key]]
    print(f"{len(common)} commands in common, {len(differ)} differ")
    for seed, index in differ:
        print(f"  seed {seed} command {index}: {da[(seed, index)]} != {db[(seed, index)]}")
    return 1 if differ or not common else 0


def main(argv) -> int:
    if argv[:1] == ["compare"] and len(argv) == 3:
        return compare(argv[1], argv[2])
    if argv == ["record"]:
        import run  # sets up BLAS pinning and the import path first
        doc = {"seed": DEFAULT_SEED, "workloads": {}}
        for name in run.WORKLOADS:
            results = run.run_commands(name, DEFAULT_SEED, range(COMMITTED_COMMANDS))
            errors = [f"{name} command {r.index}: {r.error}" for r in results if r.error]
            if errors:
                print("\n".join(errors), file=sys.stderr)
                return 1
            doc["workloads"][name] = [r.digest for r in results]
            print(f"{name}: {len(results)} digests", file=sys.stderr)
        with open(COMMITTED, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(doc, indent=1) + "\n")
        return 0
    print("usage: digests.py record | compare A.json B.json", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
