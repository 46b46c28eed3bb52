"""Smoke test of the benchmark: every workload at minimal size, untraced
and traced, plus the refusal to run without the sources.

    python3 -m pytest -q tsvcbench/smoke_test.py
    python3 tsvcbench/smoke_test.py

Asserts that each run is correct, that it reports exactly the metrics
``BENCHMARK.json`` names with their units, and that the seed-0 commands
match the committed digests.  Run as a script, it also prints every
end-to-end metric of each workload.  Takes about two minutes.
"""

import json
import os
import shutil
import subprocess

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)


def _run(cwd, workload, trace, seconds="1"):
    return subprocess.run(
        SPEC["command"] + ["--workload", workload, "--seed", "0",
                           "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False)


def check_workload(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == wanted
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    record_path = os.path.join(ROOT, ".tsvcbench", "records",
                               f"{workload}-seed0-trace{trace}.json")
    with open(record_path, encoding="utf-8") as handle:
        record = json.load(handle)
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as handle:
        committed = json.load(handle)["workloads"][workload]
    checked = [c for c in record["commands"] if c["index"] < len(committed)]
    assert checked and all(c["digest"] == committed[c["index"]] for c in checked)
    assert record["meta"]["nproc"] >= 1 and record["meta"]["host_probe_ms_after"] > 0
    return result


def test_workloads(report=False):
    for spec in SPEC["workloads"]:
        for trace in (0, 1):
            result = check_workload(spec["name"], trace)
            if report and not trace:
                print(f"{spec['name']}: failed {result['failed']}/{result['attempted']}, "
                      "seed-0 digests match")
                for name, metric in result["metrics"].items():
                    print(f"  {name} = {metric['value']:.6g} {metric['unit']}")


def test_refuses_without_sources():
    bare = os.path.join(ROOT, ".tsvcbench", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in SPEC["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, SPEC["workloads"][0]["name"], 0)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    test_refuses_without_sources()
    test_workloads(report=True)
    print("smoke test passed")
