"""tsvc benchmark: three CLI workloads driven in-process through ``tsvc.cli.main``.

    python3 tsvcbench/run.py --workload {mc-cell,sim-deep,formula} \\
        --seed N --seconds S --trace {0,1}

Run from anywhere; the package is imported from ``src/`` next to this
directory, with BLAS pinned to one thread.  One process, a closed loop:
each command starts when the previous one has returned.

Every run first replays the seed-0 gate commands and compares their
output digests with ``digests.json``, then:

* ``--trace 0`` runs commands 0, 1, 2, ... of the seed until their CLI
  time reaches S seconds and reports the end-to-end metrics.  Command
  times are host-calibrated: a fixed tsvc-free loop is timed between
  every two commands, and each command's time is scaled to a host on
  which that loop takes ``CAL_NOMINAL_S``.
* ``--trace 1`` repeats a fixed command set in pairs of passes, one
  untraced and one traced (order alternating), until S seconds, and
  reports per-layer metrics from the traced passes plus the tracing
  overhead.

Five fresh interpreters are spawned at evenly spaced points of the
run (not back to back, so slow and fast host stretches are both
sampled) to time set-up.  The last line of standard output is the
result as one JSON object; a record with metadata and every command's
digest goes to ``.tsvcbench/records/``.
"""

import os
import sys

# Before numpy loads; set-up interpreters inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".tsvcbench")

if not os.path.isfile(os.path.join(SRC, "tsvc", "cli.py")):
    sys.exit(f"error: no tsvc sources at {SRC}; run from a tsvc checkout")
sys.path.insert(1, SRC)

import argparse  # noqa: E402
import collections  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import tsvc.cli as cli  # noqa: E402

if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
    sys.exit(f"error: tsvc imported from {cli.__file__}, not from {SRC}")

import digests  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SPAWNS = 5
GATE_COMMANDS = 2

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "cmd_s.p50": "s",
    "cmd_s.p90": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER_UNITS = {
    "tree.grow_one_split.calls": "count",
    "tree.grow_one_split.self_s": "s",
    "tree.fit_path.calls": "count",
    "tree.fit_path.ms.p50": "ms",
    "tree.fit_path.ms.p90": "ms",
    "tree.build_design.calls": "count",
    "tree.build_design.total_s": "s",
    "core.solve_least_squares.in_tree.total_s": "s",
    "tree.refits_banned": "count",
    "tree.candidates": "count",
    "tree.candidates_per_s": "1/s",
    "core.solve_least_squares.calls": "count",
    "core.solve_least_squares.in_mfp.total_s": "s",
    "core.solve_least_squares.rank_deficient": "count",
    "core.design_mb": "MB",
    "mfp.mfp_select.calls": "count",
    "mfp.mfp_select.self_s": "s",
    "mfp.rss_evals": "count",
    "dof.mc_dof.calls": "count",
    "dof.mc_dof.self_s": "s",
    "selection.prune_path.total_s": "s",
    "tree.predict.total_s": "s",
    "simulate.generate_scenario.total_s": "s",
    "simulate.predictive_log_lik.total_s": "s",
    "cli.main.self_s": "s",
    "cli.import_s": "s",
    "cli.import.modules": "count",
    "trace.time_ratio": "ratio",
    "trace.ops_per_s.untraced": "1/s",
    "trace.ops_per_s.traced": "1/s",
}


# A calibration loop of this length is the nominal host speed.
CAL_NOMINAL_S = 0.010


_CAL_SMALL = np.random.default_rng(7).standard_normal((100, 8))
_CAL_LARGE = np.random.default_rng(8).standard_normal((3000, 8))


def calibrate() -> float:
    """Time a fixed tsvc-free loop; the host's speed at this moment.

    Python-level iterations over small-array argsort, cumsum and QR,
    then a few large sorts and sums: the program's mix of interpreter
    overhead, numpy kernels and LAPACK, so it slows down in the same
    host stretches.
    """
    start = time.perf_counter()
    acc = 0.0
    for i in range(150):
        order = np.argsort(_CAL_SMALL[:, 0], kind="stable")
        cum = np.cumsum(_CAL_SMALL[order, 1:], axis=0)
        acc += float((cum * cum).sum())
        if i % 3 == 0:
            acc += float(np.linalg.qr(_CAL_SMALL)[1][0, 0])
        for j in range(100):
            acc += j * 0.5
    for _ in range(8):
        order = np.argsort(_CAL_LARGE[:, 0], kind="stable")
        cum = np.cumsum(_CAL_LARGE[order, 1:], axis=0)
        acc += float(np.einsum("ij,ij->", cum, cum))
    return time.perf_counter() - start


@dataclass
class Result:
    seed: int
    index: int
    seconds: float
    digest: str
    error: str | None


def run_command(workload, seed: int, index: int, workdir: str) -> Result:
    """Run one CLI command; only the ``cli.main`` call is timed."""
    command = workload.prepare(seed, index, workdir)
    for path in command.outputs.values():
        if os.path.exists(path):
            os.remove(path)
    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(command.argv)
        except SystemExit as exc:  # argparse rejects its arguments
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed command, not a failed run
            code, error = -1, traceback.format_exc(limit=3)
        seconds = time.perf_counter() - start
    texts = {}
    for role, path in command.outputs.items():
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                texts[role] = handle.read()
    if error is None and code != 0:
        error = f"exit {code}: {err.getvalue().strip()[-300:]}"
    if error is None:
        try:
            error = workload.check(texts)
        except (KeyError, ValueError, TypeError) as exc:
            error = f"unreadable output: {exc!r}"
    return Result(seed, index, seconds, digests.digest(code, out.getvalue(), texts), error)


def run_commands(name: str, seed: int, indices) -> list[Result]:
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        return [run_command(WORKLOADS[name], seed, i, workdir) for i in indices]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def spawn_setup(name: str, seed: int, workdir: str) -> dict:
    """Time one fresh interpreter from spawn to exit."""
    target = os.path.join(workdir, "setup")
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_child.py"), name, str(seed), target],
        capture_output=True, text=True, timeout=150, check=False)
    wall = time.perf_counter() - start
    shutil.rmtree(target, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up interpreter failed: {proc.stderr.strip()[-500:]}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    doc["wall_s"] = wall
    return doc


class SetupSampler:
    """Spawns set-up interpreters at evenly spaced points of the busy time."""

    def __init__(self, name, seed, workdir, seconds):
        self.name, self.seed, self.workdir = name, seed, workdir
        self.due = [seconds * k / (SETUP_SPAWNS - 1) for k in range(SETUP_SPAWNS)]
        self.samples: list[dict] = []

    def poll(self, busy: float):
        while len(self.samples) < len(self.due) and self.due[len(self.samples)] <= busy:
            self.samples.append(spawn_setup(self.name, self.seed, self.workdir))

    def finish(self):
        self.poll(float("inf"))


def measure_untraced(workload, seed, seconds, workdir, sampler):
    """Commands 0, 1, 2, ... until their CLI time reaches S seconds.

    The host's speed drifts by up to 1.7x, in stretches from seconds to
    minutes.  So the calibration loop is timed between every two
    commands, and each command's time is scaled by the nominal
    calibration time over the mean of the two loops around it.
    """
    results, refs, busy, index = [], [], 0.0, 0
    while busy < seconds:
        sampler.poll(busy)
        refs.append(calibrate())
        result = run_command(workload, seed, index, workdir)
        results.append(result)
        busy += result.seconds
        index += 1
    refs.append(calibrate())
    sampler.finish()
    raw = [r.seconds for r in results]
    scaled = [t * 2 * CAL_NOMINAL_S / (refs[i] + refs[i + 1]) for i, t in enumerate(raw)]
    ops = workload.ops_per_command * len(results)
    metrics = {
        "ops_per_s": ops / sum(scaled),
        "cmd_s.p50": spans.quantile(scaled, 0.5),
        "cmd_s.p90": spans.quantile(scaled, 0.9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": spans.quantile([s["wall_s"] for s in sampler.samples], 0.5),
    }
    samples = {
        "ops_per_s": f"{len(results)} commands x {workload.ops_per_command} ops, "
                     f"{ops / sum(raw):.6g} 1/s before calibration",
        "cmd_s.p50": f"{len(results)} commands, "
                     f"{spans.quantile(raw, 0.5):.6g} s before calibration",
        "cmd_s.p90": f"{len(results)} commands, "
                     f"{spans.quantile(raw, 0.9):.6g} s before calibration",
        "peak_rss_mb": "1 process",
        "setup_s": f"{len(sampler.samples)} interpreters",
        "calibration_ms": f"median {1e3 * statistics.median(refs):.4g} over {len(refs)} "
                          f"loops, nominal {1e3 * CAL_NOMINAL_S:g}",
    }
    return results, metrics, samples, []


def _pass_signature(tracer, first_span, counts_before):
    names = collections.Counter(s[spans.NAME] for s in tracer.spans[first_span:])
    counts = {k: v - counts_before.get(k, 0) for k, v in tracer.counts.items()}
    return names, counts


def measure_traced(workload, seed, seconds, workdir, sampler):
    """Pairs of untraced and traced passes over commands 0..K-1."""
    indices = range(workload.traced_commands)
    tracer = spans.Tracer()
    results, busy = [], 0.0
    pass_seconds = {False: [], True: []}
    signatures, missing, problems = [], [], []
    pair = 0
    while busy < seconds or not pass_seconds[True]:
        for traced in ((False, True) if pair % 2 == 0 else (True, False)):
            sampler.poll(busy)
            if traced:
                first_span, counts_before = len(tracer.spans), dict(tracer.counts)
                tracer.keep_grow_args = not pass_seconds[True]
                missing = tracer.install()
            try:
                elapsed = 0.0
                for i in indices:
                    tracer.command = i
                    result = run_command(workload, seed, i, workdir)
                    results.append(result)
                    elapsed += result.seconds
            finally:
                if traced:
                    tracer.uninstall()
            if traced:
                signatures.append(_pass_signature(tracer, first_span, counts_before))
            pass_seconds[traced].append(elapsed)
            busy += elapsed
        pair += 1
    sampler.finish()

    if any(sig != signatures[0] for sig in signatures):
        problems.append("layer counts differ between traced passes of the same commands")
    candidates = spans.count_candidates(tracer)
    passes = len(pass_seconds[True])
    metrics = spans.layer_metrics(tracer.spans, tracer.counts, passes, candidates)
    omitted = set()
    for hook in missing:
        print(f"warning: trace hook {hook} is missing; its metrics are omitted",
              file=sys.stderr)
        omitted.update(spans.HOOK_METRICS.get(hook, ()))
    if candidates is None:
        print("warning: trace hook tsvc.tree.enumerate_candidates is missing; "
              "tree.candidates is omitted", file=sys.stderr)
    for name in omitted:
        metrics.pop(name, None)

    modules = {s["modules"] for s in sampler.samples}
    if len(modules) != 1:
        problems.append(f"import tsvc.cli added differing module counts {sorted(modules)}")
    ops = workload.ops_per_command * len(indices)
    metrics["cli.import_s"] = spans.quantile([s["import_s"] for s in sampler.samples], 0.5)
    metrics["cli.import.modules"] = max(modules)
    metrics["trace.time_ratio"] = sum(pass_seconds[True]) / sum(pass_seconds[False])
    metrics["trace.ops_per_s.untraced"] = ops * len(pass_seconds[False]) / sum(pass_seconds[False])
    metrics["trace.ops_per_s.traced"] = ops * passes / sum(pass_seconds[True])
    samples = {
        "layers": f"{passes} traced passes of {len(indices)} commands (times per pass)",
        "trace.time_ratio": f"{passes} traced vs {len(pass_seconds[False])} untraced passes",
        "cli.import_s": f"{len(sampler.samples)} interpreters",
    }
    by_command = collections.defaultdict(set)
    for r in results:
        by_command[r.index].add(r.digest)
    if any(len(d) > 1 for d in by_command.values()):
        problems.append("traced and untraced passes produced different outputs")
    return results, metrics, samples, problems


def host_probe_ms() -> float:
    """Median of five calibration loops; metadata only."""
    return 1e3 * statistics.median(calibrate() for _ in range(5))


def _git_sha() -> str | None:
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head, encoding="utf-8") as handle:
        ref = handle.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.isfile(ref_path):
        with open(ref_path, encoding="utf-8") as handle:
            return handle.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref[5:]):
                    return line.split()[0]
    return None


def _src_sha256() -> str:
    h = hashlib.sha256()
    package = os.path.join(SRC, "tsvc")
    for dirpath, dirnames, filenames in os.walk(package):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for filename in sorted(filenames):
            path = os.path.join(dirpath, filename)
            h.update(os.path.relpath(path, package).encode() + b"\0")
            with open(path, "rb") as handle:
                h.update(handle.read() + b"\0")
    return h.hexdigest()


def metadata(args) -> dict:
    blas = {}
    for lib in (np, scipy):
        deps = lib.show_config(mode="dicts")["Build Dependencies"]
        blas[lib.__name__] = deps["blas"].get("version")
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": blas,
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=digests.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    workload = WORKLOADS[args.workload]
    committed = digests.load_committed()[args.workload]

    meta = metadata(args)
    meta["host_probe_ms_before"] = host_probe_ms()
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        gate = [run_command(workload, digests.DEFAULT_SEED, i, workdir)
                for i in range(GATE_COMMANDS)]
        sampler = SetupSampler(args.workload, args.seed, workdir, args.seconds)
        measure = measure_traced if args.trace else measure_untraced
        results, metrics, samples, problems = measure(
            workload, args.seed, args.seconds, workdir, sampler)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    meta["host_probe_ms_after"] = host_probe_ms()

    expected = {(digests.DEFAULT_SEED, i): d for i, d in enumerate(committed)}
    attempted = gate + results
    failed = 0
    for r in attempted:
        want = expected.get((r.seed, r.index))
        if r.error is None and want is not None and r.digest != want:
            r.error = f"digest {r.digest[:12]} != committed {want[:12]}"
        if r.error is not None:
            failed += 1
            problems.append(f"seed {r.seed} command {r.index}: {r.error}")
    verified = sum((r.seed, r.index) in expected for r in attempted)

    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    os.makedirs(os.path.join(OUT, "records"), exist_ok=True)
    record_path = os.path.join(
        OUT, "records", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    record = {
        "meta": meta,
        "metrics": metrics,
        "samples": samples,
        "problems": problems,
        "commands": [{"seed": r.seed, "index": r.index, "seconds": r.seconds,
                      "digest": r.digest, "error": r.error} for r in attempted],
    }
    with open(record_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)

    for problem in problems:
        print(f"problem: {problem}")
    print(f"host probe: {meta['host_probe_ms_before']:.1f} ms before, "
          f"{meta['host_probe_ms_after']:.1f} ms after")
    print(f"digests: {verified} commands checked against digests.json; "
          f"record in {os.path.relpath(record_path, ROOT)}")
    print(f"failed_share = {failed}/{len(attempted)}")
    for key, text in samples.items():
        print(f"samples {key}: {text}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": len(attempted),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
