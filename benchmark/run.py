"""duallab benchmark: end-to-end time, memory and correctness per workload.

Usage, from the root of a source checkout::

    python3 benchmark/run.py --workload exact-residual --seed 1 --seconds 25 --trace 0
    python3 benchmark/run.py --workload all --seed 1      # every workload in turn

One run starts passes, each in a fresh process and each after
``SETUPS_PER_PASS`` set-up-only processes, until ``--seconds`` have passed and at least
``MIN_PASSES`` passes have run.  With ``--trace 1`` the passes
alternate untraced and traced, and the traced ones give the per-layer
metrics.  The run prints a human-readable table, an environment line,
and as its last line one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics untraced, the
per-layer metrics traced).  It exits 2 without a result when the
package source is missing or a workload cannot be set up.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".benchmark-out"
WORKLOADS = ("exact-residual", "haar-mc", "algebra-closure", "suite-smoke")

MIN_PASSES = 2  # untraced passes; with --trace 1, one untraced and one traced
SETUPS_PER_PASS = 2  # set-up-only processes started before each pass
RUN_DEADLINE_S = 170.0  # every pass of a run must end by then; a pass past it is killed

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB"))


class SetupError(RuntimeError):
    """A workload could not be set up, so nothing can be measured."""


def _spawn(workload: str, seed: int, size: str, mode: str, run_dir: Path, k: int,
           timeout: float) -> dict:
    """Run one pass process; a crash, a kill or a timeout comes back as
    ``{"crashed": reason}``."""
    result = run_dir / f"{mode}-{k}.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(BENCH_DIR / "one_pass.py"), "--workload", workload,
           "--seed", str(seed), "--size", size, "--mode", mode,
           "--result", str(result), "--out-dir", str(run_dir / f"out-{mode}-{k}")]
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT, env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=max(timeout, 1.0), text=True)
    except subprocess.TimeoutExpired:
        return {"crashed": f"killed after {timeout:.0f} s"}
    if proc.returncode != 0 or not result.is_file():
        return {"crashed": f"exit code {proc.returncode}: {proc.stderr[-2000:]}"}
    return json.loads(result.read_text())


def measure(workload: str, seed: int, seconds: int, trace: bool, size: str = "full") -> dict:
    """All processes of one run of one workload; returns the aggregated result."""
    SCRATCH.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=SCRATCH))
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    setups, passes = [], []
    try:
        # Another cycle (set-ups plus a pass) starts only while the run then
        # ends closer to `seconds` than it would without it, so a run lasts
        # about `seconds` whatever the length of one pass.
        cycle = 0.0
        while len(passes) < MIN_PASSES or time.monotonic() - start + cycle / 2 < seconds:
            cycle_start = time.monotonic()
            # set-up-only processes between the passes add set-up samples
            # that span the same stretch of machine load as the passes
            for _ in range(SETUPS_PER_PASS):
                res = _spawn(workload, seed, size, "setup", run_dir, len(setups),
                             deadline - time.monotonic())
                if "crashed" in res:
                    raise SetupError(f"{workload}: set-up failed: {res['crashed']}")
                setups.append(res)
            mode = "traced" if trace and len(passes) % 2 else "pass"
            passes.append((mode, _spawn(workload, seed, size, mode, run_dir, len(passes),
                                        deadline - time.monotonic())))
            cycle = max(cycle, time.monotonic() - cycle_start)
            if time.monotonic() >= deadline:
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return aggregate(workload, setups, passes, trace)


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def aggregate(workload: str, setups: list[dict], passes: list[tuple[str, dict]],
              trace: bool) -> dict:
    planned = setups[0]["planned"]
    attempted = failed = 0
    failures = []
    for mode, res in passes:
        if "crashed" in res:
            attempted += planned
            failed += planned
            failures.append(f"{mode} pass crashed: {res['crashed']}")
            continue
        for name, ok, detail in res["checks"]:
            attempted += 1
            if not ok:
                failed += 1
                failures.append(f"{mode} pass: {name}: {detail}")
        if "error" in res:
            failures.append(f"{mode} pass raised:\n{res['error']}")
    if workload == "suite-smoke":
        # determinism contract: every pass of one seed writes the same bodies
        digests = {res.get("digest") for _, res in passes}
        attempted += 1
        if len(digests) != 1 or None in digests:
            failed += 1
            failures.append(f"report bodies differ between passes: {len(digests)} digests")

    good = [res for mode, res in passes if mode == "pass" and "wall_s" in res and "error" not in res]
    traced = [res for mode, res in passes if mode == "traced" and "layers" in res]
    setup_samples = [r["setup_s"] for r in setups] + [r["setup_s"] for _, r in passes if "setup_s" in r]
    e2e = {
        "wall_s": [r["wall_s"] for r in good],
        "setup_s": setup_samples,
        "peak_rss_mib": [r["peak_rss_mib"] for r in good],
    }
    out = {
        "workload": workload,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "samples": {k: len(v) for k, v in e2e.items()},
        "ranges": {k: (min(v), max(v)) if v else None for k, v in e2e.items()},
        "end_to_end": {k: _median(v) for k, v in e2e.items()},
    }
    if trace:
        import tracing  # deferred: it imports the package

        layers = {}
        for name, _ in tracing.METRICS:
            values = [r["layers"][name] for r in traced if name in r["layers"]]
            layers[name] = _median(values)
        wall = out["end_to_end"]["wall_s"]
        cpu = _median([r["cpu_s"] for r in good])
        layers["process.cpu_s"] = cpu
        layers["process.parallelism"] = cpu / wall
        layers["trace.overhead_frac"] = _median([r["wall_s"] for r in traced]) / wall - 1.0
        out["per_layer"] = layers
        out["spans"] = _median([r["spans"] for r in traced])
    return out


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", f"default = nproc ({os.cpu_count()})"),
        "commit": git_commit(),
        "seed": seed,
    }


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def print_table(res: dict, trace: bool) -> None:
    w = res["workload"]
    if not trace:
        for name, unit in END_TO_END:
            lo_hi = res["ranges"][name]
            spread = f"range {lo_hi[0]:.4g} .. {lo_hi[1]:.4g}" if lo_hi else "no sample"
            print(f"{w:16s} {name:14s} {res['end_to_end'][name]:12.6g} {unit:6s} "
                  f"median of {res['samples'][name]} ({spread})")
    frac = res["failed"] / res["attempted"] if res["attempted"] else float("nan")
    print(f"{w:16s} {'failed_frac':14s} {frac:12.6g} {'ratio':6s} "
          f"{res['failed']} failed of {res['attempted']} checks")
    if trace:
        import tracing

        for name, value in res["per_layer"].items():
            unit = tracing.UNITS[name]
            print(f"{w:16s} {name:52s} {value:14.6g} {unit}")
        print(f"{w:16s} {'spans per traced pass':52s} {res['spans']:14.6g} count")
    for line in res["failures"]:
        print(f"{w:16s} FAILED {line}", file=sys.stderr)


def metrics_of(res: dict, trace: bool) -> dict:
    if trace:
        import tracing

        return {k: {"value": v, "unit": tracing.UNITS[k]} for k, v in res["per_layer"].items()}
    return {k: {"value": res["end_to_end"][k], "unit": unit} for k, unit in END_TO_END}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="duallab benchmark")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: seconds-long inputs for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "duallab" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    trace = bool(args.trace)
    try:
        results = [measure(w, args.seed, args.seconds, trace, args.size) for w in names]
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for res in results:
        print_table(res, trace)
    env = environment(args.seed)
    print("environment " + json.dumps(env, sort_keys=True))
    if len(results) == 1:
        metrics = metrics_of(results[0], trace)
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in metrics_of(r, trace).items()}
    if not all(math.isfinite(m["value"]) for m in metrics.values()):
        print("error: no pass completed, so some metric has no sample", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
