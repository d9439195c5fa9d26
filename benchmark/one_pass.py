"""One pass of one workload, in a fresh process.

Usage (``run.py`` starts it; ``src`` must be on ``PYTHONPATH``)::

    python3 benchmark/one_pass.py --workload NAME --seed N --size full \\
        --mode pass|traced|setup --t0 T --result FILE --out-dir DIR

The process first caps its own address space, so an allocation blow-up
raises ``MemoryError`` (or kills only this process) instead of taking
memory from the machine.  ``--t0`` is the parent's ``CLOCK_MONOTONIC``
reading just before it started this process; set-up time runs from
there to the moment the inputs are ready, so it covers interpreter
start, the ``duallab``/numpy imports and input generation.  The pass
then times the workload, runs its output checks outside the timed
region, and writes one JSON object to ``--result``.  ``--mode setup``
stops after the inputs are ready.
"""

import argparse
import json
import resource
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

ADDRESS_SPACE_LIMIT = 3 * 2**30  # bytes; far above the 0.7 GiB peak address space measured


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def run_pass(workload: str, seed: int, size_name: str, mode: str, t0: float,
             out_dir: Path) -> dict:
    import tracing
    from workloads import SIZES, WORKLOADS, report_digest

    wl = WORKLOADS[workload]
    size = SIZES[size_name][workload]
    inputs = wl.make_inputs(seed, size, out_dir)
    result = {
        "setup_s": time.clock_gettime(time.CLOCK_MONOTONIC) - t0,
        "planned": len(wl.check_names(size)),
    }
    if mode == "setup":
        return result

    rec = installation = None
    if mode == "traced":
        rec = tracing.Recorder()
        installation = tracing.install(rec)
        rec.open_root()
    error = None
    cpu0, wall0 = _cpu_s(), time.perf_counter()
    try:
        outputs = wl.run(inputs)
    except Exception:  # MemoryError included: a failed operation, not a crash
        outputs = None
        error = traceback.format_exc()
    wall, cpu = time.perf_counter() - wall0, _cpu_s() - cpu0
    if rec is not None:
        rec.close_root()
        installation.remove()
    result.update(wall_s=wall, cpu_s=cpu,
                  peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)

    checks = []
    if error is None:
        try:
            checks = wl.check(inputs, outputs)
        except Exception:
            error = traceback.format_exc()
    if error is not None:
        checks = [(name, False, "not reached: the pass raised") for name in wl.check_names(size)]
        result["error"] = error
    if rec is not None:
        metrics = tracing.layer_metrics(rec.spans)
        calls = Counter(s.name for s in rec.spans)
        checks += wl.trace_check(size, calls, metrics)
        result["layers"] = metrics
        result["spans"] = len(rec.spans)
    if workload == "suite-smoke" and error is None:
        result["digest"] = report_digest(out_dir)
    result["checks"] = checks
    return result


def main() -> int:
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_LIMIT, ADDRESS_SPACE_LIMIT))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--mode", choices=("pass", "traced", "setup"), required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--out-dir", type=Path, required=True)
    args = parser.parse_args()
    args.out_dir.mkdir(parents=True, exist_ok=True)
    result = run_pass(args.workload, args.seed, args.size, args.mode, args.t0, args.out_dir)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
