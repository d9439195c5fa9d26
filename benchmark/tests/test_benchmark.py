"""Self-tests of the benchmark: span arithmetic, binding coverage, the
metric contract on tiny inputs, and the refusal to run without sources.

Run from the repository root with ``python3 -m pytest benchmark/tests -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import tracing  # noqa: E402
from run import WORKLOADS  # noqa: E402
from tracing import Recorder, Span, self_times  # noqa: E402

CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_time_on_nested_multithreaded_tree():
    # root [0, 10] on thread 1; a nested chain on thread 1; two spans on
    # thread 2 under the root that overlap each other and the chain
    spans = [
        Span("root", 0.0, 10.0, None),
        Span("a", 1.0, 4.0, 0),
        Span("a.child", 2.0, 3.0, 1),
        Span("b1", 3.0, 6.0, 0),
        Span("b2", 5.0, 8.0, 0),
        Span("b2.child", 5.5, 6.5, 4),
    ]
    got = self_times(spans)
    # the root's children cover the union [1, 8], not 3 + 3 + 3 = 9 s
    assert got == pytest.approx([3.0, 2.0, 1.0, 3.0, 2.0, 1.0])


def test_recorder_keeps_one_stack_per_thread():
    rec = Recorder()
    rec.open_root()
    barrier = threading.Barrier(2)

    def worker(tag):
        outer = rec.begin(f"outer.{tag}")
        barrier.wait(timeout=10)  # both threads hold an open span at once
        inner = rec.begin(f"inner.{tag}")
        time.sleep(0.01)
        rec.end(inner)
        rec.end(outer)

    threads = [threading.Thread(target=worker, args=(t,)) for t in "xy"]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    rec.close_root()
    by_name = {s.name: i for i, s in enumerate(rec.spans)}
    for tag in "xy":
        assert rec.spans[by_name[f"outer.{tag}"]].parent == rec.root
        assert rec.spans[by_name[f"inner.{tag}"]].parent == by_name[f"outer.{tag}"]
    assert all(s.end is not None for s in rec.spans)


def test_install_rebinds_every_reference_and_remove_restores():
    modules = [m for n, m in sys.modules.items() if n.startswith("duallab")]
    inst = tracing.install(Recorder())
    replaced = list(inst.replaced)
    try:
        originals = {id(old) for _, _, old in replaced}
        stale = [k for m in modules for k, v in vars(m).items() if id(v) in originals]
        assert stale == []
    finally:
        inst.remove()
    assert all(getattr(owner, attr) is old for owner, attr, old in replaced)


def test_benchmark_json_matches_the_code():
    assert [(m["name"], m["unit"]) for m in CONFIG["per_layer"]] == tracing.METRICS
    assert {m["name"] for m in CONFIG["end_to_end"]} == {"wall_s", "setup_s", "peak_rss_mib"}
    assert {w["name"] for w in CONFIG["workloads"]} <= set(WORKLOADS)


def _run(args, cwd=ROOT, timeout=600):
    return subprocess.run([sys.executable, "benchmark/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_pass_emits_every_metric(workload, trace):
    proc = _run(["--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", trace, "--size", "tiny"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = CONFIG["per_layer"] if trace == "1" else CONFIG["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())
        assert "failed_frac" in proc.stdout
    assert '"numpy"' in proc.stdout and '"seed": 7' in proc.stdout


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run(["--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp_path, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
