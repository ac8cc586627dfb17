"""Smoke self-test of the benchmark at tiny sizes, correctness gates armed.

Run from the root of a checkout with either of::

    python3 perfbench/selftest.py
    python3 -m pytest -q perfbench/selftest.py

It runs every workload untraced and traced (twice with one seed, so the
exact-count check compares two runs), checks the result line against
``BENCHMARK.json``, shows that each gate rejects a corrupted output, and
that the command fails without the program's sources next to it.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import workloads  # noqa: E402
from run import END_TO_END  # noqa: E402

SCALE = "0.004"
SECONDS = "0.6"

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    BENCH = json.load(_f)


def _run(workload: str, trace: int, seed: int = 7, cwd: str = ROOT):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", SECONDS, "--trace", str(trace),
         "--scale", SCALE],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return out


def _result(out) -> dict:
    assert out.returncode == 0, out.stderr[-2000:]
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_code():
    names = [w["name"] for w in BENCH["workloads"]]
    assert names == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == workloads.PER_LAYER


def test_every_workload_untraced():
    for name in workloads.WORKLOADS:
        res = _result(_run(name, 0))
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, (name, res)
        assert list(res["metrics"]) == list(END_TO_END)
        assert all(m["value"] > 0 for m in res["metrics"].values()), (name, res)


def test_every_workload_traced_counts_repeat():
    for name in workloads.WORKLOADS:
        first = _result(_run(name, 1, seed=3))
        second = _result(_run(name, 1, seed=3))   # exact-count check armed
        for res in (first, second):
            assert res["correct"] and res["failed"] == 0, (name, res)
            assert list(res["metrics"]) == list(workloads.PER_LAYER)
        for key in workloads.EXACT:
            assert first["metrics"][key] == second["metrics"][key], (name, key)
        assert first["metrics"]["kernels.launches"]["value"] > 0, name


def test_fails_without_program_sources():
    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        out = _run("dendrogram_1m", 0, cwd=bare)
        assert out.returncode != 0
        assert '"correct"' not in out.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def _armed(cls, corrupt) -> int:
    wl = cls(5, float(SCALE))
    wl.setup()
    try:
        for i in range(8):
            wl.op(i)
        assert wl.gate() == 0
        corrupt(wl)
        return wl.gate()
    finally:
        wl.teardown()


def _corrupt(parent: np.ndarray) -> np.ndarray:
    bad = parent.copy()
    bad[-1] += 1   # re-hang the last vertex
    return bad


def test_gates_reject_wrong_outputs():
    def dend(wl):
        wl.kept = [_corrupt(wl.kept[0]), wl.kept[1]]

    def emst_weight(wl):
        wl.kept.mst.w[0] *= 1.5

    def served(wl):
        key = next(iter(wl.kept))
        problem, parent = wl.kept[key]
        wl.kept[key] = (problem, _corrupt(parent))

    assert _armed(workloads.Dendrogram1M, dend) == 1
    assert _armed(workloads.HDBSCANGPS, emst_weight) == 1
    assert _armed(workloads.ServeThread, served) == 1
    assert _armed(workloads.ServeProcess, served) == 1


def test_traced_hdbscan_matches_hdbscan():
    from repro.hdbscan import hdbscan
    from spans import Tracer

    wl = workloads.HDBSCANUniform(9, 0.02)
    pts = wl.points(0)
    _, mst, labels = wl._call(pts, Tracer(), 0)
    ref = hdbscan(pts, mpts=workloads.MPTS, min_cluster_size=workloads.MIN_CLUSTER_SIZE)
    assert np.array_equal(labels, ref.labels)
    assert np.array_equal(mst.w, ref.mst.w)


def test_prim_reference_matches_emst():
    from repro.spatial import emst

    pts = np.random.default_rng(2).random((400, 2))
    got = float(np.sum(emst(pts, mpts=workloads.MPTS).w))
    assert np.isclose(workloads.prim_total_weight(pts, workloads.MPTS), got, rtol=1e-12)


if __name__ == "__main__":
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    for t in tests:
        t()
        print(f"ok  {t.__name__}", flush=True)
    print(f"{len(tests)} passed")
