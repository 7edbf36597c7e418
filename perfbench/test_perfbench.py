"""Tests of the benchmark's own helpers, plus a tiny run of each workload.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import benchlib as bl  # noqa: E402
import workloads as wl  # noqa: E402


def _bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def _inputs(seed):
    table = bl.corpus_rows(seed, range(300))
    texts = table["content"].to_pylist()
    pool = bl.request_pool(seed, texts, bl.document_frequencies(texts), 40, wl.QUERY_OPTIONS, n_checks=5)
    return table, pool, bl.zipf_sequence(seed, len(pool), 500)


def test_same_seed_same_inputs():
    t1, p1, s1 = _inputs(7)
    t2, p2, s2 = _inputs(7)
    assert t1.equals(t2)
    assert p1 == p2
    assert (s1 == s2).all()
    t3, p3, s3 = _inputs(8)
    assert not t1.equals(t3)
    assert p1 != p3
    assert not (s1 == s3).all()


def test_pool_covers_kinds_and_checks():
    _, pool, _ = _inputs(3)
    assert {r["kind"] for r in pool} == set(bl.KINDS)
    checks = [r for r in pool if r.get("check")]
    assert len(checks) == 5
    assert all(r["opts"] == [] and r["kind"] in ("term", "and", "or", "phrase") for r in checks)


def test_zipf_sequence_is_skewed():
    seq = bl.zipf_sequence(1, 200, 20_000)
    counts = sorted((int((seq == i).sum()) for i in range(200)), reverse=True)
    assert counts[0] > 10 * counts[100]
    assert 0.5 < bl.repeat_share(seq[:1000]) < 1.0


def test_repeat_share():
    assert bl.repeat_share([1, 2, 1, 3, 2]) == pytest.approx(2 / 5)
    assert bl.repeat_share([]) == 0.0


@pytest.mark.parametrize(
    "n, pct",
    [(19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0), (1000, 99.0), (10_000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, pct):
    values = list(range(1, n + 1))
    got = bl.tail_percentile(values)
    if pct is None:
        assert got is None
        return
    assert got[0] == pct
    beyond = sum(1 for v in values if v > got[1])
    assert beyond >= 10


def test_median():
    assert bl.median([3, 1, 2]) == 2
    assert bl.median([4, 1, 2, 3]) == 2.5


def test_self_time_subtracts_covered_interval_once():
    # children [1,3] and [2,4] overlap: they cover [1,4]; [8,12] covers
    # [8,10] inside the parent; [11,13] lies outside it
    kids = [(1, 3), (2, 4), (8, 12), (11, 13)]
    assert bl.self_time(0, 10, kids) == pytest.approx(10 - 3 - 2)
    assert bl.self_time(0, 10, []) == 10
    assert bl.self_time(0, 10, [(0, 10)]) == 0


def test_tracer_records_parents_and_requests():
    tr = bl.Tracer(True)
    with tr.span("request", 7) as root:
        with tr.span("child", 7):
            pass
    (r, c) = tr.spans
    assert r[0] == root and r[4] is None and r[5] == 7
    assert c[4] == root and c[1] == "child"
    assert len(tr.durations_ms("child")) == 1
    off = bl.Tracer(False)
    with off.span("x") as sid:
        assert sid is None
    assert off.spans == []


def test_same_top_k_allows_only_ties_to_swap():
    ranking = [("a", 3.0), ("b", 2.0), ("c", 2.0), ("d", 1.0)]
    assert wl.same_top_k([("a", 3.0), ("b", 2.0)], ranking, 2)
    assert wl.same_top_k([("a", 3.0), ("c", 2.0)], ranking, 2)  # tie at the cut
    assert not wl.same_top_k([("a", 3.0), ("d", 1.0)], ranking, 2)
    assert not wl.same_top_k([("a", 3.0), ("b", 2.5)], ranking, 2)
    assert not wl.same_top_k([("a", 3.0)], ranking, 2)


def test_deadline_raises():
    import time

    with pytest.raises(bl.OpTimeout):
        with bl.deadline(0.05):
            time.sleep(1)
    with bl.deadline(1):
        pass


def test_pin_to_cpu_pins_every_thread():
    import threading

    before = os.sched_getaffinity(0)
    cpu = max(before)
    stop = threading.Event()
    t = threading.Thread(target=stop.wait)
    t.start()
    tids = [int(x) for x in os.listdir(f"/proc/{os.getpid()}/task")]
    try:
        bl.pin_to_cpu(os.getpid(), cpu)
        assert all(os.sched_getaffinity(tid) == {cpu} for tid in tids)
    finally:
        for tid in tids:
            os.sched_setaffinity(tid, before)
        stop.set()
        t.join()


def _run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload", ["query", "ingest_nrt"])
def test_tiny_run(workload):
    out = _run(["--workload", workload, "--seed", "5", "--seconds", "2", "--trace", "0", "--tiny"])
    assert out.returncode == 0, out.stderr[-3000:]
    res = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    bench = _bench()
    assert set(res["metrics"]) == {m["name"] for m in bench["end_to_end"]}
    for m in bench["end_to_end"]:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0


def test_tiny_traced_run_reports_every_layer():
    out = _run(["--workload", "query", "--seed", "6", "--seconds", "2", "--trace", "1", "--tiny"])
    assert out.returncode == 0, out.stderr[-3000:]
    res = json.loads(out.stdout.strip().splitlines()[-1])
    assert res["correct"]
    assert set(res["metrics"]) == {m["name"] for m in _bench()["per_layer"]}


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    os.makedirs(tmp_path / "perfbench")
    for f in os.listdir(HERE):
        if f.endswith(".py") or f.endswith(".md"):
            shutil.copy(os.path.join(HERE, f), tmp_path / "perfbench")
    out = _run(["--workload", "query", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=str(tmp_path))
    assert out.returncode != 0
    assert out.stdout.strip() == ""
