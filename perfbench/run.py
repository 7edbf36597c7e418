"""Benchmark entry point.

    python3 perfbench/run.py --workload {query,ingest_nrt} \
        --seed N --seconds S --trace {0,1}

Run from the repository root.  The command starts the workload in a fresh
child process (its own Ray session), waits for it under a hard deadline,
stops every process the run started, appends the run record to
``perfbench/out/runs.jsonl`` (the run order), prints the record, and prints
as its last line one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` — the end-to-end metrics, or with ``--trace 1`` the per-layer
metrics.  The exit code is 0 only when every operation succeeded and every
output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
import uuid

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
RUN_DEADLINE_S = 150  # the child's whole run; stopping leftovers adds at most 15 s
RESULT_TAG = "PERFBENCH_RESULT "
RECORD_TAG = "PERFBENCH_RECORD "

# Ray puts Unix sockets under its temp dir: <dir>/session_<date>_<pid>/
# sockets/plasma_store must fit the 107-byte socket path limit.
RAY_TEMP_MAX_LEN = 40


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["query", "ingest_nrt"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    # a tenth of the sizes: the smoke tests' quick run
    ap.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def child_main(args) -> int:
    """The workload itself, in the fresh process the launcher started."""
    import ray

    import workloads as wl

    work = os.path.join(OUT, f"work-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    temp = os.path.join(OUT, "ray")
    init = dict(
        address="local",
        num_cpus=wl.RAY_CPUS,
        object_store_memory=wl.OBJECT_STORE_BYTES,
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
    )
    if len(temp) <= RAY_TEMP_MAX_LEN:
        init["_temp_dir"] = temp
    run = wl.Run(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny, work)
    run.record["ray_temp_dir"] = init.get("_temp_dir", "ray default")
    code = 0
    try:
        # Ray's daemons, and the workers they start, inherit the cores left
        # to the main thread here: every core but the request path's, when
        # there are others.  Then the driver moves to the request-path core.
        others = os.sched_getaffinity(0) - {wl.REQUEST_CPU}
        if others:
            os.sched_setaffinity(0, others)
        ray.init(**init)
        wl.bl.pin_to_cpu(os.getpid(), wl.REQUEST_CPU)
        import ray.data

        ray.data.DataContext.get_current().enable_progress_bars = False
        e2e = wl.WORKLOADS[args.workload](run)
        metrics = wl.layer_metrics(run) if args.trace else e2e
    except wl.bl.OpTimeout:
        metrics, code = {}, 3
    finally:
        ray.shutdown()
        if args.trace:
            run.tracer.dump(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.jsonl"))
        shutil.rmtree(work, ignore_errors=True)
    run.record["errors"] = run.errors
    result = {
        "correct": run.failed == 0 and code == 0,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    print(RECORD_TAG + json.dumps(run.record), flush=True)
    print(RESULT_TAG + json.dumps(result), flush=True)
    return code


def stop_run_processes(run_id: str, timeout_s: float = 15.0) -> list[int]:
    """Terminate, then kill, every process carrying this run's id in its
    environment (the child, Ray's daemons and workers); wait until all are
    gone.  Returns the pids that outlived the wait."""
    import benchlib as bl

    sig = signal.SIGTERM
    end = time.monotonic() + timeout_s
    kill_at = time.monotonic() + timeout_s / 2
    while True:
        pids = bl.processes_with_env("PERFBENCH_RUN", run_id)
        live = []
        for pid in pids:
            try:
                with open(f"/proc/{pid}/stat") as f:
                    if f.read().rsplit(")", 1)[1].split()[0] == "Z":
                        continue  # exited, parent not reaped yet
            except OSError:
                continue
            live.append(pid)
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        if not live or time.monotonic() > end:
            return live
        if time.monotonic() > kill_at:
            sig = signal.SIGKILL
        time.sleep(0.1)


def launch(args) -> int:
    if not os.path.isfile(os.path.join(ROOT, "meresco_lucene_ray", "__init__.py")):
        print(f"perfbench: no meresco_lucene_ray package under {ROOT}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    run_id = uuid.uuid4().hex
    env = dict(os.environ, PERFBENCH_RUN=run_id, PYTHONPATH=ROOT, RAY_USAGE_STATS_ENABLED="0")
    cmd = [sys.executable, os.path.abspath(__file__), "--child",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    log = os.path.join(OUT, "runs.jsonl")
    with open(log, "a+") as f:
        f.seek(0)
        order = sum(1 for _ in f)
    started = time.time()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_DEADLINE_S)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
        code = 4
        print(f"perfbench: run exceeded {RUN_DEADLINE_S}s", file=sys.stderr)
    finally:
        leftover = stop_run_processes(run_id)
    record, result = {}, None
    for line in out.splitlines():
        if line.startswith(RECORD_TAG):
            record = json.loads(line[len(RECORD_TAG):])
        elif line.startswith(RESULT_TAG):
            result = json.loads(line[len(RESULT_TAG):])
        else:
            print(line, file=sys.stderr)
    record.update(order=order, started=started, wall_s=time.time() - started, exit=code)
    if leftover:
        record["leftover_pids"] = leftover
        code = code or 5
    if result is not None:
        record["result"] = result
    if code == 0:
        shutil.rmtree(os.path.join(OUT, "ray"), ignore_errors=True)  # Ray's logs, kept on failure
    with open(log, "a") as f:
        f.write(json.dumps(record) + "\n")
    print(json.dumps(record))
    if result is None:
        return code or 6
    print(json.dumps(result))
    return code if code else (0 if result["correct"] else 1)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.child:
        return child_main(args)
    return launch(args)


if __name__ == "__main__":
    sys.exit(main())
