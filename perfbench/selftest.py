"""Self-test of the benchmark on reduced workloads (8^2 rungs, a 4-config
corpus, a coarse probe grid); takes about a minute.

    python3 perfbench/selftest.py

For every workload it checks that an untraced and a traced run pass their
output checks and emit every metric BENCHMARK.json names, that a corrupted
output counts as a failed operation, and that the benchmark refuses to run,
printing no result, in a directory without the platelab sources.
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import run
import workloads


def _run(workload, traced, bench):
    r = run.Run(workload, seed=7, seconds=0, traced=traced, small=True)
    try:
        r.run()
        with contextlib.redirect_stdout(io.StringIO()):
            return r, run.finish(r, bench)
    finally:
        r.close()


def check_workload(workload, bench):
    errors = []
    for traced, key in ((False, "end_to_end"), (True, "per_layer")):
        r, result = _run(workload, traced, bench)
        names = {m["name"] for m in bench[key]}
        if set(result["metrics"]) != names:
            errors.append(f"{key} metrics differ: "
                          f"{sorted(names ^ set(result['metrics']))}")
        if not result["correct"] or result["failed"]:
            errors.append(f"{key} run failed: " + "; ".join(
                f"{x['label']}: {x['problems']}" for x in r.results
                if not x["ok"]))
        if traced:
            counts = [m["name"] for m in bench[key] if m["unit"] == "count"]
            if not any(result["metrics"][n]["value"] for n in counts):
                errors.append("traced run counted nothing")

    # a real operation whose output is corrupted after it ran must fail
    real_check = workloads.check
    corrupted = []

    def corrupting_check(op, rc):
        if not corrupted:
            workloads.corrupt(op)
            corrupted.append(op.label)
        return real_check(op, rc)

    workloads.check = corrupting_check
    try:
        r, result = _run(workload, False, bench)
    finally:
        workloads.check = real_check
    if result["correct"] or result["failed"] != 1:
        errors.append(f"corrupted output of {corrupted} not counted as failed: "
                      f"{result['failed']} failed")
    return errors


def check_refuses_without_sources():
    """Only BENCHMARK.json and perfbench/: exit non-zero, print no result."""
    bare = os.path.join(run.HERE, ".work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns(".work", "results",
                                                      "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "probe-sweep",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return [f"ran without sources: exit {proc.returncode}"]
    return []


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    errors = []
    for workload in workloads.WORKLOADS:
        errs = check_workload(workload, bench)
        print(f"{workload}: {'ok' if not errs else 'FAILED'}")
        errors += [f"{workload}: {e}" for e in errs]
    errs = check_refuses_without_sources()
    print(f"refuses without sources: {'ok' if not errs else 'FAILED'}")
    errors += errs
    for e in errors:
        print(e, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
