"""Benchmark of the platelab CLI: size ladder, calibration corpus, probe sweep.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a platelab checkout; the program is imported from its
`src/`. Each CLI operation runs in a fresh Python process, one at a time.
Operations repeat until --seconds is spent (the first pass always runs
whole; a later operation starts only if its last duration still fits).
Every output is checked, and one corrupted copy per run must be rejected.

--trace 0 prints the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones from spans around every platelab module. The last stdout
line is one JSON object {correct, attempted, failed, metrics}.
"""

import argparse
import ctypes
import dataclasses
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_LIMIT_S = 170.0     # a run must end within 180 s
SETUP_SAMPLES = 2       # setup-only processes per run, besides the operations'
RESIDUAL_TOL = 1e-9     # the CLI's default solve tolerance


def machine():
    """nproc, BLAS vendor and threads, interpreter and library versions."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)),
                          "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = int(fn())
                break
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": threads,
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "machine": platform.machine()}


def _reap(proc, deadline):
    """Wait for proc with os.wait4 so its own rusage is read; kill it at the
    deadline. Returns (exit code, peak RSS in MB)."""
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.perf_counter() > deadline:
            proc.kill()
            pid, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.01)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss * 1024 / 1e6


def run_child(workdir, op_id, mode, argv, deadline):
    """One fresh process running child.py; returns its record (or None)."""
    record_path = os.path.join(workdir, f"op{op_id}.json")
    log_path = os.path.join(workdir, f"op{op_id}.log")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), ROOT, record_path,
           str(op_id), mode, "--"] + argv
    # users run platelab from compiled bytecode, whatever this shell says
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    t0 = time.perf_counter()
    with open(log_path, "w") as log:
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                cwd=workdir, env=env)
        code, rss_mb = _reap(proc, deadline)
    elapsed = time.perf_counter() - t0
    record = None
    if code == 0 and os.path.exists(record_path):
        with open(record_path) as fh:
            record = json.load(fh)
    return {"exit": code, "rss_mb": rss_mb, "elapsed_s": elapsed,
            "record": record, "log": log_path}


def _output_counts(outdir):
    rows = size = 0
    for path in glob.glob(os.path.join(outdir, "*.csv")):
        size += os.path.getsize(path)
        with open(path) as fh:
            rows += sum(1 for line in fh if not line.startswith("#")) - 1
    return {"csv_rows": rows, "csv_bytes": size}


class Run:
    def __init__(self, workload, seed, seconds, traced, small=False):
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.workload, self.seconds = workload, seconds
        self.traced = traced
        self.workdir = os.path.join(HERE, ".work", f"{workload}-{os.getpid()}")
        self.ops = workloads.build(workload, seed,
                                   os.path.join(self.workdir, "inputs"), small)
        self.results = []
        self.setup = []
        self.negative_ok = None

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def execute(self, op, mode, pass_no):
        op_id = len(self.results)
        res = run_child(self.workdir, op_id, mode, op.argv, self.deadline)
        rec = res["record"]
        problems = []
        if rec is None:
            with open(res["log"]) as fh:
                problems.append(f"process exit {res['exit']}: "
                                + fh.read()[-400:].strip())
        else:
            problems = workloads.check(op, rec["rc"])
            self.setup.append(rec["setup_s"])
        result = {"op": op_id, "label": op.label, "mode": mode,
                  "pass": pass_no, "ok": not problems, "problems": problems,
                  "wall_s": rec and rec.get("wall_s"),
                  "setup_s": rec and rec["setup_s"], "rss_mb": res["rss_mb"],
                  "elapsed_s": res["elapsed_s"]}
        result.update(_output_counts(op.outdir))
        if rec and rec.get("trace"):
            with open(rec["trace"]) as fh:
                result["trace"] = spans.summarize(json.load(fh))
        if not problems and self.negative_ok is None:
            self.negative_ok = self._rejects_corruption(op)
        self.results.append(result)
        return result

    def _rejects_corruption(self, op):
        copy = dataclasses.replace(op, outdir=op.outdir + ".corrupt")
        shutil.copytree(op.outdir, copy.outdir)
        workloads.corrupt(copy)
        rejected = bool(workloads.check(copy, 0))
        shutil.rmtree(copy.outdir)
        return rejected

    def measure_setup(self):
        """One untimed warm-up process (bytecode and file caches), then
        SETUP_SAMPLES timed setup-only processes."""
        argv = self.ops[0].argv
        for i in range(SETUP_SAMPLES + 1):
            res = run_child(self.workdir, 10_000 + i, "setup", argv,
                            self.deadline)
            if res["record"] is None:
                with open(res["log"]) as fh:
                    raise SystemExit(f"platelab does not start: {fh.read()}")
            if i:
                self.setup.append(res["record"]["setup_s"])

    def loop(self, pass_ops):
        """Closed loop over pass_ops until --seconds is spent. With whole
        passes only (traced runs), a pass starts if the last one still fits;
        otherwise each operation starts if its own last duration fits."""
        end = time.perf_counter() + self.seconds
        whole = self.traced
        last = {}
        pass_no = 0
        while True:
            t_pass = time.perf_counter()
            for op, mode in pass_ops:
                if pass_no and not whole and \
                        time.perf_counter() + last[op.label, mode] > end:
                    return
                res = self.execute(op, mode, pass_no)
                last[op.label, mode] = res["elapsed_s"]
            pass_no += 1
            now = time.perf_counter()
            if whole and now + (now - t_pass) > end:
                return

    def run(self):
        self.measure_setup()
        if not self.traced:
            self.loop([(op, "plain") for op in self.ops])
            return
        pass_ops = [(op, "traced") for op in self.ops]
        if self.workload == "calibrate-corpus":
            op = self.ops[0]
            jobs1 = workloads.jobs1_op(os.path.join(self.workdir, "inputs"), op)
            pass_ops += [(op, "plain"), (jobs1, "plain")]
        self.loop(pass_ops)

    # -- metrics -----------------------------------------------------------

    def end_to_end(self):
        walls = {}
        for r in self.results:
            if r["wall_s"] is not None:
                walls.setdefault(r["label"], []).append(r["wall_s"])
        ok = sum(r["ok"] for r in self.results)
        return {
            "wall_s": sum(statistics.median(v) for v in walls.values()),
            "setup_s": statistics.median(self.setup),
            "peak_rss_mb": max(r["rss_mb"] for r in self.results),
            "ok_frac": ok / len(self.results),
        }

    def per_pass(self):
        """Per-layer metrics of each pass (sums over its traced operations)."""
        passes = {}
        for r in self.results:
            p = passes.setdefault(r["pass"], {"plain": {}, "flat": {},
                                              "maxima": {}, "wall": 0.0})
            if r["mode"] == "plain":
                p["plain"][r["label"]] = r["wall_s"]
                continue
            if "trace" not in r:
                continue
            flat, maxima = r["trace"]
            p["wall"] += r["wall_s"]
            for k, v in flat.items():
                p["flat"][k] = p["flat"].get(k, 0.0) + v
            p["flat"]["trace.unattributed_s"] = \
                p["flat"].get("trace.unattributed_s", 0.0) \
                + r["wall_s"] - flat["trace.main_self_s"]
            for k, v in maxima.items():
                p["maxima"][k] = max(p["maxima"].get(k, v), v)
        out = []
        for p in passes.values():
            f = dict(p["flat"])
            f["trace.wall_s"] = p["wall"]
            f["trace.hook_s"] = f.get("trace.self_s", 0.0)
            f["solver.residual_max"] = p["maxima"].get("solver.residual_max", 0.0)
            f["solver.ElementOps.builds"] = f.get("solver.ElementOps.__init__.calls", 0)
            for name in ("solver.solve", "geometry.generate_mesh"):
                calls = f.get(f"{name}.calls", 0)
                f[f"{name}.useful_frac"] = \
                    f.get(f"{name}.distinct", 0) / calls if calls else 0.0
            plain = p["plain"]
            f["cli.jobs_speedup"] = (
                plain["calibrate-jobs1"] / plain["calibrate-jobs2"]
                if plain.get("calibrate-jobs1") and plain.get("calibrate-jobs2")
                else 1.0)
            out.append(f)
        return out

    def per_layer(self, spec):
        passes = self.per_pass() or [{}]
        out = {}
        for m in spec:
            name = m["name"]
            values = [p.get(name, 0) for p in passes]
            if name == "solver.residual_max":
                out[name] = max(values)
            elif m["unit"] == "count":
                if len(set(values)) > 1:
                    print(f"warning: count {name} differs between passes: "
                          f"{values}", file=sys.stderr)
                out[name] = int(values[0])
            else:
                out[name] = statistics.median(values)
        return out

    def ladder_table(self):
        lines = ["rung         elements      dof     nnz(K)   mesh_s  "
                 "assemble_s  solve_s  peak_rss_mb"]
        for r in self.results:
            if r["pass"] or "trace" not in r:
                continue
            f, mx = r["trace"]
            calls = f.get("geometry.generate_mesh.calls", 0) or 1
            lines.append(
                f"{r['label']:<12} {int(f.get('geometry.elements', 0) / calls):>8} "
                f"{int(mx.get('solver.dof.max', 0)):>8} "
                f"{int(mx.get('solver.nnz_k.max', 0)):>10} "
                f"{f.get('geometry.generate_mesh.total_s', 0.0):>8.3f} "
                f"{f.get('solver.assemble_stiffness.total_s', 0.0):>11.3f} "
                f"{f.get('solver.solve.total_s', 0.0):>8.3f} "
                f"{r['rss_mb']:>12.1f}")
        return "\n".join(lines)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.exists(os.path.join(ROOT, "src", "platelab", "__init__.py")):
        print(f"no platelab sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        run.run()
        result = finish(run, bench)
    finally:
        run.close()
    print(json.dumps(result))
    return 0


def finish(run, bench):
    """Print the records and return the result object."""
    print("machine " + json.dumps(machine()))
    for r in run.results:
        rec = {k: v for k, v in r.items() if k != "trace"}
        if "trace" in r:
            f, mx = r["trace"]
            rec["counts"] = {k: int(v) for k, v in f.items()
                             if not k.endswith("_s")}
            rec["maxima"] = mx
        print("op " + json.dumps(rec))
    failed = sum(not r["ok"] for r in run.results)
    correct = failed == 0 and run.negative_ok is True
    if run.negative_ok is None:
        print("no correct output to corrupt", file=sys.stderr)
    elif not run.negative_ok:
        print("checker did not reject a corrupted output", file=sys.stderr)
    if run.traced:
        metrics = run.per_layer(bench["per_layer"])
        if not metrics["solver.residual_max"] <= RESIDUAL_TOL:
            print(f"solve residual {metrics['solver.residual_max']} over "
                  f"{RESIDUAL_TOL}", file=sys.stderr)
            correct = False
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        if run.workload == "size-ladder":
            print(run.ladder_table())
    else:
        metrics = run.end_to_end()
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    return {
        "correct": correct,
        "attempted": len(run.results),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }


if __name__ == "__main__":
    sys.exit(main())
