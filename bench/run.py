"""curlflux benchmark: drives the CLI on seeded workloads and prints metrics.

Run from the repository root::

    python3 bench/run.py --workload junction_sweep --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --smoke

`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
metrics of a traced run (see metrics.py for what each should move).
Each workload's report ends with one JSON line with the keys `correct`,
`attempted`, `failed` and `metrics`; the lines before it give the
environment, any failed ops with their inputs, and a table.
`--smoke` runs every workload at tiny size, traced and untraced, and
checks that every metric named in BENCHMARK.json is printed with its
unit and that traced and untraced runs write identical outputs.

The load is a closed loop: one client in one worker process runs the
workload's batch of ops back to back until `--seconds` have passed.
BLAS runs one thread.  Every reported time is scaled to a reference host
speed by calibration slices timed around it (calibrate.py); the report
lines above the JSON give the times as measured too.
"""

import argparse
import contextlib
import hashlib
import importlib.metadata
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import metrics
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
HELD_OUT_SEED = 7919
SETUP_SAMPLES = 7           # fresh interpreters timed for setup_s
IMPORTTIME_SAMPLES = 3
PROCESS_TIMEOUT_S = 170
# one client, one thread: a second BLAS thread on a small shared host
# spins against whatever else runs there and makes times swing
BLAS_THREADS = 1


def child_env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    cap = str(BLAS_THREADS)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = cap
    return env


def _run(cmd, env, cwd):
    """Run a child in its own session; on timeout kill the whole session,
    so no grandchild (a cold CLI call) outlives the benchmark."""
    proc = subprocess.Popen(cmd, env=env, cwd=cwd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return subprocess.CompletedProcess(cmd, proc.returncode, stdout, stderr)


def run_worker(spec_path, work, seconds, mode, env, tag):
    """Start one worker interpreter; return ((seconds until it was ready to
    time its first op, the same scaled to the reference speed), its
    result)."""
    result_path = os.path.join(work, "result_%s.json" % tag)
    start = time.monotonic()
    proc = _run([sys.executable, WORKER, spec_path, result_path,
                 repr(seconds), mode], env, work)
    if proc.returncode != 0:
        raise RuntimeError("worker %s failed (exit %d): %s"
                           % (tag, proc.returncode, proc.stderr.strip()[-2000:]))
    with open(result_path) as fh:
        result = json.load(fh)
    ready_s = result["ready"] - start
    return (ready_s, ready_s * result["setup_factor"]), result


def import_times(env, work):
    """Cumulative import time of the IMPORTS modules, from `python -X
    importtime -c 'import curlflux.cli'`, median over fresh interpreters."""
    samples = {name: [] for name in metrics.IMPORTS}
    pattern = re.compile(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)\s*$")
    for _ in range(IMPORTTIME_SAMPLES):
        proc = _run([sys.executable, "-X", "importtime", "-c",
                     "import curlflux.cli"], env, work)
        cumulative = {}
        for line in proc.stderr.splitlines():
            match = pattern.match(line)
            if match:
                cumulative[match.group(2)] = int(match.group(1)) * 1e-6
        for name, module in metrics.IMPORTS.items():
            samples[name].append(cumulative.get(module, 0.0))
    return {name: statistics.median(v) for name, v in samples.items()}


def _quantile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def timings(setup, result, scaled=True):
    """setup_s, wall_s, op_p50_s and op_p90_s, scaled to the reference
    host speed or as measured."""
    timed = [op for op in result["ops"] if not op.get("untimed")]
    op_key, wall_key = ("scaled_s", "scaled_wall_s") if scaled else \
        ("latency_s", "wall_s")
    latencies = [op[op_key] for op in timed]
    return {
        "setup_s": statistics.median(s[1] if scaled else s[0]
                                     for s in setup),
        "wall_s": statistics.median(b[wall_key] for b in result["batches"]),
        "op_p50_s": _quantile(latencies, 50),
        "op_p90_s": _quantile(latencies, 90),
    }


def end_to_end(setup, result):
    attempted = len(result["ops"])
    failed = sum(not op["ok"] for op in result["ops"])
    values = timings(setup, result)
    values["ops_ok_frac"] = 1.0 - failed / attempted
    values["peak_rss_mb"] = result["peak_rss_mb"]
    return values


def per_layer(result, imports):
    traced = [b for b in result["batches"] if b["traced"]]
    untraced = [b for b in result["batches"] if not b["traced"]]
    n = len(traced)
    trace = result["trace"]
    self_s, calls = trace.get("self_s", {}), trace.get("calls", {})
    values = dict(imports)
    for module in metrics.MODULES:
        values["%s.self_s" % module] = self_s.get(module, 0.0) / n
        values["%s.calls" % module] = calls.get(module, 0) / n
        for d in metrics.LADDER_DIMS:
            key = "%s.self_s.d%d" % (module, d)
            if key in metrics.PER_LAYER:
                values[key] = self_s.get("%s.d%d" % (module, d), 0.0) / n
    for key in ("render.csv_s", "render.json_s"):
        values[key] = trace.get("render_s", {}).get(key, 0.0) / n
    values["flux.loops"] = statistics.median(b["loops"] for b in traced)
    values["trace.overhead_frac"] = (
        statistics.median(b["scaled_wall_s"] for b in traced)
        / statistics.median(b["scaled_wall_s"] for b in untraced) - 1.0)
    return values


def provenance(root, seed):
    versions = {}
    for dist in ("numpy", "scipy", "PyYAML"):
        try:
            versions[dist] = importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            versions[dist] = None
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        proc = _run(["git", "rev-parse", "HEAD"], os.environ, root)
        commit = proc.stdout.strip() or None
    src = hashlib.sha256()
    src_dir = os.path.join(root, "src", "curlflux")
    for dirpath, dirnames, filenames in sorted(os.walk(src_dir)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            with open(os.path.join(dirpath, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    return {
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "python": sys.version.split()[0],
        "numpy": versions["numpy"],
        "scipy": versions["scipy"],
        "pyyaml": versions["PyYAML"],
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
    }


def run_workload(root, workload, seed, seconds, trace, tiny=False,
                 setup_samples=SETUP_SAMPLES):
    """One benchmark run.  Returns (summary, result of the main worker)."""
    env = child_env(root)
    scratch = os.path.join(root, ".bench_work")
    os.makedirs(scratch, exist_ok=True)
    work = tempfile.mkdtemp(prefix="%s-%d-" % (workload, seed), dir=scratch)
    try:
        spec = workloads.generate(workload, seed, work, tiny=tiny)
        spec_path = os.path.join(work, "spec.json")
        with open(spec_path, "w") as fh:
            json.dump(spec, fh)
        setup = []
        for k in range(setup_samples - 1):
            ready, _ = run_worker(spec_path, work, 0, "probe", env,
                                  "probe%d" % k)
            setup.append(ready)
        ready, result = run_worker(spec_path, work, seconds,
                                   "traced" if trace else "untraced", env,
                                   "main")
        setup.append(ready)
        if trace:
            values = per_layer(result, import_times(env, work))
            units = {k: v[0] for k, v in metrics.PER_LAYER.items()}
        else:
            values = end_to_end(setup, result)
            units = {k: v[0] for k, v in metrics.END_TO_END.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(scratch)
    failures = [op for op in result["ops"] if not op["ok"]]
    result["measured"] = timings(setup, result, scaled=False)
    summary = {
        "correct": not failures and not result["mismatches"],
        "attempted": len(result["ops"]),
        "failed": len(failures),
        "metrics": {k: {"value": values[k], "unit": units[k]}
                    for k in units},
    }
    return summary, result


def report(workload, seconds, trace, summary, result, env_block):
    print("# curlflux benchmark  workload=%s seconds=%s trace=%d"
          % (workload, seconds, trace))
    print("# env %s" % json.dumps(env_block, sort_keys=True))
    batches = result["batches"]
    print("# %d batches (%d traced), %d ops, ops_failed_frac %.6g"
          % (len(batches), sum(b["traced"] for b in batches),
             summary["attempted"], summary["failed"] / summary["attempted"]))
    for op in result["ops"]:
        if not op["ok"]:
            print("# FAILED op: %s -- %s" % (op["input"], op["reason"]))
    for line in result["mismatches"]:
        print("# FAILED %s" % line)
    factors = [b["factor"] for b in batches]
    print("# host speed: median batch factor %.4g (min %.4g, max %.4g); "
          "times as measured: %s"
          % (statistics.median(factors), min(factors), max(factors),
             " ".join("%s %.6g" % kv for kv in result["measured"].items())))
    table = metrics.PER_LAYER if trace else metrics.END_TO_END
    for name, item in summary["metrics"].items():
        moves = "  moves " + table[name][1] if trace else ""
        print("# %-28s %14.6g %-8s%s" % (name, item["value"], item["unit"], moves))
    print(json.dumps(summary))


def smoke(root):
    """Every workload at tiny size, traced and untraced: all named metrics
    present with their units, outputs identical in both runs."""
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    want = {0: {m["name"]: m["unit"] for m in declared["end_to_end"]},
            1: {m["name"]: m["unit"] for m in declared["per_layer"]}}
    problems = []
    for workload in workloads.WORKLOADS:
        before = len(problems)
        hashes = {}
        for trace in (0, 1):
            summary, result = run_workload(root, workload, 1, 0.2, trace,
                                           tiny=True, setup_samples=2)
            hashes[trace] = result["hashes"]
            got = {k: v["unit"] for k, v in summary["metrics"].items()}
            if got != want[trace]:
                problems.append("%s trace=%d: metrics %s differ from "
                                "BENCHMARK.json" % (workload, trace,
                                                    sorted(set(got) ^ set(want[trace]))
                                                    or "units"))
            if not summary["correct"]:
                problems.append("%s trace=%d: %d failed ops, %s"
                                % (workload, trace, summary["failed"],
                                   result["mismatches"]))
        if hashes[0] != hashes[1]:
            problems.append("%s: traced and untraced runs wrote different "
                            "outputs" % workload)
        print("smoke %-16s %s"
              % (workload, "FAIL" if len(problems) > before else "ok"))
    for line in problems:
        print("smoke problem: %s" % line)
    return 1 if problems else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",),
                        help="'all' runs every workload in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "curlflux", "cli.py")):
        print("error: run from the repository root (src/curlflux not found)",
              file=sys.stderr)
        return 2
    if args.smoke:
        return smoke(root)
    if args.workload is None:
        parser.error("--workload is required")
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    runs = [(name,) + run_workload(root, name, args.seed, args.seconds,
                                   args.trace) for name in names]
    # numpy is imported here only after the timed runs, for its BLAS version
    env_block = provenance(root, args.seed)
    for name, summary, result in runs:
        report(name, args.seconds, args.trace, summary, result, env_block)
    return 0


if __name__ == "__main__":
    sys.exit(main())
