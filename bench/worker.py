"""One workload process: a warm-up op, an untimed priming batch, then timed
batches of ops until time is up.

    python bench/worker.py SPEC.json RESULT.json SECONDS MODE

MODE is `probe` (warm-up only, to time set-up), `untraced`, or `traced`
(untraced and traced batches alternate, to measure the tracer's cost and
to compare their outputs).  `cli_cold` ops are `python -m curlflux.cli`
subprocesses; every other workload calls `curlflux.cli.main(argv)` in
this process.  The result file holds per-op latencies and failures, batch
wall times, trace totals and output hashes; run.py turns it into metrics.

Every timed batch is bracketed by calibration slices (calibrate.py), one
before each op and one after the last; each op and batch time is stored
both as measured and scaled to the reference host speed.
"""

import contextlib
import glob
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import subprocess
import sys
import time

import calibrate
import checks
import tracer as tracing

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference", "outputs.json")
OP_TIMEOUT_S = 150
SETUP_SLICES = 9             # calibration slices after set-up


def _clear(op):
    out_dir = op["argv"][op["argv"].index("--out") + 1]
    shutil.rmtree(out_dir, ignore_errors=True)
    return out_dir


def _output_hashes(out_dir, stdout):
    """sha256 of every output file and of stdout minus its 'wrote' lines,
    which name paths."""
    digests = {}
    for path in sorted(glob.glob(os.path.join(out_dir, "*"))):
        with open(path, "rb") as fh:
            digests[os.path.basename(path)] = hashlib.sha256(fh.read()).hexdigest()
    text = "\n".join(line for line in stdout.splitlines()
                     if not line.startswith("wrote "))
    digests["<stdout>"] = hashlib.sha256(text.encode()).hexdigest()
    return digests


class WarmRunner:
    """Runs ops in this process through curlflux.cli.main."""

    def __init__(self):
        # import cost belongs to set-up
        self.cli = importlib.import_module("curlflux.cli")
        self.tracer = tracing.Tracer()

    def run(self, op, traced):
        out, err = io.StringIO(), io.StringIO()
        self.tracer.dim = op["d"]
        if traced:
            self.tracer.install()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                start = time.perf_counter()
                try:
                    code = self.cli.main(op["argv"])
                    error = None
                except (Exception, SystemExit) as exc:
                    code, error = None, "%s: %s" % (type(exc).__name__, exc)
                latency = time.perf_counter() - start
        finally:
            self.tracer.uninstall()
        return latency, code, error, out.getvalue(), err.getvalue()

    def trace_totals(self):
        totals = self.tracer.totals()
        self.tracer.reset()
        return totals

    @staticmethod
    def peak_rss_mb():
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class ColdRunner:
    """Runs each op as a fresh `python -m curlflux.cli` interpreter."""

    def __init__(self, work):
        self.trace_path = os.path.join(work, "cold_trace.json")
        self.totals = {}

    def run(self, op, traced):
        if traced:
            cmd = [sys.executable, os.path.join(HERE, "tracer.py"),
                   self.trace_path, "--"] + op["argv"]
        else:
            cmd = [sys.executable, "-m", "curlflux.cli"] + op["argv"]
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=OP_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            return (time.perf_counter() - start, None,
                    "timeout after %ss" % exc.timeout, "", "")
        latency = time.perf_counter() - start
        if traced and proc.returncode == 0:
            with open(self.trace_path) as fh:
                tracing.merge(self.totals, json.load(fh))
        return latency, proc.returncode, None, proc.stdout, proc.stderr

    def trace_totals(self):
        totals, self.totals = self.totals, {}
        return totals

    @staticmethod
    def peak_rss_mb():
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def run_op(runner, op, traced, reference):
    """Run and check one op; returns (record, output hashes)."""
    out_dir = _clear(op)
    latency, code, error, stdout, stderr = runner.run(op, traced)
    reasons = []
    if error is not None:
        reasons.append(error)
    elif code != 0:
        reasons.append("exit %s: %s" % (code, stderr.strip()[-300:]))
    else:
        try:
            reasons = checks.check_op(op, stdout, reference)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            reasons = ["unparsable output: %s: %s" % (type(exc).__name__, exc)]
    loops = 0
    if not reasons and op["argv"][0] == "flux":
        loops = checks.loop_count(out_dir)
    record = {"latency_s": latency, "ok": not reasons,
              "reason": "; ".join(reasons), "input": " ".join(op["argv"]),
              "traced": traced, "loops": loops}
    return record, _output_hashes(out_dir, stdout)


def main(argv):
    spec_path, result_path, seconds, mode = argv
    seconds = float(seconds)
    with open(spec_path) as fh:
        spec = json.load(fh)
    work = os.path.dirname(os.path.abspath(spec_path))
    reference = None
    if spec["workload"] == "cli_cold":
        runner = ColdRunner(work)
        with open(REFERENCE) as fh:
            reference = json.load(fh)
    else:
        runner = WarmRunner()
    warm, _ = run_op(runner, spec["warmup"], False, reference)
    ready = time.monotonic()
    # after `ready`, so set-up time does not include them
    setup_slices = [calibrate.slice_s() for _ in range(SETUP_SLICES)]
    result = {"ready": ready, "setup_factor": calibrate.factor(setup_slices),
              "ops": [warm], "batches": []}
    if mode != "probe":
        run_batches(runner, spec["batch"], seconds, mode == "traced",
                    reference, result)
        result["peak_rss_mb"] = runner.peak_rss_mb()
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


def _scaled(totals, factor):
    """Trace totals with every time multiplied by `factor`."""
    return {group: {key: value if group == "calls" else value * factor
                    for key, value in values.items()}
            for group, values in totals.items()}


def run_batch(runner, batch, traced, reference, result):
    """Run every op of the batch once, a calibration slice before each op
    and after the last; returns (batch record, hashes)."""
    slices = []
    records = []
    hashes = []
    for op in batch:
        slices.append(calibrate.slice_s())
        record, digest = run_op(runner, op, traced, reference)
        records.append(record)
        hashes.append(digest)
    slices.append(calibrate.slice_s())
    for k, record in enumerate(records):
        # the slices just before and just after op k
        record["scaled_s"] = record["latency_s"] * calibrate.factor(
            slices[k:k + 2])
    result["ops"].extend(records)
    return {"traced": traced,
            "wall_s": sum(r["latency_s"] for r in records),
            "scaled_wall_s": sum(r["scaled_s"] for r in records),
            "factor": calibrate.factor(slices),
            "loops": sum(r["loops"] for r in records)}, hashes


def run_batches(runner, batch, seconds, with_traced, reference, result):
    """One untimed priming batch, then whole batches until `seconds` have
    passed (at least one of each kind).  The priming batch pays the
    first-use costs (allocator growth, caches) of inputs larger than the
    warm-up op, so no timed batch does.  With `with_traced`, untraced and
    traced batches alternate.  Every batch must write the same outputs as
    the priming batch."""
    _, first = run_batch(runner, batch, False, reference, result)
    for record in result["ops"]:
        record["untimed"] = True
    kinds = (False, True) if with_traced else (False,)
    mismatches = []
    trace = {}
    start = time.monotonic()
    n = 0
    while n < len(kinds) or time.monotonic() - start < seconds:
        traced = kinds[n % len(kinds)]
        n += 1
        record, hashes = run_batch(runner, batch, traced, reference, result)
        if traced:
            tracing.merge(trace, _scaled(runner.trace_totals(),
                                         record["factor"]))
        if hashes != first:
            mismatches.append("batch %d (%s) outputs differ from the priming "
                              "batch" % (len(result["batches"]),
                                         "traced" if traced else "untraced"))
        result["batches"].append(record)
    result["trace"] = trace
    result["hashes"] = first
    result["mismatches"] = mismatches


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
