"""Workload inputs: run files generated from a seed, and the ops that use them.

An op is one CLI command on one run file::

    {"argv": [command, "--config", file, "--out", dir], "d": dimension,
     "checks": [...]}

`argv` is what the program sees; `d` labels per-dimension trace totals
and `checks` names the output checks in checks.py that the op must pass.
Each workload is a fixed batch of ops plus one cheap warm-up op.  The
seed decides every generated number; the program sees only the files.
"""

import os
import random
import shutil

import yaml

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")

WORKLOADS = ("cli_cold", "junction_sweep", "ladder_flux", "ladder_spectrum")

# bundled run files driven by cli_cold, one per command; copies live in
# reference/ next to the outputs captured from them
CLI_COLD_CALLS = (
    ("spectrum", "fig2a.yaml", ("split",)),
    ("flux", "flux_fivelevel.yaml", ("flux",)),
    ("fdr-check", "fdr_twolevel.yaml", ()),
    ("validate", "junction_balanced.yaml", ("validate",)),
)

JUNCTION_FILES = 6          # run files per junction_sweep batch
JUNCTION_GRID = 1201        # paper's transmission grid, 0.85..1.15
# two d=12 models put the median op inside one size class rather than
# between the d=8 and d=12 classes, where it would swing with the seed
LADDER_FLUX_DIMS = (3, 5, 8, 12, 12, 16, 24)
LADDER_SPECTRUM_DIMS = (8, 12, 16)
LADDER_SPECTRUM_GRID = 401

# smoke mode keeps every code path but shrinks each input
TINY = {"junction_files": 2, "junction_grid": 41, "flux_dims": (3, 5),
        "spectrum_dims": (3, 5), "spectrum_grid": 21}


def _dump(path, doc):
    with open(path, "w") as fh:
        yaml.safe_dump(doc, fh, sort_keys=False)


def _op(command, config, out, d, checks):
    return {"argv": [command, "--config", config, "--out", out],
            "d": d, "checks": list(checks)}


def ladder_model(rng, d):
    """Random driven ladder: nearest-neighbour channels plus d // 2 skip
    channels, rates log-uniform in [0.002, 0.05], so the rate graph has
    many loops.  The channel count depends on d only, which keeps the
    generator build cost independent of the seed."""
    energies = [0.0]
    for _ in range(d - 1):
        energies.append(energies[-1] + rng.uniform(0.2, 0.8))
    labels = ["s%d" % k for k in range(d)]

    def rate():
        return 0.002 * (25.0 ** rng.random())

    pairs = [(k + 1, k) for k in range(d - 1)]
    skips = [(j, i) for i in range(d) for j in range(i + 2, d)]
    pairs += rng.sample(skips, d // 2)
    channels = [{"upper": labels[u], "lower": labels[l],
                 "rate_up": rate(), "rate_down": rate()} for u, l in pairs]
    return {"generic": {"levels": dict(zip(labels, energies)),
                        "channels": channels}}, energies[-1]


def junction_run(rng, grid_points):
    """Junction with randomized levels and rates and a bias ramp through
    the balanced point (mu_1 - mu_2 equal to the level splitting), one
    point driving the loop backwards and two driving it forwards."""
    omega_1 = rng.uniform(1.02, 1.10)
    omega_2 = rng.uniform(0.90, 0.98)
    temp = rng.uniform(0.2, 0.4)
    center = rng.uniform(0.9, 1.1)
    split = omega_1 - omega_2
    offsets = (0.0, -rng.uniform(0.05, 0.3), rng.uniform(0.05, 0.15),
               rng.uniform(0.25, 0.4))
    pairs = [[center + (split + x) / 2, center - (split + x) / 2]
             for x in offsets]
    return {
        "model": {"type": "junction", "junction": {
            "mu_1": pairs[0][0], "mu_2": pairs[0][1],
            "omega_1": omega_1, "omega_2": omega_2,
            "delta": rng.uniform(0.005, 0.02),
            "gamma": rng.uniform(0.01, 0.03),
            "t_1": temp, "t_2": temp, "dipole": 1.0}},
        "sweep": {"omega": {"min": 0.85, "max": 1.15, "points": grid_points},
                  "bias": {"mode": "fixed", "extra_pairs": pairs}},
        "output": {"directory": "out", "prefix": "run"},
    }


def generate(workload, seed, work, tiny=False):
    """Write the workload's run files under `work` and return its spec:
    {"workload", "warmup": op, "batch": [op, ...]}."""
    if workload not in WORKLOADS:
        raise ValueError("unknown workload %r" % workload)
    rng = random.Random("%s:%d" % (workload, seed))
    inputs = os.path.join(work, "inputs")
    outputs = os.path.join(work, "outputs")
    os.makedirs(inputs, exist_ok=True)
    batch = []

    if workload == "cli_cold":
        for command, name, checks in CLI_COLD_CALLS:
            path = os.path.join(inputs, name)
            shutil.copyfile(os.path.join(REFERENCE_DIR, name), path)
            batch.append(_op(command, path, os.path.join(outputs, command),
                             None, checks + ("reference",)))
        start = rng.randrange(len(batch))
        batch = batch[start:] + batch[:start]
        warmup = next(op for op in batch if op["argv"][0] == "validate")

    elif workload == "junction_sweep":
        files = TINY["junction_files"] if tiny else JUNCTION_FILES
        grid = TINY["junction_grid"] if tiny else JUNCTION_GRID
        for k in range(files + 1):
            path = os.path.join(inputs, "junction%d.yaml" % k)
            _dump(path, junction_run(rng, grid))
            batch.append(_op("spectrum", path,
                             os.path.join(outputs, "junction%d" % k), None,
                             ["split", "rows:%d" % grid, "files:4"]))
        warmup = batch.pop(0)

    else:
        spectrum = workload == "ladder_spectrum"
        if spectrum:
            dims = TINY["spectrum_dims"] if tiny else LADDER_SPECTRUM_DIMS
            grid = TINY["spectrum_grid"] if tiny else LADDER_SPECTRUM_GRID
        else:
            dims = TINY["flux_dims"] if tiny else LADDER_FLUX_DIMS
        for k, d in enumerate((3,) + tuple(dims)):
            model, top = ladder_model(rng, d)
            doc = {"model": dict(type="generic", **model),
                   "output": {"directory": "out", "prefix": "ladder%d" % d}}
            if spectrum:
                doc["sweep"] = {"omega": {"min": 0.05, "max": top + 0.1,
                                          "points": grid}}
            else:
                doc["sweep"] = {"omega": {"values": [1.0]}}
            path = os.path.join(inputs, "ladder%d.yaml" % k)
            _dump(path, doc)
            out = os.path.join(outputs, "ladder%d" % k)
            if spectrum:
                batch.append(_op("spectrum", path, out, d,
                                 ["full_only", "rows:%d" % grid, "files:1"]))
            else:
                batch.append(_op("flux", path, out, d, ["flux"]))
                batch.append(_op("validate", path, out, d, ["validate"]))
        # the extra d=3 model in front is the warm-up
        warmup = batch.pop(0)
        if not spectrum:
            batch.pop(0)

    return {"workload": workload, "warmup": warmup, "batch": batch}
