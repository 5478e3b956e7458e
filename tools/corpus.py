"""Write the bench's generated run files, the corpus of tools/outputs.py.

    python tools/corpus.py DIR

writes the run files that ``bench/workloads.generate`` makes for the
junction_sweep, ladder_flux and ladder_spectrum workloads at seeds 1, 2
and 3, each workload and seed in its own subdirectory of DIR (the
workloads reuse file names), and prints their 57 paths, one a line.
With the 7 bundled and the 4 bench/reference run files they make the
68 files whose outputs a change is compared on::

    python tools/outputs.py src/curlflux/configs/*.yaml \\
        bench/reference/*.yaml $(python tools/corpus.py DIR)

Every run writes the same bytes.  The bench's workloads module is
imported from this checkout; it needs PyYAML.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

from workloads import generate  # noqa: E402

WORKLOADS = ("junction_sweep", "ladder_flux", "ladder_spectrum")
SEEDS = (1, 2, 3)


def write(directory):
    """Write the run files under `directory`; return their paths in
    workload, seed and op order."""
    paths = []
    for workload in WORKLOADS:
        for seed in SEEDS:
            work = os.path.join(directory, "%s-%d" % (workload, seed))
            spec = generate(workload, seed, work)
            # a ladder_flux file is read by two ops, flux and validate
            ops = [spec["warmup"], *spec["batch"]]
            paths += dict.fromkeys(op["argv"][2] for op in ops)
    return paths


if __name__ == "__main__":
    for path in write(sys.argv[1]):
        print(path)
