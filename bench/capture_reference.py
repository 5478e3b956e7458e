"""Capture the reference outputs that cli_cold ops are checked against.

    python3 bench/capture_reference.py

Run from the repository root.  Runs each cli_cold command once on its
run file in bench/reference/ and writes bench/reference/outputs.json
(sampled rows and scales, see checks.digest).  The committed file was
captured before any optimization of the library; re-capture only in a
change that alters the outputs on purpose and says so.
"""

import json
import os
import subprocess
import sys
import tempfile

import checks
import workloads

from run import child_env


def main():
    root = os.getcwd()
    env = child_env(root)
    digests = {}
    with tempfile.TemporaryDirectory() as work:
        for command, name, _ in workloads.CLI_COLD_CALLS:
            out_dir = os.path.join(work, command)
            proc = subprocess.run(
                [sys.executable, "-m", "curlflux.cli", command, "--config",
                 os.path.join(workloads.REFERENCE_DIR, name), "--out", out_dir],
                env=env, capture_output=True, text=True, check=True)
            digests[command] = checks.digest(command, out_dir, proc.stdout)
    path = os.path.join(workloads.REFERENCE_DIR, "outputs.json")
    with open(path, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote %s" % path)


if __name__ == "__main__":
    main()
