"""Fingerprint everything the CLI gives for some run files.

    python tools/outputs.py FILE...

For each run file and each command (spectrum, flux, fdr-check,
validate) it calls ``curlflux.cli.main`` in this process, with --out set
to a fresh temporary directory, and prints one line::

    FILE COMMAND EXIT stdout:SHA stderr:SHA NAME:SHA ...

with the exit code, the sha256 of stdout and of stderr (the temporary
directory's path replaced by OUT) and of every file written, in name
order.  Two checkouts that print the same lines for the same files gave
the same bytes everywhere.  A warning goes to stderr as its category
and message only, and every call shows it again, so neither the
warning's source line nor an earlier call changes a line.  The package
is imported from this checkout's src directory.  Standard library and
curlflux only.
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile
import warnings

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from curlflux import cli  # noqa: E402

COMMANDS = ("spectrum", "flux", "fdr-check", "validate")


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def fingerprint(path, command):
    """The line for one run file and one command."""
    with tempfile.TemporaryDirectory() as out:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main([command, "--config", path, "--out", out])
        for w in caught:
            stderr.write("%s: %s\n" % (w.category.__name__, w.message))
        fields = [path, command, str(code)]
        for name, stream in (("stdout", stdout), ("stderr", stderr)):
            text = stream.getvalue().replace(out, "OUT")
            fields.append("%s:%s" % (name, _sha(text.encode())))
        written = sorted(os.path.relpath(os.path.join(d, f), out)
                         for d, _, files in os.walk(out) for f in files)
        for name in written:
            with open(os.path.join(out, name), "rb") as fh:
                fields.append("%s:%s" % (name, _sha(fh.read())))
    return " ".join(fields)


def main(paths):
    for path in paths:
        for command in COMMANDS:
            print(fingerprint(path, command))


if __name__ == "__main__":
    main(sys.argv[1:])
