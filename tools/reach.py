"""List the library lines that no run of some run files executes.

    python tools/reach.py FILE...

For each run file and each command (spectrum, flux, fdr-check,
validate) it calls ``curlflux.cli.main`` in this process, with --out set
to a fresh temporary directory, under a ``sys.settrace`` line tracer
started before curlflux is imported, so module-level lines count too.
It then prints, in file order, one line for each stretch of executable
library lines that no call reached::

    src/curlflux/FILE.py:FIRST-LAST  SOURCE OF FIRST

and last ``missed N of M executable lines``.  A line is executable when
the compiled module maps an instruction to it, so blank, comment and
docstring lines between two missed ones join their stretch.  The
package is imported from this checkout's src directory.  Standard
library and curlflux only.
"""

import contextlib
import io
import os
import sys
import tempfile
import types
import warnings

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "curlflux")
COMMANDS = ("spectrum", "flux", "fdr-check", "validate")


def executable(path):
    """The line numbers of a source file that its code objects run."""
    with open(path) as fh:
        stack = [compile(fh.read(), path, "exec")]
    lines = set()
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def reach(paths):
    """The (file, line) pairs of curlflux that some command executes on
    some run file, curlflux imported under the tracer."""
    if "curlflux" in sys.modules:
        raise RuntimeError("curlflux is imported already: its module-level "
                           "lines would go uncounted")
    reached = set()

    def line(frame, event, arg):
        reached.add((frame.f_code.co_filename, frame.f_lineno))
        return line

    def call(frame, event, arg):
        if frame.f_code.co_filename.startswith(PACKAGE + os.sep):
            return line(frame, event, arg)
        return None

    sys.path.insert(0, SRC)
    sys.settrace(call)
    try:
        from curlflux import cli
        for path in paths:
            for command in COMMANDS:
                with tempfile.TemporaryDirectory() as out, \
                        contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()), \
                        warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    cli.main([command, "--config", path, "--out", out])
    finally:
        sys.settrace(None)
    return reached


def main(paths):
    reached = reach(paths)
    missed = total = 0
    for name in sorted(n for n in os.listdir(PACKAGE) if n.endswith(".py")):
        path = os.path.join(PACKAGE, name)
        with open(path) as fh:
            source = fh.read().splitlines()
        lines = sorted(executable(path))
        total += len(lines)
        stretch = []
        for number in lines + [None]:
            if number is not None and (path, number) not in reached:
                stretch.append(number)
                continue
            if stretch:
                print("%s:%d-%d  %s" % (os.path.relpath(path, ROOT), stretch[0],
                                        stretch[-1],
                                        source[stretch[0] - 1].strip()))
                missed += len(stretch)
                stretch = []
    print("missed %d of %d executable lines" % (missed, total))


if __name__ == "__main__":
    main(sys.argv[1:])
