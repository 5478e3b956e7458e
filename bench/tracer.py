"""Per-module span tracer for curlflux, installed from outside the package.

`Tracer.install()` wraps every public module-level function of the
traced modules and patches each curlflux namespace that holds it, so
calls through `from .flux import curl_flux` are traced too.  A span's
time is charged to the function's `__module__`; a module's self time is
its spans' durations minus the time of the spans they enclose.  Private
helpers are not wrapped: their time counts as their caller's self time.
The span stack assumes one thread, which is how the CLI runs without
`--threads`.

Run as a script it is a traced stand-in for `python -m curlflux.cli`::

    python bench/tracer.py TRACE.json -- spectrum --config run.yaml

which runs the command with the tracer installed and writes the totals
to TRACE.json.
"""

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

MODULES = ("cli", "config", "liouville", "reduction", "flux", "response",
           "junction")
# inclusive time of these functions is reported as its own layer
RENDER = {"spectrum_to_csv": "render.csv_s",
          "render_flux_report": "render.json_s"}


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)     # "<module>" or "<module>.d<d>"
        self.calls = defaultdict(int)
        self.render_s = defaultdict(float)
        self.dim = None                      # dimension of the current op
        self._stack = []                     # child time of open spans
        self._patched = []

    def install(self):
        package = importlib.import_module("curlflux")
        modules = {name: importlib.import_module("curlflux." + name)
                   for name in MODULES}
        targets = [
            (short, name, obj)
            for short, mod in modules.items()
            for name, obj in vars(mod).items()
            if not name.startswith("_") and callable(obj)
            and not inspect.isclass(obj)
            and getattr(obj, "__module__", None) == mod.__name__
        ]
        namespaces = [package] + list(modules.values())
        for short, name, obj in targets:
            wrapper = self._wrap(obj, short, RENDER.get(name))
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is obj:
                        self._patched.append((ns, attr, value))
                        setattr(ns, attr, wrapper)
        return self

    def uninstall(self):
        for ns, attr, value in reversed(self._patched):
            setattr(ns, attr, value)
        self._patched = []

    def _wrap(self, fn, module, render_key):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span = clock() - start
                own = span - stack.pop()
                if stack:
                    stack[-1] += span
                self.self_s[module] += own
                if self.dim is not None:
                    self.self_s["%s.d%d" % (module, self.dim)] += own
                self.calls[module] += 1
                if render_key:
                    self.render_s[render_key] += span

        return traced

    def totals(self):
        return {"self_s": dict(self.self_s), "calls": dict(self.calls),
                "render_s": dict(self.render_s)}

    def reset(self):
        self.self_s.clear()
        self.calls.clear()
        self.render_s.clear()


def merge(into, totals):
    """Add one totals() record into another, key by key."""
    for group, values in totals.items():
        target = into.setdefault(group, {})
        for key, value in values.items():
            target[key] = target.get(key, 0) + value
    return into


def main(argv):
    trace_path, sep, cli_args = argv[0], argv[1], argv[2:]
    if sep != "--":
        raise SystemExit("usage: tracer.py TRACE.json -- <curlflux args>")
    tracer = Tracer().install()
    cli = importlib.import_module("curlflux.cli")
    code = cli.main(cli_args)
    with open(trace_path, "w") as fh:
        json.dump(tracer.totals(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
