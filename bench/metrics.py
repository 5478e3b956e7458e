"""Metric names, units, and what each per-layer metric should move.

BENCHMARK.json lists the same names and units; `run.py --smoke` checks
that the two agree and that every run prints every metric.
"""

MODULES = ("cli", "config", "liouville", "reduction", "flux", "response",
           "junction")
LADDER_DIMS = (3, 5, 8, 12, 16, 24)

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "op_p50_s": ("s", "lower"),
    "op_p90_s": ("s", "lower"),
    "ops_ok_frac": ("fraction", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

IMPORTS = {"import.curlflux_cli_s": "curlflux.cli",
           "import.scipy_linalg_s": "scipy.linalg",
           "import.numpy_s": "numpy",
           "import.yaml_s": "yaml"}

# name -> (unit, the end-to-end metric it should move and on which workload)
PER_LAYER = {}
for _name in IMPORTS:
    PER_LAYER[_name] = ("s", "setup_s and op_p50_s on cli_cold; "
                             "setup_s only elsewhere")
PER_LAYER.update({
    "cli.self_s": ("s", "op_p50_s on cli_cold"),
    "config.self_s": ("s", "op_p50_s on cli_cold"),
    "liouville.self_s": ("s", "wall_s and op_p90_s on ladder_flux and "
                              "ladder_spectrum; no change on junction_sweep"),
    "reduction.self_s": ("s", "wall_s on ladder_flux"),
    "flux.self_s": ("s", "op_p50_s on ladder_flux"),
    "flux.loops": ("count", "op_p50_s on ladder_flux"),
    "response.self_s": ("s", "wall_s and op_p50_s on junction_sweep and "
                             "ladder_spectrum; zero on ladder_flux"),
    "junction.self_s": ("s", "wall_s on junction_sweep"),
    "render.csv_s": ("s", "wall_s on junction_sweep"),
    "render.json_s": ("s", "wall_s on ladder_flux"),
})
for _module in MODULES:
    PER_LAYER["%s.calls" % _module] = (
        "count", "what %s.self_s moves, where it moves it" % _module)
for _module in ("liouville", "reduction", "flux", "response"):
    for _d in LADDER_DIMS:
        PER_LAYER["%s.self_s.d%d" % (_module, _d)] = (
            "s", "op_p90_s (d >= 16) or op_p50_s (d <= 12), and wall_s, on "
                 "ladder_flux and ladder_spectrum")
PER_LAYER["trace.overhead_frac"] = (
    "fraction", "none: the tracer's own cost, on every workload")
