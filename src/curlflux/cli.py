"""Command-line driver.

Subcommands::

    curlflux spectrum  --config run.yaml [--out DIR]
    curlflux flux      --config run.yaml [--out DIR]
    curlflux fdr-check --config run.yaml [--out DIR]
    curlflux validate  --config run.yaml

`spectrum` writes one CSV per sweep point with columns
omega,re_full,im_full,im_eq,im_ne; `flux` writes a JSON flux report;
`fdr-check` writes per-frequency residuals of the equilibrium
fluctuation-dissipation comparison (and refuses driven models);
`validate` runs the model invariant suite and reports each check.
Every command works on the :func:`~curlflux.reduction.analyze` result of
the configured model.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

import argparse
import os
import sys

import numpy as np

from . import __version__
from .config import ConfigError, load_config
from .flux import is_detailed_balanced, reconstruct_flux, render_flux_report
from .junction import JUNCTION_LABELS, build_junction, dipole_operator
from .liouville import build_liouvillian, trace_vector
from .reduction import NonUniqueSteadyStateError, analyze
from .response import (
    NotDetailedBalancedError,
    ResolventSingularError,
    check_equilibrium_fdr,
    linear_response_freq,
    response_split,
    spectrum_to_csv,
)

EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

NUMERICAL_ERRORS = (
    NonUniqueSteadyStateError,
    NotDetailedBalancedError,
    ResolventSingularError,
    np.linalg.LinAlgError,
    ValueError,
)


def _write(config, args, suffix, text):
    """Write text to the file <prefix><suffix> in the output directory,
    which --out overrides."""
    path = os.path.join(args.out or config.out_dir, config.prefix + suffix)
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError("cannot write %s: %s" % (path, exc)) from None
    print("wrote %s" % path)


def _bool_flag(value):
    lowered = value.lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise argparse.ArgumentTypeError("expected true/false, got %r" % value)


def _model(config, strict):
    """(analysis, probe coupling) of the configured model.

    The junction is probed through its transition dipole; a generic model
    couples every channel's level pair with a unit dipole.
    """
    if config.model_type == "junction":
        return (build_junction(config.junction, strict_paper_rates=strict),
                dipole_operator(config.junction))
    v = sum((ch.raising + ch.raising.conj().T for ch in config.generic.channels),
            np.zeros((config.generic.basis.dim,) * 2, dtype=complex))
    if not np.any(v):
        raise ValueError("generic model has no channels to define a probe")
    return analyze(build_liouvillian(config.generic.hamiltonian,
                                     config.generic.channels)), v


def _labels(config):
    return config.generic.basis.labels if config.generic else JUNCTION_LABELS


def _spectrum_points(config, strict):
    """(tag, analysis, probe coupling) of each spectrum CSV, one at a time:
    the generic model as the one point 'spectrum', or every junction bias
    point (a generic model has none)."""
    if config.generic:
        yield ("spectrum", *_model(config, strict))
    for tag, params in config.sweep_points:
        yield tag, build_junction(params, strict), dipole_operator(params)


def cmd_spectrum(config, args):
    # a point's CSV is written before the next point is built; only the
    # junction's spectra are split so far
    spectrum_of = response_split if config.junction else linear_response_freq
    for tag, analysis, v in _spectrum_points(config, args.strict_paper_rates):
        spectrum = spectrum_of(v, analysis, config.omega_grid,
                               epsilon=config.epsilon)
        _write(config, args, "_%s.csv" % tag, spectrum_to_csv(spectrum))


def cmd_flux(config, args):
    model, _ = _model(config, args.strict_paper_rates)
    pops = model.populations
    balanced, violation = is_detailed_balanced(model.l_matrix, pops)
    extra = {"populations": list(map(float, pops))}
    if config.model_type == "junction":
        coh = model.coherence_e1e2
        # Im rho_e1e2 at rounding level (detailed balance) has no ratio
        at_rounding = abs(coh.imag) <= 1e-12 * np.abs(model.rho_ss.vector).max()
        extra.update(
            loop_flux_j=model.flux_j,
            im_coherence_e1e2=coh.imag,
            flux_coherence_ratio=None if at_rounding else model.flux_j / coh.imag,
        )
    report = render_flux_report(model.flux, model.split, labels=_labels(config),
                                extra=extra)
    _write(config, args, "_flux.json", report)
    print("detailed balance: %s (max violation %.6e)" % (balanced, violation))


def cmd_fdr_check(config, args):
    if config.temperature is None:
        raise ConfigError(
            "fdr-check requires a thermal model: equal electrode "
            "temperatures (junction) or model.generic.temperature"
        )
    analysis, coupling = _model(config, args.strict_paper_rates)
    report = check_equilibrium_fdr(coupling, analysis, config.temperature,
                                   config.omega_grid, db_tol=config.db_tol,
                                   epsilon=config.epsilon)
    rows = zip(report.omega.tolist(), report.lhs.tolist(),
               report.rhs.real.tolist(), report.rhs.imag.tolist(),
               report.residual.tolist())
    _write(config, args, "_fdr.csv", "omega,lhs,re_rhs,im_rhs,residual\n"
           + "".join(map("%.17g,%.17g,%.17g,%.17g,%.17g\n".__mod__, rows)))
    print("max residual: %.6e" % report.max_residual)


def _check(name, ok, detail=""):
    print("%-42s %s %s" % (name, "PASS" if ok else "FAIL", detail))
    return ok


def cmd_validate(config, args):
    """Invariant suite over the configured model.

    The analysis's steady state is the full generator's null vector,
    found without K and L, so it is an independent reference for them.
    """
    ok = True
    analysis, _ = _model(config, args.strict_paper_rates)
    m, l_matrix, k_map = analysis.m, analysis.l_matrix, analysis.k_map
    decomp, split = analysis.flux, analysis.split
    rho, pops = analysis.rho_ss, analysis.populations
    d = pops.size
    one = trace_vector(d)
    ok &= _check("trace preservation <<1|M = 0",
                 np.abs(one @ m).max() < 1e-12,
                 "max %.2e" % np.abs(one @ m).max())
    ok &= _check("steady state residual", rho.residual <= 1e-10,
                 "%.2e" % rho.residual)
    tr_err = abs(rho.vector[:d].sum().real - 1.0)
    ok &= _check("steady state trace", tr_err <= 1e-12, "%.2e" % tr_err)
    coh_err = np.abs(rho.vector[d:] - k_map @ rho.vector[:d]).max(initial=0.0)
    ok &= _check("stationary coherences equal K rho_p", coh_err <= 1e-10,
                 "%.2e" % coh_err)
    lp = np.abs(l_matrix @ pops).max()
    ok &= _check("reduced rates stationary on populations", lp <= 1e-10,
                 "%.2e" % lp)
    col = np.abs(l_matrix.sum(axis=0)).max()
    ok &= _check("rate matrix columns sum to zero", col <= 1e-12,
                 "%.2e" % col)
    c = decomp.c
    ok &= _check("curl flux non-negative", bool(np.all(c >= 0)))
    ok &= _check("curl flux unidirectional",
                 np.abs(c * c.T).max(initial=0.0) <= 1e-24)
    div = np.abs(c.sum(axis=0) - c.sum(axis=1)).max()
    ok &= _check("curl flux divergence free", div <= 1e-11, "%.2e" % div)
    rec = np.abs(reconstruct_flux(decomp.loops, d) - c).max()
    ok &= _check("loops reconstruct the flux", rec <= 1e-11, "%.2e" % rec)
    sv = np.abs(split.s_d + split.v_ss + 1.0).max()
    ok &= _check("split operators sum to -1", sv <= 1e-11, "%.2e" % sv)
    balanced, violation = is_detailed_balanced(l_matrix, pops)
    print("%-42s %s (max violation %.3e)"
          % ("detailed balance", "yes" if balanced else "no", violation))
    if not ok:
        raise ValueError("validation failed")
    print("all checks passed for model with states %s" % (tuple(_labels(config)),))


def build_parser():
    parser = argparse.ArgumentParser(
        prog="curlflux",
        description="Steady-state curl-flux decomposition and linear "
                    "response spectra of dissipative quantum models",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, doc in (
        ("spectrum", cmd_spectrum, "compute response spectra over the sweep"),
        ("flux", cmd_flux, "write the steady-state flux report"),
        ("fdr-check", cmd_fdr_check,
         "compare dissipation and fluctuation sides at equilibrium"),
        ("validate", cmd_validate, "run the model invariant suite"),
    ):
        p = sub.add_parser(name, help=doc)
        p.add_argument("--config", required=True, help="YAML run file")
        p.add_argument("--out", default=None,
                       help="output directory (overrides the config)")
        p.add_argument("--strict-paper-rates", type=_bool_flag, default=True,
                       metavar="BOOL",
                       help="keep the crossed coherence decay pairing "
                            "(default true); false swaps it")
        p.set_defaults(func=fn)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    try:
        args.func(config, args)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    except NUMERICAL_ERRORS as exc:
        print("numerical error: %s" % exc, file=sys.stderr)
        return EXIT_NUMERICAL
    return 0


if __name__ == "__main__":
    sys.exit(main())
