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
the configured :class:`~curlflux.config.Model`, or of each spectrum
point, and probes it through the model's own coupling; junction and
generic run files give the same record.  Only `spectrum` reads the run
file's `model.type` to choose what it computes: it splits the
junction's spectra alone (`validate` names the kind in its summary
line).  The flux report has the same keys for every model.

Several calls of :func:`main` in one interpreter share one parser, built
by the first; each looks up its ``cmd_<name>`` function when it runs.

This is the one module that turns numbers into text; the library
returns arrays and records.  Every CSV value is written as its '%.17g'
text, byte for byte, by one numpy writer that `spectrum` and
`fdr-check` share; a sweep's frequency column is formatted once and
shared by all of its CSVs.  The writer lays each value out as a
fixed-width cell of NUL-padded bytes, and one
``tobytes().translate(None, b"\\0")`` turns the rows x columns block of
cells into the text.  For a finite non-zero |x| in (1e-280, 1e280) it
takes k = floor(log10|x|) and forms y = |x| 10**(16 - k) as a
double-double: Dekker's exact product of |x| with the double nearest
10**(16 - k), plus |x| times that power's exactly rounded remainder.
For y in [1e16, 1e17] that sum is within 4e-15 of the exact product
(the power's remainder, the product with it and the sum each round
once, at 1.2e-15, 0.9e-15 and 1.8e-15 at most; the product with the
nearest double is exact), so rounding it to an integer N gives the
correctly rounded 17 digits (k stepped once where log10 was a decade
off, and N = 1e17 read as 1e16 a decade up) unless the fractional part
of y lies within that error of a half.  Every value whose fractional part
is within 1e-6 of 0.5, and nan, +-inf and every |x| outside the range,
is written by '%.17g' % x itself, the one other path; zeros are written
as "0" and "-0" directly.  The tables of the writer (the double-double
powers of ten, each computed from Python integers on first use, and the
digit chunks of 0..9999) are built by the first CSV, so a command that
writes none pays nothing for them.
The flux report's bytes equal ``json.dumps(report, indent=2,
sort_keys=True)``, and its balance verdict is the one
:func:`~curlflux.flux.is_detailed_balanced` gives the `flux` command,
which also prints it.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

import argparse
import functools
import os
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__
from .config import ConfigError, load_config
from .flux import STATIONARY_TOL, is_detailed_balanced, reconstruct_flux
from .liouville import build_generator, vectorize
from .reduction import analyze
from .response import (check_equilibrium_fdr, linear_response_freq,
                       response_split)

EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

# every numerical error of the library is one of these: the reduction's
# and the resolvent's subclass LinAlgError, NotDetailedBalancedError
# subclasses ValueError
NUMERICAL_ERRORS = (np.linalg.LinAlgError, ValueError)


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


# The CSV writer lays each value out as one cell of six 64-bit words,
# 48 bytes: word 0 holds the sign, a "0.000" prefix and the first digit
# with the point slot after it, words 1-4 the other 16 digits each with
# its slot, and word 5 the exponent in bytes 0-4 and the separator in
# byte 7; every unused byte is NUL.  The decimal exponents k of the exact
# path stay within [_K_MIN, _K_MAX], one step beyond 1e+-280 on each
# side, so no product below overflows or goes subnormal.
_K_MIN, _K_MAX = -282, 281
_SPLIT = 134217729.0            # 2**27 + 1, Dekker's splitter for doubles


def _words(texts):
    """The 64-bit words whose bytes are the NUL-padded `texts`."""
    data = "".join(text.ljust(8, "\0") for text in texts).encode()
    return np.frombuffer(data, np.uint64)


@functools.cache
def _tables():
    """The writer's tables, built by the first CSV so that no other
    command pays for them.

    powers
        Rows hi, hi's two Dekker halves and lo of the double-double
        10**(16 - k), one column per k; NaN until first used.
    heads, tails
        Word 0 without its digit, by sign (outer) and k, and word 5, by k.
    leads, chunks
        The digit word of 0..9 (bytes 6-7 of word 0) and of 0..9999
        (four digits, each followed by its point slot, held as ".").
    zeros
        The number of trailing zero digits of 0..9999 (4 for 0).
    forms
        Row 18 * j + p masks a cell to keep digits 0..j and, for p < 17,
        the point slot after digit p.
    """
    powers = np.full((4, _K_MAX - _K_MIN + 1), np.nan)
    k = np.arange(_K_MIN, _K_MAX + 1)
    # the prefix of k = -1..-4 is "0." and -k - 1 zeros
    prefixes = _words(sign + ("0." + "0" * (n - 1) if n else "")
                      for sign in ("", "-") for n in range(5))
    heads = prefixes.reshape(2, 5).take(np.where((k >= -4) & (k < 0), -k, 0),
                                        axis=1).ravel()
    tails = _words("" if -4 <= e <= 16 else "e%+03d" % e for e in k.tolist())
    leads = _words("\0" * 6 + "%d." % i for i in range(10))
    digits = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    chunks = np.full((10, 10, 10, 10, 8), ord("."), np.uint8)
    chunks[..., 0] = digits[:, None, None, None]
    chunks[..., 2] = digits[:, None, None]
    chunks[..., 4] = digits[:, None]
    chunks[..., 6] = digits
    zeros = np.zeros((10, 10, 10, 10), np.int8)
    zeros[..., 0] = 1
    zeros[..., 0, 0] = 2
    zeros[:, 0, 0, 0] = 3
    zeros[0, 0, 0, 0] = 4
    j, p = np.divmod(np.arange(17 * 18), 18)
    forms = np.full((17 * 18, 24, 2), 0xFF, np.uint8)
    forms[:, 3:20, 0] = 0xFF * (np.arange(17) <= j[:, None])
    forms[:, 3:20, 1] = 0xFF * (np.arange(17) == p[:, None])
    return (powers, heads, tails, leads, chunks.view(np.uint64).ravel(),
            zeros.ravel(), forms.reshape(17 * 18, 48).view(np.uint64))


def _fill_powers(powers, columns):
    """Write 10**(16 - k) as a double-double into each of `columns`,
    exactly rounded from Python integers."""
    for column in columns:
        m = 16 - (column + _K_MIN)
        num, den = (10 ** m, 1) if m >= 0 else (1, 10 ** -m)
        hi = num / den
        hi_num, hi_den = hi.as_integer_ratio()
        lo = (num * hi_den - hi_num * den) / (den * hi_den)
        head = _SPLIT * hi
        head -= head - hi
        powers[:, column] = hi, head, hi - head, lo


def _scale(a, a_head, a_tail, k, powers):
    """Round y = a * 10**(16 - k) to the nearest integer N.

    y is a double-double: Dekker's exact product of a with the power's
    hi part, plus a times its lo part, within 4e-15 of the exact
    product for y up to 1e17.  Returns N, the fractional part of y and
    the step of k that puts y in [1e16, 1e17 + 0.5): 0 where it is there
    already."""
    column = k - _K_MIN
    hi, b_head, b_tail, lo = powers.take(column, axis=1)
    if np.isnan(hi).any():
        _fill_powers(powers, set(column[np.isnan(hi)].tolist()))
        hi, b_head, b_tail, lo = powers.take(column, axis=1)
    p = a * hi
    t = ((((a_head * b_head - p) + a_head * b_tail) + a_tail * b_head)
         + a_tail * b_tail) + a * lo
    y_hi = p + t
    y_lo = t - (y_hi - p)
    whole = np.floor(y_lo)
    frac = y_lo - whole
    floor = y_hi.astype(np.int64) + whole.astype(np.int64)
    n = floor + (frac > 0.5)
    return n, frac, (n > 10 ** 17).view(np.int8) - (floor < 10 ** 16)


def _format_column(values):
    """The '%.17g' text of each float in `values`, flattened in C order,
    as one cell (a row of six 64-bit words) per value, the separator
    byte left NUL.  A sweep's frequency column is formatted once and
    shared by all its CSVs.

    A value takes the exact path of the module docstring, or '%.17g' % x
    where that path cannot decide its digits.
    """
    x = np.asarray(values, dtype=float).ravel()
    powers, heads, tails, leads, chunks, zeros, forms = _tables()
    a = np.abs(x)
    ok = (a > 1e-280) & (a < 1e280)
    zero = a == 0
    a = np.where(ok, a, 1.0)
    a_head = _SPLIT * a
    a_head -= a_head - a
    a_tail = a - a_head
    k = np.floor(np.log10(a)).astype(np.int64)
    n, frac, step = _scale(a, a_head, a_tail, k, powers)
    if step.any():
        k += step
        n, frac, step = _scale(a, a_head, a_tail, k, powers)
    top = n == 10 ** 17
    n[top] = 10 ** 16
    k += top
    n[zero] = 0
    k[zero] = 0
    slow = ~(ok | zero) | (step != 0) | (np.abs(frac - 0.5) < 1e-6)
    # the leading digit, then four chunks of four digits
    high = n // 10 ** 8
    low = n - high * 10 ** 8
    lead = high // 10 ** 8
    high -= lead * 10 ** 8
    quads = np.empty((4, x.size), np.int64)
    quads[0] = high // 10 ** 4
    quads[1] = high - quads[0] * 10 ** 4
    quads[2] = low // 10 ** 4
    quads[3] = low - quads[2] * 10 ** 4
    # the last non-zero digit, from the trailing zeros of the chunks
    trailing = zeros.take(quads)
    last = 16 - trailing[3]
    for i in (2, 1, 0):
        last -= (last == 4 * i + 4) * trailing[i]
    # fixed notation for -4 <= k <= 16, the point after digit k (k >= 0)
    fixed = (k >= -4) & (k <= 16)
    point = np.where(fixed, k, 0)
    dot = np.where((last > point) & (point >= 0), point, 17)
    column = k - _K_MIN
    cells = np.empty((x.size, 6), np.uint64)
    cells[:, 0] = (heads.take(np.signbit(x) * (_K_MAX - _K_MIN + 1) + column)
                   | leads.take(lead))
    cells[:, 1:5] = chunks.take(quads.T)
    cells[:, 5] = tails.take(column)
    cells &= forms.take(18 * np.maximum(last, point) + dot, axis=0)
    text = cells.view(np.uint8)
    for i in np.flatnonzero(slow).tolist():
        cell = ("%.17g" % x[i]).encode().ljust(47, b"\0")
        text[i, :47] = np.frombuffer(cell, np.uint8)
    return cells


def _csv(header, first, *columns):
    """CSV text: the header line, then one row per cell of `first`
    (already formatted, see :func:`_format_column`) followed by the
    matching entries of each float column at '%.17g'.

    The rows x columns block of cells becomes the text in one pass that
    drops its NUL bytes."""
    rows = _format_column(np.stack(columns, axis=1))
    rows = rows.reshape(-1, len(columns), 6)
    block = np.concatenate([first[:, None], rows], axis=1)
    separators = block.view(np.uint8)[:, :, -1]
    separators[:, :-1] = ord(",")
    separators[:, -1] = ord("\n")
    return header + "\n" + block.tobytes().translate(None, b"\0").decode()


def spectrum_to_csv(spectrum, omega_text):
    """Render a ResponseSpectrum as CSV text.

    Columns: omega, re_full, im_full, im_eq, im_ne (the split columns
    are written as 0 when the split was not computed).  `omega_text` is
    the :func:`_format_column` text of spectrum.omega.
    """
    zeros = np.zeros(spectrum.omega.size)
    eq = spectrum.r_eq_term.imag if spectrum.r_eq_term is not None else zeros
    ne = spectrum.r_ne_term.imag if spectrum.r_ne_term is not None else zeros
    return _csv("omega,re_full,im_full,im_eq,im_ne", omega_text,
                spectrum.r_full.real, spectrum.r_full.imag, eq, ne)


def render_flux_report(analysis, labels, verdict):
    """Serialize the flux record and steady state of an Analysis as a
    deterministic JSON document, with the same keys for every model.

    Parameters
    ----------
    analysis : Analysis
    labels : sequence of str
        State names, one per state, used for loops and coherences.
    verdict : (bool, float)
        The :func:`~curlflux.flux.is_detailed_balanced` pair, written as
        detailed_balance and max_violation.

    `coherences` lists each exactly non-zero rho_ss[n, m] with n < m, in
    row-major order, as its level pair and its real and imaginary parts.
    """
    labels = list(labels)
    balanced, violation = verdict
    decomposition = analysis.flux
    rho = analysis.rho_ss
    # the entries above the diagonal from the non-zero ones: no d x d
    # temporary, as np.triu would make
    rows, cols = np.nonzero(rho)
    upper = rows < cols
    rows, cols = rows[upper], cols[upper]
    # the matrices stay arrays: the writer formats them one row at a time
    report = {
        "states": labels,
        "populations": analysis.populations.tolist(),
        "coherences": [
            {"pair": [labels[n], labels[m]], "re": z.real, "im": z.imag}
            for n, m, z in zip(rows.tolist(), cols.tolist(),
                               rho[rows, cols].tolist())
        ],
        "t_rate": decomposition.t_rate,
        "curl_flux": decomposition.c,
        "symmetric_part": decomposition.sym,
        "loops": [
            {"cycle": [labels[i] for i in cyc], "weight": w}
            for cyc, w in decomposition.loops
        ],
        "s_d": decomposition.s_d.tolist(),
        "v_ss": decomposition.v_ss.tolist(),
        "detailed_balance": balanced,
        "max_violation": violation,
    }
    return _dumps(report)


# json's spelling of the float values that repr gives as nan and inf
_FLOAT_CONSTANTS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _dumps(value, pad="\n"):
    """json.dumps(value, indent=2, sort_keys=True), byte for byte, for
    what a flux report holds: non-empty dicts with string keys, lists,
    strings, floats and booleans, and a 2-D float array as its nested
    lists (json.dumps with default=numpy.ndarray.tolist); `pad` is the
    newline and indent of the enclosing level.

    A list of floats, the bulk of a flux report, is joined in one pass
    instead of going through the json module's Python-level encoder, and
    an array becomes Python floats one row at a time, so a matrix is
    never held as nested lists.
    """
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, float):
        text = float.__repr__(value)
        return _FLOAT_CONSTANTS.get(text, text)
    inner = pad + "  "
    if isinstance(value, np.ndarray):
        return _layout([_floats(row.tolist(), inner + "  ", inner)
                        for row in value], inner, pad)
    if isinstance(value, dict):
        items = [encode_basestring_ascii(key) + ": " + _dumps(item, inner)
                 for key, item in sorted(value.items())]
        return _layout(items, inner, pad, "{}")
    if isinstance(value, list):
        if not value:
            return "[]"
        try:
            return _floats(value, inner, pad)
        except TypeError:
            return _layout([_dumps(item, inner) for item in value], inner, pad)
    raise TypeError("Object of type %s is not JSON serializable"
                    % type(value).__name__)


def _floats(values, inner, pad):
    """The JSON array of a list of floats; TypeError if one is not a
    float."""
    text = _layout(list(map(float.__repr__, values)), inner, pad)
    # neither a finite float's repr nor the layout holds an "n"; nan, inf
    # and -inf do
    if "n" in text:
        text = _layout([_FLOAT_CONSTANTS.get(t, t)
                        for t in map(float.__repr__, values)], inner, pad)
    return text


def _layout(items, inner, pad, brackets="[]"):
    """The JSON array, or with `brackets` "{}" the object, of the
    encoded `items`, one per line.

    The brackets join the first and the last item in place, so the text
    is joined in one pass: its peak is the items plus the text."""
    items[0] = brackets[0] + inner + items[0]
    items[-1] += pad + brackets[1]
    return ("," + inner).join(items)


def _analyze(model):
    """The Analysis of a Model."""
    return analyze(build_generator(model.hamiltonian, model.channels))


def cmd_spectrum(config, args):
    # a point's CSV is written before the next point is built; only the
    # junction's spectra are split so far
    spectrum_of = (response_split if config.kind == "junction"
                   else linear_response_freq)
    omega_text = _format_column(config.omega_grid)
    for tag, model in config.points:
        spectrum = spectrum_of(model.coupling, _analyze(model),
                               config.omega_grid)
        _write(config, args, "_%s.csv" % tag,
               spectrum_to_csv(spectrum, omega_text))


def cmd_flux(config, args):
    analysis = _analyze(config.model)
    verdict = is_detailed_balanced(analysis.l_matrix, analysis.populations)
    _write(config, args, "_flux.json",
           render_flux_report(analysis, config.model.labels, verdict))
    print("detailed balance: %s (max violation %.6e)" % verdict)


def cmd_fdr_check(config, args):
    if config.temperature is None:
        raise ConfigError(
            "fdr-check requires a thermal model: equal electrode "
            "temperatures (junction) or model.generic.temperature"
        )
    if not config.omega_grid.any():
        raise ConfigError("fdr-check needs a non-zero frequency in sweep.omega")
    report = check_equilibrium_fdr(config.model.coupling,
                                   _analyze(config.model), config.temperature,
                                   config.omega_grid)
    _write(config, args, "_fdr.csv",
           _csv("omega,lhs,re_rhs,im_rhs,residual",
                _format_column(report.omega), report.lhs, report.rhs.real,
                report.rhs.imag, report.residual))
    print("max residual: %.6e" % report.max_residual)


def _check(name, ok, detail=""):
    print("%-42s %s %s" % (name, "PASS" if ok else "FAIL", detail))
    return ok


def cmd_validate(config, args):
    """Invariant suite over the configured model.

    The steady state is the lift diag(p) + K p of L's populations, so
    the residual ||M_s vec(rho)_s|| on M's own population block, the one
    sector it has entries in, checks p, K and L together.
    """
    ok = True
    analysis = _analyze(config.model)
    l_matrix = analysis.l_matrix
    decomp = analysis.flux
    rho, pops = analysis.rho_ss, analysis.populations
    d = pops.size
    # only the population sector has population rows
    idx, block = analysis.generator.population_sector
    drift = np.abs(block[:d].sum(axis=0)).max()
    ok &= _check("trace preservation <<1|M = 0", drift < 1e-12,
                 "max %.2e" % drift)
    residual = np.linalg.norm(block @ vectorize(rho)[idx])
    ok &= _check("steady state residual", residual <= 1e-10,
                 "%.2e" % residual)
    tr_err = abs(np.trace(rho).real - 1.0)
    ok &= _check("steady state trace", tr_err <= 1e-12, "%.2e" % tr_err)
    rel = np.abs((l_matrix @ pops) / (np.diagonal(l_matrix) * pops)).max()
    ok &= _check("relative stationarity", rel <= 1e-14, "%.2e" % rel)
    lp = np.abs(l_matrix @ pops).max()
    ok &= _check("reduced rates stationary on populations",
                 lp <= STATIONARY_TOL, "%.2e" % lp)
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
    sv = np.abs(decomp.s_d + decomp.v_ss + 1.0).max()
    ok &= _check("split operators sum to -1", sv <= 1e-11, "%.2e" % sv)
    balanced, violation = is_detailed_balanced(l_matrix, pops)
    print("%-42s %s (max violation %.3e)"
          % ("detailed balance", "yes" if balanced else "no", violation))
    if not ok:
        raise ValueError("validation failed")
    print("all checks passed for the %s model with %d states"
          % (config.kind, d))


@functools.cache
def build_parser():
    """The argument parser, built once per interpreter and shared by
    every caller, so none may change it.

    Each subcommand stores only its name; :func:`main` looks up the
    matching ``cmd_<name>`` in this module when it runs, so a replaced
    command function is the one called.
    """
    parser = argparse.ArgumentParser(
        prog="curlflux",
        description="Steady-state curl-flux decomposition and linear "
                    "response spectra of dissipative quantum models",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (
        ("spectrum", "compute response spectra over the sweep"),
        ("flux", "write the steady-state flux report"),
        ("fdr-check",
         "compare dissipation and fluctuation sides at equilibrium"),
        ("validate", "run the model invariant suite"),
    ):
        p = sub.add_parser(name, help=doc)
        p.add_argument("--config", required=True, help="YAML run file")
        p.add_argument("--out", default=None,
                       help="output directory (overrides the config)")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        globals()["cmd_" + args.command.replace("-", "_")](config, args)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    except NUMERICAL_ERRORS as exc:
        print("numerical error: %s" % exc, file=sys.stderr)
        return EXIT_NUMERICAL
    return 0


if __name__ == "__main__":
    sys.exit(main())
