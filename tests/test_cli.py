import importlib.util
import json
import os
import subprocess
import sys
from decimal import Decimal
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import curlflux
from curlflux import cli, config, liouville, reduction, response
from curlflux.cli import main
from curlflux.flux import reconstruct_flux
from curlflux.reduction import analyze
from curlflux.response import FdrReport, ResolventSingularError

from helpers import fluctuation_spectrum, generator_of, thermal_two_level


def bundled(name):
    return str(resources.files("curlflux") / "configs" / name)


def fresh_env():
    """Environment for a fresh interpreter that imports this curlflux."""
    src = str(Path(curlflux.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def read(path):
    with open(path) as fh:
        return fh.read()


def test_spectrum_writes_one_csv_per_sweep_point(tmp_path):
    out = tmp_path / "out"
    assert main(["spectrum", "--config", bundled("fig2a.yaml"),
                 "--out", str(out)]) == 0
    files = sorted(p.name for p in out.iterdir())
    assert files == [
        "fig2a_dmu0.1.csv",
        "fig2a_dmu0.2.csv",
        "fig2a_dmu0.3.csv",
        "fig2a_dmu0.csv",
        "fig2a_mu1_0.5.csv",
    ]
    header, first = read(out / "fig2a_dmu0.3.csv").split("\n")[:2]
    assert header == "omega,re_full,im_full,im_eq,im_ne"
    assert len(first.split(",")) == 5
    # 1201 grid points plus header and trailing newline
    assert read(out / "fig2a_dmu0.3.csv").count("\n") == 1202


def test_spectrum_reruns_are_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["spectrum", "--config", bundled("fig2a.yaml"), "--out", str(out1)]) == 0
    assert main(["spectrum", "--config", bundled("fig2a.yaml"), "--out", str(out2)]) == 0
    for p in sorted(out1.iterdir()):
        assert read(p) == read(out2 / p.name)


def test_empty_grid_is_a_config_error(tmp_path):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(
        "model:\n  type: junction\n  junction: {mu_1: 1.0, mu_2: 0.5}\n"
        "sweep:\n  omega: {values: []}\n"
    )
    assert main(["spectrum", "--config", str(cfg)]) == 2


def test_unknown_field_is_a_config_error(tmp_path):
    # coulomb_u was an inert junction field; a run file setting it now fails
    for field in ("typo", "coulomb_u"):
        cfg = tmp_path / ("%s.yaml" % field)
        cfg.write_text(
            "model:\n  type: junction\n"
            "  junction: {mu_1: 1.0, mu_2: 0.5, %s: 1}\n"
            "sweep:\n  omega: {min: 0.9, max: 1.1, points: 3}\n" % field
        )
        assert main(["spectrum", "--config", str(cfg)]) == 2


def test_per_electrode_gamma_is_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(
        "model:\n  type: junction\n"
        "  junction: {mu_1: 1.0, mu_2: 0.5, gamma_1: 0.02, gamma_2: 0.03}\n"
        "sweep:\n  omega: {min: 0.9, max: 1.1, points: 3}\n"
    )
    assert main(["spectrum", "--config", str(cfg)]) == 2
    assert "common 'gamma'" in capsys.readouterr().err


GENERIC = ("model:\n  type: generic\n  generic:\n    levels: {a: 0.0, b: 1.0}\n"
           "    channels:\n      - {upper: b, lower: a, rate_up: 0.01, rate_down: 0.02}\n")
OMEGA = "sweep:\n  omega: {min: 0.9, max: 1.1, points: 3}\n"
# a second channel, to follow GENERIC's
CHANNEL = "      - {upper: b, lower: a, rate_up: 0.01, rate_down: 0.02}\n"
JUNCTION = "model:\n  type: junction\n  junction: {mu_1: 1.0, mu_2: 0.5}\n"

# schema rules, each with a phrase of the message that names it
REFUSALS = {
    "no-sweep": (GENERIC, "missing required field '<top>.sweep'"),
    "nan-level": (GENERIC.replace("b: 1.0", "b: .nan") + OMEGA, "must be finite"),
    "inf-level": (GENERIC.replace("b: 1.0", "b: .inf") + OMEGA, "must be finite"),
    "top-level-list": ("- " + OMEGA, "top level of the config must be a mapping"),
    "junction-without-mu-2": (JUNCTION.replace(", mu_2: 0.5", "") + OMEGA,
                              "requires mu_1 and mu_2"),
    "zero-gamma": (JUNCTION.replace("mu_2: 0.5", "mu_2: 0.5, gamma: 0.0") + OMEGA,
                   "gamma must be positive"),
    "omega-order": (JUNCTION.replace("mu_2: 0.5", "mu_2: 0.5, omega_1: 0.9") + OMEGA,
                    "omega_1 > omega_2 violated"),
    "empty-levels": (GENERIC.replace("{a: 0.0, b: 1.0}", "{}") + OMEGA,
                     "non-empty mapping"),
    "self-channel": (GENERIC.replace("upper: b", "upper: a") + OMEGA,
                     "upper and lower must differ"),
    "unknown-type": (GENERIC.replace("type: generic", "type: ladder") + OMEGA,
                     "must be 'junction' or 'generic'"),
    "unknown-bias-mode": (JUNCTION + OMEGA + "  bias: {mode: sweep}\n",
                          "must be 'symmetric' or 'fixed'"),
    "unpaired-extra-pair": (JUNCTION + OMEGA + "  bias:\n    extra_pairs: [1.0]\n",
                            "entries must be pairs"),
    "empty-int-tag": (GENERIC.replace("b: 1.0", "b: !!int ''") + OMEGA,
                      "cannot read '' as !!int (line 4)"),
    "empty-float-tag": (GENERIC.replace("b: 1.0", "b: !!float ''") + OMEGA,
                        "cannot read '' as !!float (line 4)"),
    "not-utf-8": ((GENERIC + OMEGA).encode().replace(b"b: 1.0", b"b\xff: 1.0"),
                  "malformed YAML: 'utf-8' codec can't decode byte 0xff"),
    # YAML beyond plain scalars, lists and mappings
    "alias": (GENERIC.replace("rate_up: 0.01", "rate_up: &r 0.01")
              .replace("rate_down: 0.02", "rate_down: *r") + OMEGA,
              "an alias of the node anchored at line 6"),
    "merge-key": (GENERIC + "sweep:\n  omega:\n    <<: {min: 0.9, max: 1.1}\n"
                  "    points: 3\n", "tag !!merge on '<<' (line 9)"),
    "binary-tag": (GENERIC.replace("b: 1.0", "b: !!binary AAAA") + OMEGA,
                   "tag !!binary on 'AAAA' (line 4)"),
    "collection-key": (GENERIC.replace("b: 1.0}", "b: 1.0, [c]: 2.0}") + OMEGA,
                       "a collection as a mapping key (line 4)"),
    "deep-nesting": (GENERIC + OMEGA + "output: %s%s\n" % ("[" * 3000, "]" * 3000),
                     "nesting deeper than the recursion limit"),
    # each channel-level refusal, whole, on the second channel
    "channel-missing-rate-down": (
        GENERIC + CHANNEL.replace(", rate_down: 0.02", "") + OMEGA,
        "config error: missing required field "
        "'model.generic.channels[1].rate_down'\n"),
    "channel-unknown-key": (
        GENERIC + CHANNEL.replace("}", ", rate: 0.1}") + OMEGA,
        "config error: unknown field(s) ['rate'] in "
        "'model.generic.channels[1]'\n"),
    "channel-not-a-mapping": (
        GENERIC + "      - [b, a]\n" + OMEGA,
        "config error: 'model.generic.channels[1]' must be a mapping, "
        "got ['b', 'a']\n"),
    "channel-list-label": (
        GENERIC + CHANNEL.replace("upper: b", "upper: [b]") + OMEGA,
        "config error: model.generic.channels[1]: ['b'] names no level\n"),
    "channel-number-label": (
        GENERIC + CHANNEL.replace("lower: a", "lower: 2") + OMEGA,
        "config error: model.generic.channels[1]: 2 names no level\n"),
    "channel-word-rate": (
        GENERIC + CHANNEL.replace("rate_up: 0.01", "rate_up: abc") + OMEGA,
        "config error: field 'model.generic.channels[1].rate_up' must be a "
        "number, got 'abc'\n"),
    "channel-missing-upper": (
        GENERIC + CHANNEL.replace("upper: b, ", "") + OMEGA,
        "config error: missing required field "
        "'model.generic.channels[1].upper'\n"),
    "channel-missing-lower": (
        GENERIC + CHANNEL.replace("lower: a, ", "") + OMEGA,
        "config error: missing required field "
        "'model.generic.channels[1].lower'\n"),
    "channel-missing-rate-up": (
        GENERIC + CHANNEL.replace("rate_up: 0.01, ", "") + OMEGA,
        "config error: missing required field "
        "'model.generic.channels[1].rate_up'\n"),
    # the upper end is reported when neither names a level
    "channel-two-unknown-labels": (
        GENERIC + CHANNEL.replace("upper: b", "upper: x")
        .replace("lower: a", "lower: y") + OMEGA,
        "config error: model.generic.channels[1]: 'x' names no level\n"),
    "channel-null-label": (
        GENERIC + CHANNEL.replace("lower: a", "lower: null") + OMEGA,
        "config error: model.generic.channels[1]: None names no level\n"),
    "channel-null-rate": (
        GENERIC + CHANNEL.replace("rate_up: 0.01", "rate_up: null") + OMEGA,
        "config error: field 'model.generic.channels[1].rate_up' must be a "
        "number, got None\n"),
    "channel-boolean-rate": (
        GENERIC + CHANNEL.replace("rate_up: 0.01", "rate_up: true") + OMEGA,
        "config error: field 'model.generic.channels[1].rate_up' must be a "
        "number, got True\n"),
    "channel-inf-rate": (
        GENERIC + CHANNEL.replace("rate_up: 0.01", "rate_up: .inf") + OMEGA,
        "config error: field 'model.generic.channels[1].rate_up' must be "
        "finite\n"),
    "channel-nan-rate": (
        GENERIC + CHANNEL.replace("rate_down: 0.02", "rate_down: .nan") + OMEGA,
        "config error: field 'model.generic.channels[1].rate_down' must be "
        "finite\n"),
    # a string to YAML, which float() reads as inf
    "channel-overflowing-rate": (
        GENERIC + CHANNEL.replace("rate_up: 0.01", "rate_up: 1e400") + OMEGA,
        "config error: field 'model.generic.channels[1].rate_up' must be "
        "finite\n"),
    "channel-huge-integer-rate": (
        GENERIC + CHANNEL.replace("rate_up: 0.01", "rate_up: 1" + "0" * 399)
        + OMEGA,
        "config error: field 'model.generic.channels[1].rate_up' must be "
        "finite\n"),
    "channel-negative-rate": (
        GENERIC + CHANNEL.replace("rate_up: 0.01", "rate_up: -0.1") + OMEGA,
        "config error: model.generic.channels[1]: channel rates must be "
        "non-negative\n"),
    # by equality true, no and 1.0 would name the levels 1, 0 and 1
    "integer-level-keys": (
        "model:\n  type: generic\n  generic:\n"
        "    levels: {0: 0.0, 1: 1.0, 2: 1.7}\n    channels:\n"
        "      - {upper: true, lower: no, rate_up: 0.01, rate_down: 0.02}\n"
        "      - {upper: 2, lower: 1.0, rate_up: 0.03, rate_down: 0.01}\n"
        "      - {upper: 2, lower: 0, rate_up: 0.01, rate_down: 0.04}\n" + OMEGA,
        "config error: model.generic.levels: level key 0 is not a string\n"),
}


@pytest.mark.parametrize("text, message", [(text, "config error") for text in [
    GENERIC.replace("upper: b", "upper: zz") + OMEGA,
    GENERIC.replace("rate_up: 0.01", "rate_up: -0.1") + OMEGA,
    "model: 3\n" + OMEGA,
    GENERIC + OMEGA + "output:\n",
    GENERIC + OMEGA + "numerics:\n",
    GENERIC + OMEGA.replace("points: 3", "points: true"),
    GENERIC.split("    channels:")[0] + "    channels: 3\n" + OMEGA,
    GENERIC + "sweep:\n  omega: {values: 0.5}\n",
    GENERIC.replace("rate_up: 0.01", "rate_up: true") + OMEGA,
    GENERIC + "    temperature: 0.3\n" + OMEGA + "numerics: {db_tol: -1.0}\n",
    JUNCTION + OMEGA + "  bias:\n    dmu: [0.12341, 0.12344]\n"
    "    extra_pairs: [[1.0, 0.5], [1.00001, 0.5]]\n",
    GENERIC + "sweep:\n  omega: {values: [0.9, 1.0], points: 3}\n",
    JUNCTION + OMEGA + "  bias:\n    mode: fixed\n    dmu: [0.1]\n",
    GENERIC.split("    channels:")[0] + OMEGA,
    GENERIC + "    temperature: 0\n" + OMEGA,
    GENERIC + "    temperature: -0.3\n" + OMEGA,
    GENERIC + OMEGA + "output: {prefix: null}\n",
    GENERIC + OMEGA + "output: {prefix: [a, b]}\n",
    GENERIC + OMEGA + "output: {prefix: 3}\n",
    GENERIC + OMEGA + "output: {directory: {x: 1}}\n",
    GENERIC.replace("b: 1.0", "b: 1" + "0" * 400) + OMEGA,
    GENERIC + "sweep:\n  omega: {values: [0.5, 1%s]}\n" % ("0" * 400),
    GENERIC + OMEGA.replace("points: 3", "points: 10000000000000000000000"),
    GENERIC + OMEGA.replace("points: 3", "points: %d" % (2**63 - 1)),
    GENERIC.replace("b: 1.0", "b: !!int abc") + OMEGA,
    GENERIC.replace("b: 1.0", "b: !!float abc") + OMEGA,
    GENERIC.replace("b: 1.0", "b: !!bool abc") + OMEGA,
    GENERIC.replace("b: 1.0", "b: !!timestamp abc") + OMEGA,
    GENERIC.replace("b: 1.0", "b: 1" + "0" * 4999) + OMEGA,
    GENERIC + OMEGA + "numerics: {epsilon: 0.1}\n",
]] + list(REFUSALS.values()), ids=[
        "unknown-level", "negative-rate", "model-not-mapping", "empty-output",
        "empty-numerics", "boolean-points", "channels-not-list", "values-not-list",
        "boolean-rate", "negative-db-tol", "colliding-tags", "values-and-points",
        "fixed-bias-with-dmu", "no-channels", "zero-temperature",
        "negative-temperature", "null-prefix", "list-prefix", "number-prefix",
        "mapping-directory", "huge-integer-level", "huge-integer-omega-value",
        "huge-points", "int64-max-points", "bad-int-tag", "bad-float-tag",
        "bad-bool-tag", "bad-timestamp-tag", "integer-past-digit-limit",
        "numerics-epsilon"] + list(REFUSALS))
def test_malformed_run_files_are_config_errors(tmp_path, capsys, text, message):
    cfg = tmp_path / "bad.yaml"
    (cfg.write_bytes if isinstance(text, bytes) else cfg.write_text)(text)
    assert main(["spectrum", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and message in err


@pytest.mark.parametrize("rate_up, rate_down, want", [
    ("1", "2", (1.0, 2.0)),
    ("0x10", "1_0.5", (16.0, 10.5)),
    ("-0.0", "0.0", (-0.0, 0.0)),
])
def test_rate_spellings_build_float_channels(tmp_path, rate_up, rate_down, want):
    cfg = tmp_path / "rates.yaml"
    cfg.write_text(GENERIC + CHANNEL.replace("0.01", rate_up)
                   .replace("0.02", rate_down) + OMEGA)
    ch = config.load_config(str(cfg)).model.channels[1]
    assert (ch.upper, ch.lower) == (1, 0)
    # repr tells -0.0 from 0.0 and an int from a float
    assert (repr(ch.rate_up), repr(ch.rate_down)) == tuple(map(repr, want))


def test_fdr_check_refuses_unequal_electrode_temperatures(tmp_path, capsys):
    cfg = tmp_path / "hot.yaml"
    cfg.write_text(JUNCTION.replace("mu_2: 0.5", "mu_2: 0.5, t_2: 0.4") + OMEGA)
    assert main(["fdr-check", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "fdr-check requires a thermal model" in capsys.readouterr().err


def test_unwritable_output_is_a_config_error(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(["flux", "--config", bundled("flux_fivelevel.yaml"),
                 "--out", str(blocker / "out")]) == 2
    assert "config error: cannot write" in capsys.readouterr().err


@pytest.mark.parametrize("name, labellings", [("flux_fivelevel.yaml", 1),
                                               ("fig2a.yaml", 5)])
def test_spectrum_labels_each_generator_once(tmp_path, monkeypatch, name, labellings):
    # one sector labelling per analysed generator: a generic run file has
    # one, the junction sweep one per bias point
    calls = []
    real = liouville.sector_labels

    def counted(n, rows, cols):
        calls.append(n)
        return real(n, rows, cols)

    for module in (liouville, reduction, response):
        if getattr(module, "sector_labels", None) is real:
            monkeypatch.setattr(module, "sector_labels", counted)
    assert main(["spectrum", "--config", bundled(name), "--out", str(tmp_path)]) == 0
    assert len(calls) == labellings


def test_flux_report_junction(tmp_path):
    out = tmp_path / "out"
    assert main(["flux", "--config", bundled("fig2a.yaml"), "--out", str(out)]) == 0
    data = json.loads(read(out / "fig2a_flux.json"))
    assert data["states"] == ["g", "e1", "e2"]
    # the driven junction's one stationary coherence
    assert [entry["pair"] for entry in data["coherences"]] == [["e1", "e2"]]
    assert data["detailed_balance"] is False


def test_flux_report_five_level_loops_reconstruct(tmp_path):
    out = tmp_path / "out"
    assert main(["flux", "--config", bundled("flux_fivelevel.yaml"),
                 "--out", str(out)]) == 0
    data = json.loads(read(out / "flux5_flux.json"))
    c = np.array(data["curl_flux"])
    label_index = {lab: i for i, lab in enumerate(data["states"])}
    loops = [
        (tuple(label_index[lab] for lab in entry["cycle"]), entry["weight"])
        for entry in data["loops"]
    ]
    assert np.abs(reconstruct_flux(loops, c.shape[0]) - c).max() < 1e-12
    assert np.allclose(np.array(data["s_d"]) + np.array(data["v_ss"]), -1.0,
                       atol=1e-11)


def test_flux_report_balanced_junction(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["flux", "--config", bundled("junction_balanced.yaml"),
                 "--out", str(out)]) == 0
    data = json.loads(read(out / "junction_balanced_flux.json"))
    assert data["detailed_balance"] is True
    # rho_e1e2 is exactly 0 at balance, and so is the e1 -> e2 loop flux
    assert data["coherences"] == []
    assert data["curl_flux"][1][2] == 0.0
    assert data["loops"] == []
    assert "detailed balance: True" in capsys.readouterr().out


def test_the_kind_comes_from_model_type_not_from_the_labels(tmp_path):
    # a generic model with the junction's level names stays generic
    cfg = tmp_path / "gee.yaml"
    cfg.write_text(
        "model:\n  type: generic\n  generic:\n"
        "    levels: {g: 0.0, e1: 1.06, e2: 0.94}\n    channels:\n"
        "      - {upper: e1, lower: g, rate_up: 0.01, rate_down: 0.02}\n"
        "      - {upper: e2, lower: g, rate_up: 0.005, rate_down: 0.02}\n"
        "sweep:\n  omega: {min: 0.85, max: 1.15, points: 31}\n"
        "output: {directory: out, prefix: gee}\n")
    out = tmp_path / "out"
    for command in ("spectrum", "flux", "validate"):
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["flux", "--config", bundled("fig2a.yaml"), "--out",
                 str(out)]) == 0
    rows = read(out / "gee_spectrum.csv").strip().split("\n")[1:]
    assert len(rows) == 31
    assert all(row.split(",")[3:] == ["0", "0"] for row in rows)
    report = json.loads(read(out / "gee_flux.json"))
    assert report["states"] == ["g", "e1", "e2"]
    # one report schema for every model
    assert set(report) == set(json.loads(read(out / "fig2a_flux.json")))
    assert report["coherences"] == []


def test_fdr_check_thermal_two_level(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["fdr-check", "--config", bundled("fdr_twolevel.yaml"),
                 "--out", str(out)]) == 0
    lines = read(out / "fdr_twolevel_fdr.csv").strip().split("\n")
    assert lines[0] == "omega,lhs,re_rhs,im_rhs,residual"
    assert len(lines) == 202
    assert "max residual" in capsys.readouterr().out


def test_fdr_csv_bytes_match_per_row_formatter(tmp_path, monkeypatch):
    omega = np.array([-0.0, 0.5, 1e-300, 2.0 / 3.0])
    report = FdrReport(
        omega=omega,
        lhs=np.array([0.0, -0.0, -1.5e-17, np.pi]),
        rhs=np.array([-0.0 - 0.0j, 1.0 - 0.0j, 0.1 + 1e17j, -2.5 + np.e * 1j]),
        residual=np.array([0.0, 1.0, 0.1, 7.0 / 3.0]),
        max_residual=7.0 / 3.0,
    )
    monkeypatch.setattr(cli, "check_equilibrium_fdr", lambda *args, **kw: report)
    assert main(["fdr-check", "--config", bundled("fdr_twolevel.yaml"),
                 "--out", str(tmp_path)]) == 0
    lines = ["omega,lhs,re_rhs,im_rhs,residual"]
    for w, lhs, rhs, res in zip(report.omega, report.lhs, report.rhs,
                                report.residual):
        lines.append("%.17g,%.17g,%.17g,%.17g,%.17g"
                     % (w, lhs, rhs.real, rhs.imag, res))
    expected = "\n".join(lines) + "\n"
    assert "-0," in expected
    assert (tmp_path / "fdr_twolevel_fdr.csv").read_bytes() == expected.encode()


def per_value_csv(*columns):
    """The oracle: the CSV text of float columns, '%.17g' % v one value at
    a time."""
    rows = zip(*(np.asarray(c, dtype=float).tolist() for c in columns))
    return "h\n" + "".join(",".join("%.17g" % v for v in row) + "\n"
                           for row in rows)


def writer_csv(*columns):
    """The same text through the CLI's writer, the first column shared as
    a sweep's frequency column is."""
    columns = [np.asarray(c, dtype=float) for c in columns]
    return cli._csv("h", cli._format_column(columns[0]), *columns[1:])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True,
                          allow_subnormal=True), min_size=1, max_size=40))
def test_the_csv_writer_matches_the_per_value_formatter(values):
    column = np.array(values)
    assert writer_csv(column, column[::-1]) == per_value_csv(column,
                                                            column[::-1])


def _powers_of_ten():
    """Each double nearest 10**e, e = -300..300, and both its neighbours."""
    powers = np.array([float("1e%d" % e) for e in range(-300, 301)])
    return np.concatenate([np.nextafter(powers, 0.0), powers,
                           np.nextafter(powers, np.inf)])


# the layout edges: k = -5 and -4 (the last exponent form and the first
# fixed one, with the prefixes 0.000 to 0.), k = 16 and 17, and values
# whose trailing zeros reach the point or stop short of it
LAYOUT_EDGES = [1.5e-5, 9.99e-5, 1e-4, 1.5e-4, 1.2e-3, 0.012, 1.0, 100.0,
                123456.0, 1.5e16, 9.99e16, 1e16, 12345678901234568.0, 1.5e17,
                1e17, 1.2345678901234567e-5, 0.00012345678901234567,
                2.5e-280, 9e279]
# exact ties of the 17-digit rounding and a value that is not one
TIES = [1234567890123456.75, -1234567890123456.25, 0.5]
# nan, the infinities, zeros, subnormals and the edges of (1e-280, 1e280)
SPECIALS = [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324,
            2.2250738585072014e-308, 1e-280, 1e280, 1.7976931348623157e308]


def test_the_csv_writer_matches_the_formatter_on_every_branch(monkeypatch):
    values = np.concatenate([_powers_of_ten(), LAYOUT_EDGES, TIES, SPECIALS])
    values = np.concatenate([values, -values])
    # the list takes every branch: log10 gives some k a decade off, so
    # each writer call steps k once and then has no step left
    steps = []
    scale = cli._scale

    def recorded(*args):
        result = scale(*args)
        steps.append(bool(result[2].any()))
        return result

    monkeypatch.setattr(cli, "_scale", recorded)
    assert writer_csv(values, values) == per_value_csv(values, values)
    assert steps == [True, False] * 2
    # some powers of ten round up to 10**17 (the nearest double lies
    # below 10**e, within half a unit of the 17th digit)
    assert any(Decimal(float("1e%d" % e)) < Decimal(10) ** e
               and "%.17g" % float("1e%d" % e) == "1e%+03d" % e
               for e in range(-300, 301))
    # the first two ties are exact: y ends in .5
    for tie in TIES[:2]:
        y = abs(Decimal(tie)) * 10
        assert y % 1 == Decimal("0.5"), tie
    # one CSV whose columns mix all of the above
    mixed = np.random.default_rng(5).permutation(values)
    assert (writer_csv(mixed, values, mixed[::-1])
            == per_value_csv(mixed, values, mixed[::-1]))


def test_the_csv_tables_are_built_by_the_first_csv_alone(tmp_path):
    # import, flux and validate write no CSV, so a cold call of either
    # pays nothing for the writer's tables; spectrum builds them
    code = "\n".join([
        "import sys",
        "from curlflux import cli",
        "built = [cli._tables.cache_info().currsize]",
        "for command in ('flux', 'validate', 'spectrum'):",
        "    cli.main([command, '--config', sys.argv[2], '--out', sys.argv[1]])",
        "    built.append(cli._tables.cache_info().currsize)",
        "print(built)",
    ])
    out = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path),
         bundled("flux_fivelevel.yaml")],
        env=fresh_env(), check=True, capture_output=True, text=True).stdout
    assert out.strip().splitlines()[-1] == "[0, 0, 0, 1]"


# a thermal ladder whose a-c channel misses balance by a violation of
# 2.476e-10: driven by the one rule, so fdr-check refuses it as flux
# calls it unbalanced
NEAR_THERMAL_LADDER = (
    "model: {type: generic, generic: {temperature: 0.3,"
    " levels: {a: 0.0, b: 0.5, c: 1.0}, channels: ["
    "{upper: b, lower: a, rate_up: 0.0037775103, rate_down: 0.02},"
    " {upper: c, lower: b, rate_up: 0.0037775103, rate_down: 0.02},"
    " {upper: c, lower: a, rate_up: 0.000713479867, rate_down: 0.02}]}}\n"
    "sweep: {omega: {min: 0.4, max: 1.2, points: 5}}\n"
)


@pytest.mark.parametrize("text", [
    pytest.param(read(bundled("junction_equilibrium.yaml")),
                 id="junction_equilibrium"),
    pytest.param(NEAR_THERMAL_LADDER, id="near_thermal_ladder"),
])
def test_fdr_check_refuses_driven_junction(text, tmp_path, capsys):
    cfg = tmp_path / "driven.yaml"
    cfg.write_text(text)
    out = str(tmp_path / "out")
    assert main(["flux", "--config", str(cfg), "--out", out]) == 0
    assert "detailed balance: False" in capsys.readouterr().out
    assert main(["fdr-check", "--config", str(cfg), "--out", out]) == 3
    err = capsys.readouterr().err
    assert "not detailed balanced" in err and "violation" in err


# no uphill rate leaves e empty
COLD = ("model:\n  type: generic\n  generic:\n    temperature: 0.3\n"
        "    levels: {g: 0.0, e: 1.0}\n"
        "    channels:\n"
        "      - {upper: e, lower: g, rate_up: 0.0, rate_down: 0.02}\n"
        "sweep:\n  omega: {values: [0.5, 1.0]}\n"
        "output: {directory: out, prefix: cold}\n")


def test_unpopulated_level_fails_only_the_flux_commands(tmp_path, capsys):
    # the response needs no curl flux
    cfg = tmp_path / "cold.yaml"
    cfg.write_text(COLD)
    for command in ("spectrum", "fdr-check"):
        assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 0
    for command in ("flux", "validate"):
        assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 3
    assert "strictly positive" in capsys.readouterr().err


@pytest.mark.parametrize("command, name, builds", [
    ("flux", "fig2a.yaml", 1),
    ("validate", "fig2a.yaml", 1),
    # one flux record per bias point, whose s_d and v_ss split its spectrum
    ("spectrum", "fig2a.yaml", 5),
    # a generic spectrum is not split and fdr-check reads only the balance
    # verdict, so neither needs the record, which an empty level refuses
    ("spectrum", "flux_fivelevel.yaml", 0),
    ("spectrum", "cold", 0),
    ("fdr-check", "fdr_twolevel.yaml", 0),
    ("fdr-check", "cold", 0),
])
def test_each_command_builds_the_flux_record_only_where_it_reads_it(
        tmp_path, monkeypatch, command, name, builds):
    path = bundled(name)
    if name == "cold":
        path = tmp_path / "cold.yaml"
        path.write_text(COLD)
    calls = []
    real = reduction.curl_flux

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(reduction, "curl_flux", counted)
    assert main([command, "--config", str(path), "--out", str(tmp_path)]) == 0
    assert len(calls) == builds


@pytest.mark.parametrize("channels, spectrum_code, message", [
    # all population in a, or all in c: spectrum runs, the flux commands
    # refuse the empty levels
    ("[{upper: b, lower: a, rate_up: 0.0, rate_down: 0.02},"
     " {upper: c, lower: b, rate_up: 0.0, rate_down: 0.03}]",
     0, "strictly positive"),
    ("[{upper: b, lower: a, rate_up: 0.01, rate_down: 0.0},"
     " {upper: c, lower: b, rate_up: 0.02, rate_down: 0.0}]",
     0, "strictly positive"),
    # b empties into a and into c: two closed classes, refused everywhere
    ("[{upper: b, lower: a, rate_up: 0.0, rate_down: 0.02},"
     " {upper: c, lower: b, rate_up: 0.01, rate_down: 0.0}]",
     3, "non-unique steady state"),
], ids=["rate-up-0", "rate-down-0", "two-closed-classes"])
def test_irreversible_rate_graphs_keep_their_exit_codes(tmp_path, capsys,
                                                        channels,
                                                        spectrum_code, message):
    cfg = tmp_path / "edge.yaml"
    cfg.write_text(
        "model:\n  type: generic\n  generic:\n"
        "    levels: {a: 0.0, b: 1.0, c: 2.5}\n"
        "    channels: %s\n" % channels + OMEGA
    )
    out = str(tmp_path / "out")
    assert main(["spectrum", "--config", str(cfg), "--out", out]) == spectrum_code
    for command in ("flux", "validate"):
        assert main([command, "--config", str(cfg), "--out", out]) == 3
    assert message in capsys.readouterr().err


def test_disconnected_model_is_a_numerical_error(tmp_path, capsys):
    # level c has no channel: a stationary state of its own, which every
    # command refuses rather than picking one
    cfg = tmp_path / "split.yaml"
    cfg.write_text(
        "model:\n  type: generic\n  generic:\n    temperature: 0.3\n"
        "    levels: {a: 0.0, b: 1.0, c: 2.0}\n"
        "    channels:\n"
        "      - {upper: b, lower: a, rate_up: 0.01, rate_down: 0.02}\n"
        + OMEGA
    )
    for command in ("spectrum", "flux", "fdr-check", "validate"):
        assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 3
        assert "numerical error: non-unique steady state" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv")) + list(tmp_path.glob("*.json"))


def test_fdr_check_skips_zero_frequency(tmp_path):
    cfg = tmp_path / "fdr.yaml"
    cfg.write_text(
        "model:\n  type: generic\n  generic:\n    temperature: 0.3\n"
        "    levels: {g: 0.0, e: 1.0}\n"
        "    channels:\n"
        "      - {upper: e, lower: g, rate_up: 0.00071347986694504791, rate_down: 0.02}\n"
        "sweep:\n  omega: {values: [0.0, 0.5, 1.0]}\n"
        "output: {directory: out, prefix: fdr}\n"
    )
    out = tmp_path / "out"
    with pytest.warns(UserWarning, match="omega = 0"):
        assert main(["fdr-check", "--config", str(cfg), "--out", str(out)]) == 0
    lines = read(out / "fdr_fdr.csv").strip().split("\n")
    assert len(lines) == 3  # header + two surviving points
    assert lines[1].split(",")[0] == "0.5"


def test_fdr_check_refuses_a_grid_of_only_zero_frequency(tmp_path, capsys):
    # a thermal model whose every grid point would be skipped, leaving
    # nothing to compare
    cfg = tmp_path / "fdr.yaml"
    cfg.write_text(
        "model:\n  type: generic\n  generic:\n    temperature: 0.3\n"
        "    levels: {g: 0.0, e: 1.0}\n"
        "    channels:\n"
        "      - {upper: e, lower: g, rate_up: 0.00071347986694504791, rate_down: 0.02}\n"
        "sweep:\n  omega: {values: [0.0]}\n"
    )
    out = tmp_path / "out"
    assert main(["fdr-check", "--config", str(cfg), "--out", str(out)]) == 2
    assert "non-zero frequency" in capsys.readouterr().err
    assert not out.exists()


def test_spectrum_at_zero_frequency_is_the_static_response(tmp_path):
    # omega = 0 sits on the stationary mode, which the commutator source
    # V_- rho does not excite (<<1|V_- rho>> = 0), so R(0) is the static limit
    text = read(bundled("fdr_twolevel.yaml"))
    grid = "{min: 0.5, max: 1.5, points: 201}"
    assert grid in text
    cfg = tmp_path / "zero.yaml"
    cfg.write_text(text.replace(grid, "{values: [0.0, 1.0e-9, 0.5]}"))
    out = tmp_path / "out"
    assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 0
    rows = read(out / "fdr_twolevel_spectrum.csv").strip().split("\n")[1:]
    r_0, r_tiny = (complex(*map(float, row.split(",")[1:3])) for row in rows[:2])
    assert abs(r_0 - r_tiny) <= 1e-9 * abs(r_tiny)
    # the fluctuation source V_L rho does excite it: still a pole
    analysis = analyze(generator_of(thermal_two_level()[0]))
    with pytest.raises(ResolventSingularError, match="eigenvalue"):
        fluctuation_spectrum(np.eye(2), analysis, [0.0])


def test_spectrum_split_columns_sum_to_full(tmp_path):
    out = tmp_path / "out"
    assert main(["spectrum", "--config", bundled("fig2a.yaml"),
                 "--out", str(out)]) == 0
    data = np.loadtxt(out / "fig2a_dmu0.3.csv", delimiter=",", skiprows=1)
    im_full, im_eq, im_ne = data[:, 2], data[:, 3], data[:, 4]
    assert np.abs(im_full - (im_eq + im_ne)).max() <= 1e-9 * np.abs(im_full).max()


def test_bias_sweep_rejected_for_generic_model(tmp_path):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(
        "model:\n  type: generic\n  generic:\n    levels: {a: 0.0, b: 1.0}\n"
        "    channels:\n      - {upper: b, lower: a, rate_up: 0.01, rate_down: 0.02}\n"
        "sweep:\n  omega: {min: 0.9, max: 1.1, points: 3}\n"
        "  bias: {mode: symmetric, dmu: [0.1]}\n"
    )
    assert main(["spectrum", "--config", str(cfg)]) == 2


def test_flux_verdict_is_the_same_on_stdout_and_in_the_report(tmp_path, capsys):
    # one rate off balance by 3e-12: max |t - t^T| = 3.3e-13, above the
    # 1e-14 loop clamp and below the 1e-12 balance tolerance
    cfg = tmp_path / "near.yaml"
    cfg.write_text(
        "model:\n  type: generic\n  generic:\n"
        "    levels: {a: 0.0, b: 0.5, c: 1.2}\n"
        "    channels:\n"
        "      - {upper: b, lower: a, rate_up: 0.020000000003, rate_down: 0.02}\n"
        "      - {upper: c, lower: b, rate_up: 0.02, rate_down: 0.02}\n"
        "      - {upper: c, lower: a, rate_up: 0.02, rate_down: 0.02}\n"
        "sweep:\n  omega: {values: [0.5]}\n"
        "output: {directory: out, prefix: near}\n"
    )
    assert main(["flux", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    data = json.loads(read(tmp_path / "near_flux.json"))
    assert 1e-14 < data["max_violation"] <= 1e-12
    assert max(max(row) for row in data["curl_flux"]) > 1e-14
    assert data["detailed_balance"] is True
    assert "detailed balance: True" in capsys.readouterr().out



def test_flux_writes_and_prints_the_verdict_of_one_balance_check(tmp_path,
                                                                capsys,
                                                                monkeypatch):
    calls = []

    def verdict(l_matrix, populations):
        calls.append(l_matrix)
        return False, 0.125

    monkeypatch.setattr(cli, "is_detailed_balanced", verdict)
    assert main(["flux", "--config", bundled("junction_balanced.yaml"),
                 "--out", str(tmp_path)]) == 0
    assert len(calls) == 1
    data = json.loads(read(tmp_path / "junction_balanced_flux.json"))
    assert data["detailed_balance"] is False
    assert data["max_violation"] == 0.125
    assert ("detailed balance: False (max violation 1.250000e-01)"
            in capsys.readouterr().out)


def _bench_tracer():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_tracer_times_both_renderers(tmp_path, capsys):
    # the bench's render.csv_s and render.json_s are the spans of the two
    # public renderers, which its tracer finds by name in the modules it
    # traces; a renderer it cannot see would read as 0 there
    tracer = _bench_tracer().Tracer().install()
    try:
        assert cli.main(["spectrum", "--config", bundled("fig2a.yaml"),
                         "--out", str(tmp_path)]) == 0
        assert cli.main(["flux", "--config", bundled("flux_fivelevel.yaml"),
                         "--out", str(tmp_path)]) == 0
    finally:
        tracer.uninstall()
    render_s = tracer.totals()["render_s"]
    assert render_s.get("render.csv_s", 0.0) > 0.0
    assert render_s.get("render.json_s", 0.0) > 0.0

def ladder_run_file(path, dim, seed=0):
    """Generic run file of a driven ladder: nearest-neighbour channels
    plus skips over every other level, rates log-uniform in [0.002, 0.05]."""
    rng = np.random.default_rng(seed)
    energies = np.concatenate([[0.0], np.cumsum(rng.uniform(0.2, 0.8, dim - 1))])
    pairs = ([(k + 1, k) for k in range(dim - 1)]
             + [(k + 2, k) for k in range(0, dim - 2, 2)])
    rates = 0.002 * 25.0 ** rng.random((len(pairs), 2))
    doc = {
        "model": {"type": "generic", "generic": {
            "levels": {"s%d" % k: float(e) for k, e in enumerate(energies)},
            "channels": [{"upper": "s%d" % u, "lower": "s%d" % l,
                          "rate_up": float(up), "rate_down": float(down)}
                         for (u, l), (up, down) in zip(pairs, rates)],
        }},
        "sweep": {"omega": {"values": [0.5]}},
        "output": {"directory": "out", "prefix": "ladder"},
    }
    path.write_text(yaml.safe_dump(doc))
    return str(path)


def test_flux_and_validate_run_no_dense_generator_stage(tmp_path, monkeypatch):
    # no eigendecomposition of a d**2 x d**2 matrix and no Kronecker
    # product anywhere on the way, only per-sector blocks; the coherences
    # are 1 x 1 sectors and the steady state comes from the rate block by
    # state reduction, so no command takes an eigendecomposition at all
    dim = 16
    cfg = ladder_run_file(tmp_path / "ladder.yaml", dim)
    calls, krons = [], []
    for name in ("eig", "eigvals"):
        real = getattr(np.linalg, name)

        def watched(a, _real=real, _name=name):
            calls.append((_name, np.shape(a)[-1]))
            return _real(a)

        monkeypatch.setattr(np.linalg, name, watched)
    real_kron = np.kron

    def watched_kron(a, b):
        krons.append((np.shape(a), np.shape(b)))
        return real_kron(a, b)

    monkeypatch.setattr(np, "kron", watched_kron)
    for command in ("validate", "flux"):
        calls.clear()
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 0
        assert calls == []
    assert krons == []


JUNCTION_POINT = [("eig", (2, 2, 2)), ("eigvals", (2, 2))]


@pytest.mark.parametrize("command, name, expected", [
    # per bias point: the two 2 x 2 coherence sectors, which the coherence
    # check and the spectrum read, and the coherences that share the 5 x 5
    # sector of the populations, which is never diagonalized
    ("spectrum", "fig2a.yaml", JUNCTION_POINT * 5),
    # the coherences are 1 x 1 sectors and the rate block is never
    # diagonalized
    ("spectrum", "flux_fivelevel.yaml", []),
    ("flux", "flux_fivelevel.yaml", []),
    ("validate", "flux_fivelevel.yaml", []),
])
def test_each_generator_sector_is_diagonalized_once(tmp_path, monkeypatch,
                                                    command, name, expected):
    calls = []
    for fn in ("eig", "eigvals"):
        real = getattr(np.linalg, fn)

        def watched(a, _real=real, _fn=fn):
            calls.append((_fn, np.shape(a)))
            return _real(a)

        monkeypatch.setattr(np.linalg, fn, watched)
    assert main([command, "--config", bundled(name), "--out", str(tmp_path)]) == 0
    assert calls == expected


def test_validate_junction_config(capsys):
    assert main(["validate", "--config", bundled("fig2a.yaml")]) == 0
    out = capsys.readouterr().out
    assert out.endswith("\nall checks passed for the junction model with "
                        "3 states\n")
    assert "FAIL" not in out


def test_validate_generic_config(capsys):
    assert main(["validate", "--config", bundled("flux_fivelevel.yaml")]) == 0
    assert capsys.readouterr().out.endswith(
        "\nall checks passed for the generic model with 5 states\n")


def test_the_parser_is_built_once_and_calls_the_current_command(capsys,
                                                                 monkeypatch):
    assert cli.build_parser() is cli.build_parser()
    calls = []
    monkeypatch.setattr(cli, "cmd_validate",
                        lambda config, args: calls.append(args.config))
    path = bundled("flux_fivelevel.yaml")
    assert main(["validate", "--config", path]) == 0
    assert calls == [path]
    assert "all checks passed" not in capsys.readouterr().out


def test_commands_in_one_process_write_what_fresh_interpreters_write(tmp_path,
                                                                     capsys):
    env = fresh_env()
    calls = [("spectrum", "fdr_twolevel.yaml"), ("flux", "flux_fivelevel.yaml"),
             ("fdr-check", "fdr_twolevel.yaml")]
    fresh, warm = tmp_path / "fresh", tmp_path / "warm"
    for command, name in calls:
        argv = [command, "--config", bundled(name)]
        cold = subprocess.run(
            [sys.executable, "-m", "curlflux.cli", *argv, "--out", str(fresh)],
            env=env, capture_output=True, text=True)
        assert main(argv + ["--out", str(warm)]) == cold.returncode == 0
        out = capsys.readouterr()
        assert out.out.replace(str(warm), "OUT") == cold.stdout.replace(str(fresh), "OUT")
        assert out.err == cold.stderr == ""
    names = sorted(p.name for p in fresh.iterdir())
    assert names == sorted(p.name for p in warm.iterdir()) and len(names) == 3
    for name in names:
        assert (warm / name).read_bytes() == (fresh / name).read_bytes()


def test_missing_config_file_is_config_error():
    assert main(["spectrum", "--config", "/nonexistent/nope.yaml"]) == 2


def test_two_model_sections_are_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(
        "model:\n  type: junction\n  junction: {mu_1: 1.0, mu_2: 0.5}\n"
        "  generic:\n    levels: {a: 0.0, b: 1.0}\n    channels: []\n"
        "sweep:\n  omega: {min: 0.9, max: 1.1, points: 3}\n"
    )
    assert main(["spectrum", "--config", str(cfg)]) == 2
    assert "exactly one model section" in capsys.readouterr().err


def test_cli_import_does_not_load_scipy():
    # scipy is a test-only dependency, so a cold CLI call must not pay for
    # importing it
    env = fresh_env()
    code = ("import sys, curlflux.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_cli_spectrum_does_not_load_numpy_ma(tmp_path):
    # np.unique, np.isin and np.intersect1d import numpy.ma on first use,
    # a cost every cold CLI call would pay; the sector code avoids them
    env = fresh_env()
    code = ("import sys; from curlflux.cli import main; "
            "codes = [main(['spectrum', '--config', path, '--out', sys.argv[1]]) "
            "for path in sys.argv[2:]]; "
            "print(codes, 'numpy.ma' in sys.modules)")
    out = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path),
         bundled("fig2a.yaml"), bundled("flux_fivelevel.yaml")],
        env=env, check=True, capture_output=True, text=True).stdout
    assert out.strip().splitlines()[-1] == "[0, 0] False"


def test_bundled_run_files_parse_the_same_with_both_yaml_loaders():
    if not hasattr(yaml, "CSafeLoader"):
        pytest.skip("PyYAML built without libyaml")
    assert config.YAML_LOADER is yaml.CSafeLoader
    configs = resources.files("curlflux") / "configs"
    names = sorted(p.name for p in configs.iterdir() if p.name.endswith(".yaml"))
    assert len(names) == 7
    for name in names:
        text = (configs / name).read_text()
        assert (yaml.load(text, Loader=yaml.CSafeLoader)
                == yaml.load(text, Loader=yaml.SafeLoader)), name
