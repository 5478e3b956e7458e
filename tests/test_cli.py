import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
import yaml

import curlflux
from curlflux import config, liouville, reduction, response
from curlflux.cli import main
from curlflux.flux import reconstruct_flux
from curlflux.reduction import analyze
from curlflux.response import ResolventSingularError, fluctuation_spectrum

from helpers import thermal_two_level


def bundled(name):
    return str(resources.files("curlflux") / "configs" / name)


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


@pytest.mark.parametrize("text", [
    GENERIC.replace("upper: b", "upper: zz") + OMEGA,
    GENERIC.replace("rate_up: 0.01", "rate_up: -0.1") + OMEGA,
    "model: 3\n" + OMEGA,
    GENERIC + OMEGA + "output:\n",
    GENERIC + OMEGA + "numerics:\n",
    GENERIC + OMEGA.replace("points: 3", "points: true"),
    GENERIC.split("    channels:")[0] + "    channels: 3\n" + OMEGA,
    GENERIC + "sweep:\n  omega: {values: 0.5}\n",
    GENERIC.replace("rate_up: 0.01", "rate_up: true") + OMEGA,
], ids=["unknown-level", "negative-rate", "model-not-mapping", "empty-output",
        "empty-numerics", "boolean-points", "channels-not-list", "values-not-list",
        "boolean-rate"])
def test_malformed_run_files_are_config_errors(tmp_path, capsys, text):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(text)
    assert main(["spectrum", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("name, labellings", [("flux_fivelevel.yaml", 1),
                                               ("fig2a.yaml", 5)])
def test_spectrum_labels_each_generator_once(tmp_path, monkeypatch, name, labellings):
    # one sector labelling per analysed generator: a generic run file has
    # one, the junction sweep one per bias point
    calls = []
    real = liouville.sectors

    def counted(m):
        calls.append(m.shape)
        return real(m)

    for module in (liouville, reduction, response):
        if getattr(module, "sectors", None) is real:
            monkeypatch.setattr(module, "sectors", counted)
    assert main(["spectrum", "--config", bundled(name), "--out", str(tmp_path)]) == 0
    assert len(calls) == labellings


def test_flux_report_junction(tmp_path):
    out = tmp_path / "out"
    assert main(["flux", "--config", bundled("fig2a.yaml"), "--out", str(out)]) == 0
    data = json.loads(read(out / "fig2a_flux.json"))
    assert data["states"] == ["g", "e1", "e2"]
    assert "loop_flux_j" in data and "flux_coherence_ratio" in data
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
    assert data["loop_flux_j"] == 0.0
    assert data["flux_coherence_ratio"] is None
    assert data["loops"] == []
    assert "detailed balance: True" in capsys.readouterr().out


def test_fdr_check_thermal_two_level(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["fdr-check", "--config", bundled("fdr_twolevel.yaml"),
                 "--out", str(out)]) == 0
    lines = read(out / "fdr_twolevel_fdr.csv").strip().split("\n")
    assert lines[0] == "omega,lhs,re_rhs,im_rhs,residual"
    assert len(lines) == 202
    assert "max residual" in capsys.readouterr().out


def test_fdr_check_refuses_driven_junction(tmp_path, capsys):
    assert main(["fdr-check", "--config", bundled("junction_equilibrium.yaml"),
                 "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "not detailed balanced" in err and "violation" in err


def test_unpopulated_level_fails_only_the_flux_commands(tmp_path, capsys):
    # no uphill rate leaves e empty: the response needs no curl flux
    cfg = tmp_path / "cold.yaml"
    cfg.write_text(
        "model:\n  type: generic\n  generic:\n    temperature: 0.3\n"
        "    levels: {g: 0.0, e: 1.0}\n"
        "    channels:\n"
        "      - {upper: e, lower: g, rate_up: 0.0, rate_down: 0.02}\n"
        "sweep:\n  omega: {values: [0.5, 1.0]}\n"
        "output: {directory: out, prefix: cold}\n"
    )
    for command in ("spectrum", "fdr-check"):
        assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 0
    for command in ("flux", "validate"):
        assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 3
    assert "strictly positive" in capsys.readouterr().err


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
    analysis = analyze(thermal_two_level()[0])
    with pytest.raises(ResolventSingularError, match="eigenvalue"):
        fluctuation_spectrum(np.eye(2), analysis, [0.0])


def test_spectrum_split_columns_sum_to_full(tmp_path):
    out = tmp_path / "out"
    assert main(["spectrum", "--config", bundled("fig2a.yaml"),
                 "--out", str(out)]) == 0
    data = np.loadtxt(out / "fig2a_dmu0.3.csv", delimiter=",", skiprows=1)
    im_full, im_eq, im_ne = data[:, 2], data[:, 3], data[:, 4]
    assert np.abs(im_full - (im_eq + im_ne)).max() <= 1e-9 * np.abs(im_full).max()


def test_negative_epsilon_is_a_config_error(tmp_path):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(
        "model:\n  type: junction\n  junction: {mu_1: 1.0, mu_2: 0.5}\n"
        "sweep:\n  omega: {min: 0.9, max: 1.1, points: 3}\n"
        "numerics: {epsilon: -1.0}\n"
    )
    assert main(["spectrum", "--config", str(cfg)]) == 2


def test_bias_sweep_rejected_for_generic_model(tmp_path):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(
        "model:\n  type: generic\n  generic:\n    levels: {a: 0.0, b: 1.0}\n"
        "    channels:\n      - {upper: b, lower: a, rate_up: 0.01, rate_down: 0.02}\n"
        "sweep:\n  omega: {min: 0.9, max: 1.1, points: 3}\n"
        "  bias: {mode: symmetric, dmu: [0.1]}\n"
    )
    assert main(["spectrum", "--config", str(cfg)]) == 2


def test_validate_junction_config(capsys):
    assert main(["validate", "--config", bundled("fig2a.yaml")]) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out
    assert "FAIL" not in out


def test_validate_generic_config(capsys):
    assert main(["validate", "--config", bundled("flux_fivelevel.yaml")]) == 0
    assert "all checks passed" in capsys.readouterr().out


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


def test_strict_paper_rates_flag_changes_spectrum(tmp_path):
    cfg = tmp_path / "point.yaml"
    cfg.write_text(
        "model:\n  type: junction\n  junction: {mu_1: 1.0, mu_2: 0.5}\n"
        "sweep:\n  omega: {min: 0.9, max: 1.1, points: 41}\n"
        "output: {directory: out, prefix: pt}\n"
    )
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["spectrum", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["spectrum", "--config", str(cfg), "--out", str(out2),
                 "--strict-paper-rates", "false"]) == 0
    assert read(out1 / "pt_run.csv") != read(out2 / "pt_run.csv")


def test_cli_import_does_not_load_scipy():
    # scipy is a test-only dependency, so a cold CLI call must not pay for
    # importing it
    src = str(Path(curlflux.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys, curlflux.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_cli_spectrum_does_not_load_numpy_ma(tmp_path):
    # np.unique, np.isin and np.intersect1d import numpy.ma on first use,
    # a cost every cold CLI call would pay; the sector code avoids them
    src = str(Path(curlflux.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
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
