"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see every verdict.

Two criteria fail by measurement, not by implementation gaps; each
failure message carries the measured value and the mathematical reason:

* criterion 2: the zero-bias junction keeps a residual reverse loop
  current (the coherence-mediated e1<->e2 rate is symmetric while the
  electrode Fermi factors at the two transition energies differ), so the
  flux-sector operator norm floors near 5.9e-3, not 1e-12.
* criterion 7: the two sides of the coth comparison differ by an overall
  sign and the one-sided spectra carry dispersive imaginary parts (max
  |Im rhs| = 45 at gamma = 0.02), which make up the reported residual of
  193; with both removed, regression correlators of a Markovian generator
  still violate the thermal weight exchange away from the line centers
  (mismatch 0.122 at gamma = 0.02, 0.047 at gamma = 0.002), so the coth
  comparison cannot reach 1e-8 for any finite linewidth.
"""

import contextlib

import numpy as np
import pytest
from scipy.linalg import expm

from curlflux.cli import main
from curlflux.flux import curl_flux, reconstruct_flux
from curlflux.junction import (
    JunctionParams,
    analytic_propagator_ge,
    build_junction,
    closed_form_flux_response,
    dipole_operator,
    ge_generator,
    hybridized_parameters,
)
from curlflux.reduction import analyze
from curlflux.response import check_equilibrium_fdr, response_split

from helpers import (
    coherence_map,
    dense_steady_state,
    generator_blocks,
    random_rate_matrix,
    rate_steady_state,
    thermal_two_level,
)

FIG_GRID = np.linspace(0.85, 1.15, 1201)
BIASES = (0.0, 0.1, 0.2, 0.3)


@contextlib.contextmanager
def verdict(number, title):
    try:
        yield
    except Exception:
        print("criterion %2d  FAIL  %s" % (number, title))
        raise
    print("criterion %2d  PASS  %s" % (number, title))


def junction_at(dmu=None, mus=None):
    if mus is None:
        mus = (1.0 + dmu, 1.0 - dmu)
    return JunctionParams(mu_1=mus[0], mu_2=mus[1])


def test_criterion_01_flux_axioms_random_systems():
    with verdict(1, "flux axioms on 200 random stationary rate systems"):
        rng = np.random.default_rng(12345)
        for case in range(200):
            dim = 3 + case % 6
            l = random_rate_matrix(rng, dim)
            p = rate_steady_state(l).vector
            decomp = curl_flux(l, p)
            c = decomp.c
            assert np.all(c >= 0) and np.all(np.diag(c) == 0)
            assert np.abs(c * c.T).max() <= 1e-22
            assert np.abs(c.sum(axis=0) - c.sum(axis=1)).max() <= 1e-11
            assert np.abs(decomp.t_rate - (c + decomp.sym)).max() <= 1e-15
            rebuilt = reconstruct_flux(decomp.loops, dim)
            assert np.abs(rebuilt - c).max() <= 1e-11


def test_criterion_02_equilibrium_collapse_zero_bias():
    with verdict(2, "zero-bias collapse: J, ||v_ss|| and flux transmission"):
        model = build_junction(junction_at(dmu=0.0))
        t_ne = closed_form_flux_response(model, FIG_GRID)
        assert model.flux_j <= 1e-12, "forward loop flux J = %.3e" % model.flux_j
        assert np.abs(t_ne).max() <= 1e-12, (
            "max |T_ne| = %.3e" % np.abs(t_ne).max()
        )
        v_norm = np.abs(model.split.v_ss).max()
        assert v_norm <= 1e-12, (
            "||v_ss||_inf = %.3e at zero bias: the junction is not detailed "
            "balanced there (reverse loop weight %.3e from the symmetric "
            "coherence-mediated e1<->e2 rate against unequal Fermi factors); "
            "exact balance requires mu_1 - mu_2 = omega_1 - omega_2"
            % (v_norm, model.flux.c.max())
        )


def test_criterion_03_split_exactness_biased():
    with verdict(3, "split exactness at dmu in {0.1, 0.2, 0.3}"):
        for dmu in BIASES[1:]:
            params = junction_at(dmu=dmu)
            spectrum = response_split(dipole_operator(params),
                                      build_junction(params), FIG_GRID)
            gap = np.abs(
                spectrum.r_full.imag
                - (spectrum.r_eq_term + spectrum.r_ne_term).imag
            ).max()
            rel = gap / np.abs(spectrum.r_full.imag).max()
            assert rel <= 1e-9, "relative split defect %.3e at dmu=%g" % (rel, dmu)


def test_criterion_04_closed_form_block_equality():
    with verdict(4, "closed-form blocks K and L on 50 random parameter draws"):
        rng = np.random.default_rng(777)
        for _ in range(50):
            omega_1 = rng.uniform(0.8, 1.5)
            params = JunctionParams(
                mu_1=rng.uniform(0.3, 1.5),
                mu_2=rng.uniform(0.3, 1.5),
                omega_1=omega_1,
                omega_2=omega_1 - rng.uniform(0.05, 0.5),
                delta=rng.uniform(0.001, 0.05),
                gamma=rng.uniform(0.005, 0.05),
                t_1=rng.uniform(0.1, 0.6),
                t_2=rng.uniform(0.1, 0.6),
            )
            model = build_junction(params)
            derived = hybridized_parameters(params)
            f1, f2 = derived.fbar_1, derived.fbar_2
            g, dw = params.gamma, params.omega_e1e2
            width = 0.5 * g * (2.0 - f1 - f2)
            rows = [3, 5]  # (e1,e2) and (e2,e1) slots within the coherences
            m_c = np.array([[-1j * dw - width, 0.0], [0.0, 1j * dw - width]])
            m_cp = 1j * params.delta * np.array([[0, -1, 1], [0, 1, -1]])
            k = np.array([
                [0, -params.delta / (dw - 1j * width), params.delta / (dw - 1j * width)],
                [0, -params.delta / (dw + 1j * width), params.delta / (dw + 1j * width)],
            ])
            hop = params.delta ** 2 * g * (2 - f1 - f2) / (dw ** 2 + width ** 2)
            m_p = np.array([
                [-g * (f1 + f2), g * (1 - f1), g * (1 - f2)],
                [g * f1, -g * (1 - f1), 0.0],
                [g * f2, 0.0, -g * (1 - f2)],
            ])
            l = m_p + np.array([[0, 0, 0], [0, -hop, hop], [0, hop, -hop]])
            _, _, got_cp, got_c = generator_blocks(model.m)
            assert np.abs(got_c[np.ix_(rows, rows)] - m_c).max() <= 1e-12
            assert np.abs(got_cp[rows, :] - m_cp).max() <= 1e-12
            assert np.abs(model.k_map[rows, :] - k).max() <= 1e-12
            assert np.abs(model.l_matrix - l).max() <= 1e-12


def test_criterion_05_analytic_propagator_against_matrix_exponential():
    with verdict(5, "closed-form coherence propagator vs matrix exponential"):
        params = junction_at(mus=(1.0, 0.5))
        gen = ge_generator(params)
        worst = 0.0
        for t in (0.1, 1.0, 10.0, 100.0, 500.0):
            dev = np.abs(analytic_propagator_ge(params, t) - expm(gen * t)).max()
            worst = max(worst, dev)
        assert worst <= 1e-10, (
            "max entry deviation %.3e: the closed form keeps the real "
            "hybridized mixing weights and first-order decay rates, so it "
            "is exact only when the two Fermi factors coincide (here "
            "fbar_1 - fbar_2 = %.3f)"
            % (worst, hybridized_parameters(params).fbar_1
               - hybridized_parameters(params).fbar_2)
        )


def test_criterion_06_spectral_structure_and_flux_peak_monotonicity():
    with verdict(6, "extrema at hybridized frequencies; flux peak monotone"):
        step = FIG_GRID[1] - FIG_GRID[0]
        peak_magnitudes = []
        for dmu in BIASES:
            params = junction_at(dmu=dmu)
            model = build_junction(params)
            spectrum = response_split(dipole_operator(params), model, FIG_GRID)
            t_ne = closed_form_flux_response(model, FIG_GRID)
            derived = hybridized_parameters(params)
            im = spectrum.r_full.imag
            turning = [
                FIG_GRID[i]
                for i in range(1, im.size - 1)
                if (im[i] - im[i - 1]) * (im[i + 1] - im[i]) < 0
            ]
            for target in (derived.omega_plus, derived.omega_minus):
                nearest = min(abs(x - target) for x in turning)
                assert nearest <= step, (
                    "no extremum within one grid step of %.5f" % target
                )
            near_plus = np.abs(FIG_GRID - derived.omega_plus) < 0.02
            peak_magnitudes.append(np.abs(t_ne[near_plus]).max())
        assert all(
            b > a for a, b in zip(peak_magnitudes, peak_magnitudes[1:])
        ), "flux-peak magnitudes %r not monotone" % (peak_magnitudes,)
        # reference positions from the hybridization formula
        assert hybridized_parameters(junction_at(dmu=0.3)).omega_plus == \
            pytest.approx(1.06083, abs=5e-6)
        assert hybridized_parameters(junction_at(dmu=0.3)).omega_minus == \
            pytest.approx(0.93917, abs=5e-6)


def test_criterion_07_equilibrium_coth_fdr_two_level():
    with verdict(7, "equilibrium coth comparison on a thermal two-level system"):
        m, v, _ = thermal_two_level(omega0=1.0, temperature=0.3, gamma=0.02)
        grid = np.linspace(0.5, 1.5, 201)  # excludes omega = 0
        report = check_equilibrium_fdr(v, analyze(m), 0.3, grid)
        assert report.max_residual <= 1e-8, (
            "max residual %.3e: the one-sided spectra keep dispersive "
            "imaginary parts (max |Im rhs| = %.3e) and the Lorentzian "
            "tails break the thermal weight exchange at first order in "
            "the linewidth (max real-part mismatch %.3e), so the pointwise "
            "identity cannot reach 1e-8 at finite damping"
            % (
                report.max_residual,
                np.abs(report.rhs.imag).max(),
                np.abs(report.lhs - report.rhs.real).max(),
            )
        )


def test_criterion_08_steady_state_quality():
    with verdict(8, "steady-state residual, trace and coherence consistency"):
        models = [build_junction(junction_at(dmu=d)).m for d in BIASES]
        models.append(build_junction(junction_at(mus=(1.0, 0.5))).m)
        models.append(thermal_two_level()[0])
        # driven five-level ladder with several cycles
        rng = np.random.default_rng(99)
        from helpers import random_lindblad_model

        models.append(random_lindblad_model(rng, dim=5)[2])
        for m in models:
            d = int(round(np.sqrt(m.shape[0])))
            ss = dense_steady_state(m)
            assert ss.residual <= 1e-10, "residual %.3e" % ss.residual
            assert abs(ss.vector[:d].sum().real - 1.0) <= 1e-12
            k = coherence_map(m)
            gap = np.abs(ss.vector[d:] - k @ ss.vector[:d]).max(initial=0.0)
            assert gap <= 1e-10, "coherence map defect %.3e" % gap


def test_criterion_09_current_flux_proportionality():
    with verdict(9, "loop flux proportional to the excited-state coherence"):
        ratios = []
        for dmu in BIASES[1:]:
            model = build_junction(junction_at(dmu=dmu))
            ratios.append(model.flux_j / model.coherence_e1e2.imag)
        spread = (max(ratios) - min(ratios)) / abs(np.mean(ratios))
        assert spread <= 1e-6, "relative spread %.3e" % spread


def test_criterion_10_cli_determinism(tmp_path):
    with verdict(10, "repeated CLI runs produce byte-identical outputs"):
        from importlib import resources

        def run_all(base):
            for cfg, cmd in (
                ("fig2a.yaml", "spectrum"),
                ("flux_fivelevel.yaml", "flux"),
                ("fdr_twolevel.yaml", "fdr-check"),
            ):
                path = str(resources.files("curlflux") / "configs" / cfg)
                assert main([cmd, "--config", path, "--out", str(base)]) == 0

        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        run_all(out1)
        run_all(out2)
        names = sorted(p.name for p in out1.iterdir())
        assert names == sorted(p.name for p in out2.iterdir())
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
