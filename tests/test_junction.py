from importlib import resources

import numpy as np
import pytest
from scipy.linalg import expm

from curlflux.config import _junction_model, load_config
from curlflux.junction import JunctionParams, fermi_dirac
from curlflux.liouville import vectorize
from curlflux.response import response_split

from helpers import (
    build_liouvillian,
    dense_k,
    dense_raising,
    devectorize,
    generator_blocks,
    index_pairs,
    to_dense,
)
from junction_oracles import (
    _ne_coefficients,
    analytic_propagator_ge,
    build_junction,
    closed_form_flux_response,
    dipole_operator,
    first_order_propagator_ge,
    ge_generator,
    hybridized_frequency_propagator,
    hybridized_parameters,
    printed_blocks,
)

FIG_GRID = np.linspace(0.85, 1.15, 1201)


def reference_params(mu_1, mu_2, **overrides):
    return JunctionParams(mu_1=mu_1, mu_2=mu_2, **overrides)


def test_junction_record_is_probed_through_the_oracle_dipole():
    # config's one probe rule, scale * (A + A^dag) with A the sum of the
    # channels' raising operators,
    # with the dipole as the junction's scale and 1 for a generic model
    for dipole in (1.0, 0.7, 2.3):
        params = reference_params(1.0, 0.5, dipole=dipole)
        assert np.array_equal(_junction_model(params).coupling,
                              dipole_operator(params))
    five = resources.files("curlflux") / "configs" / "flux_fivelevel.yaml"
    model = load_config(str(five)).model
    raising = [dense_raising(ch, len(model.labels)) for ch in model.channels]
    assert np.array_equal(model.coupling,
                          sum(a + a.conj().T for a in raising))


def excited_coherence_rows():
    pairs = list(index_pairs(3))
    return pairs.index((1, 2)) - 3, pairs.index((2, 1)) - 3


def test_fermi_dirac_half_at_chemical_potential():
    assert fermi_dirac(1.0, 1.0, 0.3) == 0.5


def test_fermi_dirac_exponential_tail():
    assert fermi_dirac(50.0 * 0.3 + 1.0, 1.0, 0.3) < 1e-20
    assert fermi_dirac(-50.0 * 0.3 + 1.0, 1.0, 0.3) == pytest.approx(1.0, abs=1e-15)


def test_fermi_dirac_reference_value():
    assert fermi_dirac(1.06, 1.0, 0.3) == pytest.approx(1.0 / (np.exp(0.2) + 1.0))
    assert fermi_dirac(1.06, 1.0, 0.3) == pytest.approx(0.450166002687522, abs=1e-12)


def test_fermi_dirac_monotone_decreasing():
    ws = np.linspace(-2.0, 4.0, 50)
    vals = [fermi_dirac(w, 1.0, 0.3) for w in ws]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert all(0.0 <= v <= 1.0 for v in vals)


def test_fermi_dirac_rejects_non_positive_temperature():
    with pytest.raises(ValueError):
        fermi_dirac(1.0, 1.0, 0.0)


def test_params_enforce_level_ordering_and_single_gamma():
    with pytest.raises(ValueError, match="omega_1 > omega_2"):
        JunctionParams(mu_1=1.0, mu_2=1.0, omega_1=0.9, omega_2=1.0)
    with pytest.raises(ValueError, match="gamma"):
        JunctionParams(mu_1=1.0, mu_2=1.0, gamma=0.0)


def test_blocks_match_closed_forms_reference_point():
    model = build_junction(reference_params(1.0, 0.5))
    m_p, m_pc, m_cp, m_c, k, l = printed_blocks(model.params)
    got_p, got_pc, got_cp, got_c = generator_blocks(to_dense(model.generator))
    r12, r21 = excited_coherence_rows()
    rows = [r12, r21]
    assert np.abs(got_p - m_p).max() < 1e-12
    assert np.abs(got_pc[:, rows] - m_pc).max() < 1e-12
    assert np.abs(got_cp[rows, :] - m_cp).max() < 1e-12
    assert np.abs(got_c[np.ix_(rows, rows)] - m_c).max() < 1e-12
    assert np.abs(dense_k(model)[rows, :] - k).max() < 1e-12
    assert np.abs(model.l_matrix - l).max() < 1e-12
    # populations talk only to the excited coherence pair
    other = [i for i in range(6) if i not in rows]
    assert np.abs(got_pc[:, other]).max() == 0.0
    assert np.abs(got_cp[other, :]).max() == 0.0
    assert np.abs(dense_k(model)[other, :]).max() == 0.0


def test_blocks_match_closed_forms_random_draws():
    rng = np.random.default_rng(40)
    r12, r21 = excited_coherence_rows()
    rows = [r12, r21]
    for _ in range(20):
        omega_1 = rng.uniform(0.8, 1.5)
        temperature = rng.uniform(0.1, 0.6)
        params = JunctionParams(
            mu_1=rng.uniform(0.3, 1.5),
            mu_2=rng.uniform(0.3, 1.5),
            omega_1=omega_1,
            omega_2=omega_1 - rng.uniform(0.05, 0.5),
            delta=rng.uniform(0.001, 0.05),
            gamma=rng.uniform(0.005, 0.05),
            t_1=temperature,
            t_2=temperature,
        )
        model = build_junction(params)
        m_p, m_pc, m_cp, m_c, k, l = printed_blocks(params)
        got_p, got_pc, got_cp, got_c = generator_blocks(to_dense(model.generator))
        assert np.abs(got_p - m_p).max() < 1e-12
        assert np.abs(got_pc[:, rows] - m_pc).max() < 1e-12
        assert np.abs(got_cp[rows, :] - m_cp).max() < 1e-12
        assert np.abs(got_c[np.ix_(rows, rows)] - m_c).max() < 1e-12
        assert np.abs(dense_k(model)[rows, :] - k).max() < 1e-12
        assert np.abs(model.l_matrix - l).max() < 1e-12


def test_hybridized_frequencies_reference_values():
    der = hybridized_parameters(reference_params(1.0, 0.5))
    root = np.sqrt(0.12 ** 2 + 4 * 0.01 ** 2)
    assert root == pytest.approx(0.121655, abs=1e-6)
    assert der.omega_plus == pytest.approx(1.0 + root / 2)
    assert der.omega_minus == pytest.approx(1.0 - root / 2)
    assert der.omega_plus == pytest.approx(1.06083, abs=5e-6)
    assert der.omega_minus == pytest.approx(0.93917, abs=5e-6)
    assert np.cos(2 * der.theta) == pytest.approx(0.98640, abs=1e-5)
    assert np.sin(2 * der.theta) == pytest.approx(0.16440, abs=1e-5)
    assert np.sin(2 * der.theta) ** 2 + np.cos(2 * der.theta) ** 2 == pytest.approx(1.0)


def test_hybridized_decay_symmetric_limit():
    # equal Fermi factors: both modes decay at gamma (1 + f) / 2
    params = reference_params(1.06, 0.94)
    der = hybridized_parameters(params)
    assert der.fbar_1 == pytest.approx(der.fbar_2)
    expected = params.gamma * (1.0 + der.fbar_1) / 2.0
    assert der.gamma_plus == pytest.approx(expected)
    assert der.gamma_minus == pytest.approx(expected)


def test_hybridized_decay_rates_non_negative_random():
    rng = np.random.default_rng(41)
    for _ in range(50):
        omega_1 = rng.uniform(0.5, 2.0)
        params = JunctionParams(
            mu_1=rng.uniform(0.0, 2.5), mu_2=rng.uniform(0.0, 2.5),
            omega_1=omega_1, omega_2=omega_1 - rng.uniform(0.01, 0.8),
            delta=rng.uniform(0.0, 0.1), gamma=rng.uniform(0.001, 0.1),
            t_1=rng.uniform(0.05, 1.0), t_2=rng.uniform(0.05, 1.0),
        )
        der = hybridized_parameters(params)
        assert der.gamma_plus >= 0 and der.gamma_minus >= 0
        assert der.omega_plus >= der.omega_minus


def test_ge_generator_equals_coherence_sector_of_builder():
    params = reference_params(1.0, 0.5)
    model = build_junction(params)
    pairs = list(index_pairs(3))
    idx = [pairs.index((0, 1)), pairs.index((0, 2))]
    ge_gen = to_dense(model.generator)[np.ix_(idx, idx)]
    assert np.abs(ge_gen - ge_generator(params)).max() < 1e-14


def test_ge_generator_crossed_pairing_as_derived():
    # rho_{g,e1} decays with (1 + fbar_2): the same-index Fermi terms of
    # channel 1 add to one, leaving the opposite electrode's factor
    params = reference_params(1.0, 0.5)
    der = hybridized_parameters(params)
    gen = ge_generator(params)
    assert gen[0, 0] == pytest.approx(1j * 1.06 - 0.01 * (1 + der.fbar_2))
    assert gen[1, 1] == pytest.approx(1j * 0.94 - 0.01 * (1 + der.fbar_1))


def test_analytic_propagator_identity_at_zero_time():
    g = analytic_propagator_ge(reference_params(1.0, 0.5), 0.0)
    assert np.abs(g - np.eye(2)).max() < 1e-15


def test_analytic_propagator_decoupled_limit():
    params = reference_params(1.0, 0.5, delta=1e-30)
    der = hybridized_parameters(params)
    for t in (1.0, 10.0):
        g = analytic_propagator_ge(params, t)
        assert abs(g[0, 1]) < 1e-15 and abs(g[1, 0]) < 1e-15
        assert g[0, 0] == pytest.approx(
            np.exp((1j * 1.06 - 0.01 * (1 + der.fbar_2)) * t), rel=1e-10
        )
        assert g[1, 1] == pytest.approx(
            np.exp((1j * 0.94 - 0.01 * (1 + der.fbar_1)) * t), rel=1e-10
        )


def test_analytic_propagator_exact_at_equal_fermi_factors():
    params = reference_params(1.06, 0.94)
    gen = ge_generator(params)
    for t in (0.1, 1.0, 10.0, 100.0, 500.0):
        assert np.abs(analytic_propagator_ge(params, t) - expm(gen * t)).max() < 1e-12


def test_analytic_propagator_exact_out_of_equilibrium():
    for mus in ((1.0, 0.5), (1.3, 0.7), (2.0, 0.0)):
        params = reference_params(*mus)
        gen = ge_generator(params)
        for t in (0.1, 10.0, 500.0):
            exact = expm(gen * t)
            assert np.abs(analytic_propagator_ge(params, t) - exact).max() < 1e-12


def test_analytic_propagator_first_order_in_decay_asymmetry():
    # the first-order form neglects the eigenvector tilt caused by the
    # decay asymmetry, so its error scales linearly with gamma (f1 - f2)
    def deviation(gamma):
        params = reference_params(1.0, 0.5, gamma=gamma)
        gen = ge_generator(params)
        return max(
            np.abs(first_order_propagator_ge(params, t) - expm(gen * t)).max()
            for t in (1.0, 10.0, 100.0)
        )

    d1, d2 = deviation(0.02), deviation(0.002)
    assert d1 / d2 == pytest.approx(10.0, rel=0.2)
    assert d1 < 5e-3


def test_analytic_propagator_conjugate_block():
    # the (e1g, e2g) pair propagates with the complex conjugate
    params = reference_params(1.06, 0.94)
    pairs = list(index_pairs(3))
    idx = [pairs.index((1, 0)), pairs.index((2, 0))]
    model = build_junction(params)
    eg_gen = to_dense(model.generator)[np.ix_(idx, idx)]
    for t in (1.0, 25.0):
        assert np.abs(expm(eg_gen * t) - analytic_propagator_ge(params, t).conj()).max() < 1e-12


def test_hybridized_frequency_propagator_matches_exact_resolvent_at_balance():
    params = reference_params(1.06, 0.94)
    pairs = list(index_pairs(3))
    idx = [pairs.index((1, 0)), pairs.index((2, 0))]
    model = build_junction(params)
    a_eg = to_dense(model.generator)[np.ix_(idx, idx)]
    for w in (0.9, 1.0, 1.0608):
        exact = -np.linalg.inv(a_eg + 1j * w * np.eye(2))
        assert np.abs(hybridized_frequency_propagator(params, w) - exact).max() < 1e-12


def test_flux_vanishes_in_balanced_and_reverse_regimes():
    assert build_junction(reference_params(1.06, 0.94)).flux_j == 0.0
    # zero bias leaves a residual reverse loop, so the forward flux is zero
    model = build_junction(reference_params(1.0, 1.0))
    assert model.flux_j == 0.0
    assert model.flux.c[2, 1] > 0.0


def test_hybridized_frequency_propagator_first_order_off_balance():
    # same accuracy budget as the time-domain closed form
    params = reference_params(1.0, 0.5)
    pairs = list(index_pairs(3))
    idx = [pairs.index((1, 0)), pairs.index((2, 0))]
    a_eg = to_dense(build_junction(params).generator)[np.ix_(idx, idx)]
    worst = 0.0
    scale = 0.0
    for w in np.linspace(0.9, 1.1, 41):
        exact = -np.linalg.inv(a_eg + 1j * w * np.eye(2))
        worst = max(worst, np.abs(
            hybridized_frequency_propagator(params, w) - exact
        ).max())
        scale = max(scale, np.abs(exact).max())
    assert 1e-5 < worst / scale < 5e-3


def test_flux_monotone_along_bias_ramp():
    values = [
        build_junction(reference_params(1.0 + dmu, 1.0 - dmu)).flux_j
        for dmu in (0.1, 0.15, 0.2, 0.25, 0.3)
    ]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert values[0] > 0


def test_flux_equals_loop_weight_and_cycle_edges():
    model = build_junction(reference_params(1.3, 0.7))
    assert len(model.flux.loops) == 1
    cycle, weight = model.flux.loops[0]
    assert cycle == (0, 1, 2)
    assert weight == pytest.approx(model.flux_j, rel=1e-12)
    c = model.flux.c
    assert c[0, 1] == pytest.approx(model.flux_j, abs=1e-16)
    assert c[2, 0] == pytest.approx(model.flux_j, abs=1e-16)


def test_single_loop_whenever_flux_is_significant():
    rng = np.random.default_rng(42)
    for _ in range(20):
        dmu = rng.uniform(0.0, 0.5)
        model = build_junction(reference_params(1.0 + dmu, 1.0 - dmu))
        if max(model.flux.c.max(), 0.0) > 1e-12:
            assert len(model.flux.loops) == 1


def test_flux_proportional_to_stationary_coherence():
    # the loop current and the imaginary excited-state coherence share the
    # exact ratio -2 delta at every forward-driving bias
    ratios = []
    for dmu in (0.1, 0.2, 0.3):
        model = build_junction(reference_params(1.0 + dmu, 1.0 - dmu))
        ratios.append(model.flux_j / model.coherence_e1e2.imag)
        assert ratios[-1] == pytest.approx(-2.0 * model.params.delta, rel=1e-9)
    spread = (max(ratios) - min(ratios)) / abs(np.mean(ratios))
    assert spread < 1e-6


def dipole_split(params, omegas):
    """The junction's transmission: the dipole's split response."""
    model = build_junction(params)
    return response_split(dipole_operator(params), model, omegas), model


def test_transmission_balanced_point_kills_flux_term():
    spectrum, model = dipole_split(reference_params(1.06, 0.94), FIG_GRID)
    assert np.abs(closed_form_flux_response(model, FIG_GRID)).max() < 1e-12
    assert np.abs(spectrum.r_ne_term).max() < 1e-12


def test_transmission_closed_form_matches_generic_split():
    for dmu in (0.1, 0.2, 0.3):
        spectrum, model = dipole_split(
            reference_params(1.0 + dmu, 1.0 - dmu), FIG_GRID
        )
        t_ne = closed_form_flux_response(model, FIG_GRID)
        assert np.abs(t_ne - spectrum.r_ne_term.imag).max() < 1e-9


def test_transmission_flux_peak_prefers_upper_mode_at_strong_bias():
    params = reference_params(1.3, 0.7)
    t_ne = closed_form_flux_response(build_junction(params), FIG_GRID)
    der = hybridized_parameters(params)
    near_plus = np.abs(FIG_GRID - der.omega_plus) < 0.02
    near_minus = np.abs(FIG_GRID - der.omega_minus) < 0.02
    assert np.abs(t_ne[near_plus]).max() > np.abs(t_ne[near_minus]).max()


def test_flux_term_share_of_transmission_grows_with_bias():
    shares = []
    for dmu in (0.1, 0.2, 0.3):
        spectrum, _ = dipole_split(reference_params(1.0 + dmu, 1.0 - dmu),
                                   FIG_GRID)
        shares.append(np.abs(spectrum.r_ne_term.imag).max()
                      / np.abs(spectrum.r_full.imag).max())
    assert all(b > a for a, b in zip(shares, shares[1:]))


def test_transmission_extrema_at_hybridized_frequencies():
    step = FIG_GRID[1] - FIG_GRID[0]
    for dmu in (0.0, 0.3):
        params = reference_params(1.0 + dmu, 1.0 - dmu)
        spectrum, _ = dipole_split(params, FIG_GRID)
        der = hybridized_parameters(params)
        im = spectrum.r_full.imag
        turning = [
            FIG_GRID[i]
            for i in range(1, im.size - 1)
            if (im[i] - im[i - 1]) * (im[i + 1] - im[i]) < 0
        ]
        for target in (der.omega_plus, der.omega_minus):
            assert min(abs(x - target) for x in turning) <= step


def test_closed_form_flux_response_uses_one_sided_flux():
    # at zero bias the residual loop runs backwards: the closed form
    # reports no forward-flux transmission even though the generic split
    # keeps the reverse-loop contribution
    spectrum, model = dipole_split(reference_params(1.0, 1.0), FIG_GRID)
    assert np.abs(closed_form_flux_response(model, FIG_GRID)).max() == 0.0
    assert np.abs(spectrum.r_ne_term.imag).max() > 1e-3


def test_closed_form_flux_response_matches_per_frequency_inverses():
    # reference: the 2x2 resolvent inverted one frequency at a time
    pairs = list(index_pairs(3))
    idx = [pairs.index((1, 0)), pairs.index((2, 0))]
    for mu_1, mu_2 in ((1.0, 0.5), (1.3, 0.7), (2.0, 0.0)):
        model = build_junction(reference_params(mu_1, mu_2))
        a_eg = to_dense(model.generator)[np.ix_(idx, idx)]
        c1, c2 = _ne_coefficients(model)
        expected = []
        for w in FIG_GRID:
            gp = -np.linalg.inv(a_eg + 1j * w * np.eye(2))
            gm = -np.linalg.inv(a_eg - 1j * w * np.eye(2))
            g_plus = c1 * (gp[0, 0] + gp[1, 0]) + c2 * (gp[1, 1] + gp[0, 1])
            g_minus = c1 * (gm[0, 0] + gm[1, 0]) + c2 * (gm[1, 1] + gm[0, 1])
            expected.append(
                model.params.dipole ** 2 * model.flux_j * (g_plus - np.conj(g_minus)).real
            )
        expected = np.array(expected)
        got = closed_form_flux_response(model, FIG_GRID)
        assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()


def choi_matrix(propagator, d):
    """Choi matrix sum_ij |i><j| (x) Phi(|i><j|) of the map Phi whose
    Liouville matrix is propagator."""
    choi = np.zeros((d, d, d, d), dtype=complex)
    for i, j in np.ndindex(d, d):
        unit = np.zeros((d, d))
        unit[i, j] = 1.0
        choi[i, :, j, :] = devectorize(propagator @ vectorize(unit))
    return choi.reshape(d * d, d * d)


def test_junction_dynamics_are_completely_positive():
    # exp(M t) is completely positive exactly when its Choi matrix is
    # positive semidefinite: its smallest eigenvalue is +4.8e-6 to +1.1e-5
    # at these points, and a ground-excited coherence decaying slower than
    # half its two levels' exit rates drives it negative
    fig2a = resources.files("curlflux") / "configs" / "fig2a.yaml"
    for _, model in load_config(str(fig2a)).points:
        m = build_liouvillian(model.hamiltonian, model.channels)
        for t in (0.5, 2.0, 10.0, 50.0):
            choi = choi_matrix(expm(m * t), 3)
            assert np.abs(choi - choi.conj().T).max() < 1e-12
            assert np.linalg.eigvalsh(choi).min() >= -1e-12
