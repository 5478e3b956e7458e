from importlib import resources

import numpy as np
import pytest

from curlflux.cli import _model
from curlflux.config import load_config
from curlflux.flux import is_detailed_balanced
from curlflux.junction import (
    JunctionParams,
    build_junction,
    dipole_operator,
    hybridized_parameters,
)
from curlflux.liouville import (
    DissipationChannel,
    build_liouvillian,
    index_pairs,
    trace_vector,
    vectorize,
)
from curlflux.reduction import analyze, steady_state
from curlflux.response import (
    EIGEN_COND_MAX,
    _row_and_sources,
    NotDetailedBalancedError,
    ResolventSingularError,
    ResponseSpectrum,
    check_equilibrium_fdr,
    fluctuation_spectrum,
    linear_response_freq,
    resolvent,
    response_split,
    spectrum_to_csv,
)

from helpers import (
    commutator_superop,
    left_mult,
    linear_response_time,
    random_ladder_model,
    random_lindblad_model,
    thermal_two_level,
)


def lorentzian_pole(x, gbar):
    return 1.0 / (gbar - 1j * x)


def green(m, omegas, epsilon=None):
    """Full resolvent matrices G(w): identity rows and columns."""
    eye = np.eye(np.shape(m)[0])
    return resolvent(m, omegas, eye, eye, epsilon)


def test_resolvent_scalar_decay():
    omegas = [0.0, 0.4, -1.2]
    g = green(np.array([[-0.3]]), omegas)
    for k, omega in enumerate(omegas):
        assert g[k, 0, 0] == pytest.approx(1.0 / (0.3 - 1j * omega))


def test_resolvent_matches_time_quadrature():
    from scipy.integrate import quad

    rng = np.random.default_rng(30)
    b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = -(b @ b.conj().T) - 0.5 * np.eye(4)
    evals, evecs = np.linalg.eig(m)
    vinv = np.linalg.inv(evecs)

    def propagator_entry(t, i, j):
        return (evecs @ np.diag(np.exp(evals * t)) @ vinv)[i, j]

    omega = 0.7
    horizon = 40.0 / abs(evals.real.max())
    g = green(m, [omega])[0]
    for i in range(4):
        for j in range(4):
            re = quad(lambda t: (propagator_entry(t, i, j) * np.exp(1j * omega * t)).real,
                      0, horizon, limit=400)[0]
            im = quad(lambda t: (propagator_entry(t, i, j) * np.exp(1j * omega * t)).imag,
                      0, horizon, limit=400)[0]
            assert g[i, j] == pytest.approx(re + 1j * im, abs=1e-6)


def test_resolvent_singular_names_eigenvalue():
    h = np.diag([0.0, 1.0]).astype(complex)
    m = build_liouvillian(h, [])
    with pytest.raises(ResolventSingularError, match="eigenvalue"):
        green(m, [1.0])
    # regularization removes the singularity
    g = green(m, [1.0], epsilon=1e-6)
    assert np.all(np.isfinite(g))


def test_junction_eg_diagonal_dominated_by_inverse_decay():
    params = JunctionParams(mu_1=1.0, mu_2=0.5)
    model = build_junction(params)
    derived = hybridized_parameters(params)
    g = green(model.m, [derived.omega_plus])[0]
    idx = list(index_pairs(3)).index((1, 0))
    assert g[idx, idx].real == pytest.approx(1.0 / derived.gamma_plus, rel=0.05)


def solve_per_frequency(m, omegas, left, right):
    """Reference left . G(w) . right: one dense solve per frequency."""
    eye = np.eye(m.shape[0])
    return np.array([left @ np.linalg.solve(m + 1j * w * eye, -right)
                     for w in omegas])


def assert_close_per_column(got, ref, rtol=1e-12):
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.shape == ref.shape
    err = np.abs(got - ref).max(axis=0)
    assert np.all(err <= rtol * np.abs(ref).max(axis=0)), err


def oracle_model(key):
    """(analysis, probe coupling, grid) of one oracle-test model."""
    if key[0] == "junction":
        _, mus, strict = key
        params = JunctionParams(mu_1=mus[0], mu_2=mus[1])
        return (build_junction(params, strict), dipole_operator(params),
                np.linspace(0.85, 1.15, 61))
    if key[0] == "thermal":
        m, v, _ = thermal_two_level()
        return analyze(m), v, np.linspace(-1.5, 1.5, 120)
    if key[0] == "ladder":
        d = key[1]
        _, channels, m, top = random_ladder_model(np.random.default_rng(50 + d), d)
        v = sum(ch.raising + ch.raising.conj().T for ch in channels)
        # the dense reference costs one O(d**6) solve per point
        return analyze(m), v, np.linspace(0.05, top + 0.1, 7 if d > 16 else 60)
    d = key[1]
    _, channels, m = random_lindblad_model(np.random.default_rng(40 + d), dim=d)
    v = sum(ch.raising + ch.raising.conj().T for ch in channels)
    # the grid avoids omega = 0, where V_L rho excites the stationary mode
    return analyze(m), v, np.linspace(-3.0, 3.0, 120)


ORACLE_MODELS = [("junction", mus, strict)
                 for mus in ((1.0, 1.0), (1.06, 0.94), (1.0, 0.5))
                 for strict in (True, False)]
ORACLE_MODELS += [("random", d) for d in (3, 5, 8)] + [("thermal",)]
ORACLE_MODELS += [("ladder", d) for d in (3, 8, 16, 24)]


@pytest.mark.parametrize("key", ORACLE_MODELS, ids=str)
def test_spectra_match_per_frequency_solves(key):
    analysis, v, omegas = oracle_model(key)
    m, rho, d = analysis.m, analysis.rho_ss.vector, analysis.populations.size
    pops, split = analysis.populations, analysis.split
    lift = np.vstack([np.eye(d), analysis.k_map])
    columns = np.column_stack(
        [rho, lift @ (split.s_d * pops), lift @ (split.v_ss * pops)])

    # the row and sources against the dense superoperator oracles: the
    # row exactly, the sources to the rounding of a sum of 2d products
    row, sources, seeded = _row_and_sources(v, columns)
    assert np.array_equal(row, trace_vector(d) @ left_mult(v))
    bound = 2 * d * np.finfo(float).eps * np.abs(v).max() * np.abs(columns).max(axis=0)
    assert np.all(np.abs(sources - commutator_superop(v) @ columns).max(axis=0) <= bound)
    assert np.all(np.abs(seeded - left_mult(v) @ columns).max(axis=0) <= bound)

    # the spectra against one dense solve per frequency on those sources
    # (at the balanced junction R(w) is rounding noise, which only the
    # same sources reproduce to 1e-12 of itself)
    full = linear_response_freq(v, analysis, omegas)
    ref = -1j * solve_per_frequency(m, omegas, row, sources[:, 0])
    assert_close_per_column(full.r_full, ref)

    ref = solve_per_frequency(m, omegas, row, sources) * np.array([-1j, 1j, 1j])
    spectrum = response_split(v, analysis, omegas)
    assert_close_per_column(np.column_stack(
        [spectrum.r_full, spectrum.r_eq_term, spectrum.r_ne_term]), ref)

    s_plus = solve_per_frequency(m, omegas, row, seeded[:, 0])
    assert_close_per_column(fluctuation_spectrum(v, analysis, omegas), s_plus)

    temperature = 0.3
    if not is_detailed_balanced(analysis.l_matrix, analysis.populations, tol=1e-9)[0]:
        with pytest.raises(NotDetailedBalancedError):
            check_equilibrium_fdr(v, analysis, temperature, omegas)
        return
    report = check_equilibrium_fdr(v, analysis, temperature, omegas)
    s_minus = solve_per_frequency(m, -omegas, row, seeded[:, 0])
    lhs = full.r_full.imag / np.tanh(omegas / (2.0 * temperature))
    assert_close_per_column(report.lhs, lhs)
    assert_close_per_column(report.rhs, s_plus + s_minus)


def test_resolvent_solves_per_frequency_near_an_exceptional_point():
    # a Jordan block split by 1e-14 behind a random similarity: cond(V) is
    # about 1e7, and the modal sum would be off by about 1e-9 relative
    rng = np.random.default_rng(11)
    jordan = np.diag([-0.2 + 0.5j, -0.2 + 0.5j, -0.1, -0.3 - 0.4j])
    jordan[0, 1], jordan[1, 0] = 1.0, 1e-14
    s = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = s @ jordan @ np.linalg.inv(s)
    assert np.linalg.cond(np.linalg.eig(m)[1]) > EIGEN_COND_MAX
    omegas = np.linspace(-1.0, 1.0, 41)
    got = green(m, omegas)
    ref = np.array([-np.linalg.inv(m + 1j * w * np.eye(4)) for w in omegas])
    assert_close_per_column(got, ref)


def test_resolvent_ignores_an_undamped_sector_the_pair_does_not_reach():
    # levels 2 and 3 carry no channel, so their coherences are undamped
    # with poles at +-0.9 on the grid, and their populations sit at 0
    energies = np.array([0.0, 1.0, 1.7, 2.6])
    raising = np.zeros((4, 4), dtype=complex)
    raising[1, 0] = 1.0
    m = build_liouvillian(np.diag(energies), [DissipationChannel(raising, 0.02, 0.05)])
    v = np.zeros((4, 4), dtype=complex)
    v[0, 1] = v[1, 0] = 1.0
    rho = vectorize(np.diag([5.0, 2.0, 0.0, 0.0]) / 7.0)
    row, source = trace_vector(4) @ left_mult(v), commutator_superop(v) @ rho
    omegas = np.array([-0.9, 0.0, 0.9, 1.0])
    got = resolvent(m, omegas, row, source)[:, 0, 0]
    # the dense route: every mode of M, those the pair does not excite dropped
    evals, vecs = np.linalg.eig(m)
    weight = (row @ vecs) * np.linalg.solve(vecs, source)
    live = np.abs(weight) > 1e-12 * np.abs(weight).max()
    ref = -(weight[live] / (evals[live] + 1j * omegas[:, None])).sum(axis=1)
    assert_close_per_column(got, ref)
    # a pair that does reach the undamped coherence hits its pole
    hit = np.zeros(16)
    hit[index_pairs(4).index((2, 3))] = 1.0
    with pytest.raises(ResolventSingularError, match="eigenvalue"):
        resolvent(m, omegas, hit, hit)


def test_resolvent_pole_tolerance_scales_with_every_sector():
    # a touched mode 1e-8 from the grid point is a pole only on the scale
    # of the untouched sector, whose eigenvalue is -1e6
    m = np.diag([-1e-8 + 0.5j, -1e6])
    with pytest.raises(ResolventSingularError, match="eigenvalue"):
        resolvent(m, [-0.5], [1.0, 0.0], [1.0, 0.0])
    assert np.isfinite(resolvent(m[:1, :1], [-0.5], [1.0], [1.0])).all()


def test_resolvent_guard_reads_only_the_touched_sectors(monkeypatch):
    # a near-exceptional 4x4 block (as above) beside a well-conditioned
    # 3x3 block, hidden under a permutation
    rng = np.random.default_rng(11)
    jordan = np.diag([-0.2 + 0.5j, -0.2 + 0.5j, -0.1, -0.3 - 0.4j])
    jordan[0, 1], jordan[1, 0] = 1.0, 1e-14
    s = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = np.zeros((7, 7), dtype=complex)
    m[:4, :4] = s @ jordan @ np.linalg.inv(s)
    m[4:, 4:] = -np.diag([0.3, 0.5, 0.7]) + 0.1 * rng.normal(size=(3, 3))
    assert np.linalg.cond(np.linalg.eig(m[:4, :4])[1]) > EIGEN_COND_MAX
    perm = rng.permutation(7)
    m = m[np.ix_(perm, perm)]
    omegas = np.linspace(-1.0, 1.0, 41)
    ref = np.array([-np.linalg.inv(m + 1j * w * np.eye(7)) for w in omegas])
    solves = []
    solve = np.linalg.solve

    def counted_solve(a, b):
        solves.append(a.shape)
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counted_solve)
    eye, place = np.eye(7), np.argsort(perm)
    # the near-exceptional block, read and fed: solved per frequency
    idx = place[:4]
    got = resolvent(m, omegas, eye[idx], eye[:, idx])
    assert_close_per_column(got, ref[:, idx][:, :, idx])
    assert len(solves) > omegas.size
    # every row read but only the calm block fed: the near-exceptional
    # block contributes nothing and its cond(V) is not read
    idx = place[4:]
    solves.clear()
    got = resolvent(m, omegas, eye, eye[:, idx])
    assert_close_per_column(got, ref[:, :, idx])
    assert len(solves) < omegas.size


def test_time_response_vanishes_when_probe_commutes_with_steady_state():
    m, v, pops = thermal_two_level()
    rho = steady_state(m).vector
    diag = np.diag([0.3, 0.9])
    for t in (0.0, 1.0, 7.5):
        assert abs(linear_response_time(diag, m, rho, t)) < 1e-14


def test_time_response_rejects_non_stationary_state():
    m, v, pops = thermal_two_level()
    skewed = steady_state(m).vector.copy()
    skewed[0] += 0.2
    skewed[1] -= 0.2
    with pytest.raises(ValueError, match="stationary"):
        linear_response_time(v, m, skewed, 1.0)


def test_time_response_at_zero_for_commuting_pair():
    m, v, pops = thermal_two_level()
    rho = steady_state(m).vector
    # at t = 0 the commutator of V with itself closes the expression
    assert abs(linear_response_time(v, m, rho, 0.0)) < 1e-14


def test_frequency_response_matches_time_domain_fourier_transform():
    params = JunctionParams(mu_1=1.0, mu_2=0.5)
    model = build_junction(params)
    v = dipole_operator(params)
    rho = model.rho_ss.vector
    evals, evecs = np.linalg.eig(model.m)
    vinv = np.linalg.inv(evecs)
    kicked = vinv @ (commutator_superop(v) @ rho)
    one_obs = trace_vector(3) @ left_mult(v) @ evecs
    ts = np.linspace(0.0, 2000.0, 200001)
    modes = np.exp(np.outer(ts, evals))     # (nt, 9)
    r_t = -1j * (modes * (one_obs * kicked)).sum(axis=1)
    omegas = np.array([0.94, 1.0, 1.06])
    spectrum = linear_response_freq(v, model, omegas)
    from scipy.integrate import simpson

    for k, w in enumerate(omegas):
        ft = simpson(r_t * np.exp(1j * w * ts), x=ts)
        assert abs(ft - spectrum.r_full[k]) < 1e-4


def test_two_level_response_matches_analytic_lorentzian():
    omega0, temperature, gamma = 1.0, 0.3, 0.02
    m, v, pops = thermal_two_level(omega0, temperature, gamma)
    analysis = analyze(m)
    gbar = 0.5 * gamma * (1.0 + np.exp(-omega0 / temperature))
    omegas = np.linspace(0.5, 1.5, 101)
    spectrum = linear_response_freq(v, analysis, omegas)
    pg, pe = pops
    expected = -1j * (pg - pe) * (
        lorentzian_pole(omegas - omega0, gbar) - lorentzian_pole(omegas + omega0, gbar)
    )
    assert np.abs(spectrum.r_full - expected).max() < 1e-12
    # absorption line: |Im R| peaks at the transition with half width gbar
    im = spectrum.r_full.imag
    peak = np.argmax(np.abs(im))
    assert omegas[peak] == pytest.approx(omega0, abs=omegas[1] - omegas[0])
    half = np.abs(im[peak]) / 2.0
    crossings = omegas[np.abs(im) >= half]
    assert crossings.max() - crossings.min() == pytest.approx(2 * gbar, rel=0.05)


def test_identity_probe_gives_zero_response():
    m, v, pops = thermal_two_level()
    analysis = analyze(m)
    spectrum = linear_response_freq(np.eye(2), analysis, np.linspace(0.2, 2.0, 50))
    assert np.abs(spectrum.r_full).max() < 1e-14


def test_response_reality_structure_on_symmetric_grid():
    m, v, pops = thermal_two_level()
    analysis = analyze(m)
    omegas = np.linspace(0.3, 1.7, 29)
    plus = linear_response_freq(v, analysis, omegas)
    minus = linear_response_freq(v, analysis, -omegas)
    assert np.abs(minus.r_full - plus.r_full.conj()).max() < 1e-12


def test_split_collapses_at_detailed_balance_thermal_ladder():
    # diagonal Hamiltonian, thermal rates: flux-free, so the whole
    # response sits in the balanced term
    temperature = 0.4
    energies = np.array([0.0, 0.9, 1.7])
    h = np.diag(energies).astype(complex)
    channels = []
    for i in range(2):
        raising = np.zeros((3, 3), dtype=complex)
        raising[i + 1, i] = 1.0
        omega_ij = energies[i + 1] - energies[i]
        channels.append(DissipationChannel(
            raising, 0.05 * np.exp(-omega_ij / temperature), 0.05
        ))
    m = build_liouvillian(h, channels)
    v = np.zeros((3, 3), dtype=complex)
    v[1, 0] = v[0, 1] = 1.0
    v[2, 1] = v[1, 2] = 1.0
    omegas = np.linspace(0.5, 2.0, 151)
    spectrum = response_split(v, analyze(m), omegas)
    assert np.abs(spectrum.r_ne_term).max() < 1e-12
    assert np.abs(spectrum.r_eq_term.imag - spectrum.r_full.imag).max() < 1e-12


def test_split_collapses_at_junction_balanced_point():
    params = JunctionParams(mu_1=1.06, mu_2=0.94)  # equal Fermi factors
    model = build_junction(params)
    omegas = np.linspace(0.85, 1.15, 201)
    spectrum = response_split(dipole_operator(params), model, omegas)
    assert np.abs(spectrum.r_ne_term).max() < 1e-12


def test_split_exactness_for_driven_junction():
    params = JunctionParams(mu_1=1.3, mu_2=0.7)
    model = build_junction(params)
    omegas = np.linspace(0.85, 1.15, 301)
    spectrum = response_split(dipole_operator(params), model, omegas)
    gap = np.abs(spectrum.r_full.imag
                 - (spectrum.r_eq_term + spectrum.r_ne_term).imag).max()
    assert gap <= 1e-9 * np.abs(spectrum.r_full.imag).max()


def test_fluctuation_spectrum_two_level_thermal_weights():
    omega0, temperature, gamma = 1.0, 0.3, 0.02
    m, v, pops = thermal_two_level(omega0, temperature, gamma)
    analysis = analyze(m)
    gbar = 0.5 * gamma * (1.0 + np.exp(-omega0 / temperature))
    pg, pe = pops
    omegas = np.linspace(-1.6, 1.6, 23)
    for w, s in zip(omegas, fluctuation_spectrum(v, analysis, omegas)):
        expected = pg * lorentzian_pole(w - omega0, gbar) + pe * lorentzian_pole(w + omega0, gbar)
        assert s == pytest.approx(expected, abs=1e-12)


def test_fluctuation_spectrum_zero_coupling():
    m, v, pops = thermal_two_level()
    analysis = analyze(m)
    assert fluctuation_spectrum(np.zeros((2, 2)), analysis, [0.7])[0] == 0.0


def test_fluctuation_spectrum_static_observable_regularized():
    # identity coupling projects onto the steady state: the documented
    # epsilon-regularized pole i / (w + i eps)
    m, v, pops = thermal_two_level()
    analysis = analyze(m)
    eps = 1e-4
    omegas = [0.3, -0.8]
    spectrum = fluctuation_spectrum(np.eye(2), analysis, omegas, epsilon=eps)
    for w, s in zip(omegas, spectrum):
        assert s == pytest.approx(1j / (w + 1j * eps), rel=1e-10)


def test_fdr_check_refuses_driven_model():
    model = build_junction(JunctionParams(mu_1=1.3, mu_2=0.7))
    with pytest.raises(NotDetailedBalancedError, match="violation"):
        check_equilibrium_fdr(dipole_operator(model.params), model, 0.3,
                              np.linspace(0.9, 1.1, 11))


def test_fdr_check_skips_zero_frequency():
    m, v, pops = thermal_two_level()
    with pytest.warns(UserWarning, match="omega = 0"):
        report = check_equilibrium_fdr(v, analyze(m), 0.3, np.array([0.0, 0.5, 1.0]))
    assert report.omega.size == 2
    assert 0.0 not in report.omega


def test_fdr_residual_shrinks_linearly_with_damping():
    # the Markovian identity violation is first order in the linewidth
    residuals = []
    for gamma in (0.02, 0.002):
        m, v, pops = thermal_two_level(gamma=gamma)
        report = check_equilibrium_fdr(v, analyze(m), 0.3, np.array([0.5, 0.8, 1.3]))
        residuals.append(np.abs(report.lhs - report.rhs.real).max())
    ratio = residuals[0] / residuals[1]
    assert ratio == pytest.approx(10.0, rel=0.3)


def test_spectra_reject_non_hermitian_coupling():
    # a detailed-balanced model, so the fdr check reaches the coupling
    m, _, _ = thermal_two_level()
    analysis, omegas = analyze(m), np.array([0.5, 1.0])
    spectra = (linear_response_freq, response_split, fluctuation_spectrum,
               lambda v, a, w: check_equilibrium_fdr(v, a, 0.3, w))
    for spectrum in spectra:
        with pytest.raises(ValueError, match="coupling is not Hermitian"):
            spectrum(np.array([[0.0, 1.0], [0.0, 0.0]]), analysis, omegas)


@pytest.mark.parametrize("key", [(1.0, 1.0), (1.0, 0.5), (1.3, 0.7),
                                 "flux_fivelevel.yaml"], ids=str)
def test_response_is_the_antisymmetric_part_of_the_fluctuations(key):
    # Kubo: R(t) = -i <[V(t), V]> = 2 Im <V(t) V> under the regression
    # rule, so R(w) = -i [S(w) - S(-w)*] on any generator
    if isinstance(key, str):
        config = load_config(str(resources.files("curlflux") / "configs" / key))
        analysis, v = _model(config, True)
        omegas = config.omega_grid
    else:
        params = JunctionParams(mu_1=key[0], mu_2=key[1])
        analysis, v = build_junction(params), dipole_operator(params)
        omegas = np.linspace(0.85, 1.15, 301)
    r = linear_response_freq(v, analysis, omegas).r_full
    kubo = -1j * (fluctuation_spectrum(v, analysis, omegas)
                  - fluctuation_spectrum(v, analysis, -omegas).conj())
    assert np.abs(r - kubo).max() <= 1e-13 * np.abs(r).max()


def per_row_spectrum_csv(spectrum):
    lines = ["omega,re_full,im_full,im_eq,im_ne"]
    zeros = np.zeros(spectrum.omega.size)
    eq = spectrum.r_eq_term.imag if spectrum.r_eq_term is not None else zeros
    ne = spectrum.r_ne_term.imag if spectrum.r_ne_term is not None else zeros
    for w, rf, ie, in_ in zip(spectrum.omega, spectrum.r_full, eq, ne):
        lines.append(
            "%.17g,%.17g,%.17g,%.17g,%.17g" % (w, rf.real, rf.imag, ie, in_)
        )
    return "\n".join(lines) + "\n"


def test_spectrum_csv_bytes_match_per_row_formatter():
    params = JunctionParams(mu_1=1.0, mu_2=0.5)
    v = dipole_operator(params)
    split = response_split(v, build_junction(params),
                           np.linspace(0.85, 1.15, 301))
    m, v, _ = thermal_two_level()
    full = linear_response_freq(v, analyze(m), np.linspace(-2, 2, 101))
    signed = ResponseSpectrum(
        omega=np.array([-0.0, 0.0, 1e-300, 2.0 / 3.0]),
        r_full=np.array([-0.0 - 0.0j, 0.0 - 0.0j, -1e17 + 1.5e-17j, np.pi]),
        r_eq_term=np.array([0.0 - 0.0j, 1j, -0.0j, np.e * 1j]),
        r_ne_term=np.array([0.0j, -1j, 0.0j, -np.e * 1j]),
    )
    for spectrum in (split, full, signed):
        assert spectrum_to_csv(spectrum) == per_row_spectrum_csv(spectrum)
    assert "-0," in spectrum_to_csv(signed)


def test_spectrum_csv_format():
    m, v, pops = thermal_two_level()
    analysis = analyze(m)
    spec = linear_response_freq(v, analysis, np.array([0.5, 1.0]))
    text = spectrum_to_csv(spec)
    lines = text.strip().split("\n")
    assert lines[0] == "omega,re_full,im_full,im_eq,im_ne"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert float(first[0]) == 0.5
    assert float(first[3]) == 0.0 and float(first[4]) == 0.0
