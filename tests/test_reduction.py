import numpy as np
import pytest
from scipy.linalg import block_diag

import curlflux.reduction as reduction
from curlflux.junction import JunctionParams, build_junction
from curlflux.liouville import (
    DissipationChannel,
    build_liouvillian,
    devectorize,
    partition,
    vectorize,
)
from curlflux.reduction import (
    Analysis,
    NonDecayingCoherenceError,
    NonUniqueSteadyStateError,
    analyze,
    rate_steady_state,
    steady_state,
)

from helpers import (
    coherence_map,
    effective_rate_matrix,
    memory_kernel,
    propagate,
    random_ladder_model,
    random_lindblad_model,
)


def random_blocks(rng, d=3):
    _, _, m = random_lindblad_model(rng, dim=d)
    return partition(m)


def test_coherence_map_defining_residual():
    rng = np.random.default_rng(10)
    for _ in range(10):
        blocks = random_blocks(rng)
        k = coherence_map(blocks)
        assert np.abs(blocks.m_c @ k + blocks.m_cp).max() < 1e-12


def test_coherence_map_vanishes_without_coupling():
    rng = np.random.default_rng(11)
    blocks = random_blocks(rng)
    from dataclasses import replace

    uncoupled = replace(blocks, m_cp=np.zeros_like(blocks.m_cp))
    assert np.abs(coherence_map(uncoupled)).max() == 0.0


def test_non_decaying_coherence_raises():
    # degenerate levels without dissipation: the coherence block is zero
    m = build_liouvillian(np.eye(2, dtype=complex), [])
    with pytest.raises(NonDecayingCoherenceError, match="singular"):
        coherence_map(partition(m))


def test_effective_rate_matrix_columns_sum_to_zero():
    rng = np.random.default_rng(12)
    for _ in range(10):
        l = effective_rate_matrix(random_blocks(rng))
        assert np.abs(l.sum(axis=0)).max() < 1e-12
        assert np.abs(l.imag).max() < 1e-10


def test_effective_rate_matrix_reduces_to_population_block_without_hopping():
    model = build_junction(JunctionParams(mu_1=1.2, mu_2=0.8, delta=0.0))
    assert np.abs(model.l_matrix - model.blocks.m_p).max() < 1e-15


def test_memory_kernel_decays_at_large_laplace_argument():
    rng = np.random.default_rng(13)
    blocks = random_blocks(rng)
    assert np.linalg.norm(memory_kernel(blocks, 1e8)) < 1e-6


def test_memory_kernel_at_zero_matches_rate_correction():
    rng = np.random.default_rng(14)
    for _ in range(5):
        blocks = random_blocks(rng)
        l = effective_rate_matrix(blocks)
        assert np.abs(memory_kernel(blocks, 0.0) + blocks.m_p - l).max() < 1e-12


def test_memory_kernel_imaginary_axis_profile():
    # sweep along s = i w: kernel magnitude peaks where the coherence
    # frequencies sit, and matches the eigendecomposition evaluation
    model = build_junction(JunctionParams(mu_1=1.0, mu_2=0.5))
    blocks = model.blocks
    evals, evecs = np.linalg.eig(blocks.m_c)
    vinv = np.linalg.inv(evecs)
    ws = np.linspace(-0.3, 0.3, 241)
    norms = np.empty(ws.size)
    for i, w in enumerate(ws):
        kernel = memory_kernel(blocks, 1j * w)
        oracle = blocks.m_pc @ (evecs @ np.diag(1.0 / (1j * w - evals)) @ vinv) @ blocks.m_cp
        assert np.abs(kernel - oracle).max() < 1e-13
        norms[i] = np.linalg.norm(kernel)
    peak = abs(ws[np.argmax(norms)])
    assert peak == pytest.approx(model.params.omega_e1e2, abs=ws[1] - ws[0])


def test_memory_kernel_singular_laplace_point():
    rng = np.random.default_rng(19)
    blocks = random_blocks(rng)
    pole = np.linalg.eigvals(blocks.m_c)[0]
    with pytest.raises(NonDecayingCoherenceError, match="resolvent"):
        memory_kernel(blocks, pole)


def test_two_state_steady_balance():
    k_up, k_dn = 0.3, 0.7
    l = np.array([[-k_up, k_dn], [k_up, -k_dn]])
    pops = rate_steady_state(l).vector
    assert np.allclose(pops, [k_dn / (k_up + k_dn), k_up / (k_up + k_dn)], atol=1e-14)


def test_junction_steady_state_matches_long_time_propagation():
    model = build_junction(JunctionParams(mu_1=1.3, mu_2=0.7))
    rho0 = vectorize(np.diag([1.0, 0.0, 0.0]).astype(complex))
    horizon = 1e4 / model.params.gamma
    assert np.abs(propagate(model.m, rho0, horizon) - model.rho_ss.vector).max() < 1e-8


def test_junction_detailed_balance_at_equal_fermi_factors():
    # pairwise balance needs equal electrode occupations at the two
    # transition energies, i.e. a bias equal to the level splitting
    params = JunctionParams(mu_1=1.06, mu_2=0.94)
    model = build_junction(params)
    l, p = model.l_matrix.real, model.populations
    for n in range(3):
        for m_ in range(3):
            if n != m_:
                assert l[n, m_] * p[m_] == pytest.approx(l[m_, n] * p[n], abs=1e-10)


def test_steady_state_uniqueness_check():
    two_state = np.array([[-0.2, 0.1], [0.2, -0.1]])
    disconnected = block_diag(two_state, two_state)
    with pytest.raises(NonUniqueSteadyStateError, match="non-unique"):
        rate_steady_state(disconnected)


def test_propagate_identity_at_zero_time():
    rng = np.random.default_rng(15)
    _, _, m = random_lindblad_model(rng)
    rho0 = rng.normal(size=9) + 1j * rng.normal(size=9)
    assert np.array_equal(propagate(m, rho0, 0.0), rho0)


def test_propagate_converges_to_null_vector():
    rng = np.random.default_rng(16)
    _, _, m = random_lindblad_model(rng)
    ss = steady_state(m)
    rho0 = vectorize(np.diag([1.0, 0.0, 0.0]).astype(complex))
    assert np.abs(propagate(m, rho0, 5e4) - ss.vector).max() < 1e-8


def test_propagate_semigroup_property():
    rng = np.random.default_rng(17)
    _, _, m = random_lindblad_model(rng)
    rho0 = vectorize(np.diag([0.2, 0.5, 0.3]).astype(complex))
    for _ in range(5):
        t1, t2 = rng.uniform(0.0, 10.0, size=2)
        once = propagate(m, rho0, t1 + t2)
        twice = propagate(m, propagate(m, rho0, t1), t2)
        assert np.abs(once - twice).max() < 1e-10


def test_steady_state_properties_random_models():
    rng = np.random.default_rng(18)
    for _ in range(10):
        _, _, m = random_lindblad_model(rng, dim=int(rng.integers(2, 5)))
        d = int(round(np.sqrt(m.shape[0])))
        ss = steady_state(m)
        assert ss.residual < 1e-12
        assert ss.vector[:d].sum().real == pytest.approx(1.0, abs=1e-13)
        blocks = partition(m)
        k = coherence_map(blocks)
        # stationarity makes the coherences an exact image of the populations
        assert np.abs(ss.vector[d:] - k @ ss.vector[:d]).max() < 1e-10
        # and the reduced rate matrix annihilates the stationary populations
        l = effective_rate_matrix(blocks)
        assert np.abs(l @ ss.vector[:d]).max() < 1e-10


def _assert_matches_full_null_vector(m):
    ref = steady_state(m).vector
    rho = analyze(m).rho_ss
    assert np.abs(rho.vector - ref).max() <= 1e-12 * np.abs(ref).max()
    assert rho.residual <= 1e-10


@pytest.mark.parametrize("strict", [True, False])
@pytest.mark.parametrize("mu", [(1.0, 1.0), (1.06, 0.94), (1.0, 0.5)])
def test_analyze_steady_state_matches_full_generator_junction(mu, strict):
    model = build_junction(JunctionParams(mu_1=mu[0], mu_2=mu[1]), strict)
    _assert_matches_full_null_vector(model.m)


@pytest.mark.parametrize("dim", [3, 5, 8])
def test_analyze_steady_state_matches_full_generator_random(dim):
    _, _, m = random_lindblad_model(np.random.default_rng(20 + dim), dim=dim)
    _assert_matches_full_null_vector(m)
    analysis = analyze(m)
    rho = devectorize(analysis.rho_ss.vector)
    # K p alone is Hermitian only to rounding on these models
    assert np.array_equal(rho, rho.conj().T)
    assert np.array_equal(np.diag(rho), analysis.populations)


def test_analyze_refuses_disconnected_generator():
    # two separate two-level pairs: every coherence decays, L has two zeros
    h = np.diag([0.0, 1.0, 2.5, 4.0]).astype(complex)
    channels = []
    for lower, upper in ((0, 1), (2, 3)):
        raising = np.zeros((4, 4), dtype=complex)
        raising[upper, lower] = 1.0
        channels.append(DissipationChannel(raising, 0.01, 0.02))
    with pytest.raises(NonUniqueSteadyStateError, match="non-unique"):
        analyze(build_liouvillian(h, channels))


def test_analyze_refuses_non_decaying_coherence():
    with pytest.raises(NonDecayingCoherenceError, match="singular"):
        analyze(build_liouvillian(np.eye(2, dtype=complex), []))


def test_analyze_checks_and_solves_the_coherence_block_once(monkeypatch):
    calls = {"check": 0, "solve": 0}
    check, solve = reduction._check_coherence_block, np.linalg.solve

    def counted_check(m_c):
        calls["check"] += 1
        return check(m_c)

    def counted_solve(a, b):
        calls["solve"] += 1
        return solve(a, b)

    monkeypatch.setattr(reduction, "_check_coherence_block", counted_check)
    monkeypatch.setattr(np.linalg, "solve", counted_solve)
    _, _, m = random_lindblad_model(np.random.default_rng(30), dim=4)
    analyze(m)
    assert calls == {"check": 1, "solve": 1}


def test_elimination_solves_only_coherences_that_share_a_sector_with_populations(
        monkeypatch):
    solves = []
    solve = np.linalg.solve

    def counted_solve(a, b):
        solves.append(a.shape)
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counted_solve)
    # a ladder's coherences are sectors of their own: K = 0 without a solve
    _, _, m, _ = random_ladder_model(np.random.default_rng(60), 12)
    analysis = analyze(m)
    assert solves == []
    assert not np.any(analysis.k_map)
    assert np.array_equal(analysis.l_matrix, analysis.blocks.m_p)
    # the junction's populations share a sector with rho_e1e2 and rho_e2e1
    model = build_junction(JunctionParams(mu_1=1.0, mu_2=0.5))
    assert solves == [(2, 2)]
    dense = -solve(model.blocks.m_c, model.blocks.m_cp)
    assert np.abs(model.k_map - dense).max() <= 1e-14 * np.abs(dense).max()
    # a sector whose only population is the last one still enters the solve
    m = np.diag(-1.0 - 0.5j * np.arange(9))
    m[5, 2], m[2, 5] = 0.3, 0.1
    blocks = partition(m)
    dense = -solve(blocks.m_c, blocks.m_cp)
    assert np.abs(coherence_map(blocks) - dense).max() <= 1e-15
    assert np.abs(dense[2]).max() > 0.1


def test_junction_model_is_an_analysis():
    model = build_junction(JunctionParams(mu_1=1.0, mu_2=0.5))
    assert isinstance(model, Analysis)
    assert np.array_equal(model.populations, model.rho_ss.vector[:3].real)
