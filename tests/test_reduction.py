import numpy as np
import pytest
from hypothesis import given, settings
from scipy.linalg import block_diag

import curlflux.reduction as reduction
from curlflux.cli import _analyze
from curlflux.config import _junction_model, load_config
from curlflux.junction import JunctionParams
from curlflux.liouville import DissipationChannel, build_generator, vectorize
from curlflux.reduction import (
    Analysis,
    NonDecayingCoherenceError,
    NonUniqueSteadyStateError,
    analyze,
)

from helpers import (
    build_liouvillian,
    coherence_map,
    dense_k,
    dense_steady_state,
    effective_rate_matrix,
    generator_blocks,
    generator_of,
    gth_reduce,
    memory_kernel,
    propagate,
    random_ladder,
    random_ladder_model,
    random_lindblad_model,
    random_rate_matrix,
    rate_steady_state,
    steady_state,
    to_dense,
)
from junction_oracles import build_junction
from test_liouville import generator_inputs, run_file_paths


def random_generator(rng, d=3):
    return random_lindblad_model(rng, dim=d)[2]


def test_coherence_map_defining_residual():
    rng = np.random.default_rng(10)
    for _ in range(10):
        m = random_generator(rng)
        _, _, m_cp, m_c = generator_blocks(m)
        k = coherence_map(m)
        assert np.abs(m_c @ k + m_cp).max() < 1e-12


def test_coherence_map_vanishes_without_coupling():
    rng = np.random.default_rng(11)
    uncoupled = random_generator(rng)
    uncoupled[3:, :3] = 0.0
    assert np.abs(coherence_map(uncoupled)).max() == 0.0


def test_non_decaying_coherence_raises():
    # degenerate levels without dissipation: the coherence block is zero
    m = build_liouvillian(np.eye(2, dtype=complex), [])
    with pytest.raises(NonDecayingCoherenceError, match="singular"):
        coherence_map(m)


def test_effective_rate_matrix_columns_sum_to_zero():
    rng = np.random.default_rng(12)
    for _ in range(10):
        l = effective_rate_matrix(random_generator(rng))
        assert np.abs(l.sum(axis=0)).max() < 1e-12
        assert np.abs(l.imag).max() < 1e-10


def test_effective_rate_matrix_reduces_to_population_block_without_hopping():
    model = build_junction(JunctionParams(mu_1=1.2, mu_2=0.8, delta=0.0))
    assert np.abs(model.l_matrix - to_dense(model.generator)[:3, :3]).max() < 1e-15


def test_memory_kernel_decays_at_large_laplace_argument():
    rng = np.random.default_rng(13)
    m = random_generator(rng)
    assert np.linalg.norm(memory_kernel(m, 1e8)) < 1e-6


def test_memory_kernel_at_zero_matches_rate_correction():
    rng = np.random.default_rng(14)
    for _ in range(5):
        m = random_generator(rng)
        l = effective_rate_matrix(m)
        assert np.abs(memory_kernel(m, 0.0) + m[:3, :3] - l).max() < 1e-12


def test_memory_kernel_imaginary_axis_profile():
    # sweep along s = i w: kernel magnitude peaks where the coherence
    # frequencies sit, and matches the eigendecomposition evaluation
    model = build_junction(JunctionParams(mu_1=1.0, mu_2=0.5))
    _, m_pc, m_cp, m_c = generator_blocks(to_dense(model.generator))
    evals, evecs = np.linalg.eig(m_c)
    vinv = np.linalg.inv(evecs)
    ws = np.linspace(-0.3, 0.3, 241)
    norms = np.empty(ws.size)
    for i, w in enumerate(ws):
        kernel = memory_kernel(to_dense(model.generator), 1j * w)
        oracle = m_pc @ (evecs @ np.diag(1.0 / (1j * w - evals)) @ vinv) @ m_cp
        assert np.abs(kernel - oracle).max() < 1e-13
        norms[i] = np.linalg.norm(kernel)
    peak = abs(ws[np.argmax(norms)])
    assert peak == pytest.approx(model.params.omega_1 - model.params.omega_2,
                                 abs=ws[1] - ws[0])


def test_memory_kernel_singular_laplace_point():
    rng = np.random.default_rng(19)
    m = random_generator(rng)
    pole = np.linalg.eigvals(generator_blocks(m)[3])[0]
    with pytest.raises(NonDecayingCoherenceError, match="resolvent"):
        memory_kernel(m, pole)


def test_two_state_steady_balance():
    k_up, k_dn = 0.3, 0.7
    l = np.array([[-k_up, k_dn], [k_up, -k_dn]])
    pops = rate_steady_state(l).vector
    assert np.allclose(pops, [k_dn / (k_up + k_dn), k_up / (k_up + k_dn)], atol=1e-14)


def test_junction_steady_state_matches_long_time_propagation():
    model = build_junction(JunctionParams(mu_1=1.3, mu_2=0.7))
    rho0 = vectorize(np.diag([1.0, 0.0, 0.0]).astype(complex))
    horizon = 1e4 / model.params.gamma
    evolved = propagate(to_dense(model.generator), rho0, horizon)
    assert np.abs(evolved - vectorize(model.rho_ss)).max() < 1e-8


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
        k = coherence_map(m)
        # stationarity makes the coherences an exact image of the populations
        assert np.abs(ss.vector[d:] - k @ ss.vector[:d]).max() < 1e-10
        # and the reduced rate matrix annihilates the stationary populations
        l = effective_rate_matrix(m)
        assert np.abs(l @ ss.vector[:d]).max() < 1e-10


def _assert_matches_full_null_vector(m):
    ref = dense_steady_state(m).vector
    rho = steady_state(m)
    assert np.abs(rho.vector - ref).max() <= 1e-12 * np.abs(ref).max()
    assert rho.residual <= 1e-10


# the ids keep the "-True" under which these cases ran beside a second,
# since retired, coherence-decay pairing
@pytest.mark.parametrize("mu", [(1.0, 1.0), (1.06, 0.94), (1.0, 0.5)],
                         ids=["mu0-True", "mu1-True", "mu2-True"])
def test_analyze_steady_state_matches_full_generator_junction(mu):
    model = build_junction(JunctionParams(mu_1=mu[0], mu_2=mu[1]))
    _assert_matches_full_null_vector(to_dense(model.generator))


@pytest.mark.parametrize("dim", [3, 5, 8])
def test_analyze_steady_state_matches_full_generator_random(dim):
    _, _, m = random_lindblad_model(np.random.default_rng(20 + dim), dim=dim)
    # vectorize(rho_ss) is the dense generator's null vector
    _assert_matches_full_null_vector(m)
    analysis = analyze(generator_of(m))
    rho = analysis.rho_ss
    # the stationary density matrix as a d x d operator of trace 1
    assert rho.shape == (dim, dim)
    assert abs(np.trace(rho) - 1.0) <= dim * np.finfo(float).eps
    # K p alone is Hermitian only to rounding on these models
    assert np.array_equal(rho, rho.conj().T)
    assert np.array_equal(np.diag(rho), analysis.populations)


def _rate_graph(energies, edges):
    # diagonal Hamiltonian with one channel per (lower, upper, rate_up,
    # rate_down) edge
    channels = []
    for lower, upper, rate_up, rate_down in edges:
        channels.append(DissipationChannel(upper, lower, rate_up, rate_down))
    return build_liouvillian(np.diag(energies).astype(complex), channels)


def _disconnected_rate_graph():
    # two separate two-level pairs: every coherence decays, L has two zeros
    return _rate_graph([0.0, 1.0, 2.5, 4.0],
                       [(0, 1, 0.01, 0.02), (2, 3, 0.01, 0.02)])


def _edge_rate_graphs():
    # three levels a < b < c: no uphill rate, no downhill rate, and b
    # emptying into both a and c, two closed classes
    levels = [0.0, 1.0, 2.5]
    return {
        "rate-up-0": _rate_graph(levels, [(0, 1, 0.0, 0.02), (1, 2, 0.0, 0.03)]),
        "rate-down-0": _rate_graph(levels, [(0, 1, 0.01, 0.0), (1, 2, 0.02, 0.0)]),
        "two-closed-classes": _rate_graph(levels, [(0, 1, 0.0, 0.02),
                                                   (1, 2, 0.01, 0.0)]),
    }


def _steady_state_cases():
    for mu in ((1.0, 1.0), (1.06, 0.94), (1.0, 0.5)):
        model = build_junction(JunctionParams(mu_1=mu[0], mu_2=mu[1]))
        # the "-True" id suffix is kept from a retired second pairing
        yield "junction-%g-%g-True" % mu, to_dense(model.generator)
    for dim in (3, 5, 8):
        yield "lindblad-%d" % dim, random_lindblad_model(
            np.random.default_rng(30 + dim), dim=dim)[2]
    for dim in (3, 8, 16, 24):
        yield "ladder-%d" % dim, random_ladder_model(
            np.random.default_rng(40 + dim), dim)[2]
    # one closed class and empty levels; rate-down-0's first zero pivot,
    # at c, restarts the reduction there
    for name in ("rate-up-0", "rate-down-0"):
        yield name, _edge_rate_graphs()[name]


@pytest.mark.parametrize("m", [pytest.param(m, id=name)
                               for name, m in _steady_state_cases()])
def test_sectored_steady_state_matches_dense_oracle(m):
    got, ref = steady_state(m), dense_steady_state(m)
    assert np.abs(got.vector - ref.vector).max() <= 1e-12 * np.abs(ref.vector).max()
    assert got.residual <= 1e-10


@pytest.mark.parametrize("m, error, message", [
    # two separate pairs: _eliminate finds the populations in two sectors
    (_disconnected_rate_graph(), NonUniqueSteadyStateError,
     "non-unique steady state: the populations fall into 2 disconnected "
     "sectors"),
    # degenerate levels, no channel: every coherence is an undamped sector,
    # which the coherence check refuses first
    (build_liouvillian(np.eye(2, dtype=complex), []), NonDecayingCoherenceError,
     "coherence block is singular: eigenvalue 0j has magnitude 0.000e+00"),
    # one sector, but a second zero pivot: the reduction restarted at c
    # finds a, which cannot reach c
    (_edge_rate_graphs()["two-closed-classes"], NonUniqueSteadyStateError,
     "non-unique steady state: states 2 and 0 of the rate matrix lie in "
     "two closed classes"),
], ids=["disconnected", "undamped-coherence", "two-closed-classes"])
def test_sectored_steady_state_refuses_like_dense_oracle(m, error, message):
    with pytest.raises(NonUniqueSteadyStateError):
        dense_steady_state(m)
    with pytest.raises(error) as got:
        steady_state(m)
    assert str(got.value) == message


def test_steady_state_decomposes_a_one_sector_generator_once(monkeypatch):
    # a dense Hamiltonian joins every index into one sector: its steady
    # state takes no eigendecomposition, and the coherence check one
    # eigenvalue pass of the 12 x 12 coherence block
    _, _, m = random_lindblad_model(np.random.default_rng(50), dim=4)
    calls = []
    for name in ("eig", "eigvals"):
        real = getattr(np.linalg, name)

        def watched(a, _real=real, _name=name):
            calls.append((_name, np.shape(a)[-1]))
            return _real(a)

        monkeypatch.setattr(np.linalg, name, watched)
    ss = steady_state(m)
    assert calls == [("eigvals", 12)]
    assert ss.residual <= 1e-12


def test_analyze_refuses_disconnected_generator():
    # two identical pairs; then a level no channel reaches, and two pairs
    # at different rates, where LAPACK returns one of the two zero
    # eigenvalues as an exact 0.0 and the gap rule alone passes
    for m in (_disconnected_rate_graph(),
              _rate_graph([0.0, 1.0, 2.0], [(0, 1, 0.01, 0.02)]),
              _rate_graph([0.0, 1.0, 2.0, 3.0],
                          [(0, 1, 0.01, 0.02), (2, 3, 0.02, 0.01)])):
        with pytest.raises(NonUniqueSteadyStateError,
                           match="non-unique .* fall into 2 disconnected sectors"):
            analyze(generator_of(m))


def test_analyze_takes_a_one_level_generator_as_its_own_steady_state():
    # no coherence, so no coherence eigenvalue to check
    analysis = analyze(build_generator(np.zeros((1, 1)), []))
    assert np.array_equal(analysis.populations, [1.0])
    assert np.array_equal(analysis.rho_ss, [[1.0]])
    assert analysis.k_fed.shape == (0, 1)


def test_analyze_refuses_non_decaying_coherence():
    with pytest.raises(NonDecayingCoherenceError, match="singular"):
        analyze(generator_of(build_liouvillian(np.eye(2, dtype=complex), [])))


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
    analyze(generator_of(m))
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
    analysis = analyze(generator_of(m))
    assert solves == []
    assert not np.any(dense_k(analysis))
    assert np.array_equal(analysis.l_matrix, to_dense(analysis.generator)[:12, :12])
    # the junction's populations share a sector with rho_e1e2 and rho_e2e1
    model = build_junction(JunctionParams(mu_1=1.0, mu_2=0.5))
    assert solves == [(2, 2)]
    _, _, m_cp, m_c = generator_blocks(to_dense(model.generator))
    dense = -solve(m_c, m_cp)
    assert np.abs(dense_k(model) - dense).max() <= 1e-14 * np.abs(dense).max()
    # a coherence that reaches the populations through the last one alone
    # still enters the solve
    m = np.diag(-1.0 - 0.5j * np.arange(9))
    m[0, 1] = m[1, 0] = m[1, 2] = m[2, 1] = 0.2
    m[5, 2], m[2, 5] = 0.3, 0.1
    _, _, m_cp, m_c = generator_blocks(m)
    dense = -solve(m_c, m_cp)
    assert np.abs(coherence_map(m) - dense).max() <= 1e-15
    assert np.abs(dense[2]).max() > 0.1


def test_junction_model_is_an_analysis():
    model = _analyze(_junction_model(JunctionParams(mu_1=1.0, mu_2=0.5)))
    assert isinstance(model, Analysis)
    assert np.array_equal(model.populations, vectorize(model.rho_ss)[:3].real)


def relative_residual(analysis):
    """max_n |(L p)_n / (L_nn p_n)| over the populated levels: what
    s_d + v_ss + 1 equals."""
    rates, pops = analysis.l_matrix.real, analysis.populations
    live = pops > 0
    return np.abs((rates @ pops)[live]
                  / (np.diagonal(rates) * pops)[live]).max()


@settings(max_examples=80, deadline=None, derandomize=True)
@given(generator_inputs())
def test_steady_state_is_relatively_stationary_on_every_generator(case):
    # every draw analyzes; its populations are stationary level by level
    # to rounding, and its steady state is the dense null vector
    gen, m = case
    analysis = analyze(gen)
    assert relative_residual(analysis) <= 1e-14
    ref = dense_steady_state(m).vector
    assert (np.abs(vectorize(analysis.rho_ss) - ref).max()
            <= 1e-12 * np.abs(ref).max())


def test_steady_state_is_relatively_stationary_on_every_run_file(tmp_path):
    for path in run_file_paths(tmp_path):
        for _, model in load_config(path).points:
            assert relative_residual(_analyze(model)) <= 1e-14, path


def _state_by_state(monkeypatch):
    # _populations with the state-by-state reduction in place of the
    # recursive one: the same restart and back substitution
    monkeypatch.setattr(reduction, "_reduce", lambda a, lo, hi: gth_reduce(a))


@pytest.mark.parametrize("dim", [8, 41, 80])
def test_recursive_state_reduction_matches_state_by_state(monkeypatch, dim):
    # the recursion adds each half's updates in matrix products: the same
    # terms summed in another order, so the populations agree entry by
    # entry with a reduction that updates every state state by state
    h, channels, _ = random_ladder(np.random.default_rng(60 + dim), dim)
    rates = analyze(build_generator(h, channels)).l_matrix
    recursive = reduction._populations(rates)
    _state_by_state(monkeypatch)
    oracle = reduction._populations(rates)
    assert np.abs(recursive / oracle - 1.0).max() <= 1e-13
    assert (np.abs((rates @ recursive) / (np.diagonal(rates) * recursive))
            .max() <= 1e-14)
    ref = rate_steady_state(rates).vector
    assert np.abs(recursive - ref).max() <= 1e-12 * ref.max()


@pytest.mark.parametrize("closed", [(6, 8), (2, 7)],
                         ids=["upper-half", "lower-half"])
def test_recursive_state_reduction_restarts_where_state_by_state_does(
        monkeypatch, closed):
    # random rates on 9 states with no rate out of the class `closed`:
    # its lowest state meets the first zero pivot, in the upper half 5..8
    # or the lower half 1..4 of the states 1..8 that the reduction halves
    rates = random_rate_matrix(np.random.default_rng(9), 9)
    rates[np.ix_(np.setdiff1d(np.arange(9), closed), closed)] = 0.0
    np.fill_diagonal(rates, 0.0)
    np.fill_diagonal(rates, -rates.sum(axis=0))
    first = reduction._reduce(np.array(rates.T), 1, 9)
    assert first == gth_reduce(np.array(rates.T)) == closed[0]
    recursive = reduction._populations(rates)
    _state_by_state(monkeypatch)
    oracle = reduction._populations(rates)
    # the states outside the class hold exactly nothing
    live = np.isin(np.arange(9), closed)
    assert np.array_equal(recursive > 0, live)
    assert np.array_equal(oracle > 0, live)
    assert np.abs(recursive[live] / oracle[live] - 1.0).max() <= 1e-13
    assert (np.abs((rates @ recursive)[live]
                   / (np.diagonal(rates) * recursive)[live]).max() <= 1e-14)
    ref = rate_steady_state(rates).vector
    assert np.abs(recursive - ref).max() <= 1e-12 * ref.max()
