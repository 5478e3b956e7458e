import importlib.util
import tracemalloc
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curlflux.cli import _analyze
from curlflux.config import load_config
from curlflux.flux import is_detailed_balanced, reconstruct_flux
from curlflux.liouville import (
    DissipationChannel,
    build_generator,
    sector_labels,
    sector_modes,
    vectorize,
)
from curlflux.junction import JunctionParams
from curlflux.reduction import analyze
from helpers import (
    build_liouvillian,
    commutator_superop,
    dense_k,
    dense_raising,
    devectorize,
    generator_blocks,
    generator_of,
    index_pairs,
    kron_liouvillian,
    left_mult,
    propagate,
    random_density_matrix,
    random_hermitian,
    random_ladder,
    random_ladder_model,
    random_lindblad_model,
    right_mult,
    sector_indices,
    sectors,
    to_dense,
    trace_vector,
)
from junction_oracles import build_junction
from test_tools import _tool

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)


def test_vectorize_maximally_mixed():
    v = vectorize(np.eye(2) / 2)
    assert np.allclose(v[:2], [0.5, 0.5])
    assert np.allclose(v[2:], 0.0)


def test_vectorize_matrix_unit_hits_single_coherence_slot():
    labels = ("g", "e1", "e2")
    g, e1 = labels.index("g"), labels.index("e1")
    rho = np.zeros((3, 3), dtype=complex)
    rho[g, e1] = 1.0
    v = vectorize(rho)
    slot = index_pairs(len(labels)).index((g, e1))
    expected = np.zeros(9)
    expected[slot] = 1.0
    assert np.array_equal(v, expected)


def test_vectorize_roundtrip_is_exact():
    rng = np.random.default_rng(0)
    for dim in (2, 3, 5):
        rho = random_hermitian(rng, dim)
        assert np.array_equal(devectorize(vectorize(rho)), rho)


def test_permutation_is_the_population_first_order():
    for dim in (1, 2, 3, 5, 8):
        assert vectorize(np.arange(dim * dim).reshape(dim, dim)).tolist() == [
            n * dim + m for n, m in index_pairs(dim)]


def test_the_liouville_order_holds_no_per_index_objects():
    # a diagonal d = 509 ladder, a size no other test builds: once the
    # generator and the vector are dropped, nothing of the order stays
    # held (two d**2 int64 index maps would hold 4.2 MB)
    h, channels, _ = random_ladder(np.random.default_rng(509), 509)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        generator, vec = build_generator(h, channels), vectorize(h)
        del generator, vec
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 5e5, "held traced allocation %.2f MB" % (held / 1e6)


def test_inner_product_trace_normalization():
    rng = np.random.default_rng(1)
    rho = random_density_matrix(rng, 4)
    one = trace_vector(4)
    assert np.vdot(one.astype(complex), vectorize(rho)) == pytest.approx(1.0)


def test_inner_product_pauli_orthogonality():
    assert np.vdot(vectorize(SX), vectorize(SY)) == pytest.approx(0.0)


def test_inner_product_frobenius_norm():
    a = np.array([[1, 1j], [0, 0]], dtype=complex)
    assert np.vdot(vectorize(a), vectorize(a)) == pytest.approx(2.0)


def test_multiplication_superoperators_match_dense_products():
    rng = np.random.default_rng(2)
    v = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    rho = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    assert np.abs(left_mult(v) @ vectorize(rho) - vectorize(v @ rho)).max() < 1e-14
    assert np.abs(right_mult(v) @ vectorize(rho) - vectorize(rho @ v)).max() < 1e-14
    assert np.abs(
        commutator_superop(v) @ vectorize(rho) - vectorize(v @ rho - rho @ v)
    ).max() < 1e-14


def test_commutator_with_identity_vanishes():
    rng = np.random.default_rng(3)
    rho = random_density_matrix(rng, 3)
    assert np.abs(commutator_superop(np.eye(3)) @ vectorize(rho)).max() < 1e-15


def test_left_mult_flips_ground_state_projector():
    ket0 = np.zeros((2, 2), dtype=complex)
    ket0[0, 0] = 1.0
    flipped = devectorize(left_mult(SX) @ vectorize(ket0))
    expected = np.zeros((2, 2), dtype=complex)
    expected[1, 0] = 1.0
    assert np.array_equal(flipped, expected)


def test_two_level_decay_structure():
    omega, gamma = 1.3, 0.08
    h = np.diag([0.0, omega]).astype(complex)
    m = to_dense(build_generator(h, [DissipationChannel(1, 0, 0.0, gamma)]))
    # population block: gain/loss at rate gamma
    assert np.allclose(m[:2, :2], [[0.0, gamma], [0.0, -gamma]])
    # coherence slots (g,e) and (e,g): decay gamma/2, frequencies +-omega
    assert m[2, 2] == pytest.approx(1j * omega - gamma / 2)
    assert m[3, 3] == pytest.approx(-1j * omega - gamma / 2)


def per_channel_liouvillian(h, channels):
    """Oracle: each jump as L(J) @ R(J^dag) - (L(J^dag J) + R(J^dag J)) / 2."""
    m = -1j * commutator_superop(h)
    for ch in channels:
        raising = dense_raising(ch, h.shape[0])
        for jump, rate in ((raising, ch.rate_up), (raising.conj().T, ch.rate_down)):
            jd = jump.conj().T
            anti = jd @ jump
            m = m + rate * (
                left_mult(jump) @ right_mult(jd)
                - 0.5 * (left_mult(anti) + right_mult(anti))
            )
    return m


def assert_matches_per_channel_oracle(h, channels):
    m = to_dense(build_generator(h, channels))
    oracle = per_channel_liouvillian(h, channels)
    assert m.shape == oracle.shape
    assert np.abs(m - oracle).max() <= 1e-14 * np.abs(oracle).max()


def assert_equals_the_dense_build(h, channels):
    # bit for bit: the terms at each place are summed from 0 in the same
    # order, several jumps at one population entry included
    assert np.array_equal(to_dense(build_generator(h, channels)),
                          build_liouvillian(h, channels))


def test_builder_matches_per_channel_oracle_on_random_level_pairs():
    # random level pairs as numpy integers, upper == lower (dephasing) and
    # repeated pairs among them, about a quarter of the rates 0, both
    # channel orders and no channels at all
    rng = np.random.default_rng(8)
    for dim in (2, 3, 5, 8):
        h = random_hermitian(rng, dim)
        channels = [
            DissipationChannel(*rng.integers(dim, size=2),
                               *rng.uniform(0.01, 1.0, size=2)
                               * (rng.random(2) > 0.25))
            for _ in range(2 * dim)]
        assert any(ch.upper == ch.lower for ch in channels)
        assert any(0.0 in (ch.rate_up, ch.rate_down) for ch in channels)
        for chs in (channels, channels[::-1], []):
            assert_matches_per_channel_oracle(h, chs)
            assert_equals_the_dense_build(h, chs)
        assert np.array_equal(to_dense(build_generator(h, [])),
                              -1j * commutator_superop(h))


def test_builder_matches_per_channel_oracle_on_junction():
    for mu_1, mu_2 in ((1.0, 0.5), (1.3, 0.7), (1.0, 1.0)):
        model = build_junction(JunctionParams(mu_1=mu_1, mu_2=mu_2))
        assert_matches_per_channel_oracle(model.hamiltonian, model.channels)


def test_builder_equals_kron_form_bit_for_bit():
    # every jump here has one non-zero entry, so each generator entry gets
    # at most one jump term and both forms round alike
    inputs = []
    for mu_1, mu_2 in ((1.0, 0.5), (1.3, 0.7), (1.0, 1.0)):
        model = build_junction(JunctionParams(mu_1=mu_1, mu_2=mu_2))
        inputs.append((model.hamiltonian, model.channels))
    for dim in (3, 8, 16, 24):
        inputs.append(random_ladder_model(np.random.default_rng(dim), dim)[:2])
    for dim in (3, 5, 8):
        inputs.append(random_lindblad_model(np.random.default_rng(dim), dim)[:2])
    for h, channels in inputs:
        assert np.array_equal(to_dense(build_generator(h, channels)),
                              kron_liouvillian(h, channels))


def test_builder_rejects_mismatched_channel_dimension():
    # negative indices too, which numpy indexing would wrap silently
    for key in ((3, 0), (-1, 0), (0, 3), (0, -1)):
        with pytest.raises(ValueError, match="dimension mismatch"):
            build_generator(np.eye(3), [DissipationChannel(*key, 0.1, 0.1)])


@pytest.mark.parametrize("upper, lower", [(1.5, 0), (1, "0"), ("1", 0)],
                         ids=["float-upper", "str-lower", "str-upper"])
def test_channel_rejects_a_level_that_is_not_an_integer(upper, lower):
    # int() would read 1.5 as level 1 and "1" as level 1
    with pytest.raises(ValueError, match="channel levels must be integers"):
        DissipationChannel(upper, lower, 0.1, 0.2)


@pytest.mark.parametrize("rate, message", [
    (float("nan"), "finite"), (float("inf"), "finite"),
    (-1.0, "non-negative"), (-1, "non-negative")])
def test_channel_rejects_an_infinite_nan_or_negative_rate(rate, message):
    for rates in ((rate, 0.2), (0.2, rate)):
        with pytest.raises(ValueError, match="channel rates must be " + message):
            DissipationChannel(1, 0, *rates)


def test_builder_rejects_non_hermitian_hamiltonian():
    h = np.array([[0.0, 1.0], [0.0, 1.0]], dtype=complex)
    with pytest.raises(ValueError, match="Hermitian"):
        build_generator(h, [])


def test_trace_preservation_for_random_channels():
    rng = np.random.default_rng(4)
    for _ in range(10):
        _, _, m = random_lindblad_model(rng, dim=int(rng.integers(2, 5)))
        one = trace_vector(int(round(np.sqrt(m.shape[0]))))
        assert np.abs(one @ m).max() < 1e-12
        for _ in range(10):
            rho = random_density_matrix(rng, int(round(np.sqrt(m.shape[0]))))
            assert abs(one @ (m @ vectorize(rho))) < 1e-12


def test_thermal_rates_admit_gibbs_stationary_state():
    # diagonal Hamiltonian, every channel thermal at one temperature
    rng = np.random.default_rng(5)
    temperature = 0.45
    energies = np.array([0.0, 0.6, 1.1, 1.9])
    h = np.diag(energies).astype(complex)
    channels = []
    for i in range(4):
        for j in range(i + 1, 4):
            base = rng.uniform(0.02, 0.2)
            omega_ij = energies[j] - energies[i]
            channels.append(DissipationChannel(
                j, i, base * np.exp(-omega_ij / temperature), base
            ))
    m = to_dense(build_generator(h, channels))
    gibbs = np.exp(-energies / temperature)
    gibbs /= gibbs.sum()
    assert np.abs(m @ vectorize(np.diag(gibbs))).max() < 1e-10


@settings(max_examples=150, deadline=None, derandomize=True)
@given(sizes=st.lists(st.integers(1, 6), min_size=1, max_size=8),
       seed=st.integers(0, 2**32 - 1))
def test_sectors_recover_planted_blocks(sizes, seed):
    rng = np.random.default_rng(seed)
    n = sum(sizes)
    planted = np.repeat(np.arange(len(sizes)), sizes)
    m = np.zeros((n, n), dtype=complex)
    # one random directed spanning tree per block, plus random extra
    # entries inside it; magnitudes down to 1e-300 still connect
    starts = np.cumsum(sizes) - sizes
    for start, size in zip(starts, sizes):
        for k in range(1, size):
            i, j = start + k, start + rng.integers(k)
            m[(i, j) if rng.random() < 0.5 else (j, i)] = 1.0
        block = m[start:start + size, start:start + size]
        block[rng.random((size, size)) < 0.3] = 1.0
    hit = m != 0
    m[hit] = (10.0 ** rng.uniform(-300, 3, hit.sum())
              * rng.choice([1, -1, 1j, -1j, 1 + 1j], hit.sum()))
    # signed zeros are zeros: they join nothing
    m[~hit & (rng.random((n, n)) < 0.3)] = complex(-0.0, -0.0)
    perm = rng.permutation(n)
    hidden = m[np.ix_(perm, perm)]
    labels = sector_labels(n, *np.divmod(np.flatnonzero(hidden != 0), n))
    # each index is labelled with the smallest index of its sector
    expected = planted[perm]
    first = np.full(len(sizes), n)
    np.minimum.at(first, expected, np.arange(n))
    assert np.array_equal(labels, first[expected])
    # every index lands in one stacked block of its own sector
    seen = []
    for idx in sector_indices(labels):
        assert np.all(labels[idx] == labels[idx[:, :1]])
        assert np.all(np.diff(idx, axis=1) > 0)
        seen.extend(idx.ravel())
    assert sorted(seen) == list(range(n))


def _permuted_blocks():
    rng = np.random.default_rng(12)
    sizes = [1, 3, 2, 1, 3, 4]
    m = np.zeros((sum(sizes), sum(sizes)), dtype=complex)
    for start, size in zip(np.cumsum(sizes) - sizes, sizes):
        m[start:start + size, start:start + size] = (
            rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size)))
    perm = rng.permutation(m.shape[0])
    return m[np.ix_(perm, perm)]


@pytest.mark.parametrize("gen", [
    build_junction(JunctionParams(mu_1=1.0, mu_2=0.5)).generator,
    generator_of(random_lindblad_model(np.random.default_rng(3), dim=4)[2]),
    generator_of(random_ladder_model(np.random.default_rng(4), 8)[2]),
    generator_of(_permuted_blocks()),
], ids=["junction", "lindblad", "ladder", "permuted-blocks"])
def test_each_mode_diagonalizes_its_sector(gen):
    m = to_dense(gen)
    seen = []
    for idx, block in gen.blocks:
        lam, vecs = sector_modes(block)
        blocks = m[idx[:, :, None], idx[:, None, :]]
        scale = np.abs(blocks).max(axis=(1, 2))[:, None, None]
        assert np.all(np.abs(blocks @ vecs - vecs * lam[:, None, :])
                      <= 1e-12 * scale)
        seen.extend(idx.ravel())
    assert sorted(seen) == list(range(m.shape[0]))


def assert_generator_is_the_dense_oracle(gen, m):
    # the exact sectors of the dense matrix, and its entries bit for bit
    expected = sector_indices(sectors(m))
    assert len(gen.blocks) == len(expected)
    for (idx, _), want in zip(gen.blocks, expected):
        assert np.array_equal(idx, want)
    assert sorted(np.concatenate([idx.ravel() for idx, _ in gen.blocks])) == list(
        range(m.shape[0]))
    for idx, block in gen.blocks:
        assert np.array_equal(block, m[idx[:, :, None], idx[:, None, :]])


@st.composite
def generator_inputs(draw):
    """(generator, dense oracle) of a random ladder, a coherent model or a
    junction."""
    kind = draw(st.sampled_from(["ladder", "coherent", "junction"]))
    if kind == "junction":
        params = JunctionParams(
            mu_1=draw(st.floats(0.0, 2.0)), mu_2=draw(st.floats(0.0, 2.0)),
            delta=draw(st.sampled_from([0.0, 0.01, 0.05])),
            gamma=draw(st.floats(0.005, 0.05)),
            t_1=draw(st.floats(0.05, 1.0)), t_2=draw(st.floats(0.05, 1.0)))
        model = build_junction(params)
        return model.generator, build_liouvillian(model.hamiltonian, model.channels)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "ladder":
        h, channels, m, _ = random_ladder_model(rng, draw(st.integers(2, 24)))
    else:
        h, channels, m = random_lindblad_model(rng, dim=draw(st.integers(2, 8)))
    return build_generator(h, channels), m


@settings(max_examples=80, deadline=None, derandomize=True)
@given(generator_inputs())
def test_generator_equals_the_dense_oracle(case):
    assert_generator_is_the_dense_oracle(*case)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(generator_inputs())
def test_population_sector_and_reduction_equal_the_dense_oracle(case):
    gen, m = case
    assert_population_sector_is_the_dense_oracle(gen, m)
    # K = -M_c^-1 M_cp and L = M_p - M_pc M_c^-1 M_cp, from dense blocks
    m_p, m_pc, m_cp, m_c = generator_blocks(m)
    k_map = -np.linalg.solve(m_c, m_cp)
    l_matrix = m_p + m_pc @ k_map
    analysis = analyze(gen)
    for got, want in ((dense_k(analysis), k_map), (analysis.l_matrix, l_matrix)):
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


@settings(max_examples=80, deadline=None, derandomize=True)
@given(generator_inputs())
def test_flux_axioms_hold_on_every_generator(case):
    # c >= 0, unidirectional and divergence free, t = c + sym, the loops
    # sum back to c within validate's bounds, and the balance violation
    # max|t - t^T| is max c bit for bit; a level that is not populated
    # has no flux
    analysis = analyze(case[0])
    l_matrix, pops = analysis.l_matrix, analysis.populations
    if np.any(pops <= 0):
        with pytest.raises(ValueError, match="strictly positive"):
            analysis.flux
        return
    flux = analysis.flux
    c, t = flux.c, flux.t_rate
    assert np.all(c >= 0) and not np.diagonal(c).any()
    assert not np.any(c * c.T)
    assert np.abs(t - (c + flux.sym)).max() <= 1e-15 * np.abs(t).max()
    assert np.abs(c.sum(axis=0) - c.sum(axis=1)).max() <= 1e-11
    assert np.abs(reconstruct_flux(flux.loops, pops.size) - c).max() <= 1e-11
    assert is_detailed_balanced(l_matrix, pops)[1] == c.max()


def _bench_workloads():
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_file_paths(tmp_path):
    """The bundled run files, their bench/reference copies and the run
    files of tools/corpus.py, written under tmp_path."""
    bench = Path(__file__).resolve().parents[1] / "bench"
    paths = [str(p) for p in (resources.files("curlflux") / "configs").iterdir()
             if p.name.endswith(".yaml")]
    paths += [str(p) for p in (bench / "reference").glob("*.yaml")]
    return sorted(paths + _tool("corpus").write(str(tmp_path)))


def test_generator_equals_the_dense_oracle_on_every_run_file(tmp_path):
    paths = run_file_paths(tmp_path)
    # 68 files today; a new bench rung changes the count, and its dense
    # oracles grow as d**4
    assert len(paths) == 68
    for path in paths:
        config = load_config(path)
        for _, model in config.points:
            assert_generator_is_the_dense_oracle(
                _analyze(model).generator,
                build_liouvillian(model.hamiltonian, model.channels))


def assert_population_sector_is_the_dense_oracle(gen, m):
    # the sector labelled 0 and its block, bit for bit
    idx, block = gen.population_sector
    sector = np.flatnonzero(sectors(m) == 0)
    assert np.array_equal(idx, sector)
    assert np.array_equal(block, m[np.ix_(sector, sector)])


def test_population_sector_is_the_block_of_population_0():
    # the permuted blocks split the populations over several sectors
    rng = np.random.default_rng(21)
    for gen in (build_junction(JunctionParams(mu_1=1.0, mu_2=0.5)).generator,
                generator_of(random_lindblad_model(rng, dim=3)[2]),
                generator_of(random_ladder_model(rng, 6)[2]),
                generator_of(_permuted_blocks())):
        assert_population_sector_is_the_dense_oracle(gen, to_dense(gen))


def test_propagation_preserves_density_matrix_structure():
    rng = np.random.default_rng(7)
    _, _, m = random_lindblad_model(rng, dim=3)
    dim = 3
    one = trace_vector(dim)
    for _ in range(5):
        rho0 = vectorize(random_density_matrix(rng, dim))
        for t in (0.5, 3.0, 20.0):
            rho_t = devectorize(propagate(m, rho0, t))
            assert np.abs(rho_t - rho_t.conj().T).max() < 1e-11
            assert np.trace(rho_t).real == pytest.approx(1.0, abs=1e-11)
            assert np.linalg.eigvalsh(rho_t).min() > -1e-10
