import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curlflux.liouville import (
    DissipationChannel,
    HilbertBasis,
    build_liouvillian,
    devectorize,
    index_pairs,
    partition,
    sector_blocks,
    sectors,
    trace_vector,
    vectorize,
)
from curlflux.junction import JunctionParams, build_junction
from helpers import (
    assemble,
    commutator_superop,
    left_mult,
    propagate,
    random_density_matrix,
    random_hermitian,
    random_lindblad_model,
    right_mult,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)


def test_vectorize_maximally_mixed():
    v = vectorize(np.eye(2) / 2)
    assert np.allclose(v[:2], [0.5, 0.5])
    assert np.allclose(v[2:], 0.0)


def test_vectorize_matrix_unit_hits_single_coherence_slot():
    basis = HilbertBasis(("g", "e1", "e2"))
    rho = np.zeros((3, 3), dtype=complex)
    rho[basis.index("g"), basis.index("e1")] = 1.0
    v = vectorize(rho, basis)
    slot = index_pairs(basis.dim).index((basis.index("g"), basis.index("e1")))
    expected = np.zeros(9)
    expected[slot] = 1.0
    assert np.array_equal(v, expected)


def test_vectorize_roundtrip_is_exact():
    rng = np.random.default_rng(0)
    for dim in (2, 3, 5):
        rho = random_hermitian(rng, dim)
        assert np.array_equal(devectorize(vectorize(rho)), rho)


def test_vectorize_rejects_mismatched_basis():
    with pytest.raises(ValueError):
        vectorize(np.eye(2), HilbertBasis(("a", "b", "c")))


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
    raising = np.array([[0, 0], [1, 0]], dtype=complex)
    m = build_liouvillian(h, [DissipationChannel(raising, 0.0, gamma)])
    # population block: gain/loss at rate gamma
    assert np.allclose(m[:2, :2], [[0.0, gamma], [0.0, -gamma]])
    # coherence slots (g,e) and (e,g): decay gamma/2, frequencies +-omega
    assert m[2, 2] == pytest.approx(1j * omega - gamma / 2)
    assert m[3, 3] == pytest.approx(-1j * omega - gamma / 2)


def per_channel_liouvillian(h, channels):
    """Oracle: each jump as L(J) @ R(J^dag) - (L(J^dag J) + R(J^dag J)) / 2."""
    m = -1j * commutator_superop(h)
    for ch in channels:
        for jump, rate in ((ch.raising, ch.rate_up), (ch.raising.conj().T, ch.rate_down)):
            jd = jump.conj().T
            anti = jd @ jump
            m = m + rate * (
                left_mult(jump) @ right_mult(jd)
                - 0.5 * (left_mult(anti) + right_mult(anti))
            )
    return m


def assert_matches_per_channel_oracle(h, channels):
    m = build_liouvillian(h, channels)
    oracle = per_channel_liouvillian(h, channels)
    assert m.shape == oracle.shape
    assert np.abs(m - oracle).max() <= 1e-14 * np.abs(oracle).max()


def random_complex(rng, dim):
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


def test_builder_matches_per_channel_oracle_dense_complex_jumps():
    rng = np.random.default_rng(8)
    for dim in (2, 3, 5, 8):
        h = random_hermitian(rng, dim)
        channels = [
            DissipationChannel(random_complex(rng, dim), *rng.uniform(0.01, 1.0, size=2))
            for _ in range(3)
        ]
        assert_matches_per_channel_oracle(h, channels)


def test_builder_matches_per_channel_oracle_zero_rate_and_no_channels():
    rng = np.random.default_rng(9)
    h = random_hermitian(rng, 4)
    channels = [
        DissipationChannel(random_complex(rng, 4), 0.0, 0.3),
        DissipationChannel(random_complex(rng, 4), 0.2, 0.7),
    ]
    assert_matches_per_channel_oracle(h, channels)
    assert_matches_per_channel_oracle(h, [])
    assert np.array_equal(build_liouvillian(h, []), -1j * commutator_superop(h))


def test_builder_matches_per_channel_oracle_on_junction():
    for strict in (True, False):
        for mu_1, mu_2 in ((1.0, 0.5), (1.3, 0.7), (1.0, 1.0)):
            model = build_junction(JunctionParams(mu_1=mu_1, mu_2=mu_2), strict)
            assert_matches_per_channel_oracle(model.h_eff, model.channels)


def test_builder_rejects_mismatched_channel_dimension():
    channel = DissipationChannel(np.zeros((3, 3)), 0.1, 0.1)
    with pytest.raises(ValueError, match="dimension mismatch"):
        build_liouvillian(np.eye(2), [channel])


def test_builder_rejects_non_hermitian_hamiltonian():
    h = np.array([[0.0, 1.0], [0.0, 1.0]], dtype=complex)
    with pytest.raises(ValueError, match="Hermitian"):
        build_liouvillian(h, [])


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
            raising = np.zeros((4, 4), dtype=complex)
            raising[j, i] = 1.0
            base = rng.uniform(0.02, 0.2)
            omega_ij = energies[j] - energies[i]
            channels.append(DissipationChannel(
                raising, base * np.exp(-omega_ij / temperature), base
            ))
    m = build_liouvillian(h, channels)
    gibbs = np.exp(-energies / temperature)
    gibbs /= gibbs.sum()
    assert np.abs(m @ vectorize(np.diag(gibbs))).max() < 1e-10


def test_partition_reassembles_exactly():
    rng = np.random.default_rng(6)
    m = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    assert np.array_equal(assemble(partition(m)), m)


def test_partition_of_diagonal_superoperator_has_zero_couplings():
    m = np.diag(np.arange(9, dtype=complex))
    blocks = partition(m)
    assert np.abs(blocks.m_pc).max() == 0.0
    assert np.abs(blocks.m_cp).max() == 0.0


@settings(max_examples=150, deadline=None)
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
    labels = sectors(hidden)
    # each index is labelled with the smallest index of its sector
    expected = planted[perm]
    first = np.full(len(sizes), n)
    np.minimum.at(first, expected, np.arange(n))
    assert np.array_equal(labels, first[expected])
    # every index lands in one stacked block of its own sector
    seen = []
    for idx, blocks in sector_blocks(hidden, labels, np.arange(n)):
        assert np.all(labels[idx] == labels[idx[:, :1]])
        assert np.all(np.diff(idx, axis=1) > 0)
        assert np.array_equal(blocks, hidden[idx[:, :, None], idx[:, None, :]])
        seen.extend(idx.ravel())
    assert sorted(seen) == list(range(n))


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


def test_unique_basis_labels_required():
    with pytest.raises(ValueError):
        HilbertBasis(("a", "a"))
