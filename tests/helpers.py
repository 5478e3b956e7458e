"""Shared model generators and reference implementations for the test suite."""

import numpy as np
from scipy.linalg import expm

from curlflux.liouville import (
    DissipationChannel,
    _permutation,
    build_liouvillian,
    devectorize,
    index_pairs,
    sector_modes,
    sectors,
    trace_vector,
    vectorize,
)
from curlflux.reduction import (
    NonDecayingCoherenceError,
    NonUniqueSteadyStateError,
    SteadyState,
    _eliminate,
    _isolated_zero,
)


def _superoperator(s):
    """Reorder a row-major (d**2, d**2) superoperator to the package order."""
    d = int(round(np.sqrt(s.shape[0])))
    p = np.array([n * d + m for n, m in index_pairs(d)])
    return s[np.ix_(p, p)]


def left_mult(op):
    """Dense superoperator for rho -> op @ rho."""
    op = np.asarray(op, dtype=complex)
    return _superoperator(np.kron(op, np.eye(op.shape[0])))


def right_mult(op):
    """Dense superoperator for rho -> rho @ op."""
    op = np.asarray(op, dtype=complex)
    return _superoperator(np.kron(np.eye(op.shape[0]), op.T))


def commutator_superop(op):
    """Dense superoperator for rho -> op @ rho - rho @ op."""
    return left_mult(op) - right_mult(op)


def generator_blocks(m):
    """(M_p, M_pc, M_cp, M_c): the population/coherence blocks of a
    generator in the package order, as views."""
    d = int(round(np.sqrt(m.shape[0])))
    return m[:d, :d], m[:d, d:], m[d:, :d], m[d:, d:]


def _elimination(m):
    labels = sectors(m)
    return _eliminate(m, labels, sector_modes(m, labels))


def coherence_map(m):
    """K = -M_c^{-1} M_cp of the generator m."""
    return _elimination(m)[0]


def effective_rate_matrix(m):
    """L = M_p - M_pc M_c^{-1} M_cp of the generator m."""
    return _elimination(m)[1]


def null_vector(m):
    """Eigenvector of m for its isolated eigenvalue of smallest magnitude,
    from one dense eigendecomposition."""
    evals, evecs = np.linalg.eig(m)
    return evecs[:, _isolated_zero(evals)]


def rate_steady_state(l_matrix):
    """Stationary population vector of a rate matrix (columns sum to zero),
    normalized to sum 1, with ||L p||."""
    l_matrix = np.asarray(l_matrix, dtype=complex)
    v = null_vector(l_matrix)
    p = (v / v.sum()).real
    return SteadyState(vector=p, residual=float(np.linalg.norm(l_matrix @ p)))


def kron_liouvillian(hamiltonian, channels):
    """The generator as two Kronecker products plus one (d**2, n) @
    (n, d**2) jump product, permuted to the package order."""
    h = np.asarray(hamiltonian, dtype=complex)
    d = h.shape[0]
    jumps, rates = [], []
    for ch in channels:
        for jump, rate in ((ch.raising, ch.rate_up),
                           (ch.raising.conj().T, ch.rate_down)):
            if rate != 0.0:
                jumps.append(jump)
                rates.append(rate)
    jumps = np.array(jumps, dtype=complex).reshape(-1, d, d)
    weighted = np.array(rates)[:, None, None] * jumps
    h_eff = h - 0.5j * np.tensordot(jumps.conj(), weighted, axes=([0, 1], [0, 1]))
    jump_sum = weighted.reshape(-1, d * d).T @ jumps.conj().reshape(-1, d * d)
    jump_sum = jump_sum.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)
    a, eye = -1j * h_eff, np.eye(d)
    m = np.kron(a, eye) + np.kron(eye, a.conj()) + jump_sum
    p = _permutation(d)
    return m[np.ix_(p, p)]


def dense_steady_state(m):
    """Normalized, hermitized null vector of the full generator from one
    dense eigendecomposition, with the library's uniqueness check."""
    m = np.asarray(m, dtype=complex)
    d = int(round(np.sqrt(m.shape[0])))
    v = null_vector(m)
    tr = v[:d].sum()
    if abs(tr) < 1e-14:
        raise NonUniqueSteadyStateError("null vector has (near-)zero trace")
    rho = devectorize(v / tr)
    v = vectorize(0.5 * (rho + rho.conj().T))
    v = v / v[:d].sum().real
    return SteadyState(vector=v, residual=float(np.linalg.norm(m @ v)))


def random_hermitian(rng, dim, scale=1.0):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * 0.5 * (a + a.conj().T)


def random_density_matrix(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def random_rate_matrix(rng, dim, low=0.05, high=1.0):
    """Random positive off-diagonal rates, columns summing to zero."""
    l = rng.uniform(low, high, size=(dim, dim))
    np.fill_diagonal(l, 0.0)
    np.fill_diagonal(l, -l.sum(axis=0))
    return l


def random_lindblad_model(rng, dim=3, coupling=0.05, gamma=0.1):
    """Hermitian H with weak off-diagonals plus ladder channels.

    Produces generators with population-coherence coupling (K != 0) and a
    unique steady state.
    """
    energies = np.sort(rng.uniform(0.5, 2.0, size=dim))
    h = np.diag(energies).astype(complex)
    h += coupling * (random_hermitian(rng, dim) - np.diag(np.diag(random_hermitian(rng, dim))))
    h = 0.5 * (h + h.conj().T)
    channels = []
    for i in range(dim - 1):
        raising = np.zeros((dim, dim), dtype=complex)
        raising[i + 1, i] = 1.0
        channels.append(DissipationChannel(
            raising,
            gamma * rng.uniform(0.2, 1.0),
            gamma * rng.uniform(0.2, 1.0),
        ))
    return h, channels, build_liouvillian(h, channels)


def random_ladder_model(rng, dim):
    """Driven ladder like the benchmark's: diagonal H, nearest-neighbour
    channels plus dim // 2 random skip channels, rates log-uniform in
    [0.002, 0.05].  Every coherence is then a sector of its own.

    Returns (h, channels, m, top) with `top` the highest level.
    """
    steps = rng.uniform(0.2, 0.8, size=dim - 1)
    energies = np.concatenate([[0.0], np.cumsum(steps)])
    h = np.diag(energies).astype(complex)
    skips = [(j, i) for i in range(dim) for j in range(i + 2, dim)]
    picked = rng.choice(len(skips), size=min(dim // 2, len(skips)), replace=False)
    pairs = [(k + 1, k) for k in range(dim - 1)] + [skips[k] for k in picked]
    channels = []
    for upper, lower in pairs:
        raising = np.zeros((dim, dim), dtype=complex)
        raising[upper, lower] = 1.0
        up, down = 0.002 * 25.0 ** rng.random(2)
        channels.append(DissipationChannel(raising, up, down))
    return h, channels, build_liouvillian(h, channels), energies[-1]


def thermal_two_level(omega0=1.0, temperature=0.3, gamma=0.02):
    """Detailed-balanced two-level model; returns (M, V, populations)."""
    h = np.diag([0.0, omega0]).astype(complex)
    raising = np.zeros((2, 2), dtype=complex)
    raising[1, 0] = 1.0
    up = gamma * np.exp(-omega0 / temperature)
    channel = DissipationChannel(raising, up, gamma)
    m = build_liouvillian(h, [channel])
    v = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    p_e = up / (up + gamma)
    return m, v, np.array([1.0 - p_e, p_e])


def propagate(m, rho0, t):
    """Evolve a Liouville vector: exp(M t) vec(rho0).

    Uses the dense scaling-and-squaring matrix exponential, which is
    well-behaved for the non-normal generators that arise here.
    """
    if t < 0:
        raise ValueError("propagation time must be non-negative")
    m = np.asarray(m, dtype=complex)
    rho0 = np.asarray(rho0, dtype=complex)
    if t == 0:
        return rho0.copy()
    return expm(m * t) @ rho0


def linear_response_time(v, m, rho_ss, t, stationary_tol=1e-8):
    """Time-domain response R(t) = -i <<1| V_L exp(M t) V_- |rho_ss>>."""
    if t < 0:
        raise ValueError("response is causal: t must be non-negative")
    m = np.asarray(m, dtype=complex)
    rho_ss = np.asarray(rho_ss, dtype=complex)
    drift = np.abs(m @ rho_ss).max()
    if drift > stationary_tol:
        raise ValueError(
            "reference state is not stationary (||M rho||_inf = %.3e)" % drift
        )
    d = int(round(np.sqrt(m.shape[0])))
    one = trace_vector(d)
    kicked = commutator_superop(v) @ rho_ss
    evolved = propagate(m, kicked, t)
    return -1j * (one @ (left_mult(v) @ evolved))


def memory_kernel(m, s):
    """Frequency-domain kernel M_pc (s - M_c)^{-1} M_cp of the generator m
    at Laplace point s."""
    _, m_pc, m_cp, m_c = generator_blocks(m)
    a = s * np.eye(m_c.shape[0]) - m_c
    if 1.0 / np.linalg.cond(a) < 1e-13:
        raise NonDecayingCoherenceError(
            "resolvent singular at s = %s (s hits a coherence eigenvalue)" % s
        )
    return m_pc @ np.linalg.solve(a, m_cp)
