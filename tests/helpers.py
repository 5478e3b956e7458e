"""Shared model generators and reference implementations for the test suite."""

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from scipy.linalg import expm

from curlflux.flux import FLUX_CLAMP, LOOP_RESIDUAL_TOL
from curlflux.liouville import (
    DissipationChannel,
    Generator,
    _hermitian,
    _sector_layout,
    vectorize,
)
from curlflux.reduction import (
    NonDecayingCoherenceError,
    NonUniqueSteadyStateError,
    _eliminate,
    analyze,
)
from curlflux.response import _sector_resolvent


class SteadyState(NamedTuple):
    """A stationary state as a Liouville (or population) vector, with the
    norm of the generator applied to it."""

    vector: np.ndarray
    residual: float


def sector_indices(labels):
    """Indices of every sector of a labelling, equal sizes stacked: one
    (count, size) integer array per distinct sector size, smallest first,
    whose rows hold the indices of one sector in increasing order."""
    return [idx for _, idx in _sector_layout(labels)[2]]


def devectorize(vec):
    """Inverse of :func:`curlflux.liouville.vectorize`."""
    vec = np.asarray(vec, dtype=complex)
    d = int(round(np.sqrt(vec.size)))
    if d * d != vec.size:
        raise ValueError("vector length %d is not a perfect square" % vec.size)
    out = np.empty(d * d, dtype=complex)
    out[row_major_order(d)] = vec
    return out.reshape(d, d)


@lru_cache(maxsize=None)
def index_pairs(dim):
    """Ordered (n, m) pairs: populations first, then row-major coherences."""
    pops = [(n, n) for n in range(dim)]
    cohs = [(n, m) for n in range(dim) for m in range(dim) if n != m]
    return tuple(pops + cohs)


def row_major_order(dim):
    """The row-major flat index n*dim + m of each pair of index_pairs."""
    return np.array([n * dim + m for n, m in index_pairs(dim)], dtype=int)


def trace_vector(dim):
    """Row vector <<1| with ones on the population slots."""
    one = np.zeros(dim * dim)
    one[:dim] = 1.0
    return one


def _superoperator(s):
    """Reorder a row-major (d**2, d**2) superoperator to the package order."""
    p = row_major_order(int(round(np.sqrt(s.shape[0]))))
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


def dense_raising(ch, d):
    """The upward jump |upper><lower| of a channel as a dense (d, d)
    matrix."""
    a = np.zeros((d, d), dtype=complex)
    a[ch.upper, ch.lower] = 1.0
    return a


def dense_loop_decomposition(c):
    """Loop extraction as numpy row scans of a dense copy of the flux: the
    reference for flux.loop_decomposition's cycles, order, weights and
    error message."""
    work = np.array(c, dtype=float, copy=True)
    scale = max(work.max(initial=0.0), 1.0)
    work[work < FLUX_CLAMP] = 0.0
    loops = []
    while True:
        out_nodes = np.nonzero(work.sum(axis=1) > 0)[0]
        if out_nodes.size == 0:
            break
        cycle = _dense_cycle(work, int(out_nodes[0]))
        if cycle is None:
            break
        edges = list(zip(cycle, cycle[1:] + cycle[:1]))
        weight = min(work[i, j] for i, j in edges)
        for i, j in edges:
            work[i, j] -= weight
            if work[i, j] < FLUX_CLAMP:
                work[i, j] = 0.0
        k = cycle.index(min(cycle))
        loops.append((tuple(cycle[k:] + cycle[:k]), float(weight)))
    leftover = np.abs(work).max(initial=0.0)
    if leftover > LOOP_RESIDUAL_TOL * scale:
        raise ValueError(
            "flux is not a superposition of loops: residual %.3e remains "
            "(input likely not divergence free)" % leftover
        )
    return loops


def _dense_cycle(w, start):
    """Walk the support graph until a node repeats; return that cycle."""
    path = [start]
    seen = {start: 0}
    node = start
    while True:
        succ = np.nonzero(w[node] > 0)[0]
        if succ.size == 0:
            return None
        node = int(succ[0])
        if node in seen:
            return path[seen[node]:]
        seen[node] = len(path)
        path.append(node)


def _jumps(hamiltonian, channels):
    """(H, jumps, rates, H_eff): the jumps of nonzero rate as one dense
    stack, and H_eff = H - (i/2) sum_c r_c J_c^dag J_c summed jump by
    jump and row by row (a BLAS product may round the sum differently)."""
    h = np.asarray(hamiltonian, dtype=complex)
    d = h.shape[0]
    jumps, rates = [], []
    for ch in channels:
        raising = dense_raising(ch, d)
        for jump, rate in ((raising, ch.rate_up),
                           (raising.conj().T, ch.rate_down)):
            if rate != 0.0:
                jumps.append(jump)
                rates.append(rate)
    jumps = np.array(jumps, dtype=complex).reshape(-1, d, d)
    rates = np.array(rates)
    decay = np.zeros((d, d), dtype=complex)
    for rate, jump in zip(rates, jumps):
        for row in jump:
            decay += np.outer(row.conj(), rate * row)
    return h, jumps, rates, h - 0.5j * decay


def build_liouvillian(hamiltonian, channels):
    """The generator as one dense (d**2, d**2) matrix in the package
    order: each term scattered into a zeroed matrix, the two H_eff terms
    as d**3 entries each, then the product of each jump's one non-zero
    entry."""
    h, jumps, rates, h_eff = _jumps(_hermitian(hamiltonian, "Hamiltonian"), channels)
    d = h.shape[0]
    # pos[n, m] is the position of |nm>> in the package order
    a, pos = -1j * h_eff, np.argsort(row_major_order(d)).reshape(d, d)
    m = np.zeros((d * d, d * d), dtype=complex)
    # a (x) 1 puts a[n, k] at [(n, m), (k, m)], and 1 (x) conj(a) puts
    # conj(a)[m, l] at [(n, m), (n, l)]
    m[pos[:, None, :], pos[None, :, :]] = a[:, :, None]
    m[pos[:, :, None], pos[:, None, :]] += a.conj()
    # r J (x) conj(J) adds r J[n, k] conj(J[n, k]) at [(n, n), (k, k)] for
    # the one non-zero entry J[n, k] of each jump
    c, n, k = np.nonzero(jumps)
    vals = jumps[c, n, k]
    np.add.at(m, (pos[n, n], pos[k, k]), rates[c] * vals * vals.conj())
    return m


def sectors(m):
    """Sector label of every index of m, the smallest index in its
    sector, from one scan of the exact non-zero pattern of m."""
    n = np.shape(m)[0]
    rows, cols = np.divmod(np.flatnonzero(np.asarray(m) != 0), n)
    label = np.arange(n)
    while True:
        np.minimum.at(label, rows, label[cols])
        np.minimum.at(label, cols, label[rows])
        label = label[label]
        if np.array_equal(label[rows], label[cols]):
            return label


def generator_of(m):
    """The Generator of a dense square matrix: its sectors and their blocks."""
    m = np.asarray(m, dtype=complex)
    return Generator(math.isqrt(m.shape[0]),
                     tuple((idx, m[idx[:, :, None], idx[:, None, :]])
                           for idx in sector_indices(sectors(m))))


def to_dense(generator):
    """The (n, n) matrix a Generator holds, zero between sectors."""
    n = sum(idx.size for idx, _ in generator.blocks)
    m = np.zeros((n, n), dtype=complex)
    for idx, block in generator.blocks:
        m[idx[:, :, None], idx[:, None, :]] = block
    return m


def steady_state(m):
    """SteadyState of a dense generator, by the library's route: the lift
    of L's GTH populations, vectorized, and ||M rho||."""
    v = vectorize(analyze(generator_of(m)).rho_ss)
    return SteadyState(vector=v, residual=float(np.linalg.norm(m @ v)))


def resolvent(m, omegas, left, right):
    """left . G(w) . right of a dense matrix, by the library's resolvent."""
    return _sector_resolvent(generator_of(m), omegas, left, right)


def fluctuation_spectrum(coupling, analysis, omegas):
    """One-sided fluctuation spectrum S(w) = int_0^inf e^{iwt} <V(t)V(0)> dt,
    as a complex array over the grid `omegas`, in the steady state of
    `analysis` (an :class:`~curlflux.reduction.Analysis`).

    The two-time correlator is evaluated by the regression rule, so
    S(w) = <<1| V_L G(w) V_L |rho_ss>>, by the library's resolvent.
    Unlike the commutator source of the response, V_L rho_ss excites the
    stationary mode when V has a static component along the steady state
    (<<1|V_L rho_ss>> = <V> != 0): S(w) then carries the undamped pole
    i<V>^2/w, and a grid that holds w = 0 raises ResolventSingularError.
    """
    v = _hermitian(coupling, "coupling")
    return _sector_resolvent(analysis.generator, omegas, vectorize(v.T),
                             vectorize(v @ analysis.rho_ss))[:, 0, 0]


def _elimination(m):
    return _eliminate(generator_of(m))


def _dense_k(generator, k_fed):
    """K as a dense (d**2 - d, d) array: the fed rows `k_fed` on the
    population sector's coherences, 0 on every other coherence."""
    d = generator.d
    k = np.zeros((d * d - d, d), dtype=complex)
    k[generator.population_sector[0][d:] - d] = k_fed
    return k


def dense_k(analysis):
    """The dense K of an Analysis."""
    return _dense_k(analysis.generator, analysis.k_fed)


def coherence_map(m):
    """K = -M_c^{-1} M_cp of the generator m, dense."""
    generator = generator_of(m)
    return _dense_k(generator, _eliminate(generator)[0])


def effective_rate_matrix(m):
    """L = M_p - M_pc M_c^{-1} M_cp of the generator m."""
    return _elimination(m)[1]


# the oracle's null vector is unique when the second-smallest eigenvalue
# magnitude exceeds the smallest by more than GAP_RATIO
GAP_RATIO = 1e3


def null_vector(m):
    """Eigenvector of m for its isolated eigenvalue of smallest magnitude,
    from one dense eigendecomposition: the second-smallest magnitude must
    exceed the smallest by more than GAP_RATIO."""
    evals, evecs = np.linalg.eig(m)
    order = np.argsort(np.abs(evals))
    lam0, lam1 = evals[order[0]], evals[order[1]]
    if not abs(lam1) > GAP_RATIO * abs(lam0):
        raise NonUniqueSteadyStateError(
            "non-unique steady state: two smallest eigenvalue magnitudes "
            "%.3e and %.3e are not separated by a factor %g"
            % (abs(lam0), abs(lam1), GAP_RATIO)
        )
    return evecs[:, order[0]]


def rate_steady_state(l_matrix):
    """Stationary population vector of a rate matrix (columns sum to zero),
    normalized to sum 1, with ||L p||."""
    l_matrix = np.asarray(l_matrix, dtype=complex)
    v = null_vector(l_matrix)
    p = (v / v.sum()).real
    return SteadyState(vector=p, residual=float(np.linalg.norm(l_matrix @ p)))


def gth_reduce(a):
    """GTH state reduction one state at a time: eliminate the states
    d - 1, ..., 1 of a (d, d) rate array in place, a[m, n] the rate from
    m to n, and return the first state whose pivot is 0, or None."""
    for n in range(a.shape[0] - 1, 0, -1):
        pivot = a[n, :n].sum()
        if pivot == 0.0:
            return n
        a[:n, n] /= pivot
        a[:n, :n] += a[:n, n, None] * a[n, :n]
    return None


def kron_liouvillian(hamiltonian, channels):
    """The generator as two Kronecker products plus one (d**2, n) @
    (n, d**2) jump product, permuted to the package order."""
    h, jumps, rates, h_eff = _jumps(hamiltonian, channels)
    d = h.shape[0]
    weighted = rates[:, None, None] * jumps
    jump_sum = weighted.reshape(-1, d * d).T @ jumps.conj().reshape(-1, d * d)
    jump_sum = jump_sum.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)
    a, eye = -1j * h_eff, np.eye(d)
    return _superoperator(np.kron(a, eye) + np.kron(eye, a.conj()) + jump_sum)


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
        channels.append(DissipationChannel(
            i + 1, i,
            gamma * rng.uniform(0.2, 1.0),
            gamma * rng.uniform(0.2, 1.0),
        ))
    return h, channels, build_liouvillian(h, channels)


def random_ladder_model(rng, dim):
    """Driven ladder like the benchmark's (:func:`random_ladder`), with
    its dense generator: (h, channels, m, top)."""
    h, channels, top = random_ladder(rng, dim)
    return h, channels, build_liouvillian(h, channels), top


def random_ladder(rng, dim):
    """Driven ladder like the benchmark's: diagonal H, nearest-neighbour
    channels plus dim // 2 random skip channels, rates log-uniform in
    [0.002, 0.05].  Every coherence is then a sector of its own.

    Returns (h, channels, top) with `top` the highest level.
    """
    steps = rng.uniform(0.2, 0.8, size=dim - 1)
    energies = np.concatenate([[0.0], np.cumsum(steps)])
    h = np.diag(energies).astype(complex)
    skips = [(j, i) for i in range(dim) for j in range(i + 2, dim)]
    picked = rng.choice(len(skips), size=min(dim // 2, len(skips)), replace=False)
    pairs = [(k + 1, k) for k in range(dim - 1)] + [skips[k] for k in picked]
    channels = []
    for upper, lower in pairs:
        up, down = 0.002 * 25.0 ** rng.random(2)
        channels.append(DissipationChannel(upper, lower, up, down))
    return h, channels, energies[-1]


def thermal_two_level(omega0=1.0, temperature=0.3, gamma=0.02):
    """Detailed-balanced two-level model; returns (M, V, populations)."""
    h = np.diag([0.0, omega0]).astype(complex)
    up = gamma * np.exp(-omega0 / temperature)
    m = build_liouvillian(h, [DissipationChannel(1, 0, up, gamma)])
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
