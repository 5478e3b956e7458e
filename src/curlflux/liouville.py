"""Liouville-space representation of density matrices and the generator.

A density matrix on a d-dimensional Hilbert space becomes a vector of
length d**2.  This module fixes the index convention used everywhere in
the package: the d population entries |nn>> come first (in basis-label
order), followed by the d**2 - d coherence entries |nm>>, n != m, in
row-major (n, m) order.  The inner product is <<A|B>> = Tr(A^dag B).

The generator is the one dense complex (d**2, d**2) matrix the package
builds: a Lindblad form assembled from a Hermitian Hamiltonian plus a
list of dissipation channels, each channel acting independently (fully
secular form: no cross terms between channels).  Every other
superoperator is applied as an operator product on d x d matrices.

A generator splits into invariant blocks, its sectors: the connected
components of its exact non-zero pattern (the weak U(1) symmetry of
Buca & Prosen, NJP 14, 073007 (2012); Albert & Jiang, PRA 89, 022118
(2014)).  A diagonal Hamiltonian with population-to-population jumps
gives the d x d rate block plus one 1 x 1 block per coherence; the
junction gives blocks of 5, 2 and 2; a dense Hamiltonian gives one.
:func:`sectors` finds them in one O(d**4) scan of the pattern (1 ms at
d = 24 on a 2-core host), and :func:`sector_blocks` stacks equal sizes
for numpy.linalg.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "HilbertBasis",
    "DissipationChannel",
    "SuperoperatorBlocks",
    "index_pairs",
    "vectorize",
    "devectorize",
    "trace_vector",
    "build_liouvillian",
    "partition",
    "sectors",
    "sector_blocks",
]


@dataclass(frozen=True)
class HilbertBasis:
    """Ordered set of state labels defining the Hilbert space."""

    labels: tuple

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("basis labels must be unique, got %r" % (self.labels,))
        if not self.labels:
            raise ValueError("basis must contain at least one state")

    @property
    def dim(self):
        return len(self.labels)

    def index(self, label):
        return self.labels.index(label)


@dataclass(frozen=True)
class DissipationChannel:
    """One secular dissipation channel.

    `raising` is the operator A+ taking the lower state of the channel to
    the upper one; the downward operator is its adjoint.  `rate_up` and
    `rate_down` are the population transition rates (probability per unit
    time).
    """

    raising: np.ndarray
    rate_up: float
    rate_down: float

    def __post_init__(self):
        object.__setattr__(self, "raising", np.asarray(self.raising, dtype=complex))
        if self.raising.ndim != 2 or self.raising.shape[0] != self.raising.shape[1]:
            raise ValueError("raising operator must be a square matrix")
        if self.rate_up < 0 or self.rate_down < 0:
            raise ValueError("channel rates must be non-negative")


@dataclass(frozen=True)
class SuperoperatorBlocks:
    """Population/coherence blocks of a Liouvillian.

    m_p is (d, d), m_c is (d**2-d, d**2-d) and m_pc / m_cp are the
    rectangular coupling blocks, all in the package index convention.
    """

    m_p: np.ndarray
    m_pc: np.ndarray
    m_cp: np.ndarray
    m_c: np.ndarray

    @property
    def dim(self):
        return self.m_p.shape[0]


@lru_cache(maxsize=None)
def index_pairs(dim):
    """Ordered (n, m) pairs: populations first, then row-major coherences."""
    pops = [(n, n) for n in range(dim)]
    cohs = [(n, m) for n in range(dim) for m in range(dim) if n != m]
    return tuple(pops + cohs)


@lru_cache(maxsize=None)
def _permutation(dim):
    # position i of our ordering holds row-major entry n*dim + m
    return np.array([n * dim + m for (n, m) in index_pairs(dim)])


def vectorize(rho, basis=None):
    """Flatten a density matrix into a population-first Liouville vector.

    Parameters
    ----------
    rho : (d, d) array_like
        Operator to vectorize (need not be a physical density matrix).
    basis : HilbertBasis, optional
        If given, the dimension is validated against it.

    Returns
    -------
    vec : (d**2,) ndarray of complex
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError("expected a square matrix, got shape %r" % (rho.shape,))
    if basis is not None and rho.shape[0] != basis.dim:
        raise ValueError(
            "matrix dimension %d does not match basis dimension %d"
            % (rho.shape[0], basis.dim)
        )
    return rho.reshape(-1)[_permutation(rho.shape[0])]


def devectorize(vec, basis=None):
    """Inverse of :func:`vectorize`."""
    vec = np.asarray(vec, dtype=complex)
    d = int(round(np.sqrt(vec.size)))
    if d * d != vec.size:
        raise ValueError("vector length %d is not a perfect square" % vec.size)
    if basis is not None and d != basis.dim:
        raise ValueError("vector dimension does not match basis")
    out = np.empty(d * d, dtype=complex)
    out[_permutation(d)] = vec
    return out.reshape(d, d)


def trace_vector(dim):
    """Row vector <<1| with ones on the population slots."""
    one = np.zeros(dim * dim)
    one[:dim] = 1.0
    return one


def _check_hermitian(h, tol=1e-12):
    scale = max(1.0, np.abs(h).max())
    dev = np.abs(h - h.conj().T).max()
    if dev > tol * scale:
        raise ValueError("Hamiltonian is not Hermitian (max deviation %.3e)" % dev)


def build_liouvillian(hamiltonian, channels):
    """Assemble the generator M of d rho/dt = M vec(rho).

    The coherent part is i[rho, H]; every channel contributes two jumps,
    J = A+ at rate_up and J = A- = A+^dag at rate_down, each with the
    dissipator r (J rho J^dag - {J^dag J, rho}/2), so that rate_up /
    rate_down are the population transfer rates between the two states
    the channel connects.  Jumps with zero rate are skipped.  Collecting
    the anticommutators into the effective Hamiltonian

        H_eff = H - (i/2) sum_c r_c J_c^dag J_c

    gives

        M rho = -i H_eff rho + i rho H_eff^dag + sum_c r_c J_c rho J_c^dag,

    i.e. M = -i L(H_eff) + i R(H_eff^dag) + sum_c r_c J_c (x) conj(J_c)
    in row-major order.  The jump sum is one (d**2, n) @ (n, d**2)
    product over the n jumps, so the build costs O(n d**4) and never
    multiplies two d**2 x d**2 matrices.  Trace preservation
    (<<1| M = 0) holds by construction.

    Parameters
    ----------
    hamiltonian : (d, d) array_like
        Hermitian system Hamiltonian (hbar = 1).
    channels : sequence of DissipationChannel

    Returns
    -------
    m : (d**2, d**2) ndarray of complex
    """
    h = np.asarray(hamiltonian, dtype=complex)
    _check_hermitian(h)
    d = h.shape[0]
    jumps, rates = [], []
    for ch in channels:
        if ch.raising.shape[0] != d:
            raise ValueError("channel operator dimension mismatch")
        for jump, rate in ((ch.raising, ch.rate_up),
                           (ch.raising.conj().T, ch.rate_down)):
            if rate != 0.0:
                jumps.append(jump)
                rates.append(rate)
    jumps = np.array(jumps, dtype=complex).reshape(-1, d, d)
    weighted = np.array(rates)[:, None, None] * jumps
    h_eff = h - 0.5j * np.tensordot(jumps.conj(), weighted, axes=([0, 1], [0, 1]))
    # sum_c r_c J_c[n, k] conj(J_c)[m, l], reordered from [n, k, m, l] to
    # the row-major superoperator index [(n, m), (k, l)]
    jump_sum = weighted.reshape(-1, d * d).T @ jumps.conj().reshape(-1, d * d)
    jump_sum = jump_sum.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)
    a, eye = -1j * h_eff, np.eye(d)
    m = np.kron(a, eye) + np.kron(eye, a.conj()) + jump_sum
    p = _permutation(d)
    return m[np.ix_(p, p)]


def partition(m):
    """Split a Liouvillian into population/coherence blocks.

    The matrix must use the package ordering (populations first).
    """
    m = np.asarray(m, dtype=complex)
    n = m.shape[0]
    d = int(round(np.sqrt(n)))
    if d * d != n or m.shape != (n, n):
        raise ValueError("expected a (d**2, d**2) matrix, got %r" % (m.shape,))
    return SuperoperatorBlocks(
        m_p=m[:d, :d].copy(),
        m_pc=m[:d, d:].copy(),
        m_cp=m[d:, :d].copy(),
        m_c=m[d:, d:].copy(),
    )


def sectors(m):
    """Sector label of every index of m: the smallest index in its sector.

    Indices share a sector when a chain of non-zero entries, read in
    either direction, joins them, so m is block diagonal over its sectors.
    No tolerance is applied: only an entry that is exactly 0 separates
    two sectors, so the split is exact.
    """
    n = np.shape(m)[0]
    # flatnonzero of a mask scans a dense matrix several times faster than nonzero
    rows, cols = np.divmod(np.flatnonzero(np.asarray(m) != 0), n)
    label = np.arange(n)
    while True:
        # min-label propagation along both directions of every edge, then
        # pointer jumping; labels stay members of their own sector, so
        # once every edge agrees each sector carries its smallest index
        np.minimum.at(label, rows, label[cols])
        np.minimum.at(label, cols, label[rows])
        label = label[label]
        if np.array_equal(label[rows], label[cols]):
            return label


def sector_blocks(m, labels, indices):
    """Split `indices` by sector and stack the blocks of equal size.

    Yields one (idx, blocks) pair per distinct size, smallest first: idx
    is a (count, size) integer array whose rows hold the chosen indices
    of one sector in increasing order, and blocks = m[idx_r, idx_r] for
    each row, a (count, size, size) stack that one batched numpy.linalg
    call takes whole.
    """
    indices = np.asarray(indices, dtype=int)
    chosen = labels[indices]
    sizes = np.bincount(chosen)
    ordered = indices[np.argsort(chosen, kind="stable")]
    starts = np.cumsum(sizes) - sizes
    for size in np.flatnonzero(np.bincount(sizes)[1:]) + 1:
        idx = ordered[starts[sizes == size][:, None] + np.arange(size)]
        yield idx, m[idx[:, :, None], idx[:, None, :]]

