"""Liouville-space representation of density matrices and the generator.

A density matrix on a d-dimensional Hilbert space becomes a vector of
length d**2.  This module fixes the index convention used everywhere in
the package: the d population entries |nn>> come first (in basis-label
order), followed by the d**2 - d coherence entries |nm>>, n != m, in
row-major (n, m) order.  The inner product is <<A|B>> = Tr(A^dag B).

The generator is the one dense complex (d**2, d**2) matrix the package
builds: a Lindblad form assembled from a Hermitian Hamiltonian plus a
list of dissipation channels, each channel acting independently (fully
secular form: no cross terms between channels).  Its terms are scattered
straight into place, so the build costs the O(d**4) zero fill plus
O(d**3 + sum_c nnz_c**2) over the non-zero entries of each jump (2 ms
at d = 24 on a 2-core host).  Every other superoperator is applied as an
operator product on d x d matrices.

A generator splits into invariant blocks, its sectors: the connected
components of its exact non-zero pattern (the weak U(1) symmetry of
Buca & Prosen, NJP 14, 073007 (2012); Albert & Jiang, PRA 89, 022118
(2014)).  A diagonal Hamiltonian with population-to-population jumps
gives the d x d rate block plus one 1 x 1 block per coherence; the
junction gives blocks of 5, 2 and 2; a dense Hamiltonian gives one.
:func:`sectors` finds them in one O(d**4) scan of the pattern (1 ms at
d = 24 on a 2-core host), and :func:`sector_modes` diagonalizes every
sector once, equal sizes stacked into one numpy.linalg.eig call, for the
steady state, the coherence check and every spectrum to share.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "HilbertBasis",
    "DissipationChannel",
    "index_pairs",
    "vectorize",
    "devectorize",
    "trace_vector",
    "build_liouvillian",
    "sectors",
    "sector_indices",
    "sector_modes",
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


@lru_cache(maxsize=None)
def _positions(dim):
    # [n, m] holds the position of |nm>> in our ordering
    pos = np.empty(dim * dim, dtype=int)
    pos[_permutation(dim)] = np.arange(dim * dim)
    return pos.reshape(dim, dim)


def vectorize(rho):
    """Flatten a density matrix into a population-first Liouville vector.

    Parameters
    ----------
    rho : (d, d) array_like
        Operator to vectorize (need not be a physical density matrix).

    Returns
    -------
    vec : (d**2,) ndarray of complex
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError("expected a square matrix, got shape %r" % (rho.shape,))
    return rho.reshape(-1)[_permutation(rho.shape[0])]


def devectorize(vec):
    """Inverse of :func:`vectorize`."""
    vec = np.asarray(vec, dtype=complex)
    d = int(round(np.sqrt(vec.size)))
    if d * d != vec.size:
        raise ValueError("vector length %d is not a perfect square" % vec.size)
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

    i.e. M = -i H_eff (x) 1 + 1 (x) conj(-i H_eff) + sum_c r_c J_c (x)
    conj(J_c) in row-major order.  Each term is scattered straight into
    one zeroed matrix in the package order: the two H_eff terms as d**3
    entries each, the jump sum as the products of the non-zero entries of
    each jump, sum_c nnz_c**2 entries.  The build costs the O(d**4) zero
    fill plus O(d**3 + sum_c nnz_c**2), with no Kronecker product and no
    d**2 x d**2 matrix product.  Trace preservation (<<1| M = 0) holds by
    construction.

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
    rates = np.array(rates)
    h_eff = h - 0.5j * np.tensordot(jumps.conj(), rates[:, None, None] * jumps,
                                    axes=([0, 1], [0, 1]))
    a, pos = -1j * h_eff, _positions(d)
    m = np.zeros((d * d, d * d), dtype=complex)
    # a (x) 1 puts a[n, k] at [(n, m), (k, m)], and 1 (x) conj(a) puts
    # conj(a)[m, l] at [(n, m), (n, l)]
    m[pos[:, None, :], pos[None, :, :]] = a[:, :, None]
    m[pos[:, :, None], pos[:, None, :]] += a.conj()
    # r J (x) conj(J) adds r J[n, k] conj(J[m, l]) at [(n, m), (k, l)], for
    # each ordered pair (i, j) of non-zero entries of one jump
    c, n, k = np.nonzero(jumps)
    first = np.searchsorted(c, c)
    size = np.searchsorted(c, c, side="right") - first
    i = np.repeat(np.arange(c.size), size)
    # j runs over first[i], first[i] + 1, ... for each i
    j = first[i] + np.arange(i.size) - np.repeat(np.cumsum(size) - size, size)
    vals = jumps[c, n, k]
    np.add.at(m, (pos[n[i], n[j]], pos[k[i], k[j]]),
              (rates[c] * vals)[i] * vals[j].conj())
    return m


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


def sector_indices(labels):
    """Indices of every sector of a labelling, equal sizes stacked.

    Returns one (count, size) integer array per distinct sector size,
    smallest first, whose rows hold the indices of one sector in
    increasing order.  The layout depends on the labels alone, so it is
    exact whatever the magnitudes of the entries.
    """
    sizes = np.bincount(labels)
    ordered = np.argsort(labels, kind="stable")
    starts = np.cumsum(sizes) - sizes
    return [ordered[starts[sizes == size][:, None] + np.arange(size)]
            for size in np.flatnonzero(np.bincount(sizes)[1:]) + 1]


def sector_modes(m, labels):
    """Eigendecomposition of every sector of m, equal sizes stacked.

    Returns one (idx, lam, vecs) triple per :func:`sector_indices` array
    idx: for each row r, m[idx_r, idx_r] @ vecs[r] = vecs[r] * lam[r],
    with lam a (count, size) stack of eigenvalues and vecs a (count,
    size, size) stack of eigenvectors.  Sizes above 1 take one batched
    numpy.linalg.eig; a 1 x 1 sector is its own eigenvalue, with
    eigenvector 1, and needs no call.
    """
    modes = []
    for idx in sector_indices(labels):
        blocks = m[idx[:, :, None], idx[:, None, :]]
        if idx.shape[1] == 1:
            modes.append((idx, blocks[:, 0], np.ones_like(blocks)))
        else:
            modes.append((idx, *np.linalg.eig(blocks)))
    return modes
