"""Liouville-space representation of density matrices and the generator.

A density matrix on a d-dimensional Hilbert space becomes a vector of
length d**2.  This module fixes the index convention used everywhere in
the package: the d population entries |nn>> come first (in basis
order), followed by the d**2 - d coherence entries |nm>>, n != m, in
row-major (n, m) order.  The order is computed where it is read, from
views of the matrix or from the row-major flat indices n*d + m: no
index map of it is held or cached.  The inner product is
<<A|B>> = Tr(A^dag B).

The generator M is a Lindblad form assembled from a Hermitian
Hamiltonian plus a list of dissipation channels, each a level pair with
a jump up and a jump down, acting independently (fully secular form: no
cross terms between channels).  It splits into invariant blocks, its
sectors: the connected components of the places its terms reach, a sum
that cancels to exactly 0 included (the weak U(1) symmetry of Buca &
Prosen, NJP 14, 073007 (2012); Albert & Jiang, PRA 89, 022118 (2014)).
A diagonal Hamiltonian gives the d x d rate block plus one 1 x 1 block
per coherence; the junction gives blocks of 5, 2 and 2; a dense
Hamiltonian gives one.

:func:`build_generator` gathers the jumps in one pass over the
channels and forms M's terms as its Kronecker sum: the diagonal of the
two H_eff terms by one outer sum, each off-diagonal entry of H at its
2d places, then one population term per jump.  The supports of the
off-diagonal terms give the sectors, and the terms go straight into
their sector's dense block, the diagonal set and the rest added in
order, all blocks in one buffer: M is never built as a d**2 x d**2
matrix, no term is sorted, and the cost is O(d**2 + nnz_off(H) d +
channels) plus the blocks themselves.
A :class:`Generator` holds d and those blocks alone, equal sizes stacked
with the index arrays that name their sectors, reads the block of the
sector that holds population 0 in place
(`Generator.population_sector`), and finds the :func:`sector_modes`
of a size group, one numpy.linalg.eig call, the first time something
reads them (`Generator.modes`): the coherence check reads the groups
that hold a coherence-only sector and a spectrum the groups its sources
touch, so on a diagonal Hamiltonian no command diagonalizes the d x d
rate block.  Every other superoperator is applied as an operator
product on d x d matrices.
"""

import math
import operator
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DissipationChannel",
    "vectorize",
    "Generator",
    "build_generator",
    "sector_labels",
    "sector_modes",
]


@dataclass(frozen=True)
class DissipationChannel:
    """One secular dissipation channel between two levels.

    Its upward jump A+ = |upper><lower| acts at `rate_up` and its
    downward jump A- = A+^dag = |lower><upper| at `rate_down`, the
    population transition rates (probability per unit time).  `upper`
    and `lower` are level indices, equal for a dephasing channel.
    """

    upper: int
    lower: int
    rate_up: float
    rate_down: float

    def __post_init__(self):
        try:
            operator.index(self.upper), operator.index(self.lower)
        except TypeError:
            raise ValueError("channel levels must be integers, got %r and %r"
                             % (self.upper, self.lower)) from None
        # a NaN fails every comparison
        if not (0.0 <= self.rate_up < math.inf
                and 0.0 <= self.rate_down < math.inf):
            negative = self.rate_up < 0 or self.rate_down < 0
            raise ValueError("channel rates must be "
                             + ("non-negative" if negative else "finite"))


def vectorize(rho):
    """Flatten a density matrix into a population-first Liouville vector:
    its diagonal, then its off-diagonal entries in row-major order.

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
    # after the first entry, the row-major entries fall into d - 1 rows
    # of d + 1, each ending on a diagonal entry
    d = rho.shape[0]
    return np.concatenate(
        (rho.diagonal(), rho.reshape(-1)[1:].reshape(d - 1, d + 1)[:, :d]),
        axis=None)


def _position(flat, d):
    """Position in the package order of the row-major flat index
    f = n*d + m: n on the diagonal, else d plus f less the n + [m > n]
    diagonal entries before it."""
    n, m = np.divmod(flat, d)
    return np.where(n == m, n, d + flat - n - (m > n))


def _hermitian(op, name):
    """op as a complex array, after checking max|A - A^dag| <= 1e-12 *
    max(1, max|A|); the ValueError names the operator."""
    op = np.asarray(op, dtype=complex)
    dev = np.abs(op - op.conj().T).max()
    # the bound is at least 1e-12, so max|A| is read only above it
    if dev > 1e-12 and dev > 1e-12 * np.abs(op).max():
        raise ValueError("%s is not Hermitian (max deviation %.3e)" % (name, dev))
    return op


@dataclass(frozen=True, eq=False)
class Generator:
    """The generator M of d rho/dt = M vec(rho), held as its sectors.

    `blocks` holds one (idx, block) pair per sector size, smallest
    first: idx is the (count, size) index array of :func:`_sector_layout`,
    whose rows each list one sector's indices in increasing order, and block
    the (count, size, size) stack with block[r] = M[idx[r]][:, idx[r]],
    a view of the one buffer that holds every block.
    Every index of M lies in exactly one row of one idx, and every entry
    of M between two sectors is 0.  `_modes` keeps each group's
    :func:`sector_modes` once `modes` has found them.
    """

    d: int
    blocks: tuple
    _modes: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def population_sector(self):
        """(idx, block) of the sector that holds population 0: its
        indices, ascending, and M[idx][:, idx]."""
        # the rows of a size group run in order of their smallest index,
        # so the sector that holds index 0 is row 0 of its group
        for idx, block in self.blocks:
            if idx[0, 0] == 0:
                return idx[0], block[0]

    def modes(self, group):
        """The :func:`sector_modes` of blocks[group], found on first use."""
        if group not in self._modes:
            self._modes[group] = sector_modes(self.blocks[group][1])
        return self._modes[group]


def _jumps(channels, d):
    """The rows n, columns k and rates of every jump |n><k| of non-zero
    rate, in one pass over the channels: A+ of each channel, then its A-."""
    ends, rates = [], []
    for ch in channels:
        if not (0 <= ch.upper < d and 0 <= ch.lower < d):
            raise ValueError("channel operator dimension mismatch")
        if ch.rate_up != 0.0:
            ends.append((ch.upper, ch.lower))
            rates.append(ch.rate_up)
        if ch.rate_down != 0.0:
            ends.append((ch.lower, ch.upper))
            rates.append(ch.rate_down)
    n, k = np.array(ends, dtype=int).reshape(-1, 2).T
    return n, k, np.array(rates, dtype=float)


def _terms(h, channels):
    """M's terms, with a = -i H_eff: its diagonal, the d**2 sums
    (0 + a[n, n]) + conj(a[m, m]) at (n, m) in index order, then the
    (rows, cols, terms) added after it, in the order they are summed:
    each off-diagonal a[p, q] = -i h[p, q] at its 2d places, then each
    jump's rate."""
    d = h.shape[0]
    n, k, rates = _jumps(channels, d)
    # a jump J = |n><k| at rate r adds r J^dag J = r |k><k| to Gamma, so
    # H_eff = H - (i/2) Gamma differs from H on its diagonal alone
    diagonal = -1j * (h.diagonal() - 0.5j * np.bincount(k, rates, d))
    p, q = np.nonzero(h)
    p, q = p[p != q], q[p != q]
    # a (x) 1 puts a[p, q] at [(p, m), (q, m)] and 1 (x) conj(a) puts
    # conj(a[p, q]) at [(m, p), (m, q)], so off M's diagonal no two of
    # them meet; each place as its row-major flat index p*d + m, the rows
    # in row 0 and the columns in row 1
    ends, m = np.array((p, q))[:, :, None], np.arange(d)
    rows, cols = _position(np.concatenate([
        (ends * d + m).reshape(2, -1), (m * d + ends).reshape(2, -1)],
        axis=1), d)
    coherent = -1j * h[p, q]
    # 0.0 + turns a -0.0 part to 0.0, as a sum from 0 does
    outer = (0.0 + diagonal)[:, None] + diagonal.conj()
    # r J (x) conj(J) puts r at [(n, n), (k, k)], population positions
    # n and k; a rate r joins the terms as the complex (r, +0.0)
    return (vectorize(outer), np.concatenate([rows, n]),
            np.concatenate([cols, k]), np.concatenate([
                np.repeat(coherent, d), np.repeat(coherent.conj(), d),
                rates]))


def _blocks(labels, diagonal, rows, cols, terms):
    """(idx, block) of each size group of the sectors of a labelling: the
    diagonal set, index by index, then each term added at its (row, col)
    in order, as np.add.at adds them.  The blocks lie one after another
    in one buffer, in the order of :func:`_sector_layout`."""
    order, size, groups = _sector_layout(labels)
    # the index at place w of the order starts its row at start[w], and
    # its sector's first index, its smallest, is at place[label]
    place = np.empty_like(order)
    place[order] = np.arange(order.size)
    start = np.cumsum(size) - size
    store = np.zeros(int(size.sum()), dtype=complex)
    store[start[place] + place - place[labels]] = diagonal
    np.add.at(store, start[place[rows]] + place[cols] - place[labels[cols]],
              terms)
    return [(idx, store[start[w]:start[w] + idx.size * idx.shape[1]]
             .reshape(idx.shape + idx.shape[1:])) for w, idx in groups]


def build_generator(hamiltonian, channels):
    """Assemble the generator M of d rho/dt = M vec(rho) as its sectors.

    The coherent part is i[rho, H]; every channel contributes two jumps,
    J = A+ = |upper><lower| at rate_up and J = A- = A+^dag at rate_down,
    each with the dissipator r (J rho J^dag - {J^dag J, rho}/2), so that
    rate_up / rate_down are the population transfer rates between the two
    levels.  Jumps with zero rate are skipped.  A jump J = |n><k| has
    J^dag J = |k><k|, so collecting the anticommutators gives the
    effective Hamiltonian

        H_eff = H - (i/2) Gamma,

    Gamma the diagonal whose entry k sums the rates of the jumps out of
    level k, jump by jump, and

        M rho = -i H_eff rho + i rho H_eff^dag + sum_c r_c J_c rho J_c^dag,

    i.e. M = -i H_eff (x) 1 + 1 (x) conj(-i H_eff) + sum_c r_c J_c (x)
    conj(J_c) in row-major order.  With a = -i H_eff, the two Kronecker
    terms meet only on M's diagonal, which one outer sum forms as
    (0 + a[n, n]) + conj(a[m, m]) at (n, m); each off-diagonal a[p, q] =
    -i h[p, q] has 2d places of its own, d per term.  Each jump's term,
    its rate at the population entry [(n, n), (k, k)], is added after
    them by one np.add.at in channel order, so every entry is summed from
    0 in one fixed order and nothing is sorted: the cost is O(d**2 +
    nnz_off(H) d + channels) plus the blocks.  Each off-diagonal H place
    and each jump term joins its row and column into one sector
    (:func:`sector_labels`), so M is block diagonal over the sectors.
    They come from the supports of the terms, not from the sums: terms
    that cancel to exactly 0 still join their sectors.  Trace
    preservation (<<1| M = 0) holds by construction.

    Parameters
    ----------
    hamiltonian : (d, d) array_like
        Hermitian system Hamiltonian (hbar = 1).
    channels : sequence of DissipationChannel

    Returns
    -------
    Generator
    """
    h = _hermitian(hamiltonian, "Hamiltonian")
    d = h.shape[0]
    diagonal, rows, cols, terms = _terms(h, channels)
    labels = sector_labels(d * d, rows, cols)
    return Generator(d, tuple(_blocks(labels, diagonal, rows, cols, terms)))


def sector_labels(n, rows, cols):
    """Sector label of every index of an n x n matrix whose non-zero
    entries sit at (rows, cols): the smallest index in its sector.

    Indices share a sector when a chain of non-zero entries, read in
    either direction, joins them, so the matrix is block diagonal over
    its sectors.
    """
    # an entry on the diagonal joins nothing
    off = rows != cols
    rows, cols, label = rows[off], cols[off], np.arange(n)
    while True:
        # min-label propagation along both directions of every edge, then
        # pointer jumping; labels stay members of their own sector, so
        # once every edge agrees each sector carries its smallest index
        np.minimum.at(label, rows, label[cols])
        np.minimum.at(label, cols, label[rows])
        label = label[label]
        if np.array_equal(label[rows], label[cols]):
            return label


def _sector_layout(labels):
    """(order, size, groups) of a labelling: every index in sector order
    (sectors by size, then by smallest index, each one's indices
    ascending), the size of each one's sector in that order, and the
    (place, idx) of each size group, idx its (count, size) index array,
    whose rows hold one sector's indices each, and place the place of its
    first index in the order.  The layout depends on the labels alone, so
    it is exact whatever the magnitudes of the entries."""
    n = labels.size
    sizes = np.bincount(labels, minlength=n)    # a sector's size at its label
    size = sizes[labels]
    order = np.argsort(size * n + labels, kind="stable")
    counts = np.bincount(sizes)                 # sectors of each size
    groups, w = [], 0
    for s in (np.flatnonzero(counts[1:]) + 1).tolist():
        end = w + s * int(counts[s])
        groups.append((w, order[w:end].reshape(-1, s)))
        w = end
    return order, size[order], groups


def sector_modes(block):
    """Eigendecomposition of one size group of a :class:`Generator`'s
    sectors, given as its (count, size, size) block stack.

    Returns (lam, vecs): for each sector r, block[r] @ vecs[r] =
    vecs[r] * lam[r], with lam a (count, size) stack of eigenvalues and
    vecs a (count, size, size) stack of eigenvectors.  Sizes above 1 take
    one batched numpy.linalg.eig; a 1 x 1 sector is its own eigenvalue,
    with eigenvector 1 (a read-only view), and needs no call.
    """
    if block.shape[1] == 1:
        return block[:, 0], np.broadcast_to(np.ones(1, complex), block.shape)
    return np.linalg.eig(block)
