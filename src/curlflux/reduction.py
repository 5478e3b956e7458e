"""Coherence elimination and the steady state.

The generator M (a :class:`~curlflux.liouville.Generator`) is read
through its population/coherence blocks in the package order
(populations first).  The coherences are removed adiabatically: they
relax to their stationary value K rho_p with K = -M_c^{-1} M_cp, which
yields the effective population rate matrix L = M_p - M_pc M_c^{-1} M_cp.
L is exact at stationarity regardless of time-scale separation.

A reduction needs every population in one sector, the population
sector (`Generator.population_sector`).  Only coherences in that sector
have non-zero rows in K, and M_pc and M_cp live in it alone, so the
elimination reads that one block and K is held as those rows alone,
which `Analysis.lift` reads; on a diagonal Hamiltonian the block is the
d x d rate block, and K has no rows and takes no solve.

The steady state is the null vector of the full generator, read from
the modes of its sectors (`Generator.modes`; on a diagonal Hamiltonian
one eigendecomposition of the d x d rate block, not of a d**2 x d**2
matrix).  It does not depend on K and L, so it checks them.

`analyze` chains the whole reduction for one generator: K and L, with
the first use of its modes, which the steady state and the response
spectra share; the steady state; and on demand the curl flux and the
split operators.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .flux import curl_flux, split_operators
from .liouville import Generator, devectorize, vectorize

__all__ = [
    "Analysis",
    "NonDecayingCoherenceError",
    "NonUniqueSteadyStateError",
    "SteadyState",
    "analyze",
]

# a coherence eigenvalue of magnitude at most COHERENCE_TOL * max(1,
# max |eigenvalue|) does not decay
COHERENCE_TOL = 1e-12
# the steady state is unique when the second-smallest eigenvalue
# magnitude of M exceeds the smallest by more than GAP_RATIO
GAP_RATIO = 1e3


class NonDecayingCoherenceError(np.linalg.LinAlgError):
    """The coherence block has a (near-)zero eigenvalue: some coherence
    does not decay and the adiabatic elimination is ill-defined."""


class NonUniqueSteadyStateError(np.linalg.LinAlgError):
    """The generator has no isolated zero eigenvalue."""


class SteadyState(NamedTuple):
    vector: np.ndarray
    residual: float


def _check_coherence_block(evals):
    """Refuse a (near-)singular M_c, given its eigenvalues."""
    scale = max(1.0, np.abs(evals).max())
    worst = evals[np.argmin(np.abs(evals))]
    if abs(worst) <= COHERENCE_TOL * scale:
        raise NonDecayingCoherenceError(
            "coherence block is singular: eigenvalue %s has magnitude %.3e"
            % (worst, abs(worst))
        )


def _eliminate(generator):
    """(K, L) from one coherence-block check and one solve M_c X = M_cp:
    K = -X and L = M_p - M_pc X.

    A sector without a population is a block of M_c, whose eigenvalues
    the check takes from the generator's modes.  The coherences of the
    population sector form the one block that the check takes eigenvalues
    of and the solve reads, so X is solved there alone: an (n_fed, d)
    array whose rows follow `generator.population_sector[0][d:]`.

    Raises
    ------
    NonDecayingCoherenceError
        If the coherence block is singular.
    NonUniqueSteadyStateError
        If the populations do not all share one sector.
    """
    d = generator.d
    idx, block = generator.population_sector
    # the sector's indices ascend, so its populations come first
    p = np.searchsorted(idx, d)
    evals = [lam[i[:, 0] >= d].ravel() for i, lam, _ in generator.modes]
    if p < idx.size:
        evals.append(np.linalg.eigvals(block[p:, p:]))
    _check_coherence_block(np.concatenate(evals))
    # populations in two sectors hold two stationary states, even where
    # LAPACK returns one zero eigenvalue as an exact 0.0 that passes the
    # gap rule
    if p < d:
        raise NonUniqueSteadyStateError(
            "non-unique steady state: the populations fall into %d "
            "disconnected sectors"
            % sum(int((i[:, 0] < d).sum()) for i, _ in generator.blocks))
    x = (np.linalg.solve(block[d:, d:], block[d:, :d]) if p < idx.size
         else np.zeros((0, d), dtype=complex))
    return -x, block[:d, :d] - block[:d, d:] @ x


def _isolated_zero(evals):
    """Index of the eigenvalue of smallest magnitude, with a uniqueness
    check: the second-smallest magnitude must exceed the smallest by
    more than GAP_RATIO."""
    order = np.argsort(np.abs(evals))
    lam0, lam1 = evals[order[0]], evals[order[1]]
    if not abs(lam1) > GAP_RATIO * abs(lam0):
        raise NonUniqueSteadyStateError(
            "non-unique steady state: two smallest eigenvalue magnitudes "
            "%.3e and %.3e are not separated by a factor %g"
            % (abs(lam0), abs(lam1), GAP_RATIO)
        )
    return order[0]


def _steady_state(generator):
    """Stationary density matrix of a generator, from its sector modes.

    The union of the sector eigenvalues is the spectrum of M and takes
    the uniqueness check, and the null vector is the eigenvector of the
    eigenvalue of smallest magnitude in its sector, zero elsewhere.  On a
    diagonal Hamiltonian that is one d x d eigendecomposition plus
    d**2 - d scalars instead of one of size d**2; on a generator with one
    sector, one eigendecomposition of M.

    Returns
    -------
    SteadyState
        Normalized (trace 1), hermitized Liouville vector together with
        the residual ||M vec(rho_ss)||, taken on its sector (a
        Hermiticity-preserving M maps the adjoint of a sector onto the
        same sector, so the hermitized vector stays in it).

    Raises
    ------
    NonUniqueSteadyStateError
        If the zero eigenvalue is degenerate or absent.
    """
    d = generator.d
    modes = generator.modes
    k = _isolated_zero(np.concatenate([lam.ravel() for _, lam, _ in modes]))
    for (idx, lam, vecs), (_, block) in zip(modes, generator.blocks):
        if k < lam.size:
            break
        k -= lam.size
    row, col = divmod(k, lam.shape[1])
    v = np.zeros(d * d, dtype=complex)
    v[idx[row]] = vecs[row, :, col]
    tr = v[:d].sum()
    if abs(tr) < 1e-14:
        raise NonUniqueSteadyStateError("null vector has (near-)zero trace")
    v = v / tr
    # null vectors of a physical generator are Hermitian up to rounding
    rho = devectorize(v)
    rho = 0.5 * (rho + rho.conj().T)
    v = vectorize(rho)
    v = v / v[:d].sum().real
    residual = float(np.linalg.norm(block[row] @ v[idx[row]]))
    return SteadyState(vector=v, residual=residual)


@dataclass(frozen=True)
class Analysis:
    """Everything the reduction derives from one generator.

    `rho_ss` is the null vector of M, and `populations` is its diagonal.
    `k_fed` holds K's rows on the population sector's coherences, the
    only rows that can be non-zero; `lift` reads them.  `flux` and
    `split` are computed on first use: they need strictly positive
    populations, which the response spectra do not.
    """

    generator: Generator
    k_fed: np.ndarray
    l_matrix: np.ndarray
    rho_ss: SteadyState
    populations: np.ndarray

    def lift(self, x):
        """W x = [x; K x] for a population vector x, as a Liouville vector."""
        gen = self.generator
        v = np.zeros(gen.d ** 2, dtype=complex)
        v[gen.population_sector[0]] = np.concatenate([x, self.k_fed @ x])
        return v

    @cached_property
    def flux(self):
        """FluxDecomposition of the stationary currents."""
        return curl_flux(self.l_matrix, self.populations)

    @cached_property
    def split(self):
        """SplitOperators s_d and v_ss."""
        return split_operators(self.l_matrix, self.populations, self.flux)


def analyze(generator):
    """Reduce a :class:`~curlflux.liouville.Generator` and decompose its
    steady state.

    Each sector is diagonalized once (`Generator.modes`).  K and L come
    from the elimination, and the steady state rho_ss is the null vector
    of M itself; the populations are its diagonal.  With M_c non-singular,
    M [p; K p] = [L p; 0], so the null spaces of M and L correspond one
    to one and L p = 0.

    Raises
    ------
    NonDecayingCoherenceError
        If the coherence block is singular.
    NonUniqueSteadyStateError
        If the populations do not all share one sector, or M has no
        isolated zero eigenvalue.
    """
    k_fed, l_matrix = _eliminate(generator)
    rho_ss = _steady_state(generator)
    return Analysis(
        generator=generator,
        k_fed=k_fed,
        l_matrix=l_matrix,
        rho_ss=rho_ss,
        populations=rho_ss.vector[:generator.d].real,
    )
