"""Coherence elimination and steady states.

Given the block-partitioned generator, the coherences are removed
adiabatically: they relax to their stationary value K rho_p with
K = -M_c^{-1} M_cp, which yields the effective population rate matrix
L = M_p - M_pc M_c^{-1} M_cp.  L is exact at stationarity regardless of
time-scale separation.

Only coherences that share a sector (:func:`~curlflux.liouville.sectors`)
with a population have non-zero rows in K, so only they enter the solve;
on a diagonal Hamiltonian there are none and K = 0 without a solve.

`analyze` chains the whole reduction for one generator: K and L, the
steady state, and on demand the curl flux and the split operators.
:func:`steady_state` finds the null vector of the full generator
independently of K and L, also sector by sector: the eigenvalues of every
sector, then one eigendecomposition of the sector that holds the zero
mode (on a diagonal Hamiltonian the d x d rate block, not the
d**2 x d**2 generator).
"""

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .flux import curl_flux, split_operators
from .liouville import (
    SuperoperatorBlocks,
    devectorize,
    partition,
    sector_blocks,
    sectors,
    vectorize,
)

__all__ = [
    "Analysis",
    "NonDecayingCoherenceError",
    "NonUniqueSteadyStateError",
    "SteadyState",
    "analyze",
    "steady_state",
    "rate_steady_state",
]


class NonDecayingCoherenceError(np.linalg.LinAlgError):
    """The coherence block has a (near-)zero eigenvalue: some coherence
    does not decay and the adiabatic elimination is ill-defined."""


class NonUniqueSteadyStateError(np.linalg.LinAlgError):
    """The generator has no isolated zero eigenvalue."""


class SteadyState(NamedTuple):
    vector: np.ndarray
    residual: float


def _check_coherence_block(stacks, tol=1e-12):
    """Refuse a (near-)singular M_c, given as its stacked invariant blocks."""
    evals = np.concatenate([np.linalg.eigvals(s).ravel() for s in stacks])
    scale = max(1.0, np.abs(evals).max())
    worst = evals[np.argmin(np.abs(evals))]
    if abs(worst) <= tol * scale:
        raise NonDecayingCoherenceError(
            "coherence block is singular: eigenvalue %s has magnitude %.3e"
            % (worst, abs(worst))
        )


def _eliminate(blocks, labels):
    """(K, L) from one coherence-block check and one solve M_c X = M_cp:
    K = -X and L = M_p - M_pc X.

    `labels` are the sectors of the whole generator.  The check takes the
    eigenvalues of M_c sector by sector, and the solve only the rows of
    coherences whose sector holds a population: every other row is 0.
    """
    d, m_c = blocks.dim, blocks.m_c
    coh = labels[d:]
    _check_coherence_block([stack for _, stack in
                            sector_blocks(m_c, coh, np.arange(coh.size))])
    # populations come first, so a sector holds one exactly when its
    # smallest index is below d
    fed = np.flatnonzero(coh < d)
    x = np.zeros(blocks.m_cp.shape, dtype=complex)
    if fed.size:
        x[fed] = np.linalg.solve(m_c[np.ix_(fed, fed)], blocks.m_cp[fed])
    return -x, blocks.m_p - blocks.m_pc @ x


def _isolated_zero(evals, gap_ratio=1e3):
    """Index of the eigenvalue of smallest magnitude, with a uniqueness
    check: the second-smallest magnitude must exceed the smallest by at
    least `gap_ratio`."""
    order = np.argsort(np.abs(evals))
    lam0, lam1 = evals[order[0]], evals[order[1]]
    if not abs(lam1) > gap_ratio * abs(lam0):
        raise NonUniqueSteadyStateError(
            "non-unique steady state: two smallest eigenvalue magnitudes "
            "%.3e and %.3e are not separated by a factor %g"
            % (abs(lam0), abs(lam1), gap_ratio)
        )
    return order[0]


def _null_vector(m):
    """Eigenvector of m for its isolated eigenvalue of smallest magnitude."""
    evals, evecs = np.linalg.eig(m)
    return evecs[:, _isolated_zero(evals)]


def steady_state(m):
    """Stationary density matrix of a full Liouvillian.

    Works sector by sector (:func:`~curlflux.liouville.sectors`, found
    here from m alone): the union of the sectors' eigenvalues is the
    spectrum of m and takes the uniqueness check, and the null vector is
    that of the one sector holding the eigenvalue of smallest magnitude,
    zero elsewhere.  On a diagonal Hamiltonian that is one d x d
    eigendecomposition plus d**2 - d scalars instead of one of size d**2.

    Parameters
    ----------
    m : (d**2, d**2) array_like
        Trace-preserving generator in the package ordering.

    Returns
    -------
    SteadyState
        Normalized (trace 1), hermitized Liouville vector together with
        the residual ||M vec(rho_ss)||.

    Raises
    ------
    NonUniqueSteadyStateError
        If the zero eigenvalue is degenerate or absent.
    """
    m = np.asarray(m, dtype=complex)
    n = m.shape[0]
    d = int(round(np.sqrt(n)))
    if d * d != n:
        raise ValueError("expected a (d**2, d**2) generator")
    labels = sectors(m)
    stacks = list(sector_blocks(m, labels, np.arange(n)))
    evals = np.concatenate([np.linalg.eigvals(s).ravel() for _, s in stacks])
    # entry k of evals belongs to the sector of index members[k]
    members = np.concatenate([idx.ravel() for idx, _ in stacks])
    sector = np.flatnonzero(labels == labels[members[_isolated_zero(evals)]])
    vals, vecs = np.linalg.eig(m[np.ix_(sector, sector)])
    v = np.zeros(n, dtype=complex)
    v[sector] = vecs[:, np.argmin(np.abs(vals))]
    tr = v[:d].sum()
    if abs(tr) < 1e-14:
        raise NonUniqueSteadyStateError("null vector has (near-)zero trace")
    v = v / tr
    # null vectors of a physical generator are Hermitian up to rounding
    rho = devectorize(v)
    rho = 0.5 * (rho + rho.conj().T)
    v = vectorize(rho)
    v = v / v[:d].sum().real
    residual = float(np.linalg.norm(m @ v))
    return SteadyState(vector=v, residual=residual)


def rate_steady_state(l_matrix):
    """Stationary population vector of a rate matrix (columns sum to zero).

    Returns
    -------
    SteadyState
        Real population vector normalized to sum 1, plus ||L p||.
    """
    l_matrix = np.asarray(l_matrix, dtype=complex)
    v = _null_vector(l_matrix)
    v = v / v.sum()
    p = v.real
    residual = float(np.linalg.norm(l_matrix @ p))
    return SteadyState(vector=p, residual=residual)


@dataclass(frozen=True)
class Analysis:
    """Everything the reduction derives from one generator.

    `sectors` are the :func:`~curlflux.liouville.sectors` labels of m,
    found once and shared by the elimination and the response spectra.
    `flux` and `split` are computed on first use: they need strictly
    positive populations, which the response spectra do not.
    """

    m: np.ndarray
    blocks: SuperoperatorBlocks
    k_map: np.ndarray
    l_matrix: np.ndarray
    rho_ss: SteadyState
    populations: np.ndarray
    sectors: np.ndarray

    @cached_property
    def flux(self):
        """FluxDecomposition of the stationary currents."""
        return curl_flux(self.l_matrix, self.populations)

    @cached_property
    def split(self):
        """SplitOperators s_d and v_ss."""
        return split_operators(self.l_matrix, self.populations, self.flux)


def analyze(m):
    """Reduce a generator and decompose its steady state.

    The populations p are the stationary vector of L (with the
    eigen-gap uniqueness check of :func:`rate_steady_state`) and the
    steady state is rho_ss = [p; K p], hermitized.  This is exact: with
    M_c non-singular, M [p; K p] = [L p; 0], so the null spaces of M and
    L correspond one to one.

    Raises
    ------
    NonDecayingCoherenceError
        If the coherence block is singular.
    NonUniqueSteadyStateError
        If L has no isolated zero eigenvalue.
    """
    m = np.asarray(m, dtype=complex)
    blocks = partition(m)
    labels = sectors(m)
    k_map, l_matrix = _eliminate(blocks, labels)
    p = rate_steady_state(l_matrix).vector
    rho = devectorize(np.concatenate([p, k_map @ p]))
    v = vectorize(0.5 * (rho + rho.conj().T))
    return Analysis(
        m=m,
        blocks=blocks,
        k_map=k_map,
        l_matrix=l_matrix,
        rho_ss=SteadyState(vector=v, residual=float(np.linalg.norm(m @ v))),
        populations=p,
        sectors=labels,
    )

