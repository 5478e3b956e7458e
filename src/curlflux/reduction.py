"""Coherence elimination and the steady state.

The generator M is read in place through its population/coherence
blocks, slices of M in the package order (populations first).  The
coherences are removed adiabatically: they relax to their stationary
value K rho_p with K = -M_c^{-1} M_cp, which yields the effective
population rate matrix L = M_p - M_pc M_c^{-1} M_cp.  L is exact at
stationarity regardless of time-scale separation.

Only coherences that share a sector (:func:`~curlflux.liouville.sectors`)
with a population have non-zero rows in K, so only they enter the solve;
on a diagonal Hamiltonian there are none and K = 0 without a solve.

The steady state is the null vector of the full generator, read from
the modes of its sectors (:func:`~curlflux.liouville.sector_modes`; on a
diagonal Hamiltonian one eigendecomposition of the d x d rate block, not
of the d**2 x d**2 generator).  It does not depend on K and L, so it
checks them.

`analyze` chains the whole reduction for one generator: one
diagonalization of its sectors, shared by the coherence check, the
steady state and the response spectra; K and L; the steady state; and
on demand the curl flux and the split operators.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .flux import curl_flux, split_operators
from .liouville import devectorize, sector_modes, sectors, vectorize

__all__ = [
    "Analysis",
    "NonDecayingCoherenceError",
    "NonUniqueSteadyStateError",
    "SteadyState",
    "analyze",
    "steady_state",
]


class NonDecayingCoherenceError(np.linalg.LinAlgError):
    """The coherence block has a (near-)zero eigenvalue: some coherence
    does not decay and the adiabatic elimination is ill-defined."""


class NonUniqueSteadyStateError(np.linalg.LinAlgError):
    """The generator has no isolated zero eigenvalue."""


class SteadyState(NamedTuple):
    vector: np.ndarray
    residual: float


def _check_coherence_block(evals, tol=1e-12):
    """Refuse a (near-)singular M_c, given its eigenvalues."""
    scale = max(1.0, np.abs(evals).max())
    worst = evals[np.argmin(np.abs(evals))]
    if abs(worst) <= tol * scale:
        raise NonDecayingCoherenceError(
            "coherence block is singular: eigenvalue %s has magnitude %.3e"
            % (worst, abs(worst))
        )


def _dim(m):
    """d of a (d**2, d**2) generator."""
    n = m.shape[0]
    d = math.isqrt(n)
    if d * d != n or m.shape != (n, n):
        raise ValueError("expected a (d**2, d**2) generator")
    return d


def _eliminate(m, labels, modes):
    """(K, L) from one coherence-block check and one solve M_c X = M_cp:
    K = -X and L = M_p - M_pc X.

    `labels` are the sectors of m and `modes` their eigendecompositions.
    A sector without a population is a block of M_c, whose eigenvalues
    the check takes from its modes.  The coherences whose sector holds a
    population form the one block that the check takes eigenvalues of
    and the solve reads: every other row of X is 0.
    """
    d = _dim(m)
    # populations come first, so a sector holds one exactly when its
    # smallest index is below d
    fed = np.flatnonzero(labels[d:] < d)
    rows = fed + d
    fed_block = m[np.ix_(rows, rows)]
    evals = [lam[idx[:, 0] >= d].ravel() for idx, lam, _ in modes]
    if fed.size:
        evals.append(np.linalg.eigvals(fed_block))
    _check_coherence_block(np.concatenate(evals))
    x = np.zeros((m.shape[0] - d, d), dtype=complex)
    if fed.size:
        x[fed] = np.linalg.solve(fed_block, m[rows, :d])
    return -x, m[:d, :d] - m[:d, d:] @ x


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


def _steady_state(m, modes):
    """:func:`steady_state` of m, given its sector modes."""
    d, n = _dim(m), m.shape[0]
    k = _isolated_zero(np.concatenate([lam.ravel() for _, lam, _ in modes]))
    for idx, lam, vecs in modes:
        if k < lam.size:
            break
        k -= lam.size
    row, col = divmod(k, lam.shape[1])
    v = np.zeros(n, dtype=complex)
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
    residual = float(np.linalg.norm(m @ v))
    return SteadyState(vector=v, residual=residual)


def steady_state(m):
    """Stationary density matrix of a full Liouvillian.

    Works sector by sector (:func:`~curlflux.liouville.sector_modes`,
    found here from m alone): the union of the sector eigenvalues is the
    spectrum of m and takes the uniqueness check, and the null vector is
    the eigenvector of the eigenvalue of smallest magnitude in its
    sector, zero elsewhere.  On a diagonal Hamiltonian that is one d x d
    eigendecomposition plus d**2 - d scalars instead of one of size
    d**2; on a generator with one sector, one eigendecomposition of m.

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
    _dim(m)
    return _steady_state(m, sector_modes(m, sectors(m)))


@dataclass(frozen=True)
class Analysis:
    """Everything the reduction derives from one generator.

    `modes` are the :func:`~curlflux.liouville.sector_modes` of m, found
    once and shared by the coherence check, the steady state and the
    response spectra.  `rho_ss` is the null vector of m, and
    `populations` is its diagonal.  `flux` and `split` are computed on
    first use: they need strictly positive populations, which the
    response spectra do not.
    """

    m: np.ndarray
    k_map: np.ndarray
    l_matrix: np.ndarray
    rho_ss: SteadyState
    populations: np.ndarray
    modes: list

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

    Each sector of m is diagonalized once.  K and L come from the elimination,
    and the steady state rho_ss is the null vector of m itself, from the
    routine behind :func:`steady_state`; the populations are its
    diagonal.  With M_c non-singular, M [p; K p] = [L p; 0], so the null
    spaces of M and L correspond one to one and L p = 0.

    Raises
    ------
    NonDecayingCoherenceError
        If the coherence block is singular.
    NonUniqueSteadyStateError
        If m has no isolated zero eigenvalue.
    """
    m = np.asarray(m, dtype=complex)
    d = _dim(m)
    labels = sectors(m)
    modes = sector_modes(m, labels)
    k_map, l_matrix = _eliminate(m, labels, modes)
    rho_ss = _steady_state(m, modes)
    return Analysis(
        m=m,
        k_map=k_map,
        l_matrix=l_matrix,
        rho_ss=rho_ss,
        populations=rho_ss.vector[:d].real,
        modes=modes,
    )
