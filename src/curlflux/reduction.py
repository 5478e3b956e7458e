"""Coherence elimination and steady states.

Given the block-partitioned generator, the coherences can be removed in
two ways: exactly, through the frequency-domain memory kernel
M_pc (s - M_c)^{-1} M_cp, or adiabatically, by assuming the coherences
relax instantly to their stationary value K rho_p with
K = -M_c^{-1} M_cp.  The adiabatic route yields the effective population
rate matrix L = M_p - M_pc M_c^{-1} M_cp, which is exact at stationarity
regardless of time-scale separation.

`analyze` chains the whole reduction for one generator: K and L, the
steady state, and on demand the curl flux and the split operators.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .flux import curl_flux, split_operators
from .liouville import SuperoperatorBlocks, devectorize, partition, vectorize

__all__ = [
    "Analysis",
    "NonDecayingCoherenceError",
    "NonUniqueSteadyStateError",
    "SteadyState",
    "analyze",
    "coherence_map",
    "effective_rate_matrix",
    "memory_kernel",
    "steady_state",
    "rate_steady_state",
    "propagate",
]


class NonDecayingCoherenceError(np.linalg.LinAlgError):
    """The coherence block has a (near-)zero eigenvalue: some coherence
    does not decay and the adiabatic elimination is ill-defined."""


class NonUniqueSteadyStateError(np.linalg.LinAlgError):
    """The generator has no isolated zero eigenvalue."""


class SteadyState(NamedTuple):
    vector: np.ndarray
    residual: float


def _check_coherence_block(m_c, tol=1e-12):
    evals = np.linalg.eigvals(m_c)
    scale = max(1.0, np.abs(evals).max())
    worst = evals[np.argmin(np.abs(evals))]
    if abs(worst) <= tol * scale:
        raise NonDecayingCoherenceError(
            "coherence block is singular: eigenvalue %s has magnitude %.3e"
            % (worst, abs(worst))
        )


def _eliminate(blocks):
    """(K, L) from one coherence-block check and one solve M_c X = M_cp:
    K = -X and L = M_p - M_pc X."""
    _check_coherence_block(blocks.m_c)
    x = np.linalg.solve(blocks.m_c, blocks.m_cp)
    return -x, blocks.m_p - blocks.m_pc @ x


def coherence_map(blocks):
    """Map K from populations to stationary coherences, K = -M_c^{-1} M_cp.

    Raises
    ------
    NonDecayingCoherenceError
        If the coherence block has an eigenvalue of (near-)zero magnitude.
    """
    return _eliminate(blocks)[0]


def effective_rate_matrix(blocks):
    """Adiabatic population rate matrix L = M_p - M_pc M_c^{-1} M_cp.

    The result is returned complex; for physical generators the imaginary
    parts vanish to rounding and every column sums to zero.
    """
    return _eliminate(blocks)[1]


def memory_kernel(blocks, s):
    """Frequency-domain kernel M_pc (s - M_c)^{-1} M_cp at Laplace point s."""
    n = blocks.m_c.shape[0]
    a = s * np.eye(n) - blocks.m_c
    if 1.0 / np.linalg.cond(a) < 1e-13:
        raise NonDecayingCoherenceError(
            "resolvent singular at s = %s (s hits a coherence eigenvalue)" % s
        )
    return blocks.m_pc @ np.linalg.solve(a, blocks.m_cp)


def _null_vector(m, gap_ratio=1e3):
    """Eigenvector for the eigenvalue of smallest magnitude, with a
    uniqueness check: the second-smallest magnitude must exceed the
    smallest by at least `gap_ratio`."""
    evals, evecs = np.linalg.eig(m)
    order = np.argsort(np.abs(evals))
    lam0, lam1 = evals[order[0]], evals[order[1]]
    if not abs(lam1) > gap_ratio * abs(lam0):
        raise NonUniqueSteadyStateError(
            "non-unique steady state: two smallest eigenvalue magnitudes "
            "%.3e and %.3e are not separated by a factor %g"
            % (abs(lam0), abs(lam1), gap_ratio)
        )
    return evecs[:, order[0]]


def steady_state(m):
    """Stationary density matrix of a full Liouvillian.

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
    v = _null_vector(m)
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

    `flux` and `split` are computed on first use: they need strictly
    positive populations, which the response spectra do not.
    """

    m: np.ndarray
    blocks: SuperoperatorBlocks
    k_map: np.ndarray
    l_matrix: np.ndarray
    rho_ss: SteadyState
    populations: np.ndarray

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
    k_map, l_matrix = _eliminate(blocks)
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
    )


def propagate(m, rho0, t):
    """Evolve a Liouville vector: exp(M t) vec(rho0).

    Uses the dense scaling-and-squaring matrix exponential, which is
    well-behaved for the non-normal generators that arise here.  scipy is
    imported here, its only user, so that importing the package (and
    every CLI command, none of which propagates) does not load it.
    """
    from scipy.linalg import expm

    if t < 0:
        raise ValueError("propagation time must be non-negative")
    m = np.asarray(m, dtype=complex)
    rho0 = np.asarray(rho0, dtype=complex)
    if t == 0:
        return rho0.copy()
    return expm(m * t) @ rho0
