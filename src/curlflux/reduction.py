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

The steady state comes from L.  Its populations p are found by the
Grassmann-Taksar-Heyman state reduction (Grassmann, Taksar & Heyman,
Oper. Res. 33, 1107 (1985)), which takes each pivot as the sum of a
state's exit rates and so subtracts nothing: for non-negative rates p
is accurate entrywise in the relative sense (O'Cinneide, Numer. Math.
65, 109 (1993)), and the relative residual (L p)_n / (L_nn p_n), which
is what s_d + v_ss + 1 equals, stays at rounding however slow a level's
exits are.  It eliminates the states from the last one down by
recursive halving, so nearly all its work is matrix products.  rho_ss
is their lift diag(p) + K p, a d x d operator whose coherences K p sit
on the population sector's fed coherences; it is exact because
M [p; K p] = [L p; 0].  Neither step takes an eigendecomposition: only
the coherence check reads modes, those of the size groups that hold a
coherence-only sector (`Generator.modes`), plus the eigenvalues of the
population sector's coherences, so on a diagonal Hamiltonian no command
diagonalizes the d x d rate block.

`analyze` chains the whole reduction for one generator: K and L, the
steady state, and on demand the curl flux with its split operators.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .flux import _real_rate_matrix, curl_flux
from .liouville import Generator

__all__ = [
    "Analysis",
    "NonDecayingCoherenceError",
    "NonUniqueSteadyStateError",
    "analyze",
]

# a coherence eigenvalue of magnitude at most COHERENCE_TOL * max(1,
# max |eigenvalue|) does not decay
COHERENCE_TOL = 1e-12


class NonDecayingCoherenceError(np.linalg.LinAlgError):
    """The coherence block has a (near-)zero eigenvalue: some coherence
    does not decay and the adiabatic elimination is ill-defined."""


class NonUniqueSteadyStateError(np.linalg.LinAlgError):
    """The generator has more than one stationary state."""


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
    the check takes from the modes of the size groups that hold one.
    The coherences of the population sector form the one block that the
    check takes eigenvalues of and the solve reads, so X is solved there
    alone: an (n_fed, d) array whose rows follow
    `generator.population_sector[0][d:]`.

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
    evals = []
    for group, (i, _) in enumerate(generator.blocks):
        # rows run in order of their smallest index, so a group holds a
        # coherence-only sector when its last row does
        if i[-1, 0] >= d:
            evals.append(generator.modes(group)[0][i[:, 0] >= d].ravel())
    if p < idx.size:
        evals.append(np.linalg.eigvals(block[p:, p:]))
    # a one-level generator has no coherence to check
    if evals:
        _check_coherence_block(np.concatenate(evals))
    # populations in two sectors hold two stationary states
    if p < d:
        raise NonUniqueSteadyStateError(
            "non-unique steady state: the populations fall into %d "
            "disconnected sectors"
            % sum(int((i[:, 0] < d).sum()) for i, _ in generator.blocks))
    x = (np.linalg.solve(block[d:, d:], block[d:, :d]) if p < idx.size
         else np.zeros((0, d), dtype=complex))
    return -x, block[:d, :d] - block[:d, d:] @ x


def _reduce(a, lo, hi):
    """Eliminate the states hi - 1, ..., lo of a rate array in place,
    a[m, n] the rate from m to n (its diagonal is never read), and return
    the first state whose pivot is 0, or None.

    Eliminating n divides a[:n, n] by its pivot, the sum of n's rates to
    the states below it, and adds a[i, n] a[n, j] to the rate from i to j
    for every i, j below n: the rates of the chain censored to 0..n-1.
    One state is eliminated by its division alone.  A range reduces its
    upper half, adds that half's updates to the rows a[lo:mid, :mid] and
    the columns a[:lo, lo:mid] of its lower half in one matrix product
    each, and then reduces its lower half; the updates of the states
    below lo, a[:lo, :lo] += a[:lo, lo:hi] @ a[lo:hi, :lo], are left to
    the caller.  So nearly all the work runs in large products (recursive
    blocking: Gustavson, IBM J. Res. Dev. 41, 737 (1997)), the terms of
    the state-by-state elimination summed in another order.
    """
    if hi - lo == 1:
        pivot = a[lo, :lo].sum()
        if pivot == 0.0:
            return lo
        a[:lo, lo] /= pivot
    elif hi - lo > 1:
        mid = (lo + hi) // 2
        first = _reduce(a, mid, hi)
        if first is not None:
            return first
        a[lo:mid, :mid] += a[lo:mid, mid:hi] @ a[mid:hi, :mid]
        a[:lo, lo:mid] += a[:lo, mid:hi] @ a[mid:hi, lo:mid]
        return _reduce(a, lo, mid)
    return None


def _populations(rates):
    """Stationary populations of a real rate matrix L (columns summing to
    zero), normalized to sum 1, by GTH state reduction.

    `_reduce(a, 1, d)` eliminates the states d - 1, ..., 1; the updates
    it leaves to its caller fall on a[0, 0], which nothing reads.  With
    p_0 = 1, back substitution gives p_n = sum_(k<n) p_k a[k, n].
    A zero pivot at state n means that n cannot reach the states before
    it, so it lies in a closed class: the reduction restarts once with n
    first, the state kept to the end.  A unique closed class then holds
    n and is reached from every state, so a second zero pivot means a
    second closed class.

    Raises
    ------
    NonUniqueSteadyStateError
        If L has two closed classes.
    """
    order = np.arange(rates.shape[0])
    a = np.array(rates.T, order="C")
    n = _reduce(a, 1, order.size)
    if n is not None:
        order = np.concatenate([[n], np.delete(order, n)])
        a = rates.T[np.ix_(order, order)]
        second = _reduce(a, 1, order.size)
        if second is not None:
            raise NonUniqueSteadyStateError(
                "non-unique steady state: states %d and %d of the rate "
                "matrix lie in two closed classes" % (n, order[second]))
    p = np.ones(order.size)
    for k in range(1, order.size):
        p[k] = p[:k] @ a[:k, k]
    out = np.empty_like(p)
    out[order] = p / p.sum()
    return out


def _lift(generator, k_fed, x):
    """diag(x) + K x for a population vector x, as a (d, d) operator: K x
    fills the population sector's fed coherences."""
    d = generator.d
    op = np.diag(np.asarray(x, dtype=complex))
    # position d + i of the package order holds the i-th coherence (n, m),
    # n != m, in row-major order
    n, m = np.divmod(generator.population_sector[0][d:] - d, d - 1)
    m += m >= n
    op[n, m] = k_fed @ x
    return op


@dataclass(frozen=True)
class Analysis:
    """Everything the reduction derives from one generator.

    `rho_ss` is the stationary density matrix, a (d, d) Hermitian
    operator of trace 1, the lift of L's populations, and `populations`
    is its diagonal.  `l_matrix` is L, held once as its own real array:
    its imaginary part is dropped by the IMAG_TOL rule of
    :mod:`~curlflux.flux`.  The flux record, the CLI's balance verdicts
    and checks, and the fdr check read it.
    `k_fed` holds K's rows on the population sector's coherences, the
    only rows that can be non-zero; `lift` reads them.  `flux`, the one
    record of the curl flux and its split operators, is computed on
    first use: it needs strictly positive populations and non-zero exit
    rates, which the response spectra do not.
    """

    generator: Generator
    k_fed: np.ndarray
    l_matrix: np.ndarray
    rho_ss: np.ndarray
    populations: np.ndarray

    def lift(self, x):
        """W x = diag(x) + K x for a population vector x, as a (d, d)
        operator."""
        return _lift(self.generator, self.k_fed, x)

    @cached_property
    def flux(self):
        """FluxDecomposition of the stationary currents, with s_d and
        v_ss."""
        return curl_flux(self.l_matrix, self.populations)


def analyze(generator):
    """Reduce a :class:`~curlflux.liouville.Generator` and decompose its
    steady state.

    K and L come from the elimination, the populations from L by GTH
    state reduction, and rho_ss is their lift diag(p) + K p, hermitized
    and normalized to trace 1: with M_c non-singular, M [p; K p] =
    [L p; 0], so the null spaces of M and L correspond one to one.

    Raises
    ------
    NonDecayingCoherenceError
        If the coherence block is singular.
    NonUniqueSteadyStateError
        If the populations do not all share one sector, or L has two
        closed classes.
    ValueError
        If L has imaginary parts above the IMAG_TOL rule.
    """
    k_fed, l_matrix = _eliminate(generator)
    # a copy, not a view, so the complex L, twice its size, is freed
    l_matrix = np.ascontiguousarray(_real_rate_matrix(l_matrix))
    rho = _lift(generator, k_fed, _populations(l_matrix))
    # K p is Hermitian up to rounding
    rho = 0.5 * (rho + rho.conj().T)
    rho /= np.trace(rho).real
    return Analysis(
        generator=generator,
        k_fed=k_fed,
        l_matrix=l_matrix,
        rho_ss=rho,
        populations=np.diagonal(rho).real,
    )
