"""Curl-flux decomposition of nonequilibrium steady states.

The stationary one-way currents t[m, n] = L[n, m] * p[m] (probability
per unit time flowing from state m into state n) split uniquely into a
detailed-balance part sym[m, n] = min(t[m, n], t[n, m]) and a
non-negative, unidirectional remainder c = t - sym, the curl flux.  At
stationarity c is divergence free and therefore decomposes into a
superposition of directed loop fluxes; the loops are extracted by
deterministic iterative cycle cancellation, a walk over one ascending
successor list per node of the flux support, in O(nnz) memory.

The same record holds the diagonal operators of the split, the
decomposition read state by state: each part's inflow into n over n's
outflow L[n,n] p[n],

    s_d[n] = sum_k sym[k, n] / (L[n,n] p[n])
    v_ss[n] = sum_k c[k, n] / (L[n,n] p[n])

(the Schnakenberg split, Rev. Mod. Phys. 48, 571 (1976)).  They satisfy
s_d + v_ss = -1 entrywise at stationarity and enter the equilibrium /
nonequilibrium split of the linear response.  v_ss vanishes exactly when
detailed balance holds.

Every function returns arrays and records; the JSON flux report is
written by :mod:`curlflux.cli`.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "FluxDecomposition",
    "NonStationaryError",
    "curl_flux",
    "loop_decomposition",
    "reconstruct_flux",
    "is_detailed_balanced",
]

# flux entries below this magnitude are treated as round-off during loop
# extraction, so no spurious cycles are produced
FLUX_CLAMP = 1e-14
# largest max |t - t^T| still called detailed balance: the one bound of
# every verdict (the flux report, `flux`, `validate` and `fdr-check`)
BALANCE_TOL = 1e-12
# largest ||L p||_inf that curl_flux and `validate` take as stationary
STATIONARY_TOL = 1e-10
# largest flux left after loop extraction, relative to max(1, max c)
LOOP_RESIDUAL_TOL = 1e-12
# largest Im L, relative to max(1, max |Re L|), dropped as rounding
IMAG_TOL = 1e-10


class NonStationaryError(ValueError):
    """Input populations are not stationary under the given rate matrix."""


@dataclass(frozen=True)
class FluxDecomposition:
    """Stationary current matrix, its curl/symmetric split and the
    diagonal operators of that split.

    All matrices are (d, d) real with the convention that entry [m, n]
    is the flow from state m into state n. `loops` is a list of
    (cycle, weight) pairs, each cycle a tuple of state indices traversed
    in flow direction (closing edge back to the first node implied).
    `s_d` and `v_ss` are the (d,) diagonals of the detailed-balance and
    flux parts of the identity s_d + v_ss = -1.
    """

    t_rate: np.ndarray
    c: np.ndarray
    sym: np.ndarray
    loops: tuple
    s_d: np.ndarray
    v_ss: np.ndarray


def _real_rate_matrix(l_matrix):
    l_matrix = np.asarray(l_matrix)
    if np.iscomplexobj(l_matrix):
        worst = np.abs(l_matrix.imag).max()
        if worst > IMAG_TOL * max(1.0, np.abs(l_matrix.real).max()):
            raise ValueError(
                "rate matrix has non-negligible imaginary parts (max %.3e)" % worst
            )
        l_matrix = l_matrix.real
    return l_matrix


def _currents(l_matrix, p):
    """t[m, n] = L[n, m] p[m], the one-way currents, with a zero diagonal,
    C-ordered as sym and c are."""
    t = np.multiply(l_matrix.T, p[:, None], order="C")
    np.fill_diagonal(t, 0.0)
    return t


def curl_flux(l_matrix, populations):
    """Decompose the stationary currents of (L, p) into curl + symmetric parts.

    Parameters
    ----------
    l_matrix : (d, d) array_like
        Population rate matrix, columns summing to zero; entry [n, m] is
        the rate from state m to state n.
    populations : (d,) array_like
        Stationary populations of `l_matrix`, strictly positive; an
        ||L p||_inf above STATIONARY_TOL raises NonStationaryError.

    Returns
    -------
    FluxDecomposition
        Its s_d and v_ss are the column sums of sym and c over
        L[n,n] p[n]; stationarity, L[n,n] p[n] = -sum_k (sym + c)[k, n],
        makes s_d + v_ss = -1.

    Raises
    ------
    ValueError
        If a population is not positive or a state has no exit rate.
    """
    l_matrix = _real_rate_matrix(l_matrix)
    p = np.asarray(populations, dtype=float)
    d = p.size
    if l_matrix.shape != (d, d):
        raise ValueError("rate matrix / population shape mismatch")
    if np.any(p <= 0):
        raise ValueError("populations must be strictly positive")
    resid = np.abs(l_matrix @ p).max()
    if resid > STATIONARY_TOL:
        raise NonStationaryError(
            "populations are not stationary: ||L p||_inf = %.3e > %.3e"
            % (resid, STATIONARY_TOL)
        )
    diag = np.diagonal(l_matrix)
    if np.any(diag == 0):
        raise ValueError("singular diagonal: zero exit rate")
    # t, and so sym, c and c.T, have zero diagonals
    t = _currents(l_matrix, p)
    sym = np.minimum(t, t.T)
    c = t - sym
    # sym and c are C-ordered, so a column sum adds the rows in order
    return FluxDecomposition(t_rate=t, c=c, sym=sym,
                             loops=tuple(loop_decomposition(c)),
                             s_d=sym.sum(axis=0) / (diag * p),
                             v_ss=c.sum(axis=0) / (diag * p))


def loop_decomposition(c):
    """Decompose a divergence-free flux matrix into directed loops.

    Repeatedly finds a directed cycle in the support of the flux (walking
    from the lowest-indexed node with outgoing flux, always to the
    lowest-indexed successor, until a node repeats), subtracts the
    minimum edge weight along the cycle, and records (cycle, weight).
    Deterministic.  Only the support is held, as a dict of edge weights
    and one ascending successor list per node (O(nnz) memory); an edge
    leaves its list once it falls below FLUX_CLAMP.  The cycles, their
    order and the weights equal those of the same walk over the dense
    matrix: the subtractions are the same and run in the same order.

    Parameters
    ----------
    c : (d, d) array_like
        Non-negative flux with c[m, n] * c[n, m] == 0 and equal in/out
        flow at every node.  Entries below FLUX_CLAMP are ignored.  A
        leftover flux above LOOP_RESIDUAL_TOL (relative to the largest
        input entry) once no cycles remain signals a violated
        precondition and raises ValueError.

    Returns
    -------
    list of (cycle, weight)
        Cycles as tuples of node indices, rotated so the smallest index
        comes first; weights strictly positive.
    """
    c = np.asarray(c, dtype=float)
    scale = max(c.max(initial=0.0), 1.0)
    rows, cols = np.nonzero(c >= FLUX_CLAMP)
    weights = dict(zip(zip(rows.tolist(), cols.tolist()),
                       c[rows, cols].tolist()))
    succ = {}
    for i, j in weights:    # row-major order, so each list ascends
        succ.setdefault(i, []).append(j)
    loops = []
    for start in sorted(succ):
        while succ[start] and (cycle := _find_cycle(succ, start)):
            edges = list(zip(cycle, cycle[1:] + cycle[:1]))
            weight = min(weights[edge] for edge in edges)
            for i, j in edges:
                left = weights[i, j] - weight
                if left < FLUX_CLAMP:
                    del weights[i, j]
                    succ[i].remove(j)
                else:
                    weights[i, j] = left
            k = cycle.index(min(cycle))
            loops.append((tuple(cycle[k:] + cycle[:k]), weight))
        if succ[start]:     # the walk from start met a node with no successor
            break
    leftover = max(weights.values(), default=0.0)
    if leftover > LOOP_RESIDUAL_TOL * scale:
        raise ValueError(
            "flux is not a superposition of loops: residual %.3e remains "
            "(input likely not divergence free)" % leftover
        )
    return loops


def _find_cycle(succ, start):
    """Walk to the lowest successor until a node repeats; return that
    cycle, or None at a node with no successor."""
    path = [start]
    seen = {start: 0}
    node = start
    while True:
        successors = succ.get(node)
        if not successors:
            return None
        node = successors[0]
        if node in seen:
            return path[seen[node]:]
        seen[node] = len(path)
        path.append(node)


def reconstruct_flux(loops, dim):
    """Sum loop fluxes back into a (dim, dim) matrix (testing aid)."""
    c = np.zeros((dim, dim))
    for cycle, weight in loops:
        for i, j in zip(cycle, cycle[1:] + cycle[:1]):
            c[i, j] += weight
    return c


def is_detailed_balanced(l_matrix, populations):
    """Check pairwise balance of the stationary currents.

    Returns
    -------
    (bool, float)
        Verdict (the violation at most BALANCE_TOL) and the maximum
        violation max_mn |t[m,n] - t[n,m]|.
    """
    t = _currents(_real_rate_matrix(l_matrix),
                  np.asarray(populations, dtype=float))
    violation = float(np.abs(t - t.T).max())
    return violation <= BALANCE_TOL, violation
