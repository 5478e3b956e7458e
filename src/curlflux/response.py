"""Linear response of driven open systems and its equilibrium split.

A weak probe couples to the system through a Hermitian operator V, and
the response of that same V is what the fluctuation-dissipation theorem
weighs against the fluctuations of V.  Every spectrum here takes V alone
(a V that is not Hermitian raises ValueError), and the response is

    R(t) = -i <<1| V_L exp(M t) V_- |rho_ss>>,      t >= 0,
    R(w) = -i <<1| V_L G(w) V_- |rho_ss>>,

with V_- the commutator superoperator and G(w) = -(M + i w)^{-1} the
one-sided Fourier transform of exp(M t).  It takes no convergence
factor: on every model a run file describes, each mode of M but the
stationary one decays, and no commutator source excites that one
(<<1| V_- |X>> = Tr(V X - X V) = 0), so R(w) is finite at every real
w.  A grid point on an undamped mode that a source does excite raises
ResolventSingularError.  Writing the steady state through the
curl-flux identity rho_p = -(S_D + V_ss) rho_p and lifting populations
with W = I + K, the response splits exactly into

    R_eq(w) = i <<1| V_L G(w) V_- W S_D  |rho_p>>
    R_ne(w) = i <<1| V_L G(w) V_- W V_ss |rho_p>>

whose sum reproduces R(w) identically; the second term vanishes at
detailed balance.  Fluctuations use the regression rule
<V(t)V(0)> = <<1| V_L exp(M t) V_L |rho_ss>>.  The equilibrium
comparison of the two, :func:`check_equilibrium_fdr`, runs only on
models that :func:`~curlflux.flux.is_detailed_balanced` calls balanced,
the one rule the flux report and `validate` also state.

None of these superoperators is built as a d**2 x d**2 matrix.  The
steady state and the lifts W S_D rho_p and W V_ss rho_p are d x d
operators (:class:`~curlflux.reduction.Analysis`), and Liouville
vectors are formed only as the resolvent's row and sources, O(d**3)
operator products:

    <<1| V_L = vectorize(V^T)     (<<1| V_L |X>> = Tr(V X)),
    V_- |rho>> = vectorize(V rho - rho V),  V_L |rho>> = vectorize(V rho),

the last one for the fluctuation side of :func:`check_equilibrium_fdr`
alone.

Every spectrum here is a set of matrix elements <<l| G(w) |r>> of the
one resolvent.  G(w) is block diagonal over the sectors of M (see
:mod:`~curlflux.liouville`), and it is evaluated on the whole grid from
the modes of the sectors that both <<l| and |r>> touch: only their size
groups are diagonalized (`Generator.modes`, each group once per
generator and shared with the coherence check of
:func:`~curlflux.reduction.analyze`), and the pole tolerance scales with
the largest row sum of any block, which needs no eigenvalue.  On a
diagonal Hamiltonian (every generic run file) the touched sectors are
1 x 1 coherences and the d x d rate block is never diagonalized, so the
cost is O(d**3), not the O(d**6) of one dense d**2 x d**2
eigendecomposition: on a 401-point grid, 17 ms -> 1.5 ms at d = 16 and
0.18 s -> 3 ms at d = 24 (2 cores, BLAS on 1 thread).  A dense
Hamiltonian is one sector.

Every function returns arrays and records; the spectrum and fdr-check
CSVs are written by :mod:`curlflux.cli`.
"""

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .flux import is_detailed_balanced
from .liouville import _hermitian, vectorize

__all__ = [
    "ResponseSpectrum",
    "ResolventSingularError",
    "NotDetailedBalancedError",
    "FdrReport",
    "linear_response_freq",
    "response_split",
    "check_equilibrium_fdr",
]


#: Largest cond(V) over the touched sectors above which the resolvent
#: solves per frequency.  The modal sum is off by up to 7e-16 * cond(V) of
#: each column's maximum (measured on near-defective generators), so 1e3
#: keeps it within 1e-12.  Bundled and random ladder/junction models stay
#: below 200 even as one sector, and at 1 to rounding sector by sector.
EIGEN_COND_MAX = 1e3


class ResolventSingularError(np.linalg.LinAlgError):
    """(M + i w) is singular: w hits an undamped frequency of M."""


class NotDetailedBalancedError(ValueError):
    """The model is not at detailed balance, so the equilibrium
    fluctuation-dissipation check does not apply."""


@dataclass(frozen=True)
class ResponseSpectrum:
    """Response values on a frequency grid.

    r_full is the complete response; r_eq_term and r_ne_term are the
    detailed-balance-preserving and flux-carrying contributions (None
    when only the full response was computed).  When present they sum to
    r_full within rounding.
    """

    omega: np.ndarray
    r_full: np.ndarray
    r_eq_term: Optional[np.ndarray] = None
    r_ne_term: Optional[np.ndarray] = None


def _singular(omega, eigenvalue):
    return ResolventSingularError(
        "resolvent singular at omega = %g: generator eigenvalue %s "
        "is undamped at this frequency" % (omega, eigenvalue)
    )


def _sector_resolvent(generator, omegas, left, right):
    """Matrix elements left . G(w) . right of G(w) = -(M + i w)^{-1} on a grid.

    Parameters
    ----------
    generator : Generator
        Read through its blocks, and through the modes of the size groups
        that hold a touched sector alone.
    omegas : array_like of float, n_w points
    left : (n,) or (k_left, n) array_like
    right : (n,) or (n, k_right) array_like

    Returns
    -------
    (n_w, k_left, k_right) complex ndarray
        Only the sectors that `left` reads (a non-zero column) and
        `right` feeds (a non-zero row) contribute: with
        M_s = V_s diag(lam) V_s^{-1}, A = left V and B = V^{-1} right over
        their modes, -sum_k A_k B_k / (lam_k + i w), with no
        convergence factor.  A grid point is on the pole of mode k when
        |lam_k + i w| <= 1e-13 max(1, max_s ||M_s||_inf), the largest
        absolute row sum of any sector of M: it bounds every |lam| from
        above, equals |lam| on a 1 x 1 sector, and needs no eigenvalue of
        an untouched sector.  That distance is at least |Re lam_k|, so
        only the modes within the tolerance of the imaginary axis are
        tested on the grid.  A mode the pair does not excite (|A_k B_k|
        at most 1e-12 of the pair's largest weight over all modes)
        contributes 0 there, as the stationary mode does under any
        commutator source (<<1|V_- rho>> = 0).  When the largest
        cond(V_s) over the touched sectors exceeds EIGEN_COND_MAX (near
        an exceptional point), each touched block M_s + i w is solved
        per frequency.

    Raises
    ------
    ResolventSingularError
        On the pole of a mode the pair excites; the message names the
        frequency and the eigenvalue.
    """
    omegas = np.asarray(omegas, dtype=float).reshape(-1)
    shifts = 1j * omegas
    left = np.atleast_2d(np.asarray(left, dtype=complex))
    right = np.asarray(right, dtype=complex).reshape(left.shape[1], -1)
    shape = (omegas.size, left.shape[0], right.shape[1])
    reads, feeds = (left != 0).any(axis=0), (right != 0).any(axis=1)
    # the largest ||M_s||_inf bounds every |lam| without an eigenvalue
    scale = max(1.0, *(np.abs(block).sum(axis=2).max()
                       for _, block in generator.blocks))
    touched, evals, a, b, cond = [], [], [], [], 0.0
    for group, (idx, block) in enumerate(generator.blocks):
        hit = reads[idx].any(axis=1) & feeds[idx].any(axis=1)
        if not hit.any():
            continue
        lam, vecs = generator.modes(group)
        idx, vecs = idx[hit], vecs[hit]
        touched.append((idx, block, hit))
        evals.append(lam[hit].ravel())
        if idx.shape[1] == 1:
            # a 1 x 1 sector's eigenvector is exactly 1: A and B are the
            # entries themselves, with no condition number to take
            a.append(left[:, idx[:, 0]])
            b.append(right[idx[:, 0]])
            continue
        cond = max(cond, np.linalg.cond(vecs).max())
        # A = left V and B = V^-1 right of every sector, flattened over modes
        a.append((left[:, idx][:, :, None, :] @ vecs).reshape(left.shape[0], -1))
        b.append(np.linalg.solve(vecs, right[idx]).reshape(-1, right.shape[1]))
    if not touched:
        return np.zeros(shape, dtype=complex)
    evals, a, b = np.concatenate(evals), np.hstack(a), np.vstack(b)
    if cond > EIGEN_COND_MAX:
        out = np.zeros(shape, dtype=complex)
        touched = [(idx, block[hit], left[:, idx].reshape(left.shape[0], -1))
                   for idx, block, hit in touched]
        for i, shift in enumerate(shifts):
            for idx, block, rows in touched:
                try:
                    x = np.linalg.solve(block + shift * np.eye(idx.shape[1]),
                                        -right[idx])
                except np.linalg.LinAlgError:
                    nearest = evals[np.argmin(np.abs(evals + shift))]
                    raise _singular(omegas[i], nearest) from None
                out[i] += rows @ x.reshape(-1, right.shape[1])
        return out
    # weight[k, (i, j)] = A[i, k] B[k, j]
    weight = (a.T[:, :, None] * b[:, None, :]).reshape(evals.size, -1)
    poles = evals + shifts[:, None]
    # |lam_k + i w| >= |Re lam_k|, so only the modes near the imaginary
    # axis can put a grid point on a pole
    tol = 1e-13 * scale
    near = np.flatnonzero(np.abs(evals.real) <= tol)
    at, k = np.nonzero(np.abs(poles[:, near]) <= tol)
    k = near[k]
    if at.size:
        excited = (np.abs(weight[k])
                   > 1e-12 * np.abs(weight).max(axis=0)).any(axis=1)
        if excited.any():
            first = np.argmax(excited)
            raise _singular(omegas[at[first]], evals[k[first]])
        poles[at, k] = 1.0
    # 1 / (lam_k + i w) in place (the grid array is the largest)
    np.divide(1.0, poles, out=poles)
    poles[at, k] = 0.0
    return -(poles @ weight).reshape(shape)


def _row_and_sources(v, states):
    """<<1| V_L, and V_- X for every (d, d) operator X of `states`.

    Operator products, as the module docstring states: returns the row
    vectorize(V^T) and a (d**2, k) array whose columns are
    vectorize(V X - X V).  The commutator splits X into its diagonal p
    and coherences C, [V, X] = V * (p_m - p_n) + [V, C]: near X ~ 1 the
    products V X and X V nearly cancel, and subtracting them whole would
    round the small coherence part away.  A V that is not Hermitian
    raises ValueError.
    """
    v = _hermitian(v, "coupling")
    kicked = []
    for x in states:
        p = np.diagonal(x)
        c = x - np.diag(p)
        kicked.append(vectorize(v * (p - p[:, None]) + (v @ c - c @ v)))
    return vectorize(v.T), np.column_stack(kicked)


def linear_response_freq(coupling, analysis, omegas):
    """Frequency-domain response on a grid (full response only).

    `analysis` is the :func:`~curlflux.reduction.analyze` result of the
    generator; the response is taken about its steady state.

    Returns
    -------
    ResponseSpectrum
        With r_eq_term and r_ne_term left as None.
    """
    omegas = np.asarray(omegas, dtype=float)
    row, kicked = _row_and_sources(coupling, [analysis.rho_ss])
    r_full = -1j * _sector_resolvent(analysis.generator, omegas, row,
                                     kicked)[:, 0, 0]
    return ResponseSpectrum(omega=omegas, r_full=r_full)


def response_split(coupling, analysis, omegas):
    """Full response together with its equilibrium/nonequilibrium split.

    Parameters
    ----------
    coupling : (d, d) array_like
        The Hermitian V, probed and observed.
    analysis : Analysis
        The :func:`~curlflux.reduction.analyze` result of the generator:
        its steady state, the split operators s_d and v_ss of its flux
        record, and its `lift` W = I + K, which takes s_d p and v_ss p
        to the operators W S_D rho_p and W V_ss rho_p.
    omegas : array_like of float

    Returns
    -------
    ResponseSpectrum
        r_full, r_eq_term and r_ne_term, with
        r_eq_term + r_ne_term == r_full up to rounding.
    """
    flux, lift = analysis.flux, analysis.lift
    states = [analysis.rho_ss] + [lift(w * analysis.populations)
                                  for w in (flux.s_d, flux.v_ss)]
    row, kicked = _row_and_sources(coupling, states)
    omegas = np.asarray(omegas, dtype=float)
    r = _sector_resolvent(analysis.generator, omegas, row, kicked)[:, 0, :]
    return ResponseSpectrum(omega=omegas, r_full=-1j * r[:, 0],
                            r_eq_term=1j * r[:, 1], r_ne_term=1j * r[:, 2])


@dataclass(frozen=True)
class FdrReport:
    """Pointwise comparison of dissipation and fluctuation sides."""

    omega: np.ndarray
    lhs: np.ndarray          # coth(w / 2T) * Im R(w)
    rhs: np.ndarray          # S(w) + S(-w), complex
    residual: np.ndarray     # |lhs - rhs|
    max_residual: float


def check_equilibrium_fdr(coupling, analysis, temperature, omegas):
    """Test coth(w/2T) Im R(w) = S(w) + S(-w) for a thermal generator.

    R(w) and S(+-w) share the row <<1| V_L and come from one
    resolvent evaluation with the sources V_- rho_ss and V_L rho_ss on
    the grid [w; -w].  The model (an :class:`~curlflux.reduction.Analysis`)
    must be detailed balanced by the one rule of
    :func:`~curlflux.flux.is_detailed_balanced`, the rule the flux report
    and `validate` state; driven models are refused.  Grid points at w = 0 are skipped with a
    warning (coth pole).

    For a Markovian generator the relation is exact only in the
    weak-damping limit: the Lorentzian-broadened correlators satisfy the
    thermal (KMS) weight exchange at the line centers but not in the
    tails, so the pointwise residual is of order the damping rate.

    Returns
    -------
    FdrReport

    Raises
    ------
    NotDetailedBalancedError
        With the measured violation, if the generator carries flux.
    """
    balanced, violation = is_detailed_balanced(analysis.l_matrix,
                                               analysis.populations)
    if not balanced:
        raise NotDetailedBalancedError(
            "generator is not detailed balanced (max violation %.3e); "
            "the equilibrium fluctuation-dissipation relation does not "
            "apply" % violation
        )
    row, kicked = _row_and_sources(coupling, [analysis.rho_ss])
    # V_L rho_ss, the fluctuation side's source, of the coupling that
    # _row_and_sources has found Hermitian
    seeded = vectorize(np.asarray(coupling, dtype=complex) @ analysis.rho_ss)
    omegas = np.asarray(omegas, dtype=float)
    keep = omegas != 0.0
    if not np.all(keep):
        warnings.warn("skipping omega = 0 grid points (coth pole)")
    omegas = omegas[keep]
    g = _sector_resolvent(analysis.generator, np.concatenate([omegas, -omegas]),
                          row, np.column_stack([kicked, seeded]))[:, 0, :]
    n = omegas.size
    lhs = (1.0 / np.tanh(omegas / (2.0 * temperature))) * (-1j * g[:n, 0]).imag
    rhs = g[:n, 1] + g[n:, 1]
    residual = np.abs(lhs - rhs)
    return FdrReport(
        omega=omegas,
        lhs=lhs,
        rhs=rhs,
        residual=residual,
        max_residual=float(residual.max(initial=0.0)),
    )

