"""Linear response of driven open systems and its equilibrium split.

A weak probe couples to the system through a Hermitian operator V, and
the response of that same V is what the fluctuation-dissipation theorem
weighs against the fluctuations of V.  Every spectrum here takes V alone
(a V that is not Hermitian raises ValueError), and the response is

    R(t) = -i <<1| V_L exp(M t) V_- |rho_ss>>,      t >= 0,
    R(w) = -i <<1| V_L G(w) V_- |rho_ss>>,

with V_- the commutator superoperator and G(w) = -(M + i w)^{-1} the
one-sided Fourier transform of exp(M t).  Writing the steady state
through the curl-flux identity rho_p = -(S_D + V_ss) rho_p and lifting
populations with W = I + K, the response splits exactly into

    R_eq(w) = i <<1| V_L G(w) V_- W S_D  |rho_p>>
    R_ne(w) = i <<1| V_L G(w) V_- W V_ss |rho_p>>

whose sum reproduces R(w) identically; the second term vanishes at
detailed balance.  Fluctuations use the regression rule
<V(t)V(0)> = <<1| V_L exp(M t) V_L |rho_ss>>.

None of these superoperators is built as a d**2 x d**2 matrix: the row
and the sources are O(d**3) operator products,

    <<1| V_L = vectorize(V^T)     (<<1| V_L |X>> = Tr(V X)),
    V_- |rho>> = vectorize(V rho - rho V),  V_L |rho>> = vectorize(V rho).

Every spectrum here is a set of matrix elements <<l| G(w) |r>> of the
one resolvent.  G(w) is block diagonal over the sectors of M
(:func:`~curlflux.liouville.sectors`), and :func:`resolvent` evaluates
it on the whole grid from the modes of the sectors that both <<l| and
|r>> touch (:func:`~curlflux.liouville.sector_modes`, found once per
generator by :func:`~curlflux.reduction.analyze`).  On a diagonal
Hamiltonian (every generic run file) the touched sectors are 1 x 1
coherences, so the cost is O(d**3), not the O(d**6) of one dense
d**2 x d**2 eigendecomposition: on a 401-point grid, 17 ms -> 1.5 ms at
d = 16 and 0.18 s -> 3 ms at d = 24 (2 cores, BLAS on 1 thread).  A
dense Hamiltonian is one sector.
"""

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .flux import is_detailed_balanced
from .liouville import _hermitian, devectorize, sector_modes, sectors, vectorize

__all__ = [
    "ResponseSpectrum",
    "ResolventSingularError",
    "NotDetailedBalancedError",
    "FdrReport",
    "resolvent",
    "linear_response_freq",
    "response_split",
    "fluctuation_spectrum",
    "check_equilibrium_fdr",
    "spectrum_to_csv",
]


#: Largest cond(V) over the touched sectors above which :func:`resolvent`
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


def resolvent(m, omegas, left, right, epsilon=None):
    """Matrix elements left . G(w) . right of G(w) = -(M + i w)^{-1} on a grid.

    Parameters
    ----------
    m : (n, n) array_like
    omegas : array_like of float, n_w points
    left : (n,) or (k_left, n) array_like
    right : (n,) or (n, k_right) array_like
    epsilon : float, optional
        Regularization for directions that do not decay: uses
        -(M + i w - epsilon)^{-1}, an exp(-epsilon t) convergence factor.

    Returns
    -------
    (n_w, k_left, k_right) complex ndarray
        Every sector of M is diagonalized, equal sizes in one stacked
        call, M_s = V_s diag(lam) V_s^{-1}, but only the sectors that
        `left` reads (a non-zero column) and `right` feeds (a non-zero
        row) contribute: with A = left V and B = V^{-1} right over their
        modes,
        -sum_k A_k B_k / (lam_k + i w - epsilon).  A grid point is on the
        pole of mode k when
        |lam_k + i w - epsilon| <= 1e-13 max(1, max|lam|), the maximum
        taken over every sector of M; a mode the pair does not excite
        (|A_k B_k| at most 1e-12 of the pair's largest weight) contributes
        0 there, as the stationary mode does under any commutator source
        (<<1|V_- rho>> = 0).  When the largest cond(V_s) over the touched
        sectors exceeds EIGEN_COND_MAX (near an exceptional point),
        M + i w - epsilon is solved per frequency on the touched sectors.

    Raises
    ------
    ResolventSingularError
        On the pole of a mode the pair excites; the message names the
        frequency and the eigenvalue.
    """
    m = np.asarray(m, dtype=complex)
    return _sector_resolvent(m, sector_modes(m, sectors(m)), omegas, left,
                             right, epsilon)


def _sector_resolvent(m, modes, omegas, left, right, epsilon):
    """:func:`resolvent` with the sector modes of m already known."""
    omegas = np.asarray(omegas, dtype=float).reshape(-1)
    shifts = 1j * omegas - (0.0 if epsilon is None else epsilon)
    left = np.atleast_2d(np.asarray(left, dtype=complex))
    right = np.asarray(right, dtype=complex).reshape(m.shape[0], -1)
    shape = (omegas.size, left.shape[0], right.shape[1])
    reads, feeds = (left != 0).any(axis=0), (right != 0).any(axis=1)
    scale = max(1.0, *(np.abs(lam).max() for _, lam, _ in modes))
    keep, evals, a, b, cond = [], [], [], [], 0.0
    for idx, lam, vecs in modes:
        hit = reads[idx].any(axis=1) & feeds[idx].any(axis=1)
        if not hit.any():
            continue
        idx, vecs = idx[hit], vecs[hit]
        keep.append(idx.ravel())
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
    if not keep:
        return np.zeros(shape, dtype=complex)
    evals, a, b = np.concatenate(evals), np.hstack(a), np.vstack(b)
    if cond > EIGEN_COND_MAX:
        keep = np.concatenate(keep)
        sub, eye = m[np.ix_(keep, keep)], np.eye(keep.size)
        out = np.empty(shape, dtype=complex)
        for i, shift in enumerate(shifts):
            try:
                out[i] = left[:, keep] @ np.linalg.solve(sub + shift * eye,
                                                         -right[keep])
            except np.linalg.LinAlgError:
                nearest = evals[np.argmin(np.abs(evals + shift))]
                raise _singular(omegas[i], nearest) from None
        return out
    # weight[k, (i, j)] = A[i, k] B[k, j]
    weight = (a.T[:, :, None] * b[:, None, :]).reshape(evals.size, -1)
    poles = evals + shifts[:, None]
    on_pole = np.abs(poles) <= 1e-13 * scale
    excited = np.abs(weight) > 1e-12 * np.abs(weight).max(axis=0)
    hits = np.argwhere(on_pole & excited.any(axis=1))
    if hits.size:
        i, k = hits[0]
        raise _singular(omegas[i], evals[k])
    # 1 / (lam_k + i w - epsilon) in place (the grid array is the largest)
    np.divide(1.0, poles, out=poles, where=~on_pole)
    poles[on_pole] = 0.0
    return -(poles @ weight).reshape(shape)


def _row_and_sources(v, columns):
    """<<1| V_L, and V_- x and V_L x for every Liouville column x.

    Operator products, as the module docstring states: returns the row
    vectorize(V^T) and two (d**2, k) arrays whose columns are
    vectorize(V X - X V) and vectorize(V X).  The commutator splits X
    into its diagonal p and coherences C, [V, X] = V * (p_m - p_n) +
    [V, C]: near X ~ 1 the products V X and X V nearly cancel, and
    subtracting them whole would round the small coherence part away.
    A V that is not Hermitian raises ValueError.
    """
    v = _hermitian(v, "coupling")
    xs = [devectorize(x) for x in np.asarray(columns).reshape(v.size, -1).T]
    kicked = []
    for x in xs:
        p = np.diagonal(x)
        c = x - np.diag(p)
        kicked.append(vectorize(v * (p - p[:, None]) + (v @ c - c @ v)))
    return (vectorize(v.T), np.column_stack(kicked),
            np.column_stack([vectorize(v @ x) for x in xs]))


def linear_response_freq(coupling, analysis, omegas, epsilon=None):
    """Frequency-domain response on a grid (full response only).

    `analysis` is the :func:`~curlflux.reduction.analyze` result of the
    generator; the response is taken about its steady state.

    Returns
    -------
    ResponseSpectrum
        With r_eq_term and r_ne_term left as None.
    """
    omegas = np.asarray(omegas, dtype=float)
    row, kicked, _ = _row_and_sources(coupling, analysis.rho_ss.vector)
    r_full = -1j * _sector_resolvent(analysis.m, analysis.modes, omegas, row,
                                     kicked, epsilon)[:, 0, 0]
    return ResponseSpectrum(omega=omegas, r_full=r_full)


def response_split(coupling, analysis, omegas, epsilon=None):
    """Full response together with its equilibrium/nonequilibrium split.

    Parameters
    ----------
    coupling : (d, d) array_like
        The Hermitian V, probed and observed.
    analysis : Analysis
        The :func:`~curlflux.reduction.analyze` result of the generator:
        its steady state, coherence map K and split operators.
    omegas : array_like of float
    epsilon : float, optional
        As in :func:`resolvent`.

    Returns
    -------
    ResponseSpectrum
        r_full, r_eq_term and r_ne_term, with
        r_eq_term + r_ne_term == r_full up to rounding.
    """
    pops = analysis.populations
    d = pops.size
    # W = I + K lifts population vectors into Liouville space
    lift = np.vstack([np.eye(d), analysis.k_map])
    states = np.column_stack([
        analysis.rho_ss.vector,
        lift @ (analysis.split.s_d * pops),
        lift @ (analysis.split.v_ss * pops),
    ])
    row, kicked, _ = _row_and_sources(coupling, states)
    omegas = np.asarray(omegas, dtype=float)
    r = _sector_resolvent(analysis.m, analysis.modes, omegas, row, kicked,
                          epsilon)[:, 0, :]
    return ResponseSpectrum(omega=omegas, r_full=-1j * r[:, 0],
                            r_eq_term=1j * r[:, 1], r_ne_term=1j * r[:, 2])


def fluctuation_spectrum(coupling, analysis, omegas, epsilon=None):
    """One-sided fluctuation spectrum S(w) = int_0^inf e^{iwt} <V(t)V(0)> dt,
    as a complex array over the grid `omegas`, in the steady state of
    `analysis` (an :class:`~curlflux.reduction.Analysis`).

    The two-time correlator is evaluated by the regression rule, so
    S(w) = <<1| V_L G(w) V_L |rho_ss>>.  A static component of V along
    the steady state makes S(w) diverge like i/w as w -> 0; supplying
    `epsilon` replaces that pole by i/(w + i epsilon).
    """
    row, _, seeded = _row_and_sources(coupling, analysis.rho_ss.vector)
    return _sector_resolvent(analysis.m, analysis.modes, omegas, row, seeded,
                             epsilon)[:, 0, 0]


@dataclass(frozen=True)
class FdrReport:
    """Pointwise comparison of dissipation and fluctuation sides."""

    omega: np.ndarray
    lhs: np.ndarray          # coth(w / 2T) * Im R(w)
    rhs: np.ndarray          # S(w) + S(-w), complex
    residual: np.ndarray     # |lhs - rhs|
    max_residual: float


def check_equilibrium_fdr(coupling, analysis, temperature, omegas, db_tol=1e-9,
                          epsilon=None):
    """Test coth(w/2T) Im R(w) = S(w) + S(-w) for a thermal generator.

    R(w) and S(+-w) share the row <<1| V_L and come from one
    :func:`resolvent` call with the sources V_- rho_ss and V_L rho_ss on
    the grid [w; -w].  The model (an :class:`~curlflux.reduction.Analysis`)
    must be detailed balanced (checked through its effective rate matrix);
    driven models are refused.  Grid points at w = 0 are skipped with a
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
    balanced, violation = is_detailed_balanced(
        analysis.l_matrix, analysis.populations, tol=db_tol
    )
    if not balanced:
        raise NotDetailedBalancedError(
            "generator is not detailed balanced (max violation %.3e); "
            "the equilibrium fluctuation-dissipation relation does not "
            "apply" % violation
        )
    row, kicked, seeded = _row_and_sources(coupling, analysis.rho_ss.vector)
    omegas = np.asarray(omegas, dtype=float)
    keep = omegas != 0.0
    if not np.all(keep):
        warnings.warn("skipping omega = 0 grid points (coth pole)")
    omegas = omegas[keep]
    g = _sector_resolvent(analysis.m, analysis.modes,
                          np.concatenate([omegas, -omegas]), row,
                          np.hstack([kicked, seeded]), epsilon)[:, 0, :]
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


def spectrum_to_csv(spectrum):
    """Render a ResponseSpectrum as CSV text.

    Columns: omega, re_full, im_full, im_eq, im_ne (the split columns
    are written as 0 when the split was not computed).  Full double
    precision so files are usable as regression goldens.
    """
    zeros = np.zeros(spectrum.omega.size)
    eq = spectrum.r_eq_term.imag if spectrum.r_eq_term is not None else zeros
    ne = spectrum.r_ne_term.imag if spectrum.r_ne_term is not None else zeros
    rows = zip(spectrum.omega.tolist(), spectrum.r_full.real.tolist(),
               spectrum.r_full.imag.tolist(), eq.tolist(), ne.tolist())
    return ("omega,re_full,im_full,im_eq,im_ne\n"
            + "".join(map("%.17g,%.17g,%.17g,%.17g,%.17g\n".__mod__, rows)))
