"""Linear response of driven open systems and its equilibrium split.

The response of observable Omega to a weak probe coupled through V is

    R(t) = -i <<1| Omega_L exp(M t) V_- |rho_ss>>,      t >= 0,
    R(w) = -i <<1| Omega_L G(w) V_- |rho_ss>>,

with V_- the commutator superoperator and G(w) = -(M + i w)^{-1} the
one-sided Fourier transform of exp(M t).  Writing the steady state
through the curl-flux identity rho_p = -(S_D + V_ss) rho_p and lifting
populations with W = I + K, the response splits exactly into

    R_eq(w) = i <<1| Omega_L G(w) V_- W S_D  |rho_p>>
    R_ne(w) = i <<1| Omega_L G(w) V_- W V_ss |rho_p>>

whose sum reproduces R(w) identically; the second term vanishes at
detailed balance.  Fluctuations use the regression rule
<V(t)V(0)> = <<1| V_L exp(M t) V_L |rho_ss>>.
"""

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .flux import is_detailed_balanced
from .liouville import commutator_superop, left_mult, trace_vector
from .reduction import analyze

__all__ = [
    "Probe",
    "ResponseSpectrum",
    "ResolventSingularError",
    "NotDetailedBalancedError",
    "FdrReport",
    "green_function",
    "green_apply",
    "linear_response_time",
    "linear_response_freq",
    "response_split",
    "fluctuation_spectrum",
    "check_equilibrium_fdr",
    "spectrum_to_csv",
]


class ResolventSingularError(np.linalg.LinAlgError):
    """(M + i w) is singular: w hits an undamped frequency of M."""


class NotDetailedBalancedError(ValueError):
    """The model is not at detailed balance, so the equilibrium
    fluctuation-dissipation check does not apply."""


@dataclass(frozen=True)
class Probe:
    """Observable and coupling operator of a weak-probe experiment."""

    observable: np.ndarray
    coupling: np.ndarray

    def __post_init__(self):
        for name in ("observable", "coupling"):
            op = np.asarray(getattr(self, name), dtype=complex)
            object.__setattr__(self, name, op)
            if np.abs(op - op.conj().T).max() > 1e-12 * max(1.0, np.abs(op).max()):
                raise ValueError("%s must be Hermitian" % name)


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


def _resolvent_matrix(m, omega, epsilon):
    shift = 1j * omega if epsilon is None else 1j * omega - epsilon
    return m + shift * np.eye(m.shape[0])


def green_function(m, omega, epsilon=None):
    """Frequency-domain propagator G(w) = -(M + i w)^{-1}.

    Parameters
    ----------
    m : (n, n) array_like
        Generator; the integral representation converges on the subspace
        where M has strictly negative real-part eigenvalues.
    omega : float
    epsilon : float, optional
        Regularization for directions that do not decay: uses
        -(M + (i w - epsilon))^{-1}, i.e. an exp(-epsilon t) convergence
        factor.

    Raises
    ------
    ResolventSingularError
        If M + i w is numerically singular and no epsilon is supplied;
        the message names the offending eigenvalue.
    """
    m = np.asarray(m, dtype=complex)
    a = _resolvent_matrix(m, omega, epsilon)
    if epsilon is None and 1.0 / np.linalg.cond(a) < 1e-13:
        evals = np.linalg.eigvals(m)
        bad = evals[np.argmin(np.abs(evals + 1j * omega))]
        raise ResolventSingularError(
            "resolvent singular at omega = %g: generator eigenvalue %s "
            "is undamped at this frequency" % (omega, bad)
        )
    return -np.linalg.inv(a)


def green_apply(m, omega, vectors, epsilon=None):
    """Apply G(w) to one or more column vectors without forming G."""
    m = np.asarray(m, dtype=complex)
    a = _resolvent_matrix(m, omega, epsilon)
    try:
        return np.linalg.solve(a, -np.asarray(vectors, dtype=complex))
    except np.linalg.LinAlgError as exc:
        raise ResolventSingularError(
            "resolvent singular at omega = %g" % omega
        ) from exc


def linear_response_time(probe, m, rho_ss, t, stationary_tol=1e-8):
    """Time-domain response R(t) = -i <<1| Omega_L exp(M t) V_- |rho_ss>>."""
    from .reduction import propagate

    if t < 0:
        raise ValueError("response is causal: t must be non-negative")
    m = np.asarray(m, dtype=complex)
    rho_ss = np.asarray(rho_ss, dtype=complex)
    drift = np.abs(m @ rho_ss).max()
    if drift > stationary_tol:
        raise ValueError(
            "reference state is not stationary (||M rho||_inf = %.3e)" % drift
        )
    d = int(round(np.sqrt(m.shape[0])))
    one = trace_vector(d)
    kicked = commutator_superop(probe.coupling) @ rho_ss
    evolved = propagate(m, kicked, t)
    return -1j * (one @ (left_mult(probe.observable) @ evolved))


def linear_response_freq(probe, m, rho_ss, omegas, epsilon=None):
    """Frequency-domain response on a grid (full response only).

    Returns
    -------
    ResponseSpectrum
        With r_eq_term and r_ne_term left as None.
    """
    m = np.asarray(m, dtype=complex)
    omegas = np.asarray(omegas, dtype=float)
    d = int(round(np.sqrt(m.shape[0])))
    one_obs = trace_vector(d) @ left_mult(probe.observable)
    kicked = commutator_superop(probe.coupling) @ np.asarray(rho_ss, dtype=complex)
    r_full = np.empty(omegas.size, dtype=complex)
    for i, w in enumerate(omegas):
        r_full[i] = -1j * (one_obs @ green_apply(m, w, kicked, epsilon))
    return ResponseSpectrum(omega=omegas, r_full=r_full)


def population_lift(k_map):
    """Matrix W = I + K embedding population vectors into Liouville space."""
    d = k_map.shape[1]
    return np.vstack([np.eye(d), k_map])


def response_split(probe, blocks, l_matrix, rho_ss, splitops, k_map, omegas,
                   epsilon=None, stationary_tol=1e-8):
    """Full response together with its equilibrium/nonequilibrium split.

    Parameters
    ----------
    probe : Probe
    blocks : SuperoperatorBlocks
        Partition of the generator; reassembled internally.
    l_matrix : (d, d) array_like
        Effective population rate matrix, used to validate that the
        supplied state is stationary.
    rho_ss : (d**2,) array_like
        Stationary Liouville vector of the full generator.
    splitops : SplitOperators
    k_map : ((d**2-d), d) array_like
        Stationary coherence map.
    omegas : array_like of float

    Returns
    -------
    ResponseSpectrum
        r_full, r_eq_term and r_ne_term, with
        r_eq_term + r_ne_term == r_full up to rounding.
    """
    from .liouville import assemble

    m = assemble(blocks)
    d = blocks.dim
    rho_ss = np.asarray(rho_ss, dtype=complex)
    pops = rho_ss[:d].real
    resid = np.abs(np.asarray(l_matrix) @ pops).max()
    if resid > stationary_tol:
        raise ValueError(
            "state is not stationary for the supplied rate matrix "
            "(||L p||_inf = %.3e)" % resid
        )
    w_lift = population_lift(np.asarray(k_map, dtype=complex))
    v_minus = commutator_superop(probe.coupling)
    one_obs = trace_vector(d) @ left_mult(probe.observable)
    sources = np.column_stack([
        v_minus @ rho_ss,
        v_minus @ (w_lift @ (splitops.s_d * pops)),
        v_minus @ (w_lift @ (splitops.v_ss * pops)),
    ])
    omegas = np.asarray(omegas, dtype=float)
    r_full = np.empty(omegas.size, dtype=complex)
    r_eq = np.empty(omegas.size, dtype=complex)
    r_ne = np.empty(omegas.size, dtype=complex)
    for i, w in enumerate(omegas):
        props = green_apply(m, w, sources, epsilon)
        r_full[i] = -1j * (one_obs @ props[:, 0])
        r_eq[i] = 1j * (one_obs @ props[:, 1])
        r_ne[i] = 1j * (one_obs @ props[:, 2])
    return ResponseSpectrum(omega=omegas, r_full=r_full,
                            r_eq_term=r_eq, r_ne_term=r_ne)


def fluctuation_spectrum(coupling, m, rho_ss, omega, epsilon=None):
    """One-sided fluctuation spectrum S(w) = int_0^inf e^{iwt} <V(t)V(0)> dt.

    The two-time correlator is evaluated by the regression rule, so
    S(w) = <<1| V_L G(w) V_L |rho_ss>>.  A static component of V along
    the steady state makes S(w) diverge like i/w as w -> 0; supplying
    `epsilon` replaces that pole by i/(w + i epsilon).
    """
    m = np.asarray(m, dtype=complex)
    d = int(round(np.sqrt(m.shape[0])))
    v_l = left_mult(np.asarray(coupling, dtype=complex))
    seeded = v_l @ np.asarray(rho_ss, dtype=complex)
    return complex(trace_vector(d) @ (v_l @ green_apply(m, omega, seeded, epsilon)))


@dataclass(frozen=True)
class FdrReport:
    """Pointwise comparison of dissipation and fluctuation sides."""

    omega: np.ndarray
    lhs: np.ndarray          # coth(w / 2T) * Im R(w)
    rhs: np.ndarray          # S(w) + S(-w), complex
    residual: np.ndarray     # |lhs - rhs|
    max_residual: float


def check_equilibrium_fdr(coupling, m, temperature, omegas, db_tol=1e-9,
                          epsilon=None):
    """Test coth(w/2T) Im R(w) = S(w) + S(-w) for a thermal generator.

    Both sides are evaluated independently through the resolvent, with
    the probe observable equal to the coupling.  The generator must be
    detailed balanced (checked through its effective rate matrix);
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
    analysis = analyze(m)
    m = analysis.m
    balanced, violation = is_detailed_balanced(
        analysis.l_matrix, analysis.populations, tol=db_tol
    )
    if not balanced:
        raise NotDetailedBalancedError(
            "generator is not detailed balanced (max violation %.3e); "
            "the equilibrium fluctuation-dissipation relation does not "
            "apply" % violation
        )
    rho_ss = analysis.rho_ss.vector
    probe = Probe(observable=coupling, coupling=coupling)
    omegas = np.asarray(omegas, dtype=float)
    keep = omegas != 0.0
    if not np.all(keep):
        warnings.warn("skipping omega = 0 grid points (coth pole)")
    omegas = omegas[keep]
    spectrum = linear_response_freq(probe, m, rho_ss, omegas, epsilon)
    lhs = np.empty(omegas.size)
    rhs = np.empty(omegas.size, dtype=complex)
    for i, w in enumerate(omegas):
        lhs[i] = (1.0 / np.tanh(w / (2.0 * temperature))) * spectrum.r_full[i].imag
        rhs[i] = (
            fluctuation_spectrum(coupling, m, rho_ss, w, epsilon)
            + fluctuation_spectrum(coupling, m, rho_ss, -w, epsilon)
        )
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
    lines = ["omega,re_full,im_full,im_eq,im_ne"]
    zeros = np.zeros(spectrum.omega.size)
    eq = spectrum.r_eq_term.imag if spectrum.r_eq_term is not None else zeros
    ne = spectrum.r_ne_term.imag if spectrum.r_ne_term is not None else zeros
    for w, rf, ie, in_ in zip(spectrum.omega, spectrum.r_full, eq, ne):
        lines.append(
            "%.17g,%.17g,%.17g,%.17g,%.17g" % (w, rf.real, rf.imag, ie, in_)
        )
    return "\n".join(lines) + "\n"
