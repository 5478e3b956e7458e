"""Closed forms of the three-level junction, kept as test oracles.

The library builds the junction like any other model, from H and its two
electrode channels (:func:`curlflux.junction.hamiltonian_and_channels`).
The hybridized-mode quantities, the analytic coherence propagators and
the closed-form flux term of the dipole transmission below are
independent derivations the tests compare the generic pipeline against.
:func:`build_junction` returns the analysis of one parameter set with the
junction's own data, and :func:`dipole_operator` writes the transition
dipole out entry by entry.
"""

from dataclasses import dataclass

import numpy as np

from curlflux.junction import (JunctionParams, fermi_dirac,
                               hamiltonian_and_channels)
from curlflux.liouville import build_generator
from curlflux.reduction import Analysis, analyze

from helpers import dense_k, index_pairs, to_dense


@dataclass(frozen=True)
class JunctionDerived:
    """Derived quantities of the hybridized ground-excited coherence pair."""

    fbar_1: float
    fbar_2: float
    omega_plus: float
    omega_minus: float
    gamma_plus: float
    gamma_minus: float
    theta: float


@dataclass(frozen=True, kw_only=True)
class JunctionModel(Analysis):
    """The analysis of one parameter set, with the junction's own data:
    its parameters and the generator's inputs, the Hermitian Hamiltonian
    H and the channels."""

    params: JunctionParams
    hamiltonian: np.ndarray
    channels: tuple

    @property
    def flux_j(self):
        """One-sided loop flux e1 -> e2 (zero when the loop runs backwards)."""
        return float(self.flux.c[1, 2])

    @property
    def coherence_e1e2(self):
        return complex(self.rho_ss[1, 2])


def fermi_factors(params):
    """(fbar_1, fbar_2): each electrode's occupation at its transition
    energy."""
    return (fermi_dirac(params.omega_e1g, params.mu_1, params.t_1),
            fermi_dirac(params.omega_e2g, params.mu_2, params.t_2))


def hybridized_parameters(params):
    """Frequencies, decay rates and mixing angle of the coherence pair.

    omega_pm = (w_e1g + w_e2g)/2 +- sqrt(w_e1e2**2 + 4 Delta**2)/2 are
    exact; gamma_pm carry the decay asymmetry projected onto the
    hybridized modes (first order in Gamma (fbar_1 - fbar_2)):

        gamma_pm = Gamma/4 * (2 + f1 + f2 -+ cos(2 theta) (f1 - f2))

    with sin(2 theta) = 2 Delta / sqrt(w_e1e2**2 + 4 Delta**2).
    """
    f1, f2 = fermi_factors(params)
    dw = params.omega_1 - params.omega_2
    root = np.hypot(dw, 2.0 * params.delta)
    mid = 0.5 * (params.omega_e1g + params.omega_e2g)
    cos2t = dw / root
    theta = 0.5 * np.arctan2(2.0 * params.delta, dw)
    base = params.gamma * (2.0 + f1 + f2) / 4.0
    corr = params.gamma * cos2t * (f1 - f2) / 4.0
    return JunctionDerived(
        fbar_1=f1,
        fbar_2=f2,
        omega_plus=mid + 0.5 * root,
        omega_minus=mid - 0.5 * root,
        gamma_plus=base - corr,
        gamma_minus=base + corr,
        theta=float(theta),
    )


def printed_blocks(params):
    """Closed forms of the population and excited-coherence blocks."""
    der = hybridized_parameters(params)
    f1, f2 = der.fbar_1, der.fbar_2
    g = params.gamma
    dw = params.omega_1 - params.omega_2
    width = 0.5 * g * (2.0 - f1 - f2)
    m_p = np.array([
        [-g * (f1 + f2), g * (1 - f1), g * (1 - f2)],
        [g * f1, -g * (1 - f1), 0.0],
        [g * f2, 0.0, -g * (1 - f2)],
    ])
    m_c = np.array([
        [-1j * dw - width, 0.0],
        [0.0, 1j * dw - width],
    ])
    m_cp = 1j * params.delta * np.array([[0, -1, 1], [0, 1, -1]])
    m_pc = 1j * params.delta * np.array([[0, 0], [-1, 1], [1, -1]])
    k = np.array([
        [0, -params.delta / (dw - 1j * width), params.delta / (dw - 1j * width)],
        [0, -params.delta / (dw + 1j * width), params.delta / (dw + 1j * width)],
    ])
    hop = params.delta ** 2 * g * (2 - f1 - f2) / (dw ** 2 + width ** 2)
    l = m_p + np.array([[0, 0, 0], [0, -hop, hop], [0, hop, -hop]])
    return m_p, m_pc, m_cp, m_c, k, l


def ge_generator(params):
    """Evolution matrix of the coherence pair (rho_{g,e1}, rho_{g,e2})."""
    f1, f2 = fermi_factors(params)
    g = params.gamma
    return np.array(
        [
            [1j * params.omega_e1g - 0.5 * g * (1.0 + f2), -1j * params.delta],
            [-1j * params.delta, 1j * params.omega_e2g - 0.5 * g * (1.0 + f1)],
        ]
    )


def analytic_propagator_ge(params, t):
    """Exact closed-form propagator exp(G t) of the (rho_{g,e1}, rho_{g,e2})
    pair, with G = :func:`ge_generator` (params).

    For a 2x2 generator write h = tr(G)/2, B = G - h I and
    q**2 = B[0,0]**2 + B[0,1] B[1,0]; then

        exp(G t) = exp(h t) [cosh(q t) I + sinh(q t)/q B].

    It is evaluated as exp((h + q) t) [(1 + E)/2 I + (1 - E)/(2 q) B] with
    E = exp(-2 q t) and Re q >= 0, which cannot overflow at large t.
    q never vanishes for valid parameters: Im q**2 is proportional to
    (omega_1 - omega_2) Gamma (fbar_1 - fbar_2), and at equal Fermi
    factors q**2 = -(omega_e1e2**2 / 4 + Delta**2), so the enforced
    omega_1 > omega_2 keeps the pair off its exceptional point.  The
    conjugate block propagates (rho_{e1,g}, rho_{e2,g}).
    """
    if t < 0:
        raise ValueError("propagator defined for t >= 0")
    gen = ge_generator(params)
    h = 0.5 * np.trace(gen)
    b = gen - h * np.eye(2)
    q = np.sqrt(b[0, 0] ** 2 + b[0, 1] * b[1, 0])
    if q.real < 0:
        q = -q
    decay = np.expm1(-2.0 * q * t)
    return np.exp((h + q) * t) * (
        (1.0 + 0.5 * decay) * np.eye(2) - (0.5 * decay / q) * b
    )


def first_order_propagator_ge(params, t):
    """Hybridized-mode propagator of the (rho_{g,e1}, rho_{g,e2}) pair.

    The paper's first-order form: built from the hybridized frequencies
    and decay rates `gamma_pm` with the real mixing weights of the
    Delta-coupling.  Exact when fbar_1 == fbar_2; otherwise correct to
    first order in Gamma (fbar_1 - fbar_2) because the decay asymmetry
    also tilts the eigenvectors, which this form neglects.  See
    :func:`analytic_propagator_ge` for the exact propagator.
    """
    if t < 0:
        raise ValueError("propagator defined for t >= 0")
    der = hybridized_parameters(params)
    dw = params.omega_1 - params.omega_2
    root = np.hypot(dw, 2.0 * params.delta)
    cos2t = dw / root
    e_minus = np.exp((1j * der.omega_minus - der.gamma_minus) * t)
    e_plus = np.exp((1j * der.omega_plus - der.gamma_plus) * t)
    off = (params.delta / root) * (e_minus - e_plus)
    return np.array(
        [
            [0.5 * ((1 - cos2t) * e_minus + (1 + cos2t) * e_plus), off],
            [off, 0.5 * ((1 + cos2t) * e_minus + (1 - cos2t) * e_plus)],
        ]
    )


def hybridized_frequency_propagator(params, omega):
    """Frequency-domain propagator of the (rho_{e1,g}, rho_{e2,g}) pair in
    the hybridized-mode form.

    Partial fractions with poles at i(w - omega_pm) = gamma_pm and the
    real sin/cos mixing weights; same first-order accuracy as
    :func:`first_order_propagator_ge`.
    """
    der = hybridized_parameters(params)
    two_theta = 2.0 * der.theta
    s2 = np.sin(two_theta)
    sin_sq = 0.5 * (1.0 - np.cos(two_theta))
    cos_sq = 0.5 * (1.0 + np.cos(two_theta))
    pole_m = 1.0 / (1j * (omega - der.omega_minus) - der.gamma_minus)
    pole_p = 1.0 / (1j * (omega - der.omega_plus) - der.gamma_plus)
    diag_1 = -(sin_sq * pole_m + cos_sq * pole_p)
    diag_2 = -(cos_sq * pole_m + sin_sq * pole_p)
    off = -0.5 * s2 * (pole_m - pole_p)
    return np.array([[diag_1, off], [off, diag_2]])


def dipole_operator(params):
    """Transition dipole d (|e1><g| + |e2><g|) + h.c. with equal elements."""
    v = np.zeros((3, 3), dtype=complex)
    v[1, 0] = v[2, 0] = params.dipole
    v[0, 1] = v[0, 2] = params.dipole
    return v


def build_junction(params):
    """Construct the generator from the Hamiltonian and the two electrode
    channels and :func:`analyze` it."""
    hamiltonian, channels = hamiltonian_and_channels(params)
    return JunctionModel(**vars(analyze(build_generator(hamiltonian, channels))),
                         params=params, hamiltonian=hamiltonian, channels=channels)


def _ne_coefficients(model):
    """Population/coherence weight combinations entering the closed-form
    flux contribution to the response (components of V_- W V_ss rho_p up
    to the common factor d * J)."""
    pairs = list(index_pairs(3))
    i12, i21 = pairs.index((1, 2)) - 3, pairs.index((2, 1)) - 3
    l_diag = np.diag(model.l_matrix).real
    k = dense_k(model)
    coeff_1 = 1.0 / l_diag[0] - (1.0 + k[i12, 1]) / l_diag[1] - k[i12, 2] / l_diag[2]
    coeff_2 = 1.0 / l_diag[0] - k[i21, 1] / l_diag[1] - (1.0 + k[i21, 2]) / l_diag[2]
    return coeff_1, coeff_2


def closed_form_flux_response(model, omegas):
    """Flux-proportional transmission from the closed form.

    T_ne(w) = d**2 * J * Re[ Gplus(w) - conj(Gplus(-w)) ], where Gplus
    combines the two coefficient combinations with the column sums of
    the exact resolvent of the (rho_{e1,g}, rho_{e2,g}) pair, and J is
    the one-sided loop flux.  The second term is the counter-rotating
    mirror image.
    """
    pairs = list(index_pairs(3))
    idx = [pairs.index((1, 0)), pairs.index((2, 0))]
    (a00, a01), (a10, a11) = to_dense(model.generator)[np.ix_(idx, idx)]
    c1, c2 = _ne_coefficients(model)
    j = model.flux_j
    d2 = model.params.dipole ** 2
    shift = 1j * np.asarray(omegas, dtype=float).reshape(-1)

    def g(s):
        # c1 * (col 0 sum) + c2 * (col 1 sum) of -(a_eg + s)^-1, by adj/det
        b00, b11 = a00 + s, a11 + s
        return -(c1 * (b11 - a10) + c2 * (b00 - a01)) / (b00 * b11 - a01 * a10)

    return d2 * j * (g(shift) - np.conj(g(-shift))).real

