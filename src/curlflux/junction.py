"""Three-level molecular junction: two coupled electronic levels exchanging
electrons with two biased electrodes.

The single-electron manifold {g, e1, e2} evolves under

    H = w_g |g><g| + w_1 |e1><e1| + w_2 |e2><e2| - Delta (|e1><e2| + h.c.)

with electrode j filling/emptying level e_j at rates Gamma * fbar_j and
Gamma * (1 - fbar_j), where fbar_j is the Fermi factor of electrode j at
the transition energy w_{e_j g}.  The chemical-potential bias drives a
single loop current g -> e1 -> e2 -> g whose magnitude equals the curl
flux of the reduced population dynamics, and the optical transmission of
a weak dipole probe splits into a detailed-balance part and a
flux-proportional part.

Note the decay-rate pairing of the ground-excited coherences: rho_{g,e1}
decays with (1 + fbar_2) and rho_{g,e2} with (1 + fbar_1).  This crossed
pairing is what the three-level master equation produces (the same-index
Fermi factors cancel against their complements); `strict_paper_rates =
False` swaps the pairing for sensitivity studies.
"""

from dataclasses import dataclass

import numpy as np

from .liouville import DissipationChannel, build_liouvillian, index_pairs
from .reduction import Analysis, analyze

__all__ = [
    "JunctionParams",
    "JunctionDerived",
    "JunctionModel",
    "fermi_dirac",
    "hybridized_parameters",
    "ge_generator",
    "analytic_propagator_ge",
    "first_order_propagator_ge",
    "hybridized_frequency_propagator",
    "build_junction",
    "closed_form_flux_response",
    "dipole_operator",
]

JUNCTION_LABELS = ("g", "e1", "e2")


@dataclass(frozen=True)
class JunctionParams:
    """Physical parameters of the junction (hbar = k_B = 1)."""

    mu_1: float
    mu_2: float
    omega_1: float = 1.06
    omega_2: float = 0.94
    omega_g: float = 0.0
    delta: float = 0.01
    gamma: float = 0.02
    t_1: float = 0.3
    t_2: float = 0.3
    dipole: float = 1.0

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError("electrode exchange rate gamma must be positive")
        if self.t_1 <= 0 or self.t_2 <= 0:
            raise ValueError("electrode temperatures must be positive")
        if not self.omega_1 > self.omega_2:
            raise ValueError("convention omega_1 > omega_2 violated")

    @property
    def omega_e1g(self):
        return self.omega_1 - self.omega_g

    @property
    def omega_e2g(self):
        return self.omega_2 - self.omega_g

    @property
    def omega_e1e2(self):
        return self.omega_1 - self.omega_2


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
    its parameters and the generator's inputs, H_eff and the channels."""

    params: JunctionParams
    h_eff: np.ndarray
    channels: tuple

    @property
    def flux_j(self):
        """One-sided loop flux e1 -> e2 (zero when the loop runs backwards)."""
        return float(self.flux.c[1, 2])

    @property
    def coherence_e1e2(self):
        pairs = list(index_pairs(3))
        return complex(self.rho_ss.vector[pairs.index((1, 2))])


def fermi_dirac(omega, mu, temperature):
    """Electrode occupation 1 / (exp((omega - mu) / T) + 1), computed stably."""
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    x = (omega - mu) / temperature
    if x >= 0:
        e = np.exp(-x)
        return e / (1.0 + e)
    return 1.0 / (np.exp(x) + 1.0)


def _fbars(params):
    f1 = fermi_dirac(params.omega_e1g, params.mu_1, params.t_1)
    f2 = fermi_dirac(params.omega_e2g, params.mu_2, params.t_2)
    return f1, f2


def hybridized_parameters(params, strict_paper_rates=True):
    """Frequencies, decay rates and mixing angle of the coherence pair.

    omega_pm = (w_e1g + w_e2g)/2 +- sqrt(w_e1e2**2 + 4 Delta**2)/2 are
    exact; gamma_pm carry the decay asymmetry projected onto the
    hybridized modes (first order in Gamma (fbar_1 - fbar_2)):

        gamma_pm = Gamma/4 * (2 + f1 + f2 -+ cos(2 theta) (f1 - f2))

    with sin(2 theta) = 2 Delta / sqrt(w_e1e2**2 + 4 Delta**2).  With the
    swapped rate pairing the sign of the cos(2 theta) correction flips.
    """
    f1, f2 = _fbars(params)
    dw = params.omega_e1e2
    root = np.hypot(dw, 2.0 * params.delta)
    mid = 0.5 * (params.omega_e1g + params.omega_e2g)
    cos2t = dw / root
    theta = 0.5 * np.arctan2(2.0 * params.delta, dw)
    base = params.gamma * (2.0 + f1 + f2) / 4.0
    corr = params.gamma * cos2t * (f1 - f2) / 4.0
    sign = -1.0 if strict_paper_rates else 1.0
    return JunctionDerived(
        fbar_1=f1,
        fbar_2=f2,
        omega_plus=mid + 0.5 * root,
        omega_minus=mid - 0.5 * root,
        gamma_plus=base + sign * corr,
        gamma_minus=base - sign * corr,
        theta=float(theta),
    )


def ge_generator(params, strict_paper_rates=True):
    """Evolution matrix of the coherence pair (rho_{g,e1}, rho_{g,e2})."""
    f1, f2 = _fbars(params)
    a, b = (f2, f1) if strict_paper_rates else (f1, f2)
    g = params.gamma
    return np.array(
        [
            [1j * params.omega_e1g - 0.5 * g * (1.0 + a), -1j * params.delta],
            [-1j * params.delta, 1j * params.omega_e2g - 0.5 * g * (1.0 + b)],
        ]
    )


def analytic_propagator_ge(params, t, strict_paper_rates=True):
    """Exact closed-form propagator exp(G t) of the (rho_{g,e1}, rho_{g,e2})
    pair, with G = :func:`ge_generator` (params, strict_paper_rates).

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
    gen = ge_generator(params, strict_paper_rates)
    h = 0.5 * np.trace(gen)
    b = gen - h * np.eye(2)
    q = np.sqrt(b[0, 0] ** 2 + b[0, 1] * b[1, 0])
    if q.real < 0:
        q = -q
    decay = np.expm1(-2.0 * q * t)
    return np.exp((h + q) * t) * (
        (1.0 + 0.5 * decay) * np.eye(2) - (0.5 * decay / q) * b
    )


def first_order_propagator_ge(params, t, strict_paper_rates=True):
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
    der = hybridized_parameters(params, strict_paper_rates)
    dw = params.omega_e1e2
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


def hybridized_frequency_propagator(params, omega, strict_paper_rates=True):
    """Frequency-domain propagator of the (rho_{e1,g}, rho_{e2,g}) pair in
    the hybridized-mode form.

    Partial fractions with poles at i(w - omega_pm) = gamma_pm and the
    real sin/cos mixing weights; same first-order accuracy as
    :func:`first_order_propagator_ge`.
    """
    der = hybridized_parameters(params, strict_paper_rates)
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


def build_junction(params, strict_paper_rates=True):
    """Construct the generator and :func:`analyze` it.

    With `strict_paper_rates = False` the decay constants of the
    ground-excited coherence pairs are swapped (counterfactual variant
    for sensitivity checks); populations, the excited-state coherence
    sector and hence K, L and the steady state are unaffected.
    """
    h_eff = np.diag([params.omega_g, params.omega_1, params.omega_2]).astype(complex)
    h_eff[1, 2] = h_eff[2, 1] = -params.delta
    f1, f2 = _fbars(params)
    raise_1 = np.zeros((3, 3), dtype=complex)
    raise_1[1, 0] = 1.0
    raise_2 = np.zeros((3, 3), dtype=complex)
    raise_2[2, 0] = 1.0
    channels = (
        DissipationChannel(raise_1, params.gamma * f1, params.gamma * (1 - f1)),
        DissipationChannel(raise_2, params.gamma * f2, params.gamma * (1 - f2)),
    )
    m = build_liouvillian(h_eff, channels)
    if not strict_paper_rates:
        pairs = list(index_pairs(3))
        ge1, ge2 = pairs.index((0, 1)), pairs.index((0, 2))
        e1g, e2g = pairs.index((1, 0)), pairs.index((2, 0))
        swap = 0.5 * params.gamma * (f1 - f2)
        for i, sgn in ((ge1, -1.0), (ge2, 1.0), (e1g, -1.0), (e2g, 1.0)):
            m[i, i] += sgn * swap
    return JunctionModel(
        **vars(analyze(m)),
        params=params,
        h_eff=h_eff,
        channels=channels,
    )


def _ne_coefficients(model):
    """Population/coherence weight combinations entering the closed-form
    flux contribution to the response (components of V_- W V_ss rho_p up
    to the common factor d * J)."""
    pairs = list(index_pairs(3))
    i12, i21 = pairs.index((1, 2)) - 3, pairs.index((2, 1)) - 3
    l_diag = np.diag(model.l_matrix).real
    k = model.k_map
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
    (a00, a01), (a10, a11) = model.m[np.ix_(idx, idx)]
    c1, c2 = _ne_coefficients(model)
    j = model.flux_j
    d2 = model.params.dipole ** 2
    shift = 1j * np.asarray(omegas, dtype=float).reshape(-1)

    def g(s):
        # c1 * (col 0 sum) + c2 * (col 1 sum) of -(a_eg + s)^-1, by adj/det
        b00, b11 = a00 + s, a11 + s
        return -(c1 * (b11 - a10) + c2 * (b00 - a01)) / (b00 * b11 - a01 * a10)

    return d2 * j * (g(shift) - np.conj(g(-shift))).real

