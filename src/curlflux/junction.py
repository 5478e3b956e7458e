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

This module holds only the junction's parameters and the generator's
inputs they give, H and the two channels: :mod:`curlflux.config` turns
them into the same model record as a generic run file, which every
command analyzes alike.

Note the decay-rate pairing of the ground-excited coherences that these
channels produce: rho_{g,e1} decays with (1 + fbar_2) and rho_{g,e2}
with (1 + fbar_1) (the same-index Fermi factors cancel against their
complements).  Each ground-excited coherence decays at half the sum of
its two levels' exit rates, the smallest rate complete positivity
allows (Lindblad, Commun. Math. Phys. 48, 119 (1976)); swapping the
pairing would take one of them below that bound whenever
fbar_1 != fbar_2.
"""

from dataclasses import dataclass

import numpy as np

from .liouville import DissipationChannel

__all__ = [
    "JUNCTION_LABELS",
    "JunctionParams",
    "fermi_dirac",
    "hamiltonian_and_channels",
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


def fermi_dirac(omega, mu, temperature):
    """Electrode occupation 1 / (exp((omega - mu) / T) + 1), computed stably."""
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    x = (omega - mu) / temperature
    if x >= 0:
        e = np.exp(-x)
        return e / (1.0 + e)
    return 1.0 / (np.exp(x) + 1.0)


def hamiltonian_and_channels(params):
    """(H, channels) of the junction: the Hermitian Hamiltonian and the
    two electrode channels that :func:`~curlflux.liouville.build_generator`
    takes."""
    hamiltonian = np.diag([params.omega_g, params.omega_1,
                           params.omega_2]).astype(complex)
    hamiltonian[1, 2] = hamiltonian[2, 1] = -params.delta
    f1 = fermi_dirac(params.omega_e1g, params.mu_1, params.t_1)
    f2 = fermi_dirac(params.omega_e2g, params.mu_2, params.t_2)
    channels = (
        DissipationChannel(1, 0, params.gamma * f1, params.gamma * (1 - f1)),
        DissipationChannel(2, 0, params.gamma * f2, params.gamma * (1 - f2)),
    )
    return hamiltonian, channels
