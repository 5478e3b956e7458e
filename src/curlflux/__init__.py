"""curlflux: curl-flux decomposition of open-quantum-system steady states
and the equilibrium/nonequilibrium split of linear response spectra."""

__version__ = "0.1.0"

from .flux import (
    FluxDecomposition,
    curl_flux,
    is_detailed_balanced,
    loop_decomposition,
)
from .junction import JunctionParams, fermi_dirac
from .liouville import (
    DissipationChannel,
    Generator,
    build_generator,
    vectorize,
)
from .reduction import (
    Analysis,
    analyze,
)
from .response import (
    ResponseSpectrum,
    check_equilibrium_fdr,
    linear_response_freq,
    response_split,
)
