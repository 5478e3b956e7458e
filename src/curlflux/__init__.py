"""curlflux: curl-flux decomposition of open-quantum-system steady states
and the equilibrium/nonequilibrium split of linear response spectra."""

__version__ = "0.1.0"

from .flux import (
    FluxDecomposition,
    SplitOperators,
    curl_flux,
    is_detailed_balanced,
    loop_decomposition,
    render_flux_report,
    split_operators,
)
from .junction import (
    JunctionDerived,
    JunctionParams,
    analytic_propagator_ge,
    build_junction,
    fermi_dirac,
    first_order_propagator_ge,
    hybridized_parameters,
)
from .liouville import (
    DissipationChannel,
    HilbertBasis,
    build_liouvillian,
    devectorize,
    sectors,
    trace_vector,
    vectorize,
)
from .reduction import (
    Analysis,
    SteadyState,
    analyze,
    steady_state,
)
from .response import (
    ResponseSpectrum,
    check_equilibrium_fdr,
    fluctuation_spectrum,
    linear_response_freq,
    resolvent,
    response_split,
    spectrum_to_csv,
)
