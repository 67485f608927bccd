"""Scattering on quantum star graphs with scale-invariant vertex couplings.

Core surface:

- :mod:`qstar.numerics` — complex linear solves by partial-pivot
  elimination, adaptive quadrature, root finding.
- :mod:`qstar.vertex` — boundary conditions (scale-invariant block forms,
  delta couplings), validation, JSON (de)serialization.
- :mod:`qstar.scattering` — the S-matrix engine with evanescent-channel
  continuation, probabilities, final-state waves.
- :mod:`qstar.devices` — closed-form three-line filter and four-line
  sluice gate (flat filter at a = 1/sqrt(2), band filter with a drain
  potential), one formula per amplitude.
- :mod:`qstar.analysis` — bandwidth, second-sheet poles, flux control.
- :mod:`qstar.assembly` — delta-chain realizations and their exact
  wave-matching S-matrix, with convergence studies.
- :mod:`qstar.cli` — the ``qstar`` command-line front end.
"""

from .analysis import (
    BandReport,
    FluxCurve,
    FluxReport,
    PoleReport,
    bandwidth,
    flux,
    flux_curve,
    flux_report,
    locate_pole,
)
from .assembly import (
    CompoundGraph,
    ConvergenceReport,
    ExternalLine,
    GraphVertex,
    InternalEdge,
    build_recipe,
    compound_smatrix,
    convergence_study,
    graph_from_dict,
    graph_from_json,
    graph_to_dict,
    graph_to_json,
)
from .devices import (
    FilterN3,
    GateN4,
    MomentumDistribution,
    n3_amplitudes,
    n3_transmission,
    n4_amplitudes,
    n4_transmission,
)
from .exceptions import (
    AtThresholdError,
    ClosedIncomingChannelError,
    DimensionMismatchError,
    InvalidParameterError,
    NoBandError,
    NoConvergenceError,
    NoPoleError,
    NoSignChangeError,
    QStarError,
    SingularMatrixError,
    SingularSystemError,
)
from .numerics import find_root, integrate, solve_linear
from .scattering import (
    ChannelSet,
    FinalStateWave,
    ScatteringMatrix,
    final_state,
    probabilities,
    smatrix,
    wavefunction,
)
from .vertex import (
    BoundaryCondition,
    VertexDiagnostics,
    bc_from_dict,
    bc_from_json,
    bc_to_dict,
    bc_to_json,
    make_delta,
    make_st_form,
    validate,
)

__version__ = "0.1.0"
