"""Local transformations of few-qubit entangled states.

Simulation and analysis of conversions between inequivalent entanglement
classes: state registers and Schmidt data, optimal bipartite conversion
probabilities with a min-over-splittings bound, SLOCC classification via
polynomial invariants and tensor-rank probes, catalysis verdicts, and a
branching protocol engine with the bundled conversion protocols.
"""

from types import ModuleType as _ModuleType

from .convert import (
    IMPOSSIBLE,
    UNDETERMINED,
    CatalysisVerdict,
    ConversionBound,
    PartyRank,
    ProductTermObstruction,
    RankObstruction,
    catalysis_verdict,
    splitting_bound,
    splitting_cuts,
    vidal_probability,
)
from .errors import (
    CapExceeded,
    ConstraintViolation,
    DegenerateState,
    EmptySubset,
    LabelCollision,
    LoccSimError,
    MalformedProtocol,
    NotAnEprResource,
    NotAProbabilityVector,
    NotUnitary,
    ParameterOutOfRange,
    ParseError,
    RegisterMismatch,
    SemanticError,
    SiteOwnership,
    WrongArity,
)
from .invariants import (
    PartyTensor,
    ProbeConfig,
    ProductTermEstimate,
    RankProbeResult,
    SloccClass,
    cp_rank_probe,
    flattening_ranks,
    product_term_estimate,
    proven_lower_bound,
    slocc_class,
    three_tangle,
)
from .prebuilt import (
    bipartite_catalysis_pair,
    ghz_plus_epr_to_any,
    ghz_to_epr,
    intro_teleport,
    prop3,
    prop3_b,
    prop3_c,
    prop3_input,
    prop3_target,
    tripartite_catalysis_pair,
)
from .protocol import (
    CNOT,
    PAULI_X,
    PAULI_Z,
    BranchNode,
    Measure,
    PreparedProtocol,
    Protocol,
    Target,
    Teleport,
    Unitary,
    apply_unitary,
    measure,
    run_protocol,
    teleport,
)
from .protofile import parse_protocol_file
from .states import (
    DensityMatrix,
    PureState,
    Register,
    apply_site_ops,
    computational,
    epr,
    ghz,
    ghz_class,
    load_state,
    reduced_density_sites,
    save_state,
    schmidt,
    state_from_dict,
    state_to_dict,
    tensor,
    w_family,
    w_state,
)

__version__ = "0.1.0"

# every name imported above, and no submodule
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
