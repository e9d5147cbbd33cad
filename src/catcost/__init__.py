"""Exact PPT entanglement cost, catalytic dilution, and PPT channel synthesis."""

__version__ = "0.1.0"

from .operators import (
    MAX_ENTRIES,
    DensityOperator,
    FactorShape,
    LabeledOperator,
    PsdReport,
    ResourceLimitError,
    Spectrum,
    abs_operator,
    bipartite_shape,
    density_from_matrix,
    density_from_vector,
    eig_hermitian,
    is_psd,
    merge_factors,
    partial_trace,
    partial_transpose,
    permute_factors,
    plain_shape,
    relabel,
    tensor,
    tensor_power,
    trace_distance,
    trace_norm,
)
from .states import (
    IsotropicParams,
    classical_mix,
    gibbs_qubit,
    isotropic,
    max_entangled,
    symmetric_two_broadcast,
)
from .measures import (
    Applicability,
    BinegativityReport,
    CostValue,
    IsotropicCopies,
    binegativity,
    d_max,
    d_max_to_ppt_isotropic,
    exact_locc_cost_pure,
    gated_ppt_cost,
    log_negativity,
    schmidt_rank,
    work_cost_semiclassical,
)
from .broadcast import (
    BroadcastReport,
    max_twirled_distance_to_product,
    project_to_two_copy_broadcast,
    sample_two_copy_broadcasts,
    verify_broadcast,
)
from .catalysis import (
    AdvantageCertificate,
    NonconvexityWitness,
    ProtocolTrace,
    catalytic_cost_upper_bound,
    nonconvexity_witness,
    pure_additivity_check,
    run_prop1_protocol,
    superadditivity_violation,
    thermo_advantage,
)
from .choi import (
    ChoiOperator,
    SolveReport,
    analytic_mixer_choi,
    apply_choi,
    coin_flip_broadcast_choi,
    identity_choi,
    replacer_choi,
    synthesize_ppt_dilution,
    transpose_map_choi,
    verify_ppt_operation,
)
