"""Matrix and operator Sinkhorn scaling with quantum information geometry.

The package implements the operator Sinkhorn iteration on Choi matrices of
completely positive maps, the SLD / Bogoliubov-Kubo-Mori / congruence
invariant geometries that interpret each step as an e-projection, the
corresponding alternating divergence-minimization schemes, a family of
quantum divergences, and capacity bookkeeping for square scaling problems.
"""

from .channels import (
    ChoiMatrix,
    KrausMap,
    apply_dual,
    apply_map,
    as_density,
    choi_from_kraus,
    random_choi,
    random_density,
    scale_choi,
)
from .divergences import DIVERGENCES, central_difference_quotient, central_difference_quotients, divergence
from .errors import (
    ConvergenceError,
    DomainError,
    InvalidInputError,
    ParseError,
    SingularityError,
    UnsupportedError,
)
from .geometry import (
    METRICS,
    ConstraintSet,
    TangentVector,
    e_geodesic,
    metric_inner,
    orthogonality_residual,
    sld_e_rep,
    sld_parallel_transport,
)
from .policy import NumericPolicy, get_policy, set_policy
from .reference import reference_direction, reference_rho0
from .scaling import (
    ScalingConfig,
    ScalingTrace,
    alternating_projections,
    bkm_e_projection,
    burg_e_projection,
    capacity_from_trace,
    joint_limit,
    matrix_sinkhorn,
    operator_sinkhorn,
    operator_sinkhorn_batch,
    operator_sinkhorn_step,
)

__version__ = "0.1.0"

__all__ = [
    "ChoiMatrix",
    "KrausMap",
    "apply_dual",
    "apply_map",
    "as_density",
    "choi_from_kraus",
    "random_choi",
    "random_density",
    "scale_choi",
    "DIVERGENCES",
    "central_difference_quotient",
    "central_difference_quotients",
    "divergence",
    "ConvergenceError",
    "DomainError",
    "InvalidInputError",
    "ParseError",
    "SingularityError",
    "UnsupportedError",
    "METRICS",
    "ConstraintSet",
    "TangentVector",
    "e_geodesic",
    "metric_inner",
    "orthogonality_residual",
    "sld_e_rep",
    "sld_parallel_transport",
    "NumericPolicy",
    "get_policy",
    "set_policy",
    "reference_direction",
    "reference_rho0",
    "ScalingConfig",
    "ScalingTrace",
    "alternating_projections",
    "bkm_e_projection",
    "burg_e_projection",
    "capacity_from_trace",
    "joint_limit",
    "matrix_sinkhorn",
    "operator_sinkhorn",
    "operator_sinkhorn_batch",
    "operator_sinkhorn_step",
]
