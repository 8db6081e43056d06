"""Numerical laboratory for homogeneous Ricci flow on Aloff-Wallach spaces
W^7_{k1,k2} and the Berger space B^13: closed-form Ricci eigenvalues, the
positive-sectional-curvature cone and its boundary scale t_A, flow
integration with cone-exit detection, and the closed-form derivative
machinery certifying that positively curved metrics exit the cone."""

from .cone import (
    ConeClass,
    ConeVerdict,
    a_tilde,
    a_tilde_inverse_slice,
    classify_2param,
    classify_3param,
    classify_aw_slice,
    classify_berger,
    normalized_region,
    sigma,
    t_a,
    t_a_closed,
    v_vector,
)
from .derivatives import (
    berger_ratio_derivative,
    d_polynomial,
    d_roots,
    einstein_points,
    f1_prime0,
    f_xi_prime0,
    grad_f,
    gradient_anchor,
    initial_velocity,
    k_polynomial,
    two_param_ratio_derivative,
)
from .errors import (
    DomainError,
    NonPositiveState,
    NoExitWithinHorizon,
    RicciFlowError,
    StepSizeUnderflow,
)
from .flow import (
    EventSpec,
    FlowEvent,
    FlowSystem,
    IntegratorConfig,
    Trajectory,
    aw2_rhs,
    aw3_rhs,
    aw_rhs,
    berger_rhs,
    boundary_event,
    cone_exit,
    integrate,
    make_system,
    normalized_rhs,
)
from .spaces import (
    aw_eigenvalue_tuple,
    berger_eigenvalue_tuple,
    bracket_constants,
    ricci_from_structure,
    xi_from_integers,
    xi_value,
)

__version__ = "0.1.0"
