"""Polygon and house-shaped probabilistic models with Bell-functional tooling.

States and effects are plain vectors in R^3 paired by the Euclidean inner
product; models list their extremal rays explicitly. On top of that sit
entangled joint states of two systems, correlation tables with Bell
functionals (CHSH, chained, quadratic), first-level moment-matrix
certificates, and cone self-duality classification.
"""

from .bipartite import (
    InnerProductReport,
    JointState,
    in_max_tensor_product,
    is_extremal,
    is_inner_product_state,
    local_positivity_margin,
    normalization,
    pull_back_measurement,
    push_local_map,
)
from .core import (
    DEFAULT_TOL,
    Measurement,
    ModelSpec,
    ValidationFailure,
    ValidationReport,
    dichotomic_measurement,
    resolve_tol,
    simplex_model,
    validate_model,
)
from .correlations import (
    TSIRELSON_BOUND,
    CorrelationTable,
    chained,
    chained_local_bound,
    chsh,
    chsh_max_analytic,
    chsh_max_bruteforce,
    chsh_max_closed_form,
    chsh_max_over_settings,
    correlations_from_state,
    correlator,
    distill_decompose,
    distill_with_table,
    ray_settings,
    uffink,
)
from .house import (
    house_demo_measurements,
    house_joint_state,
    house_model,
    house_uffink_demo,
)
from .polygon import (
    max_entangled,
    polygon,
    polygon_radius,
)
from .q1 import (
    UFFINK_BOUND,
    ConditionReport,
    Q1Certificate,
    certificate_from_inner_product_state,
    certificate_via_pushforward,
    certificates_for_selections,
    q1_necessary_conditions,
    verify_delta_decomposition,
)
from .selfdual import (
    SelfDualityReport,
    find_cone_isomorphisms,
    is_strongly_self_dual,
    rotation_about_axis,
    self_duality,
    state_from_isomorphism,
)

__version__ = "0.1.0"
