"""Stabilize periodic orbits of multi-domain hybrid systems.

The pipeline: describe an N-phase cyclic hybrid system with parameterized
phase controllers, locate its periodic orbit on the switching sections,
measure the per-phase section-map sensitivities, design event-triggered
parameter-feedback gains phase by phase, and certify that the closed-loop
return map contracts.
"""

from .impacts import ImpactModel, apply_reset, relabel, rigid_impact
from .integrator import (
    Chattering,
    IntegrationError,
    IntegratorConfig,
    NoCrossing,
    NonFinite,
    NonTransversal,
    flow_batch,
    simulate_cycle,
)
from .model import (
    Domain,
    FeedbackLaw,
    MultiDomainSystem,
    PeriodicOrbit,
    SectionChart,
    affine_section_chart,
    chart_from_guard,
    validate_c1_c2,
)
from .numerics import (
    NumericsError,
    dare_solve,
    dlqr_gain,
    eigenvalues,
    max_abs_entry,
    pinv,
    spectral_norm,
    spectral_radius,
)
from .poincare import (
    FixedPointError,
    PhaseJacobians,
    compose_jacobians,
    orbit_and_jacobians,
    partial_map,
    phase_jacobians,
    refine_fixed_point,
    return_map,
)
from .synthesis import (
    GainSet,
    StabilityReport,
    SynthesisError,
    TheoremCertificate,
    certify_theorem3,
    certify_theorem4,
    designed_jacobians,
    dlqr_gains,
    scale_factor_gains,
    stability_report,
    symmetric_matrix_gains,
)
from .fixtures import (
    CATALOG,
    PaperFixture,
    SyntheticModel,
    build_synthetic,
    from_catalog,
    paper_fixture,
    verify_paper,
)

__version__ = "0.1.0"
