"""Stabilize periodic orbits of multi-domain hybrid systems.

The pipeline: describe an N-phase cyclic hybrid system with parameterized
phase controllers, locate its periodic orbit on the switching sections,
measure the per-phase section-map sensitivities, design event-triggered
parameter-feedback gains phase by phase, and certify that the closed-loop
return map contracts.

Importing the package loads none of its modules: each exported name, and
each submodule, is imported on first access (PEP 562), so a command that
designs gains never compiles the integrator.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "impacts": ("ImpactModel", "relabel", "rigid_impact"),
    "integrator": (
        "Chattering",
        "IntegrationError",
        "IntegratorConfig",
        "NoCrossing",
        "NonFinite",
        "NonTransversal",
        "flow_batch",
        "simulate_cycle",
    ),
    "model": (
        "AffineField",
        "AffineGuard",
        "Domain",
        "FeedbackLaw",
        "MultiDomainSystem",
        "PeriodicOrbit",
        "SectionChart",
        "affine_section_chart",
        "chart_from_guard",
        "validate_c1_c2",
    ),
    "numerics": (
        "NumericsError",
        "PhaseJacobians",
        "compose_jacobians",
        "eigenvalues",
        "max_abs_entry",
        "pinv",
        "spectral_radius",
    ),
    "poincare": ("FixedPointError", "orbit_and_jacobians", "phase_jacobians", "refine_fixed_point"),
    "synthesis": (
        "GainSet",
        "StabilityReport",
        "SynthesisError",
        "TheoremCertificate",
        "designed_jacobians",
        "dlqr_gains",
        "scale_factor_gains",
        "stability_report",
        "symmetric_matrix_gains",
    ),
    "paper": ("PaperFixture", "paper_fixture", "verify_paper"),
    "synthetic": ("CATALOG", "SyntheticModel", "build_synthetic", "from_catalog"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "jsonio"}

__all__ = list(_HOME)


def _submodule(name):
    # The import statement's machinery sets the package attribute, and
    # -X importtime reports it; importlib.import_module's does not report.
    __import__(f"{__name__}.{name}")
    return globals()[name]


def __getattr__(name):
    if name in _SUBMODULES:
        return _submodule(name)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_submodule(_HOME[name]), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
