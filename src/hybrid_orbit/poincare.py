"""Section-to-section maps, their finite-difference Jacobians, and
fixed-point refinement.

The phase-i partial map takes reduced coordinates on the section entering
phase i, applies the preceding reset, flows through phase i and projects
the guard crossing through the exit chart.  The return map is the
composition of all partial maps around the cycle; its Jacobian is the
right-to-left product of the per-phase Jacobians.
"""

from dataclasses import dataclass

import numpy as np

from .integrator import IntegratorConfig, section_step
from .model import MultiDomainSystem, PeriodicOrbit
from .numerics import central_difference

__all__ = [
    "PhaseJacobians",
    "FixedPointError",
    "partial_map",
    "return_map",
    "jacobian_state",
    "jacobian_param",
    "phase_jacobians",
    "compose_jacobians",
    "refine_fixed_point",
]


class FixedPointError(RuntimeError):
    """Newton refinement diverged or hit a non-hyperbolic direction."""


@dataclass(frozen=True)
class PhaseJacobians:
    """Per-phase section-map sensitivities in reduced chart coordinates.

    A is the state sensitivity at the entry fixed point with beta = 0;
    F is the parameter sensitivity at beta = 0.  fd_step records the base
    finite-difference step used (0 for analytically built Jacobians).
    """

    phase_index: int
    A: np.ndarray
    F: np.ndarray
    fd_step: float = 0.0


def partial_map(
    system: MultiDomainSystem,
    i: int,
    x_prev: np.ndarray,
    beta: np.ndarray,
    cfg: IntegratorConfig,
) -> np.ndarray:
    """Phase-i map: reduced entry-section coordinates to exit-section ones."""
    y, _ = section_step(system, i, x_prev, np.asarray(beta, dtype=float), cfg)
    return y


def return_map(system: MultiDomainSystem, x: np.ndarray, cfg: IntegratorConfig) -> np.ndarray:
    """Full-cycle map at beta = 0, starting on the section entering phase 0."""
    y = np.asarray(x, dtype=float)
    for i in range(system.n_domains):
        y = partial_map(system, i, y, np.zeros(system.domain(i).param_dim), cfg)
    return y


def jacobian_state(
    system: MultiDomainSystem,
    i: int,
    orbit: PeriodicOrbit,
    cfg: IntegratorConfig,
    fd_scale: float = 1e-5,
) -> np.ndarray:
    """Central-difference state Jacobian A_i of the phase-i map.

    Step per coordinate: fd_scale * max(1, |coordinate|)."""
    x0 = orbit.fixed_points[(i - 1) % system.n_domains]
    beta0 = np.zeros(system.domain(i).param_dim)
    return central_difference(lambda x: partial_map(system, i, x, beta0, cfg), x0, fd_scale)


def jacobian_param(
    system: MultiDomainSystem,
    i: int,
    orbit: PeriodicOrbit,
    cfg: IntegratorConfig,
    fd_scale: float = 1e-5,
) -> np.ndarray:
    """Central-difference parameter Jacobian F_i at beta = 0."""
    x0 = orbit.fixed_points[(i - 1) % system.n_domains]
    p = system.domain(i).param_dim
    k_out = system.chart(i).k
    if p == 0:
        return np.zeros((k_out, 0))
    # At beta = 0 every step is exactly fd_scale.
    return central_difference(lambda b: partial_map(system, i, x0, b, cfg), np.zeros(p), fd_scale)


def phase_jacobians(
    system: MultiDomainSystem,
    orbit: PeriodicOrbit,
    cfg: IntegratorConfig,
    fd_scale: float = 1e-5,
) -> list[PhaseJacobians]:
    """State and parameter Jacobians for every phase of the cycle."""
    out = []
    for i in range(system.n_domains):
        a = jacobian_state(system, i, orbit, cfg, fd_scale)
        f = jacobian_param(system, i, orbit, cfg, fd_scale)
        out.append(PhaseJacobians(phase_index=i, A=a, F=f, fd_step=fd_scale))
    return out


def compose_jacobians(jacs) -> np.ndarray:
    """Right-to-left product of a phase-ordered Jacobian chain.

    The list is ordered phase 1 ... phase N; the last phase ends up
    leftmost in the product, matching the composition of the maps.
    """
    mats = [j.A if isinstance(j, PhaseJacobians) else np.asarray(j, dtype=float) for j in jacs]
    if not mats:
        raise ValueError("need at least one Jacobian")
    product = mats[0]
    for m in mats[1:]:
        if m.shape[1] != product.shape[0]:
            raise ValueError(
                f"dimension mismatch in Jacobian chain: {m.shape} after {product.shape}"
            )
        product = m @ product
    return product


def refine_fixed_point(
    system: MultiDomainSystem,
    x_guess: np.ndarray,
    cfg: IntegratorConfig,
    tol: float = 1e-9,
    max_iter: int = 30,
    max_damping: int = 8,
    fd_scale: float = 1e-5,
) -> PeriodicOrbit:
    """Newton refinement of a return-map fixed point.

    Solves return_map(x) - x = 0 with the finite-difference return-map
    Jacobian, halving the step up to max_damping times whenever the
    residual fails to decrease.  On success the full cycle is walked once
    more to record every section fixed point and phase duration.
    """
    x = np.asarray(x_guess, dtype=float).copy()
    residual = return_map(system, x, cfg) - x
    res_norm = float(np.max(np.abs(residual)))
    for _ in range(max_iter):
        if res_norm < tol:
            return _collect_orbit(system, x, cfg)
        jac = central_difference(lambda z: return_map(system, z, cfg), x, fd_scale)
        try:
            step = np.linalg.solve(jac - np.eye(x.size), -residual)
        except np.linalg.LinAlgError as exc:
            raise FixedPointError(
                "singular (I - A): the orbit is non-hyperbolic in a unit-eigenvalue direction"
            ) from exc
        scale = 1.0
        for _ in range(max_damping + 1):
            x_try = x + scale * step
            residual_try = return_map(system, x_try, cfg) - x_try
            if float(np.max(np.abs(residual_try))) < res_norm:
                break
            scale *= 0.5
        else:
            raise FixedPointError(
                f"Newton stalled: residual {res_norm:.3e} does not decrease"
            )
        x = x_try
        residual = residual_try
        res_norm = float(np.max(np.abs(residual)))
    if res_norm < tol:
        return _collect_orbit(system, x, cfg)
    raise FixedPointError(f"Newton did not converge: residual {res_norm:.3e} after {max_iter} iterations")


def _collect_orbit(system, x_star, cfg) -> PeriodicOrbit:
    fixed_points = [None] * system.n_domains
    durations = [None] * system.n_domains
    y = x_star
    for i in range(system.n_domains):
        y, duration = section_step(system, i, y, np.zeros(system.domain(i).param_dim), cfg)
        fixed_points[i] = y.copy()
        durations[i] = duration
    return PeriodicOrbit(fixed_points=tuple(fixed_points), phase_durations=tuple(durations))
