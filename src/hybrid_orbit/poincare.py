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
    y, _ = section_step(
        system, i, np.asarray(x_prev, dtype=float)[None], np.asarray(beta, dtype=float)[None], cfg
    )
    return y[0]


def _cycle(system: MultiDomainSystem, x: np.ndarray, cfg: IntegratorConfig):
    """Walk one cycle at beta = 0 from a (B, k) stack on the section entering
    phase 0.  Returns the per-phase exit-section stacks and durations."""
    points, durations = [], []
    for i in range(system.n_domains):
        x, duration = section_step(system, i, x, np.zeros((len(x), system.domain(i).param_dim)), cfg)
        points.append(x)
        durations.append(duration)
    return points, durations


def return_map(system: MultiDomainSystem, x: np.ndarray, cfg: IntegratorConfig) -> np.ndarray:
    """Full-cycle map at beta = 0, starting on the section entering phase 0."""
    points, _ = _cycle(system, np.asarray(x, dtype=float)[None], cfg)
    return points[-1][0]


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
    p = system.domain(i).param_dim
    return central_difference(
        lambda x: section_step(system, i, x, np.zeros((len(x), p)), cfg)[0], x0, fd_scale
    )


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
    return central_difference(
        lambda b: section_step(system, i, np.tile(x0, (len(b), 1)), b, cfg)[0], np.zeros(p), fd_scale
    )


def phase_jacobians(
    system: MultiDomainSystem,
    orbit: PeriodicOrbit,
    cfg: IntegratorConfig,
    fd_scale: float = 1e-5,
) -> list[PhaseJacobians]:
    """State and parameter Jacobians for every phase of the cycle.

    The 2 (k + p) difference columns of a phase, state and parameter
    together, are integrated as one batch."""
    out = []
    for i in range(system.n_domains):
        x0 = orbit.fixed_points[(i - 1) % system.n_domains]
        k = x0.size
        z0 = np.concatenate([x0, np.zeros(system.domain(i).param_dim)])
        jac = central_difference(
            lambda z: section_step(system, i, z[:, :k], z[:, k:], cfg)[0], z0, fd_scale
        )
        out.append(PhaseJacobians(phase_index=i, A=jac[:, :k], F=jac[:, k:], fd_step=fd_scale))
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
    Jacobian, whose 2k columns are integrated as one batch per phase,
    halving the step up to max_damping times whenever the residual fails to
    decrease.  The orbit's section fixed points and phase durations are
    those of the cycle walk that gave the converged residual.
    """
    x = np.asarray(x_guess, dtype=float).copy()
    residual, orbit = _walk(system, x, cfg)
    res_norm = float(np.max(np.abs(residual)))
    for _ in range(max_iter):
        if res_norm < tol:
            return orbit
        jac = central_difference(lambda z: _cycle(system, z, cfg)[0][-1], x, fd_scale)
        try:
            step = np.linalg.solve(jac - np.eye(x.size), -residual)
        except np.linalg.LinAlgError as exc:
            raise FixedPointError(
                "singular (I - A): the orbit is non-hyperbolic in a unit-eigenvalue direction"
            ) from exc
        scale = 1.0
        for _ in range(max_damping + 1):
            x_try = x + scale * step
            residual_try, orbit_try = _walk(system, x_try, cfg)
            if float(np.max(np.abs(residual_try))) < res_norm:
                break
            scale *= 0.5
        else:
            raise FixedPointError(
                f"Newton stalled: residual {res_norm:.3e} does not decrease"
            )
        x = x_try
        orbit = orbit_try
        residual = residual_try
        res_norm = float(np.max(np.abs(residual)))
    if res_norm < tol:
        return orbit
    raise FixedPointError(f"Newton did not converge: residual {res_norm:.3e} after {max_iter} iterations")


def _walk(system: MultiDomainSystem, x: np.ndarray, cfg: IntegratorConfig):
    """Return-map residual at x and the cycle walked from x to get it."""
    points, durations = _cycle(system, x[None], cfg)
    orbit = PeriodicOrbit(
        fixed_points=tuple(y[0] for y in points),
        phase_durations=tuple(d[0] for d in durations),
    )
    return points[-1][0] - x, orbit
