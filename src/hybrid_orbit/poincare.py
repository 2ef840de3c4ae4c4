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

from .integrator import IntegrationError, IntegratorConfig, section_step
from .model import MultiDomainSystem, PeriodicOrbit
from .numerics import central_difference

__all__ = [
    "PhaseJacobians",
    "FixedPointError",
    "partial_map",
    "return_map",
    "phase_jacobians",
    "compose_jacobians",
    "orbit_and_jacobians",
    "refine_fixed_point",
]


class FixedPointError(RuntimeError):
    """Newton refinement diverged or hit a non-hyperbolic direction."""


# Newton's stopping residual (max norm), iteration cap and step halvings.
_NEWTON_TOL = 1e-9
_NEWTON_MAX_ITER = 30
_NEWTON_MAX_DAMPING = 8
# Step scales Newton tries in turn: 1, 1/2, ... (the damping), preceded by
# the extrapolated 2 after a full step whose residual ratio lies in
# _SINGULAR_RATIO, around the 1/4 of Newton at a simple singular root.
_DAMPING = tuple(0.5**j for j in range(_NEWTON_MAX_DAMPING + 1))
_EXTRAPOLATED = (2.0,) + _DAMPING
_SINGULAR_RATIO = (0.2, 0.3)
# The relative central-difference step of every phase Jacobian.
_FD_STEP = 1e-5


@dataclass(frozen=True)
class PhaseJacobians:
    """Per-phase section-map sensitivities in reduced chart coordinates.

    A is the state sensitivity at the entry fixed point with beta = 0;
    F is the parameter sensitivity at beta = 0.
    """

    phase_index: int
    A: np.ndarray
    F: np.ndarray


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


def return_map(system: MultiDomainSystem, x: np.ndarray, cfg: IntegratorConfig) -> np.ndarray:
    """Full-cycle map at beta = 0, starting on the section entering phase 0."""
    for i in range(system.n_domains):
        x = partial_map(system, i, x, np.zeros(system.domain(i).param_dim), cfg)
    return x


def _phase_step(
    system: MultiDomainSystem,
    i: int,
    x: np.ndarray,
    cfg: IntegratorConfig,
) -> tuple[np.ndarray, float, PhaseJacobians]:
    """Phase-i leg from entry point x at beta = 0 and its Jacobians.

    The undisturbed member and the 2 (k + p) central-difference members of
    relative step _FD_STEP, state and parameter together, are integrated as
    one batch.  Returns the undisturbed exit point and duration, and A_i,
    F_i at x.
    """
    k = x.size
    z0 = np.concatenate([x, np.zeros(system.domain(i).param_dim)])
    center = []

    def members(z):
        z = np.vstack([z0, z])
        y, durations = section_step(system, i, z[:, :k], z[:, k:], cfg)
        center[:] = y[0], durations[0]
        return y[1:]

    jac = central_difference(members, z0, _FD_STEP)
    return *center, PhaseJacobians(phase_index=i, A=jac[:, :k], F=jac[:, k:])


def phase_jacobians(
    system: MultiDomainSystem,
    orbit: PeriodicOrbit,
    cfg: IntegratorConfig,
) -> list[PhaseJacobians]:
    """State and parameter Jacobians for every phase of the cycle, one
    batch per phase."""
    return [
        _phase_step(system, i, orbit.fixed_points[i - 1], cfg)[2]
        for i in range(system.n_domains)
    ]


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


def orbit_and_jacobians(
    system: MultiDomainSystem,
    x_guess: np.ndarray,
    cfg: IntegratorConfig,
) -> tuple[PeriodicOrbit, list[PhaseJacobians]]:
    """Newton refinement of a return-map fixed point and the per-phase
    Jacobians at it.

    Every trial point, damping trials included, makes one pass around the
    cycle, one batch per phase from the undisturbed member's entry point.
    The pass gives the residual return_map(x) - x, the orbit and the
    per-phase Jacobians A_i, F_i; Newton solves with the product of the
    A_i, halving the step up to 8 times whenever the residual fails to
    decrease or the trial pass raises an IntegrationError, and stops once
    the max-norm residual is below 1e-9, within 30 iterations.  The orbit's section fixed points and phase
    durations are those of the pass that gave the converged residual,
    except that the last fixed point is the converged x itself rather than
    its image return_map(x).  The Jacobians are that pass's too, so they
    equal phase_jacobians(system, orbit, cfg) bit for bit.  A
    FixedPointError for a stall or no convergence gives the residual and
    sigma_min(DP - I) at the last accepted point; a stall message also
    counts the trial passes that failed to integrate, if any did.  The
    guess's own pass is no trial: its IntegrationError propagates.

    Where DP - I is singular, Newton converges only linearly: at a simple
    singular root the residual falls by 1/4 per step.  So after an
    accepted full step whose max-norm residual ratio lies in (0.2, 0.3),
    the next step is first tried at twice its length, the extrapolated
    Newton step of Kelley & Suresh (SIAM J. Numer. Anal. 1983).  If that
    trial pass does not lower the residual, the damping sequence 1, 1/2,
    ... follows unchanged, so the trial costs at most one extra pass.  On
    boundary-2, whose return map has an eigenvalue of exactly 1, 1e-3
    kicks take 3-4 passes, where plain Newton takes up to 7.  The
    residual test pins such an orbit along its neutral direction only to
    about the square root of the tolerance: from those kicks the orbit
    lies up to 2.3e-5 from the closed form and A_i, F_i up to 5.8e-5,
    against about 5e-10 on the hyperbolic catalog systems.  The trial
    moves where the iteration stops, not this limit.
    """

    def one_pass(x):
        legs = [_phase_step(system, 0, x, cfg)]
        for i in range(1, system.n_domains):
            legs.append(_phase_step(system, i, legs[-1][0], cfg))
        points, durations, jacs = zip(*legs)
        return points[-1] - x, PeriodicOrbit(points[:-1] + (x,), durations), list(jacs)

    x = np.asarray(x_guess, dtype=float).copy()
    residual, orbit, jacs = one_pass(x)
    res_norm = float(np.max(np.abs(residual)))
    scales = _DAMPING
    for _ in range(_NEWTON_MAX_ITER):
        if res_norm < _NEWTON_TOL:
            return orbit, jacs
        try:
            step = np.linalg.solve(compose_jacobians(jacs) - np.eye(x.size), -residual)
        except np.linalg.LinAlgError as exc:
            raise FixedPointError(
                "singular (I - A): the orbit is non-hyperbolic in a unit-eigenvalue direction"
            ) from exc
        failed = 0
        for scale in scales:
            x_try = x + scale * step
            try:
                trial = one_pass(x_try)
            except IntegrationError:
                failed += 1
                continue
            trial_norm = float(np.max(np.abs(trial[0])))
            if trial_norm < res_norm:
                break
        else:
            raise FixedPointError(
                f"Newton stalled: residual {res_norm:.3e} does not decrease, "
                f"sigma_min(DP - I) = {_sigma_min(jacs):.3e}"
                + (f"; {failed} trial passes failed to integrate" if failed else "")
            )
        singular = _SINGULAR_RATIO[0] < trial_norm / res_norm < _SINGULAR_RATIO[1]
        scales = _EXTRAPOLATED if scale == 1.0 and singular else _DAMPING
        x, (residual, orbit, jacs) = x_try, trial
        res_norm = trial_norm
    if res_norm < _NEWTON_TOL:
        return orbit, jacs
    raise FixedPointError(
        f"Newton did not converge: residual {res_norm:.3e} after {_NEWTON_MAX_ITER} iterations, "
        f"sigma_min(DP - I) = {_sigma_min(jacs):.3e}"
    )


def _sigma_min(jacs) -> float:
    """The smallest singular value of DP - I, how far Newton's matrix is
    from singular: near zero, the orbit is close to non-hyperbolic."""
    product = compose_jacobians(jacs)
    return float(np.linalg.svd(product - np.eye(product.shape[0]), compute_uv=False)[-1])


def refine_fixed_point(
    system: MultiDomainSystem,
    x_guess: np.ndarray,
    cfg: IntegratorConfig,
) -> PeriodicOrbit:
    """The periodic orbit of orbit_and_jacobians, without its Jacobians."""
    return orbit_and_jacobians(system, x_guess, cfg)[0]
