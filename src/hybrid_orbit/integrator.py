"""Fixed-step RK4 phase integration with guard-event detection.

A phase flow runs until the scalar exit guard first changes sign, then the
crossing is refined by bisecting the final step horizon until the guard
residual is below tolerance.  Identical inputs produce bit-identical
trajectories: the step sequence is a pure function of the configuration.
"""

import csv
from dataclasses import dataclass

import numpy as np

from .model import Domain, FeedbackLaw, MultiDomainSystem, guard_gradient

__all__ = [
    "IntegratorConfig",
    "PhaseTrajectory",
    "IntegrationError",
    "NoCrossing",
    "NonTransversal",
    "Chattering",
    "NonFinite",
    "rk4_step",
    "flow_to_guard",
    "simulate_cycle",
    "write_trajectory_csv",
]


class IntegrationError(RuntimeError):
    """Base class for phase-integration failures.

    The phase attribute is attached when the failure happens inside a
    multi-phase simulation.
    """

    phase: int | None = None


class NoCrossing(IntegrationError):
    """The guard was never reached before the phase-duration cap."""


class NonTransversal(IntegrationError):
    """The guard rate at the detected crossing is below tolerance."""


class Chattering(IntegrationError):
    """The guard was crossed before the minimum phase duration."""


class NonFinite(IntegrationError):
    """The state left the finite range during integration."""


@dataclass(frozen=True)
class IntegratorConfig:
    base_step: float = 1e-2
    guard_tol: float = 1e-10
    min_phase_duration: float = 1e-6
    max_phase_duration: float = 50.0
    transversality_tol: float = 1e-8
    refine_max_iter: int = 100
    # Cap on the per-step guard change, as a fraction of the running guard
    # range; steps violating it are split to reduce missed-crossing risk.
    guard_step_fraction: float = 0.25
    max_step_splits: int = 6

    def __post_init__(self):
        positive = (
            self.base_step,
            self.guard_tol,
            self.min_phase_duration,
            self.max_phase_duration,
            self.transversality_tol,
            self.guard_step_fraction,
        )
        if not all(np.isfinite(v) and v > 0.0 for v in positive):
            raise ValueError("all integrator tolerances must be finite and positive")
        if self.min_phase_duration >= self.max_phase_duration:
            raise ValueError("min_phase_duration must be below max_phase_duration")
        if self.refine_max_iter < 1 or self.max_step_splits < 0:
            raise ValueError("iteration limits must be positive")


@dataclass
class PhaseTrajectory:
    """One phase flow: accepted steps plus the refined guard crossing."""

    times: np.ndarray
    states: np.ndarray
    exit_state: np.ndarray
    exit_time: float


def rk4_step(f, x: np.ndarray, h: float) -> np.ndarray:
    k1 = f(x)
    k2 = f(x + 0.5 * h * k1)
    k3 = f(x + 0.5 * h * k2)
    k4 = f(x + h * k3)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def flow_to_guard(
    domain: Domain,
    x0: np.ndarray,
    beta: np.ndarray,
    cfg: IntegratorConfig,
) -> PhaseTrajectory:
    """Integrate one phase until the exit guard is crossed.

    The start state must lie strictly off the guard; the side of the guard
    at t = 0 defines the approach side.  A sign change (or a guard value
    already inside tolerance) triggers bisection refinement of the final
    step.  Crossings earlier than the minimum phase duration, absent
    crossings, non-transversal exits and state blow-up all raise distinct
    errors rather than returning a wrong trajectory.
    """
    x0 = np.asarray(x0, dtype=float)
    f = domain.vector_field(beta)
    h0 = float(domain.guard(x0))
    if abs(h0) <= cfg.guard_tol:
        raise ValueError("start state lies on the guard; a phase needs an interior start")
    side = 1.0 if h0 > 0.0 else -1.0

    times = [0.0]
    states = [x0.copy()]
    t, x, h_val = 0.0, x0, h0
    h_lo = h_hi = h0

    while True:
        if t >= cfg.max_phase_duration:
            raise NoCrossing(
                f"guard not reached within max phase duration {cfg.max_phase_duration}"
            )
        step = min(cfg.base_step, cfg.max_phase_duration - t)
        h_range = max(h_hi - h_lo, abs(h0))
        x_next, h_next = None, None
        for _ in range(cfg.max_step_splits + 1):
            x_try = rk4_step(f, x, step)
            if not np.all(np.isfinite(x_try)):
                raise NonFinite(f"state became non-finite near t = {t:.6g}")
            h_try = float(domain.guard(x_try))
            crossed = (h_try * side < 0.0) or (abs(h_try) <= cfg.guard_tol)
            if crossed or abs(h_try - h_val) <= cfg.guard_step_fraction * h_range:
                x_next, h_next = x_try, h_try
                break
            step *= 0.5
        if x_next is None:
            x_next = rk4_step(f, x, step)
            h_next = float(domain.guard(x_next))

        if (h_next * side < 0.0) or (abs(h_next) <= cfg.guard_tol):
            t_exit, x_exit = _refine_crossing(domain, f, x, t, step, side, cfg)
            if t_exit < cfg.min_phase_duration:
                raise Chattering(
                    f"guard crossed at t = {t_exit:.3e}, below the minimum duration "
                    f"{cfg.min_phase_duration:.3e}"
                )
            rate = guard_gradient(domain, x_exit) @ f(x_exit)
            if abs(rate) <= cfg.transversality_tol:
                raise NonTransversal(
                    f"guard rate {rate:.3e} at the crossing is below tolerance"
                )
            times.append(t_exit)
            states.append(x_exit.copy())
            return PhaseTrajectory(
                times=np.array(times),
                states=np.array(states),
                exit_state=x_exit,
                exit_time=t_exit,
            )

        t += step
        x = x_next
        h_val = h_next
        h_lo = min(h_lo, h_val)
        h_hi = max(h_hi, h_val)
        times.append(t)
        states.append(x.copy())


def _refine_crossing(domain, f, x_from, t_from, step, side, cfg):
    """Bisect the step horizon until the guard residual is within tolerance."""
    lo, hi = 0.0, step
    x_best, h_best, tau_best = None, float("inf"), step
    for _ in range(cfg.refine_max_iter):
        mid = 0.5 * (lo + hi)
        x_mid = rk4_step(f, x_from, mid)
        h_mid = float(domain.guard(x_mid))
        if abs(h_mid) < abs(h_best):
            x_best, h_best, tau_best = x_mid, h_mid, mid
        if abs(h_mid) <= cfg.guard_tol:
            return t_from + mid, x_mid
        if h_mid * side < 0.0:
            hi = mid
        else:
            lo = mid
    if x_best is not None and abs(h_best) <= 10.0 * cfg.guard_tol:
        return t_from + tau_best, x_best
    raise IntegrationError(
        f"guard refinement stalled at |H| = {abs(h_best):.3e} "
        f"(tolerance {cfg.guard_tol:.3e})"
    )


def section_step(
    system: MultiDomainSystem,
    i: int,
    x_section: np.ndarray,
    beta: np.ndarray,
    cfg: IntegratorConfig,
) -> tuple[np.ndarray, float]:
    """One section-to-section leg: embed, reset, flow phase i, project.

    Returns the reduced coordinates on the exit section of domain i and the
    realized phase duration.  Integration errors propagate with the phase
    index attached.
    """
    n = system.n_domains
    prev = system.domain(i - 1)
    dom = system.domain(i)
    entry_chart = system.chart(i - 1)
    exit_chart = system.chart(i)
    x_full = entry_chart.embed(np.asarray(x_section, dtype=float))
    x_plus = prev.reset(x_full)
    try:
        traj = flow_to_guard(dom, x_plus, beta, cfg)
    except IntegrationError as exc:
        exc.phase = i % n
        exc.args = (f"phase {i % n}: {exc.args[0]}",) + exc.args[1:]
        raise
    return exit_chart.project(traj.exit_state), traj.exit_time


def simulate_cycle(
    system: MultiDomainSystem,
    law: FeedbackLaw | None,
    x_start: np.ndarray,
    n_cycles: int,
    cfg: IntegratorConfig,
) -> list[np.ndarray]:
    """Run whole cycles from a point on the section entering phase 0.

    Records the reduced section state after each full cycle.  With a law,
    each phase parameter is computed once from the section state at phase
    entry (before the reset) and held for the phase; without one the system
    runs open loop at beta = 0.
    """
    if law is None:
        law = system.law
    y = np.asarray(x_start, dtype=float)
    out = []
    for _ in range(n_cycles):
        for i in range(system.n_domains):
            if law is not None:
                beta = law.beta(i, y)
            else:
                beta = np.zeros(system.domain(i).param_dim)
            y, _ = section_step(system, i, y, beta, cfg)
        out.append(y.copy())
    return out


def write_trajectory_csv(traj: PhaseTrajectory, path) -> None:
    """Write a phase trajectory as t,x1,...,xm with the exit row last."""
    m = traj.states.shape[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"x{j + 1}" for j in range(m)])
        for t, row in zip(traj.times, traj.states):
            writer.writerow([repr(float(t))] + [repr(float(v)) for v in row])
