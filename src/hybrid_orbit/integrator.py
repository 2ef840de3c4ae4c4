"""Fixed-step RK4 phase integration with guard-event detection.

A phase flow runs until the scalar exit guard first changes sign, then the
crossing is located by regula falsi on the fraction of the final step, to
a few ulps of the step (Shampine & Thompson, "Event location for ordinary
differential equations", 2000).  Identical inputs produce bit-identical
trajectories: the step sequence is a pure function of the configuration.

One kernel, flow_batch, integrates a stack of members of one phase in
lockstep, each with its own start state and frozen parameter vector; a
single flow is its one-member case.
"""

from dataclasses import dataclass

import numpy as np

from .jsonio import _dump_csv
from .model import Domain, FeedbackLaw, MultiDomainSystem, guard_gradient, row_map

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


# Regula falsi locates a crossing in far fewer iterations than this cap.
_REFINE_MAX_ITER = 100


@dataclass(frozen=True)
class IntegratorConfig:
    base_step: float = 1e-2
    guard_tol: float = 1e-10
    min_phase_duration: float = 1e-6
    max_phase_duration: float = 50.0
    transversality_tol: float = 1e-8
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
        if self.max_step_splits < 0:
            raise ValueError("max_step_splits must be nonnegative")


@dataclass
class PhaseTrajectory:
    """One phase flow: accepted steps plus the refined guard crossing."""

    times: np.ndarray
    states: np.ndarray
    exit_state: np.ndarray
    exit_time: float


def rk4_step(f, x: np.ndarray, h: float | np.ndarray) -> np.ndarray:
    """One classical RK4 step.  x may be a (B, m) stack of states, with h a
    shared float or a (B, 1) column of per-member steps."""
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
    already inside tolerance) ends the flow, and regula falsi locates the
    crossing inside the final step.  Crossings earlier than the minimum
    phase duration, absent crossings, non-transversal exits and state
    blow-up all raise distinct errors rather than returning a wrong
    trajectory.
    """
    x0 = np.asarray(x0, dtype=float)
    beta = np.asarray(beta, dtype=float)
    times, states = [], []
    x_exit, t_exit = flow_batch(domain, x0[None], beta[None], cfg, (times, states))
    return PhaseTrajectory(
        times=np.array(times),
        states=np.array(states),
        exit_state=x_exit[0],
        exit_time=float(t_exit[0]),
    )


def flow_batch(
    domain: Domain,
    x0: np.ndarray,
    betas: np.ndarray,
    cfg: IntegratorConfig,
    record: tuple[list, list] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate B members of one phase in lockstep to their guard crossings.

    Row b of the (B, m) stack x0 flows with betas[b] held fixed.  Every
    member follows the flow_to_guard algorithm on its own: its own step and
    step splits, its own crossing location and its own checks.  If any
    member fails, its typed error is raised and nothing is returned.  The
    result is the (B, m) exit states and the (B,) exit times.  With record,
    a single member's accepted times and states are appended to the two
    lists, the exit row last.
    """
    x = np.array(x0, dtype=float)
    betas = np.asarray(betas, dtype=float)
    n_members = x.shape[0]
    if betas.shape != (n_members, domain.param_dim):
        raise ValueError(
            f"parameter stack has shape {betas.shape}, expected ({n_members}, {domain.param_dim})"
        )
    if record is not None and n_members != 1:
        raise ValueError("only a single member can record its trajectory")
    guard = domain.batch_guard or row_map(domain.guard)
    h0 = guard(x)
    if np.any(np.abs(h0) <= cfg.guard_tol):
        raise ValueError("start state lies on the guard; a phase needs an interior start")
    # Guard values are kept signed by the approach side, g = side * H, so a
    # member has crossed once g <= guard_tol.  Negation is exact, so every
    # test and guard range below equals its unsigned form.
    side = np.where(h0 > 0.0, 1.0, -1.0)
    g_abs0 = np.abs(h0)
    g_val, g_lo, g_hi = g_abs0, g_abs0, g_abs0
    cap = cfg.guard_step_fraction * g_abs0
    t = np.zeros(n_members)
    members = np.arange(n_members)
    f = _batch_field(domain, betas)
    x_out = np.empty_like(x)
    t_out = np.empty(n_members)
    if record is not None:
        record[0].append(0.0)
        record[1].append(x[0].copy())

    t_lead = 0.0  # the largest member time
    while members.size:
        if t_lead >= cfg.max_phase_duration:
            raise NoCrossing(
                f"guard not reached within max phase duration {cfg.max_phase_duration}"
            )
        if cfg.max_phase_duration - t_lead >= cfg.base_step:
            dt = step = cfg.base_step  # one float step while every member takes the base step
        else:
            dt = np.minimum(cfg.base_step, cfg.max_phase_duration - t)
            step = dt[:, None]
        x_next = rk4_step(f, x, step)
        if not np.isfinite(x_next).all():
            _raise_non_finite(x_next, t)
        g_next = side * guard(x_next)

        if not ((g_next > cfg.guard_tol) & (np.abs(g_next - g_val) <= cap)).all():
            # Some member crossed, or changed its guard by more than the cap
            # and splits its step.
            step = np.broadcast_to(step, (x.shape[0], 1)).copy()
            pending = ~((g_next <= cfg.guard_tol) | (np.abs(g_next - g_val) <= cap))
            for split in range(cfg.max_step_splits + 1):
                if not pending.any():
                    break
                step[pending] *= 0.5
                x_try = rk4_step(f, x, step)
                _raise_non_finite(x_try[pending], t[pending])
                g_try = side * guard(x_try)
                took = pending & ((g_try <= cfg.guard_tol) | (np.abs(g_try - g_val) <= cap))
                if split == cfg.max_step_splits:
                    took = pending  # out of splits: the last half step is taken as it is
                x_next = np.where(took[:, None], x_try, x_next)
                g_next = np.where(took, g_try, g_next)
                pending &= ~took
            dt = step[:, 0]

            crossed = g_next <= cfg.guard_tol
            if crossed.any():
                rows = np.flatnonzero(crossed)
                f_rows = f if rows.size == members.size else _batch_field(domain, betas[members[rows]])
                x_exit, t_exit = _exit_crossing(
                    domain, f_rows, guard, x[rows], t[rows], dt[rows], side[rows],
                    g_val[rows], x_next[rows], g_next[rows], cfg,
                )
                x_out[members[rows]] = x_exit
                t_out[members[rows]] = t_exit
                if record is not None:
                    record[0].append(float(t_exit[0]))
                    record[1].append(x_exit[0].copy())
                keep = ~crossed
                members = members[keep]
                if not members.size:
                    break
                x, x_next, t, dt = x[keep], x_next[keep], t[keep], dt[keep]
                side, g_abs0, g_next = side[keep], g_abs0[keep], g_next[keep]
                g_val, g_lo, g_hi = g_val[keep], g_lo[keep], g_hi[keep]
                f = _batch_field(domain, betas[members])

        t = t + dt
        t_lead = float(t.max()) if isinstance(dt, np.ndarray) else t_lead + dt
        x = x_next
        g_val = g_next
        g_lo = np.minimum(g_lo, g_next)
        g_hi = np.maximum(g_hi, g_next)
        cap = cfg.guard_step_fraction * np.maximum(g_hi - g_lo, g_abs0)
        if record is not None:
            record[0].append(float(t[0]))
            record[1].append(x[0].copy())
    return x_out, t_out


def _batch_field(domain: Domain, betas: np.ndarray):
    """The closed phase field for a parameter stack, lifted row by row if
    the domain has no batch_field."""
    if domain.batch_field is not None:
        return domain.batch_field(betas)
    fields = [domain.vector_field(beta) for beta in betas]
    return lambda x: np.array([f(row) for f, row in zip(fields, x)])


def _raise_non_finite(x: np.ndarray, t: np.ndarray) -> None:
    """Raise NonFinite for the first member whose state is not finite."""
    bad = ~np.isfinite(x).all(axis=1)
    if bad.any():
        raise NonFinite(f"state became non-finite near t = {t[np.argmax(bad)]:.6g}")


def _exit_crossing(domain, f, guard, x_from, t_from, step, side, g_from, x_to, g_to, cfg):
    """Locate each member's crossing inside its last step, then check it.

    g(tau) = side * H(rk4_step(x_from, tau)) falls from g_from > 0 to g_to
    over the step.  Illinois regula falsi puts the secant root of the bracket
    in place of the end of the same sign, halving the weight of an end kept
    twice in a row, until the bracket is a few ulps of the step wide (at once
    if g_to >= 0 leaves no sign change).  The end with the smaller |H| exits.
    """
    members = np.arange(x_from.shape[0])
    width = 4.0 * np.finfo(float).eps * step
    ends = np.stack([np.zeros_like(step), step])  # tau at the lo and the hi end
    weight = np.stack([g_from, g_to])  # g at the ends, halved by the Illinois rule
    h_abs, x_ends = np.abs(weight), np.stack([x_from, x_to])
    last = np.full(members.size, -1)  # the end replaced last
    active = g_to < 0.0
    for _ in range(_REFINE_MAX_ITER):
        if not active.any():
            break
        lo, hi = ends
        tau = np.clip(lo + (hi - lo) * (weight[0] / (weight[0] - weight[1])), lo, hi)
        x_tau = rk4_step(f, x_from, tau[:, None])
        g_tau = side * guard(x_tau)
        rows = members[active]
        end = (g_tau[rows] <= 0.0).astype(int)  # 1 replaces hi, 0 replaces lo
        weight[1 - end, rows] *= np.where(end == last[rows], 0.5, 1.0)
        ends[end, rows], weight[end, rows], x_ends[end, rows] = tau[rows], g_tau[rows], x_tau[rows]
        h_abs[end, rows] = np.abs(g_tau[rows])
        last[rows] = end
        active &= (weight[1] < 0.0) & (ends[1] - ends[0] > width)

    best = (~(h_abs[0] < h_abs[1])).astype(int)  # ties and NaN at lo go to hi
    h_hit, x_hit = h_abs[best, members], x_ends[best, members]
    stalled = ~(h_hit <= cfg.guard_tol)
    if stalled.any():
        raise IntegrationError(
            f"guard refinement stalled at |H| = {h_hit[np.argmax(stalled)]:.3e} "
            f"(tolerance {cfg.guard_tol:.3e})"
        )
    t_exit = t_from + ends[best, members]

    early = t_exit < cfg.min_phase_duration
    if early.any():
        raise Chattering(
            f"guard crossed at t = {t_exit[np.argmax(early)]:.3e}, below the minimum duration "
            f"{cfg.min_phase_duration:.3e}"
        )
    for x_exit, field in zip(x_hit, f(x_hit)):
        rate = guard_gradient(domain, x_exit) @ field
        if abs(rate) <= cfg.transversality_tol:
            raise NonTransversal(f"guard rate {rate:.3e} at the crossing is below tolerance")
    return x_hit, t_exit


def section_step(
    system: MultiDomainSystem,
    i: int,
    x_section: np.ndarray,
    betas: np.ndarray,
    cfg: IntegratorConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """One section-to-section leg for a stack of members: embed, reset,
    flow phase i, project.

    x_section is a (B, k) stack of reduced coordinates on the section
    entering phase i and betas the (B, p) parameters held in phase i.
    Returns the reduced coordinates on the exit section of domain i and the
    realized phase durations, one row per member.  Integration errors
    propagate with the phase index attached.
    """
    n = system.n_domains
    prev = system.domain(i - 1)
    dom = system.domain(i)
    entry_chart = system.chart(i - 1)
    exit_chart = system.chart(i)
    x_plus = np.array([prev.reset(entry_chart.embed(y)) for y in np.asarray(x_section, dtype=float)])
    try:
        x_exit, t_exit = flow_batch(dom, x_plus, betas, cfg)
    except IntegrationError as exc:
        exc.phase = i % n
        exc.args = (f"phase {i % n}: {exc.args[0]}",) + exc.args[1:]
        raise
    return np.array([exit_chart.project(x) for x in x_exit]), t_exit


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
            y = section_step(system, i, y[None], beta[None], cfg)[0][0]
        out.append(y.copy())
    return out


def write_trajectory_csv(traj: PhaseTrajectory, path) -> None:
    """Write a phase trajectory as t,x1,...,xm with the exit row last."""
    header = ["t"] + [f"x{j + 1}" for j in range(traj.states.shape[1])]
    rows = [[repr(float(v)) for v in (t, *x)] for t, x in zip(traj.times, traj.states)]
    _dump_csv([header] + rows, path)
