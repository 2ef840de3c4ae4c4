"""Fixed-step RK4 phase integration with guard-event detection.

A phase flow runs until the scalar exit guard first changes sign, then the
crossing is located by regula falsi on the fraction of the final step, to
a few ulps of the step (Shampine & Thompson, "Event location for ordinary
differential equations", 2000).  Identical inputs produce bit-identical
trajectories: the step sequence is a pure function of the configuration.

One kernel, flow_batch, integrates a stack of members of one phase in
lockstep, each with its own start state and frozen parameter vector; a
single flow is its one-member case.  It takes base steps in guard-bounded
runs: several RK4 steps back to back, as many as the guard's last rate
allows before the guard could be reached, then one finiteness check and
one guard call on all the run's states stacked.  Each step is tested as
one-at-a-time stepping would test it, so the runs change no result.
"""

from dataclasses import dataclass

import numpy as np

from .jsonio import _dump_csv
from .model import Domain, FeedbackLaw, MultiDomainSystem, row_map
from .numerics import central_difference

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

# The most base steps in one guard-bounded run of flow_batch.  Past 32 a
# one-member flow at base step 2e-3 gets no faster.
_MAX_RUN = 32

# A guard value this many ulps of |grad H| |x| from zero is on the guard
# as far as rounding can tell (see _guard_floor).
_FLOOR_ULPS = 4.0


# The integrator's tolerances; the flow_batch docstring says what each bounds.
_GUARD_TOL = 1e-10
_MIN_PHASE_DURATION = 1e-6
_MAX_PHASE_DURATION = 50.0
_TRANSVERSALITY_TOL = 1e-8
_GUARD_STEP_FRACTION = 0.25
_MAX_STEP_SPLITS = 6


@dataclass(frozen=True)
class IntegratorConfig:
    """The RK4 base step.  The tolerances are module constants, _GUARD_TOL
    to _MAX_STEP_SPLITS (see flow_batch)."""

    base_step: float = 1e-2

    def __post_init__(self):
        if not (np.isfinite(self.base_step) and self.base_step > 0.0):
            raise ValueError("base_step must be finite and positive")


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

    A member has crossed once past the guard or within _GUARD_TOL = 1e-10
    of it.  A crossing before _MIN_PHASE_DURATION = 1e-6 raises Chattering,
    none by _MAX_PHASE_DURATION = 50 NoCrossing, and an exit guard rate of
    at most _TRANSVERSALITY_TOL = 1e-8 NonTransversal.  A step moving the
    guard by more than _GUARD_STEP_FRACTION = 0.25 of its range so far is
    halved, at most _MAX_STEP_SPLITS = 6 times, the last half taken as is.

    Base steps go in guard-bounded runs of up to 32 RK4 steps back to
    back, and of no more than (min g - _GUARD_TOL) / (2 |dg|) steps, where
    |dg| is the largest guard change of the last base step: a run stops
    short of the guard unless the guard's rate more than doubles.  The
    first step, and the step after a split or a crossing, run alone.  One
    finiteness check and one guard call on the stacked (L B, m) states test
    the whole run, each step against the guard-change cap at the run's
    start; caps only grow, so that is a lower bound of every later cap.
    The passing steps are accepted and the test resumes at the first
    failing step under the updated cap.  A step that fails at its exact
    cap splits or crosses as a lone step would, and the rest of the run is
    dropped.  Runs take the same steps as one-at-a-time stepping, so
    trajectories, exits and errors are the same bit for bit.
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
    if np.any(np.abs(h0) <= _GUARD_TOL + _guard_floor(guard, x)):
        raise ValueError("start state lies on the guard; a phase needs an interior start")
    # Guard values are kept signed by the approach side, g = side * H, so a
    # member has crossed once g <= _GUARD_TOL.  Negation is exact, so every
    # test and guard range below equals its unsigned form.
    side = np.where(h0 > 0.0, 1.0, -1.0)
    g_abs0 = np.abs(h0)
    g_val, g_lo, g_hi = g_abs0, g_abs0, g_abs0
    cap = _GUARD_STEP_FRACTION * g_abs0
    t = np.zeros(n_members)
    members = np.arange(n_members)
    f = _batch_field(domain, betas)
    x_out = np.empty_like(x)
    t_out = np.empty(n_members)
    if record is not None:
        record[0].append(0.0)
        record[1].append(x[0].copy())

    t_lead = 0.0  # the largest member time
    rate = None  # the largest guard change of the last step; None after a split or a crossing
    ahead = None  # steps a run took past the last accepted one: states, and guard values while finite
    while members.size:
        if t_lead >= _MAX_PHASE_DURATION:
            raise NoCrossing(f"guard not reached within max phase duration {_MAX_PHASE_DURATION}")
        if _MAX_PHASE_DURATION - t_lead >= cfg.base_step:
            dt = step = cfg.base_step  # one float step while every member takes the base step
            if ahead is None:
                ahead = _run(f, guard, x, step, side, _run_length(rate, g_val, t_lead, cfg))
        else:
            dt = np.minimum(cfg.base_step, _MAX_PHASE_DURATION - t)
            step = dt[:, None]
            ahead = _run(f, guard, x, step, side, 1)
        xs, g = ahead
        dg = np.abs(g - np.concatenate([g_val[None], g[:-1]]))
        passed = ((g > _GUARD_TOL) & (dg <= cap)).all(axis=1)
        n_ok = g.shape[0] if passed.all() else int(np.argmin(passed))

        if n_ok:
            ahead = (xs[n_ok:], g[n_ok:]) if n_ok < xs.shape[0] else None
            rate = float(dg[n_ok - 1].max())
        elif not g.shape[0]:
            _raise_non_finite(xs[0], t)
        else:
            # The first step of the run fails at the exact cap: some member
            # crossed, or changed its guard by more than the cap and splits
            # its step.  The rest of the run is dropped.
            x_next, g_next = xs[0], g[0]
            ahead = rate = None
            step = np.broadcast_to(step, (x.shape[0], 1)).copy()
            pending = ~((g_next <= _GUARD_TOL) | (np.abs(g_next - g_val) <= cap))
            for split in range(_MAX_STEP_SPLITS + 1):
                if not pending.any():
                    break
                step[pending] *= 0.5
                x_try = rk4_step(f, x, step)
                _raise_non_finite(x_try[pending], t[pending])
                g_try = side * guard(x_try)
                took = pending & ((g_try <= _GUARD_TOL) | (np.abs(g_try - g_val) <= cap))
                if split == _MAX_STEP_SPLITS:
                    took = pending  # out of splits: the last half step is taken as it is
                x_next = np.where(took[:, None], x_try, x_next)
                g_next = np.where(took, g_try, g_next)
                pending &= ~took
            dt = step[:, 0]

            crossed = g_next <= _GUARD_TOL
            if crossed.any():
                rows = np.flatnonzero(crossed)
                f_rows = f if rows.size == members.size else _batch_field(domain, betas[members[rows]])
                x_exit, t_exit = _exit_crossing(
                    f_rows, guard, x[rows], t[rows], dt[rows], side[rows],
                    g_val[rows], x_next[rows], g_next[rows],
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
            xs, g, n_ok = x_next[None], g_next[None], 1

        # Accept the first n_ok steps.  Min and max are exact, so folding
        # the guard range once equals folding it step by step.
        x, g_val = xs[n_ok - 1], g[n_ok - 1]
        g_lo = np.minimum(g_lo, g[:n_ok].min(axis=0))
        g_hi = np.maximum(g_hi, g[:n_ok].max(axis=0))
        cap = _GUARD_STEP_FRACTION * np.maximum(g_hi - g_lo, g_abs0)
        # Times add up one step at a time.  Rounding is monotone, so the
        # lead time is the largest member time.
        times = np.add.accumulate(np.vstack([t, np.full((n_ok, t.size), dt)]))[1:]
        t, t_lead = times[-1], float(times[-1].max())
        if record is not None:
            record[0].extend(times[:, 0].tolist())
            record[1].extend(xs[:n_ok, 0].copy())
    return x_out, t_out


def _run_length(rate, g_val, t_lead, cfg) -> int:
    """Base steps in the next run: one while the guard rate is unknown, else
    at most _MAX_RUN and (min g - _GUARD_TOL) / (2 rate), and no further than
    the last step that leaves a whole base step before _MAX_PHASE_DURATION."""
    if rate is None:
        return 1
    room = float(g_val.min()) - _GUARD_TOL
    n = _MAX_RUN if 2.0 * rate * _MAX_RUN <= room else max(1, int(room / (2.0 * rate)))
    for k in range(1, n):
        t_lead += cfg.base_step
        if _MAX_PHASE_DURATION - t_lead < cfg.base_step:
            return k
    return n


def _run(f, guard, x, step, side, n):
    """n RK4 steps from x, and the signed guard values of the steps before
    the first one with a non-finite state."""
    xs = np.empty((n,) + x.shape)
    for k in range(n):
        x = xs[k] = rk4_step(f, x, step)
    finite = np.isfinite(xs).all(axis=(1, 2))
    n_finite = n if finite.all() else int(np.argmin(finite))
    if not n_finite:
        return xs, np.empty((0, x.shape[0]))
    return xs, side * guard(xs[:n_finite].reshape(-1, x.shape[1])).reshape(n_finite, -1)


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


def _guard_floor(guard, x: np.ndarray) -> np.ndarray:
    """The rounding floor of the guard at each row of the stack x.

    That is _FLOOR_ULPS ulps of sum_j |dH/dx_j| max(1, max_j |x_j|), which
    bounds the rounding error of an affine H = n . x - d evaluated at x.
    The gradient, scaled by max(1, max_j |x_j|), is the central difference
    of relative step 1e-7 in each coordinate, for all rows in one guard
    call.
    """
    m = x.shape[1]
    scale = np.maximum(1.0, np.abs(x).max(axis=1))[:, None]
    grad = central_difference(
        lambda s: guard((x + s[:, None] * scale).reshape(-1, m)).reshape(s.shape[0], -1),
        np.zeros(m),
        1e-7,
    )
    return _FLOOR_ULPS * np.finfo(float).eps * np.abs(grad).sum(axis=1)


def _exit_crossing(f, guard, x_from, t_from, step, side, g_from, x_to, g_to):
    """Locate each member's crossing inside its last step, then check it.

    g(tau) = side * H(rk4_step(x_from, tau)) falls from g_from > 0 to g_to
    over the step.  Illinois regula falsi puts the secant root of the bracket
    in place of the end of the same sign, halving the weight of an end kept
    twice in a row, until the bracket is a few ulps of the step wide (at once
    if g_to >= 0 leaves no sign change).  The end with the smaller |H| exits;
    past _GUARD_TOL plus the rounding floor of H at it, the refinement stalled.
    The guard rate at the exit is the central difference of H along the
    field, step 1e-7, for all members in one pair of guard calls.
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
    stalled = ~(h_hit <= _GUARD_TOL)
    if stalled.any():
        stalled &= ~(h_hit <= _GUARD_TOL + _guard_floor(guard, x_hit))
    if stalled.any():
        raise IntegrationError(
            f"guard refinement stalled at |H| = {h_hit[np.argmax(stalled)]:.3e} "
            f"(tolerance {_GUARD_TOL:.3e})"
        )
    t_exit = t_from + ends[best, members]

    early = t_exit < _MIN_PHASE_DURATION
    if early.any():
        raise Chattering(
            f"guard crossed at t = {t_exit[np.argmax(early)]:.3e}, below the minimum duration "
            f"{_MIN_PHASE_DURATION:.3e}"
        )
    field = f(x_hit)
    rate = central_difference(
        lambda s: [guard(x_hit + s_j * field) for s_j in s[:, 0]], np.zeros(1), 1e-7
    )[:, 0]
    flat = np.abs(rate) <= _TRANSVERSALITY_TOL
    if flat.any():
        raise NonTransversal(f"guard rate {rate[np.argmax(flat)]:.3e} at the crossing is below tolerance")
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
    propagate with the phase index attached; a reset or a flow that
    overflows raises NonFinite, not a floating-point warning.
    """
    n = system.n_domains
    prev = system.domain(i - 1)
    dom = system.domain(i)
    entry_chart = system.chart(i - 1)
    exit_chart = system.chart(i)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            x_plus = np.array([prev.reset(entry_chart.embed(y)) for y in np.asarray(x_section, dtype=float)])
            _raise_non_finite(x_plus, np.zeros(x_plus.shape[0]))
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
    runs open loop at beta = 0.  A law whose gain count, gain shapes or
    fixed-point shapes do not fit the system raises ValueError.
    """
    if law is not None:
        _check_law(system, law)
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


def _check_law(system: MultiDomainSystem, law: FeedbackLaw) -> None:
    """Gain i must be (param_dim of phase i, k of the section entering
    phase i), and its reference fixed point a k-vector."""
    if len(law.gains) != system.n_domains:
        raise ValueError(f"law has {len(law.gains)} gains, the system {system.n_domains} phases")
    for i, (dom, gain) in enumerate(zip(system.domains, law.gains)):
        k = system.chart(i - 1).k
        if gain.shape != (dom.param_dim, k):
            raise ValueError(f"gain {i} has shape {gain.shape}, expected ({dom.param_dim}, {k})")
        ref = law.orbit.fixed_points[i - 1]
        if ref.shape != (k,):
            raise ValueError(f"reference point of gain {i} has shape {ref.shape}, expected ({k},)")


def write_trajectory_csv(traj: PhaseTrajectory, path) -> None:
    """Write a phase trajectory as t,x1,...,xm with the exit row last."""
    header = ["t"] + [f"x{j + 1}" for j in range(traj.states.shape[1])]
    rows = [[repr(float(v)) for v in (t, *x)] for t, x in zip(traj.times, traj.states)]
    _dump_csv([header] + rows, path)
