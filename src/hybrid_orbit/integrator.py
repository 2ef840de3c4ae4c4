"""Fixed-step RK4 phase integration with guard-event detection.

A phase flow takes whole base steps until the exit guard first changes
sign, then the crossing is located by regula falsi on the fraction of the
final step, until |H| there is within the rounding floor of evaluating H,
or the bracket is a few ulps of the step wide (Shampine & Thompson, "Event
location for ordinary differential equations", 2000).  Identical inputs
produce bit-identical trajectories: the step sequence is a pure function
of the configuration.

One kernel, flow_batch, integrates a stack of members of one phase in
lockstep on one clock, each with its own start state and frozen parameter
vector; a single flow is its one-member case.  Every member's steps are
tested as one-at-a-time stepping would test them: each step must stay off
the guard, the first that reaches it is the crossing step, and a step
with a state or guard value that is not finite raises NonFinite.

A guard that is an AffineGuard, n . x - d, gives its normal n as dH/dx
(_guard_gradient) to the exit guard rate dH/dx . f, and the |n| it keeps
to the rounding floors of the start check and of the crossing
(_guard_floor), so its flows take no finite difference; any other guard
is differenced centrally.  Its value is not finite wherever the state is
not, so its start states and materialized states are scanned through
their guard values alone (_finite_guard).

A base step has one of two forms.  A field that is an AffineField,
x' = x M' + c, advances by RK4's exact transition, an affine map
x -> x R + s, over horizons of up to _HORIZON steps from an anchor state
(_horizon, _affine_flow): state j of the horizon is x + [x, s] T_j for a
table T of R's powers, the same method and truncation error as the stage
form.  Everything of a flow that depends on the drift, the base step and
the normal alone is made once per (drift, base step, normal) and cached
by value (_transition): the table, its guard projection T_j n, the
quartic table of the crossing search, and the step start times and cap
index of a horizon from t = 0, which every flow's first horizon reads.
A flow computes only what depends on its members.  With an
AffineGuard, the guard along the whole horizon is one row-wise product of
[x, s] with the projection (_screen); only the states a flow keeps, the
two ends of each crossing step and the next anchor, are built.  A
horizon that could overflow, or a guard of another type, builds its
states and calls the guard on them (_block).  Anchors fall on every
_HORIZON-th step from the flow start, so a state is a pure function of
its member's row and its step index.  Every other field steps by the
stage form _rk4, with the bits of the textbook formula, one step at a
time (_step_map) in guard-bounded runs of stacked states, each tested by
one guard call (_run).

A crossing is located inside its step by one of two searches with the
same Illinois rules (_exit_crossing).  For an AffineField with an
AffineGuard, the guard along an RK4 step of length tau is a quartic in
tau, whose coefficients are one product of each member's field row with
the cached quartic table, and each member's root is searched in Python
floats (_search), followed by one stacked rk4_step at the roots.  Every
other flow searches all its crossing members at once with stacked
stage-form trial steps (_stage_search).
"""

import functools
import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import AffineField, AffineGuard, Domain, FeedbackLaw, MultiDomainSystem
from .numerics import NumericsError, central_difference

__all__ = [
    "IntegratorConfig",
    "IntegrationError",
    "NoCrossing",
    "NonTransversal",
    "Chattering",
    "NonFinite",
    "rk4_step",
    "flow_batch",
    "simulate_cycle",
]


class IntegrationError(NumericsError):
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


# Regula falsi, with the midpoint and rounding-floor rules of _search,
# took at most 4 iterations per crossing (3.8-3.9 on average) on Newton
# solves from 1e-3 kicks in 8 directions on each catalog system, at base
# steps 1e-2 and 2e-3.  Over 300 open-loop cycles of unstable-2, whose state
# grows past 1e200, |H| stays above _GUARD_TOL, so brackets narrow to 4 ulps:
# at most 35 iterations.
_REFINE_MAX_ITER = 100

# The most base steps in one guard-bounded run of stage steps.  A
# stable-3 phase-0 flow of 1 or 11 members took 1-2% less time at 64 than
# at 32, at base step 2e-3 and at 1e-2, and 128 gained nothing clear.
_MAX_RUN = 64

# The most transition steps in one affine horizon, the steps that one
# projected product screens.  Every flow of the closed-loop workload takes
# 284-437 steps at base step 2e-3, so 512 holds each in one horizon; in
# process its operations ran at medians of 91, 101, 141 and 131 per second
# with horizons of 128, 256, 512 and 1024 (six interleaved rounds on one
# core), and 1024 doubles the tables' memory.
_HORIZON = 512

# The most (base step, drift, guard normal) entries kept by _transition.
# An entry holds the (2m, 512m) table, the (2m, 512) projection, Q, the
# bound weights, the (m, 4) quartic table, the 513 step start times of the
# first horizon and its key, about 8.2 (m^2 + m) + 4.1 kB for state
# dimension m, so a full cache holds at most 262 (m^2 + m) + 131 kB: 3.3
# MB at m = 3.  A closed-loop run uses one entry per phase.
_TABLE_CACHE_SIZE = 32

# A horizon is screened without building its states only where the bound
# of _transition's weights keeps every state, guard value and screened
# value below this, far from the float limit of about 1.8e308.
_SCREEN_LIMIT = 1e300

# A guard value this many ulps of |grad H| |x| from zero is on the guard
# as far as rounding can tell (see _guard_floor).
_FLOOR_ULPS = 4.0


# The integrator's tolerances; the flow_batch docstring says what each bounds.
_GUARD_TOL = 1e-10
_MIN_PHASE_DURATION = 1e-6
_MAX_PHASE_DURATION = 50.0
_TRANSVERSALITY_TOL = 1e-8


@dataclass(frozen=True)
class IntegratorConfig:
    """The RK4 base step, the length of every step of a phase flow.  The
    tolerances are module constants, _GUARD_TOL to _TRANSVERSALITY_TOL (see
    flow_batch).  A step too small to change 50, below about 3.6e-15, could
    never reach _MAX_PHASE_DURATION."""

    base_step: float = 1e-2

    def __post_init__(self):
        if not (np.isfinite(self.base_step) and self.base_step > 0.0):
            raise ValueError("base_step must be finite and positive")
        if _MAX_PHASE_DURATION + self.base_step == _MAX_PHASE_DURATION:
            raise ValueError(f"base_step {self.base_step:g} is too small to reach {_MAX_PHASE_DURATION:g}")


def rk4_step(f, x: np.ndarray, h: float | np.ndarray) -> np.ndarray:
    """One classical RK4 step.  x may be a (B, m) stack of states, with h a
    shared float or a (B, 1) column of per-member steps.  The result has
    the bits of the textbook formula x + h/6 (k1 + 2 k2 + 2 k3 + k4).  f
    returns float arrays, since the stages are summed in place in their
    dtype; see _rk4.  The crossing refinement steps every field by it."""
    return _rk4(f, x, 0.5 * h, h, h / 6.0)


def _rk4(f, x, hh, h, h6):
    """The RK4 step of rk4_step, given its constants hh = h/2, h and
    h6 = h/6: flow_batch makes them once per flow as 0-d arrays, which
    multiply an array without the scalar conversion of a Python float.
    It is the base step of every flow whose field is not an AffineField
    (see _step_map).

    Only arrays made here are updated in place, the stage inputs and the
    weighted sum; the field's outputs and x are never written, since a
    field may return its input or an array it keeps.  The weights 2 are
    doublings, k + k, and the sum adds k1 + 2 k2 + 2 k3 + k4 in that
    order up to commuting one addition: float addition is commutative and
    doubling is exact, so the step keeps the bits of the textbook formula.
    """
    k1 = f(x)
    t = hh * k1
    t += x
    k2 = f(t)
    t = hh * k2
    t += x
    k3 = f(t)
    t = h * k3
    t += x
    k4 = f(t)
    s = k2 + k2
    s += k1
    s += k3 + k3
    s += k4
    s *= h6
    s += x
    return s


@np.errstate(over="ignore", invalid="ignore")
def flow_batch(
    domain: Domain,
    x0: np.ndarray,
    betas: np.ndarray,
    cfg: IntegratorConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate B members of one phase in lockstep to their guard crossings.

    Row b of the (B, m) stack x0 flows with betas[b] held fixed; a single
    flow is the one-member stack x0[None], betas[None].  Every start state
    must lie strictly off the guard, and the side of the guard at t = 0 is
    the member's approach side.  All members take the same whole base
    steps on one clock.  A sign change, or a guard value already inside
    tolerance, ends a member's flow, and regula falsi locates the crossing
    inside that step, to within the rounding floor of H (see
    _exit_crossing); each member has its own crossing location and its own
    checks.  Crossings earlier than the minimum phase duration, absent
    crossings, non-transversal exits and state blow-up raise distinct typed
    errors; if any member fails, its error is raised and nothing is
    returned.  An overflowing state raises NonFinite, not a floating-point
    warning, and so does a guard value that is NaN or infinite, at the
    start, at the step where it appears, or in the guard rate at an exit.
    The result is the (B, m) exit states and the (B,) exit times.  Stacks
    x0 and betas of other shapes raise ValueError.

    A member has crossed once past the guard or within _GUARD_TOL = 1e-10
    of it.  A crossing before _MIN_PHASE_DURATION = 1e-6 raises Chattering,
    and an exit guard rate of at most _TRANSVERSALITY_TOL = 1e-8
    NonTransversal.  Every step is a whole base step, the last one
    included: once the time reaches _MAX_PHASE_DURATION = 50 with a member
    still uncrossed, NoCrossing is raised, so the last step ends at or past
    50.

    An AffineField advances over horizons of up to _HORIZON = 512
    transition steps from an anchor state (see _affine_flow).  With an
    AffineGuard, one projected product gives every member's guard values
    along the horizon (see _screen), and only the two ends of each
    member's crossing step, and the next anchor, are built.  Where the
    bound of _transition cannot rule out overflow in a member's horizon,
    and for any other guard, the horizon's states are built and the guard
    called on them (see _block); a step with a state or guard value that
    is not finite raises NonFinite there, after the crossings of earlier
    steps.  A horizon may pass the phase-duration cap; a member still
    uncrossed at the first step that starts at or past it raises
    NoCrossing.  Members that cross at the same step are located together,
    steps in order.
    Every other field takes stage steps, the map of _step_map, in
    guard-bounded runs of up to 64 steps back to back, and of no more than
    (min g - _GUARD_TOL) / (2 |dg|) steps, where |dg| is the largest guard
    change of the last base step: a run stops short of the guard unless
    the guard's rate more than doubles.  The first stage step, and the
    step after a crossing, run alone.  One guard call on the run's stacked
    states, and a finiteness check of the states and of the guard values,
    test the whole run.  The steps before the first one that crosses or is
    not finite are accepted; that step opens the next run, where it
    crosses or raises NonFinite as a lone step would.  A crossing drops
    the crossed members' rows and the rest of the run.  So the steps,
    exits and errors are those of one-at-a-time stepping, and each
    member's are those of its solo flow bit for bit.

    dH/dx, which the rounding floor of H and the exit guard rate need, is
    an AffineGuard's normal, and a central difference of any other guard
    (see _guard_gradient).  An AffineGuard's start check, runs and built
    horizons check the finiteness of its guard values alone, which are
    not finite wherever a state is not, and the start states only once a
    start value is not finite; the error raised, its text and the step it
    is raised at are the same.
    """
    x = np.array(x0, dtype=float)
    betas = np.asarray(betas, dtype=float)
    if betas.ndim != 2 or betas.shape[1] != domain.param_dim:
        raise ValueError(f"parameter stack has shape {betas.shape}, expected (B, {domain.param_dim})")
    n_members = betas.shape[0]
    if x.shape != (n_members, domain.state_dim):
        raise ValueError(f"start stack has shape {x.shape}, expected ({n_members}, {domain.state_dim})")
    guard = domain.guard
    h0 = guard(x)
    # An AffineGuard's value is not finite wherever the state is not (see
    # _finite_guard), so its states are scanned only when a value is not.
    if not (isinstance(guard, AffineGuard) and np.isfinite(h0).all()):
        _raise_non_finite(x, 0.0, h0)
    g_val = np.abs(h0)
    if (g_val <= _GUARD_TOL + _guard_floor(guard, x)).any():
        raise ValueError("start state lies on the guard; a phase needs an interior start")
    # Guard values are kept signed by the approach side, g = side * H, so a
    # member has crossed once g <= _GUARD_TOL.  Negation is exact, so every
    # test below equals its unsigned form.
    side = np.where(h0 > 0.0, 1.0, -1.0)
    dt = cfg.base_step
    f = _batch_field(domain, betas)
    if isinstance(f, AffineField):
        return _affine_flow(domain, betas, f, x, side, g_val, dt)
    consts = np.array(0.5 * dt), np.array(dt), np.array(dt / 6.0)
    t = 0.0
    members = np.arange(n_members)
    step = _step_map(f, consts)
    x_out = np.empty_like(x)
    t_out = np.empty(n_members)

    rate = None  # the largest guard change of the last stage step; None after a crossing
    while members.size:
        if t >= _MAX_PHASE_DURATION:
            raise NoCrossing(f"guard not reached within max phase duration {_MAX_PHASE_DURATION}")
        xs, g = _run(step, guard, x, side, _run_length(rate, g_val, t, dt))
        passed = (g > _GUARD_TOL).all(axis=1)
        n_ok = _leading(passed)

        if n_ok:
            rate = float(np.abs(g[n_ok - 1] - (g[n_ok - 2] if n_ok > 1 else g_val)).max())
        elif not g.shape[0]:
            # The run's first step has a non-finite state or guard value.
            _raise_non_finite(xs[0], t, np.nan)
        else:
            # The first step of the run crosses for some members: locate
            # their exits.  The others take the step, and the rest of the
            # run is dropped.
            crossed = g[0] <= _GUARD_TOL
            rows = np.flatnonzero(crossed)
            f_rows = f if rows.size == members.size else _batch_field(domain, betas[members[rows]])
            x_exit, t_exit = _exit_crossing(
                f_rows, guard, x[rows], t, dt, side[rows], g_val[rows], xs[0, rows], g[0, rows]
            )
            x_out[members[rows]] = x_exit
            t_out[members[rows]] = t_exit
            keep = ~crossed
            members = members[keep]
            if not members.size:
                break
            xs, g, side = xs[:1, keep], g[:1, keep], side[keep]
            f = _batch_field(domain, betas[members])
            step = _step_map(f, consts)
            rate, n_ok = None, 1

        # Accept the first n_ok steps.  The clock adds them one at a time, as
        # one-at-a-time stepping does, so exit times match it bit for bit.
        x, g_val = xs[n_ok - 1], g[n_ok - 1]
        for _ in range(n_ok):
            t += dt
    return x_out, t_out


def _affine_flow(domain, betas, f, x, side, g_val, dt):
    """flow_batch for the AffineField f of the stack betas, from the (B, m)
    start states x with their approach sides and signed guard values.

    Each pass takes one horizon of L steps from the anchors x: the rows
    y = [x, s], the start time of each step, summed one step at a time as
    one-at-a-time stepping sums it (_clock, read from the cache for the
    first horizon), and the (B, L) signed guard values, screened (_screen)
    for the members whose bound |y| . w + |d| (see _transition) is at most
    _SCREEN_LIMIT and read from the built states (_block) for the others,
    up to the first step at which one of theirs is not finite.  Steps are
    then taken in order.  The members that first reach g <= _GUARD_TOL at
    a step are located together by _exit_crossing from the step's two
    ends, with the cached quartic table.  A member still uncrossed at the
    first step that starts at or past the cap raises NoCrossing.  The
    first value that is not finite raises NonFinite, unless a built member
    that has crossed cut the scan short; then the others take the horizon
    again.  The rest go on from the horizon's last state.  Kept states are
    built by row-wise products with the table columns they need, so a
    member's states, guard values and errors do not depend on its
    stack-mates.
    """
    guard = domain.guard
    tr, s = _horizon(f, guard, dt)
    table, proj, weight, quartic = tr.table, tr.proj, tr.weight, tr.quartic
    clock, cap = tr.clock, tr.cap
    n_members, m = x.shape
    n_steps = table.shape[1] // m
    room = _SCREEN_LIMIT - abs(guard.offset) if proj is not None else None
    members = np.arange(n_members)
    x_out = np.empty_like(x)
    t_out = np.empty(n_members)
    while True:
        y = np.concatenate([x, s], axis=1)
        if proj is None:
            g, built = np.empty((len(x), n_steps)), np.ones(len(x), dtype=bool)
        else:
            g, built = _screen(proj, side, g_val, y), ~((np.abs(y) * weight).sum(axis=1) <= room)
        n_finite = n_steps
        if built.any():
            xs, g_built = _block(table, s[built], guard, side[built], x[built])
            n_finite = g_built.shape[1]
            g[built, :n_finite] = g_built  # a crossing found past n_finite is past stop
        crossed = g <= _GUARD_TOL
        first = np.where(crossed.any(axis=1), crossed.argmax(axis=1), n_steps)
        stop = min(cap, n_finite)
        for j in sorted(set(first[first < stop].tolist())):
            rows = np.flatnonzero(first == j)
            lo = max(j - 1, 0)
            ends = np.matmul(y[rows, None, :], table[:, lo * m : (j + 1) * m]).reshape(len(rows), -1, m)
            ends += x[rows, None, :]
            x_from, g_from = (ends[:, 0], g[rows, j - 1]) if j else (x[rows], g_val[rows])
            f_rows = f if rows.size == len(x) else _batch_field(domain, betas[members[rows]])
            x_exit, t_exit = _exit_crossing(
                f_rows, guard, x_from, float(clock[j]), dt, side[rows], g_from, ends[:, -1], g[rows, j], quartic
            )
            x_out[members[rows]] = x_exit
            t_out[members[rows]] = t_exit
        keep = first >= stop
        if not keep.any():
            return x_out, t_out
        if stop == cap:
            raise NoCrossing(f"guard not reached within max phase duration {_MAX_PHASE_DURATION}")
        if stop < n_steps and keep[built].all():
            _raise_non_finite(xs[:, stop], float(clock[stop]), np.nan)
        if not keep.all():
            members, x, y, s, side, g_val = members[keep], x[keep], y[keep], s[keep], side[keep], g_val[keep]
            f = _batch_field(domain, betas[members])
        if stop == n_steps:
            # The members past the horizon go on from its last state.
            x = x + np.matmul(y[:, None, :], table[:, -m:])[:, 0]
            g_val = side * guard(x)
            clock, cap = _clock(float(clock[n_steps]), dt, n_steps)
        # Short of the horizon's end, a built member that has crossed cut
        # the scan short, and the others take the horizon again.


def _run_length(rate, g_val, t, step) -> int:
    """Stage steps in the next run: one while the guard rate is unknown, else
    at most _MAX_RUN and (min g - _GUARD_TOL) / (2 rate), and no more than
    the ceil((_MAX_PHASE_DURATION - t) / step) that reach the cap."""
    if rate is None:
        return 1
    room = float(g_val.min()) - _GUARD_TOL
    n = _MAX_RUN if 2.0 * rate * _MAX_RUN <= room else max(1, int(room / (2.0 * rate)))
    return min(n, math.ceil((_MAX_PHASE_DURATION - t) / step))


def _run(step, guard, x, side, n):
    """n stage steps from x, each the map step of _step_map, stacked
    step-major as (n, B, m), and the (n', B) signed guard values of the
    steps before the first one with a non-finite state or guard value.
    For an AffineGuard only the guard values are scanned (see
    _finite_guard)."""
    xs = np.empty((n,) + x.shape)
    for k in range(n):
        x = xs[k] = step(x)
    return xs, _finite_guard(guard, side, xs, 0)


def _step_map(f, consts):
    """The map x -> one RK4 step of the field f from the (B, m) stack x,
    given the step constants consts = (h/2, h, h/6) of flow_batch: the
    stage form _rk4.  With _run it is the stage path's seam; flow_batch
    advances an AffineField by _affine_flow instead."""
    return lambda x: _rk4(f, x, *consts)


def _horizon(f: AffineField, guard, h: float):
    """The cached _Transition of the AffineField f at base step h under
    guard, its guard fields None unless guard is an AffineGuard, and the
    (B, m) step offsets s = h (c + c Q) for the control rows c of f.  The
    cached part is made once per drift, base step and normal and shared,
    read-only, by every flow that has them; the offsets are made per call."""
    normal = guard.normal.tobytes() if isinstance(guard, AffineGuard) else None
    tr = _transition(float(h), f.drift.shape, f.drift.tobytes(), normal)
    return tr, h * (f.control + f.control.dot(tr.q))


class _Transition(NamedTuple):
    """The entry of _transition: everything of an affine flow that depends
    on its base step, drift and guard normal alone (see _transition)."""

    table: np.ndarray
    q: np.ndarray
    clock: np.ndarray
    cap: int
    proj: np.ndarray | None
    weight: np.ndarray | None
    quartic: np.ndarray | None


@functools.lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _transition(h: float, shape: tuple, drift: bytes, normal: bytes | None) -> _Transition:
    """The read-only transition table at base step h of the drift matrix M
    whose float64 values, in C order, are the bytes drift, the matrix Q
    below, the clock and cap index of a horizon that starts at t = 0, and
    for the guard normal n whose bytes are normal, the table's guard
    projection, bound weights and quartic table (None if normal is None).
    The cache is keyed by value, so a drift mutated in place, or a new
    array of the same values, never meets a stale entry.

    With Z = h M' and Q = Z/2 + Z^2/6 + Z^3/24, one RK4 step of
    x' = x M' + c is exactly x -> x + (x inc + s), with inc = Z + Z Q and
    s = h (c + c Q): RK4's stability polynomial I + Z + ... + Z^4/24, the
    same method and truncation error as the stage form (Hairer, Norsett &
    Wanner, Solving ODEs I, sec. II.1).  With R = I + inc, the state j steps
    after x is x + (x D_j + s G_j), where D_j = R^j - I and
    G_j = I + R + ... + R^(j-1).  The table is the (2m, L m) matrix
    [T_1 ... T_L] of the (2m, m) blocks T_j = [[D_j], [G_j]], made by
    doubling, D_(i+j) = D_i + (D_j + D_i D_j) and
    G_(i+j) = G_i + (G_j + D_i G_j), so that no identity is rounded into
    the D_j.  The small terms of Q are summed first.  L is _HORIZON, or
    the index of the first D_j or G_j that is not finite, but at least 1:
    a state x with a zero component along an overflowing power stays
    finite in the stage form, and 0 * inf is NaN.  The clock and cap are
    those of _clock from t = 0.

    The projection is the (2m, L) matrix P of the columns P_j = T_j n, so
    that H = n . x - d at the state j steps after x is H(x) + [x, s] . P_j.
    The (2m,) bound weights are w = max(1, |n|_1) (r_T + e) + r_P, where
    r_A holds the largest |entry| of each row of A, and e is 1 on the m
    rows of x and 0 on those of s: for the row y = [x, s], every entry of
    every state of the horizon, every |H| there and every
    |H(x) + y . P_j| is at most |y| . w + |d|, up to rounding.  The
    quartic table is the (m, 4) matrix [n, M'n, M'^2 n, M'^3 n] / [1, 2,
    6, 24] of _quartic_coefficients.
    """
    m_mat = np.frombuffer(drift).reshape(shape)
    z = h * m_mat.T
    z2 = z.dot(z)
    q = z2.dot(z) / 24.0 + z2 / 6.0 + 0.5 * z
    d, g = (z + z.dot(q))[None], np.eye(len(z))[None]
    while len(d) < _HORIZON:
        last = d[-1]
        d, g = np.concatenate([d, last + (d + last @ d)]), np.concatenate([g, g[-1] + (g + last @ g)])
    finite = (np.isfinite(d).all(axis=(1, 2)) & np.isfinite(g).all(axis=(1, 2)))[:_HORIZON]
    n = max(1, _leading(finite))
    blocks = np.concatenate([d[:n], g[:n]], axis=1).transpose(1, 0, 2)  # (2m, L, m)
    table = blocks.reshape(2 * len(z), -1)
    clock, cap = _clock(0.0, h, n)
    proj = weight = quartic = None
    if normal is not None:
        n_vec = np.frombuffer(normal)
        proj = blocks.dot(n_vec)
        ones = np.repeat([1.0, 0.0], len(z))
        weight = max(1.0, np.abs(n_vec).sum()) * (np.abs(table).max(axis=1) + ones) + np.abs(proj).max(axis=1)
        powers = [n_vec]
        for _ in range(3):
            powers.append(powers[-1].dot(m_mat))
        quartic = np.column_stack(powers) / [1.0, 2.0, 6.0, 24.0]
        proj.flags.writeable = weight.flags.writeable = quartic.flags.writeable = False
    table.flags.writeable = q.flags.writeable = clock.flags.writeable = False
    return _Transition(table, q, clock, cap, proj, weight, quartic)


def _clock(t: float, h: float, n_steps: int) -> tuple[np.ndarray, int]:
    """The start times of steps 0 to n_steps of a horizon that starts at t,
    one cumsum of (t, h, ..., h), which adds the steps in order as
    one-at-a-time stepping does, and the cap index: the first step that
    starts at or past _MAX_PHASE_DURATION, n_steps + 1 if none does."""
    clock = np.full(n_steps + 1, h)
    clock[0] = t
    clock = clock.cumsum()
    return clock, int(np.searchsorted(clock, _MAX_PHASE_DURATION))


def _screen(proj, side, g_val, y):
    """The (B, L) signed guard values g = side * H along the horizon from
    the anchors with rows y = [x, s] and signed guard values g_val, for
    the projection of _transition, without building a state:
    g_j = g_val + side * (y . P_j).

    This differs from side * H(x + y T_j), the guard at the built state,
    in rounding alone: by at most (5m + 3) eps (|n| . (|x| + |y| |T_j|) +
    |d|) to first order, with |.| taken entrywise.  The product is the
    row-wise np.matmul, as in _block, so a member's values do not depend
    on its stack-mates.
    """
    g = np.matmul(y[:, None, :], proj)[:, 0]
    g *= side[:, None]
    g += g_val[:, None]
    return g


def _block(table, s, guard, side, x):
    """The (B, L, m) states of the L transition steps from the (B, m)
    anchor states x, for the table and step offsets s of _horizon, and
    their (B, n) signed guard values up to the first step at which some
    member's state or guard value is not finite.  For an AffineGuard only
    the guard values are scanned (see _finite_guard).  _affine_flow builds
    a horizon this way where the bound of _transition cannot rule out
    overflow, or for a guard that is not an AffineGuard.

    The states are one batched product of each row [x_b, s_b] with the
    table.  np.matmul takes the same product for every row whatever B is;
    y.dot(table) takes another for one row than for a stack, so members
    would lose the bits of their solo flows.  The block stays member-major:
    the guard takes it as (B L, m) rows without a copy.
    """
    n_members, m = x.shape
    xs = np.matmul(np.concatenate([x, s], axis=1)[:, None, :], table).reshape(n_members, -1, m)
    xs += x[:, None, :]
    return xs, _finite_guard(guard, side, xs, 1)


def _finite_guard(guard, side, xs, axis):
    """The signed guard values side * H of the states xs, whose steps lie
    along axis 0 of a (n, B, m) run or axis 1 of a (B, n, m) block, up to
    the first step at which some member's state or guard value is not
    finite, with the steps along the same axis.

    The states are scanned for finiteness first, and the guard takes only
    the steps before the first non-finite one.  An AffineGuard skips that
    scan: its value at a state with an entry that is not finite is not
    finite (inf times any entry of the normal, 0 included, and NaN
    propagate), so the scan of its values finds the same step.
    """
    members = 1 - axis
    if isinstance(guard, AffineGuard):
        n = xs.shape[axis]
    else:
        n = _leading(np.isfinite(xs).all(axis=(members, 2)))
    head = xs[:n] if axis == 0 else xs[:, :n]
    if not n:
        return np.empty(head.shape[:2])
    g = (side[:, None] if axis else side) * guard(head.reshape(-1, xs.shape[2])).reshape(head.shape[:2])
    n = _leading(np.isfinite(g).all(axis=members))
    return g[:n] if axis == 0 else g[:, :n]


def _leading(mask: np.ndarray) -> int:
    """The number of True entries of the 1-D mask before its first False."""
    return mask.size if mask.all() else int(np.argmin(mask))


def _batch_field(domain: Domain, betas: np.ndarray):
    """The closed phase field for a parameter stack, lifted row by row if
    the domain has no batch_field.  The lifted rows are cast to float, as
    _rk4 sums the stages in place in their dtype."""
    if domain.batch_field is not None:
        return domain.batch_field(betas)
    fields = [domain.vector_field(beta) for beta in betas]
    return lambda x: np.array([f(row) for f, row in zip(fields, x)], dtype=float)


def _raise_non_finite(x: np.ndarray, t: float, g) -> None:
    """Raise NonFinite if a member's state at time t, or else its guard
    value g, is not finite."""
    if not np.isfinite(x).all():
        raise NonFinite(f"state became non-finite near t = {t:.6g}")
    if not np.isfinite(g).all():
        raise NonFinite(f"guard value became non-finite near t = {t:.6g}")


def _guard_gradient(guard, x: np.ndarray) -> np.ndarray:
    """dH/dx at each row of the (B, m) stack x: an AffineGuard's (m,)
    normal, which broadcasts over the rows, and for any other guard the
    central difference of relative step 1e-7 at the rows."""
    if isinstance(guard, AffineGuard):
        return guard.normal
    return central_difference(guard, x, 1e-7)[:, 0]


def _guard_floor(guard, x: np.ndarray) -> np.ndarray:
    """The rounding floor of the guard at each row of the stack x.

    That is _FLOOR_ULPS ulps of sum_j |dH/dx_j| max(1, |x_j|), which
    bounds the rounding error of an affine H = n . x - d evaluated at x:
    an entry weighs by its own size, so a large entry that H does not see
    leaves the floor alone.  |dH/dx| is an AffineGuard's |n|, kept by the
    guard, with no guard call, and for any other guard the |central
    difference| (see _guard_gradient).
    """
    size = guard._abs_normal if isinstance(guard, AffineGuard) else np.abs(_guard_gradient(guard, x))
    return _FLOOR_ULPS * 2.0**-52 * (size * np.maximum(1.0, np.abs(x))).sum(axis=1)


def _quartic_coefficients(f: AffineField, quartic: np.ndarray, x: np.ndarray, side, g_x) -> list:
    """The coefficients c, as a list of B 5-lists of floats, of each
    member's quartic: g(tau) = side * H(rk4_step(f, x, tau)) =
    sum_j c_j tau^j for the AffineField f, x' = x M' + c, and an
    AffineGuard n . x - d, given g(0) = g_x, and the quartic table
    [n, M'n, M'^2 n, M'^3 n] / [1, 2, 6, 24] of _transition.

    One RK4 step of an affine field is its degree-4 Taylor polynomial
    (Hairer, Norsett & Wanner, Solving ODEs I, sec. II.1), and the j-th
    derivative of the state is f(x) M'^(j-1), so c_j = side f(x) .
    (M'^(j-1) n) / j! for j >= 1.  The products with f(x) are one row-wise
    np.matmul, as in _block, so a member's coefficients do not depend on
    its stack-mates.
    """
    rates = side[:, None] * np.matmul(f(x)[:, None, :], quartic)[:, 0]
    return [[g, *r] for g, r in zip(g_x.tolist(), rates.tolist())]


def _quartic(c, tau):
    """sum_j c[j] tau^j by Horner's rule, for floats or for arrays."""
    return c[0] + tau * (c[1] + tau * (c[2] + tau * (c[3] + tau * c[4])))


def _search(c, g_hi, step, stop) -> float:
    """The exit fraction tau of one member's crossing in a base step, by
    Illinois regula falsi on its quartic g of coefficients c in Python
    floats, with no state and no numpy call.

    The bracket is [0, step], with g(0) = c[0] > 0 at the lo end and the
    run's guard value g_hi at the hi end.  Each iteration puts the secant
    root of the bracket in place of the end of the same sign, halving the
    weight of an end kept twice in a row.  A secant root that rounds onto
    an end of the bracket, as when one end's |g| dwarfs the other's, is
    replaced by the midpoint.  The search stops once the end with the
    smaller |g| lies within stop, the smaller of _GUARD_TOL and the
    member's rounding floor of H, once the bracket is 4 ulps of the step
    wide (at once if g_hi >= 0 leaves no sign change), or after
    _REFINE_MAX_ITER iterations.  It returns that end's tau, ties and NaN
    at lo going to hi.  _stage_search keeps the same rules in the same
    float operations, so on the same g both give the same tau.
    """
    width = 2.0**-50 * step  # 4 eps, as a Python float
    lo, hi = 0.0, step
    w_lo, w_hi = c[0], g_hi  # g, halved by the Illinois rule
    a_lo, a_hi = abs(w_lo), abs(w_hi)  # |g|, never halved
    last = 0  # the end replaced last: -1 lo, 1 hi
    active = w_hi < 0.0
    for _ in range(_REFINE_MAX_ITER):
        if not active or (a_lo if a_lo < a_hi else a_hi) <= stop:
            break
        tau = lo + (hi - lo) * (w_lo / (w_lo - w_hi))
        if tau < lo:
            tau = lo
        elif tau > hi:
            tau = hi
        if tau == lo or tau == hi:
            tau = 0.5 * (lo + hi)
        g = _quartic(c, tau)
        if g <= 0.0:
            if last == 1:
                w_lo *= 0.5
            hi, w_hi, a_hi, last = tau, g, abs(g), 1
        else:
            if last == -1:
                w_hi *= 0.5
            lo, w_lo, a_lo, last = tau, g, abs(g), -1
        active = w_hi < 0.0 and hi - lo > width
    return lo if a_lo < a_hi else hi


def _stage_search(trial, step, g_from, g_to, x_from, x_to, floor_at):
    """The exit states, exit fractions tau and |g| of a stack of crossings,
    and the rounding floor of H, or None if it was not taken, by the rules
    of _search with every member at once.

    trial(tau) gives the (B, m) states and the (B,) signed guard values at
    the (B,) fractions tau; the bracket ends start at x_from, g_from and
    x_to, g_to.  Every member takes every trial, so the brackets are
    updated under masks over the whole stack, each end's tau, weight, |g|
    and state in an array of its own, updated in place.  A member stops
    once its best end is within the smaller of _GUARD_TOL and its floor,
    as in _search.  The floor, floor_at(), is taken once some active
    member's best end is within _GUARD_TOL, before which no member can
    stop, so each member stops where it would alone.
    """
    width = 4.0 * np.finfo(float).eps * step
    tau_lo, tau_hi = np.zeros(len(x_from)), np.full(len(x_from), step, dtype=float)
    w_lo, w_hi = np.array(g_from, dtype=float), np.array(g_to, dtype=float)  # g, halved by the Illinois rule
    a_lo, a_hi = np.abs(w_lo), np.abs(w_hi)  # |g|, never halved
    x_lo, x_hi = np.array(x_from, dtype=float), np.array(x_to, dtype=float)
    last_lo = last_hi = np.zeros(len(x_from), dtype=bool)  # the end each member replaced last
    active = w_hi < 0.0
    floor = None
    for n_iter in range(_REFINE_MAX_ITER + 1):
        best_hi = ~(a_lo < a_hi)  # ties and NaN at lo go to hi
        h_hit = np.where(best_hi, a_hi, a_lo)
        if floor is None and (active & (h_hit <= _GUARD_TOL)).any():
            floor = floor_at()
        if floor is not None:
            active &= ~(h_hit <= np.minimum(_GUARD_TOL, floor))
        if n_iter == _REFINE_MAX_ITER or not active.any():
            break
        tau = np.clip(tau_lo + (tau_hi - tau_lo) * (w_lo / (w_lo - w_hi)), tau_lo, tau_hi)
        tau = np.where((tau == tau_lo) | (tau == tau_hi), 0.5 * (tau_lo + tau_hi), tau)
        x_tau, g_tau = trial(tau)
        a_tau, to_hi = np.abs(g_tau), g_tau <= 0.0
        move_lo, move_hi = active & ~to_hi, active & to_hi
        np.multiply(w_lo, 0.5, out=w_lo, where=move_hi & last_hi)
        np.multiply(w_hi, 0.5, out=w_hi, where=move_lo & last_lo)
        for moved, tau_end, w_end, a_end, x_end in (
            (move_lo, tau_lo, w_lo, a_lo, x_lo),
            (move_hi, tau_hi, w_hi, a_hi, x_hi),
        ):
            np.copyto(tau_end, tau, where=moved)
            np.copyto(w_end, g_tau, where=moved)
            np.copyto(a_end, a_tau, where=moved)
            np.copyto(x_end, x_tau, where=moved[:, None])
        last_lo, last_hi = move_lo, move_hi
        active &= (w_hi < 0.0) & (tau_hi - tau_lo > width)
    return np.where(best_hi[:, None], x_hi, x_lo), np.where(best_hi, tau_hi, tau_lo), h_hit, floor


def _exit_crossing(f, guard, x_from, t_from, step, side, g_from, x_to, g_to, quartic=None):
    """Locate each member's crossing inside the base step from time t_from,
    then check it.

    g(tau) = side * H(rk4_step(f, x_from, tau)) falls from g_from > 0 to g_to
    over the step; the hi end at tau = step is the flow's x_to, which for
    an AffineField is the state built from the horizon table and differs
    from rk4_step(f, x_from, step) in rounding alone, as a screened g_to
    differs from side * H(x_to).  The bracket search splits on quartic,
    the cached quartic table of _transition, which _affine_flow passes for
    an AffineField with an AffineGuard:
    - with it, g is the quartic of _quartic_coefficients, and each member
      runs _search on its own quartic in Python floats, with no trial
      step.  One stacked rk4_step then gives the states at the chosen
      tau, and the built state x_to stands where the untouched hi end
      wins; one guard call gives their |H|.
    - without it: _stage_search, with a stacked rk4_step and guard call
      per iteration as its trial.
    The rounding floor of H is taken at x_to, by one _guard_floor call.
    The checks are shared, and each is one reduction when every member
    passes it; only a failing check looks for the member to name.  Past
    _GUARD_TOL plus the floor, |H| at the exit means the refinement
    stalled.  The guard rate at the exit is dH/dx . f(x_hit), with dH/dx
    from _guard_gradient; a rate that is NaN or infinite raises NonFinite
    at the exit time.  So a flow with an AffineGuard takes no finite
    difference.
    """
    if quartic is not None:
        floor = _guard_floor(guard, x_to)
        coef = _quartic_coefficients(f, quartic, x_from, side, g_from)
        stops = np.minimum(_GUARD_TOL, floor).tolist()
        tau = np.array([_search(c, g, step, stop) for c, g, stop in zip(coef, g_to.tolist(), stops)])
        x_hit = rk4_step(f, x_from, tau[:, None])
        np.copyto(x_hit, x_to, where=(tau == step)[:, None])
        h_hit = np.abs(guard(x_hit))
    else:
        def trial(tau):
            x_tau = rk4_step(f, x_from, tau[:, None])
            return x_tau, side * guard(x_tau)

        x_hit, tau, h_hit, floor = _stage_search(
            trial, step, g_from, g_to, x_from, x_to, lambda: _guard_floor(guard, x_to)
        )
    if not (h_hit <= _GUARD_TOL).all():
        if floor is None:
            floor = _guard_floor(guard, x_to)
        stalled = ~(h_hit <= _GUARD_TOL) & ~(h_hit <= _GUARD_TOL + floor)
        if stalled.any():
            raise IntegrationError(
                f"guard refinement stalled at |H| = {h_hit[np.argmax(stalled)]:.3e} "
                f"(tolerance {_GUARD_TOL:.3e})"
            )
    t_exit = t_from + tau
    if t_exit.min() < _MIN_PHASE_DURATION:
        raise Chattering(
            f"guard crossed at t = {t_exit[np.argmax(t_exit < _MIN_PHASE_DURATION)]:.3e}, below the minimum "
            f"duration {_MIN_PHASE_DURATION:.3e}"
        )
    rate = (_guard_gradient(guard, x_hit) * f(x_hit)).sum(axis=1)
    speed = np.abs(rate)
    if not (speed.max() < np.inf and speed.min() > _TRANSVERSALITY_TOL):
        bad = ~np.isfinite(rate)
        if bad.any():
            _raise_non_finite(x_hit, t_exit[np.argmax(bad)], rate)
        flat = speed <= _TRANSVERSALITY_TOL
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
    entering phase i and betas the (B, p) parameters held in phase i.  The
    entry chart's embed, the reset of domain i - 1 and the exit chart's
    project each map the whole stack in one call.  Returns the (B, k')
    reduced coordinates on the exit section of domain i and the (B,)
    realized phase durations.  Integration errors propagate with the phase
    index attached; a reset or a flow that overflows raises NonFinite, not
    a floating-point warning.  A reset or a projection whose result is not
    a (B, m) or (B, k') stack raises ValueError, as one written for a
    single state does unless B equals the length of the rows it indexes.
    """
    n = system.n_domains
    prev = system.domain(i - 1)
    dom = system.domain(i)
    entry_chart = system.chart(i - 1)
    exit_chart = system.chart(i)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            x_plus = prev.reset(entry_chart.embed(np.asarray(x_section, dtype=float)))
        x_exit, t_exit = flow_batch(dom, x_plus, betas, cfg)
    except IntegrationError as exc:
        exc.phase = i % n
        exc.args = (f"phase {i % n}: {exc.args[0]}",) + exc.args[1:]
        raise
    y_exit = exit_chart.project(x_exit)
    if np.shape(y_exit) != (len(x_exit), exit_chart.k):
        raise ValueError(
            f"exit chart of domain {i % n} projected to shape {np.shape(y_exit)}, "
            f"expected ({len(x_exit)}, {exit_chart.k})"
        )
    return y_exit, t_exit


def simulate_cycle(
    system: MultiDomainSystem,
    law: FeedbackLaw | None,
    x_start: np.ndarray,
    n_cycles: int,
    cfg: IntegratorConfig,
) -> list[np.ndarray]:
    """Run whole cycles from points on the section entering phase 0.

    x_start is one (k,) point or a (B, k) stack of them, with k the
    dimension of that section.  Records the reduced section states after
    each full cycle, each with the shape of x_start.  Every phase runs
    the whole stack in one section_step, so row b of a stacked run has
    the bits of the run from x_start[b] alone, and one failing member
    raises for the stack.  With a law, each phase's parameter rows are
    computed once from the section states at phase entry (before the
    reset), in one law.beta call, and held for the phase; without one the
    system runs open loop at beta = 0.  A start of another shape, a
    negative or non-integer n_cycles, and a law whose gain count, gain
    shapes or fixed-point shapes do not fit the system raise ValueError.
    """
    if law is not None:
        _check_law(system, law)
    if not isinstance(n_cycles, numbers.Integral) or n_cycles < 0:
        raise ValueError(f"n_cycles must be a nonnegative integer, got {n_cycles!r}")
    k = system.chart(-1).k
    x_start = np.asarray(x_start, dtype=float)
    if x_start.ndim not in (1, 2) or x_start.shape[-1] != k:
        raise ValueError(f"start has shape {x_start.shape}, expected ({k},) or (B, {k})")
    Y = x_start.reshape(-1, k)
    out = []
    for _ in range(n_cycles):
        for i in range(system.n_domains):
            if law is not None:
                betas = law.beta(i, Y)
            else:
                betas = np.zeros((len(Y), system.domain(i).param_dim))
            Y, _ = section_step(system, i, Y, betas, cfg)
        out.append(Y.reshape(x_start.shape))
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

