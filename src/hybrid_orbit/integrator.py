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
vector; a single flow is its one-member case.  It tests its steps in
runs: several base steps at once, then one guard call on all the run's
states stacked and a finiteness check of the states and the guard values.
Each step is tested as one-at-a-time stepping would test it, so a run
accepts the steps before the first that crosses or is not finite.

A guard that is an AffineGuard, n . x - d, gives its normal n as dH/dx
(_guard_gradient) to the rounding floors of the start check and of the
crossing and to the exit guard rate dH/dx . f, so its flows take no
finite difference; any other guard is differenced centrally.  Its value
is not finite wherever the state is not, so its runs scan only the guard
values for finiteness (_finite_guard).

A base step has one of two forms.  A field that is an AffineField,
x' = x M' + c, advances by RK4's exact transition, an affine map
x -> x R + s, in blocks (_block_table, _block): the _MAX_RUN states after
an anchor state come from one product with a table of R's powers, the
same method and truncation error as the stage form.  The table depends
on the drift and the base step alone, so it is made once per (drift,
base step) and cached by value (_transition).
Anchors fall on every _MAX_RUN-th step from the flow start, so a state is
a pure function of its member's row and its step index.  Every other
field steps by the stage form _rk4, with the bits of the textbook
formula, one step at a time (_step_map) in guard-bounded runs (_run).
The crossing refinement takes the stage form, rk4_step, for every field.
"""

import functools
import math
import numbers
from dataclasses import dataclass

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


# Regula falsi, with the midpoint and rounding-floor rules of _exit_crossing,
# took at most 4 iterations per crossing (3.8-3.9 on average) on Newton
# solves from 1e-3 kicks in 8 directions on each catalog system, at base
# steps 1e-2 and 2e-3.  Over 300 open-loop cycles of unstable-2, whose state
# grows past 1e200, |H| stays above _GUARD_TOL, so brackets narrow to 4 ulps:
# at most 35 iterations.
_REFINE_MAX_ITER = 100

# The length of an affine block, and the most base steps in one
# guard-bounded run of stage steps.  On the closed-loop benchmark, blocks of
# 128 or 256 steps ran 4-6% more operations per second than 64 (two
# alternating ten-second runs each), about the spread of such runs, and the
# part of a block past the crossing costs its states and guard values.
# With stage steps, a stable-3 phase-0 flow of 1 or 11 members took 1-2%
# less time at 64 than at 32, at base step 2e-3 and at 1e-2, and 128 gained
# nothing clear.
_MAX_RUN = 64

# The most (base step, drift) transition tables kept by _transition.  An
# entry holds the (2m, 64m) table, Q and the drift's bytes, 1040 m^2 bytes
# for state dimension m, so a full cache holds at most 33 m^2 kB: 0.3 MB at
# m = 3.  A closed-loop run uses one table per phase.
_TABLE_CACHE_SIZE = 32

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

    An AffineField advances in blocks of _MAX_RUN = 64 transition steps
    (see _block), and a run is the rest of the current block.  It may pass
    the phase-duration cap: a run accepts no crossing, since the crossing
    step opens the next run, and the cap is checked before each run.
    Every other field takes stage steps, the map of _step_map, in
    guard-bounded runs of up to 64 steps back to back, and of no more than
    (min g - _GUARD_TOL) / (2 |dg|) steps, where |dg| is the largest guard
    change of the last base step: a run stops short of the guard unless
    the guard's rate more than doubles.  The first stage step, and the
    step after a crossing, run alone.  One guard call on the run's stacked
    states, and a finiteness check of the states and of the guard values,
    test the whole run; an affine block is tested once, whole.  The steps
    before the first one that crosses or is not finite are accepted; that
    step opens the next run, where it crosses or raises NonFinite as a lone
    step would.  A crossing drops the crossed members' rows of a block and
    the rest of a stage run.  So trajectories, exits and errors are those
    of one-at-a-time stepping bit for bit, and each member's are those of
    its solo flow.

    dH/dx, which the rounding floor of H and the exit guard rate need, is
    an AffineGuard's normal, and a central difference of any other guard
    (see _guard_gradient).  An AffineGuard's runs check the finiteness of
    its guard values alone, which are not finite wherever a state is not;
    the error raised, and the step it is raised at, are the same.
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
    _raise_non_finite(x, 0.0, h0)
    if np.any(np.abs(h0) <= _GUARD_TOL + _guard_floor(guard, x)):
        raise ValueError("start state lies on the guard; a phase needs an interior start")
    # Guard values are kept signed by the approach side, g = side * H, so a
    # member has crossed once g <= _GUARD_TOL.  Negation is exact, so every
    # test below equals its unsigned form.
    side = np.where(h0 > 0.0, 1.0, -1.0)
    g_val = np.abs(h0)
    dt = cfg.base_step
    consts = np.array(0.5 * dt), np.array(dt), np.array(dt / 6.0)
    t = 0.0
    members = np.arange(n_members)
    f = _batch_field(domain, betas)
    affine = isinstance(f, AffineField)
    if affine:
        table, s = _block_table(f, dt)
        block = block_g = np.empty((n_members, 0))  # the states of the block not yet accepted
    else:
        step = _step_map(f, consts)
    x_out = np.empty_like(x)
    t_out = np.empty(n_members)

    rate = None  # the largest guard change of the last stage step; None after a crossing
    while members.size:
        if t >= _MAX_PHASE_DURATION:
            raise NoCrossing(f"guard not reached within max phase duration {_MAX_PHASE_DURATION}")
        if not affine:
            xs, g = _run(step, guard, x, side, _run_length(rate, g_val, t, dt))
        else:
            if not block.shape[1]:
                block, block_g = _block(table, s, guard, side, x)
            xs, g = block.swapaxes(0, 1), block_g.T
        passed = (g > _GUARD_TOL).all(axis=1)
        n_ok = _leading(passed)

        if n_ok:
            if not affine:
                rate = float(np.abs(g[n_ok - 1] - (g[n_ok - 2] if n_ok > 1 else g_val)).max())
        elif not g.shape[0]:
            # The run's first step has a non-finite state or guard value.
            _raise_non_finite(xs[0], t, np.nan)
        else:
            # The first step of the run crosses for some members: locate
            # their exits.  The others take the step; the rest of a stage
            # run is dropped, and a block keeps the others' rows.
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
            if affine:
                block, block_g, s = block[keep], block_g[keep], s[keep]
            else:
                step = _step_map(f, consts)
            rate, n_ok = None, 1

        # Accept the first n_ok steps.  The clock adds them one at a time, as
        # one-at-a-time stepping does, so exit times match it bit for bit.
        x, g_val = xs[n_ok - 1], g[n_ok - 1]
        if affine:
            block, block_g = block[:, n_ok:], block_g[:, n_ok:]
        for _ in range(n_ok):
            t += dt
    return x_out, t_out


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
    advances an AffineField by _block instead."""
    return lambda x: _rk4(f, x, *consts)


def _block_table(f: AffineField, h: float):
    """The table of up to _MAX_RUN transition steps of the AffineField f at
    base step h, and its (B, m) step offsets s = h (c + c Q) for the
    control rows c of f (see _transition).  The table is made once per
    drift and base step and shared, read-only, by every flow that has
    them; the offsets are made per call."""
    table, q = _transition(float(h), f.drift.shape, f.drift.tobytes())
    return table, h * (f.control + f.control.dot(q))


@functools.lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _transition(h: float, shape: tuple, drift: bytes):
    """The read-only transition table at base step h of the drift matrix M
    whose float64 values, in C order, are the bytes drift, and the matrix
    Q below.  The cache is keyed by value, so a drift mutated in place, or
    a new array of the same values, never meets a stale table.

    With Z = h M' and Q = Z/2 + Z^2/6 + Z^3/24, one RK4 step of
    x' = x M' + c is exactly x -> x + (x inc + s), with inc = Z + Z Q and
    s = h (c + c Q): RK4's stability polynomial I + Z + ... + Z^4/24, the
    same method and truncation error as the stage form (Hairer, Norsett &
    Wanner, Solving ODEs I, sec. II.1).  With R = I + inc, the state j steps
    after x is x + (x D_j + s G_j), where D_j = R^j - I and
    G_j = I + R + ... + R^(j-1).  The table is the (2m, L m) matrix
    [[D_1 ... D_L], [G_1 ... G_L]], made by doubling,
    D_(i+j) = D_i + (D_j + D_i D_j) and G_(i+j) = G_i + (G_j + D_i G_j),
    so that no identity is rounded into the D_j.  The small terms of Q are
    summed first.  L is _MAX_RUN, or the index of the first D_j or G_j that
    is not finite, but at least 1: a state x with a zero component along an
    overflowing power stays finite in the stage form, and 0 * inf is NaN.
    """
    z = h * np.frombuffer(drift).reshape(shape).T
    z2 = z.dot(z)
    q = z2.dot(z) / 24.0 + z2 / 6.0 + 0.5 * z
    d, g = (z + z.dot(q))[None], np.eye(len(z))[None]
    while len(d) < _MAX_RUN:
        last = d[-1]
        d, g = np.concatenate([d, last + (d + last @ d)]), np.concatenate([g, g[-1] + (g + last @ g)])
    finite = (np.isfinite(d).all(axis=(1, 2)) & np.isfinite(g).all(axis=(1, 2)))[:_MAX_RUN]
    n = max(1, _leading(finite))
    table = np.concatenate([d[:n], g[:n]], axis=1).transpose(1, 0, 2).reshape(2 * len(z), -1)
    table.flags.writeable = q.flags.writeable = False
    return table, q


def _block(table, s, guard, side, x):
    """The (B, L, m) states of the L transition steps from the (B, m)
    anchor states x, for the table and step offsets s of _block_table, and
    their (B, n) signed guard values up to the first step at which some
    member's state or guard value is not finite.  For an AffineGuard only
    the guard values are scanned (see _finite_guard).

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
    """dH/dx at each row of the (B, m) stack x: an AffineGuard's normal,
    broadcast to the rows, and for any other guard the central difference
    of relative step 1e-7 at the rows."""
    if isinstance(guard, AffineGuard):
        return guard.normal[None].repeat(len(x), axis=0)
    return central_difference(guard, x, 1e-7)[:, 0]


def _guard_floor(guard, x: np.ndarray) -> np.ndarray:
    """The rounding floor of the guard at each row of the stack x.

    That is _FLOOR_ULPS ulps of sum_j |dH/dx_j| max(1, max_j |x_j|), which
    bounds the rounding error of an affine H = n . x - d evaluated at x.
    dH/dx is read from _guard_gradient: exact for an AffineGuard, with no
    guard call, and a central difference for any other guard.
    """
    scale = np.maximum(1.0, np.abs(x).max(axis=1))[:, None]
    grad = _guard_gradient(guard, x) * scale
    return _FLOOR_ULPS * np.finfo(float).eps * np.abs(grad).sum(axis=1)


def _exit_crossing(f, guard, x_from, t_from, step, side, g_from, x_to, g_to):
    """Locate each member's crossing inside the base step from time t_from,
    then check it.

    g(tau) = side * H(rk4_step(f, x_from, tau)) falls from g_from > 0 to g_to
    over the step.  The trial steps take the stage form, since tau differs
    per member; the hi end at tau = step is the run's x_to, which for an
    AffineField is the block state and differs from rk4_step(f, x_from,
    step) in rounding alone.  Illinois regula falsi puts the secant root of the bracket
    in place of the end of the same sign, halving the weight of an end kept
    twice in a row.  A secant root that rounds onto an end of the bracket,
    as when one end's |g| dwarfs the other's, is replaced by the midpoint.
    A member stops once the end of its bracket with the smaller |H| lies
    within the rounding floor of H, or once the bracket is 4 ulps of the
    step wide (at once if g_to >= 0 leaves no sign change).  That end
    exits; past _GUARD_TOL plus the rounding floor, the refinement
    stalled.  The floor is taken at x_to, in one _guard_floor call made
    only once some end is within _GUARD_TOL.  Every member is stepped on
    every iteration, so the brackets are updated under masks over the
    whole stack, each end's tau, weight, |g| and state in an array of its
    own, updated in place.  The guard rate at the exit is
    dH/dx . f(x_hit), with dH/dx from _guard_gradient; a rate that is NaN
    or infinite raises NonFinite at the exit time.  So a flow with an
    AffineGuard takes no finite difference.
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
            floor = _guard_floor(guard, x_to)
        if floor is not None:
            active &= ~(h_hit <= floor)
        if n_iter == _REFINE_MAX_ITER or not active.any():
            break
        tau = np.clip(tau_lo + (tau_hi - tau_lo) * (w_lo / (w_lo - w_hi)), tau_lo, tau_hi)
        tau = np.where((tau == tau_lo) | (tau == tau_hi), 0.5 * (tau_lo + tau_hi), tau)
        x_tau = rk4_step(f, x_from, tau[:, None])
        g_tau = side * guard(x_tau)
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

    x_hit = np.where(best_hi[:, None], x_hi, x_lo)
    stalled = ~(h_hit <= _GUARD_TOL)
    if stalled.any():
        if floor is None:
            floor = _guard_floor(guard, x_to)
        stalled &= ~(h_hit <= _GUARD_TOL + floor)
    if stalled.any():
        raise IntegrationError(
            f"guard refinement stalled at |H| = {h_hit[np.argmax(stalled)]:.3e} "
            f"(tolerance {_GUARD_TOL:.3e})"
        )
    t_exit = t_from + np.where(best_hi, tau_hi, tau_lo)

    early = t_exit < _MIN_PHASE_DURATION
    if early.any():
        raise Chattering(
            f"guard crossed at t = {t_exit[np.argmax(early)]:.3e}, below the minimum duration "
            f"{_MIN_PHASE_DURATION:.3e}"
        )
    rate = (_guard_gradient(guard, x_hit) * f(x_hit)).sum(axis=1)
    bad = ~np.isfinite(rate)
    if bad.any():
        _raise_non_finite(x_hit, t_exit[np.argmax(bad)], rate)
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

