"""Phase integration, event detection and cycle simulation."""

from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from hybrid_orbit import cli, integrator
from hybrid_orbit.fixtures import CATALOG, synthetic_from_obj, synthetic_to_obj
from hybrid_orbit.integrator import (
    Chattering,
    IntegrationError,
    IntegratorConfig,
    NoCrossing,
    NonFinite,
    NonTransversal,
    flow_batch,
    flow_to_guard,
    rk4_step,
    section_step,
    simulate_cycle,
    write_trajectory_csv,
)
from hybrid_orbit.model import Domain, MultiDomainSystem, SectionChart


def autonomous(drift, guard, dim):
    return Domain(
        state_dim=dim,
        control_dim=0,
        param_dim=0,
        drift=drift,
        input_map=lambda x: np.zeros((dim, 0)),
        controller=lambda x, beta: np.zeros(0),
        guard=guard,
        reset=lambda x: x,
    )


def set_constants(monkeypatch, **constants):
    """Set integrator constants, such as _GUARD_TOL, for one test."""
    for name, value in constants.items():
        monkeypatch.setattr(integrator, name, value)


def test_unit_flow_hits_unit_guard():
    dom = autonomous(lambda x: np.array([1.0]), lambda x: float(x[0] - 1.0), 1)
    traj = flow_to_guard(dom, np.array([0.0]), np.zeros(0), IntegratorConfig())
    assert abs(traj.exit_time - 1.0) < 1e-9
    assert abs(traj.exit_state[0] - 1.0) < 1e-9


@pytest.fixture
def rk4_calls(monkeypatch):
    """The step argument of every RK4 step the integrator takes."""
    calls = []

    def counted_rk4(f, x, h):
        calls.append(h)
        return rk4_step(f, x, h)

    monkeypatch.setattr(integrator, "rk4_step", counted_rk4)
    return calls


def test_crossing_step_without_splits_makes_no_trial_step(monkeypatch, rk4_calls, stable3):
    # Outside the crossing refinement, a flow whose member never splits a
    # step makes one RK4 step per accepted step, the crossing step included:
    # a guard-bounded run stops short of the guard, so no run step is thrown
    # away.
    calls = rk4_calls
    refine = integrator._exit_crossing
    refine_calls = []

    def counted_refine(*args):
        before = len(calls)
        out = refine(*args)
        refine_calls.append(len(calls) - before)
        return out

    monkeypatch.setattr(integrator, "_exit_crossing", counted_refine)
    dom = autonomous(lambda x: np.ones_like(x), lambda x: float(x[0] - 0.105), 1)
    traj = flow_to_guard(dom, np.array([0.0]), np.zeros(0), IntegratorConfig(base_step=1e-2))
    assert abs(traj.exit_time - 0.105) < 1e-12
    assert len(refine_calls) == 1
    assert len(calls) - refine_calls[0] == len(traj.times) - 1 == 11

    # A catalog flow long enough for runs, with far fewer guard calls than
    # steps, and an approach whose guard rate grows 1% a step.
    dom = stable3.system.domains[0]
    batch_guard = dom.batch_guard
    guard_calls = []

    def counted_guard(x):
        guard_calls.append(x.shape[0])
        return batch_guard(x)

    flows = [
        (replace(dom, batch_guard=counted_guard), stable3.phases[0].start_state, np.zeros(3), 2e-3),
        (ACCELERATING["exponential"][0], np.array([1.0]), np.zeros(0), 1e-2),
    ]
    steps = []
    for dom, x0, beta, base_step in flows:
        calls.clear()
        refine_calls.clear()
        traj = flow_to_guard(dom, x0, beta, IntegratorConfig(base_step=base_step))
        steps.append(len(traj.times) - 1)
        assert len(refine_calls) == 1
        assert len(calls) - refine_calls[0] == steps[-1] > 300
    assert len(guard_calls) < steps[0] / 8


def test_linear_flow_matches_matrix_exponential_root():
    a = np.array([[0.0, 1.0], [-2.0, -0.3]])
    normal = np.array([1.0, 0.4])
    offset = 0.8
    x0 = np.array([0.1, 1.5])
    dom = autonomous(lambda x: a @ x, lambda x: float(normal @ x - offset), 2)

    def h_exact(t):
        return float(normal @ (expm(a * t) @ x0) - offset)

    # bracket and bisect on the closed-form flow
    lo, hi = 0.0, 0.0
    t = 0.0
    while True:
        t += 1e-2
        if h_exact(t) > 0.0:
            lo, hi = t - 1e-2, t
            break
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if h_exact(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    t_exact = 0.5 * (lo + hi)

    cfg = IntegratorConfig(base_step=1e-3)
    traj = flow_to_guard(dom, x0, np.zeros(0), cfg)
    assert abs(traj.exit_time - t_exact) < 1e-8
    assert np.max(np.abs(traj.exit_state - expm(a * t_exact) @ x0)) < 1e-8


def test_receding_guard_raises_no_crossing():
    dom = autonomous(lambda x: np.array([1.0]), lambda x: float(x[0] + 1.0), 1)
    with pytest.raises(NoCrossing):
        flow_to_guard(dom, np.array([0.0]), np.zeros(0), IntegratorConfig())


def test_on_guard_start_rejected():
    dom = autonomous(lambda x: np.array([1.0]), lambda x: float(x[0]), 1)
    with pytest.raises(ValueError, match="interior"):
        flow_to_guard(dom, np.array([0.0]), np.zeros(0), IntegratorConfig())
    # One ulp off a guard at 1e8, |H| = 1.5e-8 is above _GUARD_TOL but within
    # the rounding floor of evaluating H there.
    dom = autonomous(lambda x: np.array([1.0]), lambda x: float(x[0] - 1e8), 1)
    with pytest.raises(ValueError, match="interior"):
        flow_to_guard(dom, np.array([np.nextafter(1e8, 0.0)]), np.zeros(0), IntegratorConfig())
    traj = flow_to_guard(dom, np.array([1e8 - 1e-3]), np.zeros(0), IntegratorConfig())
    assert abs(traj.exit_time - 1e-3) < 1e-7


def test_early_crossing_raises_chattering(monkeypatch):
    set_constants(monkeypatch, _MIN_PHASE_DURATION=1e-2)
    dom = autonomous(lambda x: np.array([1.0]), lambda x: float(x[0] - 1e-4), 1)
    with pytest.raises(Chattering):
        flow_to_guard(dom, np.array([0.0]), np.zeros(0), IntegratorConfig())


def test_tangential_crossing_raises_non_transversal(monkeypatch):
    # guard drifts at 2e-10 per unit time: crossing exists but is not
    # transversal at _TRANSVERSALITY_TOL = 1e-8
    set_constants(monkeypatch, _GUARD_TOL=1e-14)
    dom = autonomous(
        lambda x: np.array([1.0, 2e-10]),
        lambda x: float(x[1] - 1e-10),
        2,
    )
    with pytest.raises(NonTransversal):
        flow_to_guard(dom, np.array([0.0, 0.0]), np.zeros(0), IntegratorConfig())


def jump_guard(x):
    """Changes sign at x1 = 0.5 without passing through zero."""
    return 1.0 if x[0] < 0.5 else -1.0


def test_guard_without_a_root_stalls_the_refinement():
    dom = autonomous(lambda x: np.array([1.0]), jump_guard, 1)
    with pytest.raises(IntegrationError, match="refinement stalled") as exc_info:
        flow_to_guard(dom, np.array([0.0]), np.zeros(0), IntegratorConfig())
    assert type(exc_info.value) is IntegrationError


def test_refine_stall_carries_its_phase_and_exits_three(monkeypatch, tmp_path, capsys):
    dom = Domain(
        state_dim=2,
        control_dim=0,
        param_dim=0,
        drift=lambda x: np.array([1.0, 0.0]),
        input_map=lambda x: np.zeros((2, 0)),
        controller=lambda x, beta: np.zeros(0),
        guard=jump_guard,
        reset=lambda x: x,
        exit_chart=SectionChart(k=1, embed=lambda y: np.array([0.0, y[0]]), project=lambda x: x[1:].copy()),
    )
    system = MultiDomainSystem(domains=(dom,))
    with pytest.raises(IntegrationError, match="refinement stalled") as exc_info:
        section_step(system, 0, np.zeros((1, 1)), np.zeros((1, 0)), IntegratorConfig())
    assert exc_info.value.phase == 0

    def stalled_newton(*args, **kwargs):
        section_step(system, 0, np.zeros((1, 1)), np.zeros((1, 0)), IntegratorConfig())

    monkeypatch.setattr(cli, "orbit_and_jacobians", stalled_newton)
    assert cli.main(["analyze", "--system", "stable-2", "-o", str(tmp_path / "j.json")]) == 3
    err = capsys.readouterr().err
    assert err == "numerical failure: phase 0: guard refinement stalled at |H| = 1.000e+00 (tolerance 1.000e-10)\n"
    assert err.count("phase 0") == 1
    assert list(tmp_path.iterdir()) == []


def test_blow_up_raises_non_finite():
    # quadratic growth overflows long before the (unreachable) guard
    dom = autonomous(lambda x: np.array([1.0 + x[0] ** 2]), lambda x: float(x[0] - 1e300), 1)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFinite):
            flow_to_guard(dom, np.array([1.0]), np.zeros(0), IntegratorConfig(base_step=0.5))


def test_trajectory_is_deterministic():
    a = np.array([[0.0, 1.0], [-1.0, -0.1]])
    dom = autonomous(lambda x: a @ x, lambda x: float(x[0] - 0.4), 2)
    cfg = IntegratorConfig(base_step=3e-3)
    first = flow_to_guard(dom, np.array([0.0, 1.0]), np.zeros(0), cfg)
    second = flow_to_guard(dom, np.array([0.0, 1.0]), np.zeros(0), cfg)
    assert np.array_equal(first.times, second.times)
    assert np.array_equal(first.states, second.states)
    assert first.exit_time == second.exit_time


def test_fourth_order_convergence_against_exact_flow(monkeypatch):
    a = np.array([[0.0, 1.0], [-2.0, -0.3]])
    normal = np.array([1.0, 0.4])
    dom = autonomous(lambda x: a @ x, lambda x: float(normal @ x - 0.8), 2)
    x0 = np.array([0.1, 1.5])

    # disable the guard-change step cap so the raw scheme order is visible
    set_constants(monkeypatch, _GUARD_TOL=1e-14, _GUARD_STEP_FRACTION=1e6)
    errors = []
    for step in (4e-2, 2e-2):
        traj = flow_to_guard(dom, x0, np.zeros(0), IntegratorConfig(base_step=step))
        exact = expm(a * traj.exit_time) @ x0
        errors.append(np.max(np.abs(traj.exit_state - exact)))
    assert errors[0] / errors[1] > 2.0 ** 3.5


def test_guard_residual_within_tolerance(stable3, cfg_fast):
    for i, phase in enumerate(stable3.phases):
        dom = stable3.system.domains[i]
        traj = flow_to_guard(dom, phase.start_state, np.zeros(3), cfg_fast)
        assert abs(dom.guard(traj.exit_state)) <= integrator._GUARD_TOL


def test_simulate_cycle_stays_on_fixed_point(stable3, cfg_fast):
    x_star = stable3.orbit.fixed_points[-1]
    states = simulate_cycle(stable3.system, None, x_star, 3, cfg_fast)
    for y in states:
        assert np.max(np.abs(y - x_star)) < 1e-7


def test_open_loop_growth_tracks_unstable_jacobian(unstable2, cfg_accurate):
    # one cycle from a small perturbation grows like the return-map Jacobian
    x_star = unstable2.orbit.fixed_points[-1]
    product = unstable2.jacobians[1].A @ unstable2.jacobians[0].A
    delta = np.array([1e-5, -2e-5])
    (state,) = simulate_cycle(unstable2.system, None, x_star + delta, 1, cfg_accurate)
    predicted = product @ delta
    assert np.max(np.abs((state - x_star) - predicted)) < 1e-7 + 1e-2 * np.max(np.abs(predicted))


def test_simulate_cycle_attaches_phase_index(stable2, cfg_fast):
    broken = stable2.system.domains[1]
    dom = Domain(
        state_dim=broken.state_dim,
        control_dim=broken.control_dim,
        param_dim=broken.param_dim,
        drift=broken.drift,
        input_map=broken.input_map,
        controller=broken.controller,
        guard=lambda x: 1.0,  # never crossed
        reset=broken.reset,
        exit_chart=broken.exit_chart,
    )
    system = type(stable2.system)(domains=(stable2.system.domains[0], dom))
    with pytest.raises(NoCrossing) as exc_info:
        simulate_cycle(system, None, stable2.orbit.fixed_points[-1], 1, cfg_fast)
    assert exc_info.value.phase == 1
    assert "phase 1" in str(exc_info.value)


def test_config_validation():
    for bad in (-1.0, 0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            IntegratorConfig(base_step=bad)
    # The tolerances are module constants, not options.
    for name in ("guard_tol", "min_phase_duration", "max_phase_duration",
                 "transversality_tol", "guard_step_fraction", "max_step_splits"):
        with pytest.raises(TypeError):
            IntegratorConfig(**{name: 1.0})


def test_trajectory_csv_layout(tmp_path):
    dom = autonomous(lambda x: np.array([1.0, -1.0]), lambda x: float(x[0] - 0.1), 2)
    traj = flow_to_guard(dom, np.array([0.0, 0.0]), np.zeros(0), IntegratorConfig())
    path = tmp_path / "flow.csv"
    write_trajectory_csv(traj, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,x1,x2"
    assert len(lines) == traj.times.size + 1
    last = [float(v) for v in lines[-1].split(",")]
    assert last[0] == pytest.approx(traj.exit_time)
    assert last[1] == pytest.approx(traj.exit_state[0])
    rows = [",".join(repr(float(v)) for v in (t, *x)) for t, x in zip(traj.times, traj.states)]
    assert path.read_bytes() == "\r\n".join(["t,x1,x2"] + rows + [""]).encode()
    assert list(tmp_path.iterdir()) == [path]


def test_trajectory_csv_under_missing_directory(tmp_path):
    dom = autonomous(lambda x: np.array([1.0, -1.0]), lambda x: float(x[0] - 0.1), 2)
    traj = flow_to_guard(dom, np.array([0.0, 0.0]), np.zeros(0), IntegratorConfig())
    with pytest.raises(OSError):
        write_trajectory_csv(traj, tmp_path / "missing" / "flow.csv")
    assert list(tmp_path.rglob("*")) == []


def test_last_resort_step_is_checked_for_finiteness(monkeypatch):
    # The full step stays finite but moves the guard past the cap; with no
    # splits allowed the half step is taken regardless, and its RK4 stage at
    # x = 0.25 lands in the band where the field is -inf.
    def drift(x):
        return np.array([-np.inf if 0.24 < x[0] < 0.26 else 1.0])

    set_constants(monkeypatch, _GUARD_STEP_FRACTION=0.01, _MAX_STEP_SPLITS=0)
    dom = autonomous(drift, lambda x: float(x[0] + 10.0), 1)
    with pytest.raises(NonFinite):
        flow_to_guard(dom, np.array([0.0]), np.zeros(0), IntegratorConfig(base_step=1.0))


def catalog_model(request, name):
    if name == "rebuilt":
        return synthetic_from_obj(synthetic_to_obj(request.getfixturevalue("stable3")))
    return request.getfixturevalue(name.replace("-", ""))


def lifted(domain):
    """The same domain without its batch callables: the row-by-row fallback."""
    return replace(domain, batch_field=None, batch_guard=None)


# Long steps under a tight guard-change cap make members split their steps
# differently, down to the last-resort half step.
SPLITTING = {"_GUARD_STEP_FRACTION": 0.02, "_MAX_STEP_SPLITS": 1}


@pytest.mark.parametrize("splits", [False, True], ids=["base-steps", "split-steps"])
@pytest.mark.parametrize("name", CATALOG + ("rebuilt",))
def test_batch_members_match_solo_and_lifted_runs(request, monkeypatch, name, splits, cfg_fast):
    cfg = cfg_fast
    if splits:
        set_constants(monkeypatch, **SPLITTING)
        cfg = IntegratorConfig(base_step=5e-2)
    model = catalog_model(request, name)
    rng = np.random.default_rng(7)
    for i, phase in enumerate(model.phases):
        dom = model.system.domains[i]
        x0 = phase.start_state + 1e-2 * rng.normal(size=(10, dom.state_dim))
        betas = 5e-2 * rng.normal(size=(10, dom.param_dim))
        x_exit, t_exit = flow_batch(dom, x0, betas, cfg)
        assert np.ptp(t_exit) > 1e-3  # the members really take different flows
        x_lift, t_lift = flow_batch(lifted(dom), x0, betas, cfg)
        assert np.max(np.abs(x_exit - x_lift)) <= 1e-12
        assert np.max(np.abs(t_exit - t_lift)) <= 1e-12
        for b in range(10):
            solo = flow_to_guard(dom, x0[b], betas[b], cfg)
            assert np.max(np.abs(x_exit[b] - solo.exit_state)) <= 1e-12
            assert abs(t_exit[b] - solo.exit_time) <= 1e-12


def reference_flow(domain, x0, beta, cfg):
    """The one-member flow written as a plain scalar loop: accepted times
    and states, the refined crossing last.  Checks are left out.  The
    integrator constants are read at call time, as the kernel reads them."""
    f = domain.vector_field(beta)
    h0 = float(domain.guard(x0))
    side = 1.0 if h0 > 0.0 else -1.0
    times, states = [0.0], [x0.copy()]
    t, x, h_val, h_lo, h_hi = 0.0, x0, h0, h0, h0
    while True:
        step = min(cfg.base_step, integrator._MAX_PHASE_DURATION - t)
        h_range = max(h_hi - h_lo, abs(h0))
        for _ in range(integrator._MAX_STEP_SPLITS + 1):
            x_next = rk4_step(f, x, step)
            h_next = float(domain.guard(x_next))
            crossed = h_next * side < 0.0 or abs(h_next) <= integrator._GUARD_TOL
            if crossed or abs(h_next - h_val) <= integrator._GUARD_STEP_FRACTION * h_range:
                break
            step *= 0.5
        else:
            x_next = rk4_step(f, x, step)
            h_next = float(domain.guard(x_next))
        if h_next * side < 0.0 or abs(h_next) <= integrator._GUARD_TOL:
            # Illinois regula falsi on the step fraction, to a 4-ulp bracket
            lo, hi, g_lo, g_hi = 0.0, step, side * h_val, side * h_next
            x_lo, x_hi, last = x, x_next, 0
            for _ in range(100):
                if not (g_hi < 0.0 and hi - lo > 4 * np.finfo(float).eps * step):
                    break
                tau = min(max(lo + (hi - lo) * (g_lo / (g_lo - g_hi)), lo), hi)
                x_tau = rk4_step(f, x, tau)
                g_tau = side * float(domain.guard(x_tau))
                moved = 1 if g_tau <= 0.0 else -1
                if moved == last == 1:
                    g_lo *= 0.5
                elif moved == last == -1:
                    g_hi *= 0.5
                if moved == 1:
                    hi, g_hi, x_hi = tau, g_tau, x_tau
                else:
                    lo, g_lo, x_lo = tau, g_tau, x_tau
                last = moved
            if abs(domain.guard(x_hi)) <= abs(domain.guard(x_lo)):
                return np.array(times + [t + hi]), np.array(states + [x_hi])
            return np.array(times + [t + lo]), np.array(states + [x_lo])
        t, x, h_val = t + step, x_next, h_next
        h_lo, h_hi = min(h_lo, h_val), max(h_hi, h_val)
        times.append(t)
        states.append(x)


@pytest.mark.parametrize(
    "base_step, constants",
    [(5e-3, {}), (2e-3, {}), (5e-2, SPLITTING)],
    ids=["base-steps", "long-runs", "split-steps"],
)
def test_single_flow_equals_the_scalar_reference_loop(stable3, monkeypatch, base_step, constants):
    set_constants(monkeypatch, **constants)
    cfg = IntegratorConfig(base_step=base_step)
    rng = np.random.default_rng(5)
    for i, phase in enumerate(stable3.phases):
        dom = lifted(stable3.system.domains[i])
        for _ in range(3):
            x0 = phase.start_state + 1e-2 * rng.normal(size=3)
            beta = 5e-2 * rng.normal(size=3)
            times, states = reference_flow(dom, x0, beta, cfg)
            traj = flow_to_guard(dom, x0, beta, cfg)
            assert np.array_equal(traj.times, times)
            assert np.array_equal(traj.states, states)


# Guards whose step changes outgrow the cap in the middle of a run: an
# exponential approach (x' = x towards x = 1e3) and a growing spiral whose
# guard value swings through its range many times before the crossing.
# Both run under a guard-change cap of 5e-3 of the guard range.
SPIRAL = np.array([[0.05, 1.0], [-1.0, 0.05]])
ACCELERATING = {
    "exponential": (
        autonomous(lambda x: x, lambda x: float(x[0] - 1e3), 1),
        np.array([1.0]),
        IntegratorConfig(base_step=1e-2),
    ),
    "spiral": (
        autonomous(lambda x: SPIRAL @ x, lambda x: float(x[0] - 2.0), 2),
        np.array([1.0, 0.0]),
        IntegratorConfig(base_step=2e-2),
    ),
}


@pytest.mark.parametrize("name", ACCELERATING)
def test_runs_under_a_changing_guard_rate_equal_the_scalar_reference_loop(monkeypatch, name):
    set_constants(monkeypatch, _GUARD_STEP_FRACTION=5e-3)
    dom, x0, cfg = ACCELERATING[name]
    times, states = reference_flow(dom, x0, np.zeros(0), cfg)
    traj = flow_to_guard(dom, x0, np.zeros(0), cfg)
    assert times.size > 500
    assert np.array_equal(traj.times, times)
    assert np.array_equal(traj.states, states)


def test_runs_stop_at_the_phase_duration_cap(monkeypatch, rk4_calls):
    # The jump guard keeps g = 1 until x1 = 0.5, so its rate reads 0 and
    # runs take the most steps; none may step past the cap at t = 0.45.
    set_constants(monkeypatch, _MAX_PHASE_DURATION=0.45)
    dom = autonomous(lambda x: np.array([1.0]), jump_guard, 1)
    with pytest.raises(NoCrossing):
        flow_to_guard(dom, np.array([0.0]), np.zeros(0), IntegratorConfig())
    assert len(rk4_calls) <= 46


@pytest.mark.parametrize("name", ("stable-3", "rebuilt"))
def test_synthetic_batch_callables_match_scalar_ones(request, name):
    model = catalog_model(request, name)
    rng = np.random.default_rng(11)
    for dom in model.system.domains:
        x = rng.normal(size=(6, dom.state_dim))
        betas = rng.normal(size=(6, dom.param_dim))
        rows = dom.batch_field(betas)(x)
        guards = dom.batch_guard(x)
        assert rows.shape == x.shape and guards.shape == (6,)
        for b in range(6):
            scalar = dom.drift(x[b]) + dom.input_map(x[b]) @ dom.controller(x[b], betas[b])
            assert np.max(np.abs(rows[b] - scalar)) <= 1e-12
            assert abs(guards[b] - dom.guard(x[b])) <= 1e-12


def velocity_system(batched: bool) -> MultiDomainSystem:
    """One domain moving at constant velocity beta from x1 = 1 - y to the
    guard x1 = 1, where y is the section coordinate; x2 is carried along."""
    dom = Domain(
        state_dim=2,
        control_dim=2,
        param_dim=2,
        drift=lambda x: np.zeros(2),
        input_map=lambda x: np.eye(2),
        controller=lambda x, beta: beta,
        guard=lambda x: float(x[0] - 1.0),
        reset=lambda x: np.array([1.0 - x[1], x[1]]),
        exit_chart=SectionChart(
            k=1,
            embed=lambda y: np.array([1.0, y[0]]),
            project=lambda x: x[1:].copy(),
        ),
    )
    if batched:
        dom = replace(
            dom,
            batch_field=lambda betas: (lambda x: np.zeros_like(x) + betas),
            batch_guard=lambda x: x[:, 0] - 1.0,
        )
    return MultiDomainSystem(domains=(dom,))


# One bad member per failure: (section coordinate, beta, error).  The
# "late" members fail inside what would be a guard-bounded run: x2 starts
# at 1.5e308 and overflows at t = 2.97, after about 300 base steps, and an
# approach at velocity 0.19 is still 0.05 short of the guard when the phase
# duration cap cuts its run.
BAD_MEMBERS = {
    "no-crossing": (1.0, (-1.0, 0.0), NoCrossing),
    "late-no-crossing": (1.0, (0.19, 0.0), NoCrossing),
    "chattering": (1.0, (1e3, 0.0), Chattering),
    "non-transversal": (1e-11, (2e-10, 0.0), NonTransversal),
    "non-finite": (1.0, (1.0, 1e308), NonFinite),
    "late-non-finite": (1.5e308, (1.0, 1e307), NonFinite),
}


@pytest.mark.parametrize("batched", [True, False], ids=["batch-callables", "lifted"])
@pytest.mark.parametrize("case", BAD_MEMBERS)
def test_one_bad_member_fails_the_batch_like_a_solo_run(monkeypatch, case, batched):
    set_constants(monkeypatch, _GUARD_TOL=1e-14, _MIN_PHASE_DURATION=1e-2, _MAX_PHASE_DURATION=5.0)
    system = velocity_system(batched)
    cfg = IntegratorConfig(base_step=1e-2)
    y_bad, beta_bad, error = BAD_MEMBERS[case]
    y = np.array([[0.5], [1.0], [y_bad], [1.5]])
    betas = np.array([[1.0, 0.0], [2.0, 0.0], beta_bad, [0.5, 0.0]])
    good = [0, 1, 3]
    y_out, t_out = section_step(system, 0, y[good], betas[good], cfg)
    assert np.allclose(t_out, [0.5, 0.5, 3.0])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(error) as solo:
            section_step(system, 0, y[2:3], betas[2:3], cfg)
        with pytest.raises(error) as batch:
            section_step(system, 0, y, betas, cfg)
    assert type(batch.value) is type(solo.value)
    assert str(batch.value) == str(solo.value)
    assert batch.value.phase == 0
    assert str(batch.value).startswith("phase 0: ")
