"""Phase integration, event detection and cycle simulation."""

import numpy as np
import pytest
from scipy.linalg import expm

from hybrid_orbit.integrator import (
    Chattering,
    IntegratorConfig,
    NoCrossing,
    NonFinite,
    NonTransversal,
    flow_to_guard,
    simulate_cycle,
    write_trajectory_csv,
)
from hybrid_orbit.model import Domain


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


def test_unit_flow_hits_unit_guard():
    dom = autonomous(lambda x: np.array([1.0]), lambda x: float(x[0] - 1.0), 1)
    traj = flow_to_guard(dom, np.array([0.0]), np.zeros(0), IntegratorConfig())
    assert abs(traj.exit_time - 1.0) < 1e-9
    assert abs(traj.exit_state[0] - 1.0) < 1e-9


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

    cfg = IntegratorConfig(base_step=1e-3, guard_tol=1e-13)
    traj = flow_to_guard(dom, x0, np.zeros(0), cfg)
    assert abs(traj.exit_time - t_exact) < 1e-8
    assert np.max(np.abs(traj.exit_state - expm(a * t_exact) @ x0)) < 1e-8


def test_receding_guard_raises_no_crossing():
    dom = autonomous(lambda x: np.array([1.0]), lambda x: float(x[0] + 1.0), 1)
    with pytest.raises(NoCrossing):
        flow_to_guard(dom, np.array([0.0]), np.zeros(0), IntegratorConfig(max_phase_duration=5.0))


def test_on_guard_start_rejected():
    dom = autonomous(lambda x: np.array([1.0]), lambda x: float(x[0]), 1)
    with pytest.raises(ValueError, match="interior"):
        flow_to_guard(dom, np.array([0.0]), np.zeros(0), IntegratorConfig())


def test_early_crossing_raises_chattering():
    dom = autonomous(lambda x: np.array([1.0]), lambda x: float(x[0] - 1e-4), 1)
    cfg = IntegratorConfig(min_phase_duration=1e-2)
    with pytest.raises(Chattering):
        flow_to_guard(dom, np.array([0.0]), np.zeros(0), cfg)


def test_tangential_crossing_raises_non_transversal():
    # guard drifts at 2e-10 per unit time: crossing exists but is not transversal
    dom = autonomous(
        lambda x: np.array([1.0, 2e-10]),
        lambda x: float(x[1] - 1e-10),
        2,
    )
    cfg = IntegratorConfig(guard_tol=1e-14, transversality_tol=1e-8)
    with pytest.raises(NonTransversal):
        flow_to_guard(dom, np.array([0.0, 0.0]), np.zeros(0), cfg)


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


def test_fourth_order_convergence_against_exact_flow():
    a = np.array([[0.0, 1.0], [-2.0, -0.3]])
    normal = np.array([1.0, 0.4])
    dom = autonomous(lambda x: a @ x, lambda x: float(normal @ x - 0.8), 2)
    x0 = np.array([0.1, 1.5])

    # disable the guard-change step cap so the raw scheme order is visible
    errors = []
    for step in (4e-2, 2e-2):
        cfg = IntegratorConfig(base_step=step, guard_tol=1e-14, guard_step_fraction=1e6)
        traj = flow_to_guard(dom, x0, np.zeros(0), cfg)
        exact = expm(a * traj.exit_time) @ x0
        errors.append(np.max(np.abs(traj.exit_state - exact)))
    assert errors[0] / errors[1] > 2.0 ** 3.5


def test_guard_residual_within_tolerance(stable3, cfg_fast):
    for i, phase in enumerate(stable3.phases):
        dom = stable3.system.domains[i]
        traj = flow_to_guard(dom, phase.start_state, np.zeros(3), cfg_fast)
        assert abs(dom.guard(traj.exit_state)) <= cfg_fast.guard_tol


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
    cfg = IntegratorConfig(base_step=cfg_fast.base_step, max_phase_duration=2.0)
    with pytest.raises(NoCrossing) as exc_info:
        simulate_cycle(system, None, stable2.orbit.fixed_points[-1], 1, cfg)
    assert exc_info.value.phase == 1
    assert "phase 1" in str(exc_info.value)


def test_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(base_step=-1.0)
    with pytest.raises(ValueError):
        IntegratorConfig(min_phase_duration=2.0, max_phase_duration=1.0)
    with pytest.raises(ValueError):
        IntegratorConfig(refine_max_iter=0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            IntegratorConfig(base_step=bad)
        with pytest.raises(ValueError):
            IntegratorConfig(guard_tol=bad)
        with pytest.raises(ValueError):
            IntegratorConfig(max_phase_duration=bad)


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
