"""Phase integration, event detection and cycle simulation."""

import re
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from hybrid_orbit import cli, integrator, poincare, synthesis
from hybrid_orbit.integrator import (
    Chattering,
    IntegrationError,
    IntegratorConfig,
    NoCrossing,
    NonFinite,
    NonTransversal,
    flow_batch,
    rk4_step,
    section_step,
    simulate_cycle,
)
from hybrid_orbit.model import AffineField, AffineGuard, Domain, FeedbackLaw, MultiDomainSystem, SectionChart
from hybrid_orbit.numerics import central_difference
from hybrid_orbit.poincare import phase_jacobians
from hybrid_orbit.synthetic import CATALOG, from_catalog, synthetic_from_obj, synthetic_to_obj


def autonomous(drift, guard, dim):
    return Domain(
        state_dim=dim,
        control_dim=0,
        param_dim=0,
        drift=drift,
        input_map=lambda x: np.zeros((dim, 0)),
        controller=lambda x, beta: np.zeros(0),
        guard=guard,
        reset=lambda X: X,
    )


def flow_one(domain, x0, beta, cfg):
    """The exit state and exit time of one member, x0 held at beta."""
    x0, beta = np.asarray(x0, dtype=float), np.asarray(beta, dtype=float)
    x_exit, t_exit = flow_batch(domain, x0[None], beta[None], cfg)
    return x_exit[0], t_exit[0]


def set_constants(monkeypatch, **constants):
    """Set integrator constants, such as _GUARD_TOL, for one test."""
    for name, value in constants.items():
        monkeypatch.setattr(integrator, name, value)


def test_unit_flow_hits_unit_guard():
    # An integer-valued field flows too: the row-by-row lift casts to float.
    for velocity in (np.array([1.0]), np.array([1])):
        dom = autonomous(lambda x: velocity, lambda X: X[:, 0] - 1.0, 1)
        x_exit, t_exit = flow_batch(dom, np.array([[0.0]]), np.zeros((1, 0)), IntegratorConfig())
        assert abs(t_exit[0] - 1.0) < 1e-9
        assert abs(x_exit[0, 0] - 1.0) < 1e-9


def textbook_rk4(f, x, h):
    """The classical RK4 step as printed."""
    k1 = f(x)
    k2 = f(x + h / 2 * k1)
    k3 = f(x + h / 2 * k2)
    k4 = f(x + h * k3)
    return x + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)


@pytest.mark.parametrize("n_members", [1, 11, 25])
def test_rk4_step_equals_the_textbook_formula_bit_for_bit(n_members):
    # Both rk4_step and the core _rk4 that phase flows of fields other than
    # an AffineField step by, given the step constants h/2, h, h/6 as
    # flow_batch makes them (0-d arrays) or as the crossing refinement does
    # ((B, 1) columns).
    rng = np.random.default_rng(3)
    for dim in (1, 3):
        a = rng.normal(size=(dim, dim))

        def f(x):
            return np.sin(x.dot(a)) + x * x

        x = rng.normal(size=(n_members, dim))
        for h in (2e-3, 0.37, rng.uniform(1e-4, 0.1, size=(n_members, 1))):
            expected = textbook_rk4(f, x, h)
            assert np.array_equal(rk4_step(f, x, h), expected)
            consts = [np.array(c) for c in (0.5 * h, h, h / 6.0)]
            assert np.array_equal(integrator._rk4(f, x, *consts), expected)


@pytest.fixture
def rk4_calls(monkeypatch):
    """The step length h of every RK4 step the integrator takes in the
    stage form: each accepted or dropped step of a map made by _step_map,
    and each rk4_step of a crossing refinement.  An AffineField's horizons
    take no such step."""
    calls = []
    step_map, rk4_step = integrator._step_map, integrator.rk4_step

    def counted_step_map(f, consts):
        step = step_map(f, consts)

        def counted_step(x):
            calls.append(consts[1])
            return step(x)

        return counted_step

    def counted_rk4_step(f, x, h):
        calls.append(h)
        return rk4_step(f, x, h)

    monkeypatch.setattr(integrator, "_step_map", counted_step_map)
    monkeypatch.setattr(integrator, "rk4_step", counted_rk4_step)
    return calls


@pytest.fixture
def refine_spans(monkeypatch, rk4_calls):
    """The (start, end) index span in rk4_calls of the RK4 steps of each
    crossing refinement."""
    spans = []
    refine = integrator._exit_crossing

    def spanned_refine(*args):
        start = len(rk4_calls)
        out = refine(*args)
        spans.append((start, len(rk4_calls)))
        return out

    monkeypatch.setattr(integrator, "_exit_crossing", spanned_refine)
    return spans


def test_crossing_step_without_splits_makes_no_trial_step(rk4_calls, refine_spans, stable3):
    # Outside the crossing refinement, a flow makes one RK4 step per
    # accepted step, the crossing step included: a guard-bounded run stops
    # short of the guard, so no run step is thrown away.
    calls, spans = rk4_calls, refine_spans
    dom = autonomous(lambda x: np.ones_like(x), lambda X: X[:, 0] - 0.105, 1)
    cfg = IntegratorConfig(base_step=1e-2)
    steps = len(reference_flow(dom, np.array([0.0]), np.zeros(0), cfg)[0]) - 1
    _, t_exit = flow_one(dom, [0.0], np.zeros(0), cfg)
    assert abs(t_exit - 0.105) < 1e-12
    ((start, end),) = spans
    assert len(calls) - (end - start) == steps == 11

    # A catalog flow long enough for runs, with far fewer guard calls than
    # steps, and an approach whose guard rate grows 1% a step.  The steps,
    # the crossing step included, are counted by the reference loop.  The
    # catalog field is lifted, so that it takes stage steps.
    dom = lifted(stable3.system.domains[0])
    exponential = ACCELERATING["exponential"][0]
    guard_calls = []

    def counted_guard(x):
        guard_calls.append(x.shape[0])
        return dom.guard(x)

    flows = [
        (dom, replace(dom, guard=counted_guard), stable3.phases[0].start_state, np.zeros(3), 2e-3),
        (exponential, exponential, np.array([1.0]), np.zeros(0), 1e-2),
    ]
    steps = []
    for plain, counted, x0, beta, base_step in flows:
        cfg = IntegratorConfig(base_step=base_step)
        steps.append(len(reference_flow(plain, x0, beta, cfg)[0]) - 1)
        calls.clear()
        spans.clear()
        flow_one(counted, x0, beta, cfg)
        ((start, end),) = spans
        assert len(calls) - (end - start) == steps[-1] > 300
    assert len(guard_calls) < steps[0] / 8


def test_coarse_steps_are_whole_base_steps(rk4_calls, refine_spans, stable3):
    # At base step 0.2 a step moves the stable-3 guards by more than a
    # quarter of their range, and every stage step is still a whole base
    # step.  (An affine block holds whole steps by construction.)
    cfg = IntegratorConfig(base_step=0.2)
    for i, phase in enumerate(stable3.phases):
        rk4_calls.clear()
        refine_spans.clear()
        flow_one(lifted(stable3.system.domains[i]), phase.start_state, np.zeros(3), cfg)
        ((start, end),) = refine_spans
        steps = rk4_calls[:start] + rk4_calls[end:]
        assert steps and all(np.all(np.asarray(h) == 0.2) for h in steps)


@pytest.fixture
def search_iterations(monkeypatch):
    """The iterations of each member's quartic search (_search), one list
    per crossing refinement: the quartic evaluations it makes."""
    refinements, evaluations = [], []
    refine, search, quartic = integrator._exit_crossing, integrator._search, integrator._quartic

    def listed_refine(*args):
        refinements.append([])
        return refine(*args)

    def counted_search(*args):
        evaluations.clear()
        tau = search(*args)
        refinements[-1].append(len(evaluations))
        return tau

    def counted_quartic(c, tau):
        evaluations.append(tau)
        return quartic(c, tau)

    monkeypatch.setattr(integrator, "_exit_crossing", listed_refine)
    monkeypatch.setattr(integrator, "_search", counted_search)
    monkeypatch.setattr(integrator, "_quartic", counted_quartic)
    return refinements


def test_group_crossing_stops_at_the_rounding_floor(monkeypatch, search_iterations, stable3):
    # phase_jacobians integrates each stable-3 phase as one batch of the
    # undisturbed member and its 10 central-difference members.  A member
    # stops refining once its exit's |H| is within the rounding floor of H,
    # a few iterations after it first reaches _GUARD_TOL: each member's
    # quartic search takes 2, 4 and 4 on these three groups, where
    # narrowing every bracket to 4 ulps took the stacked search 5, 12 and 6.
    exits = []
    flow = integrator.flow_batch

    def recorded_flow(domain, x0, betas, cfg):
        x_exit, t_exit = flow(domain, x0, betas, cfg)
        exits.append((domain, x_exit))
        return x_exit, t_exit

    monkeypatch.setattr(integrator, "flow_batch", recorded_flow)
    phase_jacobians(stable3.system, stable3.orbit, IntegratorConfig(base_step=2e-3))
    assert search_iterations == [[2] * 11, [4] * 11, [4] * 11]
    for dom, x_exit in exits:
        assert x_exit.shape == (11, 3)
        h = np.abs(dom.guard(x_exit))
        assert np.all(h <= integrator._GUARD_TOL + integrator._guard_floor(dom.guard, x_exit))


def test_crossing_from_a_grown_state_refines_in_few_steps(search_iterations, unstable2):
    # Open loop, unstable-2 grows about 5.4x a cycle; after 40 cycles the
    # section state is about 2.5e26 in size.  There the secant root rounds
    # onto the bracket end just replaced, and without the midpoint rule the
    # Illinois halving crawls for about 60 iterations before the bracket
    # moves.  The quartic search takes 5.
    cfg = IntegratorConfig()
    x_star = unstable2.orbit.fixed_points[-1]
    y = simulate_cycle(unstable2.system, None, x_star + 1e-2 * np.array([0.6, 0.8]), 40, cfg)[-1]
    assert 1e26 < np.max(np.abs(y)) < 1e27
    search_iterations.clear()
    p = unstable2.system.domains[0].param_dim
    section_step(unstable2.system, 0, y[None], np.zeros((1, p)), cfg)
    ((n_iter,),) = search_iterations
    assert n_iter < 50


def test_linear_flow_matches_matrix_exponential_root():
    a = np.array([[0.0, 1.0], [-2.0, -0.3]])
    normal = np.array([1.0, 0.4])
    offset = 0.8
    x0 = np.array([0.1, 1.5])
    dom = autonomous(lambda x: a @ x, lambda X: X @ normal - offset, 2)

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
    x_exit, t_exit = flow_one(dom, x0, np.zeros(0), cfg)
    assert abs(t_exit - t_exact) < 1e-8
    assert np.max(np.abs(x_exit - expm(a * t_exact) @ x0)) < 1e-8


def test_receding_guard_raises_no_crossing():
    dom = autonomous(lambda x: np.array([1.0]), lambda X: X[:, 0] + 1.0, 1)
    with pytest.raises(NoCrossing):
        flow_one(dom, [0.0], np.zeros(0), IntegratorConfig())


def test_on_guard_start_rejected():
    # Under the guard x - d as a lambda and as an AffineGuard, whose
    # rounding floor comes from its exact normal.
    for guard in (lambda d: (lambda X: X[:, 0] - d), lambda d: AffineGuard([1.0], d)):
        dom = autonomous(lambda x: np.array([1.0]), guard(0.0), 1)
        with pytest.raises(ValueError, match="interior"):
            flow_one(dom, [0.0], np.zeros(0), IntegratorConfig())
        # One ulp off a guard at 1e8, |H| = 1.5e-8 is above _GUARD_TOL but
        # within the rounding floor of evaluating H there.
        dom = autonomous(lambda x: np.array([1.0]), guard(1e8), 1)
        with pytest.raises(ValueError, match="interior"):
            flow_one(dom, [np.nextafter(1e8, 0.0)], np.zeros(0), IntegratorConfig())
        _, t_exit = flow_one(dom, [1e8 - 1e-3], np.zeros(0), IntegratorConfig())
        assert abs(t_exit - 1e-3) < 1e-7


@pytest.mark.parametrize("guard_form", ["lambda", "affine"])
def test_an_entry_the_normal_does_not_see_leaves_the_rounding_floor_alone(guard_form):
    # The rounding floor of H = x1 - 1 at [0, 1e301] is 4 eps
    # sum_j |dH/dx_j| max(1, |x_j|) = 4 eps: the entry 1e301 has no weight
    # in H.  Scaled by the largest entry instead, the floor was 8.9e285,
    # and the start, at |H| = 1, lay "on the guard".
    guard = AffineGuard([1.0, 0.0], 1.0) if guard_form == "affine" else lambda X: X[:, 0] - 1.0
    dom = replace(
        autonomous(lambda x: np.array([1.0, 0.0]), guard, 2),
        batch_field=lambda betas: AffineField(np.zeros((2, 2)), np.tile([1.0, 0.0], (len(betas), 1))),
    )
    x_exit, t_exit = flow_one(dom, [0.0, 1e301], np.zeros(0), IntegratorConfig())
    assert abs(t_exit - 1.0) < 1e-12 and abs(x_exit[0] - 1.0) < 1e-12 and x_exit[1] == 1e301
    assert integrator._guard_floor(guard, np.array([[0.0, 1e301]]))[0] < 1e-15


@pytest.mark.parametrize("guard_form", ["lambda", "affine"])
@pytest.mark.parametrize(
    "start, message",
    [
        ([np.nan, 0.0], "state became non-finite near t = 0"),
        ([0.0, np.inf], "state became non-finite near t = 0"),
        ([1e308, 1e308], "guard value became non-finite near t = 0"),
    ],
    ids=["nan-state", "inf-state", "overflowing-guard"],
)
def test_a_non_finite_start_raises_the_same_text_under_both_guard_forms(guard_form, start, message):
    # The guard x1 + x2 - 3 of a member beside a finite start.  An
    # AffineGuard's start check scans its guard values, and its states only
    # once a value is not finite, so a state entry that is not finite is
    # named as one, and a finite state whose guard overflows names the
    # guard value, as under the lambda.
    normal = np.array([1.0, 1.0])
    guard = AffineGuard(normal, 3.0) if guard_form == "affine" else lambda X: (X * normal).sum(axis=1) - 3.0
    dom = autonomous(lambda x: np.array([1.0, 0.0]), guard, 2)
    with pytest.raises(NonFinite, match=f"^{re.escape(message)}$"):
        flow_batch(dom, np.array([[0.0, 1.0], start]), np.zeros((2, 0)), IntegratorConfig())


def test_early_crossing_raises_chattering(monkeypatch):
    set_constants(monkeypatch, _MIN_PHASE_DURATION=1e-2)
    dom = autonomous(lambda x: np.array([1.0]), lambda X: X[:, 0] - 1e-4, 1)
    with pytest.raises(Chattering):
        flow_one(dom, [0.0], np.zeros(0), IntegratorConfig())


def test_tangential_crossing_raises_non_transversal(monkeypatch):
    # guard drifts at 2e-10 per unit time: crossing exists but is not
    # transversal at _TRANSVERSALITY_TOL = 1e-8
    set_constants(monkeypatch, _GUARD_TOL=1e-14)
    dom = autonomous(
        lambda x: np.array([1.0, 2e-10]),
        lambda X: X[:, 1] - 1e-10,
        2,
    )
    with pytest.raises(NonTransversal):
        flow_one(dom, [0.0, 0.0], np.zeros(0), IntegratorConfig())


def jump_guard(X):
    """Changes sign at x1 = 0.5 without passing through zero."""
    return np.where(X[:, 0] < 0.5, 1.0, -1.0)


def test_guard_without_a_root_stalls_the_refinement():
    dom = autonomous(lambda x: np.array([1.0]), jump_guard, 1)
    with pytest.raises(IntegrationError, match="refinement stalled") as exc_info:
        flow_one(dom, [0.0], np.zeros(0), IntegratorConfig())
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
        reset=lambda X: X,
        exit_chart=SectionChart(k=1, embed=lambda Y: np.insert(Y, 0, 0.0, axis=1), project=lambda X: X[:, 1:]),
    )
    system = MultiDomainSystem(domains=(dom,))
    with pytest.raises(IntegrationError, match="refinement stalled") as exc_info:
        section_step(system, 0, np.zeros((1, 1)), np.zeros((1, 0)), IntegratorConfig())
    assert exc_info.value.phase == 0

    def stalled_newton(*args, **kwargs):
        section_step(system, 0, np.zeros((1, 1)), np.zeros((1, 0)), IntegratorConfig())

    monkeypatch.setattr(poincare, "orbit_and_jacobians", stalled_newton)
    assert cli.main(["analyze", "--system", "stable-2", "-o", str(tmp_path / "j.json")]) == 3
    err = capsys.readouterr().err
    assert err == "numerical failure: phase 0: guard refinement stalled at |H| = 1.000e+00 (tolerance 1.000e-10)\n"
    assert err.count("phase 0") == 1
    assert list(tmp_path.iterdir()) == []


def test_blow_up_raises_non_finite():
    # quadratic growth overflows long before the (unreachable) guard
    dom = autonomous(lambda x: np.array([1.0 + x[0] ** 2]), lambda X: X[:, 0] - 1e300, 1)
    with pytest.raises(NonFinite):
        flow_one(dom, [1.0], np.zeros(0), IntegratorConfig(base_step=0.5))


def guard_turning(value, after):
    """The guard x1 - 1 for its first `after` calls, then `value` in every
    row, and the list of its calls."""
    calls = []

    def guard(X):
        calls.append(X.shape[0])
        return X[:, 0] - 1.0 if len(calls) <= after else np.full(X.shape[0], value)

    return guard, calls


@pytest.mark.parametrize("after", [0, 5], ids=["at-start", "mid-flow"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_guard_value_raises_non_finite_at_once(value, after):
    # The start value is the first call; the guard-rounding floor the
    # second; then one call per guard-bounded run.  The flow stops at the
    # first non-finite value instead of stepping on to the duration cap.
    guard, calls = guard_turning(value, after)
    dom = autonomous(lambda x: np.array([1.0]), guard, 1)
    with pytest.raises(NonFinite, match="guard value"):
        flow_one(dom, [0.0], np.zeros(0), IntegratorConfig())
    assert len(calls) == after + 1


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_guard_value_fails_at_its_step_in_a_batch(value):
    # Member 1's guard turns non-finite once x1 passes 0.505, inside a
    # guard-bounded run: the step from t = 0.5 to 0.51.  Its batch fails
    # there, as it does alone, and the other members flow on their own.
    def guard(X):
        return X[:, 0] - 1.0 + np.where((X[:, 1] > 0.0) & (X[:, 0] > 0.505), value, 0.0)

    dom = autonomous(lambda x: np.array([1.0, 0.0]), guard, 2)
    x0 = np.array([[0.0, -1.0], [0.0, 1.0], [0.2, -1.0]])
    cfg = IntegratorConfig()
    _, t_exit = flow_batch(dom, x0[[0, 2]], np.zeros((2, 0)), cfg)
    assert np.allclose(t_exit, [1.0, 0.8])
    with pytest.raises(NonFinite, match="guard value") as solo:
        flow_one(dom, x0[1], np.zeros(0), cfg)
    with pytest.raises(NonFinite) as batch:
        flow_batch(dom, x0, np.zeros((3, 0)), cfg)
    assert str(batch.value) == str(solo.value)
    assert str(solo.value).endswith("near t = 0.5")


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_exit_guard_rate_raises_non_finite(value):
    # The guard x1 - 1 is finite at the located exit, x1 = 1 to within
    # 1e-9, and turns non-finite just past it, where the central difference
    # of the guard rate (step 1e-7 along the field) evaluates it.  The exit
    # is not accepted: the flow raises NonFinite at the exit time, alone and
    # in a batch with a member that exits elsewhere.
    def guard(X):
        h = X[:, 0] - 1.0
        return np.where((h > 1e-9) & (h < 1e-6), value, h)

    dom = autonomous(lambda x: np.array([1.0]), guard, 1)
    cfg = IntegratorConfig()
    with pytest.raises(NonFinite, match="guard value") as solo:
        flow_one(dom, [0.0], np.zeros(0), cfg)
    assert str(solo.value).endswith("near t = 1")
    with pytest.raises(NonFinite) as batch:
        flow_batch(dom, np.array([[0.0], [-1.0]]), np.zeros((2, 0)), cfg)
    assert str(batch.value) == str(solo.value)


def test_trajectory_is_deterministic():
    a = np.array([[0.0, 1.0], [-1.0, -0.1]])
    dom = autonomous(lambda x: a @ x, lambda X: X[:, 0] - 0.4, 2)
    cfg = IntegratorConfig(base_step=3e-3)
    first = flow_one(dom, [0.0, 1.0], np.zeros(0), cfg)
    second = flow_one(dom, [0.0, 1.0], np.zeros(0), cfg)
    assert np.array_equal(first[0], second[0])
    assert first[1] == second[1]


def test_fourth_order_convergence_against_exact_flow(monkeypatch):
    a = np.array([[0.0, 1.0], [-2.0, -0.3]])
    normal = np.array([1.0, 0.4])
    dom = autonomous(lambda x: a @ x, lambda X: X @ normal - 0.8, 2)
    x0 = np.array([0.1, 1.5])

    # every step is a whole base step, so the raw scheme order is visible
    set_constants(monkeypatch, _GUARD_TOL=1e-14)
    errors = []
    for step in (4e-2, 2e-2):
        x_exit, t_exit = flow_one(dom, x0, np.zeros(0), IntegratorConfig(base_step=step))
        exact = expm(a * t_exit) @ x0
        errors.append(np.max(np.abs(x_exit - exact)))
    assert errors[0] / errors[1] > 2.0 ** 3.5


def test_guard_residual_within_tolerance(stable3, cfg_fast):
    for i, phase in enumerate(stable3.phases):
        dom = stable3.system.domains[i]
        x_exit, _ = flow_batch(dom, phase.start_state[None], np.zeros((1, 3)), cfg_fast)
        assert abs(dom.guard(x_exit)[0]) <= integrator._GUARD_TOL


def test_replacing_the_guard_moves_the_exit(stable3, cfg_fast):
    # A domain has one guard, so dataclasses.replace cannot leave a stale
    # twin behind for the kernel to run: the exit moves with the new guard,
    # here the plane halfway between the start and the catalog guard.
    phase, dom = stable3.phases[0], stable3.system.domains[0]
    n, d = phase.guard_normal, phase.guard_offset
    x0, betas = phase.start_state[None], np.zeros((1, 3))
    gap = float(phase.start_state @ n - d)
    halfway = replace(dom, guard=lambda X: (X * n).sum(axis=1) - d - 0.5 * gap)
    x_exit, t_exit = flow_batch(dom, x0, betas, cfg_fast)
    x_half, t_half = flow_batch(halfway, x0, betas, cfg_fast)
    assert abs(x_exit[0] @ n - d) <= 1e-9
    assert abs(x_half[0] @ n - d - 0.5 * gap) <= 1e-9
    assert t_half[0] < t_exit[0]


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
        guard=lambda X: np.ones(len(X)),  # never crossed
        reset=broken.reset,
        exit_chart=broken.exit_chart,
    )
    system = type(stable2.system)(domains=(stable2.system.domains[0], dom))
    with pytest.raises(NoCrossing) as exc_info:
        simulate_cycle(system, None, stable2.orbit.fixed_points[-1], 1, cfg_fast)
    assert exc_info.value.phase == 1
    assert "phase 1" in str(exc_info.value)

    # In a stack one failing member raises for the whole stack, as it
    # raises alone: here the reset into phase 1 sends every state more than
    # 1e-3 from the orbit's to NaN, which only the kicked member is.
    x_star = stable2.orbit.fixed_points[-1]
    kicked = x_star + 1e-2 * np.array([0.6, 0.8])
    exit_0 = stable2.system.chart(0).embed(stable2.orbit.fixed_points[0][None])
    reset = stable2.system.domains[0].reset
    poisoned = replace(
        stable2.system.domains[0],
        reset=lambda X: np.where(np.abs(X - exit_0).max(axis=1, keepdims=True) > 1e-3, np.nan, reset(X)),
    )
    system = MultiDomainSystem(domains=(poisoned, stable2.system.domains[1]))
    clean = simulate_cycle(stable2.system, None, x_star, 1, cfg_fast)[0]
    assert np.array_equal(simulate_cycle(system, None, x_star, 1, cfg_fast)[0], clean)
    with pytest.raises(NonFinite) as solo:
        simulate_cycle(system, None, kicked, 1, cfg_fast)
    with pytest.raises(NonFinite) as stack:
        simulate_cycle(system, None, np.vstack([x_star, kicked]), 1, cfg_fast)
    assert stack.value.phase == solo.value.phase == 1
    assert str(stack.value) == str(solo.value)
    assert str(stack.value).startswith("phase 1: ")


def test_simulate_cycle_refuses_bad_starts_and_cycle_counts(stable2, cfg_fast):
    x_star = stable2.orbit.fixed_points[-1]
    for start in (x_star[:1], np.zeros(3), np.zeros((4, 3)), x_star[None, None], np.float64(1.0)):
        expected = f"start has shape {np.shape(start)}, expected (2,) or (B, 2)"
        with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
            simulate_cycle(stable2.system, None, start, 1, cfg_fast)
    for n_cycles in (-1, 1.0, 2.5, "1", None):
        with pytest.raises(ValueError, match="^n_cycles must be a nonnegative integer"):
            simulate_cycle(stable2.system, None, x_star, n_cycles, cfg_fast)
    assert simulate_cycle(stable2.system, None, x_star, np.int64(0), cfg_fast) == []


@pytest.mark.parametrize("name", CATALOG)
def test_stacked_cycles_match_one_start_runs_bit_for_bit(name):
    # Each row of a stacked run is its one-start run, open loop and with a
    # DLQR law (symmetric on uncoupled-2, whose DLQR design fails), at
    # every stack size.
    model = from_catalog(name)
    cfg = IntegratorConfig()
    x_star = model.orbit.fixed_points[-1]
    starts = x_star + 1e-3 * np.random.default_rng(30).uniform(-1.0, 1.0, size=(25, x_star.size))
    design = synthesis.symmetric_matrix_gains if name == "uncoupled-2" else synthesis.dlqr_gains
    closed = FeedbackLaw(gains=tuple(design(model.jacobians).gains), orbit=model.orbit)
    for law in (None, closed):
        solo = [simulate_cycle(model.system, law, x, 2, cfg) for x in starts]
        for n_starts in (1, 2, 11, 25):
            stacked = simulate_cycle(model.system, law, starts[:n_starts], 2, cfg)
            for cycle, Y in enumerate(stacked):
                assert Y.shape == (n_starts, x_star.size)
                for row, runs in zip(Y, solo):
                    assert np.array_equal(row, runs[cycle])


def test_config_validation():
    for bad in (-1.0, 0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            IntegratorConfig(base_step=bad)
    # A step too small to move the phase clock off _MAX_PHASE_DURATION
    # could never reach it: half an ulp of 50 rounds back to 50.
    half_ulp = np.spacing(integrator._MAX_PHASE_DURATION) / 2.0
    for tiny in (1e-300, half_ulp):
        with pytest.raises(ValueError, match="too small"):
            IntegratorConfig(base_step=tiny)
    IntegratorConfig(base_step=np.nextafter(half_ulp, 1.0))
    # The tolerances are module constants, not options.
    for name in ("guard_tol", "min_phase_duration", "max_phase_duration",
                 "transversality_tol", "guard_step_fraction", "max_step_splits"):
        with pytest.raises(TypeError):
            IntegratorConfig(**{name: 1.0})


def catalog_model(request, name):
    if name == "rebuilt":
        return synthetic_from_obj(synthetic_to_obj(request.getfixturevalue("stable3")))
    return request.getfixturevalue(name.replace("-", ""))


def lifted(domain):
    """The same domain without its batch field: the row-by-row fallback."""
    return replace(domain, batch_field=None)


@pytest.mark.parametrize("base_step", [5e-3, 5e-2], ids=["base-steps", "coarse-steps"])
@pytest.mark.parametrize("name", CATALOG + ("rebuilt",))
def test_batch_members_match_solo_and_lifted_runs(request, name, base_step):
    cfg = IntegratorConfig(base_step=base_step)
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
            x_solo, t_solo = flow_one(dom, x0[b], betas[b], cfg)
            assert np.array_equal(x_exit[b], x_solo)
            assert t_exit[b] == t_solo


@pytest.mark.parametrize("name", CATALOG + ("unstable-3", "rebuilt"))
def test_affine_field_keeps_the_bits_of_the_stacked_lambda(request, name):
    # The catalog field was the lambda x: x.dot(M') + betas @ (G W)'; as an
    # AffineField it gives the same bits for every stack size.
    model = catalog_model(request, name)
    rng = np.random.default_rng(17)
    for ph, dom in zip(model.phases, model.system.domains):
        drift_t = np.ascontiguousarray(ph.drift.T)
        coupling_t = np.ascontiguousarray((ph.input_map @ ph.beta_coupling).T)
        for n_members in (1, 11):
            x = rng.normal(size=(n_members, 3))
            betas = rng.normal(size=(n_members, 3))
            field = dom.batch_field(betas)
            assert isinstance(field, AffineField)
            assert np.array_equal(field(x), x.dot(drift_t) + betas @ coupling_t)
    misshaped = [(np.ones((3, 2)), np.ones((1, 3))), (np.eye(3), np.ones(3)), (np.eye(3), np.ones((1, 2)))]
    for drift, control in misshaped:
        with pytest.raises(ValueError, match="has shape"):
            AffineField(drift, control)


@pytest.mark.parametrize("name", CATALOG + ("unstable-3", "rebuilt"))
def test_affine_guard_keeps_the_bits_of_the_catalog_lambda(request, name):
    # The catalog guard was the lambda (x * n).sum(axis=1) - d; as an
    # AffineGuard it gives the same bits on one row, on a stack and on the
    # (L B, m) rows of an 11-member run of 64 steps.  A normal that is not a finite
    # vector, or an offset that is not finite, is refused.
    model = catalog_model(request, name)
    rng = np.random.default_rng(19)
    for ph, dom in zip(model.phases, model.system.domains):
        assert isinstance(dom.guard, AffineGuard)
        for n_rows in (1, 11, 11 * integrator._MAX_RUN):
            x = ph.start_state + rng.normal(size=(n_rows, 3))
            assert np.array_equal(dom.guard(x), (x * ph.guard_normal).sum(axis=1) - ph.guard_offset)
    refused = [(np.ones((1, 3)), 0.0), (1.0, 0.0), ([1.0, np.nan, 0.0], 0.0), ([np.inf, 0.0], 0.0),
               ([1.0, 0.0], np.nan), ([1.0, 0.0], -np.inf)]
    for normal, offset in refused:
        with pytest.raises(ValueError, match=r"^(normal must be a finite 1-D vector|offset must be finite)"):
            AffineGuard(normal, offset)


def test_an_affine_guard_flow_takes_no_finite_difference(stable3, monkeypatch):
    # Ten closed-loop stable-3 cycles read every guard gradient from the
    # normal.  The same guards hidden in lambdas take the central
    # difference and the stage-form crossing search, so the states move by
    # rounding alone: at most 6.7e-16 on states of about 1.26.
    gains = synthesis.dlqr_gains(list(stable3.jacobians))
    law = FeedbackLaw(gains=tuple(gains.gains), orbit=stable3.orbit)
    x0 = stable3.orbit.fixed_points[-1] + 1e-2 * np.array([0.6, 0.8])
    cfg = IntegratorConfig(base_step=2e-3)
    calls = []

    def spy(*args, **kwargs):
        calls.append(args[1].shape)
        return central_difference(*args, **kwargs)

    monkeypatch.setattr(integrator, "central_difference", spy)
    states = simulate_cycle(stable3.system, law, x0, 10, cfg)
    assert calls == []
    hidden = MultiDomainSystem(
        domains=tuple(replace(dom, guard=lambda X, g=dom.guard: g(X)) for dom in stable3.system.domains)
    )
    hidden_states = simulate_cycle(hidden, law, x0, 10, cfg)
    assert len(calls) >= 30  # at least the start check of each flow
    assert max(np.max(np.abs(a - b)) for a, b in zip(states, hidden_states)) <= 1e-14


@pytest.mark.parametrize("base_step", [5e-3, 2e-3, 1e-2, 5e-2])
@pytest.mark.parametrize("name", CATALOG)
def test_catalog_transition_flows_match_stage_form_flows(request, name, base_step):
    # A catalog flow advances over horizons of RK4's exact transition, the
    # lifted domain by the stage form: the same method, apart in rounding
    # alone.  The exits differed by at most 2.0e-15 relative in the state
    # and 2.7e-15 in the time (2.1e-15 and 2.9e-15 with 64-step blocks,
    # 7.1e-16 and 5.6e-16 with one transition step at a time).
    cfg = IntegratorConfig(base_step=base_step)
    model = catalog_model(request, name)
    rng = np.random.default_rng(19)
    for i, phase in enumerate(model.phases):
        dom = model.system.domains[i]
        x0 = phase.start_state + 1e-2 * rng.normal(size=(11, dom.state_dim))
        betas = 5e-2 * rng.normal(size=(11, dom.param_dim))
        x_exit, t_exit = flow_batch(dom, x0, betas, cfg)
        x_lift, t_lift = flow_batch(lifted(dom), x0, betas, cfg)
        assert np.max(np.abs(x_exit - x_lift)) <= 1e-13 * np.max(np.abs(x_lift))
        assert np.max(np.abs(t_exit - t_lift)) <= 1e-13


def test_affine_crossings_anywhere_in_a_horizon_match_the_stage_form():
    # x1 moves at unit speed to the guard x1 = 1, which RK4 integrates
    # exactly, while x2 follows x2' = 0.3 x1 - 0.5 x2 + 0.2.  The members
    # cross inside steps 0, 1 and 2 of the first horizon, in its last step,
    # and in steps 0 and 1 of the second and third: each exits within 1e-12
    # of t = 1 - x1(0), as its solo flow does, and within 1e-12 of the
    # stage-form flow (1.5e-13 at t = 10.25, where the stage form has added
    # the step 1025 times).
    drift = np.array([[0.0, 0.0], [0.3, -0.5]])
    dom = replace(
        autonomous(lambda x: drift @ x + [1.0, 0.2], AffineGuard([1.0, 0.0], 1.0), 2),
        batch_field=lambda betas: AffineField(drift, np.tile([1.0, 0.2], (len(betas), 1))),
    )
    cfg = IntegratorConfig()
    horizon = integrator._horizon(dom.batch_field(np.zeros((1, 0))), dom.guard, cfg.base_step)[0].table.shape[1] // 2
    steps = [0, 1, 2, horizon - 1, horizon, horizon + 1, 2 * horizon, 2 * horizon + 1]
    t_cross = (np.array(steps) + 0.5) * cfg.base_step
    x0 = np.column_stack([1.0 - t_cross, np.linspace(-1.0, 1.0, len(steps))])
    x_exit, t_exit = flow_batch(dom, x0, np.zeros((len(steps), 0)), cfg)
    x_lift, t_lift = flow_batch(lifted(dom), x0, np.zeros((len(steps), 0)), cfg)
    assert np.max(np.abs(t_exit - t_cross)) < 1e-12
    assert np.max(np.abs(t_exit - t_lift)) < 1e-12 and np.max(np.abs(x_exit - x_lift)) < 1e-12
    for b in range(len(steps)):
        x_solo, t_solo = flow_one(dom, x0[b], np.zeros(0), cfg)
        assert np.array_equal(x_exit[b], x_solo) and t_exit[b] == t_solo


def test_an_overflowing_transition_power_cuts_the_block():
    # With Z = 50 on the first axis, R^j overflows near j = 57.  The start
    # has no component along that axis, so the stage form stays finite, and
    # so must the horizon: a full 64-step table gave 0 * inf = NaN and raised
    # NonFinite near t = 2.8.  The exit is x2 = 0.5, at t = ln(2) / 0.2.
    a = np.diag([1000.0, -0.2])
    dom = replace(
        autonomous(lambda x: a @ x, lambda X: X[:, 1] - 0.5, 2),
        batch_field=lambda betas: AffineField(a, np.zeros((len(betas), 2))),
    )
    cfg = IntegratorConfig(base_step=0.05)
    x_exit, t_exit = flow_one(dom, [0.0, 1.0], np.zeros(0), cfg)
    x_lift, t_lift = flow_one(lifted(dom), [0.0, 1.0], np.zeros(0), cfg)
    assert abs(t_exit - 3.4657359) < 1e-7
    assert abs(t_exit - t_lift) <= 1e-13
    assert np.max(np.abs(x_exit - x_lift)) <= 1e-13
    with np.errstate(over="ignore", invalid="ignore"):
        table = integrator._horizon(dom.batch_field(np.zeros((1, 0))), dom.guard, cfg.base_step)[0].table
    assert np.isfinite(table).all() and 1 <= table.shape[1] // 2 < integrator._HORIZON


def test_an_affine_flow_screens_its_horizon_and_builds_it_only_when_it_must(monkeypatch, stable3):
    # A flow of 373 steps at 2e-3, the crossing step included, screens one
    # horizon: its guard calls are the start value and the crossing's |H|,
    # and it builds no horizon.  The counters patch AffineGuard.__call__ and
    # spy on _block, so the guard keeps its type.  The same guard hidden in
    # a lambda builds the horizon once, and so does a member whose state
    # is 1e301, where the bound cannot rule out overflow; its stack-mate is
    # still screened, and both exit as they do alone.
    dom = stable3.system.domains[0]
    x0, cfg = stable3.phases[0].start_state, IntegratorConfig(base_step=2e-3)
    steps = len(reference_flow(lifted(dom), x0, np.zeros(3), cfg)[0]) - 1
    guard_calls, blocks = [], []
    guard_call, block = AffineGuard.__call__, integrator._block

    def counted_guard(self, X):
        guard_calls.append(len(X))
        return guard_call(self, X)

    def spied_block(table, s, guard, side, x):
        blocks.append(len(x))
        return block(table, s, guard, side, x)

    monkeypatch.setattr(AffineGuard, "__call__", counted_guard)
    monkeypatch.setattr(integrator, "_block", spied_block)
    flow_one(dom, x0, np.zeros(3), cfg)
    assert steps == 373 < integrator._HORIZON
    assert guard_calls == [1, 1] and blocks == []
    flow_one(replace(dom, guard=lambda X: dom.guard(X)), x0, np.zeros(3), cfg)
    assert blocks == [1]

    blocks.clear()
    # The guard x1 = 1e287 is 1e287 from each far start, past its rounding
    # floor: 8.9e-16 at [0, 1e301], whose entry 1e301 H does not see, and
    # 4.4e271 at [5e286, 0].
    far = replace(
        autonomous(lambda x: np.array([1e287, 0.0]), AffineGuard([1.0, 0.0], 1e287), 2),
        batch_field=lambda betas: AffineField(np.zeros((2, 2)), np.tile([1e287, 0.0], (len(betas), 1))),
    )
    x0 = np.array([[0.0, 1e301], [5e286, 0.0]])
    x_exit, t_exit = flow_batch(far, x0, np.zeros((2, 0)), IntegratorConfig())
    assert blocks == [1]
    assert abs(t_exit[0] - 1.0) < 1e-12 and abs(t_exit[1] - 0.5) < 1e-12
    for b in range(2):
        x_solo, t_solo = flow_one(far, x0[b], np.zeros(0), IntegratorConfig())
        assert np.array_equal(x_exit[b], x_solo) and t_exit[b] == t_solo
    assert blocks == [1, 1]


def test_a_stage_search_member_stops_as_it_does_alone():
    # The lambda field (1, 0) and guard x0^3 - 0.2 + (x1 - 1e6) take the
    # stacked stage-form search.  x1 stays 1e6, so H is x0^3 - 0.2 bit for
    # bit, and its rounding floor, 8.9e-10, is above _GUARD_TOL.  Beside
    # [0, 1e6] the member [0.042, 1e6] used to stop once [0, 1e6] came
    # within _GUARD_TOL, at t = 0.5428035475396409 against 0.5428035476425731
    # alone.  Each member now stops within min(_GUARD_TOL, its floor).
    dom = autonomous(lambda x: np.array([1.0, 0.0]), lambda X: X[:, 0] ** 3 - 0.2 + (X[:, 1] - 1e6), 2)
    cfg = IntegratorConfig(base_step=0.1)
    x0 = np.array([[0.042, 1e6], [0.0, 1e6]])
    x_exit, t_exit = flow_batch(dom, x0, np.zeros((2, 0)), cfg)
    for b in range(2):
        x_solo, t_solo = flow_one(dom, x0[b], np.zeros(0), cfg)
        assert np.array_equal(x_exit[b], x_solo) and t_exit[b] == t_solo
    assert t_exit[0] == 0.5428035476425731


def reference_flow(domain, x0, beta, cfg):
    """The one-member flow written as a plain scalar loop, stepped by
    textbook_rk4 and not by the package's RK4: accepted times and states,
    the refined crossing last.  Checks are left out.  The integrator
    constants are read at call time, as the kernel reads them."""
    f = domain.vector_field(beta)

    def H(x):
        return float(domain.guard(x[None])[0])

    def rounding_floor(x):
        # _FLOOR_ULPS ulps of sum_j |dH/dx_j| max(1, |x_j|), the gradient
        # by central differences of relative step 1e-7
        total = 0.0
        for j in range(x.size):
            e = np.zeros(x.size)
            e[j] = 1e-7 * max(1.0, abs(float(x[j])))
            total += abs((H(x + e) - H(x - e)) / 2e-7)
        return integrator._FLOOR_ULPS * np.finfo(float).eps * total

    h0 = H(x0)
    side = 1.0 if h0 > 0.0 else -1.0
    times, states = [0.0], [x0.copy()]
    t, x, h_val, step = 0.0, x0, h0, cfg.base_step
    while True:
        x_next = textbook_rk4(f, x, step)
        h_next = H(x_next)
        if h_next * side < 0.0 or abs(h_next) <= integrator._GUARD_TOL:
            # Illinois regula falsi on the step fraction, until the end with
            # the smaller |H| is within the rounding floor of H at x_next,
            # worked out once that end is within _GUARD_TOL, or the bracket
            # is 4 ulps wide; a secant root that rounds onto an end becomes
            # the midpoint
            lo, hi, g_lo, g_hi = 0.0, step, side * h_val, side * h_next
            x_lo, x_hi, last, floor = x, x_next, 0, None
            for _ in range(integrator._REFINE_MAX_ITER):
                if not (g_hi < 0.0 and hi - lo > 4 * np.finfo(float).eps * step):
                    break
                h_best = min(abs(H(x_lo)), abs(H(x_hi)))
                if floor is None and h_best <= integrator._GUARD_TOL:
                    floor = rounding_floor(x_next)
                if floor is not None and h_best <= floor:
                    break
                tau = min(max(lo + (hi - lo) * (g_lo / (g_lo - g_hi)), lo), hi)
                if tau in (lo, hi):
                    tau = 0.5 * (lo + hi)
                x_tau = textbook_rk4(f, x, tau)
                g_tau = side * H(x_tau)
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
            if abs(H(x_hi)) <= abs(H(x_lo)):
                return np.array(times + [t + hi]), np.array(states + [x_hi])
            return np.array(times + [t + lo]), np.array(states + [x_lo])
        t, x, h_val = t + step, x_next, h_next
        times.append(t)
        states.append(x)


@pytest.mark.parametrize("base_step", [5e-3, 2e-3, 5e-2], ids=["base-steps", "long-runs", "coarse-steps"])
def test_single_flow_equals_the_scalar_reference_loop(stable3, base_step):
    cfg = IntegratorConfig(base_step=base_step)
    rng = np.random.default_rng(5)
    for i, phase in enumerate(stable3.phases):
        dom = lifted(stable3.system.domains[i])
        for _ in range(3):
            x0 = phase.start_state + 1e-2 * rng.normal(size=3)
            beta = 5e-2 * rng.normal(size=3)
            times, states = reference_flow(dom, x0, beta, cfg)
            x_exit, t_exit = flow_one(dom, x0, beta, cfg)
            assert np.array_equal(x_exit, states[-1])
            assert np.array_equal(t_exit, times[-1])


# Guards whose rate grows in the middle of a run: an exponential approach
# (x' = x towards x = 1e3) and a growing spiral whose guard value swings
# through its range many times before the crossing.
SPIRAL = np.array([[0.05, 1.0], [-1.0, 0.05]])
ACCELERATING = {
    "exponential": (
        autonomous(lambda x: x, lambda X: X[:, 0] - 1e3, 1),
        np.array([1.0]),
        IntegratorConfig(base_step=1e-2),
    ),
    "spiral": (
        autonomous(lambda x: SPIRAL @ x, lambda X: X[:, 0] - 2.0, 2),
        np.array([1.0, 0.0]),
        IntegratorConfig(base_step=2e-2),
    ),
}


@pytest.mark.parametrize("name", ACCELERATING)
def test_runs_under_a_changing_guard_rate_equal_the_scalar_reference_loop(name):
    dom, x0, cfg = ACCELERATING[name]
    times, states = reference_flow(dom, x0, np.zeros(0), cfg)
    x_exit, t_exit = flow_one(dom, x0, np.zeros(0), cfg)
    assert times.size > 500
    assert np.array_equal(x_exit, states[-1])
    assert np.array_equal(t_exit, times[-1])


def test_fields_that_return_their_input_or_a_kept_array_flow_as_the_textbook_steps():
    # The RK4 core updates only arrays it made itself.  A batch field may
    # return its input, here a stage input of the core, or an array it
    # keeps; both flows equal the textbook reference loop, and the kept
    # array is not written.
    kept = np.array([[0.3, -1.2, 2.5]])
    snapshot = kept.copy()
    flows = [  # the field of one state, the batch field, the guard, the start
        (lambda x: x, lambda x: x, lambda X: X[:, 0] - 1e3, np.array([1.0, 0.5, -2.0])),
        (lambda x: kept[0], lambda x: kept, lambda X: X[:, 0] - 1.0, np.zeros(3)),
    ]
    cfg = IntegratorConfig()
    for field, batch, guard, x0 in flows:
        dom = replace(autonomous(field, guard, 3), batch_field=lambda betas, batch=batch: batch)
        times, states = reference_flow(dom, x0, np.zeros(0), cfg)
        x_exit, t_exit = flow_one(dom, x0, np.zeros(0), cfg)
        assert times.size > 300
        assert np.array_equal(x_exit, states[-1])
        assert np.array_equal(t_exit, times[-1])
        assert np.array_equal(kept, snapshot)


def test_a_run_that_reaches_the_guard_is_accepted_in_part(monkeypatch):
    # The guard is flat at 1 until x = 0.5, so its rate reads 0 and runs take
    # 64 steps; then it falls through a root at x = 0.52 inside a run.  The
    # steps before the crossing step are accepted, the rest of that run is
    # dropped, and the flow still equals the scalar reference loop.
    def flat_then_falling(X):
        return np.minimum(1.0, 1.0 - 50.0 * (X[:, 0] - 0.5))

    dom = autonomous(lambda x: np.array([1.0]), flat_then_falling, 1)
    cfg = IntegratorConfig()
    runs = []
    run = integrator._run

    def recorded_run(step, guard, x, side, n):
        xs, g = run(step, guard, x, side, n)
        runs.append((x.copy(), xs))
        return xs, g

    monkeypatch.setattr(integrator, "_run", recorded_run)
    times, states = reference_flow(dom, np.array([0.0]), np.zeros(0), cfg)
    x_exit, t_exit = flow_one(dom, [0.0], np.zeros(0), cfg)
    assert np.array_equal(x_exit, states[-1])
    assert np.array_equal(t_exit, times[-1])
    assert abs(t_exit - 0.52) < 1e-12
    # A run is accepted in part when the next one starts from one of its
    # states other than the last.
    assert any(
        any(np.array_equal(start, state) for state in xs[:-1])
        for (_, xs), (start, _) in zip(runs, runs[1:])
    )


def test_runs_stop_at_the_phase_duration_cap(monkeypatch, rk4_calls):
    # The jump guard keeps g = 1 until x1 = 0.5, so its rate reads 0 and
    # runs take the most steps.  Every step is a whole base step, and the
    # flow stops at the first that ends at or past the cap, 0.45 or 0.455:
    # 46 steps reach 0.46, and no run steps on from there.
    dom = autonomous(lambda x: np.array([1.0]), jump_guard, 1)
    cfg = IntegratorConfig()
    for cap in (0.45, 0.455):
        set_constants(monkeypatch, _MAX_PHASE_DURATION=cap)
        rk4_calls.clear()
        with pytest.raises(NoCrossing):
            flow_one(dom, [0.0], np.zeros(0), cfg)
        assert all(np.all(np.asarray(h) == cfg.base_step) for h in rk4_calls)
        assert len(rk4_calls) <= 46
        # An affine horizon runs on to 5.12, past the jump at 0.5.  The flow
        # still stops at the cap and does not refine the crossing at the
        # jump, which would stall.
        unit = replace(dom, batch_field=lambda betas: AffineField(np.zeros((1, 1)), np.ones((len(betas), 1))))
        with pytest.raises(NoCrossing):
            flow_one(unit, [0.0], np.zeros(0), cfg)


@pytest.mark.parametrize("name", CATALOG + ("unstable-3", "rebuilt"))
def test_synthetic_batch_callables_match_scalar_ones(request, name):
    model = catalog_model(request, name)
    rng = np.random.default_rng(11)
    for dom in model.system.domains:
        x = rng.normal(size=(6, dom.state_dim))
        betas = rng.normal(size=(6, dom.param_dim))
        rows = dom.batch_field(betas)(x)
        assert rows.shape == x.shape
        for b in range(6):
            scalar = dom.drift(x[b]) + dom.input_map(x[b]) @ dom.controller(x[b], betas[b])
            assert np.max(np.abs(rows[b] - scalar)) <= 1e-12


@pytest.mark.parametrize("name", CATALOG + ("unstable-3", "rebuilt"))
def test_catalog_field_rows_do_not_depend_on_the_batch_size(request, name):
    # Members of a batch flow must take the bits of their solo flows, so
    # the field, the reset and the chart maps must not take a different
    # product path for a stack of rows.
    model = catalog_model(request, name)
    rng = np.random.default_rng(13)
    for dom in model.system.domains:
        chart = dom.exit_chart
        for n_members in (1, 2, 11, 25):
            x = rng.normal(size=(n_members, dom.state_dim))
            y = rng.normal(size=(n_members, chart.k))
            betas = rng.normal(size=(n_members, dom.param_dim))
            maps = (
                lambda rows: dom.batch_field(betas[rows])(x[rows]),
                lambda rows: dom.reset(x[rows]),
                lambda rows: chart.embed(y[rows]),
                lambda rows: chart.project(x[rows]),
            )
            for fn in maps:
                stack = fn(slice(None))
                assert len(stack) == n_members
                for b in range(n_members):
                    assert np.array_equal(stack[b], fn(slice(b, b + 1))[0])


@pytest.mark.parametrize("name", CATALOG + ("unstable-3", "rebuilt"))
def test_catalog_block_rows_do_not_depend_on_the_batch_size(request, name):
    # A horizon's screened guard values, and its built states and guard
    # values, are for a member those of its one-row horizon, bit for bit,
    # at every stack size; y.dot(table) in place of the batched matmul
    # failed this for most rows.
    model = catalog_model(request, name)
    rng = np.random.default_rng(23)
    for ph, dom in zip(model.phases, model.system.domains):
        for base_step in (2e-3, 1e-2):
            for n_members in (1, 2, 11, 25):
                x = ph.start_state + 1e-2 * rng.normal(size=(n_members, dom.state_dim))
                betas = 5e-2 * rng.normal(size=(n_members, dom.param_dim))
                side = np.where(rng.normal(size=n_members) > 0.0, 1.0, -1.0)

                def horizon(rows):
                    tr, s = integrator._horizon(dom.batch_field(betas[rows]), dom.guard, base_step)
                    y = np.concatenate([x[rows], s], axis=1)
                    screen = integrator._screen(tr.proj, side[rows], side[rows] * dom.guard(x[rows]), y)
                    return (screen,) + integrator._block(tr.table, s, dom.guard, side[rows], x[rows])

                screen, states, g = horizon(slice(None))
                assert states.shape == (n_members, integrator._HORIZON, dom.state_dim)
                assert screen.shape == g.shape == (n_members, integrator._HORIZON)
                for b in range(n_members):
                    for stack, solo in zip((screen, states, g), horizon(slice(b, b + 1))):
                        assert np.array_equal(stack[b], solo[0])


@pytest.mark.parametrize("name", CATALOG)
def test_the_screen_is_the_guard_at_the_built_states(request, name):
    # On every catalog phase the screened g_j = g(x) + side * [x, s] . P_j
    # lies within the rounding margin that _screen states of side * H at
    # the built state x + [x, s] T_j: (5m + 3) eps (|n| . (|x| + |y| |T_j|)
    # + |d|).  The worst was 0.17 of the margin.
    model = catalog_model(request, name)
    rng = np.random.default_rng(41)
    eps = np.finfo(float).eps
    for base_step in (2e-3, 1e-2, 5e-2):
        for phase, dom in zip(model.phases, model.system.domains):
            guard, m = dom.guard, dom.state_dim
            for n_rows in (1, 11, 704):
                x = phase.start_state + 1e-2 * rng.normal(size=(n_rows, m))
                betas = 5e-2 * rng.normal(size=(n_rows, dom.param_dim))
                tr, s = integrator._horizon(dom.batch_field(betas), guard, base_step)
                table = tr.table
                side = np.where(guard(x) > 0.0, 1.0, -1.0)
                y = np.concatenate([x, s], axis=1)
                screen = integrator._screen(tr.proj, side, side * guard(x), y)
                states, g = integrator._block(table, s, guard, side, x)
                assert g.shape == screen.shape == (n_rows, table.shape[1] // m)
                size = np.matmul(np.abs(y)[:, None, :], np.abs(table)).reshape(n_rows, -1, m) + np.abs(x)[:, None]
                margin = (5 * m + 3) * eps * ((size * np.abs(guard.normal)).sum(axis=2) + abs(guard.offset))
                assert np.all(np.abs(screen - g) <= margin)


def test_equal_drifts_share_one_read_only_transition_table():
    # The entry is cached by the drift's values: distinct arrays of equal
    # values, with other control rows, share one entry object.  Every array
    # of it is read-only; the cap index is an int.
    drift = np.array([[0.05, 1.0], [-1.0, 0.05]])
    guard = AffineGuard([1.0, 0.0], 0.5)
    first = AffineField(drift, np.zeros((1, 2)))
    second = AffineField(drift.copy(), np.ones((3, 2)))
    tr, s = integrator._horizon(first, guard, 1e-2)
    assert integrator._horizon(second, AffineGuard(guard.normal.copy(), 2.0), 1e-2)[0] is tr
    assert integrator._horizon(first, guard, 2e-2)[0].table is not tr.table
    assert tr.table.shape == (4, 2 * integrator._HORIZON) and tr.proj.shape == (4, integrator._HORIZON)
    assert tr.clock.shape == (integrator._HORIZON + 1,) and tr.quartic.shape == (2, 4)
    assert s.shape == (1, 2) and s.flags.writeable
    entry = integrator._transition(1e-2, drift.shape, drift.tobytes(), guard.normal.tobytes())
    assert entry is tr
    for array in entry:
        if isinstance(array, int):
            assert array == tr.cap == integrator._HORIZON + 1  # 5.12 is short of the cap
            continue
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[(0,) * array.ndim] = 0.0
    hidden = integrator._horizon(first, lambda X: guard(X), 1e-2)[0]
    assert np.array_equal(hidden.table, tr.table) and hidden.proj is hidden.weight is hidden.quartic is None


@pytest.mark.parametrize("base_step", [2e-3, 1e-2, 5e-2, 0.3])
def test_the_cached_clock_is_the_clock_of_stepping(base_step):
    # The first horizon's step start times are those of adding the base
    # step one step at a time, bit for bit, and its cap index is the first
    # step that starts at or past 50; a horizon that never reaches 50 has
    # the cap index L + 1.
    field = AffineField(np.array([[0.05, 1.0], [-1.0, 0.05]]), np.zeros((1, 2)))
    tr = integrator._horizon(field, AffineGuard([1.0, 0.0], 0.5), base_step)[0]
    t, clock = 0.0, [0.0]
    for _ in range(integrator._HORIZON):
        t += base_step
        clock.append(t)
    assert tr.clock.tolist() == clock
    assert tr.cap == next((j for j, t in enumerate(clock) if t >= integrator._MAX_PHASE_DURATION), len(clock))
    assert (tr.cap <= integrator._HORIZON) == (base_step == 0.3)


@pytest.mark.parametrize("name", CATALOG)
def test_the_cached_quartic_table_is_the_per_flow_formula(request, name):
    # The quartic table [n, M'n, M'^2 n, M'^3 n] / [1, 2, 6, 24] of each
    # catalog phase equals, bit for bit, the table made from the field's
    # drift and the guard's normal at each crossing before it was cached.
    model = catalog_model(request, name)
    for dom in model.system.domains:
        f = dom.batch_field(np.zeros((1, dom.param_dim)))
        powers = [dom.guard.normal]
        for _ in range(3):
            powers.append(powers[-1].dot(f.drift))
        table = np.column_stack(powers) / [1.0, 2.0, 6.0, 24.0]
        for base_step in (2e-3, 1e-2, 5e-2):
            assert np.array_equal(integrator._horizon(f, dom.guard, base_step)[0].quartic, table)


def test_a_drift_mutated_in_place_gets_a_fresh_table():
    drift = np.array([[0.05, 1.0], [-1.0, 0.05]])
    dom = replace(
        autonomous(lambda x: drift @ x, lambda X: X[:, 0] - 0.5, 2),
        batch_field=lambda betas: AffineField(drift, np.zeros((len(betas), 2))),
    )
    cfg = IntegratorConfig(base_step=1e-2)
    before = flow_one(dom, [0.0, 1.0], np.zeros(0), cfg)
    old_table = integrator._horizon(dom.batch_field(np.zeros((1, 0))), dom.guard, cfg.base_step)[0].table
    drift[0, 1] = 2.0
    after = flow_one(dom, [0.0, 1.0], np.zeros(0), cfg)
    assert integrator._horizon(dom.batch_field(np.zeros((1, 0))), dom.guard, cfg.base_step)[0].table is not old_table
    assert after[1] != before[1]
    integrator._transition.cache_clear()
    uncached = flow_one(dom, [0.0, 1.0], np.zeros(0), cfg)
    assert np.array_equal(after[0], uncached[0]) and after[1] == uncached[1]


@pytest.mark.parametrize("name", CATALOG)
def test_catalog_flows_from_the_cache_equal_uncached_flows(request, name):
    cfg = IntegratorConfig(base_step=1e-2)
    model = catalog_model(request, name)
    rng = np.random.default_rng(29)
    for i, phase in enumerate(model.phases):
        dom = model.system.domains[i]
        x0 = phase.start_state + 1e-2 * rng.normal(size=(11, dom.state_dim))
        betas = 5e-2 * rng.normal(size=(11, dom.param_dim))
        integrator._transition.cache_clear()
        uncached = flow_batch(dom, x0, betas, cfg)
        cached = flow_batch(dom, x0, betas, cfg)
        info = integrator._transition.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        assert all(np.array_equal(a, b) for a, b in zip(uncached, cached))


def test_a_closed_loop_run_builds_one_table_per_phase(stable3):
    # Ten cycles of the three stable-3 phases make 30 flows and 3 tables.
    gains = synthesis.dlqr_gains(list(stable3.jacobians))
    law = FeedbackLaw(gains=tuple(gains.gains), orbit=stable3.orbit)
    x0 = stable3.orbit.fixed_points[-1] + 1e-2 * np.array([0.6, 0.8])
    integrator._transition.cache_clear()
    simulate_cycle(stable3.system, law, x0, 10, IntegratorConfig(base_step=2e-3))
    info = integrator._transition.cache_info()
    assert (info.misses, info.hits) == (3, 27)


def stacked_exit_crossing(f, guard, x_from, t_from, step, side, g_from, x_to, g_to):
    """_exit_crossing as it was with the two bracket ends stacked as (2, B)
    arrays, rebuilt under masks on every iteration: the reference that the
    in-place refinement must equal bit for bit."""
    members = np.arange(x_from.shape[0])
    width = 4.0 * np.finfo(float).eps * step
    ends = np.zeros((2, members.size))
    ends[1] = step
    weight = np.stack([g_from, g_to])
    h_abs, x_ends = np.abs(weight), np.stack([x_from, x_to])
    last = np.zeros((2, members.size), dtype=bool)
    active = g_to < 0.0
    floor = None
    for n_iter in range(integrator._REFINE_MAX_ITER + 1):
        best = (~(h_abs[0] < h_abs[1])).astype(int)
        h_hit = h_abs[best, members]
        if floor is None and (active & (h_hit <= integrator._GUARD_TOL)).any():
            floor = integrator._guard_floor(guard, x_to)
        if floor is not None:
            active &= ~(h_hit <= np.minimum(integrator._GUARD_TOL, floor))
        if n_iter == integrator._REFINE_MAX_ITER or not active.any():
            break
        lo, hi = ends
        tau = np.clip(lo + (hi - lo) * (weight[0] / (weight[0] - weight[1])), lo, hi)
        tau = np.where((tau == lo) | (tau == hi), 0.5 * (lo + hi), tau)
        x_tau = rk4_step(f, x_from, tau[:, None])
        g_tau = side * guard(x_tau)
        to_hi = g_tau <= 0.0
        moved = np.stack([active & ~to_hi, active & to_hi])
        weight = np.where((moved & last)[::-1], 0.5 * weight, weight)
        ends = np.where(moved, tau, ends)
        weight = np.where(moved, g_tau, weight)
        h_abs = np.where(moved, np.abs(g_tau), h_abs)
        x_ends = np.where(moved[:, :, None], x_tau, x_ends)
        last = moved
        active &= (weight[1] < 0.0) & (ends[1] - ends[0] > width)

    x_hit = x_ends[best, members]
    stalled = ~(h_hit <= integrator._GUARD_TOL)
    if stalled.any():
        if floor is None:
            floor = integrator._guard_floor(guard, x_to)
        stalled &= ~(h_hit <= integrator._GUARD_TOL + floor)
    if stalled.any():
        raise IntegrationError(
            f"guard refinement stalled at |H| = {h_hit[np.argmax(stalled)]:.3e} "
            f"(tolerance {integrator._GUARD_TOL:.3e})"
        )
    t_exit = t_from + ends[best, members]
    early = t_exit < integrator._MIN_PHASE_DURATION
    if early.any():
        raise Chattering(
            f"guard crossed at t = {t_exit[np.argmax(early)]:.3e}, below the minimum duration "
            f"{integrator._MIN_PHASE_DURATION:.3e}"
        )
    field = f(x_hit)
    rate = central_difference(
        lambda s: guard((x_hit + s.reshape(2, -1, 1) * field).reshape(-1, x_hit.shape[1])),
        np.zeros((x_hit.shape[0], 1)),
        1e-7,
    )[:, 0, 0]
    bad = ~np.isfinite(rate)
    if bad.any():
        integrator._raise_non_finite(x_hit, t_exit[np.argmax(bad)], rate)
    flat = np.abs(rate) <= integrator._TRANSVERSALITY_TOL
    if flat.any():
        raise NonTransversal(f"guard rate {rate[np.argmax(flat)]:.3e} at the crossing is below tolerance")
    return x_hit, t_exit


# The refinement under test, taken before any test wraps it.
EXIT_CROSSING = integrator._exit_crossing


def refinement_outcome(refine, f, *args):
    """The exit states and times of refine, or its error's type and text,
    and the number of field rows it evaluated: four per trial step and
    member, and one per member for the exit guard rate.  The arguments are
    those of a recorded crossing without its quartic table, so that
    _exit_crossing takes the stacked stage-form search."""
    args = args[:8]
    rows = []

    def counted(x):
        rows.append(len(x))
        return f(x)

    try:
        with np.errstate(over="ignore", invalid="ignore"):
            outcome = refine(counted, *args)
    except IntegrationError as exc:
        outcome = (type(exc), str(exc))
    return outcome, sum(rows)


def assert_refinements_equal_the_stacked_reference(crossings):
    for args in crossings:
        new, new_rows = refinement_outcome(EXIT_CROSSING, *args)
        old, old_rows = refinement_outcome(stacked_exit_crossing, *args)
        assert new_rows == old_rows
        assert type(new[0]) is type(old[0])
        if isinstance(old[0], type):
            assert new == old
        else:
            assert np.array_equal(new[0], old[0]) and np.array_equal(new[1], old[1])


@pytest.fixture
def recorded_crossings(monkeypatch):
    """The arguments of every crossing refinement that flows make."""
    crossings = []
    refine = integrator._exit_crossing

    def recorded_refine(*args):
        crossings.append(args)
        return refine(*args)

    monkeypatch.setattr(integrator, "_exit_crossing", recorded_refine)
    return crossings


@pytest.mark.parametrize("name", CATALOG)
def test_catalog_refinements_equal_the_stacked_reference(request, recorded_crossings, name):
    model = catalog_model(request, name)
    rng = np.random.default_rng(31)
    for base_step in (2e-3, 1e-2, 5e-2):
        cfg = IntegratorConfig(base_step=base_step)
        for i, phase in enumerate(model.phases):
            dom = model.system.domains[i]
            for n_members in (1, 2, 11, 25):
                x0 = phase.start_state + 1e-2 * rng.normal(size=(n_members, dom.state_dim))
                betas = 5e-2 * rng.normal(size=(n_members, dom.param_dim))
                flow_batch(dom, x0, betas, cfg)
    assert len(recorded_crossings) >= 12 * len(model.phases)
    assert_refinements_equal_the_stacked_reference(recorded_crossings)


def test_four_ulp_brackets_equal_the_stacked_reference(recorded_crossings, unstable2):
    # Open loop, unstable-2 passes 1e20 in size after about 30 cycles.  On
    # the next 8 cycles |H| stays above _GUARD_TOL, each bracket narrows to
    # 4 ulps, and secant roots that round onto an end take the midpoint.
    cfg = IntegratorConfig()
    x_star = unstable2.orbit.fixed_points[-1]
    y = simulate_cycle(unstable2.system, None, x_star + 1e-2 * np.array([0.6, 0.8]), 32, cfg)[-1]
    assert 1e20 < np.max(np.abs(y)) < 1e24
    recorded_crossings.clear()
    simulate_cycle(unstable2.system, None, y, 8, cfg)
    assert_refinements_equal_the_stacked_reference(recorded_crossings)
    rows = []
    for args in recorded_crossings:
        (x_exit, _), n_rows = refinement_outcome(EXIT_CROSSING, *args)
        assert np.all(np.abs(args[1](x_exit)) > integrator._GUARD_TOL)
        rows.append(n_rows)
    assert max(rows) > 4 * 30  # more than 30 trial steps


def test_a_nan_trial_guard_value_equals_the_stacked_reference():
    # H = x^3 - 0.2 at unit velocity crosses at 0.2^(1/3) = 0.585; a guard
    # that is NaN on (0.55, 0.6) makes the trials close to the root NaN for
    # the first member, and the refinement stalls.  The second member's
    # guard has no NaN.
    def guard(X):
        h = X[:, 0] ** 3 - 0.2
        return np.where((X[:, 1] == 0.0) & (X[:, 0] > 0.55) & (X[:, 0] < 0.6), np.nan, h)

    def f(x):
        return np.column_stack([np.ones(len(x)), np.zeros(len(x))])

    x_from = np.array([[0.0, 0.0], [0.0, 1.0]])
    x_to = x_from + [1.0, 0.0]
    side = np.array([-1.0, -1.0])
    outcomes = []
    for rows in (slice(None), slice(1, 2)):
        args = (f, guard, x_from[rows], 0.5, 1.0, side[rows], side[rows] * guard(x_from[rows]), x_to[rows],
                side[rows] * guard(x_to[rows]))
        assert_refinements_equal_the_stacked_reference([args])
        outcomes.append(refinement_outcome(EXIT_CROSSING, *args)[0])
    assert outcomes[0][0] is IntegrationError and "stalled" in outcomes[0][1]
    assert abs(outcomes[1][0][0, 0] - 0.2 ** (1 / 3)) < 1e-9


@pytest.mark.parametrize("name", CATALOG)
def test_the_quartic_is_the_guard_along_the_stage_form_step(request, name):
    # For an AffineField and an AffineGuard, g(tau) = side * H(rk4_step(f,
    # x, tau)) is the quartic of _quartic_coefficients, to within the
    # rounding floor of H at the stepped state.
    model = catalog_model(request, name)
    rng = np.random.default_rng(37)
    for base_step in (2e-3, 1e-2, 5e-2):
        for phase, dom in zip(model.phases, model.system.domains):
            for n_members in (1, 11, 25):
                x = phase.start_state + 1e-2 * rng.normal(size=(n_members, dom.state_dim))
                f = dom.batch_field(5e-2 * rng.normal(size=(n_members, dom.param_dim)))
                side = np.where(dom.guard(x) > 0.0, 1.0, -1.0)
                quartic = integrator._horizon(f, dom.guard, base_step)[0].quartic
                coef = np.array(integrator._quartic_coefficients(f, quartic, x, side, side * dom.guard(x)))
                for tau in rng.uniform(0.0, base_step, size=(4, n_members)):
                    x_tau = rk4_step(f, x, tau[:, None])
                    error = np.abs(integrator._quartic(coef.T, tau) - side * dom.guard(x_tau))
                    assert np.all(error <= integrator._guard_floor(dom.guard, x_tau))


def quartic_taus(f, guard, x_from, t_from, step, side, g_from, x_to, g_to, quartic):
    """The exit fractions of a recorded crossing by each member's float
    search and by the stacked search, both on its quartic."""
    coef = integrator._quartic_coefficients(f, quartic, x_from, side, g_from)
    floor = integrator._guard_floor(guard, x_to)
    stops = np.minimum(integrator._GUARD_TOL, floor)
    floats = [integrator._search(c, g, step, stop) for c, g, stop in zip(coef, g_to.tolist(), stops.tolist())]
    n_members = len(x_from)
    _, stacked, _, _ = integrator._stage_search(
        lambda tau: (tau[:, None], integrator._quartic(np.array(coef).T, tau)),
        step, g_from, g_to, np.zeros((n_members, 1)), np.full((n_members, 1), step), lambda: floor,
    )
    return np.array(floats), stacked


def test_both_searches_follow_the_same_rules(recorded_crossings, unstable2):
    # On every crossing of the catalog flows below, and on the 4-ulp brackets
    # of eight open-loop unstable-2 cycles past 1e20, the float search and
    # the stacked search give the same exit fractions bit for bit.
    rng = np.random.default_rng(31)
    for name in CATALOG:
        model = from_catalog(name)
        for base_step in (2e-3, 1e-2, 5e-2):
            cfg = IntegratorConfig(base_step=base_step)
            for phase, dom in zip(model.phases, model.system.domains):
                for n_members in (1, 11, 25):
                    x0 = phase.start_state + 1e-2 * rng.normal(size=(n_members, dom.state_dim))
                    flow_batch(dom, x0, 5e-2 * rng.normal(size=(n_members, dom.param_dim)), cfg)
    cfg = IntegratorConfig()
    x_star = unstable2.orbit.fixed_points[-1]
    y = simulate_cycle(unstable2.system, None, x_star + 1e-2 * np.array([0.6, 0.8]), 32, cfg)[-1]
    assert 1e20 < np.max(np.abs(y)) < 1e24
    n_catalog = len(recorded_crossings)
    simulate_cycle(unstable2.system, None, y, 8, cfg)
    assert len(recorded_crossings) == n_catalog + 16
    n_members = 0
    for args in recorded_crossings:
        with np.errstate(over="ignore", invalid="ignore"):
            floats, stacked = quartic_taus(*args)
        assert np.array_equal(floats, stacked)
        n_members += len(floats)
    assert n_members > 1200  # 1237 members in 653 crossings


def test_an_affine_crossing_makes_one_rk4_step_and_one_guard_call(monkeypatch, search_iterations, stable3):
    # The counters patch AffineGuard.__call__ and the module's rk4_step, so
    # the guard keeps its type.  Whatever the iterations of its members'
    # searches, a crossing makes one stacked rk4_step and one guard call.
    rk4_calls, guard_calls, refinements = [], [], []
    step, guard_call, refine = integrator.rk4_step, AffineGuard.__call__, integrator._exit_crossing

    def counted_step(f, x, h):
        rk4_calls.append(len(x))
        return step(f, x, h)

    def counted_guard(self, X):
        guard_calls.append(len(X))
        return guard_call(self, X)

    def spanned_refine(*args):
        start = len(rk4_calls), len(guard_calls)
        out = refine(*args)
        refinements.append((len(rk4_calls) - start[0], len(guard_calls) - start[1]))
        return out

    monkeypatch.setattr(integrator, "rk4_step", counted_step)
    monkeypatch.setattr(AffineGuard, "__call__", counted_guard)
    monkeypatch.setattr(integrator, "_exit_crossing", spanned_refine)
    gains = synthesis.dlqr_gains(list(stable3.jacobians))
    law = FeedbackLaw(gains=tuple(gains.gains), orbit=stable3.orbit)
    x0 = stable3.orbit.fixed_points[-1] + 1e-2 * np.array([0.6, 0.8])
    simulate_cycle(stable3.system, law, x0, 10, IntegratorConfig(base_step=2e-3))
    phase_jacobians(stable3.system, stable3.orbit, IntegratorConfig(base_step=2e-3))
    assert len(refinements) == 33 and guard_calls and rk4_calls == [1] * 30 + [11] * 3
    assert all(counts == (1, 1) for counts in refinements)
    assert {max(n) for n in search_iterations} >= {2, 4}


def velocity_system(field: str, guard: str = "lambda") -> MultiDomainSystem:
    """One domain moving at constant velocity beta from x1 = 1 - y to the
    guard x1 = 1, where y is the section coordinate; x2 is carried along.
    Its field is "lifted" from the scalar callables, a "batch-callable" or
    an "affine" AffineField, which advances over horizons.  Its guard is the
    "lambda" X[:, 0] - 1 or the "affine" AffineGuard of normal (1, 0),
    whose value is NaN once x2 overflows (inf * 0)."""
    dom = Domain(
        state_dim=2,
        control_dim=2,
        param_dim=2,
        drift=lambda x: np.zeros(2),
        input_map=lambda x: np.eye(2),
        controller=lambda x, beta: beta,
        guard=AffineGuard([1.0, 0.0], 1.0) if guard == "affine" else lambda X: X[:, 0] - 1.0,
        reset=lambda X: np.column_stack([1.0 - X[:, 1], X[:, 1]]),
        exit_chart=SectionChart(
            k=1,
            embed=lambda Y: np.insert(Y, 0, 1.0, axis=1),
            project=lambda X: X[:, 1:],
        ),
    )
    if field == "batch-callables":
        dom = replace(dom, batch_field=lambda betas: (lambda x: np.zeros_like(x) + betas))
    elif field == "affine":
        dom = replace(dom, batch_field=lambda betas: AffineField(np.zeros((2, 2)), betas))
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


# The transition never forms the stage sum 2 k2 that overflows in the
# "non-finite" member's first step, so an affine field reaches that guard;
# its overflow is the late case.
BAD_MEMBER_RUNS = [
    (case, field, guard)
    for case in BAD_MEMBERS
    for field in ("batch-callables", "lifted", "affine")
    for guard in ("lambda", "affine")
    if (case, field) != ("non-finite", "affine")
]


@pytest.mark.parametrize(
    "case, field, guard",
    BAD_MEMBER_RUNS,
    ids=[f"{case}-{field}" + ("-affine-guard" if guard == "affine" else "") for case, field, guard in BAD_MEMBER_RUNS],
)
def test_one_bad_member_fails_the_batch_like_a_solo_run(monkeypatch, case, field, guard):
    # Under either guard form the batch raises the error of the bad
    # member's solo run under the lambda guard, type and text.
    set_constants(monkeypatch, _GUARD_TOL=1e-14, _MIN_PHASE_DURATION=1e-2, _MAX_PHASE_DURATION=5.0)
    system = velocity_system(field, guard)
    cfg = IntegratorConfig(base_step=1e-2)
    y_bad, beta_bad, error = BAD_MEMBERS[case]
    y = np.array([[0.5], [1.0], [y_bad], [1.5]])
    betas = np.array([[1.0, 0.0], [2.0, 0.0], beta_bad, [0.5, 0.0]])
    good = [0, 1, 3]
    y_out, t_out = section_step(system, 0, y[good], betas[good], cfg)
    assert np.allclose(t_out, [0.5, 0.5, 3.0])
    with pytest.raises(error) as solo:
        section_step(velocity_system(field), 0, y[2:3], betas[2:3], cfg)
    for stack in (slice(2, 3), slice(None)):
        with pytest.raises(error) as run:
            section_step(system, 0, y[stack], betas[stack], cfg)
        assert type(run.value) is type(solo.value)
        assert str(run.value) == str(solo.value)
        assert run.value.phase == 0
        assert str(run.value).startswith("phase 0: ")


@pytest.mark.parametrize("guard", ["affine", "lambda"])
def test_a_member_that_overflows_after_its_crossing_fails_no_stack_mate(guard):
    # x1 moves at the member's velocity to the guard x1 = 1, and x2 grows as
    # x2' = 1000 x2 + c2.  The first member crosses at t = 0.1, and its
    # x2, driven by c2 = 1e250, overflows about nine steps later; the second
    # member crosses at t = 4.  Each exits as it does alone: with the
    # overflow past its crossing, the first member fails no stack-mate.
    # 64-step blocks raised NonFinite for the pair.
    drift = np.diag([0.0, 1000.0])
    h = AffineGuard([1.0, 0.0], 1.0) if guard == "affine" else lambda X: X[:, 0] - 1.0
    dom = replace(
        autonomous(lambda x: drift @ x, h, 2), param_dim=2, batch_field=lambda betas: AffineField(drift, betas)
    )
    cfg = IntegratorConfig(base_step=0.05)
    x0, betas = np.array([[0.9, 0.0], [0.0, 0.0]]), np.array([[1.0, 1e250], [0.25, 0.0]])
    x_exit, t_exit = flow_batch(dom, x0, betas, cfg)
    assert abs(t_exit[0] - 0.1) < 1e-12 and abs(t_exit[1] - 4.0) < 1e-12
    for b in range(2):
        x_solo, t_solo = flow_one(dom, x0[b], betas[b], cfg)
        assert np.array_equal(x_exit[b], x_solo) and t_exit[b] == t_solo


def test_stacks_of_the_wrong_shape_are_refused():
    # A 1-D start state is no stack.  A reset or a projection written for
    # one state maps a stack of B != m rows on the wrong axis: flow_batch
    # refuses what such a reset returns, and section_step what such a
    # projection returns.
    system = velocity_system("batch-callables")
    dom = system.domains[0]
    cfg = IntegratorConfig()
    with pytest.raises(ValueError, match=r"^start stack has shape \(2,\), expected \(1, 2\)$"):
        flow_batch(dom, np.array([0.5, 0.0]), np.array([[1.0, 0.0]]), cfg)
    y = np.array([[0.5], [1.0], [1.5]])
    betas = np.tile([1.0, 0.0], (3, 1))
    row_reset = replace(dom, reset=lambda x: np.array([1.0 - x[1], x[1]]))
    with pytest.raises(ValueError, match=r"^start stack has shape \(2, 2\), expected \(3, 2\)$"):
        section_step(MultiDomainSystem(domains=(row_reset,)), 0, y, betas, cfg)
    row_chart = replace(dom.exit_chart, project=lambda x: x[1:].copy())
    row_project = MultiDomainSystem(domains=(replace(dom, exit_chart=row_chart),))
    with pytest.raises(ValueError, match=r"projected to shape \(2, 2\), expected \(3, 1\)$"):
        section_step(row_project, 0, y, betas, cfg)
