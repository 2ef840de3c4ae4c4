"""Section maps, finite-difference Jacobians and fixed-point refinement."""

from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from hybrid_orbit import poincare
from hybrid_orbit.integrator import IntegrationError, IntegratorConfig, NoCrossing, section_step, simulate_cycle
from hybrid_orbit.model import Domain, MultiDomainSystem, affine_section_chart, matvec_rows
from hybrid_orbit.poincare import (
    FixedPointError,
    compose_jacobians,
    orbit_and_jacobians,
    phase_jacobians,
    refine_fixed_point,
)
from hybrid_orbit.synthetic import CATALOG, from_catalog


def test_partial_map_preserves_fixed_points(stable3, cfg_fast):
    points = stable3.orbit.fixed_points
    for i in range(len(points)):
        (out,), _ = section_step(stable3.system, i, points[i - 1][None], np.zeros((1, 3)), cfg_fast)
        assert np.max(np.abs(out - stable3.orbit.fixed_points[i])) < 1e-7


def test_partial_map_matches_analytic_composition(stable2, cfg_accurate):
    # independent oracle: embed, reset, flow the matrix exponential to the
    # exact crossing time found by bisection, project
    i = 0
    phase = stable2.phases[i]
    prev = stable2.phases[-1]
    normal, offset = phase.guard_normal, phase.guard_offset
    entry_chart = affine_section_chart(prev.guard_normal, prev.guard_offset)
    exit_chart = affine_section_chart(normal, offset)

    rng = np.random.default_rng(2)
    y_star = stable2.orbit.fixed_points[-1]
    for _ in range(3):
        y = y_star + rng.uniform(-5e-3, 5e-3, size=2)
        x_plus = prev.reset @ entry_chart.embed(y[None])[0]

        def h_exact(t):
            return float(normal @ (expm(phase.drift * t) @ x_plus) - offset)

        lo, hi = 0.0, phase.duration * 1.5
        assert h_exact(lo) < 0.0 < h_exact(hi)
        for _ in range(90):
            mid = 0.5 * (lo + hi)
            if h_exact(mid) < 0.0:
                lo = mid
            else:
                hi = mid
        t_star = 0.5 * (lo + hi)
        expected = exit_chart.project((expm(phase.drift * t_star) @ x_plus)[None])[0]

        (out,), _ = section_step(stable2.system, i, y[None], np.zeros((1, 3)), cfg_accurate)
        assert np.max(np.abs(out - expected)) < 1e-8


def test_parameter_perturbation_first_order(stable2, cfg_accurate):
    jac = stable2.jacobians[0]
    x_star = stable2.orbit.fixed_points[-1]
    delta_beta = np.array([1e-3, -5e-4, 8e-4])
    (out,), _ = section_step(stable2.system, 0, x_star[None], delta_beta[None], cfg_accurate)
    predicted = stable2.orbit.fixed_points[0] + jac.F @ delta_beta
    assert np.max(np.abs(out - predicted)) < 1e-4 * max(1.0, np.max(np.abs(jac.F)))


def test_return_map_fixed_point(stable3, cfg_fast):
    x_star = stable3.orbit.fixed_points[-1]
    assert np.max(np.abs(simulate_cycle(stable3.system, None, x_star, 1, cfg_fast)[0] - x_star)) < 1e-7


@pytest.mark.parametrize("name", ["stable-2", "stable-3", "unstable-2", "boundary-2", "uncoupled-2"])
def test_return_map_jacobian_equals_phase_product(name, cfg_accurate):
    # two independent finite-difference computations of the same derivative
    model = from_catalog(name)
    orbit = model.orbit
    product = compose_jacobians(phase_jacobians(model.system, orbit, cfg_accurate))

    x_star = orbit.fixed_points[-1]
    h = 1e-5 * np.maximum(1.0, np.abs(x_star))
    starts = np.vstack([x_star + np.diag(h), x_star - np.diag(h)])
    images = simulate_cycle(model.system, None, starts, 1, cfg_accurate)[0]
    direct = (images[:2] - images[2:]).T / (2 * h)
    rel = np.max(np.abs(direct - product)) / np.max(np.abs(direct))
    assert rel < 1e-4


def test_jacobians_match_closed_form(stable2, cfg_accurate):
    jacs = phase_jacobians(stable2.system, stable2.orbit, cfg_accurate)
    for fd, exact in zip(jacs, stable2.jacobians):
        assert np.max(np.abs(fd.A - exact.A)) / np.max(np.abs(exact.A)) < 1e-4
        assert np.max(np.abs(fd.F - exact.F)) / np.max(np.abs(exact.F)) < 1e-4


@pytest.mark.parametrize("base_step", [1e-2, 2e-3])
def test_catalog_jacobians_from_the_stored_start_are_within_1e_9_of_the_closed_form(base_step):
    # The A/F error was 4.1e-11 to 5.5e-10 at these base steps.  Stepping a
    # catalog flow as x.dot(I + Z + Z^2/2 + Z^3/6 + Z^4/24), which rounds
    # the diagonal of that matrix on every step, raised it to 3.3e-9.
    cfg = IntegratorConfig(base_step=base_step)
    for name in CATALOG:
        model = from_catalog(name)
        _, jacs = orbit_and_jacobians(model.system, model.orbit.fixed_points[-1], cfg)
        for fd, exact in zip(jacs, model.jacobians):
            assert np.max(np.abs(fd.A - exact.A)) <= 1e-9, (name, fd.phase_index)
            assert np.max(np.abs(fd.F - exact.F)) <= 1e-9, (name, fd.phase_index)


def test_jacobian_reproducible_bit_identical(stable2, cfg_fast):
    first = phase_jacobians(stable2.system, stable2.orbit, cfg_fast)[0].A
    second = phase_jacobians(stable2.system, stable2.orbit, cfg_fast)[0].A
    assert np.array_equal(first, second)


def test_jacobian_step_halving_agreement(stable2, cfg_accurate, monkeypatch):
    monkeypatch.setattr(poincare, "_FD_STEP", 1e-3)
    coarse = phase_jacobians(stable2.system, stable2.orbit, cfg_accurate)[0].A
    monkeypatch.setattr(poincare, "_FD_STEP", 5e-4)
    fine = phase_jacobians(stable2.system, stable2.orbit, cfg_accurate)[0].A
    bound = 10.0 * (1e-3) ** 2 * max(1.0, np.max(np.abs(fine)))
    assert np.max(np.abs(coarse - fine)) < bound


def test_jacobian_param_zero_coupling(uncoupled2, cfg_fast):
    f = phase_jacobians(uncoupled2.system, uncoupled2.orbit, cfg_fast)[0].F
    assert np.max(np.abs(f)) < 1e-9


def test_jacobian_param_linear_in_basis(stable2, cfg_accurate):
    # doubling the controller shift basis doubles the parameter sensitivity
    doubled_domains = []
    for dom, phase in zip(stable2.system.domains, stable2.phases):
        doubled_domains.append(
            Domain(
                state_dim=dom.state_dim,
                control_dim=dom.control_dim,
                param_dim=dom.param_dim,
                drift=dom.drift,
                input_map=dom.input_map,
                controller=lambda x, beta, w=phase.beta_coupling: (2.0 * w) @ beta,
                guard=dom.guard,
                reset=dom.reset,
                exit_chart=dom.exit_chart,
            )
        )
    doubled = MultiDomainSystem(domains=tuple(doubled_domains))
    f_base = phase_jacobians(stable2.system, stable2.orbit, cfg_accurate)[0].F
    f_doubled = phase_jacobians(doubled, stable2.orbit, cfg_accurate)[0].F
    assert np.max(np.abs(f_doubled - 2.0 * f_base)) < 1e-6 * max(1.0, np.max(np.abs(f_base)))


def test_compose_jacobians_reference(paperfx):
    product = compose_jacobians([paperfx.A1, paperfx.A2])
    assert np.max(np.abs(product - paperfx.A)) < 5e-3


def test_compose_jacobians_identity_and_associativity():
    assert np.array_equal(compose_jacobians([np.eye(3)] * 4), np.eye(3))
    rng = np.random.default_rng(4)
    chain = [rng.normal(size=(3, 3)) for _ in range(5)]
    grouped = compose_jacobians([compose_jacobians(chain[:2]), compose_jacobians(chain[2:])])
    flat = compose_jacobians(chain)
    assert np.max(np.abs(grouped - flat)) < 1e-10


def test_compose_jacobians_dimension_mismatch():
    with pytest.raises(ValueError):
        compose_jacobians([np.eye(2), np.ones((3, 3))])
    with pytest.raises(ValueError):
        compose_jacobians([])


def test_refine_fixed_point_accepts_exact_start(stable3, cfg_fast):
    orbit = refine_fixed_point(stable3.system, stable3.orbit.fixed_points[-1], cfg_fast)
    for found, engineered in zip(orbit.fixed_points, stable3.orbit.fixed_points):
        assert np.max(np.abs(found - engineered)) < 1e-8
    for found, engineered in zip(orbit.phase_durations, stable3.orbit.phase_durations):
        assert abs(found - engineered) < 1e-7


def _reset_counter(system):
    # Each reset maps one stack of members, so len(resets) counts the rows
    # reset, one per member flow, not the calls.
    resets = []
    counted = replace(
        system,
        domains=tuple(
            replace(dom, reset=lambda X, r=dom.reset: resets.extend([1] * len(X)) or r(X))
            for dom in system.domains
        ),
    )
    return counted, resets


def _pass_members(system):
    # one pass: per phase, the undisturbed member and 2 (k + p) difference members
    n = system.n_domains
    return sum(1 + 2 * (system.chart(i - 1).k + system.domain(i).param_dim) for i in range(n))


def test_refine_fixed_point_keeps_its_last_cycle_walk(stable3, cfg_fast):
    # From a converged start Newton makes one pass and returns its walk,
    # ending at the start point itself.
    counted, resets = _reset_counter(stable3.system)
    start = stable3.orbit.fixed_points[-1]
    orbit = refine_fixed_point(counted, start, cfg_fast)
    assert len(resets) == _pass_members(stable3.system) == 33
    y = start
    for i in range(stable3.system.n_domains - 1):
        (y,), _ = section_step(stable3.system, i, y[None], np.zeros((1, 3)), cfg_fast)
        assert np.array_equal(orbit.fixed_points[i], y)
    assert np.array_equal(orbit.fixed_points[-1], start)


@pytest.mark.parametrize("name", ["stable3", "boundary2"])
def test_refine_fixed_point_flows_only_whole_passes(name, request, cfg_fast):
    # Every Newton trial point, damping trials included, is one full pass;
    # no flow runs outside a pass.
    model = request.getfixturevalue(name)
    counted, resets = _reset_counter(model.system)
    per_pass = _pass_members(model.system)
    x_star = model.orbit.fixed_points[-1]
    for angle in (0.0, 2.4, 4.8):
        kick = 1e-3 * np.array([np.cos(angle), np.sin(angle)])
        resets.clear()
        orbit = refine_fixed_point(counted, x_star + kick, cfg_fast)
        x = orbit.fixed_points[-1]
        assert np.max(np.abs(simulate_cycle(model.system, None, x, 1, cfg_fast)[0] - x)) < 1e-9
        assert len(resets) % per_pass == 0
        assert len(resets) >= 2 * per_pass


@pytest.mark.parametrize("name", CATALOG)
@pytest.mark.parametrize("kick", [0.0, 1e-3], ids=["stored", "kicked"])
def test_newton_jacobians_match_phase_jacobians_bit_for_bit(name, kick):
    # The Jacobians of Newton's converged pass are the ones phase_jacobians
    # measures at the orbit it returns.
    model = from_catalog(name)
    cfg = IntegratorConfig()
    start = model.orbit.fixed_points[-1] + kick * np.array([0.6, -0.8])
    orbit, jacs = orbit_and_jacobians(model.system, start, cfg)
    again = phase_jacobians(model.system, orbit, cfg)
    assert len(jacs) == len(again) == model.system.n_domains
    for newton, measured in zip(jacs, again):
        assert newton.phase_index == measured.phase_index
        assert np.array_equal(newton.A, measured.A)
        assert np.array_equal(newton.F, measured.F)


def test_pass_through_callables_leave_the_orbit_unchanged(stable3):
    # bench/tracing.py counts work by rebuilding every domain with its five
    # callables wrapped through dataclasses.replace.  Wrappers that only
    # pass their calls on must see the kernel's guard calls and give the
    # same orbit and Jacobians bit for bit.
    names = ("drift", "input_map", "controller", "guard", "reset")
    calls = dict.fromkeys(names, 0)

    def passing(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)

        return wrapped

    wrapped = replace(stable3.system, domains=tuple(
        replace(dom, **{name: passing(name, getattr(dom, name)) for name in names})
        for dom in stable3.system.domains
    ))
    cfg = IntegratorConfig(base_step=2e-3)
    start = stable3.orbit.fixed_points[-1] + 1e-3 * np.array([0.6, -0.8])
    orbit, jacs = orbit_and_jacobians(stable3.system, start, cfg)
    orbit_w, jacs_w = orbit_and_jacobians(wrapped, start, cfg)
    assert calls["guard"] > 0 and calls["reset"] > 0
    assert all(np.array_equal(a, b) for a, b in zip(orbit.fixed_points, orbit_w.fixed_points))
    assert orbit.phase_durations == orbit_w.phase_durations
    for plain, traced in zip(jacs, jacs_w, strict=True):
        assert np.array_equal(plain.A, traced.A)
        assert np.array_equal(plain.F, traced.F)


_KICKS = [1e-3 * np.array([np.cos(a), np.sin(a)]) for a in 2 * np.pi * np.arange(8) / 8]


def test_newton_extrapolates_at_a_singular_fixed_point(boundary2):
    # boundary-2's return map has an eigenvalue of exactly 1, so a full
    # Newton step cuts the residual by only 1/4; the doubled step tried
    # after it brings every kick home within 4 passes, where plain Newton
    # takes 6-7 on six of them.
    cfg = IntegratorConfig()
    counted, resets = _reset_counter(boundary2.system)
    per_pass = _pass_members(boundary2.system)
    for kick in _KICKS:
        resets.clear()
        orbit, jacs = orbit_and_jacobians(counted, boundary2.orbit.fixed_points[-1] + kick, cfg)
        assert len(resets) <= 4 * per_pass
        x = orbit.fixed_points[-1]
        assert np.max(np.abs(simulate_cycle(boundary2.system, None, x, 1, cfg)[0] - x)) < 1e-9
        for newton, measured in zip(jacs, phase_jacobians(boundary2.system, orbit, cfg)):
            assert np.array_equal(newton.A, measured.A)
            assert np.array_equal(newton.F, measured.F)


@pytest.mark.parametrize("name", ["stable2", "stable3", "unstable2", "uncoupled2"])
def test_newton_keeps_its_steps_at_hyperbolic_fixed_points(name, request):
    # Quadratic convergence never shows the 1/4 ratio, so no doubled step
    # is tried and every kick takes its three passes.
    model = request.getfixturevalue(name)
    counted, resets = _reset_counter(model.system)
    for kick in _KICKS:
        resets.clear()
        orbit_and_jacobians(counted, model.orbit.fixed_points[-1] + kick, IntegratorConfig())
        assert len(resets) == 3 * _pass_members(model.system)


def test_a_trial_pass_that_fails_to_integrate_is_a_rejected_trial(unstable3):
    # A 5% kick along (1, 0) on unstable-3: the full Newton step overshoots,
    # and its trial pass raises NoCrossing in a later phase.  That trial is
    # rejected like one whose residual does not decrease, and a damped step
    # brings the kick home to the closed-form orbit.
    x_star = unstable3.orbit.fixed_points[-1]
    start = x_star + 0.05 * max(1.0, np.max(np.abs(x_star))) * np.array([1.0, 0.0])
    orbit, _ = orbit_and_jacobians(unstable3.system, start, IntegratorConfig())
    for found, exact in zip(orbit.fixed_points, unstable3.orbit.fixed_points, strict=True):
        assert np.max(np.abs(found - exact)) < 1e-10
    # Along (0, 1) every scale fails or raises the residual, and the stall
    # counts the trial passes that failed.  The guess's own pass is no
    # trial: its error propagates.
    start = x_star + 0.05 * max(1.0, np.max(np.abs(x_star))) * np.array([0.0, 1.0])
    with pytest.raises(FixedPointError, match="stalled.*; 2 trial passes failed to integrate$"):
        orbit_and_jacobians(unstable3.system, start, IntegratorConfig())
    with pytest.raises(NoCrossing):
        orbit_and_jacobians(_escape_prone_system(), np.array([1.0, 0.0]), IntegratorConfig())


def test_refine_fixed_point_converges_from_perturbed_guess(stable3, cfg_fast):
    guess = stable3.orbit.fixed_points[-1] + np.array([1e-2, -1e-2])
    orbit = refine_fixed_point(stable3.system, guess, cfg_fast)
    residual = simulate_cycle(stable3.system, None, orbit.fixed_points[-1], 1, cfg_fast)[0] - orbit.fixed_points[-1]
    assert np.max(np.abs(residual)) < 1e-9
    assert np.max(np.abs(orbit.fixed_points[-1] - stable3.orbit.fixed_points[-1])) < 1e-7


def _escape_prone_system():
    # two phases around x0: exponential climb 0.25 -> 1, linear descent back;
    # the second reset bends x0 negative for large |x1|, beyond which the
    # climb phase never reaches its guard again
    dom0 = Domain(
        state_dim=3,
        control_dim=0,
        param_dim=0,
        drift=lambda x: np.array([x[0], -0.3 * x[1], -0.4 * x[2]]),
        input_map=lambda x: np.zeros((3, 0)),
        controller=lambda x, beta: np.zeros(0),
        guard=lambda X: X[:, 0] - 1.0,
        reset=lambda X: X.copy(),
        exit_chart=affine_section_chart(np.array([1.0, 0.0, 0.0]), 1.0),
    )
    dom1 = Domain(
        state_dim=3,
        control_dim=0,
        param_dim=0,
        drift=lambda x: np.array([-0.5, 0.0, 0.0]),
        input_map=lambda x: np.zeros((3, 0)),
        controller=lambda x, beta: np.zeros(0),
        guard=lambda X: X[:, 0] - 0.25,
        reset=lambda X: np.column_stack([X[:, 0] * (1.0 - 4.0 * X[:, 1] ** 2), X[:, 1], X[:, 2]]),
        exit_chart=affine_section_chart(np.array([1.0, 0.0, 0.0]), 0.25),
    )
    return MultiDomainSystem(domains=(dom0, dom1))


def test_refine_fixed_point_diverges_cleanly():
    system = _escape_prone_system()
    cfg = IntegratorConfig(base_step=5e-3)
    # near the orbit the refinement works
    orbit = refine_fixed_point(system, np.array([0.05, -0.04]), cfg)
    assert np.max(np.abs(orbit.fixed_points[-1])) < 1e-9
    # far outside the basin it must error, not fabricate an orbit
    with pytest.raises((FixedPointError, IntegrationError)):
        refine_fixed_point(system, np.array([1.0, 0.0]), cfg)


def test_single_domain_cycle():
    # N = 1 degenerates to the classical single-section return map
    normal = np.array([1.0, 0.2, -0.1])
    reset = np.array([[0.2, 0.0, 0.0], [0.1, 0.6, 0.0], [0.0, 0.0, 0.5]])
    dom = Domain(
        state_dim=3,
        control_dim=0,
        param_dim=0,
        drift=lambda x: np.array([1.0, -0.3 * x[1], 0.2 * x[2]]),
        input_map=lambda x: np.zeros((3, 0)),
        controller=lambda x, beta: np.zeros(0),
        guard=lambda X: X @ normal - 1.0,
        reset=lambda X: matvec_rows(reset, X),
        exit_chart=affine_section_chart(normal, 1.0),
    )
    system = MultiDomainSystem(domains=(dom,))
    cfg = IntegratorConfig(base_step=2e-3)
    orbit = refine_fixed_point(system, np.array([0.0, 0.0]), cfg)
    assert len(orbit.fixed_points) == 1
    y = simulate_cycle(system, None, orbit.fixed_points[0], 1, cfg)[0]
    assert np.max(np.abs(y - orbit.fixed_points[0])) < 1e-9


def test_translation_phase_jacobian_by_hand():
    # constant drift c, identity resets, affine guards: the phase map is an
    # affine projection whose Jacobian is P (I - c n' / (n.c)) E
    c0 = np.array([1.0, 0.2, -0.1])
    c1 = np.array([0.8, -0.3, 0.5])
    n0 = np.array([1.0, 0.1, 0.05])
    n1 = np.array([0.9, -0.2, 0.1])
    domains = []
    for c, n, d in ((c0, n0, 1.0), (c1, n1, -1.0)):
        domains.append(
            Domain(
                state_dim=3,
                control_dim=0,
                param_dim=0,
                drift=lambda x, c=c: c,
                input_map=lambda x: np.zeros((3, 0)),
                controller=lambda x, beta: np.zeros(0),
                guard=lambda X, n=n, d=d: X @ n - d,
                reset=lambda X: X.copy(),
                exit_chart=affine_section_chart(n, d),
            )
        )
    system = MultiDomainSystem(domains=tuple(domains))

    def hand_jacobian(c, n, entry_chart, exit_chart):
        salt = np.eye(3) - np.outer(c, n) / (n @ c)
        e_embed = np.zeros((3, 2))
        drop = int(np.argmax(np.abs(entry_chart_normal)))
        keep = [j for j in range(3) if j != drop]
        for col, j in enumerate(keep):
            e_embed[j, col] = 1.0
            e_embed[drop, col] = -entry_chart_normal[j] / entry_chart_normal[drop]
        p_proj = np.zeros((2, 3))
        exit_drop = int(np.argmax(np.abs(n)))
        for row, j in enumerate([j for j in range(3) if j != exit_drop]):
            p_proj[row, j] = 1.0
        return p_proj @ salt @ e_embed

    # phase 0: entry section is the exit of phase 1 (normal n1), flow c0, guard n0
    entry_chart_normal = n1
    expected = hand_jacobian(c0, n0, None, None)

    # finite differences around any admissible entry point give the same
    # matrix (the map is affine)
    cfg = IntegratorConfig(base_step=1e-3)
    entry_chart = affine_section_chart(n1, -1.0)
    y0 = entry_chart.project(np.array([[-1.2, 0.4, 0.3]]))[0]
    e = 1e-5 * np.eye(2)
    images, _ = section_step(system, 0, np.vstack([y0 + e, y0 - e]), np.zeros((4, 0)), cfg)
    measured = (images[:2] - images[2:]).T / 2e-5
    assert np.max(np.abs(measured - expected)) < 1e-7
