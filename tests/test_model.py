"""System description, section charts and controller-consistency checks."""

from dataclasses import replace

import numpy as np
import pytest

from hybrid_orbit.integrator import section_step, simulate_cycle
from hybrid_orbit.model import (
    Domain,
    FeedbackLaw,
    MultiDomainSystem,
    PeriodicOrbit,
    affine_section_chart,
    chart_from_guard,
    validate_c1_c2,
)
from hybrid_orbit.numerics import central_difference


def make_domain(controller, param_dim=2, guard=None):
    return Domain(
        state_dim=2,
        control_dim=1,
        param_dim=param_dim,
        drift=lambda x: np.array([1.0, -0.5 * x[1]]),
        input_map=lambda x: np.array([[0.0], [1.0]]),
        controller=controller,
        guard=guard or (lambda X: X[:, 0] - 1.0),
        reset=lambda X: X,
    )


# ----------------------------------------------------------- controller checks


def test_c1_c2_pass_for_linear_parameter_shift():
    # nominal u(x) plus a shift linear in beta: both limits vanish
    basis = np.array([0.7, -1.3])

    def controller(x, beta):
        return np.array([np.sin(x[0]) + basis @ beta])

    report = validate_c1_c2(make_domain(controller), [np.array([0.3, -0.2]), np.zeros(2)])
    assert report.passed
    assert report.c1_deviation[-1] < report.c1_deviation[0]


def test_c1_fails_for_constant_offset():
    def controller(x, beta):
        return np.array([np.sin(x[0]) + 0.25])  # offset survives beta -> 0 vs nominal?

    # the offset is beta-independent, so Gamma(x, beta) == Gamma(x, 0) and the
    # check passes; an actual violation needs a discontinuity at beta = 0
    def violating(x, beta):
        shift = 0.25 if np.any(beta != 0.0) else 0.0
        return np.array([np.sin(x[0]) + shift])

    report = validate_c1_c2(make_domain(violating), [np.array([0.1, 0.4])])
    assert not report.c1_pass
    assert report.passed is False


def test_c2_fails_for_state_coupled_jump():
    def violating(x, beta):
        slope = 1.0 if np.any(beta != 0.0) else 0.0
        return np.array([np.sin(x[0]) + slope * x[1]])

    report = validate_c1_c2(make_domain(violating), [np.array([0.1, 0.4])])
    assert not report.c2_pass


def test_c1_c2_fifth_order_polynomial_shift():
    # shift is a fifth-order polynomial in theta with beta-scaled coefficients;
    # the state gradient of the shift at beta = 0 is identically zero
    def controller(x, beta):
        theta = x[0]
        powers = np.array([theta ** j for j in range(1, 6)])
        return np.array([np.cos(theta) + beta[: 5] @ powers])

    dom = make_domain(controller, param_dim=5)
    samples = [np.array([0.2, 0.1]), np.array([-0.7, 0.5]), np.array([1.1, -0.3])]
    report = validate_c1_c2(dom, samples)
    assert report.passed

    # analytic-derivative oracle at beta = 0: d/dtheta of the nominal part
    x = samples[1]
    h = 1e-7 * max(1.0, abs(x[0]))
    fd = (dom.controller(x + [h, 0.0], np.zeros(5)) - dom.controller(x - [h, 0.0], np.zeros(5))) / (2 * h)
    assert abs(fd[0] - (-np.sin(x[0]))) < 1e-6


def test_c1_c2_outer_nonlinearity_wrapping_parameter_shift():
    # controller u(y + Omega) with Omega linear in beta: the shift rides
    # inside a nonlinear outer map and both limits still vanish
    basis = np.array([[0.5, -0.8], [0.3, 1.1]])

    def controller(x, beta):
        y = np.array([x[0] ** 2, np.sin(x[1])]) + basis @ beta
        return np.array([np.tanh(y[0] - 0.5 * y[1])])

    report = validate_c1_c2(make_domain(controller), [np.array([0.4, -0.6]), np.array([0.0, 0.2])])
    assert report.passed


def test_zero_param_domain_trivially_passes():
    dom = Domain(
        state_dim=1,
        control_dim=0,
        param_dim=0,
        drift=lambda x: np.array([1.0]),
        input_map=lambda x: np.zeros((1, 0)),
        controller=lambda x, beta: np.zeros(0),
        guard=lambda X: X[:, 0] - 1.0,
        reset=lambda X: X,
    )
    assert validate_c1_c2(dom, [np.zeros(1)]).passed


def c1_c2_deviations_reference(domain, samples, scales):
    # the nominal control and its gradient recomputed at every probe
    def grad_x(x, beta):
        return central_difference(lambda zs: np.array([domain.controller(z, beta) for z in zs]), x[None], 1e-7)[0]

    zero = np.zeros(domain.param_dim)
    c1, c2 = [], []
    for scale in scales:
        worst_c1 = worst_c2 = 0.0
        for x in samples:
            for j in range(domain.param_dim):
                beta = np.zeros(domain.param_dim)
                beta[j] = scale
                u0, g0 = domain.controller(x, zero), grad_x(x, zero)
                worst_c1 = max(worst_c1, float(np.max(np.abs(domain.controller(x, beta) - u0))))
                worst_c2 = max(worst_c2, float(np.max(np.abs(grad_x(x, beta) - g0))))
        c1.append(worst_c1)
        c2.append(worst_c2)
    return c1, c2


def test_validate_c1_c2_probes_the_nominal_controller_once_per_sample(stable2):
    # one stable-2 sample (3 states, 3 parameters): u0 and its 6-point FD
    # gradient once (7 calls), then 3 axes x 5 scales x 7 calls = 105
    domain = stable2.system.domains[0]
    calls = []

    def counting(x, beta):
        calls.append(1)
        return domain.controller(x, beta)

    sample = np.array([0.3, -0.2, 0.5])
    validate_c1_c2(replace(domain, controller=counting), [sample])
    assert len(calls) == 112

    nonlinear = make_domain(lambda x, beta: np.array([np.tanh(x[0] ** 2 - np.sin(x[1]) + beta @ [0.5, -0.8])]))
    for dom, samples in ((domain, [sample]), (nonlinear, [np.array([0.4, -0.6]), np.array([0.0, 0.2])])):
        report = validate_c1_c2(dom, samples)
        assert (report.c1_deviation, report.c2_deviation) == c1_c2_deviations_reference(dom, samples, report.scales)


@pytest.mark.parametrize("param_dim", [2, 0])
def test_validate_c1_c2_rejects_empty_or_misshaped_samples(param_dim):
    # checked before the param_dim == 0 shortcut: no report certifies
    # nothing, or states of another dimension
    dom = make_domain(lambda x, beta: np.array([x[0]]), param_dim=param_dim)
    for samples in ([], [np.zeros(5)], [np.zeros(2), np.zeros((1, 2))]):
        with pytest.raises(ValueError, match="sample"):
            validate_c1_c2(dom, samples)


# ---------------------------------------------------------------------- charts


def test_affine_chart_round_trip():
    normal = np.array([0.3, -0.9, 0.2])
    chart = affine_section_chart(normal, 0.7)
    rng = np.random.default_rng(3)
    y = rng.normal(size=(20, 2))
    x = chart.embed(y)
    assert x.shape == (20, 3)
    assert np.max(np.abs(x @ normal - 0.7)) < 1e-12
    assert np.max(np.abs(chart.project(x) - y)) < 1e-10


def test_affine_chart_drops_largest_component():
    chart = affine_section_chart(np.array([0.1, 5.0, 0.2]), 1.0)
    (x,) = chart.embed(np.array([[2.0, 3.0]]))
    assert x[0] == 2.0 and x[2] == 3.0  # middle coordinate was eliminated


def test_chart_from_guard_nonlinear():
    dom = Domain(
        state_dim=2,
        control_dim=0,
        param_dim=0,
        drift=lambda x: np.array([1.0, 0.0]),
        input_map=lambda x: np.zeros((2, 0)),
        controller=lambda x, beta: np.zeros(0),
        guard=lambda X: X[:, 1] ** 3 + X[:, 1] - X[:, 0],
        reset=lambda X: X,
    )
    x_ref = np.array([2.0, 1.0])  # guard(x_ref) = 0
    chart = chart_from_guard(dom, x_ref)
    y = np.array([[2.0], [1.5], [2.4]])
    x = chart.embed(y)
    assert x.shape == (3, 2)
    assert np.max(np.abs(dom.guard(x))) < 1e-10
    assert np.max(np.abs(chart.project(x) - y)) < 1e-12


# ----------------------------------------------------- orbits and feedback law


def test_periodic_orbit_validation():
    with pytest.raises(ValueError):
        PeriodicOrbit(fixed_points=(np.zeros(2),), phase_durations=(1.0, 2.0))
    with pytest.raises(ValueError):
        PeriodicOrbit(fixed_points=(np.zeros(2),), phase_durations=(-1.0,))
    orbit = PeriodicOrbit(fixed_points=(np.zeros(2), np.ones(2)), phase_durations=(1.0, 0.5))
    assert orbit.period == pytest.approx(1.5)


def test_feedback_law_beta_and_trust_radius():
    orbit = PeriodicOrbit(fixed_points=(np.zeros(2), np.ones(2)), phase_durations=(1.0, 1.0))
    law = FeedbackLaw(gains=(np.eye(2), np.eye(2)), orbit=orbit)
    beta = law.beta(0, np.array([1.2, 1.0]))  # deviation measured from section 1 point
    assert np.allclose(beta, [-0.2, 0.0])
    # The parameter set is unbounded: a large beta is returned, unwarned.
    assert np.allclose(law.beta(0, np.array([3.0, 1.0])), [-2.0, 0.0])
    # The trust radius is gone, not an option.
    with pytest.raises(TypeError):
        FeedbackLaw(gains=(np.eye(2), np.eye(2)), orbit=orbit, trust_radius=0.5)


def test_simulate_cycle_validates_gain_shapes(stable2, cfg_fast):
    orbit = stable2.orbit
    x0 = orbit.fixed_points[-1]
    wide_orbit = PeriodicOrbit(fixed_points=(np.zeros(3), np.zeros(3)), phase_durations=(1.0, 1.0))
    six_phases = PeriodicOrbit(fixed_points=orbit.fixed_points * 3, phase_durations=(1.0,) * 6)
    bad = [
        FeedbackLaw(gains=(np.zeros((3, 7)), np.zeros((3, 2))), orbit=orbit),
        FeedbackLaw(gains=(np.zeros((2, 2)), np.zeros((3, 2))), orbit=orbit),
        FeedbackLaw(gains=(np.zeros((3, 2)), np.zeros((3, 2))), orbit=wide_orbit),
        FeedbackLaw(gains=(np.zeros((3, 2)),) * 6, orbit=six_phases),
    ]
    for law in bad:
        with pytest.raises(ValueError):
            simulate_cycle(stable2.system, law, x0, 1, cfg_fast)
    good = FeedbackLaw(gains=(np.zeros((3, 2)), np.zeros((3, 2))), orbit=orbit)
    assert len(simulate_cycle(stable2.system, good, x0, 1, cfg_fast)) == 1


def test_zero_gain_law_reproduces_nominal_cycle(stable2, cfg_fast):
    orbit = stable2.orbit
    law = FeedbackLaw(gains=tuple(np.zeros((3, 2)) for _ in range(2)), orbit=orbit)
    x0 = orbit.fixed_points[-1] + np.array([4e-3, -2e-3])
    open_loop = simulate_cycle(stable2.system, None, x0, 3, cfg_fast)
    closed = simulate_cycle(stable2.system, law, x0, 3, cfg_fast)
    for a, b in zip(open_loop, closed):
        assert np.array_equal(a, b)


def test_first_step_error_maps_through_designed_jacobian(stable2, cfg_accurate):
    # one phase with feedback: deviation propagates through A - F K to first order
    jac = stable2.jacobians[0]
    gain = np.linalg.pinv(jac.F) @ (jac.A - 0.1 * np.eye(2))
    designed = jac.A - jac.F @ gain
    x_star_prev = stable2.orbit.fixed_points[-1]
    x_star_next = stable2.orbit.fixed_points[0]
    delta = np.array([7e-5, -5e-5])
    beta = -gain @ delta
    (out,), _ = section_step(stable2.system, 0, (x_star_prev + delta)[None], beta[None], cfg_accurate)
    predicted = x_star_next + designed @ delta
    assert np.max(np.abs(out - predicted)) < 1e-7


def test_system_requires_domains_and_charts():
    with pytest.raises(ValueError):
        MultiDomainSystem(domains=())
    dom = make_domain(lambda x, beta: np.zeros(1), param_dim=0)
    system = MultiDomainSystem(domains=(dom,))
    with pytest.raises(ValueError, match="exit chart"):
        system.chart(0)
