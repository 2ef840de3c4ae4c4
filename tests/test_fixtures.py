"""Reference-fixture consistency suite and the synthetic model family."""

import json
from dataclasses import fields
from importlib import resources

import numpy as np
import pytest
from scipy.linalg import expm

from hybrid_orbit import synthetic
from hybrid_orbit.integrator import IntegratorConfig, simulate_cycle
from hybrid_orbit.jsonio import FormatError
from hybrid_orbit.model import affine_chart_matrices
from hybrid_orbit.numerics import spectral_radius
from hybrid_orbit.paper import CHECK_FIELDS, K1_EXCLUDED_ENTRY, PaperFixture, paper_fixture, verify_paper
from hybrid_orbit.poincare import compose_jacobians, phase_jacobians, refine_fixed_point
from hybrid_orbit.synthetic import (
    CATALOG,
    LinearPhase,
    build_synthetic,
    from_catalog,
    synthetic_from_obj,
    synthetic_to_obj,
)
from helpers import corrupt


# ------------------------------------------------------------- fixture checks


def test_stock_fixture_all_checks_pass():
    report = verify_paper()
    assert report.passed
    assert {c.name for c in report.checks} == set(CHECK_FIELDS)
    table = report.format_table()
    for name in CHECK_FIELDS:
        assert name in table


def test_every_fixture_field_is_read_by_a_check():
    names = {f.name for f in fields(PaperFixture)}
    read = {field for deps in CHECK_FIELDS.values() for field in deps}
    assert names - read == set()
    assert read - names == set()


def test_corrupted_entry_fails_the_corresponding_check():
    report = verify_paper(corrupt(paper_fixture(), "K1", (0, 0)))
    failed = {c.name for c in report.failed()}
    assert failed == {"gain_reproduction_1"}
    (check,) = report.failed()
    assert "entry (1, 1)" in check.detail


@pytest.mark.parametrize(
    "field_name,index",
    [
        ("A", (0, 0)),
        ("A1", (0, 0)),
        ("A2", (1, 2)),
        ("F1", (2, 3)),
        ("F2", (0, 5)),
        ("K1", (2, 1)),
        ("K2", (4, 0)),
        ("A1d", (0, 0)),
        ("A2d", (2, 2)),
        ("Ad", (1, 1)),
        ("eigenvalues", 0),
        ("rho_A", None),
        ("rho_Ad", None),
        ("remark1_A1d", (0, 1)),
        ("remark1_A2d", (1, 0)),
        ("remark1_rho", None),
    ],
)
def test_fault_injection_flips_only_dependent_checks(field_name, index):
    report = verify_paper(corrupt(paper_fixture(), field_name, index))
    dependent = {name for name, deps in CHECK_FIELDS.items() if field_name in deps}
    failed = {c.name for c in report.failed()}
    assert failed, f"corrupting {field_name} flipped nothing"
    assert failed <= dependent, f"{failed - dependent} do not read {field_name}"


def test_fault_injection_full_red_sets():
    # for direct-transcription fields the whole dependent set goes red
    for field_name, index, expected in [
        ("A", (0, 0), {"compose_return_jacobian", "eigenvalue_reproduction", "open_loop_radius"}),
        ("Ad", (1, 1), {"designed_product"}),
        ("K2", (4, 0), {"gain_reproduction_2"}),
        ("remark1_A1d", (0, 1), {"remark1_product_radius"}),
    ]:
        report = verify_paper(corrupt(paper_fixture(), field_name, index))
        assert {c.name for c in report.failed()} == expected, field_name


def test_excluded_gain_entry_is_documented_not_checked():
    # the one inconsistent entry of the printed gain table is excluded from
    # the comparison, so corrupting it flips nothing; its measured value is
    # surfaced in the check detail instead
    report = verify_paper(corrupt(paper_fixture(), "K1", K1_EXCLUDED_ENTRY))
    assert report.passed
    (gain_check,) = [c for c in report.checks if c.name == "gain_reproduction_1"]
    assert "excluded entry (4, 3)" in gain_check.detail
    assert "-5.8548" in gain_check.detail


def test_tightened_tolerances_expose_print_precision_floor():
    # a hundredfold tighter tolerance would fail the 4-decimal product check
    report = verify_paper()
    (check,) = [c for c in report.checks if c.name == "compose_return_jacobian"]
    assert check.measured > 0.01 * check.tolerance


def test_fixture_loads_are_independent_copies():
    first = paper_fixture()
    first.A1[0, 0] = 99.0
    assert paper_fixture().A1[0, 0] != 99.0


def test_corrupt_rejects_unknown_field():
    with pytest.raises(ValueError):
        corrupt(paper_fixture(), "nope")


# ------------------------------------------------------------ synthetic family


def test_catalog_profiles_hit_their_radius_targets():
    targets = {"stable-2": 0.6, "stable-3": 0.6, "unstable-2": 4.0,
               "boundary-2": 1.0, "uncoupled-2": 0.6}
    for name in CATALOG:
        model = from_catalog(name)
        rho = spectral_radius(compose_jacobians(model.jacobians))
        assert rho == pytest.approx(targets[name], abs=1e-9), name


def test_build_is_deterministic():
    first = build_synthetic(3, "stable")
    second = build_synthetic(3, "stable")
    for a, b in zip(first.phases, second.phases):
        assert np.array_equal(a.drift, b.drift)
        assert np.array_equal(a.reset, b.reset)
        assert a.duration == b.duration
    for a, b in zip(first.jacobians, second.jacobians):
        assert np.array_equal(a.A, b.A)
        assert np.array_equal(a.F, b.F)


def test_build_rejects_bad_arguments():
    with pytest.raises(ValueError, match="profile"):
        build_synthetic(2, "wobbly")
    with pytest.raises(ValueError, match="two domains"):
        build_synthetic(1, "stable")
    with pytest.raises(ValueError):
        from_catalog("stable")


def test_zero_coupling_profile_has_zero_parameter_jacobians(uncoupled2, cfg_fast):
    for jac in uncoupled2.jacobians:
        assert np.array_equal(jac.F, np.zeros((2, 3)))
    fd = phase_jacobians(uncoupled2.system, uncoupled2.orbit, cfg_fast)
    for jac in fd:
        assert np.max(np.abs(jac.F)) < 1e-9


def test_engineered_orbit_is_a_return_map_fixed_point(stable3):
    cfg = IntegratorConfig(base_step=1e-3)
    x_star = stable3.orbit.fixed_points[-1]
    residual = simulate_cycle(stable3.system, None, x_star, 1, cfg)[0] - x_star
    assert np.max(np.abs(residual)) < 1e-9


def test_guard_normals_not_orthogonal_to_flow(stable3):
    # transversality margin by construction: flow and normal within ~80 deg
    for i, phase in enumerate(stable3.phases):
        (x_end,) = stable3.system.chart(i).embed(stable3.orbit.fixed_points[i][None])
        f_end = phase.drift @ x_end
        cosine = (phase.guard_normal @ f_end) / np.linalg.norm(f_end)
        assert cosine > np.cos(np.deg2rad(80.0))


@pytest.mark.parametrize("name", CATALOG)
def test_oracle_chart_is_the_runtime_chart(name):
    # The closed-form Jacobians and the integrated system differentiate the
    # same drop-coordinate chart, bit for bit.
    model = from_catalog(name)
    rng = np.random.default_rng(5)
    for i, phase in enumerate(model.phases):
        geometry = synthetic._phase_geometry(phase)
        embed, offset_vec, project = affine_chart_matrices(phase.guard_normal, phase.guard_offset)
        assert np.array_equal(geometry.embed, embed)
        assert np.array_equal(geometry.project, project)
        chart = model.system.chart(i)
        assert chart.k == project.shape[0]
        y = np.vstack([model.orbit.fixed_points[i], rng.normal(size=(4, chart.k))])
        x = chart.embed(y)
        assert np.array_equal(x, [embed @ row + offset_vec for row in y])
        assert np.array_equal(chart.project(x), [project @ row for row in x])
        assert np.array_equal(chart.project(geometry.x_end[None])[0], model.orbit.fixed_points[i])


def test_unstable_profile_open_loop_radius(unstable2):
    rho = spectral_radius(compose_jacobians(unstable2.jacobians))
    assert rho > 1.0


def test_descriptor_round_trip(stable2):
    doc = synthetic_to_obj(stable2)
    rebuilt = synthetic_from_obj(doc)
    for a, b in zip(stable2.phases, rebuilt.phases):
        assert np.array_equal(a.drift, b.drift)
        assert np.array_equal(a.guard_normal, b.guard_normal)
        assert a.guard_offset == b.guard_offset
    for a, b in zip(stable2.jacobians, rebuilt.jacobians):
        assert np.max(np.abs(a.A - b.A)) < 1e-15
        assert np.max(np.abs(a.F - b.F)) < 1e-15
    for a, b in zip(stable2.orbit.fixed_points, rebuilt.orbit.fixed_points):
        assert np.max(np.abs(a - b)) < 1e-15


@pytest.mark.parametrize("name", CATALOG)
def test_descriptor_rebuilds_byte_identically(name):
    doc = json.dumps(synthetic_to_obj(from_catalog(name)))
    assert json.dumps(synthetic_to_obj(synthetic_from_obj(json.loads(doc)))) == doc


def test_descriptor_phases_have_exactly_the_linear_phase_fields():
    keys = [f.name for f in fields(LinearPhase)]
    for name in CATALOG:
        doc = synthetic_to_obj(from_catalog(name))
        assert [list(phase) for phase in doc["phases"]] == [keys] * len(doc["phases"])


def _edited(stable2, edit):
    doc = synthetic_to_obj(stable2)
    edit(doc)
    return doc


@pytest.mark.parametrize(
    "edit, where",
    [
        (lambda d: d.pop("phases"), r"^phases: "),
        (lambda d: d.update(phases={"0": {}}), r"^phases: "),
        (lambda d: d["phases"].__setitem__(1, [1.0]), r"^phases\[1\]: "),
        (lambda d: d["phases"][0].pop("reset"), r"^phases\[0\]\.reset: missing"),
        (lambda d: d["phases"][1].pop("duration"), r"^phases\[1\]\.duration: missing"),
        (lambda d: d["phases"][0].update(duration="0.7"), r"^phases\[0\]\.duration: non-numeric"),
        (lambda d: d["phases"][0].update(duration=True), r"^phases\[0\]\.duration: non-numeric"),
        (lambda d: d["phases"][0].update(duration=None), r"^phases\[0\]\.duration: non-numeric"),
        (lambda d: d["phases"][1].update(guard_offset="1"), r"^phases\[1\]\.guard_offset: non-numeric"),
        (lambda d: d["phases"][1].update(guard_offset=True), r"^phases\[1\]\.guard_offset: non-numeric"),
        (lambda d: d["phases"][1].update(guard_offset=None), r"^phases\[1\]\.guard_offset: non-numeric"),
        (lambda d: d["phases"][1].update(guard_offset=float("inf")), r"^phases\[1\]\.guard_offset: non-finite"),
    ],
    ids=[
        "no-phases", "phases-not-list", "phase-not-object", "missing-reset", "missing-duration",
        "duration-string", "duration-bool", "duration-null",
        "offset-string", "offset-bool", "offset-null", "offset-inf",
    ],
)
def test_descriptor_errors_name_the_field(stable2, edit, where):
    with pytest.raises(FormatError, match=where):
        synthetic_from_obj(_edited(stable2, edit))


@pytest.mark.parametrize("doc", [None, [], "stable-2", 1.0])
def test_descriptor_must_be_an_object(doc):
    with pytest.raises(FormatError, match="^descriptor: "):
        synthetic_from_obj(doc)


# ------------------------------------------------------ catalog approach check


def scalar_approach_ok(drift, duration, start, normal, offset):
    """The approach check as a step-by-step loop over the 799 grid states."""
    step_flow = expm(drift * (duration / 800.0))
    x_t = start.copy()
    for step_index in range(799):
        h_t = normal @ x_t - offset
        if h_t >= 0.0:
            return False
        if step_index <= 736 and h_t > -0.05:
            return False
        x_t = step_flow @ x_t
    return True


def approach_draw(rng):
    """Phase geometry drawn the way _draw_phases draws it, without its
    earlier rejections."""
    drift = rng.uniform(-1.0, 1.0, (3, 3)) * 0.7
    duration = rng.uniform(0.5, 0.9)
    start = rng.uniform(-1.0, 1.0, 3)
    start = start / np.linalg.norm(start) * rng.uniform(0.8, 1.4)
    x_end = expm(drift * duration) @ start
    f_end = drift @ x_end
    f_hat = f_end / np.linalg.norm(f_end)
    v = rng.uniform(-1.0, 1.0, 3)
    v -= (v @ f_hat) * f_hat
    normal = f_hat + 0.45 * (v / np.linalg.norm(v))
    normal /= np.linalg.norm(normal)
    if normal @ f_end < 0.0:
        normal = -normal
    return drift, duration, start, normal, float(normal @ x_end)


def test_approach_check_matches_scalar_loop():
    rng = np.random.default_rng(20161)
    decisions = []
    for _ in range(2000):
        draw = approach_draw(rng)
        decision = synthetic._approach_ok(*draw)
        assert decision == scalar_approach_ok(*draw)
        decisions.append(decision)
        if decision:
            # a lowered guard that the approach first meets near its end
            lowered = draw[:4] + (draw[4] - rng.uniform(0.0, 0.01),)
            assert synthetic._approach_ok(*lowered) == scalar_approach_ok(*lowered)
    assert 100 < sum(decisions) < 1900


def test_catalog_unchanged_under_scalar_approach_check(monkeypatch):
    names = CATALOG + ("unstable-3",)
    vectorised = [json.dumps(synthetic_to_obj(_build(n))) for n in names]
    monkeypatch.setattr(synthetic, "_approach_ok", scalar_approach_ok)
    scalar = [json.dumps(synthetic_to_obj(_build(n))) for n in names]
    assert vectorised == scalar


# ------------------------------------------------------------ stored catalog

REGENERATE = (
    "PYTHONPATH=src python -c \"from hybrid_orbit import synthetic; "
    "open('src/hybrid_orbit/data/catalog.json', 'w').write(synthetic._catalog_text())\""
)


def _build(name):
    """Generate a '<profile>-<n_domains>' system afresh."""
    profile, n_domains = name.rsplit("-", 1)
    return build_synthetic(int(n_domains), profile)


def test_stored_catalog_is_the_generated_catalog():
    stored = resources.files("hybrid_orbit").joinpath("data/catalog.json").read_text()
    assert stored == synthetic._catalog_text(), f"data/catalog.json is stale; regenerate it with {REGENERATE}"


@pytest.mark.parametrize("name", CATALOG)
def test_stored_orbit_is_the_generated_orbit(name):
    stored, generated = from_catalog(name).orbit, _build(name).orbit
    assert len(stored.fixed_points) == len(generated.fixed_points)
    for a, b in zip(stored.fixed_points, generated.fixed_points):
        assert np.array_equal(a, b)
    assert stored.phase_durations == generated.phase_durations


@pytest.mark.parametrize("name", CATALOG)
def test_stored_and_generated_systems_run_bit_identically(name):
    cfg = IntegratorConfig()
    runs = []
    for model in (_build(name), from_catalog(name)):
        orbit = refine_fixed_point(model.system, model.orbit.fixed_points[-1], cfg)
        runs.append((orbit, phase_jacobians(model.system, orbit, cfg)))
    (orbit_g, jacs_g), (orbit_s, jacs_s) = runs
    for a, b in zip(orbit_g.fixed_points, orbit_s.fixed_points):
        assert np.array_equal(a, b)
    assert orbit_g.phase_durations == orbit_s.phase_durations
    for a, b in zip(jacs_g, jacs_s):
        assert np.array_equal(a.A, b.A)
        assert np.array_equal(a.F, b.F)


def test_from_catalog_knows_only_the_stored_systems():
    with pytest.raises(ValueError, match="available: " + ", ".join(CATALOG)):
        from_catalog("unstable-3")
