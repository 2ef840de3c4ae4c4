"""Command-line pipeline: round trips, determinism and exit codes."""

import json
import os
from dataclasses import fields, replace
import subprocess
import sys

import numpy as np
import pytest

import hybrid_orbit
from hybrid_orbit import cli, numerics, poincare, synthesis, synthetic
from hybrid_orbit.cli import main
from hybrid_orbit.integrator import (
    Chattering,
    IntegrationError,
    IntegratorConfig,
    NoCrossing,
    NonFinite,
    NonTransversal,
)
from hybrid_orbit.jsonio import dump_json, matrix_to_obj
from hybrid_orbit.paper import FixtureCheck, paper_fixture, verify_paper
from hybrid_orbit.poincare import FixedPointError
from hybrid_orbit.synthetic import CATALOG, from_catalog
from test_poincare import _reset_counter


FAST = ["--base-step", "5e-3"]


def run(argv):
    return main([str(a) for a in argv])


@pytest.mark.parametrize("system", CATALOG)
def test_analyze_synthesize_certify_round_trip(system, tmp_path):
    jacs = tmp_path / "jacs.json"
    gains = tmp_path / "gains.json"
    cert = tmp_path / "cert.json"
    assert run(["analyze", "--system", system, "-o", jacs] + FAST) == 0
    code = run(["synthesize", "-i", jacs, "--method", "scale", "-o", gains])
    assert code in (0, 1)
    assert run(["certify", "-i", gains, "-o", cert]) == code

    doc = json.loads(jacs.read_text())
    assert {p["phase"] for p in doc["phases"]} == set(range(1, len(doc["phases"]) + 1))
    report = json.loads(gains.read_text())["report"]
    assert report["verdict"] in ("stable", "unstable")


def test_analyze_defaults_match_the_closed_form(tmp_path):
    # No --base-step: the default settings alone must give
    # the exact per-phase Jacobians to FD accuracy.
    out = tmp_path / "jacs.json"
    for system in CATALOG:
        assert run(["analyze", "--system", system, "-o", out]) == 0
        phases = json.loads(out.read_text())["phases"]
        exact = from_catalog(system).jacobians
        assert len(phases) == len(exact)
        for phase, jac in zip(phases, exact):
            for key, ref in (("A", jac.A), ("F", jac.F)):
                got = np.array(phase[key]["data"]).reshape(phase[key]["rows"], phase[key]["cols"])
                assert np.max(np.abs(got - ref)) <= 1e-8, (system, phase["phase"], key)


def test_base_step_default_is_the_integrator_default():
    for command in ("analyze", "simulate"):
        args = cli._build_parser(command).parse_args([command, "--system", "stable-2", "-o", "x"])
        assert args.base_step == IntegratorConfig().base_step


def test_synthesize_methods_and_flags(tmp_path):
    jacs = tmp_path / "jacs.json"
    out = tmp_path / "out.json"
    assert run(["analyze", "--system", "stable-2", "-o", jacs] + FAST) == 0

    assert run(["synthesize", "-i", jacs, "--method", "symmetric", "-o", out]) == 0
    assert json.loads(out.read_text())["report"]["product_radius"] < 1e-6

    assert run(["synthesize", "-i", jacs, "--method", "scale", "--eta", "0.9", "-o", out]) == 0
    doc = json.loads(out.read_text())
    assert doc["method"] == "scale_factor"
    assert all(r < 1e-6 for r in doc["residuals"])
    assert doc["report"]["theorem4"]["passed"]  # eta < 1 restores a strict margin

    assert run(["synthesize", "-i", jacs, "--method", "dlqr", "--q", "10", "-o", out]) == 0
    assert json.loads(out.read_text())["q_scalings"] == [1.0, 1.0]


def test_synthesize_rejects_mismatched_flags(tmp_path):
    jacs = tmp_path / "jacs.json"
    assert run(["analyze", "--system", "stable-2", "-o", jacs] + FAST) == 0
    out = tmp_path / "out.json"
    assert run(["synthesize", "-i", jacs, "--method", "scale", "--q", "2", "-o", out]) == 2
    assert run(["synthesize", "-i", jacs, "--method", "dlqr", "--eta", "0.5", "-o", out]) == 2


def test_synthesize_reference_jacobians_file(tmp_path):
    fx = paper_fixture()
    jacs = tmp_path / "reference_jacs.json"
    dump_json(
        {
            "phases": [
                {"A": matrix_to_obj(fx.A1), "F": matrix_to_obj(fx.F1)},
                {"A": matrix_to_obj(fx.A2), "F": matrix_to_obj(fx.F2)},
            ]
        },
        jacs,
    )
    out = tmp_path / "gains.json"
    assert run(["synthesize", "-i", jacs, "--method", "scale", "-o", out]) == 0
    report = json.loads(out.read_text())["report"]
    assert report["product_radius"] == pytest.approx(0.0173, abs=1e-3)
    assert report["verdict"] == "stable"


def test_certify_reference_pair_is_unstable(tmp_path):
    fx = paper_fixture()
    designed = tmp_path / "designed.json"
    dump_json({"designed": [matrix_to_obj(fx.remark1_A1d), matrix_to_obj(fx.remark1_A2d)]}, designed)
    out = tmp_path / "cert.json"
    assert run(["certify", "-i", designed, "-o", out]) == 1
    doc = json.loads(out.read_text())
    assert doc["verdict"] == "unstable"
    assert doc["product_radius"] == pytest.approx(1.0453, abs=1e-4)
    assert not doc["theorem3"]["passed"]


def test_certify_of_an_overflowing_spectrum_is_a_numerical_failure(tmp_path, capsys):
    # The eigenvalue 2e308 of finite entries is not written as Infinity.
    designed = tmp_path / "designed.json"
    dump_json({"designed": [matrix_to_obj(np.full((2, 2), 1e308))]}, designed)
    out = tmp_path / "cert.json"
    assert run(["certify", "-i", designed, "-o", out]) == 3
    assert "overflowed" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_certify_of_an_overflowing_product_is_a_numerical_failure(tmp_path, capsys):
    # Each factor is finite with a finite spectrum; their product is not.
    designed = tmp_path / "designed.json"
    dump_json({"designed": [matrix_to_obj(np.full((2, 2), 1e200))] * 2}, designed)
    out = tmp_path / "cert.json"
    assert run(["certify", "-i", designed, "-o", out]) == 3
    assert capsys.readouterr().err == "numerical failure: product of the designed Jacobians overflowed\n"
    assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_certify_of_an_overflowing_symmetry_defect_is_a_numerical_failure(tmp_path, capsys):
    # The factor is finite, but m - m.T is not.
    designed = tmp_path / "designed.json"
    dump_json({"designed": [matrix_to_obj(np.array([[0.0, 1e308], [-1e308, 0.0]]))]}, designed)
    out = tmp_path / "cert.json"
    assert run(["certify", "-i", designed, "-o", out]) == 3
    assert capsys.readouterr().err == "numerical failure: symmetry defect of designed Jacobian 0 overflowed\n"
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("method", ["symmetric", "scale", "dlqr"])
def test_synthesize_of_an_overflowing_gain_is_a_numerical_failure(tmp_path, capsys, method):
    # A and F are finite, but the pinv gain 1e400 is not; dlqr's Riccati
    # solve diverges on the same input.
    jacs = tmp_path / "jacs.json"
    dump_json({"phases": [{"A": matrix_to_obj(1e200 * np.eye(2)),
                           "F": matrix_to_obj(np.array([[1e-200], [0.0]]))}]}, jacs)
    out = tmp_path / "gains.json"
    assert run(["synthesize", "-i", jacs, "--method", method, "-o", out]) == 3
    assert capsys.readouterr().err.startswith("numerical failure: phase 0: ")
    assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_scale_design_of_a_subnormal_a_names_the_overflowing_factor(tmp_path, capsys):
    # max|A| = 1e-320 makes c = 1 / (2 max|A|) overflow.  The target
    # (A / max|A|) (eta / k) stays finite, but the factor cannot be written,
    # so the design exits 3 with no warning and no output.
    jacs = tmp_path / "jacs.json"
    dump_json({"phases": [{"A": matrix_to_obj(np.array([[1e-320, 0.0], [0.0, 0.0]])),
                           "F": matrix_to_obj(np.eye(2))}]}, jacs)
    out = tmp_path / "gains.json"
    assert run(["synthesize", "-i", jacs, "--method", "scale", "-o", out]) == 3
    assert capsys.readouterr().err == (
        "numerical failure: phase 0: scale factor c_i = eta / (k max|A|) overflows at max|A| = 1.000e-320\n"
    )
    assert not out.exists()


def test_designed_jacobians_that_overflow_raise_numerics_error():
    jacs = [numerics.PhaseJacobians(0, np.eye(2), np.full((2, 1), 1e200))]
    gains = synthesis.GainSet("given", [np.full((1, 2), 1e200)], [0.0], False)
    with np.errstate(all="raise"), pytest.raises(numerics.NumericsError, match="phase 0: designed Jacobian overflowed"):
        synthesis.designed_jacobians(jacs, gains)


@pytest.mark.parametrize("method", ["symmetric", "scale", "dlqr"])
def test_design_names_the_phase_whose_f_and_a_rows_differ(tmp_path, capsys, method):
    jacs = tmp_path / "jacs.json"
    dump_json({"phases": [{"A": matrix_to_obj(np.eye(2)), "F": matrix_to_obj(np.ones((3, 1)))}]}, jacs)
    out = tmp_path / "gains.json"
    assert run(["synthesize", "-i", jacs, "--method", method, "-o", out]) == 2
    assert capsys.readouterr().err == "input error: phase 0: F has 3 rows, A has 2\n"
    assert not out.exists()


def test_symmetric_design_names_the_phase_of_a_mismatched_section(tmp_path, capsys):
    jacs = tmp_path / "jacs.json"
    dump_json({"phases": [{"A": matrix_to_obj(np.eye(3)), "F": matrix_to_obj(np.ones((3, 1)))},
                          {"A": matrix_to_obj(np.eye(2)), "F": matrix_to_obj(np.ones((2, 1)))}]}, jacs)
    out = tmp_path / "gains.json"
    assert run(["synthesize", "-i", jacs, "--method", "symmetric", "-o", out]) == 2
    assert capsys.readouterr().err == "input error: phase 1: A has shape (2, 2), the target (3, 3)\n"
    assert not out.exists()


def test_certify_repeats_the_synthesize_verdict(tmp_path):
    # certify re-derives from the designed Jacobians alone the four verdict
    # keys of the synthesize report
    jacs, gains, cert = tmp_path / "jacs.json", tmp_path / "gains.json", tmp_path / "cert.json"
    assert run(["analyze", "--system", "stable-3", "-o", jacs] + FAST) == 0
    assert run(["synthesize", "-i", jacs, "--method", "dlqr", "-o", gains]) == 0
    assert run(["certify", "-i", gains, "-o", cert]) == 0
    report = json.loads(gains.read_text())["report"]
    keys = ["theorem3", "theorem4", "product_radius", "verdict"]
    assert json.loads(cert.read_text()) == {key: report[key] for key in keys}


def test_malformed_inputs_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    out = tmp_path / "out.json"
    assert run(["synthesize", "-i", bad, "--method", "scale", "-o", out]) == 2
    missing_field = tmp_path / "missing.json"
    missing_field.write_text(json.dumps({"phases": [{"A": {"rows": 1}}]}))
    assert run(["synthesize", "-i", missing_field, "--method", "scale", "-o", out]) == 2
    assert run(["analyze", "--system", "not-a-system", "-o", out]) == 2
    assert run(["certify", "-i", tmp_path / "absent.json", "-o", out]) == 2
    for report in (5, "designed"):
        dump_json({"report": report}, bad)
        capsys.readouterr()
        assert run(["certify", "-i", bad, "-o", out]) == 2
        assert "input.report" in capsys.readouterr().err
    # A non-square factor is named by index, and factors of two sizes are
    # refused, before any eigenvalue is taken; an entry path starts at the
    # document root.
    for doc, message in (
        ({"designed": [{"rows": 1, "cols": 2, "data": [1, 2]}]},
         "designed Jacobian 0 is not square: (1, 2)"),
        ({"designed": [matrix_to_obj(0.5 * np.eye(2)), matrix_to_obj(0.5 * np.eye(3))]},
         "designed Jacobians must share one dimension"),
        ({"designed": [{"rows": 1, "cols": 1, "data": [True]}]},
         "input.designed[0].data[0]: non-numeric entry True"),
        ({"report": {"designed": [matrix_to_obj(np.eye(2)), {"rows": 1, "cols": 1, "data": ["x"]}]}},
         "input.report.designed[1].data[0]: non-numeric entry 'x'"),
    ):
        dump_json(doc, bad)
        assert run(["certify", "-i", bad, "-o", out]) == 2
        assert capsys.readouterr().err == f"input error: {message}\n"
    assert not out.exists()

    # file-system errors on an input or output path
    designed = tmp_path / "designed.json"
    dump_json({"designed": [matrix_to_obj(0.5 * np.eye(2))]}, designed)
    assert run(["certify", "-i", designed / "x", "-o", out]) == 2
    assert run(["certify", "-i", tmp_path, "-o", out]) == 2
    assert run(["certify", "-i", designed, "-o", designed / "out.json"]) == 2
    assert run(["certify", "-i", designed, "-o", tmp_path / "absent" / "out.json"]) == 2
    assert run(["verify-paper", "-o", designed / "v.json"]) == 2
    assert run(["analyze", "--system", "stable-2", "-o", designed / "j.json"] + FAST) == 2
    assert run(["simulate", "--system", "stable-2", "--cycles", 1,
                "-o", designed / "s.csv"] + FAST) == 2

    for flags in (["--base-step", "nan"], ["--base-step", "inf"], ["--base-step", "1e-300"]):
        assert run(["analyze", "--system", "stable-2", "-o", out] + flags) == 2
        assert run(["simulate", "--system", "stable-2", "-o", out] + flags) == 2
    sim = tmp_path / "sim.csv"
    assert run(["simulate", "--system", "stable-2", "--cycles", -3, "-o", sim]) == 2
    assert run(["simulate", "--system", "stable-2", "--perturb", "nan", "-o", sim]) == 2
    assert not sim.exists()


def test_fd_step_is_not_an_option(tmp_path):
    # The finite-difference step is the constant poincare._FD_STEP.
    for command in (["analyze", "--system", "stable-2", "-o", tmp_path / "j.json"],
                    ["simulate", "--system", "stable-2", "-o", tmp_path / "s.csv"]):
        with pytest.raises(SystemExit) as exc:
            run(command + ["--fd-step", "1e-5"])
        assert exc.value.code == 2
    assert not list(tmp_path.iterdir())


def test_analyze_and_simulate_make_one_pass(tmp_path, monkeypatch):
    # From the stored start Newton converges on its first pass, and the
    # Jacobians of that pass are the ones both commands use: 33 resets on
    # stable-3, one per member of one pass.
    model = from_catalog("stable-3")
    counted, resets = _reset_counter(model.system)
    monkeypatch.setattr(synthetic, "from_catalog", lambda name: replace(model, system=counted))
    assert run(["analyze", "--system", "stable-3", "-o", tmp_path / "j.json"]) == 0
    assert len(resets) == 33
    resets.clear()
    assert run(["simulate", "--system", "stable-3", "--method", "dlqr", "--cycles", 0,
                "-o", tmp_path / "s.csv"]) == 0
    assert len(resets) == 33


def test_a_reset_written_for_one_state_exits_two(tmp_path, monkeypatch, capsys):
    # A reset takes the stack of a phase's 11 Newton members; one written
    # for a single 3-vector returns 3 rows, which the flow refuses.
    model = from_catalog("stable-3")
    row_form = replace(model.system, domains=tuple(
        replace(dom, reset=lambda x: np.array([x[0], x[1], x[2]])) for dom in model.system.domains
    ))
    monkeypatch.setattr(synthetic, "from_catalog", lambda name: replace(model, system=row_form))
    assert run(["analyze", "--system", "stable-3", "-o", tmp_path / "j.json"]) == 2
    assert capsys.readouterr().err == "input error: start stack has shape (3, 3), expected (11, 3)\n"
    assert list(tmp_path.iterdir()) == []


def test_numerical_failure_exits_three(tmp_path):
    # an uncontrollable phase: F = 0 with an expanding A
    jacs = tmp_path / "jacs.json"
    dump_json(
        {
            "phases": [
                {
                    "A": matrix_to_obj(2.0 * np.eye(2)),
                    "F": matrix_to_obj(np.zeros((2, 3))),
                }
            ]
        },
        jacs,
    )
    out = tmp_path / "out.json"
    assert run(["synthesize", "-i", jacs, "--method", "dlqr", "-o", out]) == 3


def test_typed_errors_are_numerics_errors_except_synthesis_error():
    for error in (IntegrationError, FixedPointError):
        assert issubclass(error, numerics.NumericsError)
    assert not issubclass(synthesis.SynthesisError, numerics.NumericsError)


@pytest.mark.parametrize("error", [
    IntegrationError, NoCrossing, NonTransversal, Chattering, NonFinite,
    FixedPointError, numerics.NumericsError, synthesis.SynthesisError,
])
def test_each_typed_failure_exits_three(error, monkeypatch, tmp_path, capsys):
    def fail(*args, **kwargs):
        raise error("no orbit here")

    monkeypatch.setattr(poincare, "orbit_and_jacobians", fail)
    for command in ("analyze", "simulate"):
        assert run([command, "--system", "stable-2", "-o", tmp_path / "out"]) == 3
        assert capsys.readouterr().err == "numerical failure: no orbit here\n"
    assert list(tmp_path.iterdir()) == []


def test_a_failed_enforce_t4_names_its_phase_once(tmp_path, capsys):
    # phase 1's second state is out of reach of F and keeps its 0.5, which
    # is not below 1 / k = 0.5 however far Q grows
    reachable = {"A": matrix_to_obj(0.9 * np.eye(2)), "F": matrix_to_obj(np.eye(2))}
    stuck = {"A": matrix_to_obj(np.diag([0.9, 0.5])), "F": matrix_to_obj([[1.0], [0.0]])}
    jacs = tmp_path / "jacs.json"
    dump_json({"phases": [reachable, stuck]}, jacs)
    out = tmp_path / "gains.json"
    assert run(["synthesize", "-i", jacs, "--method", "dlqr", "--enforce-t4", "-o", out]) == 3
    err = capsys.readouterr().err
    assert err == "numerical failure: phase 1: entrywise bound not reached after 12 Q scalings\n"
    assert not out.exists()


def test_diverging_open_loop_run_is_not_a_stall(tmp_path):
    # Open loop, unstable-2 diverges about 5.4x per cycle.  By cycle 14 the
    # state is near 6e6, where rounding alone puts |H| above the absolute
    # guard_tol at the located crossing; that is accepted, not a stall.
    out = tmp_path / "d.csv"
    assert run(["simulate", "--system", "unstable-2", "--method", "none", "--cycles", 20, "-o", out]) == 0
    errors = [float(line.split(",")[1]) for line in out.read_text().splitlines()[1:]]
    assert len(errors) == 21 and errors[-1] > 1e11
    ratios = np.array(errors[11:]) / np.array(errors[10:-1])
    assert np.all((ratios > 5.3) & (ratios < 5.5))


@pytest.mark.filterwarnings("error")
def test_err_norm_stays_finite_while_the_state_does(tmp_path):
    # From cycle 215 the sum of squares of the error overflows while the
    # state is still finite; err_norm must neither warn nor read inf.
    out = tmp_path / "o.csv"
    assert run(["simulate", "--system", "unstable-2", "--method", "none", "--cycles", 300, "-o", out]) == 0
    rows = np.array([[float(v) for v in line.split(",")] for line in out.read_text().splitlines()[1:]])
    assert len(rows) == 301 and np.all(np.isfinite(rows))
    errors = rows[:, 1]
    assert errors[-1] > 1e216
    ratios = errors[11:] / errors[10:-1]
    assert np.all((ratios > 5.3) & (ratios < 5.5))


@pytest.mark.filterwarnings("error")
def test_overflowing_reset_is_a_numerical_failure(tmp_path, capsys):
    # Open loop, unstable-2 grows about 5.4x per cycle until the state
    # overflows in the phase-1 reset, from a 1e-2 start before cycle 600
    # and from a 1e200 start sooner.  That fails as NonFinite with its
    # phase, exit 3, and no floating-point warning is raised on the way.
    out = tmp_path / "o.csv"
    argv = ["simulate", "--system", "unstable-2", "--method", "none", "--cycles", 600, "-o", out]
    assert run(argv + ["--perturb", 1e200]) == 3
    assert capsys.readouterr().err == "numerical failure: phase 1: state became non-finite near t = 0\n"
    assert list(tmp_path.iterdir()) == []


def test_non_hyperbolic_orbit_reports_sigma_min(tmp_path, capsys):
    # boundary-2's return map has an eigenvalue of exactly 1; at base step
    # 3e-2 Newton stalls just above its tolerance, and says why.
    assert run(["analyze", "--system", "boundary-2", "--base-step", "3e-2", "-o", tmp_path / "j.json"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: Newton stalled: residual ")
    sigma = float(err.split("sigma_min(DP - I) = ")[1])
    assert 0.0 < sigma < 1e-7
    assert list(tmp_path.iterdir()) == []


def test_outputs_are_byte_identical(tmp_path):
    jacs = tmp_path / "jacs.json"
    assert run(["analyze", "--system", "stable-2", "-o", jacs] + FAST) == 0
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    run(["synthesize", "-i", jacs, "--method", "dlqr", "-o", first])
    run(["synthesize", "-i", jacs, "--method", "dlqr", "-o", second])
    assert first.read_bytes() == second.read_bytes()

    sim1 = tmp_path / "a.csv"
    sim2 = tmp_path / "b.csv"
    args = ["simulate", "--system", "stable-2", "--method", "scale",
            "--cycles", 3, "--seed", 7] + FAST
    assert run(args + ["-o", sim1]) == 0
    assert run(args + ["-o", sim2]) == 0
    assert sim1.read_bytes() == sim2.read_bytes()


def test_simulate_zero_perturbation_stays_put(tmp_path):
    out = tmp_path / "sim.csv"
    assert run(["simulate", "--system", "stable-3", "--cycles", 3,
                "--perturb", "0", "-o", out] + FAST) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("cycle,err_norm,x1")
    assert len(lines) == 5  # header + initial + 3 cycles
    for line in lines[1:]:
        assert float(line.split(",")[1]) < 1e-7


def test_simulate_seed_changes_direction(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    base = ["simulate", "--system", "stable-2", "--cycles", 1, "--perturb", "1e-2"] + FAST
    assert run(base + ["--seed", 1, "-o", a]) == 0
    assert run(base + ["--seed", 2, "-o", b]) == 0
    assert a.read_bytes() != b.read_bytes()


def test_verify_paper_exit_and_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run(["verify-paper", "-o", out]) == 0
    printed = capsys.readouterr().out
    assert "compose_return_jacobian" in printed
    doc = json.loads(out.read_text())
    assert doc["passed"] is True
    assert len(doc["checks"]) == 11


def test_verify_paper_report_writes_each_fixture_check_whole(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run(["verify-paper", "-o", out]) == 0
    doc = json.loads(out.read_text())
    report = verify_paper()
    keys = [f.name for f in fields(FixtureCheck)]
    assert len(doc["checks"]) == len(report.checks)
    for written, check in zip(doc["checks"], report.checks):
        assert sorted(written) == sorted(keys)
        assert written == {key: getattr(check, key) for key in keys}


def _loaded_after(code, tmp_path):
    """Run code in a fresh interpreter; the scipy and hybrid_orbit modules
    it imported."""
    src = os.path.dirname(os.path.dirname(hybrid_orbit.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = code + (
        "\nimport sys\n"
        "print(' '.join(m for m in sys.modules if m == 'scipy' or m.startswith('hybrid_orbit')))\n"
    )
    done = subprocess.run([sys.executable, "-c", probe], cwd=tmp_path, env=env,
                          capture_output=True, text=True, check=True)
    return set(done.stdout.strip().splitlines()[-1].split())


def _paper_jacobians_file(path):
    fx = paper_fixture()
    dump_json({"phases": [{"A": matrix_to_obj(fx.A1), "F": matrix_to_obj(fx.F1)},
                          {"A": matrix_to_obj(fx.A2), "F": matrix_to_obj(fx.F2)}]},
              path)


_DESIGN = {"jsonio", "numerics", "synthesis"}
_FLOW = _DESIGN | {"integrator", "model", "poincare", "synthetic"}


@pytest.mark.parametrize("argv, modules", [
    (None, set()),
    (["synthesize", "-i", "jacs.json", "--method", "dlqr", "--enforce-t4", "-o", "g.json"], _DESIGN),
    (["certify", "-i", "designed.json", "-o", "c.json"], _DESIGN),
    (["analyze", "--system", "stable-2", "-o", "j.json"], _FLOW),
    (["simulate", "--system", "stable-2", "--method", "dlqr", "--cycles", "2", "-o", "s.csv"], _FLOW),
    (["verify-paper", "-o", "v.json"], _DESIGN | {"paper"}),
], ids=["import", "synthesize", "certify", "analyze", "simulate", "verify-paper"])
def test_each_command_loads_only_its_modules(argv, modules, tmp_path):
    _paper_jacobians_file(tmp_path / "jacs.json")
    dump_json({"designed": [matrix_to_obj(0.5 * np.eye(2))]}, tmp_path / "designed.json")
    code = "import hybrid_orbit" if argv is None else (
        f"from hybrid_orbit.cli import main\nassert main({argv!r}) == 0"
    )
    loaded = _loaded_after(code, tmp_path)
    package = {"hybrid_orbit"} | (set() if argv is None else {"hybrid_orbit.cli"})
    assert loaded == package | {f"hybrid_orbit.{m}" for m in modules}


def test_scipy_is_imported_only_to_build_synthetic_systems(tmp_path):
    _paper_jacobians_file(tmp_path / "jacs.json")
    assert "scipy" not in _loaded_after("import hybrid_orbit", tmp_path)
    assert "scipy" not in _loaded_after("import hybrid_orbit.cli", tmp_path)
    commands = (
        "from hybrid_orbit.cli import main\n"
        "assert main(['synthesize', '-i', 'jacs.json', '--method', 'dlqr', '-o', 'g.json']) == 0\n"
        "assert main(['certify', '-i', 'g.json', '-o', 'c.json']) == 0\n"
        "assert main(['verify-paper', '-o', 'v.json']) == 0\n"
    )
    assert "scipy" not in _loaded_after(commands, tmp_path)
    # analyze and simulate run a catalog system from its stored data
    runs = "from hybrid_orbit.cli import main\n" + "".join(
        f"assert main(['analyze', '--system', '{name}', '-o', 'j.json']) == 0\n" for name in CATALOG
    ) + "".join(
        f"assert main(['simulate', '--system', 'stable-2', '--method', '{method}', "
        f"'--cycles', '2', '-o', 's.csv']) == 0\n"
        for method in ("none", "symmetric", "scale", "dlqr")
    )
    assert "scipy" not in _loaded_after(runs, tmp_path)
    # the closed-form oracle is what needs it
    assert "scipy" in _loaded_after(
        "from hybrid_orbit.synthetic import from_catalog\nfrom_catalog('stable-2').jacobians\n",
        tmp_path,
    )
