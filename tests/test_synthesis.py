"""Gain design methods and the product-contraction certificates."""

import numpy as np
import pytest

from hybrid_orbit import synthesis
from hybrid_orbit.numerics import NumericsError, _dare_residual, max_abs_entry, pinv, spectral_radius
from hybrid_orbit.synthesis import (
    SynthesisError,
    certify_designed,
    designed_jacobians,
    dlqr_gains,
    scale_factor_gains,
    stability_report,
    symmetric_matrix_gains,
)
from hybrid_orbit.synthetic import from_catalog
from helpers import dare


def random_jacs(rng, n_phases=2, k=3, p=5, spread=1.0):
    out = []
    for _ in range(n_phases):
        a = rng.normal(size=(k, k)) * spread
        f = rng.normal(size=(k, p))
        out.append((a, f))
    return out


def multiply_subtract_oracle(a, f, k):
    # independent arithmetic: explicit loops instead of matrix products
    rows, cols = a.shape
    out = np.zeros_like(a)
    for i in range(rows):
        for j in range(cols):
            acc = a[i, j]
            for s in range(f.shape[1]):
                acc -= f[i, s] * k[s, j]
            out[i, j] = acc
    return out


# ---------------------------------------------------------- designed jacobians


def test_designed_jacobians_zero_gain(paperfx):
    gains = scale_factor_gains([(paperfx.A1, paperfx.F1)])
    gains.gains = [np.zeros((6, 3))]
    (designed,) = designed_jacobians([(paperfx.A1, paperfx.F1)], gains)
    assert np.array_equal(designed, paperfx.A1)


def test_designed_jacobians_match_loop_oracle():
    rng = np.random.default_rng(51)
    for _ in range(10):
        ((a, f),) = random_jacs(rng, n_phases=1)
        gains = symmetric_matrix_gains([(a, f)])
        (designed,) = designed_jacobians([(a, f)], gains)
        assert max_abs_entry(designed - multiply_subtract_oracle(a, f, gains.gains[0])) < 1e-12


def test_designed_jacobians_dimension_mismatch(paperfx):
    gains = scale_factor_gains([(paperfx.A1, paperfx.F1)])
    gains.gains = [np.zeros((4, 3))]
    with pytest.raises(ValueError):
        designed_jacobians([(paperfx.A1, paperfx.F1)], gains)


# ------------------------------------------------------ symmetric matrix gains


def test_symmetric_gains_zero_when_target_already_met():
    rng = np.random.default_rng(53)
    a = rng.normal(size=(3, 3))
    a = 0.3 * (a + a.T) / 2
    f = rng.normal(size=(3, 5))
    gains = symmetric_matrix_gains([(a, f)], m_sym=a)
    assert max_abs_entry(gains.gains[0]) < 1e-12
    assert gains.residuals[0] < 1e-12


def test_symmetric_gains_default_is_deadbeat(paperfx):
    gains = symmetric_matrix_gains([(paperfx.A1, paperfx.F1)])
    expected = pinv(paperfx.F1) @ paperfx.A1
    assert max_abs_entry(gains.gains[0] - expected) < 1e-12


def test_symmetric_gains_achieve_target_with_full_row_rank():
    rng = np.random.default_rng(59)
    target = np.diag([0.4, -0.2, 0.1])
    jacs = random_jacs(rng, n_phases=3, k=3, p=6)
    gains = symmetric_matrix_gains(jacs, m_sym=target)
    designed = designed_jacobians(jacs, gains)
    for d in designed:
        assert max_abs_entry(d - target) < 1e-8
    assert not gains.inexact
    product = designed[2] @ designed[1] @ designed[0]
    assert abs(spectral_radius(product) - spectral_radius(target) ** 3) < 1e-8


def test_symmetric_gains_validate_target():
    rng = np.random.default_rng(61)
    jacs = random_jacs(rng, n_phases=1)
    lopsided = np.array([[0.1, 0.5, 0.0], [0.0, 0.1, 0.0], [0.0, 0.0, 0.1]])
    # Finite entries whose asymmetry overflows are not symmetric either.
    overflowing = np.diag([0.0, 0.0, 0.1])
    overflowing[0, 1], overflowing[1, 0] = 1e308, -1e308
    for target in (lopsided, overflowing):
        with pytest.raises(ValueError, match="symmetric"):
            symmetric_matrix_gains(jacs, m_sym=target)
    with pytest.raises(ValueError, match="spectral radius"):
        symmetric_matrix_gains(jacs, m_sym=np.eye(3))


def test_symmetric_gains_flag_unreachable_target():
    rng = np.random.default_rng(67)
    a = rng.normal(size=(3, 3))
    f = np.zeros((3, 2))  # no authority at all
    gains = symmetric_matrix_gains([(a, f)])
    assert gains.inexact
    assert gains.residuals[0] == pytest.approx(max_abs_entry(a))


# ---------------------------------------------------------- scale factor gains


def test_scale_factor_reproduces_reference_designs(paperfx):
    gains = scale_factor_gains([(paperfx.A1, paperfx.F1), (paperfx.A2, paperfx.F2)])
    designed = designed_jacobians([(paperfx.A1, paperfx.F1), (paperfx.A2, paperfx.F2)], gains)
    assert max_abs_entry(designed[0] - paperfx.A1d) < 1e-3
    assert max_abs_entry(designed[1] - paperfx.A2d) < 1e-3
    # the largest entry lands exactly on the 1/k boundary by construction
    assert designed[0][2, 0] == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert gains.scale_factors[0] == pytest.approx(1.0 / (3.0 * 7.1221))


def test_scale_factor_no_op_when_entries_already_at_bound():
    a = np.array([[0.5, 0.1], [0.0, -0.25]])  # max entry 0.5 = 1/k for k = 2
    f = np.eye(2)
    gains = scale_factor_gains([(a, f)], eta=1.0)
    assert gains.scale_factors[0] == pytest.approx(1.0)
    assert max_abs_entry(gains.gains[0]) < 1e-14


def test_scale_factor_square_invertible_coupling():
    rng = np.random.default_rng(71)
    a = rng.normal(size=(3, 3)) * 2.0
    f = rng.normal(size=(3, 3)) + 3.0 * np.eye(3)
    gains = scale_factor_gains([(a, f)], eta=0.8)
    (designed,) = designed_jacobians([(a, f)], gains)
    c = gains.scale_factors[0]
    assert max_abs_entry(designed - c * a) < 1e-10
    assert max_abs_entry(designed) == pytest.approx(0.8 / 3.0, abs=1e-10)


def test_scale_factor_rejects_zero_jacobian():
    with pytest.raises(SynthesisError, match="scale factor"):
        scale_factor_gains([(np.zeros((2, 2)), np.eye(2))])


def test_scale_factor_flags_zero_coupling():
    rng = np.random.default_rng(73)
    a = rng.normal(size=(2, 2))
    gains = scale_factor_gains([(a, np.zeros((2, 3)))])
    assert gains.inexact


def test_scale_factor_eta_range():
    with pytest.raises(ValueError):
        scale_factor_gains([(np.eye(2), np.eye(2))], eta=0.0)
    with pytest.raises(ValueError):
        scale_factor_gains([(np.eye(2), np.eye(2))], eta=1.5)


# ------------------------------------------------------------------ DLQR gains


def test_dlqr_zero_jacobian():
    gains = dlqr_gains([(np.zeros((2, 2)), np.eye(2))])
    assert max_abs_entry(gains.gains[0]) < 1e-12


def test_dlqr_scalar_matches_oracle():
    a, f = np.array([[0.5]]), np.array([[1.0]])
    gains = dlqr_gains([(a, f)])
    # scalar fixed-point oracle
    p = 1.0
    for _ in range(10000):
        p_next = 0.25 * p - (0.5 * p) ** 2 / (p + 1.0) + 1.0
        if abs(p_next - p) < 1e-14:
            break
        p = p_next
    expected = p * 0.5 / (p + 1.0)
    assert abs(gains.gains[0][0, 0] - expected) < 1e-10


def test_dlqr_reference_sweep_stabilizes_and_shrinks(paperfx):
    previous = np.inf
    for q_weight in (1.0, 10.0, 100.0, 1000.0):
        gains = dlqr_gains(
            [(paperfx.A1, paperfx.F1)],
            q=[q_weight * np.eye(3)],
            r=[np.eye(6)],
        )
        (designed,) = designed_jacobians([(paperfx.A1, paperfx.F1)], gains)
        assert spectral_radius(designed) < 1.0
        size = max_abs_entry(designed)
        assert size < previous
        previous = size


def test_dlqr_enforce_entrywise_bound(paperfx):
    gains = dlqr_gains([(paperfx.A1, paperfx.F1)], enforce_theorem4=True)
    (designed,) = designed_jacobians([(paperfx.A1, paperfx.F1)], gains)
    assert max_abs_entry(designed) < 1.0 / 3.0
    assert gains.q_scalings[0] >= 1.0


@pytest.mark.parametrize("q_weight", [1.0, 10.0**12])
def test_dlqr_entrywise_bound_at_radius_30_certifies_or_refuses(sweep_set, q_weight):
    # enforce_theorem4 grows Q tenfold up to 12 times, to 1e12 times its start
    for i in range(10):
        jacs = sweep_set(1, i, 30.0, 3, 6)
        try:
            gains = dlqr_gains(jacs, q=[q_weight * np.eye(3)] * 2, enforce_theorem4=True)
        except SynthesisError:
            continue
        for designed in designed_jacobians(jacs, gains):
            assert max_abs_entry(designed) < 1.0 / 3.0


def test_the_ladder_checks_its_last_scaling(sweep_set, monkeypatch):
    # this phase first meets 1/k at Q x 10; with one scaling allowed, the
    # gain of that scaling is the last one solved, and it decides
    jacs = sweep_set(1, 2, 8.1, 3, 6)[:1]
    assert dlqr_gains(jacs, enforce_theorem4=True).q_scalings == [10.0]
    monkeypatch.setattr(synthesis, "_MAX_Q_SCALINGS", 1)
    assert dlqr_gains(jacs, enforce_theorem4=True).q_scalings == [10.0]
    monkeypatch.setattr(synthesis, "_MAX_Q_SCALINGS", 0)
    with pytest.raises(SynthesisError, match="phase 0: entrywise bound not reached after 0 Q scalings"):
        dlqr_gains(jacs, enforce_theorem4=True)


def test_dlqr_residuals_are_the_relative_riccati_residuals(paperfx):
    pairs = [(paperfx.A1, paperfx.F1), (paperfx.A2, paperfx.F2)]
    for enforce in (False, True):
        gains = dlqr_gains(pairs, enforce_theorem4=enforce)
        for (a, f), scale, residual in zip(pairs, gains.q_scalings, gains.residuals):
            q, r = scale * np.eye(a.shape[0]), np.eye(f.shape[1])
            p = dare(a, f, q, r)
            res = _dare_residual(a, f, q, r, p)[0]
            assert residual == np.max(np.abs(res)) / max(1.0, np.max(np.abs(p)))
            assert 0.0 < residual <= 1e-8
        assert not gains.inexact


@pytest.mark.parametrize("enforce", [False, True])
def test_dlqr_gains_check_the_user_weights(paperfx, enforce):
    # checked once per phase, before any tenfold Q scaling
    pairs = [(paperfx.A1, paperfx.F1)]
    bad = (
        ([np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])], None, "symmetric"),
        ([np.diag([1.0, -1.0, 1.0])], None, "semi-definite"),
        (None, [np.diag([1.0, 1.0, 1.0, 1.0, 1.0, 0.0])], "definite"),
    )
    for q, r, match in bad:
        with pytest.raises(ValueError, match=match):
            dlqr_gains(pairs, q=q, r=r, enforce_theorem4=enforce)
    # a finite Q too large for the doubling
    with pytest.raises(SynthesisError, match="phase 0.*diverged"):
        dlqr_gains(pairs, q=[1e300 * np.eye(3)], enforce_theorem4=enforce)
    # the user's Q is judged at its own scale: a negative eigenvalue within
    # the absolute 1e-10 floor passes, also once Q is grown past max|Q| = 1
    gains = dlqr_gains(pairs, q=[np.diag([0.01, 0.01, -5e-11])], enforce_theorem4=enforce)
    assert gains.q_scalings == [1e4 if enforce else 1.0]


def test_dlqr_unstabilizable_raises():
    with pytest.raises(SynthesisError, match="phase 0"):
        dlqr_gains([(2.0 * np.eye(2), np.zeros((2, 2)))])


# ---------------------------------------------------------------- certificates


@pytest.mark.parametrize("certificate", ["cert_theorem3", "cert_theorem4"], ids=["certify_theorem3", "certify_theorem4"])
def test_certificates_reject_an_empty_chain(certificate):
    with pytest.raises(ValueError, match="need at least one"):
        getattr(certify_designed([]), certificate)


def test_certify_designed_checks_every_factor_square_before_the_shared_dimension():
    with pytest.raises(ValueError, match="designed Jacobians must share one dimension"):
        certify_designed([0.5 * np.eye(2), 0.5 * np.eye(3)])
    with pytest.raises(ValueError, match=r"designed Jacobian 2 is not square: \(2, 3\)"):
        certify_designed([np.eye(2), np.eye(3), np.ones((2, 3))])
    # both checks come before any factor is certified, so a factor whose
    # symmetry defect overflows does not hide the malformed chain
    overflowing = np.array([[0.0, 1e308], [-1e308, 0.0]])
    with pytest.raises(ValueError, match="share one dimension"):
        certify_designed([overflowing, np.eye(3)])
    with pytest.raises(ValueError, match="designed Jacobian 1 is not square"):
        certify_designed([overflowing, np.ones((2, 3))])


def test_certify_theorem3_simple_pass():
    cert = certify_designed([0.5 * np.eye(3)] * 4).cert_theorem3
    assert cert.passed
    assert not cert.failures()


def test_certify_theorem3_rejects_contraction_pair(paperfx):
    cert = certify_designed([paperfx.remark1_A1d, paperfx.remark1_A2d]).cert_theorem3
    assert not cert.passed
    assert all(entry["radius"] < 1.0 for entry in cert.per_phase)
    assert all(entry["symmetry_defect"] > 0.5 for entry in cert.per_phase)
    product = paperfx.remark1_A2d @ paperfx.remark1_A1d
    assert spectral_radius(product) > 1.0


def test_certify_theorem3_randomized_soundness():
    rng = np.random.default_rng(79)
    for _ in range(100):
        dim = int(rng.integers(2, 7))
        length = int(rng.integers(2, 6))
        chain = []
        for _ in range(length):
            m = rng.normal(size=(dim, dim))
            m = 0.5 * (m + m.T)
            m *= rng.uniform(0.05, 0.99) / spectral_radius(m)
            chain.append(m)
        assert certify_designed(chain).cert_theorem3.passed
        product = np.eye(dim)
        for m in chain:
            product = m @ product
        assert spectral_radius(product) < 1.0


def test_certify_theorem4_strict_margin():
    cert = certify_designed([np.full((3, 3), 0.1)] * 2).cert_theorem4
    assert cert.passed
    assert all(entry["margin"] > 0 for entry in cert.per_phase)


def test_certify_theorem4_boundary_designs_fail_strict_check(paperfx):
    # the reference designs sit exactly on the 1/k boundary: the strict
    # certificate declines them even though the product is strongly stable
    gains = scale_factor_gains([(paperfx.A1, paperfx.F1), (paperfx.A2, paperfx.F2)])
    designed = designed_jacobians([(paperfx.A1, paperfx.F1), (paperfx.A2, paperfx.F2)], gains)
    cert = certify_designed(designed).cert_theorem4
    assert not cert.passed
    for entry in cert.per_phase:
        assert abs(entry["max_abs_entry"] - 1.0 / 3.0) < 1e-9
    assert spectral_radius(designed[1] @ designed[0]) < 1.0


def test_certify_theorem4_boundary_counterexample():
    # all entries exactly 1/k: the non-strict reading admits a unit radius
    j = np.full((3, 3), 1.0 / 3.0)
    cert = certify_designed([j, j]).cert_theorem4
    assert not cert.passed
    assert abs(spectral_radius(j @ j) - 1.0) < 1e-10


def test_certify_theorem4_randomized_soundness():
    rng = np.random.default_rng(83)
    for _ in range(100):
        dim = int(rng.integers(2, 7))
        length = int(rng.integers(2, 6))
        chain = []
        for _ in range(length):
            m = rng.uniform(-1.0, 1.0, (dim, dim))
            m *= 0.99 / (dim * np.max(np.abs(m)))
            chain.append(m)
        assert certify_designed(chain).cert_theorem4.passed
        product = np.eye(dim)
        for m in chain:
            product = m @ product
        assert spectral_radius(product) < 1.0


# -------------------------------------------------------------- full reports


def test_stability_report_reference_scale_design(paperfx):
    jacs = [(paperfx.A1, paperfx.F1), (paperfx.A2, paperfx.F2)]
    report = stability_report(jacs, scale_factor_gains(jacs))
    assert max_abs_entry(report.product - paperfx.Ad) < 1e-3
    assert report.product_radius == pytest.approx(0.0173, abs=1e-3)
    assert report.stable


def test_stability_report_zero_gain_is_unstable(paperfx):
    jacs = [(paperfx.A1, paperfx.F1), (paperfx.A2, paperfx.F2)]
    gains = scale_factor_gains(jacs)
    gains.gains = [np.zeros((6, 3)), np.zeros((6, 3))]
    report = stability_report(jacs, gains)
    assert report.product_radius == pytest.approx(8.1053, abs=1e-3)
    assert not report.stable


def test_stability_report_identity_designs_are_unstable():
    jacs = [(np.eye(2), np.zeros((2, 1))), (np.eye(2), np.zeros((2, 1)))]
    gains = symmetric_matrix_gains(jacs)
    report = stability_report(jacs, gains)
    assert report.product_radius == pytest.approx(1.0)
    assert not report.stable  # strict inequality at the boundary


def test_report_verdict_consistency_randomized():
    rng = np.random.default_rng(89)
    for _ in range(30):
        jacs = random_jacs(rng, n_phases=int(rng.integers(1, 4)), spread=rng.uniform(0.2, 2.0))
        gains = scale_factor_gains(jacs)
        report = stability_report(jacs, gains)
        assert report.stable == (report.product_radius < 1.0)
        if report.cert_theorem3.passed or report.cert_theorem4.passed:
            assert report.stable


# ------------------------------------------------------------- stacked phases

DESIGNS = {
    "symmetric": symmetric_matrix_gains,
    "scale": scale_factor_gains,
    "dlqr": dlqr_gains,
    "dlqr_t4": lambda jacs: dlqr_gains(jacs, enforce_theorem4=True),
}


def bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def assert_each_phase_as_alone(design, jacs):
    # every phase of a stacked design and certificate has the bits of the
    # same phase designed and certified alone; a refused call raises the
    # error of its lowest phase that is refused alone, with that text
    try:
        whole = design(jacs)
    except (SynthesisError, NumericsError) as exc:
        for idx, pair in enumerate(jacs):
            try:
                design([pair])
            except (SynthesisError, NumericsError) as alone:
                assert type(exc) is type(alone)
                assert str(exc) == str(alone).replace("phase 0:", f"phase {idx}:", 1)
                return
        raise AssertionError(f"refused as a whole only: {exc}")
    report = stability_report(jacs, whole)
    for idx, pair in enumerate(jacs):
        alone = design([pair])
        alone_report = stability_report([pair], alone)
        assert bits(whole.gains[idx]) == bits(alone.gains[0])
        assert bits(whole.residuals[idx]) == bits(alone.residuals[0])
        for name in ("q_scalings", "scale_factors"):
            if getattr(alone, name) is not None:
                assert bits(getattr(whole, name)[idx]) == bits(getattr(alone, name)[0])
        assert bits(report.designed[idx]) == bits(alone_report.designed[0])
        assert bits(report.per_phase_radius[idx]) == bits(alone_report.per_phase_radius[0])
        for cert in ("cert_theorem3", "cert_theorem4"):
            entry = getattr(report, cert).per_phase[idx]
            alone_entry = getattr(alone_report, cert).per_phase[0]
            assert {**entry, "phase": 0} == alone_entry


@pytest.mark.parametrize("design", DESIGNS)
@pytest.mark.parametrize("system", ["stable-2", "stable-3", "unstable-2", "boundary-2", "uncoupled-2"])
def test_a_catalog_phase_designs_as_it_does_alone(design, system):
    assert_each_phase_as_alone(DESIGNS[design], list(from_catalog(system).jacobians))


@pytest.mark.parametrize("design", DESIGNS)
def test_a_sweep_phase_designs_as_it_does_alone(design, sweep_set):
    for i in range(8):
        for radius in (8.1, 30.0):
            for k, p in ((3, 6), (4, 2)):
                assert_each_phase_as_alone(DESIGNS[design], sweep_set(1, i, radius, k, p))
            # two shape groups: a (3, 2) phase between two (3, 6) phases
            first, second = sweep_set(2, i, radius, 3, 6)
            assert_each_phase_as_alone(DESIGNS[design], [first, sweep_set(3, i, radius, 3, 2)[0], second])


FAILING = {
    "overflow": (1e200 * np.eye(2), np.array([[1e-200], [0.0]])),
    "overflow-p2": (1e200 * np.eye(2), np.array([[1e-200, 0.0], [0.0, 0.0]])),
    "zero": (np.zeros((2, 2)), np.eye(2)),
    "unstabilizable": (2.0 * np.eye(2), np.zeros((2, 2))),
}


@pytest.mark.parametrize("design", DESIGNS)
@pytest.mark.parametrize("first, second", [("overflow", "overflow-p2"), ("overflow-p2", "zero"),
                                           ("zero", "overflow"), ("unstabilizable", "overflow")])
def test_the_lowest_failing_phase_raises_its_own_error(design, first, second):
    # phases 1 and 2 both fail, in one shape group or in two
    fails_alone = []
    for name in (first, second):
        try:
            DESIGNS[design]([FAILING[name]])
            fails_alone.append(False)
        except (SynthesisError, NumericsError):
            fails_alone.append(True)
    jacs = [(0.5 * np.eye(2), np.eye(2)), FAILING[first], FAILING[second]]
    if any(fails_alone):
        with pytest.raises((SynthesisError, NumericsError)):
            DESIGNS[design](jacs)
    assert_each_phase_as_alone(DESIGNS[design], jacs)


def test_a_failing_phase_before_an_invalid_weight_raises_first():
    ok, bad_q = (0.5 * np.eye(2), np.eye(2)), np.diag([1.0, -1.0])
    with pytest.raises(SynthesisError, match="phase 0: Riccati doubling diverged"):
        dlqr_gains([FAILING["unstabilizable"], ok], q=[np.eye(2), bad_q])
    with pytest.raises(ValueError, match="semi-definite"):
        dlqr_gains([ok, FAILING["unstabilizable"]], q=[bad_q, np.eye(2)])
