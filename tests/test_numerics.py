"""Linear-algebra kernel tests against independent oracles."""

import numpy as np
import pytest
from scipy.linalg import solve_discrete_are

from hybrid_orbit.numerics import (
    NumericsError,
    _dare,
    _solve,
    central_difference,
    eigenvalues,
    max_abs_entry,
    pinv,
    spectral_radius,
)
from hybrid_orbit.synthesis import dlqr_gains
from helpers import dare


def cofactor_det(m: np.ndarray) -> float:
    """Determinant by cofactor expansion; independent of the eigensolver."""
    n = m.shape[0]
    if n == 1:
        return float(m[0, 0])
    total = 0.0
    for j in range(n):
        minor = np.delete(np.delete(m, 0, axis=0), j, axis=1)
        total += (-1.0) ** j * m[0, j] * cofactor_det(minor)
    return total


# ---------------------------------------------------------------- eigenvalues


def test_eigenvalues_identity():
    vals = eigenvalues(np.eye(3))
    assert np.allclose(sorted(vals.real), [1.0, 1.0, 1.0])
    assert np.allclose(vals.imag, 0.0)


def test_eigenvalues_match_reference_spectrum(paperfx):
    vals = eigenvalues(paperfx.A)
    for expected in paperfx.eigenvalues:
        assert np.min(np.abs(vals - expected)) < 1e-3
    assert vals.size == 3


def test_eigenvalues_det_trace_oracle():
    rng = np.random.default_rng(101)
    for _ in range(20):
        m = rng.normal(size=(4, 4))
        vals = eigenvalues(m)
        assert abs(np.prod(vals).real - cofactor_det(m)) < 1e-8
        assert abs(np.prod(vals).imag) < 1e-8
        assert abs(np.sum(vals).real - np.trace(m)) < 1e-8


def test_eigenvalues_conjugate_closure():
    rng = np.random.default_rng(5)
    for _ in range(20):
        vals = eigenvalues(rng.normal(size=(5, 5)))
        for v in vals[np.abs(vals.imag) > 1e-12]:
            assert np.min(np.abs(vals - np.conj(v))) < 1e-9


def test_eigenvalues_rejects_non_square():
    with pytest.raises(ValueError):
        eigenvalues(np.ones((2, 3)))


def test_eigenvalues_refuse_an_overflowing_spectrum():
    # Finite entries whose eigenvalue 2e308 overflows.
    with pytest.raises(NumericsError, match="overflowed"):
        eigenvalues(np.full((2, 2), 1e308))


def test_eigenvalues_ordering_deterministic():
    rng = np.random.default_rng(7)
    m = rng.normal(size=(6, 6))
    first = eigenvalues(m)
    again = eigenvalues(m.copy())
    assert np.array_equal(first, again)


# ------------------------------------------------------------ spectral radius


def test_spectral_radius_reference(paperfx):
    assert abs(spectral_radius(paperfx.A) - 8.1053) < 1e-3


def test_spectral_radius_zero():
    assert spectral_radius(np.zeros((3, 3))) == 0.0


def test_spectral_radius_contraction_pair(paperfx):
    product = paperfx.remark1_A2d @ paperfx.remark1_A1d
    assert abs(spectral_radius(product) - 1.0453) < 1e-4


def test_spectral_radius_power_identity():
    rng = np.random.default_rng(11)
    for _ in range(10):
        m = rng.normal(size=(4, 4))
        rho = spectral_radius(m)
        mk = np.eye(4)
        for k in range(1, 5):
            mk = mk @ m
            assert abs(spectral_radius(mk) - rho**k) < 1e-8 * max(1.0, rho**k)


def test_spectral_radius_equals_the_sorted_spectrum_maximum():
    # spectral_radius takes the max of the unsorted eigenvalues; it must be
    # the same float as the first magnitude of eigenvalues' sorted list
    rng = np.random.default_rng(5)
    mats = [np.zeros((n, n)) for n in range(2, 7)]
    mats += [rng.normal(size=(n, n)) for n in range(2, 7) for _ in range(20)]
    assert any((eigenvalues(m).imag != 0.0).any() for m in mats)
    for m in mats:
        assert spectral_radius(m) == float(np.abs(eigenvalues(m)).max())
    with pytest.raises(ValueError, match="square"):
        spectral_radius(np.ones((2, 3)))
    with pytest.raises(NumericsError, match="overflowed"):
        spectral_radius(np.full((2, 2), 1e308))


# -------------------------------------------------------------- max abs entry


def test_max_abs_entry_reference(paperfx):
    assert max_abs_entry(paperfx.A1) == pytest.approx(7.1221)


def test_max_abs_entry_zero():
    assert max_abs_entry(np.zeros((2, 5))) == 0.0


def test_entrywise_norm_bounds_radius():
    rng = np.random.default_rng(19)
    for _ in range(30):
        n = int(rng.integers(2, 6))
        m = rng.normal(size=(n, n))
        assert spectral_radius(m) <= n * max_abs_entry(m) + 1e-10


def test_entrywise_product_bound():
    # entries of both factors at most 1/n keeps the product there too
    rng = np.random.default_rng(23)
    for _ in range(30):
        n = int(rng.integers(2, 6))
        m = rng.uniform(-1.0, 1.0, (n, n))
        m *= 1.0 / (n * np.max(np.abs(m)))
        w = rng.uniform(-1.0, 1.0, (n, n))
        w *= 1.0 / (n * np.max(np.abs(w)))
        assert max_abs_entry(m @ w) <= 1.0 / n + 1e-12


# ----------------------------------------------------------------------- pinv


def test_pinv_identity():
    assert np.allclose(pinv(np.eye(3)), np.eye(3), atol=1e-14)


def _axiom_defect(m, p):
    return max(
        max_abs_entry(m @ p @ m - m),
        max_abs_entry(p @ m @ p - p),
        max_abs_entry((m @ p).T - m @ p),
        max_abs_entry((p @ m).T - p @ m),
    )


def test_pinv_reference_shape_and_axioms(paperfx):
    p = pinv(paperfx.F1)
    assert p.shape == (6, 3)
    assert _axiom_defect(paperfx.F1, p) < 1e-8


def test_pinv_normal_equations_oracle():
    rng = np.random.default_rng(29)
    for _ in range(10):
        m = rng.normal(size=(7, 3))
        expected = np.linalg.solve(m.T @ m, m.T)
        assert max_abs_entry(pinv(m) - expected) < 1e-8


def test_pinv_axioms_including_rank_deficient():
    rng = np.random.default_rng(31)
    for trial in range(50):
        rows = int(rng.integers(1, 7))
        cols = int(rng.integers(1, 7))
        m = rng.normal(size=(rows, cols))
        if trial % 3 == 0 and min(rows, cols) > 1:
            m[:, -1] = m[:, 0]  # force rank deficiency
        assert _axiom_defect(m, pinv(m)) < 1e-10


def test_pinv_idempotent_on_full_rank():
    rng = np.random.default_rng(37)
    for _ in range(10):
        m = rng.normal(size=(4, 4)) + 4.0 * np.eye(4)
        assert max_abs_entry(pinv(pinv(m)) - m) < 1e-8


def test_pinv_cut_rule_matches_svd_reference():
    # singular values at 1, 1e-9 and 1e-11 against the 1e-10 cut: the
    # middle one is inverted, the last one is cut, as in the SVD formula
    rng = np.random.default_rng(41)
    for _ in range(20):
        u, _ = np.linalg.qr(rng.normal(size=(4, 3)))
        v, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        m = (u * np.array([1.0, 1e-9, 1e-11])) @ v.T
        _, s, _ = np.linalg.svd(m)
        inv = np.where(s > 1e-10 * s[0], 1.0 / s, 0.0)
        expected = (v * inv) @ u.T
        assert max_abs_entry(pinv(m) - expected) < 1e-6 * max_abs_entry(expected)
    assert max_abs_entry(pinv(np.zeros((2, 3)))) == 0.0


# --------------------------------------------------------- central difference


def recording(fn):
    """fn applied row by row to a stack, recording every stack it is given."""
    calls = []

    def stacked(points):
        calls.append(np.array(points))
        return np.array([fn(x) for x in points])

    return stacked, calls


def test_central_difference_vector_function_matches_exact_jacobian():
    def fn(x):
        return np.array([x[0] ** 2 * x[1], np.sin(x[1]) + 3.0 * x[2], np.exp(x[0])])

    def exact(x):
        return np.array(
            [
                [2.0 * x[0] * x[1], x[0] ** 2, 0.0],
                [0.0, np.cos(x[1]), 3.0],
                [np.exp(x[0]), 0.0, 0.0],
            ]
        )

    x = np.array([0.5, -2.0, 3.0])
    stacked, calls = recording(fn)
    jac = central_difference(stacked, x[None], 1e-5)
    assert jac.shape == (1, 3, 3)
    assert np.max(np.abs(jac[0] - exact(x))) < 1e-8
    # one call with the (2n, n) stack: rows x + h_j e_j, then rows x - h_j e_j
    assert len(calls) == 1 and calls[0].shape == (6, 3)
    h = 1e-5 * np.maximum(1.0, np.abs(x))
    assert np.array_equal(calls[0], np.concatenate([x + np.diag(h), x - np.diag(h)]))

    # B = 3: one call on the (2nB, n) stack ordered by sign, then coordinate
    # j, then member b; each block has the bits of its one-row call
    X = np.array([x, [-1.5, 0.25, 7.0], [2.0, 1.0, -0.5]])
    stacked, calls = recording(fn)
    jacs = central_difference(stacked, X, 1e-5)
    assert jacs.shape == (3, 3, 3) and len(calls) == 1 and calls[0].shape == (18, 3)
    H = 1e-5 * np.maximum(1.0, np.abs(X))
    rows = [X[b] + sign * H[b, j] * np.eye(3)[j] for sign in (1.0, -1.0) for j in range(3) for b in range(3)]
    assert np.array_equal(calls[0], np.array(rows))
    for b in range(3):
        assert np.array_equal(jacs[b], central_difference(recording(fn)[0], X[b : b + 1], 1e-5)[0])
        assert np.max(np.abs(jacs[b] - exact(X[b]))) < 1e-7


def test_central_difference_scalar_row_and_step_scaling():
    # For a cubic the central difference is 3 x^2 + h^2, which exposes h.
    X = np.array([[0.5, -4.0], [2.0, 0.1]])
    rel = 1e-2
    stacked, calls = recording(lambda z: float(z[0] ** 3 + z[1] ** 3))
    rows = central_difference(stacked, X, rel)
    assert rows.shape == (2, 1, 2)
    assert len(calls) == 1 and calls[0].shape == (8, 2)
    h = rel * np.maximum(1.0, np.abs(X))  # 0.01 and 0.04, then 0.02 and 0.01
    assert rows[:, 0] == pytest.approx(3.0 * X**2 + h**2, abs=1e-12)


@pytest.mark.parametrize("step", [0.0, -1e-5, float("nan"), float("inf")])
def test_central_difference_rejects_bad_step(step):
    with pytest.raises(ValueError):
        central_difference(lambda z: z, np.array([[1.0]]), step)


@pytest.mark.parametrize("shape", [(3,), (1, 2, 3)])
def test_central_difference_rejects_a_stack_that_is_not_2d(shape):
    with pytest.raises(ValueError, match="stack"):
        central_difference(lambda z: z, np.ones(shape), 1e-5)


# ----------------------------------------------------------------------- DARE


def test_dare_zero_dynamics_returns_q():
    q = np.diag([2.0, 3.0])
    p = dare(np.zeros((2, 2)), np.ones((2, 1)), q, np.eye(1))
    assert np.allclose(p, q, atol=1e-12)


def scalar_dare_oracle(a, b, q, r):
    p = q
    for _ in range(100000):
        p_next = a * p * a - (a * p * b) ** 2 / (b * p * b + r) + q
        if abs(p_next - p) < 1e-14:
            return p_next
        p = p_next
    raise AssertionError("scalar oracle did not converge")


def test_dare_scalar_case():
    p_expected = scalar_dare_oracle(0.5, 1.0, 1.0, 1.0)
    p = dare([[0.5]], [[1.0]], [[1.0]], [[1.0]])
    assert abs(p[0, 0] - p_expected) < 1e-10


def test_dare_lyapunov_special_case_kronecker_oracle():
    # with B = 0 the equation collapses to P = A'PA + Q, a linear system
    rng = np.random.default_rng(41)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        a = rng.normal(size=(n, n))
        a *= 0.8 / spectral_radius(a)
        q = np.eye(n)
        p = dare(a, np.zeros((n, 1)), q, np.eye(1))
        vec_p = np.linalg.solve(np.eye(n * n) - np.kron(a.T, a.T), q.flatten(order="F"))
        p_expected = vec_p.reshape(n, n, order="F")
        assert max_abs_entry(p - p_expected) < 1e-9


def test_dare_reports_unstabilizable():
    # no input at all, an uncontrollable unstable mode, an uncontrollable unit-circle mode
    e2 = np.array([[0.0], [1.0]])
    for a, b in ((2.0 * np.eye(2), np.zeros((2, 1))), (np.diag([1.5, 0.5]), e2), (np.diag([1.0, 0.5]), e2)):
        with pytest.raises(NumericsError, match="unstabilizable|ill-conditioned"):
            dare(a, b, np.eye(2), np.eye(1))


@pytest.mark.parametrize("radius", [8.1, 30.0])
def test_dlqr_solves_the_under_actuated_sweep_sets(sweep_set, radius):
    # 100 sets x 2 phases (k=4, p=2) as the bench sweep draws them
    q, r = np.eye(4), np.eye(2)
    for i in range(100):
        for a, b in sweep_set(1, i, radius, 4, 2):
            p = dare(a, b, q, r)
            gain = np.linalg.solve(b.T @ p @ b + r, b.T @ p @ a)
            residual = a.T @ p @ a - a.T @ p @ b @ gain + q - p
            assert max_abs_entry(residual) <= 1e-8 * max(1.0, max_abs_entry(p))
            k = dlqr_gains([(a, b)], [q], [r]).gains[0]
            assert spectral_radius(a - b @ k) < 1.0
            if radius < 10.0:
                p_ref = solve_discrete_are(a, b, q, r)
                k_ref = np.linalg.solve(b.T @ p_ref @ b + r, b.T @ p_ref @ a)
                assert max_abs_entry(k - k_ref) <= 1e-8 * max_abs_entry(k_ref)


def test_dare_validates_weights():
    a = np.eye(2) * 0.5
    b = np.ones((2, 1))
    with pytest.raises(ValueError):
        dare(a, b, np.array([[1.0, 0.5], [0.0, 1.0]]), np.eye(1))
    with pytest.raises(ValueError):
        dare(a, b, np.eye(2), np.zeros((1, 1)))
    with pytest.raises(ValueError):
        dare(a, b, -np.eye(2), np.eye(1))


# ----------------------------------------------------------------------- DLQR


def test_dlqr_zero_dynamics():
    k = dlqr_gains([(np.zeros((2, 2)), np.ones((2, 1)))], [np.eye(2)], [np.eye(1)]).gains[0]
    assert max_abs_entry(k) < 1e-12


def test_dlqr_scalar_formula():
    p = scalar_dare_oracle(0.5, 1.0, 1.0, 1.0)
    expected = p * 0.5 / (p + 1.0)
    k = dlqr_gains([([[0.5]], [[1.0]])], [[[1.0]]], [[[1.0]]]).gains[0]
    assert abs(k[0, 0] - expected) < 1e-10


def test_dlqr_closes_the_loop():
    rng = np.random.default_rng(43)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(1, 3))
        a = rng.normal(size=(n, n))
        a *= rng.uniform(0.5, 1.6) / spectral_radius(a)
        b = rng.normal(size=(n, m))
        k = dlqr_gains([(a, b)], [np.eye(n)], [np.eye(m)]).gains[0]
        assert spectral_radius(a - b @ k) < 1.0


def test_a_singular_stacked_solve_names_only_the_singular_member():
    lhs = np.stack([2.0 * np.eye(2), np.zeros((2, 2)), np.array([[1.0, 2.0], [3.0, 4.0]])])
    rhs = np.arange(12.0).reshape(3, 2, 2)
    x, errors = _solve(lhs, rhs)
    assert errors[0] is None and errors[2] is None
    assert isinstance(errors[1], np.linalg.LinAlgError)
    for i in (0, 2):
        assert x[i].tobytes() == np.linalg.solve(lhs[i], rhs[i]).tobytes()


def test_a_failing_riccati_member_leaves_the_others_their_own_solves():
    e2 = np.array([[0.0], [1.0]])
    members = [(np.diag([0.5, 0.2]), e2), (np.diag([1.5, 0.5]), e2), (np.array([[0.9, 0.3], [0.0, 1.2]]), e2)]
    a, b = (np.stack(m) for m in zip(*members))
    p, _, _, errors = _dare(a, b, np.stack([np.eye(2)] * 3), np.stack([np.eye(1)] * 3))
    assert errors[0] is None and errors[2] is None
    assert str(errors[1]) == "Riccati doubling diverged: (A, B) unstabilizable or ill-conditioned"
    for i in (0, 2):
        assert p[i].tobytes() == dare(*members[i], np.eye(2), np.eye(1)).tobytes()
