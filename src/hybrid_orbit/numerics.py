"""Dense linear-algebra kernel used by every other module.

Everything here operates on plain numpy arrays (real, row-major, finite)
and is a pure function of its inputs, so all routines are safe to call
from multiple threads.
"""

import numpy as np

__all__ = [
    "NumericsError",
    "as_matrix",
    "eigenvalues",
    "spectral_radius",
    "spectral_norm",
    "max_abs_entry",
    "pinv",
    "central_difference",
    "dare_solve",
    "dlqr_gain",
]


class NumericsError(RuntimeError):
    """A numerical routine failed to converge or produced invalid output."""


def as_matrix(values) -> np.ndarray:
    """Coerce to a 2-D float array and reject NaN/Inf entries."""
    m = np.asarray(values, dtype=float)
    if m.ndim == 1:
        m = m.reshape(1, -1)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"expected a non-empty 2-D matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix contains non-finite entries")
    return m


def _require_square(m: np.ndarray, who: str) -> np.ndarray:
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"{who} requires a square matrix, got {m.shape}")
    return m


def _eigvals(m) -> np.ndarray:
    """Eigenvalues of a square matrix in LAPACK's order; a failed iteration
    or an overflowing eigenvalue raises NumericsError."""
    m = _require_square(m, "eigenvalues")
    try:
        vals = np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:
        raise NumericsError(f"eigenvalue iteration did not converge: {exc}") from exc
    if not np.isfinite(vals).all():
        raise NumericsError("eigenvalues of a finite matrix overflowed")
    return vals


def eigenvalues(m) -> np.ndarray:
    """All eigenvalues of a square real matrix, with multiplicity.

    Returned as a complex array sorted by descending magnitude (ties broken
    by real part, then imaginary part) so repeated calls give identical
    orderings.  For real input the set is closed under conjugation.  An
    eigenvalue that overflows, as for entries near the float limit, raises
    NumericsError.
    """
    vals = _eigvals(m)
    return vals[np.lexsort((vals.imag, vals.real, -np.abs(vals)))]


def spectral_radius(m) -> float:
    """Largest eigenvalue magnitude of a square matrix."""
    return float(np.abs(_eigvals(m)).max())


def spectral_norm(m) -> float:
    """Largest singular value (the matrix 2-norm)."""
    m = as_matrix(m)
    try:
        return float(np.linalg.svd(m, compute_uv=False)[0])
    except np.linalg.LinAlgError as exc:
        raise NumericsError(f"SVD did not converge: {exc}") from exc


def max_abs_entry(m) -> float:
    """Largest entry magnitude.  n * max_abs_entry(m) is a matrix norm."""
    return float(np.abs(as_matrix(m)).max())


def pinv(m) -> np.ndarray:
    """Moore-Penrose pseudoinverse via SVD.

    Singular values below 1e-10 times the largest are treated as zero,
    which makes rank-deficient input well defined instead of an error.
    """
    return np.linalg.pinv(as_matrix(m), rcond=1e-10)


def central_difference(fn, x, rel_step: float) -> np.ndarray:
    """Central-difference Jacobian of fn at x, one column per coordinate.

    fn is called once, with the (2n, n) stack whose row j is x + h_j e_j and
    whose row n + j is x - h_j e_j, where h_j = rel_step * max(1, |x_j|); it
    returns one value per row.  Column j is (value_j - value_{n+j}) / (2 h_j).
    Scalar values give one row.
    """
    if not (np.isfinite(rel_step) and rel_step > 0.0):
        raise ValueError(f"finite-difference step must be finite and positive, got {rel_step!r}")
    x = np.asarray(x, dtype=float)
    n = x.size
    h = rel_step * np.maximum(1.0, np.abs(x))
    steps = np.diag(h)
    values = np.asarray(fn(np.concatenate([x + steps, x - steps])), dtype=float)
    diff = (values[:n] - values[n:]).reshape(n, -1)
    return (diff / (2.0 * h)[:, None]).T


def _check_weight(q: np.ndarray, name: str, definite: bool) -> np.ndarray:
    q = _require_square(q, name)
    scale = max(1.0, float(np.abs(q).max()))
    if np.abs(q - q.T).max() > 1e-8 * scale:
        raise ValueError(f"{name} must be symmetric")
    eigs = np.linalg.eigvalsh(0.5 * (q + q.T))
    if definite and eigs[0] <= 0.0:
        raise ValueError(f"{name} must be positive definite")
    if not definite and eigs[0] < -1e-10 * scale:
        raise ValueError(f"{name} must be positive semi-definite")
    return 0.5 * (q + q.T)


def _lq_problem(a, b, q, r, who: str) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Validated (A, B, Q, R): A square, B with A's rows, Q symmetric positive
    semi-definite and R symmetric positive definite (both returned
    symmetrized), sized to match A and B."""
    a = _require_square(a, who)
    b = as_matrix(b)
    if b.shape[0] != a.shape[0]:
        raise ValueError(f"B has {b.shape[0]} rows, expected {a.shape[0]}")
    q = _check_weight(q, "Q", definite=False)
    r = _check_weight(r, "R", definite=True)
    if q.shape != a.shape:
        raise ValueError("Q must match the state dimension")
    if r.shape[0] != b.shape[1]:
        raise ValueError("R must match the input dimension")
    return a, b, q, r


def dare_solve(a, b, q, r) -> np.ndarray:
    """Stabilizing solution P of the discrete algebraic Riccati equation.

    P = A'PA - A'PB (B'PB + R)^-1 B'PA + Q, found in two steps:

    1. Structure-preserving doubling (Chu, Fan & Lin, 2005): from A_0 = A,
       G_0 = B R^-1 B' and H_0 = Q, each step solves W = I + G H against
       [A | G] and sets A <- A W^-1 A, G <- G + A W^-1 G A' and
       H <- H + A' H W^-1 A.  H converges quadratically to P; it stops once
       H moves by less than 1e-12 relative to its largest entry, within 100
       doubling steps (a handful suffice on stabilizable input).
    2. One Newton (Hewer) step in correction form: with K and A - BK from
       H, solve the Stein equation X - (A - BK)' X (A - BK) = Res(H), where
       Res is the Riccati residual, and return H + X.

    A diverging or non-finite iterate, a singular solve or running out of
    steps is reported as unstabilizable or ill-conditioned rather than
    returning a wrong answer; the residual of the returned P is checked
    independently of the iteration.  That final check computes Res(P) and
    the gain K = (B'PB + R)^-1 B'PA; dlqr_gain returns that same K.
    """
    return _dare(*_lq_problem(a, b, q, r, "dare_solve"))[0]


def _dare(a, b, q, r) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """dare_solve of a problem _lq_problem validated: P, and the residual
    Res(P) and gain K of its final check."""
    n = a.shape[0]
    eye = np.eye(n)
    failure = "Riccati {}: (A, B) unstabilizable or ill-conditioned"
    with np.errstate(over="ignore", invalid="ignore"):
        ak, gk, h = a, b @ np.linalg.solve(r, b.T), q
        for _ in range(100):
            try:
                solved = np.linalg.solve(eye + gk @ h, np.concatenate((ak, gk), axis=1))
            except np.linalg.LinAlgError as exc:
                raise NumericsError(failure.format(f"doubling hit a singular solve ({exc})")) from exc
            w_a, w_g = solved[:, :n], solved[:, n:]
            h_next = h + ak.T @ h @ w_a
            h_next = 0.5 * (h_next + h_next.T)
            gk = gk + ak @ w_g @ ak.T
            gk = 0.5 * (gk + gk.T)
            ak = ak @ w_a
            size = np.abs(h_next).max()
            if not size <= 1e100:
                raise NumericsError(failure.format("doubling diverged"))
            step = np.abs(h_next - h).max()
            h = h_next
            if step < 1e-12 * max(1.0, size):
                break
        else:
            raise NumericsError(failure.format("doubling did not converge"))

        res, gain = _dare_residual(a, b, q, r, h)
        # I - kron(C', C') for C = A - BK, one product per entry
        ct = (a - b @ gain).T
        stein = np.eye(n * n) - (ct[:, None, :, None] * ct[None, :, None, :]).reshape(n * n, n * n)
        try:
            x = np.linalg.solve(stein, res.reshape(-1))
        except np.linalg.LinAlgError as exc:
            raise NumericsError(failure.format(f"Newton step hit a singular solve ({exc})")) from exc
        x = x.reshape(n, n)
        p = h + 0.5 * (x + x.T)
        res, gain = _dare_residual(a, b, q, r, p)
        residual = np.abs(res).max()
    if not residual <= 1e-8 * max(1.0, np.abs(p).max()):
        raise NumericsError(f"Riccati residual {residual:.3e} above tolerance")
    return p, res, gain


def _dare_residual(a, b, q, r, p) -> tuple[np.ndarray, np.ndarray]:
    """Riccati residual A'PA - A'PB (B'PB + R)^-1 B'PA + Q - P and the gain
    K = (B'PB + R)^-1 B'PA it uses."""
    btp = b.T @ p
    try:
        gain = np.linalg.solve(btp @ b + r, btp @ a)
    except np.linalg.LinAlgError as exc:
        raise NumericsError(f"Riccati gain hit a singular solve: {exc}") from exc
    return a.T @ p @ a - (btp @ a).T @ gain + q - p, gain


def dlqr_gain(a, b, q, r) -> np.ndarray:
    """Discrete LQR gain K = (B'PB + R)^-1 B'PA with P from dare_solve.

    P is the doubling solution after one Newton correction (see
    dare_solve), and K is the gain its final residual check computed, so
    K is the optimal gain to the residual bound checked there.  The
    closed loop A - B K is verified to be a strict contraction.
    """
    return _dlqr(*_lq_problem(a, b, q, r, "dlqr_gain"))[0]


def _dlqr(a, b, q, r) -> tuple[np.ndarray, float]:
    """dlqr_gain of a problem _lq_problem validated: the gain and the
    relative Riccati residual of its P, max|Res(P)| / max(1, max|P|), the
    quantity dare_solve bounds by 1e-8."""
    p, res, gain = _dare(a, b, q, r)
    rho = spectral_radius(a - b @ gain)
    if rho >= 1.0:
        raise NumericsError(f"DLQR closed loop is not a contraction (rho = {rho:.6f})")
    return gain, float(np.abs(res).max() / max(1.0, np.abs(p).max()))
