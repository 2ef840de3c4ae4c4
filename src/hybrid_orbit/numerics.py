"""Dense linear-algebra kernel used by every other module.

Everything here operates on plain numpy arrays (real, row-major, finite)
and is a pure function of its inputs, so all routines are safe to call
from multiple threads.  PhaseJacobians, the per-phase (A_i, F_i) that
poincare measures and synthesis designs from, lives here so that gain
design needs no integrator.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "NumericsError",
    "PhaseJacobians",
    "compose_jacobians",
    "as_matrix",
    "eigenvalues",
    "spectral_radius",
    "max_abs_entry",
    "pinv",
    "central_difference",
]


class NumericsError(RuntimeError):
    """A numerical routine failed to converge or produced invalid output."""


@dataclass(frozen=True, eq=False)
class PhaseJacobians:
    """Per-phase section-map sensitivities in reduced chart coordinates.

    A is the state sensitivity at the entry fixed point with beta = 0;
    F is the parameter sensitivity at beta = 0.
    """

    phase_index: int
    A: np.ndarray
    F: np.ndarray


def compose_jacobians(jacs) -> np.ndarray:
    """Right-to-left product of a phase-ordered Jacobian chain.

    The list is ordered phase 1 ... phase N; the last phase ends up
    leftmost in the product, matching the composition of the maps.
    """
    mats = [j.A if isinstance(j, PhaseJacobians) else np.asarray(j, dtype=float) for j in jacs]
    if not mats:
        raise ValueError("need at least one Jacobian")
    product = mats[0]
    for m in mats[1:]:
        if m.shape[1] != product.shape[0]:
            raise ValueError(
                f"dimension mismatch in Jacobian chain: {m.shape} after {product.shape}"
            )
        product = m @ product
    return product


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


def max_abs_entry(m) -> float:
    """Largest entry magnitude.  n * max_abs_entry(m) is a matrix norm."""
    return float(np.abs(as_matrix(m)).max())


def pinv(m) -> np.ndarray:
    """Moore-Penrose pseudoinverse via SVD.

    Singular values below 1e-10 times the largest are treated as zero,
    which makes rank-deficient input well defined instead of an error.
    """
    return np.linalg.pinv(as_matrix(m), rcond=1e-10)


def central_difference(fn, X, rel_step: float) -> np.ndarray:
    """Central-difference Jacobians (B, out, n) of fn at the rows of X (B, n).

    fn is called once, on the (2nB, n) stack of rows X_b + h_bj e_j, then
    X_b - h_bj e_j, ordered by sign, coordinate j, then row b, where h_bj =
    rel_step * max(1, |X_bj|); it returns one scalar or vector per row.
    Block b has the bits of the call on X_b[None].  X not 2-D raises
    ValueError.
    """
    if not (np.isfinite(rel_step) and rel_step > 0.0):
        raise ValueError(f"finite-difference step must be finite and positive, got {rel_step!r}")
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"expected a (B, n) stack of points, got shape {X.shape}")
    n_rows, n = X.shape
    h = (rel_step * np.maximum(1.0, np.abs(X))).T  # h[j, b] = h_bj
    steps = np.eye(n)[:, None, :] * h[:, :, None]  # row (j, b) is h_bj e_j
    values = np.asarray(fn(np.concatenate([X + steps, X - steps]).reshape(-1, n)), dtype=float)
    diff = (values[: n * n_rows] - values[n * n_rows :]).reshape(n, n_rows, -1)
    return (diff / (2.0 * h)[:, :, None]).transpose(1, 2, 0)


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


def _lq_problem(a, b, q, r) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Validated (A, B, Q, R): A square, B with A's rows, Q symmetric positive
    semi-definite and R symmetric positive definite (both returned
    symmetrized), sized to match A and B."""
    a = _require_square(a, "DLQR")
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


def _dare(a, b, q, r) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stabilizing solution P of the discrete algebraic Riccati equation of
    a problem _lq_problem validated, and the residual Res(P) and gain K of
    its final check.

    P = A'PA - A'PB (B'PB + R)^-1 B'PA + Q, found in two steps:

    1. Structure-preserving doubling (Chu, Fan & Lin, 2005): from A_0 = A,
       G_0 = B R^-1 B' and H_0 = Q, each step solves W = I + G H against
       [A | G] and sets A <- A W^-1 A, G <- G + A W^-1 G A' and
       H <- H + A' H W^-1 A.  H converges quadratically to P; it stops once
       H moves by less than 1e-12 relative to its largest entry, within 100
       doubling steps (a handful suffice on stabilizable input).
    2. One Newton (Hewer) step in correction form: with K and A - BK from
       H, solve the Stein equation X - (A - BK)' X (A - BK) = Res(H), where
       Res is the Riccati residual, and take P = H + X.

    A diverging or non-finite iterate, a singular solve or running out of
    steps is reported as unstabilizable or ill-conditioned rather than
    returning a wrong answer; the residual of the returned P is checked
    independently of the iteration.  That final check computes Res(P) and
    the gain K = (B'PB + R)^-1 B'PA.
    """
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


def _dlqr(a, b, q, r) -> tuple[np.ndarray, float]:
    """Discrete LQR gain K = (B'PB + R)^-1 B'PA of a problem _lq_problem
    validated, and the relative Riccati residual of its P, max|Res(P)| /
    max(1, max|P|), the quantity _dare bounds by 1e-8.

    K is the gain of _dare's final residual check, so it is the optimal
    gain to the residual bound checked there.  The closed loop A - B K is
    verified to be a strict contraction.
    """
    p, res, gain = _dare(a, b, q, r)
    rho = spectral_radius(a - b @ gain)
    if rho >= 1.0:
        raise NumericsError(f"DLQR closed loop is not a contraction (rho = {rho:.6f})")
    return gain, float(np.abs(res).max() / max(1.0, np.abs(p).max()))
