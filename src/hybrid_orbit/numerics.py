"""Dense linear-algebra kernel used by every other module.

Everything here operates on plain numpy arrays (real, row-major, finite)
and is a pure function of its inputs, so all routines are safe to call
from multiple threads.  The private Riccati and LQR solvers take (M, n, n)
stacks of independent problems and make one numpy call per step for all
of them; each member keeps the bits of its own solve and its own error.  PhaseJacobians, the per-phase (A_i, F_i) that
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


def _solve(lhs, rhs) -> tuple[np.ndarray, list]:
    """np.linalg.solve of every member of a stack, and each member's
    LinAlgError or None.  A stacked solve that raises is redone slice by
    slice, only to name the singular members; their slices are zero."""
    try:
        return np.linalg.solve(lhs, rhs), [None] * len(lhs)
    except np.linalg.LinAlgError:
        pass
    out, errors = np.zeros(rhs.shape), []
    for i in range(len(lhs)):
        try:
            out[i] = np.linalg.solve(lhs[i], rhs[i])
            errors.append(None)
        except np.linalg.LinAlgError as exc:
            errors.append(exc)
    return out, errors


def _first_errors(errors, raised, text) -> None:
    """Record NumericsError(text.format(exc)) for each raised exc of a member
    that has no error yet."""
    for i, exc in enumerate(raised):
        if exc is not None and errors[i] is None:
            errors[i] = NumericsError(text.format(exc))


def _dare(a, b, q, r) -> tuple[np.ndarray, np.ndarray, np.ndarray, list]:
    """Stabilizing solutions P of the discrete algebraic Riccati equations of
    an (M, n, n) stack of problems _lq_problem validated, the residuals
    Res(P) and gains K of their final check, and each member's
    NumericsError, or None where it was solved.

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

    Every step is one stacked numpy call over the members.  A member leaves
    the doubling loop when it converges, diverges or hits a singular solve;
    a failed member keeps its first error, and its slices of P, Res and K
    mean nothing.  np.linalg and np.matmul work slice by slice, so each
    member goes through the float operations it goes through alone, and
    gets the same bits.
    """
    m, n = a.shape[:2]
    eye = np.eye(n)
    errors = [None] * m
    failure = "Riccati {}: (A, B) unstabilizable or ill-conditioned"
    h_end = np.zeros(a.shape)
    live = np.arange(m)
    with np.errstate(over="ignore", invalid="ignore"):
        ak, gk, h = a, b @ np.linalg.solve(r, b.swapaxes(1, 2)), q
        for _ in range(100):
            solved, singular = _solve(eye + gk @ h, np.concatenate((ak, gk), axis=2))
            w_a, w_g = solved[:, :, :n], solved[:, :, n:]
            h_next = h + ak.swapaxes(1, 2) @ h @ w_a
            h_next = 0.5 * (h_next + h_next.swapaxes(1, 2))
            gk = gk + ak @ w_g @ ak.swapaxes(1, 2)
            gk = 0.5 * (gk + gk.swapaxes(1, 2))
            ak = ak @ w_a
            size = np.abs(h_next).max(axis=(1, 2))
            step = np.abs(h_next - h).max(axis=(1, 2))
            h = h_next
            diverged = ~(size <= 1e100)
            leave = diverged | (step < 1e-12 * np.maximum(1.0, size))
            for j, exc in enumerate(singular):
                if exc is not None:
                    errors[live[j]] = NumericsError(failure.format(f"doubling hit a singular solve ({exc})"))
                    leave[j] = True
                elif diverged[j]:
                    errors[live[j]] = NumericsError(failure.format("doubling diverged"))
                elif leave[j]:
                    h_end[live[j]] = h[j]
            if leave.any():
                stay = ~leave
                live, ak, gk, h = live[stay], ak[stay], gk[stay], h[stay]
                if not live.size:
                    break
        else:
            for i in live:
                errors[i] = NumericsError(failure.format("doubling did not converge"))

        # failed members go on with zeros and keep their first error
        res, gain, singular = _dare_residual(a, b, q, r, h_end)
        _first_errors(errors, singular, "Riccati gain hit a singular solve: {}")
        # I - kron(C', C') for C = A - BK, one product per entry
        ct = (a - b @ gain).swapaxes(1, 2)
        kron = ct[:, :, None, :, None] * ct[:, None, :, None, :]
        stein = np.eye(n * n) - kron.reshape(m, n * n, n * n)
        x, singular = _solve(stein, res.reshape(m, n * n, 1))
        _first_errors(errors, singular, failure.format("Newton step hit a singular solve ({})"))
        x = x.reshape(m, n, n)
        p = h_end + 0.5 * (x + x.swapaxes(1, 2))
        res, gain, singular = _dare_residual(a, b, q, r, p)
        _first_errors(errors, singular, "Riccati gain hit a singular solve: {}")
        residual = np.abs(res).max(axis=(1, 2))
        tolerance = 1e-8 * np.maximum(1.0, np.abs(p).max(axis=(1, 2)))
    for i in np.flatnonzero(~(residual <= tolerance)):
        if errors[i] is None:
            errors[i] = NumericsError(f"Riccati residual {residual[i]:.3e} above tolerance")
    return p, res, gain, errors


def _dare_residual(a, b, q, r, p) -> tuple[np.ndarray, np.ndarray, list]:
    """Riccati residuals A'PA - A'PB (B'PB + R)^-1 B'PA + Q - P of a stack,
    the gains K = (B'PB + R)^-1 B'PA they use, and each member's
    LinAlgError of that solve, or None."""
    btp = b.swapaxes(-1, -2) @ p
    gain, singular = _solve(btp @ b + r, btp @ a)
    return a.swapaxes(-1, -2) @ p @ a - (btp @ a).swapaxes(-1, -2) @ gain + q - p, gain, singular


def _stacked_radii(stack) -> np.ndarray:
    """spectral_radius of every member of a stack of square matrices, by
    one stacked eigvals.  A member whose radius is not finite is to be
    redone with spectral_radius, which raises what it raises alone: every
    member when the stacked call raised, else each member whose eigenvalues
    overflow."""
    try:
        return np.abs(np.linalg.eigvals(stack)).max(axis=-1)
    except np.linalg.LinAlgError:
        return np.full(len(stack), np.nan)


def _dlqr(a, b, q, r) -> tuple[np.ndarray, np.ndarray, list]:
    """Discrete LQR gains K = (B'PB + R)^-1 B'PA of an (M, n, n) stack of
    problems _lq_problem validated, the relative Riccati residuals of their
    P, max|Res(P)| / max(1, max|P|), the quantity _dare bounds by 1e-8, and
    each member's error, or None where it was solved.

    K is the gain of _dare's final residual check, so it is the optimal
    gain to the residual bound checked there.  Each closed loop A - B K is
    verified to be a strict contraction, by one stacked eigvals.
    """
    p, res, gain, errors = _dare(a, b, q, r)
    with np.errstate(over="ignore", invalid="ignore"):
        closed = a - b @ gain
        residual = np.abs(res).max(axis=(1, 2)) / np.maximum(1.0, np.abs(p).max(axis=(1, 2)))
    # a failed member's closed loop may not be finite, which stacked eigvals refuses
    closed[[error is not None for error in errors]] = 0.0
    radii = _stacked_radii(closed)
    for i, error in enumerate(errors):
        if error is not None:
            continue
        rho = radii[i]
        if not np.isfinite(rho):
            try:
                rho = spectral_radius(closed[i])
            except (NumericsError, ValueError) as exc:
                errors[i] = exc
                continue
        if rho >= 1.0:
            errors[i] = NumericsError(f"DLQR closed loop is not a contraction (rho = {rho:.6f})")
    return gain, residual, errors
