"""Per-phase gain design and spectral-radius stability certificates.

Three independent ways to pick the parameter-feedback gains K_i, all
working phase by phase from the section-map sensitivities (A_i, F_i):

* symmetric-matrix: drive every designed Jacobian to one symmetric
  contraction target through a pseudoinverse solve;
* scale-factor: shrink each A_i so its largest entry is eta / k;
* DLQR: discrete LQR gain on the linearized section dynamics, optionally
  rescaling Q until the largest designed entry is below 1 / k.

The certificates check the two sufficient conditions under which the
product of per-phase contractions is guaranteed to contract: all factors
symmetric with radius below one, or all entries strictly below 1 / k.

Each phase is designed on its own, so each step of a design or a
certificate is one stacked numpy call over the phases that share the
shapes of (A_i, F_i): one pinv, one Riccati solve per ladder block, one
eigvals over the factors and their product.  np.linalg and np.matmul work
slice by slice, so every phase gets the bits it gets when designed alone,
and a failing call raises the error of its lowest failing phase.
"""

import math
from dataclasses import dataclass

import numpy as np

from .numerics import (
    NumericsError,
    PhaseJacobians,
    _dlqr,
    _lq_problem,
    _stacked_radii,
    as_matrix,
    compose_jacobians,
    spectral_radius,
)

__all__ = [
    "GainSet",
    "TheoremCertificate",
    "StabilityReport",
    "SynthesisError",
    "RESIDUAL_TOL",
    "SYMMETRY_TOL",
    "designed_jacobians",
    "symmetric_matrix_gains",
    "scale_factor_gains",
    "dlqr_gains",
    "certify_designed",
    "stability_report",
]

# Above this design residual (max-entry norm) the pinv target was not
# reachable and the gain set is flagged inexact.
RESIDUAL_TOL = 1e-6

# A design target or a theorem-3 factor M is symmetric if max|M - M'| <= this.
SYMMETRY_TOL = 1e-10

# DLQR with enforce_theorem4 grows Q tenfold at most this many times.
_MAX_Q_SCALINGS = 12

# The theorem-4 ladder solves this many consecutive tenfold scalings of
# every undecided phase in one stacked solve.  Of 800 seeded (3, 6) sweep
# phases 12/60/27/1.5% first meet 1/k at scaling j = 0/1/2/3, and the nine
# catalog phases 2/5/1/1, so most phases are decided by the first block.
_LADDER_BLOCK = 3


class SynthesisError(RuntimeError):
    """Gain synthesis failed (unreachable target or solver failure).

    Not a NumericsError: dlqr_gains wraps the NumericsError of a phase's
    solve in one, and must not wrap its own a second time.
    """


@dataclass(eq=False)
class GainSet:
    """Gains from one synthesis method plus per-phase design residuals."""

    method: str
    gains: list[np.ndarray]
    residuals: list[float]
    inexact: bool
    scale_factors: list[float] | None = None
    q_scalings: list[float] | None = None


@dataclass
class TheoremCertificate:
    name: str
    passed: bool
    per_phase: list[dict]

    def failures(self) -> list[dict]:
        return [entry for entry in self.per_phase if not entry["ok"]]


@dataclass(eq=False)
class StabilityReport:
    designed: list[np.ndarray]
    per_phase_radius: list[float]
    product: np.ndarray
    product_radius: float
    cert_theorem3: TheoremCertificate
    cert_theorem4: TheoremCertificate
    stable: bool
    inexact_design: bool


def _unpack(jacs) -> list[tuple[np.ndarray, np.ndarray]]:
    """The (A_i, F_i) matrix pairs, each A_i square and each F_i with as
    many rows as A_i."""
    pairs = []
    for idx, j in enumerate(jacs):
        a, f = (j.A, j.F) if isinstance(j, PhaseJacobians) else j
        a, f = as_matrix(a), as_matrix(f)
        if a.shape[0] != a.shape[1]:
            raise ValueError(f"phase {idx}: A is not square: {a.shape}")
        if f.shape[0] != a.shape[0]:
            raise ValueError(f"phase {idx}: F has {f.shape[0]} rows, A has {a.shape[0]}")
        pairs.append((a, f))
    if not pairs:
        raise ValueError("need at least one phase")
    return pairs


def _shape_groups(pairs) -> list[list[int]]:
    """Phase indices grouped by the shapes of (A_i, F_i), each group in
    phase order; these phases can be stacked."""
    groups = {}
    for idx, (a, f) in enumerate(pairs):
        groups.setdefault((a.shape, f.shape), []).append(idx)
    return list(groups.values())


def designed_jacobians(jacs, gains: GainSet) -> list[np.ndarray]:
    """Closed-loop per-phase Jacobians A_i - F_i K_i."""
    pairs = _unpack(jacs)
    if len(gains.gains) != len(pairs):
        raise ValueError("gain count does not match phase count")
    out = []
    for idx, ((a, f), k) in enumerate(zip(pairs, gains.gains)):
        k = as_matrix(k)
        if f.shape[1] != k.shape[0] or k.shape[1] != a.shape[1]:
            raise ValueError(
                f"dimension mismatch: A {a.shape}, F {f.shape}, K {k.shape}"
            )
        with np.errstate(over="ignore", invalid="ignore"):
            out.append(_designed(idx, a, f, k))
    return out


def _designed(idx, a, f, k) -> np.ndarray:
    """A - F K of phase idx, with the caller's errstate; an overflow raises NumericsError."""
    designed = a - f @ k
    if not np.isfinite(designed).all():
        raise NumericsError(f"phase {idx}: designed Jacobian overflowed")
    return designed


def _pinv_gains(pairs, targets) -> tuple[list[np.ndarray], list[float]]:
    """Gains K_i = pinv(F_i) (A_i - T_i) and residuals max|A_i - F_i K_i - T_i|,
    pinv as numerics.pinv, by one stacked pinv per shape group.  The lowest
    phase whose designed Jacobian overflows raises NumericsError."""
    gains, residuals, overflowed = [None] * len(pairs), [None] * len(pairs), []
    for members in _shape_groups(pairs):
        a, f = (np.stack(m) for m in zip(*(pairs[i] for i in members)))
        target = np.stack([targets[i] for i in members])
        with np.errstate(over="ignore", invalid="ignore"):
            gain = np.linalg.pinv(f, rcond=1e-10) @ (a - target)
            designed = a - f @ gain
            residual = np.abs(designed - target).max(axis=(1, 2))
        finite = np.isfinite(designed).all(axis=(1, 2))
        for j, idx in enumerate(members):
            gains[idx], residuals[idx] = gain[j], float(residual[j])
            if not finite[j]:
                overflowed.append(idx)
    if overflowed:
        raise NumericsError(f"phase {min(overflowed)}: designed Jacobian overflowed")
    return gains, residuals


def symmetric_matrix_gains(jacs, m_sym: np.ndarray | None = None) -> GainSet:
    """Drive every phase to one symmetric contraction target.

    The default target is the zero matrix (deadbeat): it is symmetric, has
    spectral radius zero, and maximizes the contraction margin.  Rank
    deficient F_i leaves the target unreachable; the residual records how
    far the achieved Jacobian lands from it.  The target must be symmetric
    to SYMMETRY_TOL = 1e-10.
    """
    pairs = _unpack(jacs)
    k_dim = pairs[0][0].shape[0]
    if m_sym is None:
        m_sym = np.zeros((k_dim, k_dim))
    m_sym = as_matrix(m_sym)
    if m_sym.shape != (k_dim, k_dim):
        raise ValueError(f"target has shape {m_sym.shape}, expected ({k_dim}, {k_dim})")
    if _symmetry_defect(m_sym) > SYMMETRY_TOL:
        raise ValueError("target matrix must be symmetric")
    if spectral_radius(m_sym) >= 1.0:
        raise ValueError("target matrix must have spectral radius below one")

    # phases before the first misshapen A are designed first, and raise first
    bad = next((idx for idx, (a, _) in enumerate(pairs) if a.shape != m_sym.shape), len(pairs))
    gains, residuals = _pinv_gains(pairs[:bad], [m_sym] * bad)
    if bad < len(pairs):
        raise ValueError(f"phase {bad}: A has shape {pairs[bad][0].shape}, the target {m_sym.shape}")
    return GainSet(
        method="symmetric",
        gains=gains,
        residuals=residuals,
        inexact=any(r > RESIDUAL_TOL for r in residuals),
    )


def scale_factor_gains(jacs, eta: float = 1.0) -> GainSet:
    """Shrink each phase Jacobian by c_i = eta / (k * max |A_i|).

    With eta = 1 the largest designed entry sits exactly on the 1/k
    boundary; eta < 1 restores a strict margin for the entrywise
    certificate.  The target is formed as (A_i / max|A_i|) (eta / k),
    which stays finite for any nonzero A_i; a c_i that overflows, as for
    max|A_i| = 1e-320, cannot be reported and raises SynthesisError.
    """
    if not 0.0 < eta <= 1.0:
        raise ValueError("eta must lie in (0, 1]")
    pairs = _unpack(jacs)
    factors, targets, refused = [], [], None
    for idx, (a, _) in enumerate(pairs):
        m_i = float(np.abs(a).max())
        if m_i == 0.0:
            refused = SynthesisError(f"phase {idx}: A is zero, the scale factor is undefined")
            break
        k_dim = a.shape[0]
        c_i = eta / (k_dim * m_i)
        if not math.isfinite(c_i):
            refused = SynthesisError(
                f"phase {idx}: scale factor c_i = eta / (k max|A|) overflows at max|A| = {m_i:.3e}"
            )
            break
        factors.append(c_i)
        targets.append((a / m_i) * (eta / k_dim))
    # phases before a refused one are designed first, and raise first
    gains, residuals = _pinv_gains(pairs[: len(targets)], targets)
    if refused is not None:
        raise refused
    return GainSet(
        method="scale_factor",
        gains=gains,
        residuals=residuals,
        inexact=any(r > RESIDUAL_TOL for r in residuals),
        scale_factors=factors,
    )


def dlqr_gains(
    jacs,
    q: list[np.ndarray] | None = None,
    r: list[np.ndarray] | None = None,
    enforce_theorem4: bool = False,
) -> GainSet:
    """Per-phase discrete LQR gains on the section dynamics.

    Defaults to identity weights.  With enforce_theorem4 each Q_i is grown
    tenfold, up to 12 times, until the largest designed entry drops
    strictly below 1 / k (larger Q shrinks the designed Jacobian); the
    applied scale is reported per phase.  The residual of each phase is
    the relative Riccati residual max|Res(P)| / max(1, max|P|) of its
    final gain.  Each Q_i and R_i the caller gives is checked once, Q_i
    symmetric positive semi-definite and R_i symmetric positive definite;
    the tenfold scalings of a checked Q_i are not checked again.

    The phases of one shape group are solved in one stacked _dlqr.  With
    enforce_theorem4 the scalings 10^j, j = 0 ... 12, are tried in blocks
    of _LADDER_BLOCK = 3, every undecided phase's block in the same stacked
    solve; for each phase the first scaling in order whose solve fails or
    whose design meets 1 / k decides, and a phase that reaches 10^12 without
    either is refused.
    """
    pairs = _unpack(jacs)
    n = len(pairs)
    invalid = None
    if q is None and r is None:
        # identity weights need none of _lq_problem's checks
        problems = [(a, f, np.eye(a.shape[0]), np.eye(f.shape[1])) for a, f in pairs]
    else:
        q = [np.eye(a.shape[0]) for a, _ in pairs] if q is None else q
        r = [np.eye(f.shape[1]) for _, f in pairs] if r is None else r
        if len(q) != n or len(r) != n:
            raise ValueError("need one Q and one R per phase")
        problems = []
        for (a, f), q_i, r_i in zip(pairs, q, r):
            try:
                problems.append(_lq_problem(a, f, q_i, r_i))
            except ValueError as exc:
                # raised unless a phase before it fails
                invalid = exc
                break

    depth = _MAX_Q_SCALINGS + 1 if enforce_theorem4 else 1
    decided = [None] * len(problems)  # (gain, residual, scale), or the phase's error
    for members in _shape_groups([(a, f) for a, f, _, _ in problems]):
        a, f, q_s, r_s = (np.stack(m) for m in zip(*(problems[i] for i in members)))
        todo = list(range(len(members)))
        for start in range(0, depth, _LADDER_BLOCK):
            scales = [float(10**j) for j in range(start, min(start + _LADDER_BLOCK, depth))]
            rows = np.repeat(todo, len(scales))
            scale = np.tile(scales, len(todo))
            gain, residual, errors = _dlqr(a[rows], f[rows], scale[:, None, None] * q_s[rows], r_s[rows])
            if enforce_theorem4:
                with np.errstate(over="ignore", invalid="ignore"):
                    met = np.abs(a[rows] - f[rows] @ gain).max(axis=(1, 2)) < 1.0 / a.shape[1]
            undecided = []
            for t, pos in enumerate(todo):
                # the first scaling in order that raises or meets 1/k decides
                for u in range(t * len(scales), (t + 1) * len(scales)):
                    if errors[u] is not None:
                        decided[members[pos]] = errors[u]
                        break
                    if not enforce_theorem4 or met[u]:
                        decided[members[pos]] = (gain[u], float(residual[u]), float(scale[u]))
                        break
                else:
                    undecided.append(pos)
            todo = undecided
            if not todo:
                break
        for pos in todo:
            decided[members[pos]] = SynthesisError(
                f"phase {members[pos]}: entrywise bound not reached after {_MAX_Q_SCALINGS} Q scalings"
            )

    for idx, outcome in enumerate(decided):
        if isinstance(outcome, NumericsError):
            raise SynthesisError(f"phase {idx}: {outcome}") from outcome
        if isinstance(outcome, Exception):
            raise outcome
    if invalid is not None:
        raise invalid
    gains, residuals, scalings = (list(x) for x in zip(*decided))
    return GainSet(
        method="dlqr",
        gains=gains,
        residuals=residuals,
        inexact=False,
        q_scalings=scalings,
    )


def _symmetry_defect(m: np.ndarray) -> float:
    """max |m - m.T| of a finite square m; inf where the difference
    overflows, as for entries near the float limit."""
    with np.errstate(over="ignore"):
        return float(np.abs(m - m.T).max())


def certify_designed(designed, inexact_design: bool = False) -> StabilityReport:
    """Both certificates and the product-radius verdict of designed Jacobians.

    The verdict is always the directly computed product radius; the
    certificates are sufficient conditions layered on top:

    * theorem 3 passes when every factor is symmetric (within SYMMETRY_TOL
      = 1e-10) with spectral radius below one; the product radius is then
      below one as well, because for symmetric factors the spectral norm
      equals the spectral radius and the norm is submultiplicative;
    * theorem 4 passes when every entry of every factor is strictly below
      1 / k.  The strict inequality matters: a chain of matrices with all
      entries exactly 1 / k has product radius exactly one.

    Every factor is checked to be square, in order, and then to share one
    dimension, before any is certified; a failed check or an empty list
    raises ValueError.  Finite factors whose symmetry defect or product
    overflows raise NumericsError.
    """
    factors = []
    for idx, m in enumerate(designed):
        m = as_matrix(m)
        if m.shape[0] != m.shape[1]:
            raise ValueError(f"designed Jacobian {idx} is not square: {m.shape}")
        factors.append(m)
    if not factors:
        raise ValueError("need at least one designed Jacobian")
    k_dim = factors[0].shape[0]
    if any(m.shape[0] != k_dim for m in factors):
        raise ValueError("designed Jacobians must share one dimension")
    stack = np.stack(factors)
    with np.errstate(over="ignore", invalid="ignore"):
        defects = np.abs(stack - stack.swapaxes(1, 2)).max(axis=(1, 2))
        product = compose_jacobians(factors)
    entries = np.abs(stack).max(axis=(1, 2))
    # the N factors and their product in one eigvals; an overflowing product
    # sends the factors to spectral_radius one by one, and then raises
    radii = _stacked_radii(np.concatenate((stack, product[None])))

    def radius(idx, m) -> float:
        return float(radii[idx]) if np.isfinite(radii[idx]) else spectral_radius(m)

    theorem3, theorem4 = [], []
    for idx, m in enumerate(factors):
        defect = float(defects[idx])
        if defect == np.inf:
            raise NumericsError(f"symmetry defect of designed Jacobian {idx} overflowed")
        rho = radius(idx, m)
        theorem3.append(
            {
                "phase": idx,
                "symmetry_defect": defect,
                "radius": rho,
                "ok": bool(defect <= SYMMETRY_TOL and rho < 1.0),
            }
        )
        m_i = float(entries[idx])
        theorem4.append(
            {
                "phase": idx,
                "max_abs_entry": m_i,
                "margin": 1.0 / k_dim - m_i,
                "ok": bool(m_i < 1.0 / k_dim),
            }
        )
    if not np.isfinite(product).all():
        raise NumericsError("product of the designed Jacobians overflowed")
    product_radius = radius(-1, product)
    return StabilityReport(
        designed=designed,
        per_phase_radius=[entry["radius"] for entry in theorem3],
        product=product,
        product_radius=product_radius,
        cert_theorem3=TheoremCertificate("theorem3", all(e["ok"] for e in theorem3), theorem3),
        cert_theorem4=TheoremCertificate("theorem4", all(e["ok"] for e in theorem4), theorem4),
        stable=bool(product_radius < 1.0),
        inexact_design=inexact_design,
    )


def stability_report(jacs, gains: GainSet) -> StabilityReport:
    """certify_designed of the designed Jacobians A_i - F_i K_i.

    When the gain set is inexact the certificates refer to the achieved
    (not the target) Jacobians, which is what the product is built from
    anyway.
    """
    return certify_designed(designed_jacobians(jacs, gains), inexact_design=gains.inexact)
