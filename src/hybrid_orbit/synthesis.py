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
"""

import math
from dataclasses import dataclass

import numpy as np

from .numerics import (
    NumericsError,
    PhaseJacobians,
    _dlqr,
    _lq_problem,
    as_matrix,
    compose_jacobians,
    max_abs_entry,
    pinv,
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
    """The (A_i, F_i) matrix pairs, each F_i with as many rows as A_i."""
    pairs = []
    for idx, j in enumerate(jacs):
        a, f = (j.A, j.F) if isinstance(j, PhaseJacobians) else j
        a, f = as_matrix(a), as_matrix(f)
        if f.shape[0] != a.shape[0]:
            raise ValueError(f"phase {idx}: F has {f.shape[0]} rows, A has {a.shape[0]}")
        pairs.append((a, f))
    if not pairs:
        raise ValueError("need at least one phase")
    return pairs


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


def _solve_gain(idx, a, f, target) -> tuple[np.ndarray, float]:
    with np.errstate(over="ignore", invalid="ignore"):
        gain = pinv(f) @ (a - target)
        return gain, float(np.abs(_designed(idx, a, f, gain) - target).max())


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

    gains, residuals = [], []
    for idx, (a, f) in enumerate(pairs):
        if a.shape != m_sym.shape:
            raise ValueError(f"phase {idx}: A has shape {a.shape}, the target {m_sym.shape}")
        gain, residual = _solve_gain(idx, a, f, m_sym)
        gains.append(gain)
        residuals.append(residual)
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
    gains, residuals, factors = [], [], []
    for idx, (a, f) in enumerate(pairs):
        m_i = max_abs_entry(a)
        if m_i == 0.0:
            raise SynthesisError(f"phase {idx}: A is zero, the scale factor is undefined")
        k_dim = a.shape[0]
        c_i = eta / (k_dim * m_i)
        if not math.isfinite(c_i):
            raise SynthesisError(
                f"phase {idx}: scale factor c_i = eta / (k max|A|) overflows at max|A| = {m_i:.3e}"
            )
        gain, residual = _solve_gain(idx, a, f, (a / m_i) * (eta / k_dim))
        gains.append(gain)
        residuals.append(residual)
        factors.append(c_i)
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
    final gain.  Each Q_i and R_i is checked once, Q_i symmetric positive
    semi-definite and R_i symmetric positive definite; the tenfold scalings
    of a checked Q_i are not checked again.
    """
    pairs = _unpack(jacs)
    n = len(pairs)
    if q is None:
        q = [np.eye(a.shape[0]) for a, _ in pairs]
    if r is None:
        r = [np.eye(f.shape[1]) for _, f in pairs]
    if len(q) != n or len(r) != n:
        raise ValueError("need one Q and one R per phase")

    gains, residuals, scalings = [], [], []
    for idx, ((a, f), q_i, r_i) in enumerate(zip(pairs, q, r)):
        a, f, q_i, r_i = _lq_problem(a, f, q_i, r_i)
        k_dim = a.shape[0]
        scale = 1.0
        try:
            gain, residual = _dlqr(a, f, q_i, r_i)
            if enforce_theorem4:
                for _ in range(_MAX_Q_SCALINGS):
                    if np.abs(a - f @ gain).max() < 1.0 / k_dim:
                        break
                    scale *= 10.0
                    gain, residual = _dlqr(a, f, scale * q_i, r_i)
                else:
                    raise SynthesisError(
                        f"phase {idx}: entrywise bound not reached after "
                        f"{_MAX_Q_SCALINGS} Q scalings"
                    )
        except NumericsError as exc:
            raise SynthesisError(f"phase {idx}: {exc}") from exc
        gains.append(gain)
        residuals.append(residual)
        scalings.append(scale)
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
    theorem3, theorem4 = [], []
    for idx, m in enumerate(factors):
        defect = _symmetry_defect(m)
        if defect == np.inf:
            raise NumericsError(f"symmetry defect of designed Jacobian {idx} overflowed")
        radius = spectral_radius(m)
        theorem3.append(
            {
                "phase": idx,
                "symmetry_defect": defect,
                "radius": radius,
                "ok": bool(defect <= SYMMETRY_TOL and radius < 1.0),
            }
        )
        m_i = float(np.abs(m).max())
        theorem4.append(
            {
                "phase": idx,
                "max_abs_entry": m_i,
                "margin": 1.0 / k_dim - m_i,
                "ok": bool(m_i < 1.0 / k_dim),
            }
        )
    with np.errstate(over="ignore", invalid="ignore"):
        product = compose_jacobians(factors)
    if not np.isfinite(product).all():
        raise NumericsError("product of the designed Jacobians overflowed")
    product_radius = spectral_radius(product)
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
