"""The bundled reference matrices of a published two-phase walking-gait
study and their consistency suite.

The state and parameter Jacobians, scale-factor gains, designed Jacobians
and their spectral radii ship as JSON and are re-derived through the
synthesis pipeline by verify_paper().
"""

import inspect
import json
from dataclasses import dataclass, fields
from importlib import resources

import numpy as np

from .jsonio import matrix_from_obj
from .numerics import max_abs_entry, pinv, spectral_radius
from . import numerics, synthesis

__all__ = [
    "PaperFixture",
    "paper_fixture",
    "FixtureCheck",
    "FixtureReport",
    "CHECK_FIELDS",
    "K1_EXCLUDED_ENTRY",
    "verify_paper",
]


@dataclass(frozen=True, eq=False)
class PaperFixture:
    """Reference matrices transcribed at 4-decimal print precision."""

    A1: np.ndarray
    A2: np.ndarray
    A: np.ndarray
    eigenvalues: np.ndarray
    rho_A: float
    F1: np.ndarray
    F2: np.ndarray
    K1: np.ndarray
    K2: np.ndarray
    A1d: np.ndarray
    A2d: np.ndarray
    Ad: np.ndarray
    rho_Ad: float
    remark1_A1d: np.ndarray
    remark1_A2d: np.ndarray
    remark1_rho: float


def paper_fixture() -> PaperFixture:
    """Load a fresh copy of the bundled reference matrices."""
    raw = resources.files("hybrid_orbit").joinpath("data/paper_fixtures.json").read_text()
    doc = json.loads(raw)
    values = {}
    for field in fields(PaperFixture):
        entry = doc[field.name]
        if field.name == "eigenvalues":
            values[field.name] = np.array([complex(e["re"], e["im"]) for e in entry])
        elif field.type is float:
            values[field.name] = float(entry)
        else:
            values[field.name] = matrix_from_obj(entry, field.name)
    return PaperFixture(**values)


@dataclass
class FixtureCheck:
    name: str
    passed: bool
    measured: float
    tolerance: float
    detail: str


@dataclass
class FixtureReport:
    checks: list[FixtureCheck]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed(self) -> list[FixtureCheck]:
        return [c for c in self.checks if not c.passed]

    def format_table(self) -> str:
        lines = [f"{'check':32s} {'status':6s} {'measured':>12s} {'tolerance':>12s}  detail"]
        for c in self.checks:
            status = "ok" if c.passed else "FAIL"
            lines.append(
                f"{c.name:32s} {status:6s} {c.measured:12.4e} {c.tolerance:12.4e}  {c.detail}"
            )
        return "\n".join(lines)


# The printed K1 table carries one entry inconsistent with its companion
# matrices: the pseudoinverse solve that reproduces the other 17 entries to
# ~4e-3 (and K2 entirely) gives -5.8548 at this position, and only that
# value is compatible with the printed designed Jacobian.  The printed A1,
# F1 and A1d alone, without the synthesis pipeline, give -5.8540 here (least
# squares on column 3 of A1 - F1 K1 = A1d, the other entries as printed).
# The entrywise gain check therefore skips it and reports it instead.
K1_EXCLUDED_ENTRY = (3, 2)

# Tolerance tiers: direct transcriptions, single products of 4-decimal
# data, and pinv-mediated quantities.
_TOL_DIRECT = 1e-3
_TOL_PRODUCT = 5e-3
_TOL_PINV = 2e-2


def _argmax_entry(delta: np.ndarray) -> str:
    i, j = np.unravel_index(int(np.argmax(np.abs(delta))), delta.shape)
    return f"entry ({i + 1}, {j + 1})"


def _entrywise(computed, expected, tol, exclude=None):
    delta = np.abs(computed - expected)
    note = ""
    if exclude is not None:
        note = (
            f"; excluded entry ({exclude[0] + 1}, {exclude[1] + 1}) "
            f"delta {delta[exclude]:.4f} (inconsistent print, solve gives "
            f"{computed[exclude]:.4f})"
        )
        delta = delta.copy()
        delta[exclude] = 0.0
    return float(np.max(delta)), tol, f"max delta at {_argmax_entry(delta)}{note}"


def _scale_factor_gain(a, f):
    return synthesis.scale_factor_gains([(a, f)], eta=1.0).gains[0]


def _designed(a, f):
    return a - f @ _scale_factor_gain(a, f)


# The checks of verify_paper follow.  A check's parameters are the fixture
# fields it reads, and it is called with those fields only.  It returns
# (measured, tolerance, detail) and, when its pass needs a side condition,
# whether that holds.


def _compose_return_jacobian(A1, A2, A):
    return _entrywise(A2 @ A1, A, _TOL_PRODUCT)


def _eigenvalue_reproduction(A, eigenvalues):
    computed = numerics.eigenvalues(A)
    worst = max((float(np.min(np.abs(computed - e))) for e in eigenvalues), default=0.0)
    detail = f"worst match distance over {eigenvalues.size} eigenvalues"
    return worst, _TOL_DIRECT, detail, computed.size == eigenvalues.size


def _open_loop_radius(A, rho_A):
    rho_a = spectral_radius(A)
    return abs(rho_a - rho_A), _TOL_DIRECT, f"measured radius {rho_a:.4f}"


def _gain_reproduction_1(A1, F1, K1):
    return _entrywise(_scale_factor_gain(A1, F1), K1, _TOL_PINV, exclude=K1_EXCLUDED_ENTRY)


def _gain_reproduction_2(A2, F2, K2):
    return _entrywise(_scale_factor_gain(A2, F2), K2, _TOL_PINV)


def _designed_jacobian_1(A1, F1, A1d):
    return _entrywise(_designed(A1, F1), A1d, _TOL_DIRECT)


def _designed_jacobian_2(A2, F2, A2d):
    return _entrywise(_designed(A2, F2), A2d, _TOL_DIRECT)


def _designed_product(A1, F1, A2, F2, Ad):
    return _entrywise(_designed(A2, F2) @ _designed(A1, F1), Ad, _TOL_DIRECT)


def _designed_product_radius(A1, F1, A2, F2, rho_Ad):
    rho_ad = spectral_radius(_designed(A2, F2) @ _designed(A1, F1))
    return abs(rho_ad - rho_Ad), _TOL_DIRECT, f"measured radius {rho_ad:.6f}"


def _pinv_axioms_F1(F1):
    p1 = pinv(F1)
    axiom_defect = max(
        max_abs_entry(F1 @ p1 @ F1 - F1),
        max_abs_entry(p1 @ F1 @ p1 - p1),
        max_abs_entry((F1 @ p1).T - F1 @ p1),
        max_abs_entry((p1 @ F1).T - p1 @ F1),
    )
    return axiom_defect, 1e-8, "worst of the four pseudoinverse axioms"


def _remark1_product_radius(remark1_A1d, remark1_A2d, remark1_rho):
    rho_pair = spectral_radius(remark1_A2d @ remark1_A1d)
    rho_1, rho_2 = spectral_radius(remark1_A1d), spectral_radius(remark1_A2d)
    detail = (f"product radius {rho_pair:.6f} from factors with radii "
              f"{rho_1:.4f}, {rho_2:.4f} (both contractions)")
    return abs(rho_pair - remark1_rho), 1e-4, detail, rho_1 < 1.0 and rho_2 < 1.0


# The checks in report order, each named by its function less the leading
# underscore.
_CHECKS = {
    check.__name__[1:]: check
    for check in (
        _compose_return_jacobian, _eigenvalue_reproduction, _open_loop_radius,
        _gain_reproduction_1, _gain_reproduction_2, _designed_jacobian_1, _designed_jacobian_2,
        _designed_product, _designed_product_radius, _pinv_axioms_F1, _remark1_product_radius,
    )
}

# Which fixture fields each check reads; fault injection outside a check's
# fields must never change its outcome.
CHECK_FIELDS = {name: tuple(inspect.signature(check).parameters) for name, check in _CHECKS.items()}


def verify_paper(fixture: PaperFixture | None = None) -> FixtureReport:
    """Run every fixture consistency check and report measured deltas.

    Deterministic and self-contained; failures are reported, never raised.
    A check passes when its side condition holds and the measured deviation
    is within tolerance.
    """
    fx = fixture if fixture is not None else paper_fixture()
    checks = []
    for name, check in _CHECKS.items():
        measured, tol, detail, *holds = check(**{f: getattr(fx, f) for f in CHECK_FIELDS[name]})
        checks.append(FixtureCheck(name, all(holds) and measured <= tol, measured, tol, detail))
    return FixtureReport(checks=checks)
