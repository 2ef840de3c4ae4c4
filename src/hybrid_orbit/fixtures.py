"""Bundled reference data and a synthetic system family with exact oracles.

Two kinds of test substrate live here:

* the reference matrices of a published two-phase walking-gait study
  (state and parameter Jacobians, scale-factor gains, designed Jacobians
  and their spectral radii), shipped as JSON and re-derivable through the
  synthesis pipeline by verify_paper();

* a piecewise-linear multi-domain family whose periodic orbit, section
  charts and phase Jacobians are all available in closed form (matrix
  exponentials plus guard-crossing corrections), so the finite-difference
  pipeline can be checked end to end against exact values.  Its five
  CATALOG systems ship as data/catalog.json, so running one needs neither
  the generator nor scipy.
"""

import inspect
import json
from dataclasses import dataclass, fields, replace
from functools import cached_property
from importlib import resources

import numpy as np

from .jsonio import FormatError, _json_text, _number, matrix_from_obj, matrix_to_obj, vector_from_obj, vector_to_obj
from .model import Domain, MultiDomainSystem, PeriodicOrbit, affine_chart_matrices, affine_section_chart
from .numerics import max_abs_entry, pinv, spectral_radius
from .poincare import PhaseJacobians, compose_jacobians
from . import numerics, synthesis

__all__ = [
    "PaperFixture",
    "paper_fixture",
    "corrupt",
    "FixtureCheck",
    "FixtureReport",
    "CHECK_FIELDS",
    "K1_EXCLUDED_ENTRY",
    "verify_paper",
    "LinearPhase",
    "SyntheticModel",
    "PROFILES",
    "CATALOG",
    "build_synthetic",
    "from_catalog",
    "synthetic_to_obj",
    "synthetic_from_obj",
]


# --------------------------------------------------------------------------
# reference fixture
# --------------------------------------------------------------------------


@dataclass(frozen=True)
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


def corrupt(fixture: PaperFixture, field_name: str, index=None) -> PaperFixture:
    """Return a copy of the fixture with one entry shifted by 0.1."""
    valid = {f.name for f in fields(PaperFixture)}
    if field_name not in valid:
        raise ValueError(f"unknown fixture field {field_name!r}")
    value = getattr(fixture, field_name)
    if isinstance(value, float):
        return replace(fixture, **{field_name: value + 0.1})
    value = value.copy()
    if field_name == "eigenvalues":
        value[0 if index is None else index] += 0.1
    else:
        value[(0, 0) if index is None else tuple(index)] += 0.1
    return replace(fixture, **{field_name: value})


# --------------------------------------------------------------------------
# fixture consistency checks
# --------------------------------------------------------------------------


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


# --------------------------------------------------------------------------
# synthetic piecewise-linear family
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class LinearPhase:
    """One phase of the synthetic family: linear flow, affine guard,
    linear reset into the next phase, and a controller shift linear in
    the feedback parameters."""

    drift: np.ndarray
    input_map: np.ndarray
    beta_coupling: np.ndarray
    guard_normal: np.ndarray
    guard_offset: float
    reset: np.ndarray
    start_state: np.ndarray
    duration: float


@dataclass(frozen=True)
class SyntheticModel:
    """A runnable system plus its exact orbit and phase Jacobians.

    The closed form needs matrix exponentials, so scipy: jacobians, and
    orbit unless its section fixed points were stored, are computed on
    first access.  Running the system reads neither.
    """

    profile: str
    phases: tuple[LinearPhase, ...]
    system: MultiDomainSystem
    stored_fixed_points: tuple[np.ndarray, ...] | None = None

    @cached_property
    def _geometry(self) -> tuple["_PhaseGeometry", ...]:
        return tuple(_phase_geometry(ph) for ph in self.phases)

    @cached_property
    def jacobians(self) -> tuple[PhaseJacobians, ...]:
        n_domains = len(self.phases)
        jacobians = []
        for i, (ph, geo) in enumerate(zip(self.phases, self._geometry)):
            prev = (i - 1) % n_domains
            a_i = geo.project @ geo.saltation @ geo.flow @ self.phases[prev].reset @ self._geometry[prev].embed
            f_i = geo.project @ geo.saltation @ (geo.response @ ph.beta_coupling)
            jacobians.append(PhaseJacobians(phase_index=i, A=a_i, F=f_i))
        return tuple(jacobians)

    @cached_property
    def orbit(self) -> PeriodicOrbit:
        points = self.stored_fixed_points
        if points is None:
            points = tuple(geo.project @ geo.x_end for geo in self._geometry)
        return PeriodicOrbit(
            fixed_points=tuple(points),
            phase_durations=tuple(ph.duration for ph in self.phases),
        )


# Open-loop return-map spectral-radius target per profile.
PROFILES = {"stable": 0.6, "unstable": 4.0, "boundary": 1.0, "uncoupled": 0.6}
_PROFILE_INDEX = {name: i for i, name in enumerate(sorted(PROFILES))}

CATALOG = ("stable-2", "stable-3", "unstable-2", "boundary-2", "uncoupled-2")

_STATE_DIM = 3
_INPUT_DIM = 2
_PARAM_DIM = 3
_MIN_COUPLING_SV = 0.08
_MAX_ATTEMPTS = 400


def _expm(m: np.ndarray) -> np.ndarray:
    """Matrix exponential.  scipy is imported here, on first use, because
    its import costs more than the rest of the package together and only
    building a synthetic system needs it."""
    from scipy.linalg import expm

    return expm(m)


def _forced_response(m: np.ndarray, g: np.ndarray, t: float):
    """Flow matrix e^{Mt} and the constant-input response integral."""
    dim, n_u = m.shape[0], g.shape[1]
    aug = np.zeros((dim + n_u, dim + n_u))
    aug[:dim, :dim] = m
    aug[:dim, dim:] = g
    full = _expm(aug * t)
    return full[:dim, :dim], full[:dim, dim:]


@dataclass(frozen=True)
class _PhaseGeometry:
    """Closed-form facts of one phase at its undisturbed exit: flow matrix,
    constant-input response, exit point, the exit section's chart matrices
    and the guard-crossing (saltation) correction there."""

    flow: np.ndarray
    response: np.ndarray
    x_end: np.ndarray
    embed: np.ndarray
    project: np.ndarray
    saltation: np.ndarray


def _phase_geometry(ph: LinearPhase) -> _PhaseGeometry:
    """Geometry of one phase; its reset is not read."""
    flow, response = _forced_response(ph.drift, ph.input_map, ph.duration)
    x_end = flow @ ph.start_state
    embed, _, project = affine_chart_matrices(ph.guard_normal, ph.guard_offset)
    f_end = ph.drift @ x_end
    saltation = np.eye(x_end.size) - np.outer(f_end, ph.guard_normal) / (ph.guard_normal @ f_end)
    return _PhaseGeometry(flow, response, x_end, embed, project, saltation)


_APPROACH_STEPS = 800
_APPROACH_MARGIN_STEPS = 737  # 0.92 * 800


def _approach_ok(drift, duration, start, normal, offset) -> bool:
    """Whether the interior approach stays strictly below the guard, with a
    0.05 margin until the final stretch.

    The states x_k = P^k start, k < 799, on the grid of the one-step flow
    P = e^{M duration / 800} are built by doubling: rows [n, 2n) are rows
    [0, n) times (P^n)'.
    """
    n_states = _APPROACH_STEPS - 1
    xs = np.empty((n_states, start.size))
    xs[0] = start
    power_t = _expm(drift * (duration / _APPROACH_STEPS)).T
    n = 1
    while n < n_states:
        m = min(n, n_states - n)
        xs[n:n + m] = xs[:m] @ power_t
        power_t = power_t @ power_t
        n *= 2
    h = xs @ normal - offset
    return not (np.any(h >= 0.0) or np.any(h[:_APPROACH_MARGIN_STEPS] > -0.05))


def _draw_phases(rng, n_domains: int, coupled: bool):
    """Draw raw phase data and validate the geometry; None on rejection.

    The phases come back without resets (reset None); build_synthetic
    solves for them."""
    drawn = []
    for _ in range(n_domains):
        drift = rng.uniform(-1.0, 1.0, (_STATE_DIM, _STATE_DIM)) * 0.7
        input_map = rng.uniform(-1.0, 1.0, (_STATE_DIM, _INPUT_DIM))
        if coupled:
            coupling = rng.uniform(-1.0, 1.0, (_INPUT_DIM, _PARAM_DIM))
        else:
            coupling = np.zeros((_INPUT_DIM, _PARAM_DIM))
        duration = rng.uniform(0.5, 0.9)
        start = rng.uniform(-1.0, 1.0, _STATE_DIM)
        start = start / np.linalg.norm(start) * rng.uniform(0.8, 1.4)
        drawn.append([drift, input_map, coupling, duration, start])

    validated = []
    for drift, input_map, coupling, duration, start in drawn:
        flow, _ = _forced_response(drift, input_map, duration)
        x_end = flow @ start
        if np.linalg.norm(x_end) < 0.3:
            return None
        f_end = drift @ x_end
        if np.linalg.norm(f_end) < 0.2:
            return None
        f_hat = f_end / np.linalg.norm(f_end)
        v = rng.uniform(-1.0, 1.0, _STATE_DIM)
        v -= (v @ f_hat) * f_hat
        v_norm = np.linalg.norm(v)
        if v_norm < 1e-9:
            return None
        # ~24 degrees between the normal and the exit flow: comfortably
        # transversal, with nontrivial guard-crossing corrections.
        normal = f_hat + 0.45 * (v / v_norm)
        normal /= np.linalg.norm(normal)
        if normal @ f_end < 0.0:
            normal = -normal
        if normal @ f_end < 0.2:
            return None
        offset = float(normal @ x_end)
        if not _approach_ok(drift, duration, start, normal, offset):
            return None
        validated.append(
            LinearPhase(
                drift=drift,
                input_map=input_map,
                beta_coupling=coupling,
                guard_normal=normal,
                guard_offset=offset,
                reset=None,
                start_state=start,
                duration=duration,
            )
        )
    return validated


def build_synthetic(n_domains: int, profile: str) -> SyntheticModel:
    """Construct a runnable synthetic model for a named profile.

    The orbit closes exactly by construction: each reset is solved (least
    norm) to map the engineered phase endpoint onto the next phase start
    while realizing a prescribed section-map Jacobian, so the open-loop
    return-map spectral radius lands exactly on the profile target.
    Construction is deterministic for a given (profile, n_domains).
    """
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}; choose from {sorted(PROFILES)}")
    if n_domains < 2:
        raise ValueError("the synthetic family needs at least two domains")
    coupled = profile != "uncoupled"
    rho_target = PROFILES[profile]

    for attempt in range(_MAX_ATTEMPTS):
        rng = np.random.default_rng([_PROFILE_INDEX[profile], n_domains, attempt])
        phases = _draw_phases(rng, n_domains, coupled)
        if phases is None:
            continue

        targets = [rng.uniform(-1.0, 1.0, (_STATE_DIM - 1, _STATE_DIM - 1)) * 1.3
                   for _ in range(n_domains)]
        open_product = compose_jacobians(targets)
        rho_0 = spectral_radius(open_product)
        if rho_0 < 1e-3:
            continue
        scale = (rho_target / rho_0) ** (1.0 / n_domains)
        targets = [t * scale for t in targets]

        geometry = [_phase_geometry(ph) for ph in phases]
        resets = []
        for i, geo in enumerate(geometry):
            j = (i + 1) % n_domains
            nxt = geometry[j]
            chain = nxt.project @ nxt.saltation @ nxt.flow
            top = np.kron(geo.embed.T, chain)
            bottom = np.kron(geo.x_end[None, :], np.eye(_STATE_DIM))
            lhs = np.vstack([top, bottom])
            rhs = np.concatenate([targets[j].flatten(order="F"), phases[j].start_state])
            vec, _, rank, _ = np.linalg.lstsq(lhs, rhs, rcond=None)
            if rank < lhs.shape[0]:
                break
            # C order, as synthetic_from_obj reads it: the layout sets the
            # BLAS summation order, so it must match for bit-identical runs.
            reset = np.ascontiguousarray(vec.reshape(_STATE_DIM, _STATE_DIM, order="F"))
            if np.max(np.abs(reset @ geo.x_end - phases[j].start_state)) > 1e-9:
                break
            resets.append(reset)
        if len(resets) < n_domains:
            continue

        model = _assemble(profile, tuple(
            replace(ph, reset=reset) for ph, reset in zip(phases, resets)
        ))
        if any(np.max(np.abs(jac.A - target)) > 1e-9
               for jac, target in zip(model.jacobians, targets)):
            continue
        if coupled:
            if any(np.linalg.svd(jac.F, compute_uv=False)[-1] < _MIN_COUPLING_SV
                   for jac in model.jacobians):
                continue
            if profile == "stable" and not _stable_profile_ok(model.jacobians):
                continue
        return model

    raise RuntimeError(
        f"no admissible draw for profile {profile!r} with {n_domains} domains"
    )


def _stable_profile_ok(jacobians) -> bool:
    """Every synthesis method must leave the stable profile comfortably
    contracting, so closed-loop decay experiments have headroom."""
    try:
        for method in (
            lambda: synthesis.scale_factor_gains(jacobians),
            lambda: synthesis.dlqr_gains(jacobians),
            lambda: synthesis.symmetric_matrix_gains(jacobians),
        ):
            gains = method()
            if gains.inexact:
                return False
            report = synthesis.stability_report(jacobians, gains)
            if report.product_radius > 0.42:
                return False
    except (synthesis.SynthesisError, ValueError):
        return False
    return True


def _linear_batch_field(drift: np.ndarray, coupling: np.ndarray):
    """Stacked field rows x M' + beta (G W)' of a linear phase.

    The control term depends on beta alone, so it is formed once per
    parameter stack, not once per field evaluation.  The drift product is
    x.dot(M'), the same BLAS product as x @ M' at about half the per-call
    cost on the small (B, 3) stacks of a phase flow, which calls the field
    four times per RK4 step.
    """
    drift_t = np.ascontiguousarray(drift.T)
    coupling_t = np.ascontiguousarray(coupling.T)

    def field(betas: np.ndarray):
        control = np.asarray(betas, dtype=float) @ coupling_t
        return lambda x: x.dot(drift_t) + control

    return field


def _assemble(profile: str, linear_phases: tuple[LinearPhase, ...]) -> SyntheticModel:
    """Build the runnable system from phase data; the closed form waits
    until it is read."""
    domains = []
    for ph in linear_phases:
        domains.append(
            Domain(
                state_dim=_STATE_DIM,
                control_dim=ph.input_map.shape[1],
                param_dim=ph.beta_coupling.shape[1],
                drift=lambda x, m=ph.drift: m @ x,
                input_map=lambda x, g=ph.input_map: g,
                controller=lambda x, beta, w=ph.beta_coupling: w @ beta,
                guard=lambda x, n=ph.guard_normal, d=ph.guard_offset: (x * n).sum(axis=1) - d,
                reset=lambda x, r=ph.reset: r @ x,
                exit_chart=affine_section_chart(ph.guard_normal, ph.guard_offset),
                batch_field=_linear_batch_field(ph.drift, ph.input_map @ ph.beta_coupling),
            )
        )
    return SyntheticModel(
        profile=profile,
        phases=linear_phases,
        system=MultiDomainSystem(domains=tuple(domains)),
    )


def from_catalog(name: str) -> SyntheticModel:
    """Rebuild a CATALOG system, with its orbit, from the bundled data.

    Only the CATALOG names are stored; build_synthetic generates any other
    (profile, n_domains) pair.
    """
    if name not in CATALOG:
        raise ValueError(f"unknown catalog system {name!r}; available: {', '.join(CATALOG)}")
    entry = json.loads(resources.files("hybrid_orbit").joinpath("data/catalog.json").read_text())[name]
    points = tuple(vector_from_obj(p, f"{name}.fixed_points") for p in entry["fixed_points"])
    return replace(synthetic_from_obj(entry["descriptor"]), stored_fixed_points=points)


def _catalog_text() -> str:
    """The text of data/catalog.json as build_synthetic generates it: per
    CATALOG name, the descriptor and the orbit's section fixed points."""
    entries = {}
    for name in CATALOG:
        profile, n_domains = name.rsplit("-", 1)
        model = build_synthetic(int(n_domains), profile)
        entries[name] = {
            "descriptor": synthetic_to_obj(model),
            "fixed_points": [vector_to_obj(p) for p in model.orbit.fixed_points],
        }
    return _json_text(entries)


# How a descriptor phase stores a LinearPhase field, as (reader, writer);
# the fields not listed are matrices.
_PHASE_FIELDS = {
    "guard_normal": (vector_from_obj, vector_to_obj),
    "start_state": (vector_from_obj, vector_to_obj),
    "guard_offset": (_number, float),
    "duration": (_number, float),
}
_MATRIX_FIELD = (matrix_from_obj, matrix_to_obj)


def synthetic_to_obj(model: SyntheticModel) -> dict:
    """JSON descriptor of the piecewise-linear family (matrices only)."""
    return {
        "profile": model.profile,
        "n_domains": len(model.phases),
        "phases": [
            {
                field.name: _PHASE_FIELDS.get(field.name, _MATRIX_FIELD)[1](getattr(ph, field.name))
                for field in fields(LinearPhase)
            }
            for ph in model.phases
        ],
    }


def synthetic_from_obj(obj: dict) -> SyntheticModel:
    """Rebuild a synthetic model from its descriptor; its orbit and
    Jacobians are computed on first access.  Malformed descriptors raise
    FormatError with the field path."""
    if not isinstance(obj, dict):
        raise FormatError("descriptor: expected an object")
    if not isinstance(obj.get("phases"), list):
        raise FormatError("phases: expected a list of phase objects")
    phases = []
    for idx, entry in enumerate(obj["phases"]):
        if not isinstance(entry, dict):
            raise FormatError(f"phases[{idx}]: expected an object")
        values = {}
        for field in fields(LinearPhase):
            path = f"phases[{idx}].{field.name}"
            if field.name not in entry:
                raise FormatError(f"{path}: missing")
            values[field.name] = _PHASE_FIELDS.get(field.name, _MATRIX_FIELD)[0](entry[field.name], path)
        phases.append(LinearPhase(**values))
    return _assemble(str(obj.get("profile", "custom")), tuple(phases))
