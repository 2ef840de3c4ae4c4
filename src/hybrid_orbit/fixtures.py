"""Bundled reference data and a synthetic system family with exact oracles.

Two kinds of test substrate live here:

* the reference matrices of a published two-phase walking-gait study
  (state and parameter Jacobians, scale-factor gains, designed Jacobians
  and their spectral radii), shipped as JSON and re-derivable through the
  synthesis pipeline by verify_paper();

* a piecewise-linear multi-domain family whose periodic orbit, section
  charts and phase Jacobians are all available in closed form (matrix
  exponentials plus guard-crossing corrections), so the finite-difference
  pipeline can be checked end to end against exact values.
"""

import json
from dataclasses import dataclass, fields, replace
from importlib import resources

import numpy as np

from .jsonio import FormatError, _number, matrix_from_obj, matrix_to_obj, vector_from_obj, vector_to_obj
from .model import Domain, MultiDomainSystem, PeriodicOrbit, affine_chart_matrices, affine_section_chart
from .numerics import eigenvalues, max_abs_entry, pinv, spectral_radius
from .poincare import PhaseJacobians, compose_jacobians
from . import synthesis

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
    eigs = np.array([complex(e["re"], e["im"]) for e in doc["eigenvalues"]])
    mats = {
        key: matrix_from_obj(doc[key], key)
        for key in (
            "A1", "A2", "A", "F1", "F2", "K1", "K2",
            "A1d", "A2d", "Ad", "remark1_A1d", "remark1_A2d",
        )
    }
    return PaperFixture(
        eigenvalues=eigs,
        rho_A=float(doc["rho_A"]),
        rho_Ad=float(doc["rho_Ad"]),
        remark1_rho=float(doc["remark1_rho"]),
        **mats,
    )


def corrupt(fixture: PaperFixture, field_name: str, index=None, delta: float = 0.1) -> PaperFixture:
    """Return a copy of the fixture with one entry shifted by delta."""
    valid = {f.name for f in fields(PaperFixture)}
    if field_name not in valid:
        raise ValueError(f"unknown fixture field {field_name!r}")
    value = getattr(fixture, field_name)
    if isinstance(value, float):
        return replace(fixture, **{field_name: value + delta})
    value = value.copy()
    if field_name == "eigenvalues":
        value[0 if index is None else index] += delta
    else:
        value[(0, 0) if index is None else tuple(index)] += delta
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


# Which fixture fields each check reads; fault injection outside a check's
# fields must never change its outcome.
CHECK_FIELDS = {
    "compose_return_jacobian": ("A1", "A2", "A"),
    "eigenvalue_reproduction": ("A", "eigenvalues"),
    "open_loop_radius": ("A", "rho_A"),
    "gain_reproduction_1": ("A1", "F1", "K1"),
    "gain_reproduction_2": ("A2", "F2", "K2"),
    "designed_jacobian_1": ("A1", "F1", "A1d"),
    "designed_jacobian_2": ("A2", "F2", "A2d"),
    "designed_product": ("A1", "F1", "A2", "F2", "Ad"),
    "designed_product_radius": ("A1", "F1", "A2", "F2", "rho_Ad"),
    "pinv_axioms_F1": ("F1",),
    "remark1_product_radius": ("remark1_A1d", "remark1_A2d", "remark1_rho"),
}

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


def _check(name, measured, tol, detail, holds=True) -> FixtureCheck:
    """The one pass rule: a side condition holds and the measured
    deviation is within tolerance."""
    return FixtureCheck(name, bool(holds) and measured <= tol, measured, tol, detail)


def _entrywise_check(name, computed, expected, tol, exclude=None) -> FixtureCheck:
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
    return _check(name, float(np.max(delta)), tol, f"max delta at {_argmax_entry(delta)}{note}")


def _scale_factor_phase(a, f):
    gains = synthesis.scale_factor_gains([(a, f)], eta=1.0)
    k = gains.gains[0]
    return k, a - f @ k


def verify_paper(fixture: PaperFixture | None = None, tolerance_scale: float = 1.0) -> FixtureReport:
    """Run every fixture consistency check and report measured deltas.

    Deterministic and self-contained; failures are reported, never raised.
    tolerance_scale multiplies every tolerance (tightening it demonstrates
    the 4-decimal print-precision floor of the data).
    """
    fx = fixture if fixture is not None else paper_fixture()
    s = tolerance_scale
    checks = []

    checks.append(
        _entrywise_check(
            "compose_return_jacobian", fx.A2 @ fx.A1, fx.A, _TOL_PRODUCT * s
        )
    )

    computed_eigs = eigenvalues(fx.A)
    worst = 0.0
    for expected in fx.eigenvalues:
        worst = max(worst, float(np.min(np.abs(computed_eigs - expected))))
    checks.append(
        _check(
            "eigenvalue_reproduction",
            worst,
            _TOL_DIRECT * s,
            f"worst match distance over {fx.eigenvalues.size} eigenvalues",
            holds=computed_eigs.size == fx.eigenvalues.size,
        )
    )

    rho_a = spectral_radius(fx.A)
    checks.append(
        _check("open_loop_radius", abs(rho_a - fx.rho_A), _TOL_DIRECT * s, f"measured radius {rho_a:.4f}")
    )

    k1, a1d = _scale_factor_phase(fx.A1, fx.F1)
    k2, a2d = _scale_factor_phase(fx.A2, fx.F2)
    checks.append(
        _entrywise_check("gain_reproduction_1", k1, fx.K1, _TOL_PINV * s, exclude=K1_EXCLUDED_ENTRY)
    )
    checks.append(_entrywise_check("gain_reproduction_2", k2, fx.K2, _TOL_PINV * s))
    checks.append(_entrywise_check("designed_jacobian_1", a1d, fx.A1d, _TOL_DIRECT * s))
    checks.append(_entrywise_check("designed_jacobian_2", a2d, fx.A2d, _TOL_DIRECT * s))

    product = a2d @ a1d
    checks.append(_entrywise_check("designed_product", product, fx.Ad, _TOL_DIRECT * s))
    rho_ad = spectral_radius(product)
    checks.append(
        _check("designed_product_radius", abs(rho_ad - fx.rho_Ad), _TOL_DIRECT * s,
               f"measured radius {rho_ad:.6f}")
    )

    p1 = pinv(fx.F1)
    axiom_defect = max(
        max_abs_entry(fx.F1 @ p1 @ fx.F1 - fx.F1),
        max_abs_entry(p1 @ fx.F1 @ p1 - p1),
        max_abs_entry((fx.F1 @ p1).T - fx.F1 @ p1),
        max_abs_entry((p1 @ fx.F1).T - p1 @ fx.F1),
    )
    checks.append(_check("pinv_axioms_F1", axiom_defect, 1e-8 * s, "worst of the four pseudoinverse axioms"))

    rho_pair = spectral_radius(fx.remark1_A2d @ fx.remark1_A1d)
    rho_1 = spectral_radius(fx.remark1_A1d)
    rho_2 = spectral_radius(fx.remark1_A2d)
    checks.append(
        _check(
            "remark1_product_radius",
            abs(rho_pair - fx.remark1_rho),
            1e-4 * s,
            f"product radius {rho_pair:.6f} from factors with radii "
            f"{rho_1:.4f}, {rho_2:.4f} (both contractions)",
            holds=rho_1 < 1.0 and rho_2 < 1.0,
        )
    )

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
    """A runnable system plus its exact orbit and phase Jacobians."""

    profile: str
    phases: tuple[LinearPhase, ...]
    system: MultiDomainSystem
    jacobians: tuple[PhaseJacobians, ...]
    orbit: PeriodicOrbit


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
            reset = vec.reshape(_STATE_DIM, _STATE_DIM, order="F")
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
    parameter stack, not once per field evaluation.
    """
    drift_t = np.ascontiguousarray(drift.T)
    coupling_t = np.ascontiguousarray(coupling.T)

    def field(betas: np.ndarray):
        control = np.asarray(betas, dtype=float) @ coupling_t
        return lambda x: x @ drift_t + control

    return field


def _assemble(profile: str, linear_phases: tuple[LinearPhase, ...]) -> SyntheticModel:
    """Build the runnable system and closed-form Jacobians from phase data."""
    n_domains = len(linear_phases)
    geometry = [_phase_geometry(ph) for ph in linear_phases]

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
                guard=lambda x, n=ph.guard_normal, d=ph.guard_offset: float(n @ x - d),
                reset=lambda x, r=ph.reset: r @ x,
                exit_chart=affine_section_chart(ph.guard_normal, ph.guard_offset),
                batch_field=_linear_batch_field(ph.drift, ph.input_map @ ph.beta_coupling),
                batch_guard=lambda x, n=ph.guard_normal, d=ph.guard_offset: (x * n).sum(axis=1) - d,
            )
        )
    system = MultiDomainSystem(domains=tuple(domains))

    jacobians = []
    fixed_points = []
    for i, (ph, geo) in enumerate(zip(linear_phases, geometry)):
        prev = (i - 1) % n_domains
        a_i = geo.project @ geo.saltation @ geo.flow @ linear_phases[prev].reset @ geometry[prev].embed
        f_i = geo.project @ geo.saltation @ (geo.response @ ph.beta_coupling)
        jacobians.append(PhaseJacobians(phase_index=i, A=a_i, F=f_i, fd_step=0.0))
        fixed_points.append(geo.project @ geo.x_end)

    orbit = PeriodicOrbit(
        fixed_points=tuple(fixed_points),
        phase_durations=tuple(ph.duration for ph in linear_phases),
    )
    return SyntheticModel(
        profile=profile,
        phases=linear_phases,
        system=system,
        jacobians=tuple(jacobians),
        orbit=orbit,
    )


def from_catalog(name: str) -> SyntheticModel:
    """Build a catalog system from its '<profile>-<n_domains>' name."""
    parts = name.rsplit("-", 1)
    if len(parts) != 2 or not parts[1].isdigit():
        raise ValueError(
            f"catalog name {name!r} must look like '<profile>-<n_domains>', "
            f"for example {CATALOG[0]!r}"
        )
    return build_synthetic(int(parts[1]), parts[0])


def synthetic_to_obj(model: SyntheticModel) -> dict:
    """JSON descriptor of the piecewise-linear family (matrices only)."""
    return {
        "profile": model.profile,
        "n_domains": len(model.phases),
        "phases": [
            {
                "drift": matrix_to_obj(ph.drift),
                "input_map": matrix_to_obj(ph.input_map),
                "beta_coupling": matrix_to_obj(ph.beta_coupling),
                "guard_normal": vector_to_obj(ph.guard_normal),
                "guard_offset": float(ph.guard_offset),
                "reset": matrix_to_obj(ph.reset),
                "start_state": vector_to_obj(ph.start_state),
                "duration": float(ph.duration),
            }
            for ph in model.phases
        ],
    }


def synthetic_from_obj(obj: dict) -> SyntheticModel:
    """Rebuild a synthetic model (orbit and Jacobians included) from its
    descriptor.  Malformed descriptors raise FormatError with the field
    path."""
    if not isinstance(obj, dict):
        raise FormatError("descriptor: expected an object")
    if not isinstance(obj.get("phases"), list):
        raise FormatError("phases: expected a list of phase objects")
    readers = {
        "guard_normal": vector_from_obj,
        "start_state": vector_from_obj,
        "guard_offset": _number,
        "duration": _number,
    }
    phases = []
    for idx, entry in enumerate(obj["phases"]):
        if not isinstance(entry, dict):
            raise FormatError(f"phases[{idx}]: expected an object")
        values = {}
        for field in fields(LinearPhase):
            path = f"phases[{idx}].{field.name}"
            if field.name not in entry:
                raise FormatError(f"{path}: missing")
            values[field.name] = readers.get(field.name, matrix_from_obj)(entry[field.name], path)
        phases.append(LinearPhase(**values))
    return _assemble(str(obj.get("profile", "custom")), tuple(phases))
