"""A piecewise-linear multi-domain system family with exact oracles.

Its periodic orbit, section charts and phase Jacobians are all available
in closed form (matrix exponentials plus guard-crossing corrections), so
the finite-difference pipeline can be checked end to end against exact
values.  Its five CATALOG systems ship as data/catalog.json, so running one
needs neither the generator nor scipy.
"""

import json
from dataclasses import dataclass, fields, replace
from functools import cached_property
from importlib import resources

import numpy as np

from .jsonio import FormatError, _json_text, _number, matrix_from_obj, matrix_to_obj, vector_from_obj, vector_to_obj
from .model import AffineField, AffineGuard, Domain, MultiDomainSystem, PeriodicOrbit, affine_chart_matrices, affine_section_chart, matvec_rows
from .numerics import PhaseJacobians, compose_jacobians, spectral_radius
from . import synthesis

__all__ = [
    "LinearPhase",
    "SyntheticModel",
    "PROFILES",
    "CATALOG",
    "build_synthetic",
    "from_catalog",
    "synthetic_to_obj",
    "synthetic_from_obj",
]


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
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
    """Stacked field rows x M' + beta (G W)' of a linear phase, as the
    AffineField of drift M and control rows beta (G W)'.

    The control term depends on beta alone, so it is formed once per
    parameter stack, not once per field evaluation.
    """
    coupling_t = np.ascontiguousarray(coupling.T)

    def field(betas: np.ndarray) -> AffineField:
        return AffineField(drift, np.asarray(betas, dtype=float) @ coupling_t)

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
                guard=AffineGuard(ph.guard_normal, ph.guard_offset),
                reset=lambda X, r=ph.reset: matvec_rows(r, X),
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
