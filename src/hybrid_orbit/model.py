"""Multi-domain cyclic hybrid systems with parameterized phase controllers.

A system is an ordered ring of N domains executed 1 -> 2 -> ... -> N -> 1.
Each domain owns a continuous flow x' = f(x) + g(x) u, an exit guard
whose zero set is the switching surface into the next domain, a reset map
applied at the crossing, and a controller u = Gamma(x, beta) parameterized
by a vector beta that event-triggered feedback freezes at phase entry.

System descriptions are immutable after construction and every stored
callable must be pure: section maps and their finite-difference Jacobians
are evaluated repeatedly at nearby points and must give repeatable results.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .numerics import central_difference

__all__ = [
    "AffineField",
    "AffineGuard",
    "SectionChart",
    "Domain",
    "MultiDomainSystem",
    "PeriodicOrbit",
    "FeedbackLaw",
    "validate_c1_c2",
    "ConditionReport",
    "affine_chart_matrices",
    "affine_section_chart",
    "chart_from_guard",
    "matvec_rows",
]

_GRAD_STEP = 1e-7


@dataclass(frozen=True)
class SectionChart:
    """Reduced coordinates on a switching surface.

    embed maps a (B, k) stack of reduced coordinates to the (B, m) stack
    of full states on the surface; project maps a (B, m) stack back to
    (B, k).  Row b of each result depends on row b of the input alone,
    and project(embed(Y)) must equal Y.  A single point y is the stack
    y[None].
    """

    k: int
    embed: Callable[[np.ndarray], np.ndarray]
    project: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True, eq=False)
class AffineField:
    """The stacked affine field X M' + C: field(X) = X.dot(drift.T) + control.

    drift is the (m, m) matrix M and control the (B, m) stack of constant
    rows C, row b of the field held at control[b]; a batch_field whose
    closed phase field is affine in the state returns one.  Each row of
    field(X) has the same bits whatever B is.  flow_batch advances such a
    field by its exact RK4 transition over horizons of up to 512 steps,
    with a table of the transition's powers made once per drift, base step
    and guard normal and cached by value (see integrator._horizon).  With
    an AffineGuard, one product with the table's guard projection screens
    a whole horizon, and only the states the flow keeps are built; the
    guard along an RK4 step is a quartic in the step length, and each
    crossing is searched on it in floats (see integrator._exit_crossing).
    """

    drift: np.ndarray
    control: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "drift", np.asarray(self.drift, dtype=float))
        object.__setattr__(self, "control", np.asarray(self.control, dtype=float))
        if self.drift.ndim != 2 or self.drift.shape[0] != self.drift.shape[1]:
            raise ValueError(f"drift has shape {self.drift.shape}, expected a square matrix")
        m = self.drift.shape[0]
        if self.control.ndim != 2 or self.control.shape[1] != m:
            raise ValueError(f"control has shape {self.control.shape}, expected (B, {m})")
        # x.dot(M') takes about half the per-call cost of x @ M' on the
        # small (B, 3) stacks of a phase flow, with the same BLAS product.
        object.__setattr__(self, "_drift_t", np.ascontiguousarray(self.drift.T))

    def __call__(self, X: np.ndarray) -> np.ndarray:
        return X.dot(self._drift_t) + self.control


@dataclass(frozen=True, eq=False)
class AffineGuard:
    """The affine guard n . x - d: guard(X) = (X * normal).sum(axis=1) - offset.

    normal is the finite (m,) vector n and offset the finite number d; the
    switching surface is the hyperplane n . x = d.  Each row of guard(X)
    has the same bits whatever B is; X.dot(normal) - offset sums in
    another order and can round differently.  A phase flow reads
    dH/dx = n instead of differencing the guard, and checks the guard
    values alone for overflow: a row with an entry that is not finite has
    a guard value that is not finite, since n and d are finite.  The
    guard keeps |n| for the rounding floor of flows, as AffineField keeps
    M', so a guard is changed by building a new one, not by writing into
    normal.  With an AffineField, each crossing is searched in floats on
    the quartic the guard is along an RK4 step, whose table is cached with
    the flow's transition table (see integrator._exit_crossing).
    """

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        object.__setattr__(self, "normal", np.asarray(self.normal, dtype=float))
        object.__setattr__(self, "offset", float(self.offset))
        if self.normal.ndim != 1 or not np.isfinite(self.normal).all():
            raise ValueError(f"normal must be a finite 1-D vector, got shape {self.normal.shape}")
        if not np.isfinite(self.offset):
            raise ValueError(f"offset must be finite, got {self.offset!r}")
        object.__setattr__(self, "_abs_normal", np.abs(self.normal))

    def __call__(self, X: np.ndarray) -> np.ndarray:
        return (X * self.normal).sum(axis=1) - self.offset


@dataclass(frozen=True)
class Domain:
    """One continuous phase and its exit transition.

    guard maps a (B, state_dim) state stack to its (B,) guard values, and
    reset maps it row by row to the (B, state_dim) states entering the
    next domain; a single state x is the stack x[None].  An affine guard
    should be an AffineGuard: flows then read its normal as dH/dx, where
    any other guard is differenced centrally.  A matrix reset is
    matvec_rows(R, X): the row form lambda x: R @ x runs on the wrong
    axis.  drift, input_map and controller take one state.  batch_field
    is an optional stacked form of the closed phase field:
    batch_field(betas) takes a (B, param_dim) parameter stack and returns
    a map from a (B, state_dim) state stack to the (B, state_dim) field
    rows, row b held at betas[b].  It must agree row by row with drift,
    input_map and controller; without it, batched integration applies
    those one row at a time.  A phase whose closed field is affine in the
    state should return an AffineField: flows then advance it by its
    exact RK4 transition over horizons of up to 512 steps, with the same
    truncation error as the RK4 stages that any other map takes one step
    at a time, and many times faster; with an AffineGuard one product
    screens the guard along a horizon and builds no state it does not
    keep (see the README's "Batched phase flows").

    When present batch_field takes precedence over the scalar field
    callables, and dataclasses.replace copies it unchanged:
    replace(d, drift=f) keeps the old batch_field, which then silently
    integrates the old field.  Clear it with the change, as in
    replace(d, drift=f, batch_field=None).
    """

    state_dim: int
    control_dim: int
    param_dim: int
    drift: Callable[[np.ndarray], np.ndarray]
    input_map: Callable[[np.ndarray], np.ndarray]
    controller: Callable[[np.ndarray, np.ndarray], np.ndarray]
    guard: Callable[[np.ndarray], np.ndarray]
    reset: Callable[[np.ndarray], np.ndarray]
    exit_chart: SectionChart | None = None
    batch_field: Callable[[np.ndarray], Callable[[np.ndarray], np.ndarray]] | None = None

    def __post_init__(self):
        if self.state_dim < 1:
            raise ValueError("state_dim must be positive")
        if self.control_dim < 0 or self.param_dim < 0:
            raise ValueError("control_dim and param_dim must be nonnegative")

    def vector_field(self, beta: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        """Closed-phase vector field f + g Gamma(., beta) with beta held fixed."""
        beta = np.asarray(beta, dtype=float)
        if beta.shape != (self.param_dim,):
            raise ValueError(
                f"parameter vector has shape {beta.shape}, expected ({self.param_dim},)"
            )
        if self.control_dim == 0:
            return self.drift

        def f(x: np.ndarray) -> np.ndarray:
            return self.drift(x) + self.input_map(x) @ self.controller(x, beta)

        return f


@dataclass(frozen=True)
class MultiDomainSystem:
    """Ordered cyclic collection of domains; index N wraps to 0."""

    domains: tuple[Domain, ...]

    def __post_init__(self):
        if len(self.domains) < 1:
            raise ValueError("a system needs at least one domain")
        object.__setattr__(self, "domains", tuple(self.domains))

    @property
    def n_domains(self) -> int:
        return len(self.domains)

    def domain(self, i: int) -> Domain:
        return self.domains[i % self.n_domains]

    def chart(self, i: int) -> SectionChart:
        """Chart of the section at the exit of domain i."""
        chart = self.domain(i).exit_chart
        if chart is None:
            raise ValueError(f"domain {i % self.n_domains} has no exit chart")
        return chart


@dataclass(frozen=True, eq=False)
class PeriodicOrbit:
    """Per-section fixed points and phase durations of a periodic solution.

    fixed_points[i] holds the reduced coordinates of the orbit's crossing
    of the section at the exit of domain i.
    """

    fixed_points: tuple[np.ndarray, ...]
    phase_durations: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(
            self,
            "fixed_points",
            tuple(np.asarray(x, dtype=float) for x in self.fixed_points),
        )
        object.__setattr__(self, "phase_durations", tuple(float(t) for t in self.phase_durations))
        if len(self.fixed_points) != len(self.phase_durations):
            raise ValueError("fixed_points and phase_durations must have equal length")
        if any(t <= 0.0 for t in self.phase_durations):
            raise ValueError("phase durations must be positive")

    @property
    def period(self) -> float:
        return float(sum(self.phase_durations))


@dataclass(frozen=True, eq=False)
class FeedbackLaw:
    """Event-triggered parameter feedback beta_i = -K_i (x_sec - x*).

    The deviation is measured in reduced section coordinates on entry into
    phase i, before the reset is applied, and beta_i is held constant for
    the remainder of the phase.  beta(i, X) maps a (B, k) stack of section
    states to the (B, p) parameter rows, each with the bits of
    -K_i @ (x - x*); a single state x is the stack x[None].  The
    admissible-parameter set is treated as unbounded.
    """

    gains: tuple[np.ndarray, ...]
    orbit: PeriodicOrbit

    def __post_init__(self):
        object.__setattr__(
            self, "gains", tuple(np.asarray(k, dtype=float) for k in self.gains)
        )
        if len(self.gains) != len(self.orbit.fixed_points):
            raise ValueError("need one gain matrix per phase")

    def beta(self, i: int, X: np.ndarray) -> np.ndarray:
        n = len(self.gains)
        gain = self.gains[i % n]
        ref = self.orbit.fixed_points[(i - 1) % n]
        return -matvec_rows(gain, X - ref)


@dataclass
class ConditionReport:
    """Outcome of the controller-consistency checks on sampled states.

    c1_deviation[t] is max |Gamma(x, beta_t) - Gamma(x, 0)| over samples and
    probe directions at shrink level t; c2_deviation is the analogous
    state-gradient mismatch.  Both must vanish as beta -> 0.
    """

    scales: list[float]
    c1_deviation: list[float]
    c2_deviation: list[float]
    c1_pass: bool
    c2_pass: bool

    @property
    def passed(self) -> bool:
        return self.c1_pass and self.c2_pass


def validate_c1_c2(domain: Domain, samples: np.ndarray) -> ConditionReport:
    """Check that the parameterized controller degenerates to the nominal one.

    samples is an (S, state_dim) stack of states; a list of states stacks
    to one.  The control and its state gradient, one central difference
    over the stack, are probed along every parameter axis at magnitudes
    1e-1, ..., 1e-5.  Each condition passes when its deviation at the
    smallest magnitude is at most 1e-4, and a deviation that is not
    finite is reported as inf, so it fails.  Violations are reported,
    never raised; an empty or misshaped stack raises ValueError.
    """
    try:
        X = np.asarray(samples, dtype=float)
    except ValueError as exc:
        raise ValueError(f"samples do not stack to one array: {exc}") from exc
    if X.ndim != 2 or not X.shape[0] or X.shape[1] != domain.state_dim:
        raise ValueError(f"sample stack has shape {X.shape}, expected (S, {domain.state_dim})")
    scales = [1e-1, 1e-2, 1e-3, 1e-4, 1e-5]
    if domain.param_dim == 0:
        return ConditionReport(scales, [0.0] * len(scales), [0.0] * len(scales), True, True)

    def control(beta):
        return lambda points: np.array([domain.controller(z, beta) for z in points])

    nominal = control(np.zeros(domain.param_dim))
    u0, g0 = nominal(X), central_difference(nominal, X, _GRAD_STEP)
    c1_dev, c2_dev = [], []
    for scale in scales:
        worst_c1 = 0.0
        worst_c2 = 0.0
        for j in range(domain.param_dim):
            beta = np.zeros(domain.param_dim)
            beta[j] = scale
            probe = control(beta)
            worst_c1 = max(worst_c1, _deviation(probe(X) - u0))
            worst_c2 = max(worst_c2, _deviation(central_difference(probe, X, _GRAD_STEP) - g0))
        c1_dev.append(worst_c1)
        c2_dev.append(worst_c2)

    return ConditionReport(scales, c1_dev, c2_dev, c1_dev[-1] <= 1e-4, c2_dev[-1] <= 1e-4)


def _deviation(diff: np.ndarray) -> float:
    """max |diff|, or inf if some entry is not finite: max(worst, nan)
    would keep worst, and a NaN control would read as no deviation."""
    worst = float(np.max(np.abs(diff)))
    return worst if np.isfinite(worst) else np.inf


def matvec_rows(matrix: np.ndarray, X: np.ndarray) -> np.ndarray:
    """matrix @ x for each row x of the (B, n) stack X: the (B, m) stack
    (matrix @ X[:, :, None])[:, :, 0].

    Each row has the bits of the one-row product matrix @ x, whatever B
    is.  X @ matrix.T runs another BLAS kernel, which can round a row
    differently.  X not 2-D raises ValueError.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"expected a (B, n) stack of vectors, got shape {X.shape}")
    return (matrix @ X[:, :, None])[:, :, 0]


def affine_chart_matrices(normal, offset: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Drop-coordinate chart (E, e0, P) of the affine surface
    {x : normal . x = offset}.

    The coordinate j with the largest |normal| component (best
    solvability) is eliminated: embed(y) = E y + e0 solves normal . x =
    offset for x_j, and project(x) = P x keeps the other coordinates, so
    P E = I and P e0 = 0.
    """
    normal = np.asarray(normal, dtype=float)
    j = int(np.argmax(np.abs(normal)))
    if normal[j] == 0.0:
        raise ValueError("cannot eliminate a coordinate with zero normal component")
    keep = np.delete(np.arange(normal.size), j)
    project = np.eye(normal.size)[keep]
    embed = project.T.copy()
    embed[j] = -normal[keep] / normal[j]
    offset_vec = np.zeros(normal.size)
    offset_vec[j] = offset / normal[j]
    return embed, offset_vec, project


def affine_section_chart(normal, offset: float) -> SectionChart:
    """Chart on an affine surface {x : normal . x = offset}, built from
    affine_chart_matrices: embed(Y) = E y + e0 and project(X) = P x for
    each row, through matvec_rows."""
    embed, offset_vec, project = affine_chart_matrices(normal, offset)
    return SectionChart(
        k=project.shape[0],
        embed=lambda Y: matvec_rows(embed, Y) + offset_vec,
        project=lambda X: matvec_rows(project, X),
    )


def chart_from_guard(domain: Domain, x_ref: np.ndarray) -> SectionChart:
    """Default chart on a domain's exit surface near a reference crossing.

    The coordinate j with the largest |dH/dx| component at x_ref is solved
    from H(x) = 0 by Newton iteration on each row of the stack, slope
    dH/dx_j from central_difference, to |H| <= 1e-12 within 50 steps; the
    remaining coordinates are the reduced ones.  Exact (one step) for
    guards affine in the eliminated coordinate.
    """
    x_ref = np.asarray(x_ref, dtype=float)
    grad = central_difference(domain.guard, x_ref[None], _GRAD_STEP)[0, 0]
    j = int(np.argmax(np.abs(grad)))
    if grad[j] == 0.0:
        raise ValueError("guard gradient vanishes at the reference point")
    m = x_ref.size
    keep = [i for i in range(m) if i != j]

    def embed(Y: np.ndarray) -> np.ndarray:
        Y = np.asarray(Y, dtype=float)
        X = np.empty((Y.shape[0], m))
        X[:, keep] = Y
        X[:, j] = x_ref[j]
        for _ in range(50):
            h_val = domain.guard(X)
            todo = ~(np.abs(h_val) <= 1e-12)
            if not todo.any():
                return X
            slope = central_difference(domain.guard, X[todo], _GRAD_STEP)[:, 0, j]
            if (slope == 0.0).any():
                break
            X[todo, j] -= h_val[todo] / slope
        raise ValueError("could not solve the guard for the eliminated coordinate")

    def project(X: np.ndarray) -> np.ndarray:
        return np.asarray(X, dtype=float)[:, keep]

    return SectionChart(k=m - 1, embed=embed, project=project)
