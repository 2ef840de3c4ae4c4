"""Rigid (plastic) impact resets from user-supplied matrices.

An ImpactModel solves the block system

    [ D  -E' ] [ V ]   [ D ]
    [ E   0  ] [ L ] = [ 0 ]

once, when it is built: a pre-impact velocity qdot_minus leaves with
velocity V qdot_minus and contact impulse L qdot_minus, so the
constrained directions are arrested exactly.  Positions pass through an
impact unchanged; a signed coordinate permutation handles the
support/swing relabeling that follows.

rigid_impact and relabel map (B, n) stacks row by row, as a Domain reset
does, and a single state x is the stack x[None].  The impact reset of a
stack X of states (q, qdot) is

    np.hstack([relabel(X[:, :n], model.relabel_map),
               relabel(rigid_impact(model, X[:, n:])[0], model.relabel_map)])
"""

from dataclasses import dataclass, field

import numpy as np

from .model import matvec_rows
from .numerics import _check_weight

__all__ = [
    "ImpactModel",
    "rigid_impact",
    "relabel",
]


@dataclass(frozen=True, eq=False)
class ImpactModel:
    """Extended inertia matrix, contact Jacobian and relabeling map.

    relabel_map uses signed 1-based indices: entry j holding +-(s+1) means
    output coordinate j is +-coords[s].  It must be a signed permutation
    of the n_coords coordinates, and is checked when the model is built.
    velocity_map V (n x n) and impulse_map L (c x n) are solved from the
    block system when the model is built; with no constraints V is the
    identity and L is empty.
    """

    inertia: np.ndarray
    contact_jacobian: np.ndarray
    relabel_map: tuple[int, ...] | None = None
    velocity_map: np.ndarray = field(init=False, repr=False)
    impulse_map: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        d = _check_weight(self.inertia, "inertia matrix", definite=True)
        n = d.shape[0]
        e = np.asarray(self.contact_jacobian, dtype=float)
        if e.ndim != 2 or e.shape[1] != n:
            raise ValueError(f"contact Jacobian has shape {e.shape}, expected (c, {n})")
        c = e.shape[0]
        velocity, impulse = np.eye(n), np.zeros((0, n))
        if c > 0:
            if not np.all(np.isfinite(e)):
                raise ValueError("contact Jacobian contains non-finite entries")
            if np.linalg.matrix_rank(e) < c:
                raise ValueError("contact Jacobian must have full row rank")
            block = np.block([[d, -e.T], [e, np.zeros((c, c))]])
            try:
                solution = np.linalg.solve(block, np.concatenate([d, np.zeros((c, n))]))
            except np.linalg.LinAlgError as exc:
                raise ValueError(f"singular impact block system: {exc}") from exc
            velocity, impulse = solution[:n], solution[n:]
        object.__setattr__(self, "inertia", d)
        object.__setattr__(self, "contact_jacobian", e)
        object.__setattr__(self, "velocity_map", velocity)
        object.__setattr__(self, "impulse_map", impulse)
        if self.relabel_map is not None:
            object.__setattr__(self, "relabel_map", _signed_permutation(self.relabel_map, n))

    @property
    def n_coords(self) -> int:
        return self.inertia.shape[0]

    @property
    def n_constraints(self) -> int:
        return self.contact_jacobian.shape[0]


def rigid_impact(model: ImpactModel, Qdot) -> tuple[np.ndarray, np.ndarray]:
    """Post-impact velocities and contact impulses of each row of the
    (B, n) velocity stack Qdot: the (B, n) stack matvec_rows(V, Qdot) and
    the (B, c) stack matvec_rows(L, Qdot)."""
    Qdot = np.asarray(Qdot, dtype=float)
    n = model.n_coords
    if Qdot.ndim != 2 or Qdot.shape[1] != n:
        raise ValueError(f"velocity stack has shape {Qdot.shape}, expected (B, {n})")
    return matvec_rows(model.velocity_map, Qdot), matvec_rows(model.impulse_map, Qdot)


def _signed_permutation(signed_map, n: int) -> tuple[int, ...]:
    """The map as integers, checked to be a signed permutation of n
    coordinates: each of 1 ... n once, up to sign."""
    entries = np.asarray(signed_map, dtype=float).reshape(-1)
    if not np.all(np.isfinite(entries) & (entries == np.round(entries))):
        raise ValueError(f"relabel map {entries.tolist()} has an entry that is not a finite integer")
    if entries.size != n:
        raise ValueError(f"relabel map has length {entries.size}, coordinates have {n}")
    out_of_range = (entries == 0) | (np.abs(entries) > n)
    if out_of_range.any():
        raise ValueError(f"relabel entry {int(entries[out_of_range][0])} out of range")
    if np.unique(np.abs(entries)).size < n:
        raise ValueError(
            f"relabel map {entries.astype(int).tolist()} repeats a coordinate; it must be a signed permutation"
        )
    return tuple(int(v) for v in entries)


def relabel(X, signed_map) -> np.ndarray:
    """Apply a signed permutation to each row of the (B, n) stack X:
    out[:, j] = sign(map[j]) * X[:, |map[j]| - 1].

    Any other shape raises ValueError.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"relabel takes a (B, n) stack, got shape {X.shape}")
    entries = np.array(_signed_permutation(signed_map, X.shape[1]))
    return np.sign(entries) * X[:, np.abs(entries) - 1]
