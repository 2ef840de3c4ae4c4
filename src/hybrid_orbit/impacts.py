"""Rigid (plastic) impact resets from user-supplied matrices.

The post-impact velocities and contact impulse come from one dense solve
of the block system

    [ D  -E' ] [ qdot_plus ]   [ D qdot_minus ]
    [ E   0  ] [ impulse   ] = [      0       ]

so the constrained directions are arrested exactly.  Positions pass
through an impact unchanged; a signed coordinate permutation handles the
support/swing relabeling that follows.
"""

from dataclasses import dataclass

import numpy as np

from .numerics import as_matrix

__all__ = [
    "ImpactModel",
    "rigid_impact",
    "relabel",
    "apply_reset",
]


@dataclass(frozen=True)
class ImpactModel:
    """Extended inertia matrix, contact Jacobian and relabeling map.

    relabel_map uses signed 1-based indices: entry j holding +-(s+1) means
    output coordinate j is +-coords[s].  It must be a signed permutation
    of the n_coords coordinates, and is checked when the model is built.
    """

    inertia: np.ndarray
    contact_jacobian: np.ndarray
    relabel_map: tuple[int, ...] | None = None

    def __post_init__(self):
        d = as_matrix(self.inertia)
        object.__setattr__(self, "inertia", d)
        if d.shape[0] != d.shape[1]:
            raise ValueError("inertia matrix must be square")
        if np.max(np.abs(d - d.T)) > 1e-10:
            raise ValueError("inertia matrix must be symmetric")
        if np.linalg.eigvalsh(d)[0] <= 0.0:
            raise ValueError("inertia matrix must be positive definite")

        e = np.asarray(self.contact_jacobian, dtype=float)
        if e.ndim != 2 or e.shape[1] != d.shape[0]:
            raise ValueError(
                f"contact Jacobian has shape {e.shape}, expected (c, {d.shape[0]})"
            )
        if e.shape[0] > 0:
            if not np.all(np.isfinite(e)):
                raise ValueError("contact Jacobian contains non-finite entries")
            if np.linalg.matrix_rank(e) < e.shape[0]:
                raise ValueError("contact Jacobian must have full row rank")
        object.__setattr__(self, "contact_jacobian", e)
        if self.relabel_map is not None:
            object.__setattr__(self, "relabel_map", _signed_permutation(self.relabel_map, d.shape[0]))

    @property
    def n_coords(self) -> int:
        return self.inertia.shape[0]

    @property
    def n_constraints(self) -> int:
        return self.contact_jacobian.shape[0]


def rigid_impact(model: ImpactModel, qdot_minus) -> tuple[np.ndarray, np.ndarray]:
    """Post-impact velocities and contact impulse from the block solve.

    With no constraints the velocities pass through unchanged.  A singular
    block system (which full row rank of E and positive definite D rule
    out) is reported explicitly.
    """
    qdot_minus = np.asarray(qdot_minus, dtype=float)
    n = model.n_coords
    c = model.n_constraints
    if qdot_minus.shape != (n,):
        raise ValueError(f"velocity has shape {qdot_minus.shape}, expected ({n},)")
    if c == 0:
        return qdot_minus.copy(), np.zeros(0)

    d = model.inertia
    e = model.contact_jacobian
    block = np.zeros((n + c, n + c))
    block[:n, :n] = d
    block[:n, n:] = -e.T
    block[n:, :n] = e
    rhs = np.concatenate([d @ qdot_minus, np.zeros(c)])
    try:
        solution = np.linalg.solve(block, rhs)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"singular impact block system: {exc}") from exc
    return solution[:n], solution[n:]


def _signed_permutation(signed_map, n: int) -> tuple[int, ...]:
    """The map as integers, checked to be a signed permutation of n
    coordinates: each of 1 ... n once, up to sign."""
    signed_map = tuple(int(v) for v in signed_map)
    if len(signed_map) != n:
        raise ValueError(f"relabel map has length {len(signed_map)}, coordinates have {n}")
    for entry in signed_map:
        if entry == 0 or abs(entry) > n:
            raise ValueError(f"relabel entry {entry} out of range")
    if len({abs(entry) for entry in signed_map}) < n:
        raise ValueError(
            f"relabel map {list(signed_map)} repeats a coordinate; it must be a signed permutation"
        )
    return signed_map


def relabel(coords, signed_map) -> np.ndarray:
    """Apply a signed permutation: out[j] = sign(map[j]) * coords[|map[j]| - 1]."""
    coords = np.asarray(coords, dtype=float)
    out = np.empty_like(coords)
    for j, entry in enumerate(_signed_permutation(signed_map, coords.size)):
        out[j] = np.sign(entry) * coords[abs(entry) - 1]
    return out


def apply_reset(model: ImpactModel, q_minus, qdot_minus) -> tuple[np.ndarray, np.ndarray]:
    """Full impact reset: positions relabel only, velocities impact then relabel."""
    qdot_plus, _ = rigid_impact(model, qdot_minus)
    if model.relabel_map is None:
        return np.asarray(q_minus, dtype=float).copy(), qdot_plus
    return relabel(q_minus, model.relabel_map), relabel(qdot_plus, model.relabel_map)
