"""Test-side helpers over the package's private solvers and fixtures."""

from dataclasses import fields, replace

from hybrid_orbit.numerics import _dare, _lq_problem
from hybrid_orbit.paper import PaperFixture


def dare(a, b, q, r):
    """The stabilizing Riccati solution P that dlqr_gains computes its gain from."""
    p, _, _, (error,) = _dare(*(m[None] for m in _lq_problem(a, b, q, r)))
    if error is not None:
        raise error
    return p[0]


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
