"""Rigid impact solve and coordinate relabeling."""

import numpy as np
import pytest

from hybrid_orbit.impacts import ImpactModel, apply_reset, relabel, rigid_impact


def random_model(rng, n=None, c=None):
    n = n or int(rng.integers(2, 8))
    c = c if c is not None else int(rng.integers(1, n))
    base = rng.normal(size=(n, n))
    inertia = base @ base.T + n * np.eye(n)
    while True:
        contact = rng.normal(size=(c, n))
        if np.linalg.matrix_rank(contact) == c:
            return ImpactModel(inertia=inertia, contact_jacobian=contact)


def schur_elimination(model, qdot):
    # oracle: eliminate the impulse analytically
    d_inv = np.linalg.inv(model.inertia)
    e = model.contact_jacobian
    gram = e @ d_inv @ e.T
    projector = np.eye(model.n_coords) - d_inv @ e.T @ np.linalg.solve(gram, e)
    return projector @ qdot


def test_no_constraint_passthrough():
    model = ImpactModel(inertia=2.0 * np.eye(3), contact_jacobian=np.zeros((0, 3)))
    qdot_plus, impulse = rigid_impact(model, np.array([1.0, -2.0, 3.0]))
    assert np.array_equal(qdot_plus, [1.0, -2.0, 3.0])
    assert impulse.size == 0


def test_point_mass_ground_impact():
    mass = 2.5
    model = ImpactModel(inertia=mass * np.eye(2), contact_jacobian=np.array([[0.0, 1.0]]))
    qdot_plus, impulse = rigid_impact(model, np.array([1.3, -0.7]))
    assert np.allclose(qdot_plus, [1.3, 0.0], atol=1e-14)
    assert impulse[0] == pytest.approx(-mass * (-0.7))  # -m * v_z


def test_random_impacts_arrest_constraints_and_dissipate():
    rng = np.random.default_rng(97)
    for _ in range(100):
        model = random_model(rng)
        qdot_minus = rng.normal(size=model.n_coords)
        qdot_plus, impulse = rigid_impact(model, qdot_minus)
        assert np.max(np.abs(model.contact_jacobian @ qdot_plus)) < 1e-10
        energy_before = 0.5 * qdot_minus @ model.inertia @ qdot_minus
        energy_after = 0.5 * qdot_plus @ model.inertia @ qdot_plus
        assert energy_after <= energy_before + 1e-12
        assert impulse.shape == (model.n_constraints,)


def test_block_solve_agrees_with_schur_oracle():
    rng = np.random.default_rng(101)
    for _ in range(50):
        model = random_model(rng)
        qdot_minus = rng.normal(size=model.n_coords)
        qdot_plus, _ = rigid_impact(model, qdot_minus)
        assert np.max(np.abs(qdot_plus - schur_elimination(model, qdot_minus))) < 1e-9


def test_model_validation():
    with pytest.raises(ValueError, match="symmetric"):
        ImpactModel(inertia=np.array([[1.0, 0.2], [0.0, 1.0]]), contact_jacobian=np.zeros((0, 2)))
    with pytest.raises(ValueError, match="positive definite"):
        ImpactModel(inertia=-np.eye(2), contact_jacobian=np.zeros((0, 2)))
    with pytest.raises(ValueError, match="row rank"):
        ImpactModel(inertia=np.eye(3), contact_jacobian=np.array([[1.0, 0, 0], [1.0, 0, 0]]))
    with pytest.raises(ValueError, match="shape"):
        ImpactModel(inertia=np.eye(3), contact_jacobian=np.zeros((1, 2)))


def test_relabel_identity_and_signs():
    v = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(relabel(v, [1, 2, 3]), v)
    assert np.array_equal(relabel(v, [-1, 2, -3]), [-1.0, 2.0, -3.0])


def test_leg_swap_is_involution():
    # swap the last six of eight coordinates end for end, twice
    swap = [1, 2, 8, 7, 6, 5, 4, 3]
    v = np.arange(1.0, 9.0)
    once = relabel(v, swap)
    assert np.array_equal(once, [1, 2, 8, 7, 6, 5, 4, 3])
    assert np.array_equal(relabel(once, swap), v)


def test_relabel_validation():
    with pytest.raises(ValueError, match="length"):
        relabel(np.ones(3), [1, 2])
    with pytest.raises(ValueError, match="range"):
        relabel(np.ones(2), [1, 3])
    with pytest.raises(ValueError, match="range"):
        relabel(np.ones(2), [0, 1])
    for shape in ((1, 3), (3, 1)):
        with pytest.raises(ValueError, match="vector"):
            relabel(np.ones(shape), [1, 2, 3])


def test_relabel_rejects_a_repeated_coordinate():
    with pytest.raises(ValueError, match="signed permutation"):
        relabel([1.0, 2.0, 3.0], [1, 1, 2])
    with pytest.raises(ValueError, match="signed permutation"):
        relabel([1.0, 2.0], [-2, 2])


def test_model_rejects_a_relabel_map_that_is_no_signed_permutation():
    for bad, match in (((1, 1, 9), "range"), ((1, 2), "length"), ((3, -1, 1), "signed permutation")):
        with pytest.raises(ValueError, match=match):
            ImpactModel(np.eye(3), np.zeros((0, 3)), relabel_map=bad)


def test_apply_reset_combines_impact_and_relabel():
    model = ImpactModel(
        inertia=np.eye(2),
        contact_jacobian=np.array([[0.0, 1.0]]),
        relabel_map=(2, 1),
    )
    q_plus, qdot_plus = apply_reset(model, np.array([0.5, -0.5]), np.array([2.0, -1.0]))
    assert np.array_equal(q_plus, [-0.5, 0.5])       # positions only relabel
    assert np.allclose(qdot_plus, [0.0, 2.0])        # impact then relabel
