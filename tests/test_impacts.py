"""Rigid impact solve and coordinate relabeling, on (B, n) stacks."""

import numpy as np
import pytest

from hybrid_orbit.impacts import ImpactModel, relabel, rigid_impact


def random_model(rng, n=None, c=None, relabel_map=None):
    n = n or int(rng.integers(2, 8))
    c = c if c is not None else int(rng.integers(1, n))
    base = rng.normal(size=(n, n))
    inertia = base @ base.T + n * np.eye(n)
    while True:
        contact = rng.normal(size=(c, n))
        if np.linalg.matrix_rank(contact) == c:
            return ImpactModel(inertia=inertia, contact_jacobian=contact, relabel_map=relabel_map)


def schur_elimination(model, qdot):
    # oracle: eliminate the impulse analytically
    d_inv = np.linalg.inv(model.inertia)
    e = model.contact_jacobian
    gram = e @ d_inv @ e.T
    projector = np.eye(model.n_coords) - d_inv @ e.T @ np.linalg.solve(gram, e)
    return projector @ qdot


def impact_reset(model, X):
    # the reset of a stack of states (q, qdot): positions relabel only,
    # velocities impact then relabel
    n = model.n_coords
    return np.hstack([
        relabel(X[:, :n], model.relabel_map),
        relabel(rigid_impact(model, X[:, n:])[0], model.relabel_map),
    ])


def test_no_constraint_passthrough():
    model = ImpactModel(inertia=2.0 * np.eye(3), contact_jacobian=np.zeros((0, 3)))
    qdot_plus, impulse = rigid_impact(model, np.array([[1.0, -2.0, 3.0]]))
    assert np.array_equal(qdot_plus, [[1.0, -2.0, 3.0]])
    assert impulse.shape == (1, 0)


def test_point_mass_ground_impact():
    mass = 2.5
    model = ImpactModel(inertia=mass * np.eye(2), contact_jacobian=np.array([[0.0, 1.0]]))
    qdot_plus, impulse = rigid_impact(model, np.array([[1.3, -0.7]]))
    assert np.allclose(qdot_plus, [[1.3, 0.0]], atol=1e-14)
    assert impulse[0, 0] == pytest.approx(-mass * (-0.7))  # -m * v_z


def test_random_impacts_arrest_constraints_and_dissipate():
    rng = np.random.default_rng(97)
    for _ in range(100):
        model = random_model(rng)
        qdot_minus = rng.normal(size=(1, model.n_coords))
        qdot_plus, impulse = rigid_impact(model, qdot_minus)
        assert np.max(np.abs(model.contact_jacobian @ qdot_plus[0])) < 1e-10
        energy_before = 0.5 * qdot_minus[0] @ model.inertia @ qdot_minus[0]
        energy_after = 0.5 * qdot_plus[0] @ model.inertia @ qdot_plus[0]
        assert energy_after <= energy_before + 1e-12
        assert impulse.shape == (1, model.n_constraints)


def test_block_solve_agrees_with_schur_oracle():
    rng = np.random.default_rng(101)
    for _ in range(50):
        model = random_model(rng)
        qdot_minus = rng.normal(size=(1, model.n_coords))
        qdot_plus, _ = rigid_impact(model, qdot_minus)
        assert np.max(np.abs(qdot_plus[0] - schur_elimination(model, qdot_minus[0]))) < 1e-9


def test_model_validation():
    with pytest.raises(ValueError, match="symmetric"):
        ImpactModel(inertia=np.array([[1.0, 0.2], [0.0, 1.0]]), contact_jacobian=np.zeros((0, 2)))
    with pytest.raises(ValueError, match="positive definite"):
        ImpactModel(inertia=-np.eye(2), contact_jacobian=np.zeros((0, 2)))
    with pytest.raises(ValueError, match="row rank"):
        ImpactModel(inertia=np.eye(3), contact_jacobian=np.array([[1.0, 0, 0], [1.0, 0, 0]]))
    with pytest.raises(ValueError, match="shape"):
        ImpactModel(inertia=np.eye(3), contact_jacobian=np.zeros((1, 2)))
    # symmetric up to 1.5e-16 relative: the symmetry bound scales with |D|
    heavy = 1e7 * np.array([[2.0, 0.3], [0.3, 1.0]])
    heavy[0, 1] += 3e-9
    model = ImpactModel(inertia=heavy, contact_jacobian=np.zeros((0, 2)))
    assert np.array_equal(model.inertia, model.inertia.T)
    for bad in (np.ones(2), np.ones((1, 3)), np.ones((1, 1, 2))):
        with pytest.raises(ValueError, match="velocity stack has shape"):
            rigid_impact(model, bad)


def test_relabel_identity_and_signs():
    v = np.array([[1.0, 2.0, 3.0]])
    assert np.array_equal(relabel(v, [1, 2, 3]), v)
    assert np.array_equal(relabel(v, [-1, 2, -3]), [[-1.0, 2.0, -3.0]])


def test_leg_swap_is_involution():
    # swap the last six of eight coordinates end for end, twice
    swap = [1, 2, 8, 7, 6, 5, 4, 3]
    v = np.arange(1.0, 9.0)[None]
    once = relabel(v, swap)
    assert np.array_equal(once, [[1, 2, 8, 7, 6, 5, 4, 3]])
    assert np.array_equal(relabel(once, swap), v)


def test_relabel_validation():
    with pytest.raises(ValueError, match="length"):
        relabel(np.ones((1, 3)), [1, 2])
    with pytest.raises(ValueError, match="range"):
        relabel(np.ones((1, 2)), [1, 3])
    with pytest.raises(ValueError, match="range"):
        relabel(np.ones((1, 2)), [0, 1])
    for bad in ([1.7, 2.2], [np.inf, 1], [np.nan, 1], [2.9, 1.0]):
        with pytest.raises(ValueError, match="not a finite integer"):
            relabel(np.ones((1, 2)), bad)
    for shape in ((3,), (1, 1, 3)):
        with pytest.raises(ValueError, match="stack"):
            relabel(np.ones(shape), [1, 2, 3])


def test_relabel_rejects_a_repeated_coordinate():
    with pytest.raises(ValueError, match="signed permutation"):
        relabel([[1.0, 2.0, 3.0]], [1, 1, 2])
    with pytest.raises(ValueError, match="signed permutation"):
        relabel([[1.0, 2.0]], [-2, 2])


def test_model_rejects_a_relabel_map_that_is_no_signed_permutation():
    for bad, match in (
        ((1, 1, 9), "range"),
        ((1, 2), "length"),
        ((3, -1, 1), "signed permutation"),
        ((2.9, 1.0, 3.0), "not a finite integer"),
        ((np.inf, 1, 2), "not a finite integer"),
    ):
        with pytest.raises(ValueError, match=match):
            ImpactModel(np.eye(3), np.zeros((0, 3)), relabel_map=bad)


def test_stacked_reset_combines_impact_and_relabel():
    model = ImpactModel(
        inertia=np.eye(2),
        contact_jacobian=np.array([[0.0, 1.0]]),
        relabel_map=(2, 1),
    )
    x_plus = impact_reset(model, np.array([[0.5, -0.5, 2.0, -1.0]]))
    q_plus, qdot_plus = x_plus[0, :2], x_plus[0, 2:]
    assert np.array_equal(q_plus, [-0.5, 0.5])       # positions only relabel
    assert np.allclose(qdot_plus, [0.0, 2.0])        # impact then relabel

    # section_step resets a whole batch at once: each row of the stacked
    # reset must be its one-row stack's, bit for bit
    rng = np.random.default_rng(103)
    for _ in range(300):
        n = int(rng.integers(2, 8))
        signed_map = (rng.permutation(n) + 1) * rng.choice([-1, 1], size=n)
        model = random_model(rng, n=n, c=int(rng.integers(0, n)), relabel_map=signed_map)
        for size in (1, 2, 11, 25):
            X = rng.normal(size=(size, 2 * n))
            stacked = impact_reset(model, X)
            assert stacked.shape == (size, 2 * n)
            for b in range(size):
                assert np.array_equal(stacked[b], impact_reset(model, X[b][None])[0])
