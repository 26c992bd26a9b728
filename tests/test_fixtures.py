import numpy as np
import pytest

from varibc import fixtures as fx


def test_all_names_load():
    for name in fx.FIXTURE_NAMES:
        f = fx.load_fixture(name)
        assert f.name == name
        assert f.mesh.num_elements > 0
        assert len(f.design.rho) == len(f.mesh.designable)


def test_unknown_name():
    with pytest.raises(KeyError):
        fx.load_fixture("nonexistent")


def test_one_triangle_expected_support_constant():
    f = fx.load_fixture("one_triangle_spring")
    fields, model = f.build()
    # support point sits on the centroid: full shear-equivalent stiffness
    assert abs(fields.k_s[0] - f.expected["support_k"]) \
        <= 1e-9 * f.expected["support_k"]


def test_fixtures_recompute_identically():
    for name in fx.FIXTURE_NAMES:
        f, g = fx.load_fixture(name), fx.load_fixture(name)
        assert np.array_equal(f.mesh.triangles, g.mesh.triangles)
        assert np.allclose(f.mesh.nodes, g.mesh.nodes, rtol=0, atol=0)
        assert np.array_equal(f.design.rho, g.design.rho)
        assert g.u_in_norm == f.u_in_norm


def test_mini_gripper_matches_generation_recipe():
    f = fx.load_fixture("mini_gripper_100")
    regenerated = f.expected["mesh_recipe"]()
    assert regenerated.num_elements == f.mesh.num_elements
    assert np.allclose(regenerated.nodes, f.mesh.nodes, atol=1e-15)
    assert np.array_equal(regenerated.triangles, f.mesh.triangles)


def test_mini_gripper_is_generic():
    # gradient tests need non-symmetric BC placement and an interior actuator
    f = fx.load_fixture("mini_gripper_100")
    assert not np.allclose(f.design.supports[0], f.design.supports[1])
    assert f.design.theta != 0.0
    from varibc.mesh import locate_point
    e, lam = locate_point(f.mesh, f.design.load)
    assert lam.min() > 1e-3  # strictly inside an element
