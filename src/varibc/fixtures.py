"""Small deterministic test structures shared by the property suites.

Fixtures are embedded as source data (inline node tables or packaged mesh
files) so that changes to the mesh generator cannot silently move test
baselines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from . import assembly, mesh as msh
from .design_field import DesignVector, ProjectionParams
from .material import MaterialParams
from .solver import InputControl

@dataclass
class Fixture:
    name: str
    mesh: msh.MeshModel
    design: DesignVector
    params: ProjectionParams
    material: MaterialParams
    u_in_norm: float
    steps: int
    output_springs: tuple = ()
    output_selector: tuple = ()      # (dof, weight) pairs for U_out
    expected: dict = field(default_factory=dict)

    def control(self):
        sample = msh.shape_values_at(self.mesh, self.design.load)
        return InputControl(sample=sample, theta=self.design.theta,
                            u_in_norm=self.u_in_norm)

    def build(self, A_f=None):
        """(fields, model) at the fixture design."""
        return assembly.build_model(
            self.mesh, self.design, self.params, self.material, A_f=A_f,
            output_springs=self.output_springs,
        )


def _one_triangle_spring():
    # single CST on rigid-ish ground springs, actuator inside the element
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    tris = np.array([[0, 1, 2]])
    mesh = msh.MeshModel(nodes, tris, thickness=0.01)
    params = ProjectionParams(r=0.45, r_min=0.1, beta=500.0)
    design = DesignVector(
        rho=np.array([1.0]), supports=np.array([[1.0 / 3.0, 1.0 / 3.0]]),
        load=np.array([0.3, 0.3]), theta=0.15,
    )
    return Fixture(
        name="one_triangle_spring", mesh=mesh, design=design, params=params,
        material=MaterialParams(nu=0.3), u_in_norm=1e-7, steps=1,
        expected={"support_k": params.G_s / params.t_s * 0.5},
    )


def _two_triangle_linear():
    # unit square of two elements, springs centered on the left edge
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    tris = np.array([[0, 1, 2], [0, 2, 3]])
    mesh = msh.MeshModel(nodes, tris, thickness=0.01)
    params = ProjectionParams(r=0.6, r_min=0.1, beta=500.0)
    design = DesignVector(
        rho=np.array([1.0, 1.0]), supports=np.array([[0.05, 0.5]]),
        load=np.array([0.7, 0.45]), theta=0.0,
    )
    return Fixture(
        name="two_triangle_linear", mesh=mesh, design=design, params=params,
        material=MaterialParams(nu=0.3), u_in_norm=1e-6, steps=1,
    )


# shallow two-bar arch with a pinned apex node. Slightly unequal bar widths
# and an off-center apex remove the symmetric buckling pitchfork, so the fine
# replay traces a smooth force peak and negative valley; the full working
# stroke still snaps through. Solved at 1.6x the stroke, a single nominal
# step diverges and needs bisection (frozen in expected["bisect_stroke"]).
_ARCH_RISE = 0.5
_ARCH_WIDTHS = (0.05, 0.04)
_ARCH_APEX_DX = 0.06
_ARCH_SEGMENTS = 8
_ARCH_STROKE = 0.62


def _toy_arch():
    H = _ARCH_RISE
    nodes = []
    tris = []

    def bar(p_start, p_end, w):
        p_start, p_end = np.array(p_start), np.array(p_end)
        axis = p_end - p_start
        length = float(np.hypot(*axis))
        normal = np.array([-axis[1], axis[0]]) / length * w
        base = len(nodes)
        for k in range(_ARCH_SEGMENTS + 1):
            p = p_start + axis * (k / _ARCH_SEGMENTS)
            nodes.extend([tuple(p), tuple(p + normal)])
        for k in range(_ARCH_SEGMENTS):
            a, b = base + 2 * k, base + 2 * k + 2
            c, d = base + 2 * k + 3, base + 2 * k + 1
            tris.append([a, b, c])
            tris.append([a, c, d])

    apex = (1.0 + _ARCH_APEX_DX, H)
    bar((0.0, 0.0), apex, _ARCH_WIDTHS[0])
    bar((2.0, 0.0), apex, _ARCH_WIDTHS[1])
    pts = np.array(nodes, dtype=float)
    uniq, inverse = np.unique(pts.round(12), axis=0, return_inverse=True)
    tris = inverse[np.array(tris)]
    p0, p1, p2 = uniq[tris[:, 0]], uniq[tris[:, 1]], uniq[tris[:, 2]]
    signed = (p1[:, 0] - p0[:, 0]) * (p2[:, 1] - p0[:, 1]) - (
        p2[:, 0] - p0[:, 0]) * (p1[:, 1] - p0[:, 1])
    tris[signed < 0] = tris[signed < 0][:, ::-1]
    mesh = msh.MeshModel(uniq, tris, thickness=0.01)
    params = ProjectionParams(r=0.12, r_min=0.05, beta=500.0)
    design = DesignVector(
        rho=np.ones(len(mesh.designable)),
        supports=np.array([[0.0, 0.0], [2.0, 0.0]]),
        load=np.array(apex), theta=-np.pi / 2.0,
    )
    return Fixture(
        name="toy_arch", mesh=mesh, design=design, params=params,
        material=MaterialParams(nu=0.3), u_in_norm=_ARCH_STROKE, steps=8,
        expected={"bisect_stroke": 1.0},
    )


def _mini_gripper_geometry():
    out = np.array(
        [[0, 0], [0.1, 0], [0.1, 0.04], [0.08, 0.04], [0.08, 0.06],
         [0.1, 0.06], [0.1, 0.1], [0, 0.1]]
    )
    return msh.DomainGeometry(outline=out, target_h=0.011)


def _mini_gripper_mesh_from_recipe():
    return msh.generate_mesh(_mini_gripper_geometry(), thickness=0.01)


def _mini_gripper_100():
    try:
        ref = resources.files("varibc").joinpath(
            "fixtures_data/mini_gripper_100.mesh")
        with ref.open("r") as f:
            mesh = msh.read_mesh(f, thickness=0.01)
    except FileNotFoundError:
        mesh = _mini_gripper_mesh_from_recipe()
    params = ProjectionParams(r=0.012, r_min=0.012, beta=500.0)
    rng = np.random.default_rng(20240817)
    rho = rng.uniform(0.35, 0.65, size=len(mesh.designable))
    # generic, non-symmetric BC placement; actuator interior to an element
    design = DesignVector(
        rho=rho,
        supports=np.array([[0.021, 0.083], [0.017, 0.024]]),
        load=np.array([0.0137, 0.0562]), theta=0.21,
    )
    out_hi = msh.nearest_node(mesh, (0.1, 0.06))
    out_lo = msh.nearest_node(mesh, (0.1, 0.04))
    k_out = 300.0
    fx = Fixture(
        name="mini_gripper_100", mesh=mesh, design=design, params=params,
        material=MaterialParams(nu=0.49), u_in_norm=0.005, steps=2,
        output_springs=((2 * out_hi + 1, k_out), (2 * out_lo + 1, k_out)),
        output_selector=((2 * out_lo + 1, 1.0), (2 * out_hi + 1, -1.0)),
    )
    fx.expected["mesh_recipe"] = _mini_gripper_mesh_from_recipe
    return fx


_BUILDERS = {
    "one_triangle_spring": _one_triangle_spring,
    "two_triangle_linear": _two_triangle_linear,
    "toy_arch": _toy_arch,
    "mini_gripper_100": _mini_gripper_100,
}
FIXTURE_NAMES = tuple(_BUILDERS)


def load_fixture(name):
    """Load a named fixture; raises KeyError for unknown names."""
    if name not in _BUILDERS:
        raise KeyError(
            f"unknown fixture {name!r}; known: {', '.join(FIXTURE_NAMES)}")
    return _BUILDERS[name]()
