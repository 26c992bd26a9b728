"""Measurable quantities and the four mechanism-synthesis problem families.

Quantities implement the QuantitySpec interface so the adjoint engine can
differentiate them; problem specs bundle the domain, non-design layout,
output attachments, load cases, constraint schedule, bounds, and move limits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import mesh as msh
from .adjoint import QuantitySpec
from .design_field import DesignVector, ProjectionParams
from .material import MaterialParams


class UOut(QuantitySpec):
    """Selector-weighted output displacement L^T U."""

    def __init__(self, selector, step, load_case=0, name=None):
        super().__init__(name or f"u_out[{step}]", step, load_case)
        self.dofs = np.array([d for d, _ in selector], dtype=np.int64)
        self.weights = np.array([w for _, w in selector], dtype=float)

    def evaluate(self, ctx):
        return float(self.weights @ ctx.U[self.dofs])

    def dfdU(self, ctx):
        out = np.zeros(ctx.mesh.num_dofs)
        out[self.dofs] = self.weights
        return out


class FIn(QuantitySpec):
    """Actuator force along the input direction.

    The rotation form lam_x cos(theta) + lam_y sin(theta) is used everywhere;
    it agrees with the magnitude-times-angle form wherever the latter is
    defined and has no singularity at lam_y = 0.
    """

    def __init__(self, step, load_case=0, name=None):
        super().__init__(name or f"f_in[{step},{load_case}]", step, load_case)

    def evaluate(self, ctx):
        th = ctx.control.theta
        return float(ctx.lam @ [np.cos(th), np.sin(th)])

    def dfdlam(self, ctx):
        th = ctx.control.theta
        return np.array([np.cos(th), np.sin(th)])

    def dfdzeta(self, ctx):
        th = ctx.control.theta
        out = np.zeros(ctx.n_zeta)
        out[-1] = -ctx.lam[0] * np.sin(th) + ctx.lam[1] * np.cos(th)
        return out


class FP(QuantitySpec):
    """Guide reaction force perpendicular to the input direction."""

    def __init__(self, step, load_case=0, name=None):
        super().__init__(name or f"f_p[{step},{load_case}]", step, load_case)

    def evaluate(self, ctx):
        th = ctx.control.theta
        return float(ctx.lam @ [-np.sin(th), np.cos(th)])

    def dfdlam(self, ctx):
        th = ctx.control.theta
        return np.array([-np.sin(th), np.cos(th)])

    def dfdzeta(self, ctx):
        th = ctx.control.theta
        out = np.zeros(ctx.n_zeta)
        out[-1] = -ctx.lam[0] * np.cos(th) - ctx.lam[1] * np.sin(th)
        return out


class VolumeFraction(QuantitySpec):
    """Material volume fraction of the physical densities."""

    def __init__(self, step=1, load_case=0):
        super().__init__("v_f", step, load_case)

    def evaluate(self, ctx):
        mesh = ctx.mesh
        return float(np.sum(ctx.fields.rho_bar * mesh.volumes)
                     / np.sum(mesh.volumes))

    def dfdzeta(self, ctx):
        mesh = ctx.mesh
        fields = ctx.fields
        w = mesh.volumes / np.sum(mesh.volumes)
        out = np.zeros(ctx.n_zeta)
        n_rho = len(ctx.design.rho)
        out[:n_rho] = fields.rho_bar_jacobian_rho().T @ w
        pts = np.einsum("n,nkc->kc", w, fields.rho_bar_partials_points())
        n_s = ctx.design.num_supports
        out[n_rho:n_rho + n_s] = pts[:n_s, 0]
        out[n_rho + n_s:n_rho + 2 * n_s] = pts[:n_s, 1]
        out[n_rho + 2 * n_s:n_rho + 2 * n_s + 2] = pts[n_s]
        return out


class OutputOffsetSq(QuantitySpec):
    """Squared distance of the deformed output point from a target point."""

    def __init__(self, node, target, step, load_case, name=None):
        super().__init__(name or f"offset_sq[{step},{load_case}]", step,
                         load_case)
        self.node = int(node)
        self.target = np.asarray(target, dtype=float)

    def _offset(self, ctx):
        pos = ctx.mesh.nodes[self.node] + ctx.U[[2 * self.node,
                                                 2 * self.node + 1]]
        return pos - self.target

    def evaluate(self, ctx):
        d = self._offset(ctx)
        return float(d @ d)

    def dfdU(self, ctx):
        d = self._offset(ctx)
        out = np.zeros(ctx.mesh.num_dofs)
        out[2 * self.node] = 2.0 * d[0]
        out[2 * self.node + 1] = 2.0 * d[1]
        return out


def f_in(lam_x, lam_y, theta):
    """Force along the input direction (rotation form of the decomposition)."""
    return lam_x * np.cos(theta) + lam_y * np.sin(theta)


def f_p(lam_x, lam_y, theta):
    """Force perpendicular to the input direction."""
    return -lam_x * np.sin(theta) + lam_y * np.cos(theta)


@dataclass
class Constraint:
    """Scaled inequality g <= 0 built from one quantity.

    direction "upper" means quantity < bound, "lower" means quantity > bound;
    scale normalizes the constraint for the optimizer.
    """

    quantity: QuantitySpec
    bound: float
    direction: str
    scale: float

    def g(self, value):
        if self.direction == "upper":
            return (value - self.bound) / self.scale
        return (self.bound - value) / self.scale

    def dg(self, grad):
        return grad / self.scale if self.direction == "upper" else -grad / self.scale

    @property
    def name(self):
        cmp = "<" if self.direction == "upper" else ">"
        return f"{self.quantity.name} {cmp} {self.bound:g}"


@dataclass
class LoadCase:
    name: str
    counter_node: int | None = None
    counter_vector: tuple = (0.0, 0.0)

    def force_vector(self, mesh):
        F = np.zeros(mesh.num_dofs)
        if self.counter_node is not None:
            F[2 * self.counter_node] = self.counter_vector[0]
            F[2 * self.counter_node + 1] = self.counter_vector[1]
        return F


@dataclass
class ProblemSpec:
    """Everything the optimizer needs to run one mechanism synthesis."""

    name: str
    mesh: msh.MeshModel
    params: ProjectionParams
    material: MaterialParams
    design0: DesignVector
    u_in_norm: float
    steps: int
    objective_terms: list          # [(weight, QuantitySpec)]
    objective_sense: str           # "min" | "max"
    objective_scale: float
    constraints: list
    load_cases: list = field(default_factory=lambda: [LoadCase("nominal")])
    output_springs: tuple = ()
    output_selector: tuple = ()
    output_node: int | None = None
    precision_points: np.ndarray | None = None
    lower: np.ndarray = None       # zeta bounds, natural units
    upper: np.ndarray = None
    move_limits: np.ndarray = None
    clamp_actuator: bool = True

    def __post_init__(self):
        if len(self.design0.rho) != len(self.mesh.designable):
            raise ValueError("initial densities do not match designable count")
        n = self.design0.size
        for arr in (self.lower, self.upper, self.move_limits):
            if arr is None or len(arr) != n:
                raise ValueError("bounds and move limits must cover zeta")
        if not np.all(self.lower <= self.upper):
            raise ValueError("lower bounds exceed upper bounds")
        if self.precision_points is not None:
            self.precision_points = np.asarray(self.precision_points, float)

    @property
    def frozen(self):
        return self.lower == self.upper

    def quantities(self):
        qs = [q for _, q in self.objective_terms]
        qs += [c.quantity for c in self.constraints]
        return qs


def _zeta_arrays(n_rho, n_sup, rho_bounds, sup_boxes, load_box, theta_box,
                 rho_move, coord_move, theta_move):
    lower = np.concatenate([
        np.full(n_rho, rho_bounds[0]),
        [b[0][0] for b in sup_boxes], [b[1][0] for b in sup_boxes],
        [load_box[0][0], load_box[1][0]], [theta_box[0]],
    ])
    upper = np.concatenate([
        np.full(n_rho, rho_bounds[1]),
        [b[0][1] for b in sup_boxes], [b[1][1] for b in sup_boxes],
        [load_box[0][1], load_box[1][1]], [theta_box[1]],
    ])
    move = np.concatenate([
        np.full(n_rho, rho_move),
        np.full(2 * n_sup, coord_move), [coord_move, coord_move],
        [theta_move],
    ])
    return lower, upper, move


def _freeze_bc(lower, upper, design, n_rho, which="all"):
    z = design.to_array()
    if which == "all":
        lower[n_rho:] = z[n_rho:]
        upper[n_rho:] = z[n_rho:]
    else:
        for j in which:
            lower[n_rho + j] = z[n_rho + j]
            upper[n_rho + j] = z[n_rho + j]
    return lower, upper


def _clamp_into(point, box):
    return np.array([np.clip(point[0], box[0][0], box[0][1]),
                     np.clip(point[1], box[1][0], box[1][1])])


def _params(defaults, override):
    merged = dict(defaults)
    merged.update({k: v for k, v in (override or {}).items()
                   if v is not None})
    return ProjectionParams(**merged)


def gripper_geometry(h=1.5e-3, jaw_band=5e-3):
    """10 x 10 cm square with a 2 x 2 cm bite at mid right edge; solid bands
    along the jaw faces keep the gripping surfaces present."""
    out = np.array(
        [[0, 0], [0.1, 0], [0.1, 0.04], [0.08, 0.04], [0.08, 0.06],
         [0.1, 0.06], [0.1, 0.1], [0, 0.1]]
    )
    upper = np.array([[0.08, 0.06], [0.1, 0.06], [0.1, 0.06 + jaw_band],
                      [0.08, 0.06 + jaw_band]])
    lower = np.array([[0.08, 0.04 - jaw_band], [0.1, 0.04 - jaw_band],
                      [0.1, 0.04], [0.08, 0.04]])
    regions = [(upper, msh.SOLID_NONDESIGN), (lower, msh.SOLID_NONDESIGN)]
    return msh.DomainGeometry(outline=out, target_h=h,
                              nondesign_regions=regions)


def make_gripper(fixed_bcs=False, element_size=None, mesh=None,
                 max_steps=None, u_in=None, k_out=None, thickness=None,
                 params_override=None):
    """Displacement-maximizing jaw gripper."""
    thickness = 0.01 if thickness is None else thickness
    if mesh is None:
        h = 1.5e-3 if element_size is None else element_size
        mesh = msh.generate_mesh(gripper_geometry(h=h), thickness=thickness)
    params = _params(dict(r=2.5e-3, r_min=3e-3, beta=500.0, t_s=thickness),
                     params_override)
    material = MaterialParams(nu=params.nu)
    u_in = 5e-3 if u_in is None else u_in
    k_out = 300.0 if k_out is None else k_out
    M = 4 if max_steps is None else max_steps
    supports = np.array([[0.0, 0.1], [0.0, 0.0]])
    load = np.array([0.0, 0.05])
    box = ((params.r, 0.1 - params.r), (params.r, 0.1 - params.r))
    if not fixed_bcs:
        supports = np.array([_clamp_into(p, box) for p in supports])
        load = _clamp_into(load, box)
    n_rho = len(mesh.designable)
    design0 = DesignVector(rho=np.full(n_rho, 0.3), supports=supports,
                           load=load, theta=0.0)
    out_hi = msh.nearest_node(mesh, (0.1, 0.06))
    out_lo = msh.nearest_node(mesh, (0.1, 0.04))
    selector = ((2 * out_lo + 1, 1.0), (2 * out_hi + 1, -1.0))
    springs = ((2 * out_hi + 1, k_out), (2 * out_lo + 1, k_out))
    constraints = [Constraint(VolumeFraction(step=M), 0.3, "upper", 0.3)]
    for m in range(1, M + 1):
        cap_in = 30.0 * m / M
        cap_p = 7.5 * m / M
        constraints += [
            Constraint(FIn(step=m), cap_in, "upper", cap_in),
            Constraint(FP(step=m), cap_p, "upper", cap_p),
            Constraint(FP(step=m), -cap_p, "lower", cap_p),
        ]
    lower, upper, move = _zeta_arrays(
        n_rho, 2, (0.0, 1.0), [box, box], box, (-np.pi, np.pi),
        0.2, 2.5e-3, np.deg2rad(5.0))
    if fixed_bcs:
        lower, upper = _freeze_bc(lower, upper, design0, n_rho)
    return ProblemSpec(
        name="gripper", mesh=mesh, params=params, material=material,
        design0=design0, u_in_norm=u_in, steps=M,
        objective_terms=[(1.0, UOut(selector, step=M))],
        objective_sense="max", objective_scale=u_in,
        constraints=constraints, output_springs=springs,
        output_selector=selector, output_node=out_lo,
        lower=lower, upper=upper, move_limits=move,
    )


def make_bistable_airfoil(fixed_bcs=False, element_size=None, mesh=None,
                          max_steps=None, u_in=None, k_out=None,
                          thickness=None, params_override=None):
    """Snap-through aileron in a full NACA 0012 section, chord 20 cm."""
    chord = 0.2
    thickness = 0.01 if thickness is None else thickness
    if mesh is None:
        h = 1e-3 if element_size is None else element_size
        geo = msh.naca0012_outline(chord, element_size=h)
        mesh = msh.generate_mesh(geo, thickness=thickness)
    params = _params(dict(r=2e-3, r_min=4e-3, beta=2000.0, t_s=thickness),
                     params_override)
    material = MaterialParams(nu=params.nu)
    u_in = 2.5e-3 if u_in is None else u_in
    k_out = 100.0 if k_out is None else k_out
    M = 8 if max_steps is None else max_steps
    y_spar = msh.naca0012_halfthickness(0.3) * chord
    y_hinge = msh.naca0012_halfthickness(0.7) * chord
    supports = np.array([
        [0.06, y_spar], [0.06, -y_spar], [0.14, -y_hinge]])
    load = np.array([0.06, 0.0])
    n_rho = len(mesh.designable)
    design0 = DesignVector(rho=np.full(n_rho, 0.4), supports=supports,
                           load=load, theta=0.0)
    te = msh.nearest_node(mesh, (chord, 0.0))
    selector = ((2 * te + 1, -1.0),)   # downward positive
    springs = ((2 * te + 1, k_out),)
    margin = 0.03
    sup_box = ((-margin, chord + margin), (-0.024 - margin, 0.024 + margin))
    load_box = ((0.0, chord), (-0.024, 0.024))
    constraints = [
        Constraint(VolumeFraction(step=M), 0.4, "upper", 0.4),
        Constraint(UOut(selector, step=M), 5e-3, "lower", 5e-3),
        Constraint(FIn(step=1), 2.0, "lower", 2.0),
    ]
    for m in range(1, min(6, M) + 1):
        cap = 15.0 * np.sin(np.pi * m / 6.0) + 5.0
        constraints.append(Constraint(FIn(step=m), cap, "upper", cap))
    for m in range(1, M + 1):
        constraints += [
            Constraint(FP(step=m), 5.0, "upper", 5.0),
            Constraint(FP(step=m), -5.0, "lower", 5.0),
        ]
    lower, upper, move = _zeta_arrays(
        n_rho, 3, (0.0, 1.0), [sup_box] * 3, load_box, (-np.pi, np.pi),
        0.05, 0.5e-3, np.deg2rad(1.0))
    if fixed_bcs:
        lower, upper = _freeze_bc(lower, upper, design0, n_rho)
    return ProblemSpec(
        name="bistable_airfoil", mesh=mesh, params=params, material=material,
        design0=design0, u_in_norm=u_in, steps=M,
        objective_terms=[(1.0, FIn(step=M))],
        objective_sense="min", objective_scale=5.0,
        constraints=constraints, output_springs=springs,
        output_selector=selector, output_node=te,
        lower=lower, upper=upper, move_limits=move,
    )


def make_line_generator(fixed_bcs=False, element_size=None, mesh=None,
                        max_steps=None, u_in=None, k_out=None,
                        thickness=None, params_override=None):
    """Horizontal straight-line path generator in a 16 x 8 cm rectangle."""
    W, H = 0.16, 0.08
    thickness = 0.01 if thickness is None else thickness
    pad = np.array([[0.15, 0.07], [0.16, 0.07], [0.16, 0.08], [0.15, 0.08]])
    if mesh is None:
        h = 1.2e-3 if element_size is None else element_size
        geo = msh.rectangle_geometry(
            W, H, h, nondesign_regions=[(pad, msh.SOLID_NONDESIGN)])
        mesh = msh.generate_mesh(geo, thickness=thickness)
    params = _params(dict(r=3e-3, r_min=2.4e-3, beta=500.0, t_s=thickness),
                     params_override)
    material = MaterialParams(nu=params.nu)
    u_in = 0.01 if u_in is None else u_in
    M = 4 if max_steps is None else max_steps
    box = ((params.r, W - params.r), (params.r, H - params.r))
    supports = np.array([_clamp_into((0.03, 0.0), box),
                         _clamp_into((0.13, 0.0), box)])
    load = _clamp_into((0.08, 0.0), box)
    n_rho = len(mesh.designable)
    design0 = DesignVector(rho=np.full(n_rho, 0.2), supports=supports,
                           load=load, theta=np.pi / 2.0)
    out = msh.nearest_node(mesh, (W, H))
    f1 = f2 = 5.0
    cases = [LoadCase("free"),
             LoadCase("counter_x", out, (-f1, 0.0)),
             LoadCase("counter_y", out, (0.0, -f2))]
    x0, y0 = mesh.nodes[out]
    prec = np.array([[x0 + 0.02 * m / M, y0] for m in range(1, M + 1)])
    terms = []
    for i in range(len(cases)):
        for m in range(1, M + 1):
            terms.append((1.0, OutputOffsetSq(out, prec[m - 1], m, i)))
    scale = sum(w * np.sum((mesh.nodes[out] - q.target) ** 2)
                for w, q in terms)
    constraints = [Constraint(VolumeFraction(step=M), 0.2, "upper", 0.2)]
    for i in range(len(cases)):
        for m in range(1, M + 1):
            constraints += [
                Constraint(FIn(step=m, load_case=i), 20.0, "upper", 20.0),
                Constraint(FP(step=m, load_case=i), 5.0, "upper", 5.0),
                Constraint(FP(step=m, load_case=i), -5.0, "lower", 5.0),
            ]
    lower, upper, move = _zeta_arrays(
        n_rho, 2, (0.0, 1.0), [box, box], box, (-np.pi, np.pi),
        0.2, 3e-3, np.deg2rad(2.0))
    if fixed_bcs:
        lower, upper = _freeze_bc(lower, upper, design0, n_rho)
    return ProblemSpec(
        name="line_generator", mesh=mesh, params=params, material=material,
        design0=design0, u_in_norm=u_in, steps=M,
        objective_terms=terms, objective_sense="min", objective_scale=scale,
        constraints=constraints, load_cases=cases,
        output_node=out, precision_points=prec,
        lower=lower, upper=upper, move_limits=move,
    )


def _offset_strip(points, inward, d0, d1):
    """Polygon strip between two inward offsets of an open polyline."""
    pts = np.asarray(points, float)
    tang = np.gradient(pts, axis=0)
    tang /= np.linalg.norm(tang, axis=1)[:, None]
    normal = np.column_stack([-tang[:, 1], tang[:, 0]])
    # orient towards the requested inward direction
    flip = np.sign(normal @ np.asarray(inward, float))
    flip[flip == 0] = 1.0
    normal *= flip[:, None]
    inner = pts + normal * d1
    outer = pts + normal * d0
    return np.vstack([outer, inner[::-1]])


def wing_geometry(element_size=0.5e-3, chord=0.2, leading_fraction=0.3,
                  skin_t=1.5e-3, gap_t=1e-3, attach_r=5e-3,
                  skin_from_x=2e-3, void_from_x=8e-3):
    """Leading-edge morphing-wing domain with skin and separation bands.

    The solid skin band hugs the upper surface; a void band underneath keeps
    the internal mechanism separate from the skin except near the output
    point at the nose, where a solid disc forms the attachment.
    """
    geo = msh.naca0012_outline(chord, leading_fraction=leading_fraction,
                               element_size=element_size)
    x_max = leading_fraction * chord
    s = np.linspace(0.0, 1.0, 200) ** 1.5
    xs = skin_from_x + s * (x_max - skin_from_x)
    upper = np.column_stack(
        [xs, msh.naca0012_halfthickness(xs / chord) * chord])
    skin = _offset_strip(upper, (0.0, -1.0), -0.25 * skin_t, skin_t)
    xv = void_from_x + s * (x_max - void_from_x)
    upper_v = np.column_stack(
        [xv, msh.naca0012_halfthickness(xv / chord) * chord])
    void = _offset_strip(upper_v, (0.0, -1.0), skin_t, skin_t + gap_t)
    ang = np.linspace(0, 2 * np.pi, 24, endpoint=False)
    disc = attach_r * np.column_stack([np.cos(ang), np.sin(ang)])
    regions = [(skin, msh.SOLID_NONDESIGN), (void, msh.VOID_NONDESIGN),
               (disc, msh.SOLID_NONDESIGN)]
    return msh.DomainGeometry(outline=geo.outline, target_h=element_size,
                              nondesign_regions=regions)


def make_morphing_wing(fixed_bcs=False, element_size=None, mesh=None,
                       max_steps=None, u_in=None, k_out=None, thickness=None,
                       params_override=None, skin_support=(0.06, 0.014)):
    """Droop-nose morphing wing: single precision point, two counter cases."""
    chord, frac = 0.2, 0.3
    thickness = 0.01 if thickness is None else thickness
    if mesh is None:
        h = 0.5e-3 if element_size is None else element_size
        mesh = msh.generate_mesh(
            wing_geometry(element_size=h, chord=chord, leading_fraction=frac),
            thickness=thickness)
    params = _params(dict(r=2e-3, r_min=1e-3, beta=500.0, t_s=thickness),
                     params_override)
    material = MaterialParams(nu=params.nu)
    u_in = 2e-3 if u_in is None else u_in
    M = 4 if max_steps is None else max_steps
    supports = np.array([[0.045, 0.006], [0.045, -0.006],
                         list(skin_support)])
    load = np.array([0.03, -0.008])
    n_rho = len(mesh.designable)
    design0 = DesignVector(rho=np.full(n_rho, 0.3), supports=supports,
                           load=load, theta=0.0)
    out = msh.nearest_node(mesh, (0.0, 0.0))
    x0, y0 = mesh.nodes[out]
    prec = np.array([[x0 + 2.5e-3, y0 - 5e-3]])
    f1 = f2 = 1.0
    cases = [LoadCase("free"),
             LoadCase("drag", out, (f1, 0.0)),
             LoadCase("lift", out, (0.0, f2))]
    terms = [(1.0, OutputOffsetSq(out, prec[0], M, i))
             for i in range(len(cases))]
    scale = sum(w * np.sum((mesh.nodes[out] - q.target) ** 2)
                for w, q in terms)
    constraints = [Constraint(VolumeFraction(step=M), 0.3, "upper", 0.3)]
    for i in range(len(cases)):
        constraints += [
            Constraint(FIn(step=M, load_case=i), 20.0, "upper", 20.0),
            Constraint(FP(step=M, load_case=i), 5.0, "upper", 5.0),
            Constraint(FP(step=M, load_case=i), -5.0, "lower", 5.0),
        ]
    margin = 0.05
    bbox = ((mesh.nodes[:, 0].min(), mesh.nodes[:, 0].max()),
            (mesh.nodes[:, 1].min(), mesh.nodes[:, 1].max()))
    sup_box = ((bbox[0][0] - margin, bbox[0][1] + margin),
               (bbox[1][0] - margin, bbox[1][1] + margin))
    load_box = bbox
    lower, upper, move = _zeta_arrays(
        n_rho, 3, (0.0, 1.0), [sup_box] * 3, load_box, (-np.pi, np.pi),
        0.2, 1e-3, np.deg2rad(5.0))
    # the skin-attachment support stays fixed even with variable BCs
    lower, upper = _freeze_bc(lower, upper, design0, n_rho,
                              which=(2, 5) if not fixed_bcs else "all")
    if fixed_bcs:
        lower, upper = _freeze_bc(lower, upper, design0, n_rho)
    return ProblemSpec(
        name="morphing_wing", mesh=mesh, params=params, material=material,
        design0=design0, u_in_norm=u_in, steps=M,
        objective_terms=terms, objective_sense="min", objective_scale=scale,
        constraints=constraints, load_cases=cases,
        output_node=out, precision_points=prec,
        lower=lower, upper=upper, move_limits=move,
    )


def make_custom_problem(spec, fixed_bcs=False, mesh=None, element_size=None,
                        thickness=None, max_steps=None, u_in=None,
                        k_out=None, params_override=None):
    """Build a user-defined problem from a custom config block.

    spec is a plain dict with the [custom] keys: outline (flat coordinate
    list), supports, load, theta_deg, u_in, steps, objective
    (max_u_out | min_f_in_final | path_error), output_point, output_axis,
    output_sign, output_k, vf_bound, f_in_bound, f_p_bound,
    precision_points, counter_forces, rho_init, move_rho, move_xy,
    move_theta_deg, bc_margin.
    """
    thickness = spec.get("thickness", 0.01) if thickness is None else thickness
    if mesh is None:
        outline = np.asarray(spec["outline"], float).reshape(-1, 2)
        h = element_size or spec.get("element_size") or 0.02 * max(
            outline.max(axis=0) - outline.min(axis=0))
        geo = msh.DomainGeometry(outline=outline, target_h=h)
        mesh = msh.generate_mesh(geo, thickness=thickness)
    params = _params(dict(r=2.5e-3, r_min=3e-3, beta=500.0, t_s=thickness),
                     params_override)
    material = MaterialParams(nu=params.nu)
    u_in = spec["u_in"] if u_in is None else u_in
    M = int(spec["steps"]) if max_steps is None else max_steps
    supports = np.asarray(spec["supports"], float).reshape(-1, 2)
    load = np.asarray(spec["load"], float).reshape(2)
    theta = np.deg2rad(float(spec["theta_deg"]))

    vf_bound = float(spec.get("vf_bound", 0.3))
    rho0 = float(spec.get("rho_init") or vf_bound)
    n_rho = len(mesh.designable)
    design0 = DesignVector(rho=np.full(n_rho, rho0), supports=supports,
                           load=load, theta=theta)

    axis = {"x": 0, "y": 1}[spec.get("output_axis", "y")]
    sign = float(spec.get("output_sign", 1.0))
    out = None
    selector = ()
    springs = ()
    if spec.get("output_point"):
        out = msh.nearest_node(mesh, spec["output_point"])
        selector = ((2 * out + axis, sign),)
        k = spec.get("output_k", 0.0) if k_out is None else k_out
        if k:
            springs = ((2 * out + axis, float(k)),)

    counters = np.asarray(spec.get("counter_forces", []),
                          float).reshape(-1, 2)
    cases = [LoadCase("nominal")]
    for j, (fx, fy) in enumerate(counters):
        if out is None:
            raise ValueError("counter forces need an output_point")
        cases.append(LoadCase(f"counter{j + 1}", out, (fx, fy)))

    objective = spec.get("objective", "max_u_out")
    prec = None
    if objective == "max_u_out":
        terms = [(1.0, UOut(selector, step=M))]
        sense, scale = "max", u_in
    elif objective == "min_f_in_final":
        terms = [(1.0, FIn(step=M))]
        sense, scale = "min", max(abs(float(spec.get("f_p_bound", 5.0))), 1.0)
    elif objective == "path_error":
        prec = np.asarray(spec["precision_points"], float).reshape(-1, 2)
        if len(prec) not in (1, M):
            raise ValueError("need 1 or M precision points")
        terms = []
        for i in range(len(cases)):
            if len(prec) == 1:
                terms.append((1.0, OutputOffsetSq(out, prec[0], M, i)))
            else:
                for m in range(1, M + 1):
                    terms.append((1.0, OutputOffsetSq(out, prec[m - 1], m, i)))
        scale = sum(w * np.sum((mesh.nodes[out] - q.target) ** 2)
                    for w, q in terms)
        sense = "min"
    else:
        raise ValueError(f"unknown objective {objective!r}")

    constraints = [Constraint(VolumeFraction(step=M), vf_bound, "upper",
                              vf_bound)]
    f_in_bound = float(spec.get("f_in_bound", 30.0))
    f_p_bound = float(spec.get("f_p_bound", 7.5))
    for i in range(len(cases)):
        constraints += [
            Constraint(FIn(step=M, load_case=i), f_in_bound, "upper",
                       f_in_bound),
            Constraint(FP(step=M, load_case=i), f_p_bound, "upper",
                       f_p_bound),
            Constraint(FP(step=M, load_case=i), -f_p_bound, "lower",
                       f_p_bound),
        ]

    margin = float(spec.get("bc_margin", 0.0))
    bbox = ((mesh.nodes[:, 0].min() - margin, mesh.nodes[:, 0].max() + margin),
            (mesh.nodes[:, 1].min() - margin, mesh.nodes[:, 1].max() + margin))
    load_box = ((mesh.nodes[:, 0].min(), mesh.nodes[:, 0].max()),
                (mesh.nodes[:, 1].min(), mesh.nodes[:, 1].max()))
    lower, upper, move = _zeta_arrays(
        n_rho, len(supports), (0.0, 1.0), [bbox] * len(supports), load_box,
        (-np.pi, np.pi), float(spec.get("move_rho", 0.2)),
        float(spec.get("move_xy", 2.5e-3)),
        np.deg2rad(float(spec.get("move_theta_deg", 5.0))))
    if fixed_bcs:
        lower, upper = _freeze_bc(lower, upper, design0, n_rho)
    return ProblemSpec(
        name="custom", mesh=mesh, params=params, material=material,
        design0=design0, u_in_norm=u_in, steps=M,
        objective_terms=terms, objective_sense=sense, objective_scale=scale,
        constraints=constraints, load_cases=cases,
        output_springs=springs, output_selector=selector, output_node=out,
        precision_points=prec, lower=lower, upper=upper, move_limits=move,
    )


_FAMILIES = {
    "gripper": make_gripper,
    "bistable_airfoil": make_bistable_airfoil,
    "line_generator": make_line_generator,
    "morphing_wing": make_morphing_wing,
}


def make_problem(family, fixed_bcs=False, **kwargs):
    """Build one of the four studied problem families by name."""
    if family not in _FAMILIES:
        raise KeyError(
            f"unknown problem family {family!r}; known: "
            + ", ".join(sorted(_FAMILIES)))
    return _FAMILIES[family](fixed_bcs=fixed_bcs, **kwargs)
