"""Measurable quantities and the mechanism-synthesis problem families.

Quantities implement the QuantitySpec interface so the adjoint engine can
differentiate them; problem specs bundle the domain, non-design layout,
output attachments, load cases, objective, constraint schedule, bounds, and
move limits, and build the fields and models that are solved at a design.
The objective (MMA's f0) and every constraint (g <= 0) have one form,
`Scaled`; each constraint is one quantity scaled by |bound|.

`FAMILIES` tables the four studied families: defaults, a geometry builder
and a layout function that places what differs between problems on the
mesh (BC points and boxes, move limits, outputs, load cases, objective and
constraints). `make_custom_problem` makes such an entry from a [custom]
config block. One shared step, `_assemble`, turns any layout into the
initial design, zeta bounds, move limits, BC freeze and the ProblemSpec.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import assembly, design_field, mesh as msh
from .adjoint import QuantitySpec
from .design_field import DesignVector, ProjectionParams
from .material import MaterialParams
from .solver import InputControl


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
        return float(f_in(*ctx.lam, ctx.control.theta))

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
        return float(f_p(*ctx.lam, ctx.control.theta))

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
        volumes = ctx.mesh.volumes
        return ctx.fields.vjp(rho_bar=volumes / np.sum(volumes))


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


def _project(lam_x, lam_y, dir_x, dir_y):
    """lam . dir as a batched matmul, which rounds like a 1-D dot product."""
    lam = np.stack([lam_x, lam_y], axis=-1)
    dirs = np.stack([dir_x, dir_y], axis=-1)
    return (lam[..., None, :] @ dirs[..., :, None])[..., 0, 0][()]


def f_in(lam_x, lam_y, theta):
    """Force along the input direction (rotation form of the decomposition).
    FIn evaluates through it, so reports match the constrained values."""
    return _project(lam_x, lam_y, np.cos(theta), np.sin(theta))


def f_p(lam_x, lam_y, theta):
    """Force perpendicular to the input direction (FP evaluates through it)."""
    return _project(lam_x, lam_y, -np.sin(theta), np.cos(theta))


@dataclass
class Scaled:
    """MMA's scaled form sign * (sum - bound) / scale of the sum of one or
    more quantities: the objective f0 (bound 0) and each constraint g <= 0.

    direction "upper" means sum < bound (for the objective: minimize the
    sum), "lower" means sum > bound (maximize) and gives sign -1.
    """

    quantities: list
    bound: float
    direction: str
    scale: float

    def evaluate(self, records):
        """(sum, scaled value, scaled gradient) from records, the
        SensitivityRecords keyed by quantity name."""
        recs = [records[q.name] for q in self.quantities]
        value = sum(r.value for r in recs)
        grad = sum(r.dgdzeta for r in recs)
        sign = -1.0 if self.direction == "lower" else 1.0
        return (value, sign * (value - self.bound) / self.scale,
                sign * grad / self.scale)

    @property
    def name(self):
        cmp = "<" if self.direction == "upper" else ">"
        total = " + ".join(q.name for q in self.quantities)
        return f"{total} {cmp} {self.bound:g}"


def _cap(quantity, bound, direction="upper"):
    """The constraint quantity < bound ("upper") or > bound ("lower"),
    scaled by |bound|."""
    return Scaled([quantity], bound, direction, abs(bound))


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
    objective: Scaled              # bound 0; direction "lower" maximizes
    constraints: list              # [Scaled] of one quantity each
    load_cases: list = field(default_factory=lambda: [LoadCase("nominal")])
    output_springs: tuple = ()
    output_node: int | None = None
    lower: np.ndarray = None       # zeta bounds, natural units
    upper: np.ndarray = None
    move_limits: np.ndarray = None

    def __post_init__(self):
        if len(self.design0.rho) != len(self.mesh.designable):
            raise ValueError("initial densities do not match designable count")
        n = self.design0.size
        for arr in (self.lower, self.upper, self.move_limits):
            if arr is None or len(arr) != n:
                raise ValueError("bounds and move limits must cover zeta")
        if not np.all(self.lower <= self.upper):
            raise ValueError("lower bounds exceed upper bounds")
        n_rho = len(self.design0.rho)
        names = ["rho"] * n_rho + self.design0.bc_names()
        # a negative move puts MMA's lower step bound above its upper one
        bad = np.flatnonzero(~(self.move_limits >= 0.0))
        if bad.size:
            raise ValueError(f"move limit of {names[bad[0]]} = "
                             f"{self.move_limits[bad[0]]:g}; need one >= 0")
        # MMA works in the bound box, so design0 must start inside it;
        # DesignVector already holds the densities to [0, 1]
        z, lo, hi = (v[n_rho:] for v in (self.design0.to_array(),
                                         self.lower, self.upper))
        for name, v, a, b in zip(names[n_rho:], z, lo, hi):
            if not a <= v <= b:
                raise ValueError(f"initial {name} = {v:g} lies outside its "
                                 f"bounds [{a:g}, {b:g}]")

    @property
    def frozen(self):
        return self.lower == self.upper

    @property
    def A_f(self):
        """Reference-load normalization frozen at design0's actuator point;
        fields() applies it at every design."""
        return design_field.load_magnitude_field(
            self.design0, self.mesh, self.params)[1]

    def fields(self, design, W=None):
        """Design fields at design, with the frozen A_f: the fields the
        optimizer solves, dumps and replays. W is the filter matrix."""
        return design_field.evaluate_fields(design, self.mesh, self.params,
                                            A_f=self.A_f, W=W)

    def models(self, design, kin=None, W=None, stroke_scale=1.0):
        """(fields, one NonlinearModel per load case, InputControl) at
        design. The control's stroke is u_in_norm * stroke_scale; kin and
        W, when given, are reused across designs."""
        fields = self.fields(design, W)
        if kin is None:
            kin = assembly.ElementKinematics(self.mesh, self.material)
        base = assembly.NonlinearModel(kin, fields, self.output_springs)
        models = [base.with_counter_force(case.force_vector(self.mesh))
                  for case in self.load_cases]
        control = InputControl(
            sample=msh.shape_values_at(self.mesh, design.load),
            theta=design.theta, u_in_norm=self.u_in_norm * stroke_scale)
        return fields, models, control

    def quantities(self):
        """The quantities of the objective and the constraints, one per name:
        records are keyed by name, so each name is differentiated once."""
        qs = [q for s in [self.objective, *self.constraints]
              for q in s.quantities]
        return list({q.name: q for q in qs}.values())


def _clamp_into(point, box):
    return np.clip(point, *np.transpose(box))


def _node_box(mesh, margin=0.0):
    """Bounding box of the mesh nodes, grown by margin on every side."""
    lo = mesh.nodes.min(axis=0) - margin
    hi = mesh.nodes.max(axis=0) + margin
    return ((lo[0], hi[0]), (lo[1], hi[1]))


def _force_caps(n_cases, caps):
    """An F_in cap and a two-sided |F_p| cap per (step, cap_in, cap_p) entry
    of caps, for every load case."""
    out = []
    for i in range(n_cases):
        for m, cap_in, cap_p in caps:
            out += [
                _cap(FIn(step=m, load_case=i), cap_in),
                _cap(FP(step=m, load_case=i), cap_p),
                _cap(FP(step=m, load_case=i), -cap_p, "lower"),
            ]
    return out


def _path_error(mesh, node, prec, n_cases, M):
    """The objective: minimize the squared offsets of the output node from
    the precision points.

    A single point is matched at step M, M points one per step, in every load
    case. The scale is the value on the undeformed mesh.
    """
    steps = [M] if len(prec) == 1 else range(1, M + 1)
    qs = [OutputOffsetSq(node, p, m, i)
          for i in range(n_cases) for p, m in zip(prec, steps)]
    scale = sum(np.sum((mesh.nodes[node] - q.target) ** 2) for q in qs)
    return Scaled(qs, 0.0, "upper", scale)


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


def _gripper(mesh, params, M, u_in, k_out, fixed_bcs):
    """Displacement-maximizing jaw gripper."""
    box = ((params.r, 0.1 - params.r), (params.r, 0.1 - params.r))
    supports = np.array([[0.0, 0.1], [0.0, 0.0]])
    load = np.array([0.0, 0.05])
    if not fixed_bcs:
        supports = np.array([_clamp_into(p, box) for p in supports])
        load = _clamp_into(load, box)
    out_hi = msh.nearest_node(mesh, (0.1, 0.06))
    out_lo = msh.nearest_node(mesh, (0.1, 0.04))
    selector = ((2 * out_lo + 1, 1.0), (2 * out_hi + 1, -1.0))
    return dict(
        vf=0.3, supports=supports, load=load, theta=0.0, sup_box=box,
        load_box=box, moves=(0.2, 2.5e-3, np.deg2rad(5.0)),
        objective=Scaled([UOut(selector, step=M)], 0.0, "lower", u_in),
        constraints=_force_caps(1, [(m, 30.0 * m / M, 7.5 * m / M)
                                    for m in range(1, M + 1)]),
        output_springs=((2 * out_hi + 1, k_out), (2 * out_lo + 1, k_out)),
        output_node=out_lo,
    )


def _bistable_airfoil(mesh, params, M, u_in, k_out, fixed_bcs):
    """Snap-through aileron in a full NACA 0012 section, chord 20 cm."""
    chord, margin = 0.2, 0.03
    y_spar = msh.naca0012_halfthickness(0.3) * chord
    y_hinge = msh.naca0012_halfthickness(0.7) * chord
    te = msh.nearest_node(mesh, (chord, 0.0))
    selector = ((2 * te + 1, -1.0),)   # downward positive
    constraints = [
        _cap(UOut(selector, step=M), 5e-3, "lower"),
        _cap(FIn(step=1), 2.0, "lower"),
    ]
    for m in range(1, min(6, M) + 1):
        cap = 15.0 * np.sin(np.pi * m / 6.0) + 5.0
        constraints.append(_cap(FIn(step=m), cap))
    for m in range(1, M + 1):
        constraints += [
            _cap(FP(step=m), 5.0),
            _cap(FP(step=m), -5.0, "lower"),
        ]
    return dict(
        vf=0.4, supports=np.array([[0.06, y_spar], [0.06, -y_spar],
                                   [0.14, -y_hinge]]),
        load=np.array([0.06, 0.0]), theta=0.0,
        sup_box=((-margin, chord + margin), (-0.024 - margin, 0.024 + margin)),
        load_box=((0.0, chord), (-0.024, 0.024)),
        moves=(0.05, 0.5e-3, np.deg2rad(1.0)),
        objective=Scaled([FIn(step=M)], 0.0, "upper", 5.0),
        constraints=constraints, output_springs=((2 * te + 1, k_out),),
        output_node=te,
    )


def _line_generator_geometry(h):
    """16 x 8 cm rectangle with a solid pad at the output corner."""
    pad = np.array([[0.15, 0.07], [0.16, 0.07], [0.16, 0.08], [0.15, 0.08]])
    return msh.rectangle_geometry(
        0.16, 0.08, h, nondesign_regions=[(pad, msh.SOLID_NONDESIGN)])


def _line_generator(mesh, params, M, u_in, k_out, fixed_bcs):
    """Horizontal straight-line path generator, two counter-force cases."""
    W, H = 0.16, 0.08
    box = ((params.r, W - params.r), (params.r, H - params.r))
    out = msh.nearest_node(mesh, (W, H))
    x0, y0 = mesh.nodes[out]
    prec = np.array([[x0 + 0.02 * m / M, y0] for m in range(1, M + 1)])
    cases = [LoadCase("free"),
             LoadCase("counter_x", out, (-5.0, 0.0)),
             LoadCase("counter_y", out, (0.0, -5.0))]
    return dict(
        vf=0.2, supports=np.array([_clamp_into((0.03, 0.0), box),
                                   _clamp_into((0.13, 0.0), box)]),
        load=_clamp_into((0.08, 0.0), box), theta=np.pi / 2.0, sup_box=box,
        load_box=box, moves=(0.2, 3e-3, np.deg2rad(2.0)),
        objective=_path_error(mesh, out, prec, len(cases), M),
        constraints=_force_caps(len(cases), [(m, 20.0, 5.0)
                                             for m in range(1, M + 1)]),
        load_cases=cases, output_node=out,
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


def _morphing_wing(mesh, params, M, u_in, k_out, fixed_bcs):
    """Droop-nose morphing wing: single precision point, two counter cases."""
    out = msh.nearest_node(mesh, (0.0, 0.0))
    x0, y0 = mesh.nodes[out]
    prec = np.array([[x0 + 2.5e-3, y0 - 5e-3]])
    cases = [LoadCase("free"),
             LoadCase("drag", out, (1.0, 0.0)),
             LoadCase("lift", out, (0.0, 1.0))]
    return dict(
        vf=0.3, supports=np.array([[0.045, 0.006], [0.045, -0.006],
                                   [0.06, 0.014]]),
        load=np.array([0.03, -0.008]), theta=0.0,
        sup_box=_node_box(mesh, 0.05), load_box=_node_box(mesh),
        moves=(0.2, 1e-3, np.deg2rad(5.0)),
        frozen_supports=(2,),   # the skin-attachment support stays fixed
        objective=_path_error(mesh, out, prec, len(cases), M),
        constraints=_force_caps(len(cases), [(M, 20.0, 5.0)]),
        load_cases=cases, output_node=out,
    )


# every [custom] config key, in config order, with its default; a
# rho_init of 0 starts from vf_bound
CUSTOM_DEFAULTS = {
    "outline": [], "supports": [], "load": [], "theta_deg": 0.0,
    "objective": "max_u_out", "output_point": [], "output_axis": "y",
    "output_sign": 1.0, "vf_bound": 0.3, "f_in_bound": 30.0,
    "f_p_bound": 7.5, "precision_points": [], "counter_forces": [],
    "rho_init": 0.0, "move_rho": 0.2, "move_xy": 2.5e-3,
    "move_theta_deg": 5.0, "bc_margin": 0.0,
}


def _points(spec, key):
    """spec[key], a flat coordinate list, as (n, 2) points."""
    flat = np.asarray(spec[key], float).ravel()
    if len(flat) % 2:
        raise ValueError(f"[custom] {key} has {len(flat)} values, not pairs")
    return flat.reshape(-1, 2)


def _point(spec, key):
    """spec[key], one (x, y) point."""
    points = _points(spec, key)
    if len(points) != 1:
        raise ValueError(f"[custom] {key} has {points.size} values, not 2")
    return points[0]


def _custom(spec, mesh, params, M, u_in, k_out, fixed_bcs):
    """Layout of a [custom] config block; see make_custom_problem."""
    for key, allowed in (("output_axis", ("x", "y")),
                         ("output_sign", (1.0, -1.0))):
        if spec[key] not in allowed:
            raise ValueError(f"[custom] {key} = {spec[key]!r}; need one of "
                             f"{allowed}")
    axis = ("x", "y").index(spec["output_axis"])
    out, selector, springs = None, (), ()
    if spec["output_point"]:
        out = msh.nearest_node(mesh, _point(spec, "output_point"))
        selector = ((2 * out + axis, float(spec["output_sign"])),)
        if k_out:
            springs = ((2 * out + axis, float(k_out)),)
    counters = _points(spec, "counter_forces")
    if len(counters) and out is None:
        raise ValueError("counter forces need an output_point")
    cases = [LoadCase("nominal")] + [
        LoadCase(f"counter{j}", out, (fx, fy))
        for j, (fx, fy) in enumerate(counters, start=1)]
    # each bound also scales its constraint, so it must be finite and > 0
    for key, top in (("vf_bound", 1.0), ("f_in_bound", np.inf),
                     ("f_p_bound", np.inf)):
        if not 0.0 < float(spec[key]) <= top or np.isinf(float(spec[key])):
            raise ValueError(f"[custom] {key} = {spec[key]!r}; need a "
                             f"finite value in (0, {top:g}]")
    vf = float(spec["vf_bound"])
    f_in_bound = float(spec["f_in_bound"])
    f_p_bound = float(spec["f_p_bound"])
    objective = spec["objective"]
    if out is None and objective in ("max_u_out", "path_error"):
        raise ValueError(f"objective {objective!r} needs an output_point")
    if objective == "max_u_out":
        objective = Scaled([UOut(selector, step=M)], 0.0, "lower", u_in)
    elif objective == "min_f_in_final":
        objective = Scaled([FIn(step=M)], 0.0, "upper", max(f_p_bound, 1.0))
    elif objective == "path_error":
        prec = _points(spec, "precision_points")
        if len(prec) not in (1, M):
            raise ValueError("need 1 or M precision points")
        objective = _path_error(mesh, out, prec, len(cases), M)
    else:
        raise ValueError(f"unknown objective {objective!r}")
    return dict(
        vf=vf, rho0=float(spec["rho_init"] or vf),
        supports=_points(spec, "supports"),
        load=_point(spec, "load"),
        theta=np.deg2rad(float(spec["theta_deg"])),
        sup_box=_node_box(mesh, float(spec["bc_margin"])),
        load_box=_node_box(mesh),
        moves=(float(spec["move_rho"]), float(spec["move_xy"]),
               np.deg2rad(float(spec["move_theta_deg"]))),
        objective=objective,
        constraints=_force_caps(len(cases), [(M, f_in_bound, f_p_bound)]),
        load_cases=cases, output_springs=springs, output_node=out,
    )


@dataclass(frozen=True)
class Family:
    """Defaults of one problem family; k_out None means no output spring."""

    element_size: float | None
    r: float
    r_min: float
    beta: float
    u_in: float
    k_out: float | None
    steps: int
    geometry: Callable | None   # element size -> DomainGeometry
    layout: Callable            # (mesh, params, M, u_in, k_out, fixed_bcs)


THICKNESS = 0.01   # m, out-of-plane thickness unless one is given

FAMILIES = {  # element_size, r, r_min, beta, u_in, k_out, steps, geometry
    "gripper": Family(1.5e-3, 2.5e-3, 3e-3, 500.0, 5e-3, 300.0, 4,
                      gripper_geometry, _gripper),
    "bistable_airfoil": Family(
        1e-3, 2e-3, 4e-3, 2000.0, 2.5e-3, 100.0, 8,
        lambda h: msh.naca0012_outline(0.2, element_size=h),
        _bistable_airfoil),
    "line_generator": Family(1.2e-3, 3e-3, 2.4e-3, 500.0, 0.01, None, 4,
                             _line_generator_geometry, _line_generator),
    "morphing_wing": Family(0.5e-3, 2e-3, 1e-3, 500.0, 2e-3, None, 4,
                            wing_geometry, _morphing_wing),
}


def _build(name, family, fixed_bcs, mesh=None, element_size=None,
           max_steps=None, u_in=None, k_out=None, thickness=None,
           params_override=None):
    """Fill the arguments left as None from the family, then lay the
    problem out on its mesh and assemble it."""
    thickness = THICKNESS if thickness is None else thickness
    if mesh is None:
        h = family.element_size if element_size is None else element_size
        mesh = msh.generate_mesh(family.geometry(h), thickness=thickness)
    overrides = {k: v for k, v in (params_override or {}).items()
                 if v is not None}
    params = ProjectionParams(**{"r": family.r, "r_min": family.r_min,
                                 "beta": family.beta, "t_s": thickness,
                                 **overrides})
    M = family.steps if max_steps is None else max_steps
    u_in = family.u_in if u_in is None else u_in
    k_out = family.k_out if k_out is None else k_out
    layout = family.layout(mesh, params, M, u_in, k_out, fixed_bcs)
    return _assemble(name, mesh, params, u_in, M, fixed_bcs, **layout)


def _assemble(name, mesh, params, u_in, M, fixed_bcs, *, vf, supports, load,
              theta, sup_box, load_box, moves, constraints, rho0=None,
              frozen_supports=(), **spec):
    """Initial design, zeta bounds, move limits and BC freeze of a layout.

    All supports share sup_box; moves is (rho, coordinate, theta). The volume
    bound vf is the first constraint and, unless rho0 is given, the initial
    density. frozen_supports lists supports frozen even with variable BCs.
    """
    n_rho = len(mesh.designable)
    design0 = DesignVector(rho=np.full(n_rho, vf if rho0 is None else rho0),
                           supports=supports, load=load, theta=theta)
    # per BC point: (x, y) by (lower, upper)
    box = np.array([sup_box] * design0.num_supports + [load_box])
    lower = design0.join(np.zeros(n_rho), box[..., 0], -np.pi)
    upper = design0.join(np.ones(n_rho), box[..., 1], np.pi)
    move = design0.join(np.full(n_rho, moves[0]),
                        np.full(box.shape[:2], moves[1]), moves[2])
    frozen_pts = np.full(box.shape[:2], bool(fixed_bcs))
    frozen_pts[list(frozen_supports)] = True
    frozen = design0.join(np.zeros(n_rho, bool), frozen_pts, bool(fixed_bcs))
    z = design0.to_array()
    lower[frozen] = upper[frozen] = z[frozen]
    return ProblemSpec(
        name=name, mesh=mesh, params=params,
        material=MaterialParams(nu=params.nu), design0=design0,
        u_in_norm=u_in, steps=M,
        constraints=[_cap(VolumeFraction(step=M), vf)] + constraints,
        lower=lower, upper=upper, move_limits=move, **spec)


def make_custom_problem(spec, fixed_bcs=False, **kwargs):
    """Build a user-defined problem from a custom config block.

    spec is a plain dict of [custom] keys; CUSTOM_DEFAULTS fills the ones
    it leaves out. Point lists are flat coordinates; objective is max_u_out,
    min_f_in_final or path_error. kwargs are make_problem's; the defaults
    are an element size of 2% of the outline's extent, u_in 5 mm, no output
    spring (k_out 0) and 4 steps.
    """
    spec = {**CUSTOM_DEFAULTS, **spec}
    outline = _points(spec, "outline")
    h = (0.02 * max(outline.max(axis=0) - outline.min(axis=0))
         if len(outline) else None)
    family = Family(element_size=h, r=2.5e-3, r_min=3e-3, beta=500.0,
                    u_in=5e-3, k_out=0.0, steps=4,
                    geometry=partial(msh.DomainGeometry, outline),
                    layout=partial(_custom, spec))
    return _build("custom", family, fixed_bcs, **kwargs)


def make_problem(family, fixed_bcs=False, **kwargs):
    """Build one of the four studied problem families by name.

    kwargs are mesh, element_size, max_steps, u_in, k_out, thickness and
    params_override; each one left out or None takes the family's default.
    """
    if family not in FAMILIES:
        raise KeyError(
            f"unknown problem family {family!r}; known: "
            + ", ".join(sorted(FAMILIES)))
    return _build(family, FAMILIES[family], fixed_bcs, **kwargs)
