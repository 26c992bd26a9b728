"""Exact total design derivatives of converged-state quantities.

Because the boundary conditions are design variables, every mesh DOF is free
and the residual alone does not close the adjoint system: the input
displacement constraint contributes a second multiplier pair. For a scalar
quantity f(zeta, U, lambda) the multipliers solve

    df/dU  - psi_R^T K_T + psi_c^T N = 0
    df/dlam + psi_R^T [Fx Fy]        = 0

and the total derivative is df/dzeta + psi_R^T dR/dzeta + psi_c^T dc/dzeta.
One StateAdjoint per converged state serves every quantity read there; the
reference-load and interpolation-row solves are one shared 4-column solve.

StateAdjoint solves only through the state's solver.ConvergedTangent, which
the solver's per-state hook passes with each requested state: its converged
system, and the corrector's last factors, against which it refines, so it
factorizes nothing unless refinement falls short (the rule and its
constants live in solver.py). A state given without a tangent (bisection
substates on a failed path, hand-made states) is assembled, and its K_T is
factorized. A fallback factorization goes through solver._factorize with
this module's splu, so it is timed apart from the solver's factorizations.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import splu

from .assembly import residual_vjp
from .solver import ConvergedTangent, Singular2x2, _solve_2x2


class SingularReducedSystem(Exception):
    """The 2x2 reduced multiplier system is singular."""


class QuantitySpec:
    """A differentiable scalar of one converged state.

    Concrete quantities provide evaluate plus the three explicit partials;
    partials returning None are treated as zero. step is the 1-based
    displacement step the quantity reads, load_case the 0-based analysis it
    belongs to.
    """

    def __init__(self, name, step=0, load_case=0):
        self.name = name
        self.step = step
        self.load_case = load_case

    def evaluate(self, ctx):
        raise NotImplementedError

    def dfdU(self, ctx):
        return None

    def dfdlam(self, ctx):
        return None

    def dfdzeta(self, ctx):
        return None


@dataclass
class StateContext:
    """Everything a quantity may read at one converged state."""

    state: object
    model: object
    control: object
    fields: object
    design: object

    @property
    def mesh(self):
        return self.model.mesh

    @property
    def U(self):
        return self.state.U

    @property
    def lam(self):
        return np.array([self.state.lambda_x, self.state.lambda_y])

    @property
    def n_zeta(self):
        return self.design.size


@dataclass
class SensitivityRecord:
    name: str
    value: float
    dgdzeta: np.ndarray
    psi_c: np.ndarray
    psi_R: np.ndarray


def constraint_partials(ctx):
    """dc/dzeta (2 x n_zeta): actuator-coordinate and angle columns.

    The X_f, Y_f columns are the spatial displacement gradient at the input
    point (element-wise constant for linear triangles); density and support
    columns vanish.
    """
    design = ctx.design
    ctrl = ctx.control
    pts = np.zeros((2, design.num_supports + 1, 2))   # one per row
    pts[:, -1] = ctrl.sample.gradient(ctx.U)
    theta = (ctx.state.input_fraction * ctrl.u_in_norm
             * np.array([np.sin(ctrl.theta), -np.cos(ctrl.theta)]))
    rho = np.zeros(len(design.rho))
    return np.array([design.join(rho, p, t) for p, t in zip(pts, theta)])


class StateAdjoint:
    """Shared reference and interpolation solves for one converged state,
    made through tangent, its ConvergedTangent; without one the state is
    assembled into a tangent without factors."""

    def __init__(self, model, control, state, fields, design, tangent=None):
        self.ctx = StateContext(state=state, model=model, control=control,
                                fields=fields, design=design)
        if tangent is None:
            tangent = ConvergedTangent(
                model.assemble(state.U, counter_scale=state.counter_scale),
                model.kin)
        self.tangent = tangent
        self.system = tangent.system
        self.Nt = control.sample.rows(model.mesh.num_dofs)
        cols = tangent.solve(np.column_stack(
            [self.system.F_ext_x, self.system.F_ext_y, self.Nt]), splu)
        self.V = cols[:, :2]
        self.M2 = control.sample.interpolate(self.V)
        self.W = cols[:, 2:]

    def solve_multipliers(self, dfdU, dfdlam):
        """Multipliers (psi_c, psi_R) for explicit partials dfdU, dfdlam."""
        if dfdU is None:
            a = None
            aF = np.zeros(2)
        else:
            a = self.tangent.solve(np.asarray(dfdU, dtype=float), splu)
            aF = np.array([a @ self.system.F_ext_x, a @ self.system.F_ext_y])
        lam_part = np.zeros(2) if dfdlam is None else np.asarray(dfdlam, float)
        rhs = -(lam_part + aF)
        try:
            # psi_c^T M2 = rhs  <=>  M2^T psi_c = rhs
            psi_c = _solve_2x2(self.M2.T, rhs)
        except Singular2x2 as err:
            raise SingularReducedSystem(str(err)) from None
        psi_R = self.W @ psi_c
        if a is not None:
            psi_R = psi_R + a
        return psi_c, psi_R

    def multiplier_residuals(self, dfdU, dfdlam, psi_c, psi_R):
        """Relative residuals of the two multiplier equations.

        Scaled by the magnitudes of the cancelling terms so exact zeros do
        not read as order-one violations.
        """
        n = self.ctx.model.mesh.num_dofs
        dU = np.zeros(n) if dfdU is None else np.asarray(dfdU, float)
        dl = np.zeros(2) if dfdlam is None else np.asarray(dfdlam, float)
        r1 = dU - self.system.K_T.T @ psi_R + self.Nt @ psi_c
        r2 = dl + np.array([psi_R @ self.system.F_ext_x,
                            psi_R @ self.system.F_ext_y])
        s1 = max(np.linalg.norm(dU), np.linalg.norm(self.system.K_T.T @ psi_R),
                 np.linalg.norm(self.Nt @ psi_c), 1e-300)
        fnorm = max(np.linalg.norm(self.system.F_ext_x),
                    np.linalg.norm(self.system.F_ext_y))
        s2 = max(np.linalg.norm(dl), np.linalg.norm(psi_R) * fnorm, 1e-300)
        return np.linalg.norm(r1) / s1, np.linalg.norm(r2) / s2

    def sensitivity(self, quantity):
        """Value and exact total design gradient of one quantity."""
        ctx = self.ctx
        value = quantity.evaluate(ctx)
        dfdU = quantity.dfdU(ctx)
        dfdlam = quantity.dfdlam(ctx)
        dfdzeta = quantity.dfdzeta(ctx)
        psi_c, psi_R = self.solve_multipliers(dfdU, dfdlam)
        grad = np.zeros(ctx.n_zeta) if dfdzeta is None else np.array(dfdzeta,
                                                                     float)
        if np.any(psi_R):
            grad = grad + residual_vjp(
                ctx.model, self.system, ctx.state.lambda_x,
                ctx.state.lambda_y, psi_R)
        if np.any(psi_c):
            grad = grad + psi_c @ constraint_partials(ctx)
        if os.environ.get("VARIBC_CHECK_ADJOINT"):
            r1, r2 = self.multiplier_residuals(dfdU, dfdlam, psi_c, psi_R)
            if max(r1, r2) > 1e-9:
                raise AssertionError(
                    "multiplier equations violated: %.2e / %.2e" % (r1, r2))
        return SensitivityRecord(name=quantity.name, value=float(value),
                                 dgdzeta=grad, psi_c=psi_c, psi_R=psi_R)
