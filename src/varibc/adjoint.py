"""Exact total design derivatives of converged-state quantities.

Because the boundary conditions are design variables, every mesh DOF is free
and the residual alone does not close the adjoint system: the input
displacement constraint contributes a second multiplier pair. For a scalar
quantity f(zeta, U, lambda) the multipliers solve

    df/dU  - psi_R^T K_T + psi_c^T N = 0
    df/dlam + psi_R^T [Fx Fy]        = 0

and the total derivative is df/dzeta + psi_R^T dR/dzeta + psi_c^T dc/dzeta.
One set of factors per converged state serves every quantity read there; the
reference-load and interpolation-row solves are one shared 4-column solve.
StateAdjoint reuses the converged GlobalSystem that the solver's per-state
hook passes with each requested state, and assembles only for states given
without one (bisection substates on a failed path, hand-made states). The
system lives no longer than the StateAdjoint that reads it.

Given the corrector's last factors, which belong to the tangent one Newton
step before the converged K_T, StateAdjoint factorizes nothing: it solves
with those factors and refines each solution against K_T by iterative
refinement, with the stopping rule of LAPACK's xGERFS. Before each step it
takes the normwise backward error |b - K_T x| / (|K_T| |x| + |b|), in the
infinity norm and worst over the columns; it stops when that is at most
BERR_TOL, when a step failed to halve it, or after MAX_REFINEMENT_STEPS
steps. Unless it met BERR_TOL, it factorizes K_T (through solver._factorize
with this module's splu, so the fallback is timed apart from the solver's
factorizations) and solves with those factors from then on. States without
factors are factorized likewise.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import splu

from .assembly import residual_vjp
from .solver import (Singular2x2, _factorize, _solve_2x2,
                     input_point_response)

# stopping rule of the refinement against K_T (see the module docstring)
BERR_TOL = 2.2e-16
MAX_REFINEMENT_STEPS = 5


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


def _column_max_abs(a):
    """max |a| over each column of a (n,) or (n, k) array.

    |a| is written in Fortran order, so each column's maximum reads one
    contiguous column; over a C-ordered (n, 4) array that is over ten times
    faster than reducing across its rows. The maxima are the same.
    """
    return np.abs(a, order="F").max(axis=0)


def refine(lu, K, K_norm, b):
    """Solution of K x = b from the factors lu of a nearby matrix.

    Iterative refinement with the stopping rule in the module docstring;
    K_norm is the infinity norm of K. Returns (x, steps), with x None when
    the backward error did not reach BERR_TOL.
    """
    b_norm = _column_max_abs(b)
    x = lu.solve(b)
    last = np.inf
    for step in range(MAX_REFINEMENT_STEPS + 1):
        r = b - K @ x
        scale = K_norm * _column_max_abs(x) + b_norm
        berr = np.max(_column_max_abs(r)
                      / np.maximum(scale, np.finfo(float).tiny))
        if berr <= BERR_TOL:
            return x, step
        if berr > 0.5 * last or step == MAX_REFINEMENT_STEPS:
            return None, step
        x = x + lu.solve(r)
        last = berr


class StateAdjoint:
    """Shared factors and reference solves for one converged state.

    system, when given, is the GlobalSystem assembled at the state, such as
    the corrector's converged one; without it the state is assembled. lu,
    when given, holds the corrector's factors of a tangent near K_T:
    solves then refine against K_T and factorize only if refinement falls
    short (see the module docstring). refinement_steps lists the steps of
    each refined solve, and factorized tells whether K_T was factorized.
    """

    def __init__(self, model, control, state, fields, design, system=None,
                 lu=None):
        self.ctx = StateContext(state=state, model=model, control=control,
                                fields=fields, design=design)
        self.system = system
        if system is None:
            self.system = model.assemble(state.U,
                                         counter_scale=state.counter_scale)
        self.lu = lu
        self.factorized = False
        self.refinement_steps = []
        if lu is not None:
            K = self.system.K_T
            self.K_norm = np.bincount(K.indices, weights=np.abs(K.data),
                                      minlength=K.shape[0]).max()
        smp = control.sample
        n = model.mesh.num_dofs
        Nt = np.zeros((n, 2))
        Nt[smp.dofs_x, 0] = smp.weights
        Nt[smp.dofs_y, 1] = smp.weights
        cols = self.solve(
            np.column_stack([self.system.F_ext_x, self.system.F_ext_y, Nt]))
        self.V = cols[:, :2]
        self.M2 = input_point_response(smp, self.V)
        self.W = cols[:, 2:]
        self.Nt = Nt

    def solve(self, b):
        """x with K_T x = b, exact to solver precision."""
        if not self.factorized and self.lu is not None:
            x, steps = refine(self.lu, self.system.K_T, self.K_norm, b)
            self.refinement_steps.append(steps)
            if x is not None:
                return x
        if not self.factorized:
            self.lu = _factorize(self.system.K_T, splu, self.ctx.model.kin)
            self.factorized = True
        return self.lu.solve(b)

    def solve_multipliers(self, dfdU, dfdlam):
        """Multipliers (psi_c, psi_R) for explicit partials dfdU, dfdlam."""
        if dfdU is None:
            a = None
            aF = np.zeros(2)
        else:
            a = self.solve(np.asarray(dfdU, dtype=float))
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
