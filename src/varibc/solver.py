"""Variable-input displacement control.

The actuator prescribes the displacement at an arbitrary in-plane point
(interpolated by the element shape functions), at an angle theta, in M
increments. Each increment is a predictor step followed by Newton
corrections, and both are one newton_update: a bordered solve with one
factorization of the tangent, in which a 2x2 system picks the two load
intensity increments so the input-point displacement follows the prescribed
fraction exactly. The predictor reuses the factors and the reference-load
solves of the last corrector iteration. Failed steps are retried with
bisected increments from the last converged state.

Every tangent factorization, here and in the adjoint, is a SuperLU call in
symmetric mode, which prefers diagonal pivots, with the columns ordered by
minimum degree on the pattern of K_T^T + K_T (MMD_AT_PLUS_A, TANGENT_SPLU).
Partial pivoting stays at its default threshold. Against SuperLU's default
COLAMD ordering this cuts the L+U fill of the gripper tangents by 22% at
h = 3 mm and 30% at h = 1.5 mm. The ordering depends only on the CSC pattern,
which every tangent of one mesh shares (assembly.ElementKinematics), so it is
computed once per mesh: the first factorization of each ElementKinematics
runs MMD, and every later one gathers K_T into that order and factorizes it
with the natural ordering (TangentOrdering). The fill is the same.

Both settings factorize one column at a time (SuperLU's panel_size = 1; by
default SuperLU updates a panel of several columns at once). The panel width
only groups the column updates: the pivots, the permutations and the L+U
fill are the same, and the factors agree to round-off. On the gripper
tangents it cuts the median time per factorization by about 10% at
h = 1.5 mm, where the factors leave the cache.

Each corrector returns a ConvergedTangent, the one owner of solving with a
converged state's K_T. It holds the converged GlobalSystem, the corrector's
last factors, the matrix they factorize (the tangent one Newton step before
K_T, or K_T when no iteration was made) and the reference solves made with
them. Its solve refines against K_T with those factors and stops as
LAPACK's xGERFS does: when the normwise backward error
|b - K_T x| / (|K_T| |x| + |b|), in the infinity norm and worst over the
columns, is at most BERR_TOL, when a step failed to halve it, or after
MAX_REFINEMENT_STEPS steps. Unless it met BERR_TOL, it factorizes K_T and
solves with those fallback factors from then on.

solve_equilibrium_path calls an optional per-state hook with each requested
state and its ConvergedTangent; optimizer.differentiate_path differentiates
the state there (adjoint.StateAdjoint). When the hook returns, the path
releases the system and the fallback factors, which no predictor sees. At
most one set of the path's factors is alive at a time: the corrector drops
the last iteration's factors before it factorizes, and the next predictor
takes the corrector's factors from the tangent and drops them once used. A
failed step's retry factorizes the tangent's matrix again, which gives the
same factors bit for bit, since the factorization depends only on the data
and the mesh's TangentOrdering.

Counter-force load cases first ramp the constant counter load with the input
pinned at zero, using the same machinery with the load scale as the
continuation parameter.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .material import NonPositiveJacobian


class SolverError(Exception):
    pass


class SingularTangent(SolverError):
    """Tangent factorization failed."""


class Singular2x2(SolverError):
    """Input-point displacement responses are linearly dependent."""


class CorrectorFailed(SolverError):
    """Newton corrections did not converge within the iteration budget."""


class PathFailed(SolverError):
    """A displacement path could not be completed after maximal bisection."""

    def __init__(self, fraction_reached, reason, partial=None):
        self.fraction_reached = fraction_reached
        self.reason = reason
        self.partial = partial  # EquilibriumPath of the converged substates
        super().__init__(
            f"path failed at input fraction {fraction_reached:.4g}: {reason}"
        )


@dataclass
class SolverConfig:
    """Newton-path settings; the fields are [solver]'s keys, in order."""

    steps: int = 4
    tol_residual: float = 1e-6
    max_corrector_iters: int = 20
    max_bisections: int = 6

    def __post_init__(self):
        if min(self.tol_residual, self.max_corrector_iters, self.steps) <= 0:
            raise ValueError("solver configuration values must be positive")
        if self.max_bisections < 0:
            raise ValueError("max_bisections must be non-negative")


@dataclass
class InputControl:
    """Where and how the actuator drives the structure."""

    sample: object          # mesh.ShapeSample at (X_f, Y_f)
    theta: float
    u_in_norm: float

    def direction(self):
        return np.array([np.cos(self.theta), np.sin(self.theta)])

    def target(self, s):
        return s * self.u_in_norm * self.direction()


@dataclass
class EquilibriumState:
    U: np.ndarray
    lambda_x: float
    lambda_y: float
    input_fraction: float
    residual_norm: float
    corrector_iterations: int
    requested: bool = True
    counter_scale: float = 1.0
    residual_history: tuple = ()


@dataclass
class EquilibriumPath:
    states: list
    total_bisections: int = 0
    total_corrector_iterations: int = 0

    @property
    def requested_states(self):
        return [s for s in self.states if s.requested]

    def state_at_step(self, m):
        """Converged state at requested step m (1-based)."""
        return self.requested_states[m - 1]


def input_point_response(sample, columns):
    """2x2 matrix of (x, y) input-point displacements of solution columns."""
    out = np.empty((2, columns.shape[1]))
    for j in range(columns.shape[1]):
        out[:, j] = sample.interpolate(columns[:, j])
    return out


def _solve_2x2(M2, rhs):
    det = M2[0, 0] * M2[1, 1] - M2[0, 1] * M2[1, 0]
    scale = (np.hypot(M2[0, 0], M2[0, 1]) * np.hypot(M2[1, 0], M2[1, 1]))
    if abs(det) <= 1e-14 * max(scale, 1e-300):
        raise Singular2x2(
            "input-point response matrix is singular (det %.3e)" % det
        )
    return np.array(
        [(rhs[0] * M2[1, 1] - rhs[1] * M2[0, 1]) / det,
         (rhs[1] * M2[0, 0] - rhs[0] * M2[1, 0]) / det]
    )


# SuperLU settings of a tangent's first factorization (see the module
# docstring); NATURAL_SPLU factorizes a tangent already in that order
TANGENT_SPLU = {"permc_spec": "MMD_AT_PLUS_A", "panel_size": 1,
                "options": {"SymmetricMode": True}}
NATURAL_SPLU = {"permc_spec": "NATURAL", "panel_size": 1,
                "options": {"SymmetricMode": True}}


class PermutedLU:
    """Factors of K[q][:, q] that solve K x = b, for q = argsort(perm_c)."""

    def __init__(self, lu, ordering):
        self.lu = lu
        self.nnz = lu.nnz
        self.ordering = ordering

    def solve(self, b):
        # b[q], gathered column by column in Fortran order: SuperLU solves
        # in that layout and would otherwise transpose a copy of it
        n = b.shape[0]
        bq = np.empty(b.shape, order="F")
        for col, out in zip(b.reshape(n, -1).T,
                            bq.reshape(n, -1, order="F").T):
            np.take(col, self.ordering.q, out=out)
        return self.lu.solve(bq)[self.ordering.perm_c]


class TangentOrdering:
    """The fill-reducing column order of one mesh's tangent pattern.

    perm_c is the column permutation of the pattern's first TANGENT_SPLU
    factorization (column i of K goes to position perm_c[i]); gather maps
    the CSC data of K to that of K[q][:, q], whose pattern is
    permuted_indices, permuted_indptr.
    """

    def __init__(self, K, perm_c):
        # a copy: SuperLU's perm_c is a view that keeps its factors alive
        self.perm_c = np.array(perm_c)
        self.q = np.argsort(perm_c)
        # positions, offset by one so no entry is an explicit zero
        pos = sp.csc_matrix((np.arange(1, K.nnz + 1), K.indices, K.indptr),
                            shape=K.shape)[self.q][:, self.q]
        pos.sort_indices()
        self.gather = pos.data - 1
        self.permuted_indices = pos.indices
        self.permuted_indptr = pos.indptr
        for a in (self.perm_c, self.q, self.gather, self.permuted_indices,
                  self.permuted_indptr):
            a.setflags(write=False)

    def factorize(self, K, factor):
        Kq = sp.csc_matrix(
            (K.data[self.gather], self.permuted_indices, self.permuted_indptr),
            shape=K.shape)
        return PermutedLU(factor(Kq, **NATURAL_SPLU), self)


def _factorize(K, factor=None, kin=None):
    """SuperLU factors of the tangent K in the symmetric fill-reducing order.

    factor is the splu function to call, this module's by default; the
    adjoint passes its own module's splu, so that its factorizations can be
    wrapped and timed apart from the solver's. kin is the ElementKinematics
    whose pattern K has: the first factorization of that pattern computes
    the ordering with TANGENT_SPLU and stores it as kin.tangent_ordering,
    and later ones reuse it. Without kin, or for another pattern, K is
    factorized with TANGENT_SPLU. A failed factorization raises
    SingularTangent.
    """
    factor = factor or splu
    ordered = (kin is not None and np.array_equal(K.indptr, kin.csc_indptr)
               and np.array_equal(K.indices, kin.csc_indices))
    try:
        if ordered and kin.tangent_ordering is not None:
            return kin.tangent_ordering.factorize(K, factor)
        lu = factor(K, **TANGENT_SPLU)
    except RuntimeError as err:
        raise SingularTangent(str(err)) from None
    if ordered:
        kin.tangent_ordering = TangentOrdering(K, lu.perm_c)
    return lu


# stopping rule of the refinement against K_T (see the module docstring)
BERR_TOL = 2.2e-16
MAX_REFINEMENT_STEPS = 5


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


class ConvergedTangent:
    """K_T of one converged state, and the factors that solve with it.

    system is the converged GlobalSystem, kin the ElementKinematics whose
    ordering factorizations reuse. lu, when given, are the corrector's last
    factors, of the matrix K (K_T unless given), and ref is the
    K^-1 [F_ext_x, F_ext_y] made with them. take_factors hands lu to the next
    predictor, and release drops the system and the factors solve made.
    factorizations and refinement_steps count what solve did.
    """

    def __init__(self, system, kin, lu=None, K=None, ref=None):
        self.system = system
        self.kin = kin
        self.lu = lu
        self.K = system.K_T if K is None else K
        self.ref = ref
        self.factorizations = 0
        self.refinement_steps = []
        self._own_lu = None     # solve's factors of K_T

    @cached_property
    def K_norm(self):
        """Infinity norm of K_T."""
        K = self.system.K_T
        return np.bincount(K.indices, weights=np.abs(K.data),
                           minlength=K.shape[0]).max()

    def take_factors(self):
        """Factors of K for a predictor: lu, which the tangent then no longer
        holds, or, for a retry, new ones."""
        lu, self.lu = self.lu, None
        return lu if lu is not None else _factorize(self.K, kin=self.kin)

    def release(self):
        """Drop the system and solve's factors, keeping what a predictor
        needs."""
        self.system = self._own_lu = None

    def solve(self, b, factor=None):
        """x with K_T x = b to solver precision; factor: see _factorize."""
        if self._own_lu is None and self.lu is not None:
            x, steps = refine(self.lu, self.system.K_T, self.K_norm, b)
            self.refinement_steps.append(steps)
            if x is not None:
                return x
        if self._own_lu is None:
            self._own_lu = _factorize(self.system.K_T, factor, self.kin)
            self.factorizations += 1
        return self._own_lu.solve(b)


def newton_update(model, control, lu, U, lam, target, rhs=None, ref=None):
    """One bordered Newton update of (U, lam) with the tangent factors lu.

    One lu.solve makes the reference load solves K^-1 [F_ext_x, F_ext_y]
    (unless ref already holds them) together with K^-1 rhs. The 2x2 solve
    then picks the intensity increments dlam that put the input point of
    U + ref dlam + K^-1 rhs on target. The predictor passes the counter-load
    increment as rhs, or nothing; the corrector passes the residual. Returns
    the updated (U, lam) and ref.
    """
    cols = [] if ref is not None else [model.F_ext_x, model.F_ext_y]
    if rhs is not None:
        cols.append(rhs)
    dU = None
    if cols:
        solved = lu.solve(np.column_stack(cols))
        if ref is None:
            ref = solved[:, :2]
        if rhs is not None:
            dU = solved[:, -1]
    defect = target - control.sample.interpolate(U)
    if dU is not None:
        defect = defect - control.sample.interpolate(dU)
    dlam = _solve_2x2(input_point_response(control.sample, ref), defect)
    U = U + ref @ dlam
    if dU is not None:
        U = U + dU
    return U, lam + dlam, ref


def corrector(model, control, U, lam, s_target, config,
              counter_scale=1.0):
    """Newton corrections until the residual norm and constraint are met.

    Each iteration factorizes the current tangent once, after dropping the
    last iteration's factors, and makes one newton_update with the residual.
    Returns (U, lam, ConvergedTangent, iterations, residual history). The
    tangent holds the converged system, the last iteration's factors, the
    tangent they factorize and its K^-1 [F_ext_x, F_ext_y]; when no
    iteration was made, it holds factors of K_T and no reference solves.
    """
    target = control.target(s_target)
    system = model.assemble(U, counter_scale=counter_scale)
    R = system.residual(lam[0], lam[1])
    rnorm = float(np.linalg.norm(R))
    history = [rnorm]
    lu = K = ref = None
    ctol = max(1e-12 * abs(control.u_in_norm), 1e-300)
    for it in range(config.max_corrector_iters + 1):
        defect = target - control.sample.interpolate(U)
        if rnorm <= config.tol_residual and np.all(np.abs(defect) <= 100 * ctol):
            if lu is None:
                K = system.K_T
                lu = _factorize(K, kin=model.kin)
            return (U, lam, ConvergedTangent(system, model.kin, lu, K, ref),
                    it, tuple(history))
        if it == config.max_corrector_iters:
            break
        lu = ref = None
        K = system.K_T
        lu = _factorize(K, kin=model.kin)
        U, lam, ref = newton_update(model, control, lu, U, lam, target, rhs=R)
        system = model.assemble(U, counter_scale=counter_scale)
        R = system.residual(lam[0], lam[1])
        rnorm = float(np.linalg.norm(R))
        history.append(rnorm)
        if not np.isfinite(rnorm):
            raise CorrectorFailed("residual diverged to non-finite values")
    raise CorrectorFailed(
        "no convergence in %d iterations (residual %.3e)"
        % (config.max_corrector_iters, rnorm)
    )


def solve_equilibrium_path(model, control, config, on_state=None):
    """March the input displacement to its full stroke.

    Reports converged states at the fractions m / steps (bisection substates
    are kept and flagged as not requested). on_state, when given, is called
    as on_state(state, tangent) with each requested state, in step order,
    and its ConvergedTangent, whose factors the next predictor goes on to
    use. When the hook returns, the path releases the tangent's system and
    any factors its solve made; the corrector's factors go once the next
    predictor has used them. A nonzero counter force on the model is ramped
    first with the input held at zero.
    """
    path = EquilibriumPath(states=[])
    has_counter = bool(np.any(model.F_counter))
    start = EquilibriumState(
        U=np.zeros(model.mesh.num_dofs), lambda_x=0.0, lambda_y=0.0,
        input_fraction=0.0, residual_norm=0.0, corrector_iterations=0,
        counter_scale=0.0 if has_counter else 1.0)
    # the last converged state's tangent: the next predictor takes its
    # factors, a retry factorizes its K again, and every predictor from it
    # reuses its reference load solves
    tangent = None
    # increments to make, the next one last, as (s, alpha, bisection depth,
    # requested); a failed one is retried after its bisected first half
    todo = [(m / config.steps, 1.0, 0, True)
            for m in range(config.steps, 0, -1)]
    if has_counter:
        todo.append((0.0, 1.0, 0, False))
    while todo:
        s_new, alpha_new, depth, requested = todo.pop()
        last = path.states[-1] if path.states else start
        d_alpha = alpha_new - last.counter_scale
        counter = d_alpha * model.F_counter if d_alpha != 0.0 else None
        try:
            if tangent is None:
                lu, ref = _factorize(model.assemble(last.U).K_T,
                                     kin=model.kin), None
            else:
                lu, ref = tangent.take_factors(), tangent.ref
            lam = np.array([last.lambda_x, last.lambda_y])
            U, lam, _ = newton_update(model, control, lu, last.U, lam,
                                      control.target(s_new), rhs=counter,
                                      ref=ref)
            lu = None
            U, lam, tangent, iters, hist = corrector(
                model, control, U, lam, s_new, config,
                counter_scale=alpha_new)
        except (CorrectorFailed, SingularTangent, Singular2x2,
                NonPositiveJacobian) as err:
            lu = None
            if depth >= config.max_bisections:
                raise PathFailed(last.input_fraction, str(err),
                                 partial=path) from err
            path.total_bisections += 1
            todo.append((s_new, alpha_new, depth + 1, requested))
            todo.append((0.5 * (last.input_fraction + s_new),
                         0.5 * (last.counter_scale + alpha_new), depth + 1,
                         False))
            continue
        path.total_corrector_iterations += iters
        st = EquilibriumState(
            U=U.copy(), lambda_x=float(lam[0]), lambda_y=float(lam[1]),
            input_fraction=s_new, residual_norm=hist[-1],
            corrector_iterations=iters, requested=requested,
            counter_scale=alpha_new, residual_history=hist)
        path.states.append(st)
        if requested and on_state is not None:
            on_state(st, tangent)
        tangent.release()
    return path


def linear_reference_solve(model, control, s=1.0):
    """One-shot linear displacement-controlled solve (bordered system).

    Assembles the tangent at U = 0 (which equals the pure linear stiffness
    with springs) and solves K U = lam_x Fx + lam_y Fy + F_c subject to the
    input-point constraint, as a dense-bordered sparse system. Used as the
    small-stroke oracle for the nonlinear path.
    """
    from scipy.sparse.linalg import spsolve

    system = model.assemble(np.zeros(model.mesh.num_dofs))
    n = model.mesh.num_dofs
    smp = control.sample
    Nmat = sp.csc_matrix(
        (np.concatenate([smp.weights, smp.weights]),
         (np.array([0, 0, 0, 1, 1, 1]),
          np.concatenate([smp.dofs_x, smp.dofs_y]))),
        shape=(2, n),
    )
    K = system.K_T
    F = sp.csc_matrix(np.column_stack([system.F_ext_x, system.F_ext_y]))
    A = sp.bmat([[K, -F], [Nmat, None]], format="csc")
    b = np.concatenate([model.F_counter, control.target(s)])
    x = spsolve(A, b)
    return x[:n], x[n:]
