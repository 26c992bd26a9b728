"""Method of Moving Asymptotes, one iteration at a time.

Standard MMA (Svanberg 1987; September-2007 reference algorithm) in the one
form varibc poses:

    minimize f0(x) + a0 z + sum(c_i y_i + 0.5 d_i y_i^2)
    s.t.     f_i(x) - a_i z - y_i <= 0,   0 <= x <= 1,  y >= 0, z >= 0

optimizer.mma_update normalizes every free variable to the unit box, so each
range factor of the reference algorithm is 1, and the coefficients a0 = 1,
a_i = 0, c_i = 1000, d_i = 1 are fixed. The asymptotes start at x -+ 0.5,
adapt by 0.7 (oscillation) and 1.2 (monotone progress) and are clamped to
x -+ [1e-4, 10]. Move limits are accepted per variable.

The subproblem is solved through its dual (Svanberg 1987's own method) in
the m multipliers lam >= 0. With p = p0 + P^T lam and q = q0 + Q^T lam,
x_j = clip((l_j sqrt(p_j) + u_j sqrt(q_j)) / (sqrt(p_j) + sqrt(q_j)),
alfa_j, beta_j) minimizes x_j's terms in closed form; a = 0 gives z = 0 and
y = max(0, lam - c). The dual is concave, with gradient g(x) - y - b and
minus Hessian G D^-1 G^T over the x_j inside their interval, plus 1 where
lam_i > c (G = dg/dx, D the second x-derivatives of the x terms).

Newton steps start at lam = 0, hold lam_i at 0 where lam_i = 0 and the
gradient is not positive, and project onto lam >= 0. Their matrix counts
each clipped x_j with weight CLIPPED: with no x free and no lam_i > c it
would be zero, with fewer free x than stepped constraints singular, and
x_j that leave their bound along a step add curvature it cannot see. A
trial point is taken if it passes Armijo's test on the dual value, which
forgives a loss of ROUNDOFF times the dual's sum over x (near the optimum
the gain is below the value's round-off); a rejected one multiplies the
matrix's diagonal by a larger 1 + damping, an accepted one shrinks it.
Constraints that repeat a quantity over load cases give the matrix nearly
equal rows, whose Newton step overshoots by orders of magnitude in a
direction that backtracking along it cannot correct; damping turns the
step towards the gradient. The solve stops at a projected gradient of
DUAL_TOL relative to b; with no barrier, x is the subproblem's optimum,
clipped variables on their bounds.
"""

from __future__ import annotations

import numpy as np

ASYINIT = 0.5
ASYINCR = 1.2
ASYDECR = 0.7
ALBEFA = 0.1
RAA0 = 1e-5
C = 1000.0            # c_i: the price of the constraint slack y_i
DUAL_TOL = 1e-12      # projected dual gradient, relative to max(|b|, 1)
ROUNDOFF = 1e-13      # Armijo slack, relative to the dual's sum over x
CLIPPED = 1e-4        # weight of a clipped x_j in the Newton matrix
MAX_DUAL_EVALUATIONS = 500  # of the dual, rejected trial points included


class SubproblemError(RuntimeError):
    """The subproblem's dual solve met a non-finite value or a Newton matrix
    it cannot solve, or ran out of evaluations."""


def mmasub(iter_count, x, xold1, xold2, df0dx, fval, dfdx, low, upp, move):
    """One MMA iteration in the unit box.

    dfdx has shape (m, n); move is a per-variable cap on |x_new - x|.
    low and upp are read from iteration 3 on. Returns (x_new, low, upp).
    """
    x = np.asarray(x, dtype=float)
    move = np.broadcast_to(np.asarray(move, dtype=float), x.shape)

    if iter_count <= 2:
        low = x - ASYINIT
        upp = x + ASYINIT
    else:
        zzz = (x - xold1) * (xold1 - xold2)
        factor = np.ones(x.size)
        factor[zzz > 0] = ASYINCR
        factor[zzz < 0] = ASYDECR
        low = x - factor * (xold1 - low)
        upp = x + factor * (upp - xold1)
        # near clamp at 1e-4: lets oscillating variables damp out instead
        # of limit-cycling at the clamp distance
        low = np.clip(low, x - 10.0, x - 1e-4)
        upp = np.clip(upp, x + 1e-4, x + 10.0)

    alfa = np.maximum(np.maximum(low + ALBEFA * (x - low), x - move), 0.0)
    beta = np.minimum(np.minimum(upp - ALBEFA * (upp - x), x + move), 1.0)

    ux1 = upp - x
    xl1 = x - low
    ux2 = ux1 * ux1
    xl2 = xl1 * xl1

    df0p = np.maximum(df0dx, 0.0)
    df0m = np.maximum(-df0dx, 0.0)
    pq0 = 0.001 * (df0p + df0m) + RAA0
    p0 = (df0p + pq0) * ux2
    q0 = (df0m + pq0) * xl2

    dfp = np.maximum(dfdx, 0.0)
    dfm = np.maximum(-dfdx, 0.0)
    pq = 0.001 * (dfp + dfm) + RAA0
    P = (dfp + pq) * ux2[None, :]
    Q = (dfm + pq) * xl2[None, :]
    b = P @ (1.0 / ux1) + Q @ (1.0 / xl1) - fval

    x_new, _, _, _ = subsolv(low, upp, alfa, beta, p0, q0, P, Q, b)
    return x_new, low, upp


def subsolv(low, upp, alfa, beta, p0, q0, P, Q, b):
    """Dual Newton solve of the MMA subproblem, with a0 = 1, a = 0,
    c = C and d = 1. Returns (x, y, z, lam)."""
    m = b.size
    tol = DUAL_TOL * max(np.abs(b).max(), 1.0)

    def dual(lam):
        """(value, gradient, x, free, p, q, sum over x) of the dual."""
        p = p0 + lam @ P
        q = q0 + lam @ Q
        sp, sq = np.sqrt(p), np.sqrt(q)
        x = (low * sp + upp * sq) / (sp + sq)
        free = (alfa < x) & (x < beta)
        np.clip(x, alfa, beta, out=x)
        ux, xl = upp - x, x - low
        w = np.sum(p / ux + q / xl)
        y = np.maximum(lam - C, 0.0)
        value = w - 0.5 * (y @ y) - lam @ b
        if not np.isfinite(value):
            raise SubproblemError("non-finite dual value")
        grad = P @ (1.0 / ux) + Q @ (1.0 / xl) - y - b
        return value, grad, x, free, p, q, w

    lam = np.zeros(m)
    value, grad, x, free, p, q, w = dual(lam)
    evaluations, damping, H = 1, 0.0, None
    while np.abs(np.maximum(lam + grad, 0.0) - lam).max() > tol:
        if evaluations == MAX_DUAL_EVALUATIONS:
            raise SubproblemError(f"dual solve unconverged after "
                                  f"{evaluations} evaluations")
        if H is None:
            ux, xl = upp - x, x - low
            G = P / ux**2 - Q / xl**2
            D = 2.0 * (p / ux**3 + q / xl**3) / np.where(free, 1.0, CLIPPED)
            H = (G / D) @ G.T
            H[np.diag_indices(m)] += lam > C
        step = np.flatnonzero(~((lam == 0.0) & (grad <= 0.0)))
        Hs = H[np.ix_(step, step)]
        Hs[np.diag_indices(step.size)] *= 1.0 + damping
        trial = lam.copy()
        try:
            trial[step] += np.linalg.solve(Hs, grad[step])
        except np.linalg.LinAlgError as err:
            raise SubproblemError(str(err)) from None
        np.maximum(trial, 0.0, out=trial)
        new = dual(trial)
        evaluations += 1
        if new[0] >= value + 1e-4 * (grad @ (trial - lam)) - ROUNDOFF * w:
            lam, H, damping = trial, None, 0.25 * damping
            value, grad, x, free, p, q, w = new
        else:
            damping = max(4.0 * damping, 1e-3)
    return x, np.maximum(lam - C, 0.0), 0.0, lam
