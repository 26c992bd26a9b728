"""Method of Moving Asymptotes, one iteration at a time.

Standard MMA (Svanberg 1987; September-2007 reference algorithm) in the one
form varibc poses:

    minimize f0(x) + a0 z + sum(c_i y_i + 0.5 d_i y_i^2)
    s.t.     f_i(x) - a_i z - y_i <= 0,   0 <= x <= 1,  y >= 0, z >= 0

optimizer.mma_update normalizes every free variable to the unit box, so each
range factor of the reference algorithm is 1, and the coefficients a0 = 1,
a_i = 0, c_i = 1000, d_i = 1 are fixed in subsolv's body. The asymptotes
start at x -+ 0.5, adapt by 0.7 (oscillation) and 1.2 (monotone progress)
and are clamped to x -+ [1e-4, 10]. The subproblem is solved by the usual
primal-dual Newton interior-point method. Move limits are accepted per
variable.

The subproblem's primal-dual iterate is one array w holding
(x, y, z, lam, xsi, eta, mu, zet, s), and the Newton direction dw and the
residual r share its layout; the named parts are views (z and zet of length
1). Every part but x stays positive, so the step length takes one maximum of
-1.01 dw / w over them, beside the two bounds on x, and each trial point of
the line search is one update w = w_old + steg dw.

With a = 0, z decouples from lam, yet the Newton system stays the bordered
(m+1) one, with a zero border: np.linalg.solve rounds dlam differently in
the last bits over m+1 rows than over m, so solving the z row on its own
would move x_new (on 8 of 16 subproblems captured from an h = 3 mm gripper
run, by up to 4.4e-16).

Each Newton step of the subproblem solve works in arrays allocated once per
solve. The products of an iterate (upp - x, x - low and their squares,
x - alfa, beta - x, p0 + P^T lam, q0 + Q^T lam and the constraint values) are
evaluated once per trial point of the line search, so the step after it reads
those of the accepted point instead of recomputing them, and the residual is
written part by part into one vector. GG = P/(upp - x)^2 - Q/(x - low)^2 and
GG/diagx are formed in place. The solve copies P and Q to C order once, so
every (m, n) pass runs along the n variables (optimizer.mma_update's column
gather hands them over in Fortran order, where those passes run m-element
inner loops). The matrix products' summation order follows the layout, so
the iterates differ from those on Fortran-ordered operands in the last bits
only.
"""

from __future__ import annotations

import numpy as np

ASYINIT = 0.5
ASYINCR = 1.2
ASYDECR = 0.7
ALBEFA = 0.1
RAA0 = 1e-5
EPSIMIN = 1e-7


class SubproblemError(RuntimeError):
    """The dual subproblem solve failed to produce finite iterates."""


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
    """Primal-dual Newton interior-point solve of the MMA subproblem, with
    a0 = 1, a = 0, c = 1000 and d = 1. Returns (x, y, z, lam)."""
    m, n = P.shape

    def parts(v):
        return np.split(v, np.cumsum([n, m, 1, m, n, n, m, 1]))

    w_old, dw, r = np.empty((3, 3 * n + 4 * m + 2))
    w = np.ones_like(r)  # y, z, lam, zet and s start at 1
    x, y, z, lam, xsi, eta, mu, zet, s = parts(w)
    dx, dy, dz, dlam, dxsi, deta, dmu, dzet, ds = parts(dw)
    rex, rey, rez, relam, rexsi, reeta, remu, rezet, res = parts(r)
    x[:] = 0.5 * (alfa + beta)
    xsi[:] = np.maximum(1.0 / np.maximum(x - alfa, 1e-12), 1.0)
    eta[:] = np.maximum(1.0 / np.maximum(beta - x, 1e-12), 1.0)
    mu[:] = 500.0  # max(1, c / 2)
    epsi = 1.0
    # C order: the (m, n) passes below then run along the n variables
    P = np.ascontiguousarray(P)
    Q = np.ascontiguousarray(Q)

    # products at the current iterate (dpsi = d psi / dx), which residuals()
    # and the Newton step read: evaluated once per trial point, so the line
    # search's accepted point leaves them for the next step
    ux1, xl1, ux2, xl2, xa, bx, plam, qlam, dpsi = np.empty((9, n))
    gvec = np.empty(m)
    GG = np.empty((m, n))
    GGd = np.empty((m, n))

    def products():
        np.subtract(upp, x, out=ux1)
        np.subtract(x, low, out=xl1)
        np.multiply(ux1, ux1, out=ux2)
        np.multiply(xl1, xl1, out=xl2)
        np.subtract(x, alfa, out=xa)
        np.subtract(beta, x, out=bx)
        np.matmul(P.T, lam, out=plam)
        np.add(plam, p0, out=plam)
        np.matmul(Q.T, lam, out=qlam)
        np.add(qlam, q0, out=qlam)
        np.add(P @ (1.0 / ux1), Q @ (1.0 / xl1), out=gvec)
        np.subtract(plam / ux2, qlam / xl2, out=dpsi)

    def residuals(epsi_):
        np.add(dpsi - xsi, eta, out=rex)
        np.subtract(1000.0 + y - mu, lam, out=rey)
        rez[0] = 1.0 - zet[0]
        np.subtract(gvec - y + s, b, out=relam)
        np.subtract(xsi * xa, epsi_, out=rexsi)
        np.subtract(eta * bx, epsi_, out=reeta)
        np.subtract(mu * y, epsi_, out=remu)
        rezet[0] = zet[0] * z[0] - epsi_
        np.subtract(lam * s, epsi_, out=res)
        # the norm as np.linalg.norm computes it; max |r| without a copy
        return float(np.sqrt(r.dot(r))), float(max(r.max(), -r.min()))

    products()
    while epsi > EPSIMIN:
        residunorm, residumax = residuals(epsi)
        for _ in range(200):
            if residumax <= 0.9 * epsi:
                break
            np.divide(P, ux2, out=GG)
            np.divide(Q, xl2, out=GGd)
            GG -= GGd
            delx = dpsi - epsi / xa + epsi / bx
            dely = 1000.0 + y - lam - epsi / y
            delz = 1.0 - epsi / z[0]
            dellam = gvec - y - b + epsi / lam
            diagx = 2.0 * (plam / (ux1 * ux2) + qlam / (xl1 * xl2))
            diagx = diagx + xsi / xa + eta / bx
            diagy = 1.0 + mu / y
            diaglam = s / lam
            diaglamyi = diaglam + 1.0 / diagy

            # m is small here: solve the (m+1) dense system, bordered by
            # a = 0 (see the module docstring)
            delxd = delx / diagx
            blam = dellam + dely / diagy - GG @ delxd
            np.divide(GG, diagx, out=GGd)
            AA = np.zeros((m + 1, m + 1))
            AA[:m, :m] = np.diag(diaglamyi) + GGd @ GG.T
            AA[m, m] = -zet[0] / z[0]
            bb = np.concatenate([blam, [delz]])
            try:
                solut = np.linalg.solve(AA, bb)
            except np.linalg.LinAlgError as err:
                raise SubproblemError(str(err)) from None
            dlam[:] = solut[:m]
            dz[:] = solut[m]
            dx[:] = -delxd - (GG.T @ dlam) / diagx
            dy[:] = -dely / diagy + dlam / diagy
            dxsi[:] = -xsi + epsi / xa - (xsi * dx) / xa
            deta[:] = -eta + epsi / bx + (eta * dx) / bx
            dmu[:] = -mu + epsi / y - (mu * dy) / y
            dzet[:] = -zet + epsi / z - zet * dz / z
            ds[:] = -s + epsi / lam - (s * dlam) / lam

            # every part but x stays positive; x stays inside (alfa, beta)
            stmxx = np.max(-1.01 * dw[n:] / w[n:])
            stmalfa = np.max(-1.01 * dx / xa)
            stmbeta = np.max(1.01 * dx / bx)
            steg = 1.0 / max(stmxx, stmalfa, stmbeta, 1.0)

            w_old[:] = w
            resinew = 2.0 * residunorm
            for _ in range(50):
                if resinew <= residunorm:
                    break
                np.add(w_old, steg * dw, out=w)
                products()
                resinew, residumax = residuals(epsi)
                steg *= 0.5
            residunorm = resinew
            if not np.isfinite(residunorm):
                raise SubproblemError("non-finite subproblem residual")
        epsi *= 0.1
    return x, y, float(z[0]), lam
