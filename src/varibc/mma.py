"""Method of Moving Asymptotes, one iteration at a time.

Standard MMA (Svanberg 1987; September-2007 reference algorithm) for

    minimize f0(x) + a0 z + sum(c_i y_i + 0.5 d_i y_i^2)
    s.t.     f_i(x) - a_i z - y_i <= 0,   xmin <= x <= xmax,  y >= 0, z >= 0

with a0 = 1, a_i = 0, c_i = 1000, d_i = 1 and the default asymptote
settings: initialization at 0.5 of the variable range, adaptation factors
0.7 (oscillation) and 1.2 (monotone progress). The subproblem is solved by
the usual primal-dual Newton interior-point method. Move limits are accepted
per variable.

The subproblem's primal-dual iterate is one array w holding
(x, y, z, lam, xsi, eta, mu, zet, s), and the Newton direction dw and the
residual r share its layout; the named parts are views (z and zet of length
1). Every part but x stays positive, so the step length takes one maximum of
-1.01 dw / w over them, beside the two bounds on x, and each trial point of
the line search is one update w = w_old + steg dw.

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


def mmasub(iter_count, x, xmin, xmax, xold1, xold2, df0dx, fval, dfdx, low,
           upp, move):
    """One MMA iteration.

    dfdx has shape (m, n); move is a per-variable cap on |x_new - x| in the
    same units as x. Returns (x_new, low, upp).
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    m = len(fval)
    move = np.broadcast_to(np.asarray(move, dtype=float), (n,))

    xrange = np.maximum(xmax - xmin, 1e-5)
    if iter_count <= 2:
        low = x - ASYINIT * xrange
        upp = x + ASYINIT * xrange
    else:
        zzz = (x - xold1) * (xold1 - xold2)
        factor = np.ones(n)
        factor[zzz > 0] = ASYINCR
        factor[zzz < 0] = ASYDECR
        low = x - factor * (xold1 - low)
        upp = x + factor * (upp - xold1)
        # near clamp at 1e-4 of the range: lets oscillating variables damp
        # out instead of limit-cycling at the clamp distance
        low = np.clip(low, x - 10.0 * xrange, x - 1e-4 * xrange)
        upp = np.clip(upp, x + 1e-4 * xrange, x + 10.0 * xrange)

    alfa = np.maximum.reduce([low + ALBEFA * (x - low), x - move, xmin])
    beta = np.minimum.reduce([upp - ALBEFA * (upp - x), x + move, xmax])

    ux1 = upp - x
    xl1 = x - low
    ux2 = ux1 * ux1
    xl2 = xl1 * xl1
    xmami_inv = 1.0 / xrange

    df0p = np.maximum(df0dx, 0.0)
    df0m = np.maximum(-df0dx, 0.0)
    pq0 = 0.001 * (df0p + df0m) + RAA0 * xmami_inv
    p0 = (df0p + pq0) * ux2
    q0 = (df0m + pq0) * xl2

    dfp = np.maximum(dfdx, 0.0)
    dfm = np.maximum(-dfdx, 0.0)
    pq = 0.001 * (dfp + dfm) + RAA0 * xmami_inv[None, :]
    P = (dfp + pq) * ux2[None, :]
    Q = (dfm + pq) * xl2[None, :]
    b = P @ (1.0 / ux1) + Q @ (1.0 / xl1) - fval

    x_new, _, _, _ = subsolv(m, n, low, upp, alfa, beta, p0, q0, P, Q, 1.0,
                             np.zeros(m), b, np.full(m, 1000.0), np.ones(m))
    return x_new, low, upp


def subsolv(m, n, low, upp, alfa, beta, p0, q0, P, Q, a0, a, b, c, d):
    """Primal-dual Newton interior-point solve of the MMA subproblem."""
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
    mu[:] = np.maximum(1.0, 0.5 * c)
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
        np.subtract(c + d * y - mu, lam, out=rey)
        rez[0] = a0 - zet[0] - a @ lam
        np.subtract(gvec - a * z[0] - y + s, b, out=relam)
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
            dely = c + d * y - lam - epsi / y
            delz = a0 - a @ lam - epsi / z[0]
            dellam = gvec - a * z[0] - y - b + epsi / lam
            diagx = 2.0 * (plam / (ux1 * ux2) + qlam / (xl1 * xl2))
            diagx = diagx + xsi / xa + eta / bx
            diagy = d + mu / y
            diaglam = s / lam
            diaglamyi = diaglam + 1.0 / diagy

            # m is small here: solve the (m+1) dense system
            delxd = delx / diagx
            blam = dellam + dely / diagy - GG @ delxd
            np.divide(GG, diagx, out=GGd)
            Alam = np.diag(diaglamyi) + GGd @ GG.T
            AA = np.empty((m + 1, m + 1))
            AA[:m, :m] = Alam
            AA[:m, m] = a
            AA[m, :m] = a
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
