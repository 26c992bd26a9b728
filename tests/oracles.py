"""Single-element and explicit-matrix reference forms for the tests.

These compute, one element or one design column at a time, the quantities
that varibc's fused kernels compute in batch: the stored energy, the blended
element force and tangent, and the explicit residual design Jacobian dR/dzeta.
The assembly and adjoint tests check the kernels against them; nothing in
the package uses them.
"""

import numpy as np
import scipy.sparse as sp

from varibc import material as mat
from varibc.material import NonPositiveJacobian


def strain_energy(F, params):
    """Stored energy per unit modulus and reference volume."""
    F = np.asarray(F, dtype=float)
    J = F[0, 0] * F[1, 1] - F[0, 1] * F[1, 0]
    if J <= 0.0:
        raise NonPositiveJacobian()
    C = F.T @ F
    trC = C[0, 0] + C[1, 1] + 1.0
    return (
        0.5 * params.mu0 * (trC - 3.0)
        - params.mu0 * np.log(J)
        + 0.5 * params.lam0 * (J - 1.0) ** 2
    )


def element_strain_energy(kin, e, U_e, E_e, gamma_e):
    """Interpolated strain energy of one element (oracle-friendly scalar)."""
    params = kin.material
    ue = np.asarray(U_e, dtype=float).reshape(3, 2)
    H = np.einsum("ia,ib->ab", ue, kin.grads[e])
    F = np.eye(2) + gamma_e * H
    psi = strain_energy(F, params)
    eps = kin.B[e] @ np.asarray(U_e, dtype=float)
    w_lin = 0.5 * eps @ params.D0 @ eps
    return E_e * kin.vol[e] * (psi + (1.0 - gamma_e**2) * w_lin)


def element_internal_force(kin, e, U_e, E_e, gamma_e):
    """Blended internal force vector of a single element (6,)."""
    f, _, _ = _element_force_tangent(kin, e, U_e, E_e, gamma_e, False)
    return f


def element_tangent(kin, e, U_e, E_e, gamma_e):
    """Blended tangent stiffness of a single element (6, 6)."""
    _, k, _ = _element_force_tangent(kin, e, U_e, E_e, gamma_e, True)
    return k


def _element_force_tangent(kin, e, U_e, E_e, gamma_e, want_tangent):
    params = kin.material
    U_e = np.asarray(U_e, dtype=float)
    ue = U_e.reshape(3, 2)
    H = np.einsum("ia,ib->ab", ue, kin.grads[e])
    F = np.eye(2) + gamma_e * H
    J = np.linalg.det(F)
    if J <= 0.0:
        raise NonPositiveJacobian(element=e)
    (S,), (D,), _ = mat.pk2_and_tangent_batch(F[None], params)
    g = kin.grads[e]
    BN = np.zeros((3, 6))
    for i in range(3):
        for a in range(2):
            c = 2 * i + a
            BN[0, c] = F[a, 0] * g[i, 0]
            BN[1, c] = F[a, 1] * g[i, 1]
            BN[2, c] = F[a, 0] * g[i, 1] + F[a, 1] * g[i, 0]
    sv = np.array([S[0, 0], S[1, 1], S[0, 1]])
    vol = kin.vol[e]
    f_nl = E_e * vol * (BN.T @ sv)
    eps = kin.B[e] @ U_e
    f_l = E_e * vol * (kin.B[e].T @ (params.D0 @ eps))
    f = gamma_e * f_nl + (1.0 - gamma_e**2) * f_l
    if not want_tangent:
        return f, None, f_nl
    kmat = E_e * vol * (BN.T @ D @ BN)
    geo = g @ S @ g.T  # (3, 3)
    kgeo = np.zeros((6, 6))
    kgeo[0::2, 0::2] = geo
    kgeo[1::2, 1::2] = geo
    k_nl = kmat + E_e * vol * kgeo
    k_l = E_e * kin.kl0[e]
    k = gamma_e**2 * k_nl + (1.0 - gamma_e**2) * k_l
    return f, k, f_nl


def rho_bar_jacobian(fields):
    """Explicit sparse d(rho_bar)/d(zeta), (elements x zeta).

    Built from FieldState's chain arrays, independently of FieldState.vjp:
    the density columns chain the projection and the filter, the BC-point
    columns the projected discs; the theta column is zero.
    """
    des = fields.designable
    n_e = len(fields.rho_bar)
    lift = sp.csr_matrix((np.ones(len(des)), (des, np.arange(len(des)))),
                         shape=(n_e, len(des)))
    d_rho = lift @ (sp.diags(fields.drho_bar_drho_tilde[des]) @ fields.W)
    d_pts = fields.drho_bar_drho_hat[:, None, None] * fields.drho_hat_dpts
    cols = fields.design.join(np.zeros((0, n_e)), d_pts.transpose(1, 2, 0),
                              np.zeros(n_e))
    return sp.hstack([d_rho, sp.csr_matrix(cols.T)], format="csc")


def residual_design_partials(model, system, lam_x, lam_y):
    """Explicit sparse dR/dzeta at one state (columns per design variable).

    The theta column is zero. The adjoint uses assembly.residual_vjp, its
    product with a multiplier vector, instead.
    """
    fields = model.fields
    kin = model.kin
    mesh = model.mesh
    n_dof = mesh.num_dofs
    arrays = system.elements
    # d F_int / d rho_bar per element, scattered: (2n x Ne) sparse
    dF_drho_bar = (arrays.dF_dE * fields.dE_drho_bar[:, None]
                   + arrays.dF_dgamma * fields.dgamma_drho_bar[:, None])
    A = sp.coo_matrix(
        (dF_drho_bar.ravel(),
         (kin.dofs.ravel(), np.repeat(np.arange(mesh.num_elements), 6))),
        shape=(n_dof, mesh.num_elements),
    ).tocsc()
    J = rho_bar_jacobian(fields)
    n_rho = len(fields.design.rho)
    d_rho = -(A @ J[:, :n_rho])

    U_e = system.U[kin.dofs]
    n_s = fields.design.num_supports
    cols = np.zeros((n_dof, 2 * n_s + 2))
    for k in range(n_s + 1):
        for c in range(2):
            col = k + c * n_s if k < n_s else 2 * n_s + c
            contrib = -(A @ J[:, n_rho + col].toarray().ravel())
            if k < n_s:
                spring = fields.dks_dsup[:, k, c][:, None] * U_e / 3.0
                scat = np.zeros(n_dof)
                np.add.at(scat, kin.dofs.ravel(), spring.ravel())
                contrib = contrib - scat
            else:
                share = np.repeat(fields.dfe_dload[:, c] * mesh.volumes / 3.0, 3)
                nodes = mesh.triangles.ravel()
                dFx = np.zeros(n_dof)
                dFy = np.zeros(n_dof)
                np.add.at(dFx, 2 * nodes, share)
                np.add.at(dFy, 2 * nodes + 1, share)
                contrib = contrib + lam_x * dFx + lam_y * dFy
            cols[:, col] = contrib
    theta_col = np.zeros((n_dof, 1))
    return sp.hstack([d_rho, sp.csc_matrix(cols), sp.csc_matrix(theta_col)],
                     format="csc")
