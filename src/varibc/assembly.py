"""Global vectors and matrices for the displacement-controlled model.

Internal forces blend nonlinear and linear element contributions through the
energy-interpolation factor gamma: the nonlinear part is evaluated at the
scaled displacement gamma * U_e (deformation gradient F = I + gamma grad U),
weighted by gamma, and the linear part by (1 - gamma^2). The assembled
tangent gamma^2 k_nl + (1 - gamma^2) k_l is then the exact derivative of the
internal force, which Newton convergence and the adjoint both rely on.

One fused kernel evaluates every element at once with batched matrix
products: it forms the nonlinear element stiffness
k_nl = E V (BN^T D BN + G S G^T) once and takes both the tangent and the
d f / d gamma term k_nl U_e from it. The global tangent is scattered straight
into a CSC pattern that ElementKinematics computes once per mesh, so each
assembly is one np.bincount into the nonzeros. tests/oracles.py keeps
single-element forms of the same quantities as the reference the kernel is
tested against.

Support springs are lumped k_e/3 to each element node on both DOFs; the
reference load vectors distribute f_e V_e / 3 likewise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import material as mat


class ElementKinematics:
    """Per-mesh constant element data: shape gradients, DOF maps, linear parts.

    Also holds the CSC pattern of the assembled tangent (csc_indices,
    csc_indptr: every DOF pair that shares an element plus the whole
    diagonal, rows sorted within each column), csc_scatter, which maps each
    entry (element, row, column) of the (Ne, 6, 6) element matrices, in C
    order, to its position in the CSC data array, and csc_diagonal, the
    position of each diagonal entry (i, i) in that array. tangent_ordering
    is the solver's fill-reducing order of that pattern
    (solver.TangentOrdering), set by the first factorization of a tangent.
    """

    def __init__(self, mesh, material_params):
        self.mesh = mesh
        self.material = material_params
        tri = mesh.triangles
        n_e = mesh.num_elements
        x = mesh.nodes[tri, 0]  # (Ne, 3)
        y = mesh.nodes[tri, 1]
        den = (2.0 * mesh.areas)[:, None]
        gx = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]],
                      axis=1) / den
        gy = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]],
                      axis=1) / den
        self.grads = np.stack([gx, gy], axis=2)      # (Ne, 3, 2)

        dofs = np.empty((n_e, 6), dtype=np.int64)
        dofs[:, 0::2] = 2 * tri
        dofs[:, 1::2] = 2 * tri + 1
        self.dofs = dofs
        n_dof = mesh.num_dofs
        rows = np.repeat(dofs, 6, axis=1).ravel()
        cols = np.tile(dofs, (1, 6)).ravel()
        diag = np.arange(n_dof) * (n_dof + 1)
        keys, positions = np.unique(
            np.concatenate([cols * n_dof + rows, diag]), return_inverse=True)
        self.csc_scatter = positions[:len(rows)]
        self.csc_diagonal = positions[len(rows):]
        # built through csc_matrix so the index arrays carry scipy's index
        # dtype and are not converted again on every assembly; every
        # assembled K shares them, so they are read-only
        pattern = sp.csc_matrix(
            (np.zeros(len(keys)), keys % n_dof,
             np.searchsorted(keys, np.arange(n_dof + 1) * n_dof)),
            shape=(n_dof, n_dof))
        self.csc_indices = pattern.indices
        self.csc_indptr = pattern.indptr
        self.csc_indices.setflags(write=False)
        self.csc_indptr.setflags(write=False)
        self.tangent_ordering = None

        # linear strain-displacement matrix (Voigt 11, 22, 12-engineering)
        B = np.zeros((n_e, 3, 6))
        B[:, 0, 0::2] = gx
        B[:, 1, 1::2] = gy
        B[:, 2, 0::2] = gy
        B[:, 2, 1::2] = gx
        self.B = B
        vol = mesh.areas * mesh.thickness
        self.vol = vol
        D0 = material_params.D0
        # unit-modulus linear element stiffness, scaled by E at assembly
        self.kl0 = vol[:, None, None] * (B.transpose(0, 2, 1) @ (D0 @ B))

    def nonlinear_B(self, F):
        """Total-Lagrangian strain-displacement matrix for gradient F.

        Column 2i + a of row (11, 22, 12) holds F_a1 g_i1, F_a2 g_i2 and
        F_a1 g_i2 + F_a2 g_i1 for node i, displacement component a.
        """
        gx = self.grads[:, :, 0, None]                    # (Ne, 3, 1)
        gy = self.grads[:, :, 1, None]
        Fx = F[:, None, :, 0]                             # (Ne, 1, 2)
        Fy = F[:, None, :, 1]
        return np.stack([Fx * gx, Fy * gy, Fx * gy + Fy * gx],
                        axis=1).reshape(-1, 3, 6)


@dataclass
class ElementArrays:
    """Per-element byproducts of one assembly, reused by the adjoint."""

    f_int: np.ndarray          # (Ne, 6) element internal forces
    dF_dE: np.ndarray          # (Ne, 6) d f_int / d E_e
    dF_dgamma: np.ndarray      # (Ne, 6) d f_int / d gamma_e


@dataclass
class GlobalSystem:
    """Assembled state at one displacement vector U."""

    U: np.ndarray
    F_int: np.ndarray
    K_T: sp.csc_matrix
    F_ext_x: np.ndarray
    F_ext_y: np.ndarray
    F_counter: np.ndarray
    elements: ElementArrays

    def residual(self, lam_x, lam_y):
        return (lam_x * self.F_ext_x + lam_y * self.F_ext_y + self.F_counter
                - self.F_int)


def internal_force_and_tangent(kin, U, E, gamma, want_tangent=True):
    """Fused continuum assembly over all elements.

    Returns (F_int (2n,), K (csc) or None, ElementArrays). Raises
    NonPositiveJacobian with the offending element index.
    """
    n_dof = kin.mesh.num_dofs
    u_e = U[kin.dofs][:, :, None]                           # (Ne, 6, 1)
    H = u_e.reshape(-1, 3, 2).transpose(0, 2, 1) @ kin.grads
    F = np.eye(2)[None] + gamma[:, None, None] * H
    S, D, _ = mat.pk2_and_tangent_batch(F, kin.material)
    BN = kin.nonlinear_B(F)
    BNt = BN.transpose(0, 2, 1)
    Evol = (E * kin.vol)[:, None]
    sv = np.stack([S[:, 0, 0], S[:, 1, 1], S[:, 0, 1]], axis=1)[:, :, None]
    f_nl = Evol * (BNt @ sv)[:, :, 0]
    # k = k_nl / (E V): material plus geometric stiffness at F
    k = BNt @ (D @ BN)
    geo = kin.grads @ S @ kin.grads.transpose(0, 2, 1)      # (Ne, 3, 3)
    k[:, 0::2, 0::2] += geo
    k[:, 1::2, 1::2] += geo
    f_l = E[:, None] * (kin.kl0 @ u_e)[:, :, 0]
    g = gamma[:, None]
    g2 = g**2
    f_e = g * f_nl + (1.0 - g2) * f_l
    F_int = np.bincount(kin.dofs.ravel(), weights=f_e.ravel(),
                        minlength=n_dof)

    dF_dgamma = f_nl + g * Evol * (k @ u_e)[:, :, 0] - 2.0 * g * f_l
    with np.errstate(divide="ignore", invalid="ignore"):
        dF_dE = f_e / E[:, None]
    dF_dE = np.where(np.isfinite(dF_dE), dF_dE, 0.0)
    arrays = ElementArrays(f_int=f_e, dF_dE=dF_dE, dF_dgamma=dF_dgamma)

    if not want_tangent:
        return F_int, None, arrays

    # element tangents gamma^2 k_nl + (1 - gamma^2) E kl0, formed in place
    k *= (g2 * Evol)[:, :, None]
    k += ((1.0 - g2) * E[:, None])[:, :, None] * kin.kl0
    data = np.bincount(kin.csc_scatter, weights=k.ravel(),
                       minlength=len(kin.csc_indices))
    K = sp.csc_matrix((data, kin.csc_indices, kin.csc_indptr),
                      shape=(n_dof, n_dof))
    return F_int, K, arrays


def assemble_support_matrix(k_s, mesh):
    """Diagonal ground-spring matrix: each element lumps k_e/3 to its nodes."""
    diag = np.zeros(mesh.num_dofs)
    share = np.repeat(k_s / 3.0, 3)
    nodes = mesh.triangles.ravel()
    np.add.at(diag, 2 * nodes, share)
    np.add.at(diag, 2 * nodes + 1, share)
    return sp.diags(diag).tocsc()


def assemble_external_refs(f_e, mesh):
    """Reference load vectors: f_e V_e split evenly over the element nodes.

    F_x acts on x-DOFs only and F_y on y-DOFs only, so the load intensity
    factors multiplying them are the applied force components in newtons.
    """
    share = np.repeat(f_e * mesh.volumes / 3.0, 3)
    nodes = mesh.triangles.ravel()
    Fx = np.zeros(mesh.num_dofs)
    Fy = np.zeros(mesh.num_dofs)
    np.add.at(Fx, 2 * nodes, share)
    np.add.at(Fy, 2 * nodes + 1, share)
    return Fx, Fy


class NonlinearModel:
    """Everything needed to evaluate residuals and tangents at one design.

    Bundles the element kinematics with the design-dependent fields (moduli,
    blend factors, springs, reference loads), the output springs, and the
    optional constant counter-force vector.
    """

    def __init__(self, kin, fields, output_springs=(), counter_force=None):
        self.kin = kin
        self.mesh = kin.mesh
        self.fields = fields
        self.E = fields.E
        self.gamma = fields.gamma
        self.K_s = assemble_support_matrix(fields.k_s, kin.mesh)
        Fx, Fy = assemble_external_refs(fields.f_e, kin.mesh)
        self.F_ext_x = Fx
        self.F_ext_y = Fy
        self.k_s_diagonal = self.K_s.diagonal()
        self.output_springs = tuple(output_springs)
        self.spring_dofs = np.array([d for d, _ in output_springs], dtype=np.int64)
        self.spring_k = np.array([k for _, k in output_springs], dtype=float)
        if counter_force is None:
            counter_force = np.zeros(kin.mesh.num_dofs)
        self.F_counter = np.asarray(counter_force, dtype=float)

    def with_counter_force(self, counter_force):
        m = NonlinearModel.__new__(NonlinearModel)
        m.__dict__.update(self.__dict__)
        m.F_counter = (np.zeros(self.mesh.num_dofs) if counter_force is None
                       else np.asarray(counter_force, dtype=float))
        return m

    def assemble(self, U, want_tangent=True, counter_scale=1.0):
        """GlobalSystem snapshot at U (tangent optional)."""
        F_int, K, arrays = internal_force_and_tangent(
            self.kin, U, self.E, self.gamma, want_tangent=want_tangent
        )
        F_int = F_int + self.K_s @ U
        np.add.at(F_int, self.spring_dofs, self.spring_k * U[self.spring_dofs])
        if want_tangent:
            # springs go into the diagonal of the element pattern, so every
            # K_T keeps the same sparsity pattern, explicit zeros included
            diagonal = self.kin.csc_diagonal
            K.data[diagonal] += self.k_s_diagonal
            np.add.at(K.data, diagonal[self.spring_dofs], self.spring_k)
        return GlobalSystem(
            U=U, F_int=F_int, K_T=K, F_ext_x=self.F_ext_x,
            F_ext_y=self.F_ext_y, F_counter=counter_scale * self.F_counter,
            elements=arrays,
        )


def build_model(mesh, design, params, material_params, A_f=None, W=None,
                output_springs=(), counter_force=None, kin=None):
    """Evaluate the design fields and wrap them in a NonlinearModel.

    Returns (fields, model). Pass A_f/W back in across design iterations to
    keep the load normalization frozen and skip rebuilding the filter.
    """
    from . import design_field as df

    fields = df.evaluate_fields(design, mesh, params, A_f=A_f, W=W)
    if kin is None:
        kin = ElementKinematics(mesh, material_params)
    model = NonlinearModel(kin, fields, output_springs=output_springs,
                           counter_force=counter_force)
    return fields, model


def residual_vjp(model, system, lam_x, lam_y, psi):
    """psi^T dR/dzeta assembled through the field chain rules.

    Returns a flat design-gradient contribution in the
    [rho, X_s, Y_s, X_f, Y_f, theta] layout. The theta column of dR/dzeta is
    identically zero.
    """
    fields = model.fields
    kin = model.kin
    mesh = model.mesh
    U = system.U
    psi_e = psi[kin.dofs]                                   # (Ne, 6)
    gE = np.einsum("ni,ni->n", psi_e, system.elements.dF_dE)
    ggam = np.einsum("ni,ni->n", psi_e, system.elements.dF_dgamma)
    U_e = U[kin.dofs]
    gks = np.einsum("ni,ni->n", psi_e, U_e) / 3.0
    # load columns: R includes +lam_x F_x + lam_y F_y
    lam_psi = (lam_x * psi[kin.dofs[:, 0::2]].sum(axis=1)
               + lam_y * psi[kin.dofs[:, 1::2]].sum(axis=1))
    gf = lam_psi * mesh.volumes / 3.0

    sens_rho_bar = -(gE * fields.dE_drho_bar + ggam * fields.dgamma_drho_bar)
    des = mesh.designable
    d_rho = fields.W.T @ (sens_rho_bar[des] * fields.drho_bar_drho_tilde[des])

    hat = sens_rho_bar * fields.drho_bar_drho_hat           # (Ne,)
    d_pts = np.einsum("n,nkc->kc", hat, fields.drho_hat_dpts)
    d_pts[:-1] += np.einsum("n,nkc->kc", -gks, fields.dks_dsup)
    d_pts[-1] += np.einsum("n,nc->c", gf, fields.dfe_dload)

    n_s = fields.design.num_supports
    out = np.concatenate([
        d_rho, d_pts[:n_s, 0], d_pts[:n_s, 1], d_pts[n_s], [0.0]
    ])
    return out
