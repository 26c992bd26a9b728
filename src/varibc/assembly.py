"""Global vectors and matrices for the displacement-controlled model.

Internal forces blend nonlinear and linear element contributions through the
energy-interpolation factor gamma: the nonlinear part is evaluated at the
scaled displacement gamma * U_e (deformation gradient F = I + gamma grad U),
weighted by gamma, and the linear part by (1 - gamma^2). The assembled
tangent gamma^2 k_nl + (1 - gamma^2) k_l is then the exact derivative of the
internal force, which Newton convergence and the adjoint both rely on.

One fused kernel evaluates every element at once, one scalar component at a
time: each component is an array over the elements, and every per-element
array keeps the element index last, so each operation runs over contiguous
memory. The forces and the d f / d gamma term need no element matrix. With
the first Piola stress P = F S, the linear stress sigma = D0 eps and, for
node i, the shape gradient g_i, the element force is
f_e = E V (gamma P + (1 - gamma^2) sigma) g_i, and
k_nl U_e = E V (F W + H S) g_i, where H is the displacement gradient and W
the stress tensor of D BN U_e. Only the tangent forms the (6, 6, Ne) element
matrices, gamma^2 E V (BN^T D BN + G S G^T) + (1 - gamma^2) E kl0, on the
upper triangle, row by row, mirroring each row into its column. They are
scattered straight into a CSC pattern that ElementKinematics computes once
per mesh, so each assembly is one np.bincount into the nonzeros. The large
work arrays of the tangent (BN, D BN and the element matrices) belong to the
ElementKinematics too, and each assembly overwrites them, so repeated
assemblies allocate and page-fault none of them afresh. What an assembly
returns (F_int, K_T's data, the ElementArrays) is always a fresh array:
callers keep tangents and systems across later assemblies.
tests/oracles.py keeps single-element forms of the same quantities as the
reference the kernel is tested against.

One rule, lump_to_nodes, places the element fields on the nodes: each
element's value is split equally over its three nodes. It lumps the support
springs k_e onto both DOFs of each node and the reference loads f_e V_e onto
the x-DOFs of F_ext_x and the y-DOFs of F_ext_y.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import material as mat, mesh as msh


class ElementKinematics:
    """Per-mesh constant element data: shape gradients, DOF maps, linear parts.

    Every per-element array is stored with the element index last, so that
    the kernel's arithmetic runs over contiguous rows of elements. grads
    (Ne, 3, 2), dofs (Ne, 6) and kl0 (Ne, 6, 6) are element-major views of
    that storage: grads[e] is element e's gradient matrix, and
    grads.transpose(2, 1, 0), dofs.T and kl0.transpose(1, 2, 0) are
    contiguous.

    Also holds the CSC pattern of the assembled tangent (csc_indices,
    csc_indptr: every DOF pair that shares an element plus the whole
    diagonal, rows sorted within each column). It is built from the node
    pairs that share an element, each expanded into its 2x2 block of DOFs;
    a node that no element references has its two diagonal entries only.
    csc_scatter maps each entry (row, column, element) of the (6, 6, Ne)
    element matrices, in C order, to its position in the CSC data array,
    and csc_diagonal is the position of each diagonal entry (i, i) in that
    array. tangent_ordering is the solver's fill-reducing order of that
    pattern (solver.TangentOrdering), set by the first factorization of a
    tangent.

    tangent_work holds the kernel's BN and D BN (3, 6, Ne) and element
    matrices (6, 6, Ne), which every tangent assembly overwrites.
    """

    def __init__(self, mesh, material_params):
        self.mesh = mesh
        self.material = material_params
        tri = mesh.triangles.T                            # (3, Ne)
        n_e = mesh.num_elements
        gx, gy = msh.shape_gradients(mesh)
        self.grads = np.array([gx, gy]).transpose(2, 1, 0)

        dofs = np.empty((6, n_e), dtype=np.int64)
        dofs[0::2] = 2 * tri
        dofs[1::2] = 2 * tri + 1
        self.dofs = dofs.T
        n_dof = mesh.num_dofs
        # node pairs (I, J) = (tri[e, i], tri[e, j]) as keys J n + I, in
        # element-major order, which np.unique sorts faster
        n_nodes = mesh.num_nodes
        t = mesh.triangles
        keys, inverse = np.unique(
            (t[:, None, :] * n_nodes + t[:, :, None]).ravel(),
            return_inverse=True)
        col, row = np.divmod(keys, n_nodes)
        count = np.bincount(col, minlength=n_nodes)
        rank = np.arange(len(keys)) - (np.cumsum(count) - count)[col]
        # DOF columns 2J and 2J + 1 hold rows 2I and 2I + 1 of each I in node
        # column J, so entry (2I + a, 2J + b) sits a + 2 b count(J) past
        # 2 rank(I) into column 2J; block[pair, a, b] is that position. A
        # node that no element references keeps the diagonal its columns
        # start with.
        indptr = np.zeros(n_dof + 1, dtype=np.int64)
        np.cumsum(np.repeat(np.maximum(2 * count, 1), 2), out=indptr[1:])
        ab = np.arange(2)
        block = ((indptr[2 * col] + 2 * rank)[:, None, None] + ab[:, None]
                 + 2 * count[col][:, None, None] * ab)
        column = np.arange(n_dof).repeat(np.diff(indptr))
        indices = column.copy()
        indices[block] = 2 * row[:, None, None] + ab[:, None]
        self.csc_diagonal = np.flatnonzero(indices == column)
        # entry (2i + a, 2j + b, e) of the (6, 6, Ne) element matrices
        self.csc_scatter = block[inverse].reshape(n_e, 3, 3, 2, 2).transpose(
            1, 3, 2, 4, 0).ravel()
        # built through csc_matrix so the index arrays carry scipy's index
        # dtype and are not converted again on every assembly; every
        # assembled K shares them, so they are read-only
        pattern = sp.csc_matrix((np.zeros(len(indices)), indices, indptr),
                                shape=(n_dof, n_dof))
        self.csc_indices = pattern.indices
        self.csc_indptr = pattern.indptr
        self.csc_indices.setflags(write=False)
        self.csc_indptr.setflags(write=False)
        self.tangent_ordering = None

        # linear strain-displacement matrix (Voigt 11, 22, 12-engineering),
        # which only kl0 reads
        B = np.zeros((n_e, 3, 6))
        B[:, 0, 0::2] = gx.T
        B[:, 1, 1::2] = gy.T
        B[:, 2, 0::2] = gy.T
        B[:, 2, 1::2] = gx.T
        vol = mesh.areas * mesh.thickness
        self.vol = vol
        D0 = material_params.D0
        # unit-modulus linear element stiffness, scaled by E at assembly and
        # stored (6, 6, Ne) like the kernel's element matrices
        kl0 = vol[:, None, None] * (B.transpose(0, 2, 1) @ (D0 @ B))
        self.kl0 = np.ascontiguousarray(kl0.transpose(1, 2, 0)).transpose(
            2, 0, 1)
        self.tangent_work = (np.empty((3, 6, n_e)), np.empty((3, 6, n_e)),
                             np.empty((6, 6, n_e)))


@dataclass
class ElementArrays:
    """Per-element byproducts of one assembly, reused by the adjoint.

    Each is an element-major view of (6, Ne) storage: f_int.T is contiguous.
    """

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
    gx, gy = kin.grads.transpose(2, 1, 0)                   # (3, Ne) each
    dofs = kin.dofs.T                                       # (6, Ne)
    u = U[dofs]
    ux, uy = u[0::2], u[1::2]
    # displacement gradient H_ab = sum_i u_ia g_ib; F = I + gamma H
    H11 = np.einsum("in,in->n", ux, gx)
    H12 = np.einsum("in,in->n", ux, gy)
    H21 = np.einsum("in,in->n", uy, gx)
    H22 = np.einsum("in,in->n", uy, gy)
    F = np.empty((2, 2, len(E)))
    F[0, 0] = 1.0 + gamma * H11
    F[0, 1] = gamma * H12
    F[1, 0] = gamma * H21
    F[1, 1] = 1.0 + gamma * H22
    S, D, _ = mat.pk2_and_tangent_batch(F.transpose(2, 0, 1), kin.material)
    F11, F12, F21, F22 = F[0, 0], F[0, 1], F[1, 0], F[1, 1]
    S11, S12, S22 = S[:, 0, 0], S[:, 0, 1], S[:, 1, 1]
    D00, D01, D02 = D[:, 0, 0], D[:, 0, 1], D[:, 0, 2]
    D11, D12, D22 = D[:, 1, 1], D[:, 1, 2], D[:, 2, 2]
    # first Piola stress P = F S of the nonlinear part
    P11 = F11 * S11 + F12 * S12
    P12 = F11 * S12 + F12 * S22
    P21 = F21 * S11 + F22 * S12
    P22 = F21 * S12 + F22 * S22
    # linear stress D0 eps of the small strain (H11, H22, H12 + H21)
    D0 = kin.material.D0
    s11 = D0[0, 0] * H11 + D0[0, 1] * H22
    s22 = D0[1, 0] * H11 + D0[1, 1] * H22
    s12 = D0[2, 2] * (H12 + H21)
    # k_nl u_e / (E V) = (F W + H S) g_i, with W the tensor of D BN u_e
    b11 = F11 * H11 + F21 * H21
    b22 = F12 * H12 + F22 * H22
    b12 = F11 * H12 + F21 * H22 + F12 * H11 + F22 * H21
    w11 = D00 * b11 + D01 * b22 + D02 * b12
    w22 = D01 * b11 + D11 * b22 + D12 * b12
    w12 = D02 * b11 + D12 * b22 + D22 * b12
    Q11 = F11 * w11 + F12 * w12 + H11 * S11 + H12 * S12
    Q12 = F11 * w12 + F12 * w22 + H11 * S12 + H12 * S22
    Q21 = F21 * w11 + F22 * w12 + H21 * S11 + H22 * S12
    Q22 = F21 * w12 + F22 * w22 + H21 * S12 + H22 * S22

    def nodal(T11, T12, T21, T22, scale):
        # node i, component a of scale * T g_i, as a (6, Ne) array
        out = np.empty((6, len(E)))
        out[0::2] = T11 * gx + T12 * gy
        out[1::2] = T21 * gx + T22 * gy
        out *= scale
        return out

    g = gamma
    g2 = g * g
    lin = 1.0 - g2
    Evol = E * kin.vol
    # f_e = gamma f_nl + (1 - gamma^2) f_l = E V (gamma P + (1 - gamma^2)
    # sigma) g_i, and d f_e / d gamma = f_nl + gamma k_nl u_e - 2 gamma f_l
    dF_dE = nodal(g * P11 + lin * s11, g * P12 + lin * s12,
                  g * P21 + lin * s12, g * P22 + lin * s22, kin.vol)
    dF_dgamma = nodal(P11 + g * (Q11 - 2.0 * s11), P12 + g * (Q12 - 2.0 * s12),
                      P21 + g * (Q21 - 2.0 * s12), P22 + g * (Q22 - 2.0 * s22),
                      Evol)
    f_e = dF_dE * E
    F_int = np.bincount(dofs.ravel(), weights=f_e.ravel(), minlength=n_dof)
    arrays = ElementArrays(f_int=f_e.T, dF_dE=dF_dE.T, dF_dgamma=dF_dgamma.T)

    if not want_tangent:
        return F_int, None, arrays

    # element tangents gamma^2 E V (BN^T D BN + G) + (1 - gamma^2) E kl0,
    # (6, 6, Ne), formed row by row on the upper triangle and mirrored;
    # column 2i + a of BN is (F_a1 g_i1, F_a2 g_i2, F_a1 g_i2 + F_a2 g_i1)
    BN, DBN, k = kin.tangent_work
    BN[0, 0::2] = F11 * gx
    BN[0, 1::2] = F21 * gx
    BN[1, 0::2] = F12 * gy
    BN[1, 1::2] = F22 * gy
    BN[2, 0::2] = F11 * gy + F12 * gx
    BN[2, 1::2] = F21 * gy + F22 * gx
    DBN[0] = D00 * BN[0] + D01 * BN[1] + D02 * BN[2]
    DBN[1] = D01 * BN[0] + D11 * BN[1] + D12 * BN[2]
    DBN[2] = D02 * BN[0] + D12 * BN[1] + D22 * BN[2]
    # geometric term G_(ia)(jb) = delta_ab g_i^T S g_j
    Sgx = S11 * gx + S12 * gy
    Sgy = S12 * gx + S22 * gy
    kl0 = kin.kl0.transpose(1, 2, 0)
    nl = g2 * Evol
    l_E = lin * E
    for r in range(6):
        i = r // 2
        row = k[r, r:]
        np.einsum("pn,pcn->cn", BN[:, r], DBN[:, r:], out=row)
        row[::2] += gx[i] * Sgx[i:] + gy[i] * Sgy[i:]
        row *= nl
        row += l_E * kl0[r, r:]
        k[r + 1:, r] = row[1:]
    data = np.bincount(kin.csc_scatter, weights=k.ravel(),
                       minlength=len(kin.csc_indices))
    K = sp.csc_matrix((data, kin.csc_indices, kin.csc_indptr),
                      shape=(n_dof, n_dof))
    return F_int, K, arrays


def lump_to_nodes(values, mesh):
    """Per-node sums of per-element values, each split equally over the
    element's three nodes."""
    return np.bincount(mesh.triangles.ravel(),
                       weights=np.repeat(values / 3.0, 3),
                       minlength=mesh.num_nodes)


class NonlinearModel:
    """Everything needed to evaluate residuals and tangents at one design.

    Bundles the element kinematics with the design-dependent fields (moduli,
    blend factors, springs, reference loads), the output springs, and a
    constant counter-force vector, zero unless with_counter_force sets one.
    """

    def __init__(self, kin, fields, output_springs=()):
        self.kin = kin
        self.mesh = kin.mesh
        self.fields = fields
        self.E = fields.E
        self.gamma = fields.gamma
        # F_ext_x and F_ext_y load only x- and y-DOFs, so the intensities
        # multiplying them are the applied force components in newtons
        self.k_s_diagonal = np.repeat(lump_to_nodes(fields.k_s, kin.mesh), 2)
        load = lump_to_nodes(fields.f_e * kin.mesh.volumes, kin.mesh)
        self.F_ext_x = np.zeros(kin.mesh.num_dofs)
        self.F_ext_y = np.zeros(kin.mesh.num_dofs)
        self.F_ext_x[0::2] = self.F_ext_y[1::2] = load
        self.output_springs = tuple(output_springs)
        self.spring_dofs = np.array([d for d, _ in output_springs], dtype=np.int64)
        self.spring_k = np.array([k for _, k in output_springs], dtype=float)
        self.F_counter = np.zeros(kin.mesh.num_dofs)

    def with_counter_force(self, counter_force):
        """A copy of the model carrying counter_force (None: zero)."""
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
        F_int = F_int + self.k_s_diagonal * U
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


def build_model(mesh, design, params, material_params, A_f=None,
                output_springs=()):
    """Evaluate the design fields and wrap them in a NonlinearModel.

    Returns (fields, model). A problem's models come from ProblemSpec.models;
    this serves designs without a ProblemSpec, such as the test fixtures.
    """
    from . import design_field as df

    fields = df.evaluate_fields(design, mesh, params, A_f=A_f)
    model = NonlinearModel(ElementKinematics(mesh, material_params), fields,
                           output_springs=output_springs)
    return fields, model


def residual_vjp(model, system, lam_x, lam_y, psi):
    """psi^T dR/dzeta, a flat gradient in the zeta layout of DesignVector.join.

    This function owns the residual's part of the chain rule: psi against the
    element partials of GlobalSystem.residual with respect to E, gamma, k_s
    (through the support springs in F_int) and f_e (through F_x and F_y).
    FieldState.vjp carries those sensitivities on to zeta.
    """
    kin = model.kin
    psi_e = psi[kin.dofs.T]                                 # (6, Ne)
    gE = np.einsum("in,in->n", psi_e, system.elements.dF_dE.T)
    ggam = np.einsum("in,in->n", psi_e, system.elements.dF_dgamma.T)
    gks = np.einsum("in,in->n", psi_e, system.U[kin.dofs.T]) / 3.0
    lam_psi = (lam_x * psi_e[0::2].sum(axis=0)
               + lam_y * psi_e[1::2].sum(axis=0))
    gf = lam_psi * model.mesh.volumes / 3.0
    return model.fields.vjp(E=-gE, gamma=-ggam, k_s=-gks, f_e=gf)
