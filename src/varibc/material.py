"""Modified Neo-Hookean constitutive law under 2D plane stress.

All stress and tangent quantities are per unit elastic modulus; the element
modulus from the density interpolation multiplies them at assembly time.
The stored energy is

    psi(C) = mu0/2 (tr C + 1 - 3) - mu0 ln J + lam0/2 (J - 1)^2,

with the plane-stress trick that the out-of-plane stretch contributes
tr C3D = tr C + 1, and lam0 the plane-stress-effective Lame parameter so the
small-strain tangent equals the plane-stress Hooke matrix exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class NonPositiveJacobian(Exception):
    """Deformation gradient determinant is not positive (element inversion)."""

    def __init__(self, message="non-positive deformation Jacobian", element=None):
        self.element = element
        if element is not None:
            message = f"{message} in element {element}"
        super().__init__(message)


def lame_parameters(nu):
    """Plane-stress-effective Lame parameters for a unit elastic modulus.

    mu0 = 1/(2(1+nu)); lam0 is the classical plane-stress reduction
    2*lam3d*mu0/(lam3d + 2*mu0) of the 3D parameter
    lam3d = nu/((1+nu)(1-2nu)), which equals nu/(1-nu^2).
    """
    if not 0.0 <= nu < 0.5:
        raise ValueError("Poisson ratio must lie in [0, 0.5)")
    mu0 = 1.0 / (2.0 * (1.0 + nu))
    lam3d = nu / ((1.0 + nu) * (1.0 - 2.0 * nu))
    lam0 = 2.0 * lam3d * mu0 / (lam3d + 2.0 * mu0)
    return lam0, mu0


def hooke_plane_stress(nu):
    """Plane-stress Hooke matrix for a unit modulus, Voigt (11, 22, 12)."""
    c = 1.0 / (1.0 - nu * nu)
    return c * np.array(
        [[1.0, nu, 0.0], [nu, 1.0, 0.0], [0.0, 0.0, 0.5 * (1.0 - nu)]]
    )


@dataclass(frozen=True)
class MaterialParams:
    """Lame parameters and linear constitutive matrix for a unit modulus."""

    nu: float
    lam0: float = field(init=False)
    mu0: float = field(init=False)
    D0: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lam0, mu0 = lame_parameters(self.nu)
        object.__setattr__(self, "lam0", lam0)
        object.__setattr__(self, "mu0", mu0)
        D0 = hooke_plane_stress(self.nu)
        D0.setflags(write=False)
        object.__setattr__(self, "D0", D0)


def pk2_and_tangent_batch(F, params):
    """Stress S (n,2,2), tangent D = 2 dS/dC (n,3,3, Voigt) and J (n,) of
    deformation gradients F (n,2,2), per unit modulus; F[None] for one state.

    S = lam0 (J^2 - J) C^-1 + mu0 (I - C^-1), zero at F = I, and
    D_ijkl = lam0 (2J^2 - J) Cinv_ij Cinv_kl
           + (mu0 - lam0 (J^2 - J)) (Cinv_ik Cinv_jl + Cinv_il Cinv_jk),
    the plane-stress Hooke matrix at F = I. NonPositiveJacobian carries the
    offending batch index.

    Everything is computed one component at a time over the batch, and D's
    six distinct entries are mirrored. S and D are views of component-major
    storage, so each component, such as D[:, 0, 2], is contiguous.
    """
    F = np.asarray(F, dtype=float)
    F11, F12, F21, F22 = F[:, 0, 0], F[:, 0, 1], F[:, 1, 0], F[:, 1, 1]
    J = F11 * F22 - F12 * F21
    if np.any(J <= 0.0):
        bad = int(np.argmax(J <= 0.0))
        raise NonPositiveJacobian(element=bad)
    # C^-1 of C = F^T F
    detC = J * J
    c11 = (F12 * F12 + F22 * F22) / detC
    c22 = (F11 * F11 + F21 * F21) / detC
    c12 = -(F11 * F12 + F21 * F22) / detC
    Cinv = ((c11, c12), (c12, c22))
    vol = params.lam0 * (J * J - J)
    mu0 = params.mu0
    S = np.empty((2, 2, len(J)))
    S[0, 0] = vol * c11 + mu0 * (1.0 - c11)
    S[1, 1] = vol * c22 + mu0 * (1.0 - c22)
    S[0, 1] = S[1, 0] = vol * c12 - mu0 * c12
    c1 = params.lam0 * (2.0 * J * J - J)
    c2 = mu0 - vol
    pairs = ((0, 0), (1, 1), (0, 1))
    D = np.empty((3, 3, len(J)))
    for a, (i, j) in enumerate(pairs):
        for b in range(a, 3):
            k, l = pairs[b]
            D[a, b] = D[b, a] = c1 * Cinv[i][j] * Cinv[k][l] + c2 * (
                Cinv[i][k] * Cinv[j][l] + Cinv[i][l] * Cinv[j][k])
    return S.transpose(2, 0, 1), D.transpose(2, 0, 1), J
