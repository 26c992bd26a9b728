"""Maps the raw design vector to per-element physical fields.

The design vector zeta concatenates element densities with the
boundary-condition coordinates and the actuator angle. Its layout is defined
once, by DesignVector.join; every gradient, bound, move limit and column name
in zeta order is built through it. This module produces the filtered /
projected / physical densities, element moduli, energy-interpolation factors,
support spring constants, and load magnitudes, together with the analytic
partial derivatives of every field with respect to every design variable.

The chain rule is split by owner. A caller forms per-element sensitivities
to the fields (assembly.residual_vjp for the residual, a quantity's dfdzeta
for itself); FieldState.vjp, the only reader of the partials, carries them to
zeta.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.spatial import cKDTree

from .mesh import SOLID_NONDESIGN, VOID_NONDESIGN

# tanh saturates in float64 well before this; avoids overflow in cosh
_TANH_SAT = 350.0


@dataclass(frozen=True, kw_only=True)
class ProjectionParams:
    """Projection, interpolation, and material-field parameters.

    Defaults follow the common parameter set: base b = 2 (the projection
    radius r marks the 50 percent contour), sharpness P = 4, smooth min/max
    exponent Q = 12, SIMP penalty 3, E_min = 1e-9 E_0. The init fields are
    the keys of a run config's [parameters], in this order.
    """

    E0: float = 10e6
    nu: float = 0.49
    E_s: float = 2000e6
    nu_s: float = 0.3
    t_s: float = 0.01
    p_simp: float = 3.0
    rho0: float = 0.0
    b: float = 2.0
    P: float = 4.0
    Q: float = 12.0
    beta: float = 500.0
    r: float
    r_min: float
    E_min: float = field(init=False)
    G_s: float = field(init=False)

    def __post_init__(self):
        if self.b <= 1 or self.P < 1 or self.Q < 1:
            raise ValueError("projection parameters require b > 1, P >= 1, Q >= 1")
        if self.r <= 0 or self.r_min <= 0:
            raise ValueError("radii must be positive")
        if self.p_simp < 1:
            raise ValueError("SIMP penalty must be >= 1")
        object.__setattr__(self, "E_min", self.E0 * 1e-9)
        object.__setattr__(self, "G_s", self.E_s / (2.0 * (1.0 + self.nu_s)))


@dataclass
class DesignVector:
    """Densities on designable elements plus BC coordinates and angle.

    The flat layout zeta is join's: rho, the BC coordinates, then theta.
    """

    rho: np.ndarray
    supports: np.ndarray  # (ns, 2)
    load: np.ndarray      # (2,)
    theta: float

    def __post_init__(self):
        self.rho = np.asarray(self.rho, dtype=float)
        self.supports = np.asarray(self.supports, dtype=float).reshape(-1, 2)
        self.load = np.asarray(self.load, dtype=float).reshape(2)
        if not np.isfinite(self.rho).all() or np.any((self.rho < 0) | (self.rho > 1)):
            raise ValueError("densities must be finite and within [0, 1]")
        if not (np.isfinite(self.supports).all() and np.isfinite(self.load).all()
                and np.isfinite(self.theta)):
            raise ValueError("BC coordinates must be finite")

    @property
    def num_supports(self):
        return len(self.supports)

    @property
    def size(self):
        return len(self.rho) + 2 * len(self.supports) + 3

    def bc_points(self):
        """Support points followed by the load point, shape (ns+1, 2)."""
        return np.vstack([self.supports, self.load[None]])

    @staticmethod
    def join(rho, points, theta):
        """Parts in zeta order [rho, X_s(all), Y_s(all), X_f, Y_f, theta];
        points is (ns+1, 2), laid out like bc_points()."""
        points = np.asarray(points)
        return np.concatenate(
            [rho, points[:-1, 0], points[:-1, 1], points[-1], [theta]])

    def bc_names(self):
        """Names of the zeta entries after the densities."""
        k = range(1, self.num_supports + 1)
        names = [(f"X_s{i}", f"Y_s{i}") for i in k] + [("X_f", "Y_f")]
        return self.join([], names, "theta").tolist()

    def to_array(self):
        return self.join(self.rho, self.bc_points(), self.theta)

    @classmethod
    def from_array(cls, z, n_rho, n_sup):
        rho, xs, ys, load, theta = np.split(
            np.asarray(z, dtype=float), np.cumsum([n_rho, n_sup, n_sup, 2]))
        return cls(rho=rho, supports=np.column_stack([xs, ys]), load=load,
                   theta=float(theta[0]))

    def copy(self):
        return DesignVector(self.rho.copy(), self.supports.copy(),
                            self.load.copy(), self.theta)

    def shifted(self, col, h):
        """A new design with entry `col` of to_array() moved by h."""
        z = self.to_array()
        z[col] += h
        return DesignVector.from_array(z, len(self.rho), self.num_supports)


def build_filter_matrix(mesh, r_min):
    """Row-normalized linear hat filter over designable element centroids.

    Returns a CSR matrix of shape (n_designable, n_designable); fixed-tag
    elements are excluded so non-design material does not bleed into the
    filtered densities.
    """
    des = mesh.designable
    cent = mesh.centroids[des]
    n = len(des)
    tree = cKDTree(cent)
    pairs = tree.query_pairs(r_min, output_type="ndarray")
    if len(pairs):
        d = np.hypot(*(cent[pairs[:, 0]] - cent[pairs[:, 1]]).T)
        w = r_min - d
        rows = np.concatenate([pairs[:, 0], pairs[:, 1], np.arange(n)])
        cols = np.concatenate([pairs[:, 1], pairs[:, 0], np.arange(n)])
        dat = np.concatenate([w, w, np.full(n, r_min)])
    else:
        rows = cols = np.arange(n)
        dat = np.full(n, r_min)
    W = sp.csr_matrix((dat, (rows, cols)), shape=(n, n))
    norm = np.asarray(W.sum(axis=1)).ravel()
    W = sp.diags(1.0 / norm) @ W
    return W.tocsr()


def smooth_min_distance(points, queries, Q):
    """Differentiable minimum distance from each query to a point set.

    d = (sum_i d_i^(-Q))^(-1/Q). Always a lower bound on the true minimum.
    A query coinciding with a point returns the limit value 0 with zero
    gradient. Returns d and d(d)/d(points), the latter with shape
    (n_queries, n_points, 2).
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    q = np.atleast_2d(np.asarray(queries, dtype=float))
    diff = q[:, None, :] - pts[None, :, :]          # (nq, np, 2)
    di = np.sqrt(np.sum(diff * diff, axis=2))        # (nq, np)
    dmin = di.min(axis=1)
    zero = dmin == 0.0
    safe = np.where(zero, 1.0, dmin)
    with np.errstate(divide="ignore"):
        ratio = np.where(zero[:, None], 1.0, di / safe[:, None])  # >= 1
        ssum = np.sum(ratio ** (-Q), axis=1)
    d = safe * ssum ** (-1.0 / Q)
    d[zero] = 0.0
    # dd/dd_i = (d/d_i)^(Q+1); dd_i/dP_i = (P_i - q)/d_i
    with np.errstate(divide="ignore", invalid="ignore"):
        w = (d[:, None] / di) ** (Q + 1.0)
        grad = w[:, :, None] * (-diff) / di[:, :, None]
    grad[~np.isfinite(grad)] = 0.0
    grad[zero] = 0.0
    return d, grad


def super_gaussian(d, A, b, r, P):
    """Flat-topped projection G = A * b^(-(d^2/r^2)^P) of a distance field
    and its derivative dG/dd; floats for a scalar d."""
    scalar = np.ndim(d) == 0
    d = np.asarray(d, dtype=float)
    u = (d / r) ** 2
    with np.errstate(over="ignore"):
        expo = u ** P
    g = A * np.exp(-np.log(b) * np.minimum(expo, 1e6))
    # dG/dd = -G ln(b) P u^(P-1) 2 d / r^2
    with np.errstate(over="ignore", invalid="ignore"):
        dg = -g * np.log(b) * P * u ** (P - 1.0) * 2.0 * d / (r * r)
    dg = np.where(np.isfinite(dg), dg, 0.0)
    if scalar:
        return float(g), float(dg)
    return g, dg


def support_stiffness_field(design, mesh, params):
    """Per-element support spring constants from the support-point layout,
    and their partials d(k_e)/d(supports), shape (Ne, ns, 2).

    k_e = (G_s / t_s) A_e b^(-(d_e^2/r^2)^P) with d_e the smooth-min distance
    from the element centroid to the support points.
    """
    coef = params.G_s / params.t_s * mesh.areas
    d, dpts = smooth_min_distance(design.supports, mesh.centroids, params.Q)
    g, dg = super_gaussian(d, 1.0, params.b, params.r, params.P)
    k = coef * g
    dk = (coef * dg)[:, None, None] * dpts          # (Ne, ns, 2)
    return k, dk


def load_magnitude_field(design, mesh, params, A_f=None, with_gradients=False):
    """Per-element body-force magnitudes around the load point.

    The normalization A_f makes the total reference load sum to 1 N; it is
    computed once at the initial load position and held constant afterwards,
    so pass the frozen value back in on subsequent evaluations.
    """
    diff = mesh.centroids - design.load[None, :]
    d = np.hypot(diff[:, 0], diff[:, 1])
    g, dg = super_gaussian(d, 1.0, params.b, params.r, params.P)
    if A_f is None:
        total = float(np.sum(g * mesh.volumes))
        A_f = 1.0 / total
    f = A_f * g
    if not with_gradients:
        return f, A_f
    with np.errstate(divide="ignore", invalid="ignore"):
        unit = diff / d[:, None]
    unit[~np.isfinite(unit)] = 0.0
    df = A_f * dg[:, None] * (-unit)                # d(d)/d(load) = -(c-x)/d
    return f, A_f, df


def physical_density(rho_tilde_full, design, mesh, params):
    """Smooth maximum of the filtered densities and the movable BC regions.

    rho_hat projects solid discs around every BC point (supports and load);
    the raw smooth max is clamped to 1, then fixed non-design tags override.
    Returns rho_bar, rho_hat and the chain factors d(rho_bar)/d(rho_tilde),
    d(rho_bar)/d(rho_hat) (zero on clamped or fixed elements) and
    d(rho_hat)/d(points).
    """
    Q = params.Q
    d, dpts = smooth_min_distance(design.bc_points(), mesh.centroids, Q)
    rho_hat, dg = super_gaussian(d, 1.0, params.b, params.r, params.P)
    drho_hat_dpts = dg[:, None, None] * dpts        # (Ne, ns+1, 2)

    rt = np.clip(rho_tilde_full, 0.0, 1.0)
    big = np.maximum(rt, rho_hat)
    safe = np.where(big == 0.0, 1.0, big)
    raw = safe * ((rt / safe) ** Q + (rho_hat / safe) ** Q) ** (1.0 / Q)
    raw[big == 0.0] = 0.0
    rho_bar = np.minimum(raw, 1.0)

    solid = mesh.element_tag == SOLID_NONDESIGN
    void = mesh.element_tag == VOID_NONDESIGN
    rho_bar[solid] = 1.0
    rho_bar[void] = 0.0

    active = (raw < 1.0) & ~solid & ~void
    with np.errstate(divide="ignore", invalid="ignore"):
        d_dt = np.where(raw > 0.0, (rt / raw) ** (Q - 1.0), 1.0)
        d_dh = np.where(raw > 0.0, (rho_hat / raw) ** (Q - 1.0), 0.0)
    d_dt = np.where(active, d_dt, 0.0)
    d_dh = np.where(active, d_dh, 0.0)
    return rho_bar, rho_hat, d_dt, d_dh, drho_hat_dpts


def simp_modulus(rho_bar, params):
    """SIMP interpolation E = E_min + rho^p (E0 - E_min) and dE/drho."""
    E = params.E_min + rho_bar ** params.p_simp * (params.E0 - params.E_min)
    dE = params.p_simp * rho_bar ** (params.p_simp - 1.0) * (params.E0 - params.E_min)
    return E, dE


def energy_interpolation_factor(rho_bar, params):
    """Smoothed Heaviside blend factor between linear and nonlinear
    kinematics, and d(gamma)/d(rho).

    gamma = (tanh(b r0) + tanh(b (rho^p - r0))) / (tanh(b r0) + tanh(b (1 - r0)))
    with b the sharpness and r0 the threshold; gamma(0) = 0 and gamma(1) = 1
    when r0 = 0.
    """
    b, r0, p = params.beta, params.rho0, params.p_simp
    den = np.tanh(b * r0) + np.tanh(b * (1.0 - r0))
    x = b * (rho_bar ** p - r0)
    gam = (np.tanh(b * r0) + np.tanh(x)) / den
    xc = np.clip(x, -_TANH_SAT, _TANH_SAT)
    sech2 = np.where(np.abs(x) >= _TANH_SAT, 0.0, 1.0 / np.cosh(xc) ** 2)
    dgam = b * p * rho_bar ** (p - 1.0) * sech2 / den
    return gam, dgam


@dataclass
class FieldState:
    """All per-element fields at one design, with their chain-rule factors.

    The fields are rho_bar, E, gamma, k_s and f_e. The factors after
    `designable` (the filter W and each field's partials) are read only by
    vjp, the one pullback of field sensitivities to zeta.
    """

    design: DesignVector
    rho_bar: np.ndarray          # physical densities
    E: np.ndarray
    gamma: np.ndarray
    k_s: np.ndarray
    f_e: np.ndarray
    A_f: float
    designable: np.ndarray       # indices of the designable elements
    W: sp.csr_matrix             # filter over designable elements
    dE_drho_bar: np.ndarray
    dgamma_drho_bar: np.ndarray
    drho_bar_drho_tilde: np.ndarray
    drho_bar_drho_hat: np.ndarray
    drho_hat_dpts: np.ndarray    # (Ne, ns+1, 2)
    dks_dsup: np.ndarray         # (Ne, ns, 2)
    dfe_dload: np.ndarray        # (Ne, 2)

    def vjp(self, rho_bar=None, E=None, gamma=None, k_s=None, f_e=None):
        """sum_f v_f^T d(f)/d(zeta) for per-element sensitivities v_f to the
        fields f, each absent one zero; a flat gradient in zeta order.

        E and gamma pull back onto rho_bar through their interpolations,
        rho_bar through the projection onto the filtered densities (then
        through the filter onto rho) and onto the BC points, k_s onto the
        supports and f_e onto the load point. No field depends on theta.
        """
        sens = np.zeros(len(self.rho_bar)) if rho_bar is None else rho_bar
        if E is not None:
            sens = sens + E * self.dE_drho_bar
        if gamma is not None:
            sens = sens + gamma * self.dgamma_drho_bar
        des = self.designable
        d_rho = self.W.T @ (sens[des] * self.drho_bar_drho_tilde[des])
        d_pts = np.einsum("n,nkc->kc", sens * self.drho_bar_drho_hat,
                          self.drho_hat_dpts)
        if k_s is not None:
            d_pts[:-1] += np.einsum("n,nkc->kc", k_s, self.dks_dsup)
        if f_e is not None:
            d_pts[-1] += np.einsum("n,nc->c", f_e, self.dfe_dload)
        return self.design.join(d_rho, d_pts, 0.0)


def evaluate_fields(design, mesh, params, A_f=None, W=None):
    """Evaluate every physical field and its partials at one design point."""
    des = mesh.designable
    if len(design.rho) != len(des):
        raise ValueError(
            f"design has {len(design.rho)} densities, mesh has {len(des)} "
            "designable elements"
        )
    if W is None:
        W = build_filter_matrix(mesh, params.r_min)
    rho_tilde_full = np.zeros(mesh.num_elements)
    rho_tilde_full[des] = W @ design.rho

    rho_bar, rho_hat, d_dt, d_dh, dhat_dpts = physical_density(
        rho_tilde_full, design, mesh, params)
    E, dE = simp_modulus(rho_bar, params)
    gam, dgam = energy_interpolation_factor(rho_bar, params)
    solid = mesh.element_tag == SOLID_NONDESIGN
    void = mesh.element_tag == VOID_NONDESIGN
    dE[solid | void] = 0.0
    dgam[solid | void] = 0.0
    k_s, dks = support_stiffness_field(design, mesh, params)
    f_e, A_f, dfe = load_magnitude_field(design, mesh, params, A_f=A_f,
                                         with_gradients=True)
    return FieldState(
        design=design, rho_bar=rho_bar, E=E, gamma=gam, k_s=k_s, f_e=f_e,
        A_f=A_f, designable=des, W=W,
        dE_drho_bar=dE, dgamma_drho_bar=dgam, drho_bar_drho_tilde=d_dt,
        drho_bar_drho_hat=d_dh, drho_hat_dpts=dhat_dpts, dks_dsup=dks,
        dfe_dload=dfe,
    )
