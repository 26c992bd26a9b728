import numpy as np
import pytest

from varibc import material as mat
from varibc import verify


def random_states(n, seed=0, jmin=0.5, jmax=2.0):
    """Random deformation gradients with J in [jmin, jmax]."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        F = np.eye(2) + rng.uniform(-0.6, 0.6, size=(2, 2))
        J = np.linalg.det(F)
        if jmin <= J <= jmax:
            out.append(F)
    return out


def pk2_stress(F, params):
    """S of a single state, through the batch API the solver runs."""
    return mat.pk2_and_tangent_batch(np.asarray(F, float)[None], params)[0][0]


def tangent_moduli(F, params):
    """D of a single state, through the batch API the solver runs."""
    return mat.pk2_and_tangent_batch(np.asarray(F, float)[None], params)[1][0]


def fd_stress_from_energy(F, params, h=1e-6):
    """Oracle: S = 2 dPsi/dC by central differences on the energy.

    Perturbing C symmetrically by (h/2)(e_ij + e_ji) gives
    Psi(+) - Psi(-) = S_ij * h for every entry, so S_ij = 2 FD uniformly.
    """
    C = F.T @ F
    S = np.zeros((2, 2))
    for i in range(2):
        for j in range(2):
            dC = np.zeros((2, 2))
            dC[i, j] += 0.5 * h
            dC[j, i] += 0.5 * h
            Sp = _energy_of_C(C + dC, params)
            Sm = _energy_of_C(C - dC, params)
            S[i, j] = 2.0 * (Sp - Sm) / (2.0 * h)
    return S


def _energy_of_C(C, params):
    J = np.sqrt(np.linalg.det(C))
    trC = C[0, 0] + C[1, 1] + 1.0
    return (0.5 * params.mu0 * (trC - 3.0) - params.mu0 * np.log(J)
            + 0.5 * params.lam0 * (J - 1.0) ** 2)


def fd_tangent_from_stress(F, params, h=1e-6):
    """Oracle: D = 2 dS/dC by central differences on the stress, Voigt form."""
    C = F.T @ F

    def stress_of_C(Cm):
        Ci = np.linalg.inv(Cm)
        J = np.sqrt(np.linalg.det(Cm))
        return (params.lam0 * (J * J - J)) * Ci + params.mu0 * (np.eye(2) - Ci)

    pairs = [(0, 0), (1, 1), (0, 1)]
    D = np.zeros((3, 3))
    for b, (k, l) in enumerate(pairs):
        dC = np.zeros((2, 2))
        dC[k, l] += 0.5 * h
        dC[l, k] += 0.5 * h
        dS = (stress_of_C(C + dC) - stress_of_C(C - dC)) / (2.0 * h)
        for a, (i, j) in enumerate(pairs):
            D[a, b] = 2.0 * dS[i, j]
    return D


class TestLameParameters:
    def test_nu_zero(self):
        lam0, mu0 = mat.lame_parameters(0.0)
        assert lam0 == 0.0 and mu0 == 0.5

    def test_nu_03(self):
        lam0, mu0 = mat.lame_parameters(0.3)
        # oracle: direct evaluation of the plane-stress reduction
        mu = 1.0 / 2.6
        lam3d = 0.3 / (1.3 * 0.4)
        want = 2.0 * lam3d * mu / (lam3d + 2.0 * mu)
        assert abs(mu0 - 0.384615384615) < 1e-9
        assert abs(lam0 - want) < 1e-12
        assert abs(lam0 - 0.3296703297) < 1e-9  # = nu/(1-nu^2), frozen
        # consistency: lam0 + 2 mu0 must be the plane-stress D0(1,1)
        assert abs((lam0 + 2 * mu0) - 1.0 / (1.0 - 0.09)) < 1e-12

    def test_nu_049_hooke_entry(self):
        p = mat.MaterialParams(nu=0.49)
        assert abs(p.D0[0, 0] - 1.0 / (1.0 - 0.49**2)) < 1e-12
        assert abs(p.D0[0, 0] - 1.3159626322) < 1e-5  # frozen oracle value
        assert abs(p.D0[2, 2] - p.mu0) < 1e-14

    def test_params_compare_and_hash_by_nu(self):
        a, b = mat.MaterialParams(nu=0.49), mat.MaterialParams(nu=0.49)
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        assert a != mat.MaterialParams(nu=0.3)

    def test_invalid_nu(self):
        with pytest.raises(ValueError):
            mat.lame_parameters(0.5)


class TestStress:
    def test_zero_at_identity(self):
        p = mat.MaterialParams(nu=0.49)
        S = pk2_stress(np.eye(2), p)
        assert np.all(S == 0.0)

    def test_energy_consistency(self):
        p = mat.MaterialParams(nu=0.49)
        for F in random_states(100, seed=4):
            S = pk2_stress(F, p)
            S_fd = fd_stress_from_energy(F, p)
            assert np.linalg.norm(S - S_fd) <= 1e-7 * max(np.linalg.norm(S_fd), 1e-3)

    def test_small_strain_matches_hooke(self):
        p = mat.MaterialParams(nu=0.3)
        F = np.diag([1.001, 1.0])
        S = pk2_stress(F, p)
        eps = np.array([0.001, 0.0, 0.0])
        sig = p.D0 @ eps
        hooke = np.array([[sig[0], sig[2]], [sig[2], sig[1]]])
        assert np.linalg.norm(S - hooke) <= 5e-3 * np.linalg.norm(hooke)

    def test_frame_indifference(self):
        p = mat.MaterialParams(nu=0.49)
        rng = np.random.default_rng(5)
        for F in random_states(20, seed=9):
            th = rng.uniform(0, 2 * np.pi)
            Q = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
            S1 = pk2_stress(F, p)
            S2 = pk2_stress(Q @ F, p)
            assert np.linalg.norm(S1 - S2) <= 1e-10 * max(1.0, np.linalg.norm(S1))

    def test_inverted_state_raises(self):
        p = mat.MaterialParams(nu=0.3)
        with pytest.raises(mat.NonPositiveJacobian):
            pk2_stress(np.diag([-1.0, 1.0]), p)


class TestTangent:
    def test_hooke_at_identity(self):
        p = mat.MaterialParams(nu=0.49)
        D = tangent_moduli(np.eye(2), p)
        want = np.array(
            [[p.lam0 + 2 * p.mu0, p.lam0, 0.0],
             [p.lam0, p.lam0 + 2 * p.mu0, 0.0],
             [0.0, 0.0, p.mu0]]
        )
        assert np.allclose(D, want, atol=1e-14)
        assert np.allclose(D, p.D0, atol=1e-10)

    def test_stress_consistency(self):
        p = mat.MaterialParams(nu=0.49)
        for F in random_states(100, seed=12):
            D = tangent_moduli(F, p)
            D_fd = fd_tangent_from_stress(F, p)
            assert np.linalg.norm(D - D_fd) <= 1e-6 * np.linalg.norm(D_fd)

    def test_voigt_symmetry(self):
        p = mat.MaterialParams(nu=0.49)
        for F in random_states(50, seed=3):
            D = tangent_moduli(F, p)
            assert np.allclose(D, D.T, atol=1e-13 * np.abs(D).max())


class TestBatch:
    def test_batch_raises_with_index(self):
        p = mat.MaterialParams(nu=0.3)
        Fs = np.array([np.eye(2), np.diag([1.0, -2.0])])
        with pytest.raises(mat.NonPositiveJacobian) as ei:
            mat.pk2_and_tangent_batch(Fs, p)
        assert ei.value.element == 1



def test_criterion_2_checks_the_batch_the_kernel_runs(monkeypatch):
    calls = []
    real = mat.pk2_and_tangent_batch

    def counting(F, params):
        calls.append(len(F))
        return real(F, params)

    monkeypatch.setattr(mat, "pk2_and_tangent_batch", counting)
    ok, detail = verify.material_consistency()
    assert ok, detail
    assert len(calls) == 101 and set(calls) == {1}
