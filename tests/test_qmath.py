import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from decoguard import qmath
from decoguard.qmath import (
    ID2,
    KET_0,
    KET_1,
    PAULI_Y,
    PAULI_Z,
    BlochVector,
    InitialState,
    bloch_to_density,
    check_density,
    concurrence,
    density_to_bloch,
    eig_hermitian,
    fidelity,
    projector,
    purity,
    state_from_angles,
    tensor,
)

HALF = np.pi / 2

RHO_PLUS = 0.5 * np.ones((2, 2), dtype=complex)
RHO_0 = np.diag([1.0, 0.0]).astype(complex)
RHO_1 = np.diag([0.0, 1.0]).astype(complex)

BELL = projector(np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2))


def random_density(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def random_pure(rng, dim=2):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return projector(v / np.linalg.norm(v))


def fidelity_oracle(rho_a, rho_b):
    """Independent Uhlmann fidelity through numpy's eigensolver."""
    w, v = np.linalg.eigh(rho_a)
    root = (v * np.sqrt(np.clip(w, 0, None))) @ v.conj().T
    inner = root @ rho_b @ root
    return float(np.sum(np.sqrt(np.clip(np.linalg.eigvalsh(inner), 0, None))))


def concurrence_oracle(rho):
    """Brute-force spin-flip spectrum via the general (non-Hermitian) solver."""
    sysy = np.kron(PAULI_Y, PAULI_Y)
    lam = np.sqrt(np.abs(np.sort(np.linalg.eigvals(
        rho @ sysy @ rho.conj() @ sysy).real)[::-1]))
    return max(0.0, lam[0] - lam[1] - lam[2] - lam[3])


class TestStateFromAngles:
    def test_alpha_zero_is_plus(self):
        rho = state_from_angles(InitialState(alpha=0.0, phi=0.0))
        assert np.allclose(rho, RHO_PLUS, atol=1e-12)

    def test_alpha_half_pi_plus_is_ground(self):
        rho = state_from_angles(InitialState(alpha=HALF, phi=0.0, pair_sign=+1))
        assert np.allclose(rho, RHO_0, atol=1e-12)

    def test_alpha_half_pi_minus_is_excited(self):
        rho = state_from_angles(InitialState(alpha=HALF, phi=0.0, pair_sign=-1))
        assert np.allclose(rho, RHO_1, atol=1e-12)

    def test_always_pure(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            s = InitialState(alpha=rng.uniform(0, HALF), phi=rng.uniform(0, 2 * np.pi),
                             pair_sign=rng.choice([-1, 1]))
            rho = state_from_angles(s)
            check_density(rho)
            assert abs(purity(rho) - 1) < 1e-12

    @pytest.mark.parametrize("kwargs", [
        {"alpha": -0.1}, {"alpha": 2.0}, {"alpha": 0.3, "phi": -0.5},
        {"alpha": 0.3, "phi": 7.0}, {"alpha": 0.3, "pair_sign": 2},
    ])
    def test_out_of_range_rejected(self, kwargs):
        with pytest.raises(ValueError):
            InitialState(**kwargs)


class TestBloch:
    def test_north_pole(self):
        assert np.allclose(bloch_to_density((0, 0, 1)), RHO_0, atol=1e-15)

    def test_plus_x(self):
        assert np.allclose(bloch_to_density((1, 0, 0)), RHO_PLUS, atol=1e-15)

    def test_convention_matches_matrix_layout(self):
        rho = bloch_to_density((0.2, 0.3, 0.4))
        assert rho[0, 1] == pytest.approx((0.2 + 0.3j) / 2)
        assert rho[1, 0] == pytest.approx((0.2 - 0.3j) / 2)

    def test_round_trip(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            v = rng.normal(size=3)
            v *= rng.uniform() ** (1 / 3) / np.linalg.norm(v)
            back = density_to_bloch(bloch_to_density(v))
            assert np.allclose(back, v, atol=1e-12)

    def test_outside_ball_rejected(self):
        with pytest.raises(ValueError):
            bloch_to_density((1.0, 0.1, 0.0))

    def test_bloch_vector_type(self):
        b = density_to_bloch(RHO_0)
        assert isinstance(b, BlochVector)
        assert b.z == pytest.approx(1.0)


def _with_spectrum(rng, w):
    """Exactly Hermitian V diag(w) V^t for a random unitary V."""
    dim = len(w)
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    rho = (q * np.asarray(w)) @ q.conj().T
    return 0.5 * (rho + rho.conj().T)


# spectra summing to 1 whose last eigenvalue is set by each test
_SPECTRUM_HEAD = {2: [1.0], 4: [0.5, 0.3, 0.2]}


class TestCheckDensityBoundaries:
    @pytest.mark.parametrize("dim", [2, 4])
    def test_off_hermitian_entry_rejected(self, dim):
        rho = random_density(np.random.default_rng(dim), dim)
        rho = 0.5 * (rho + rho.conj().T)
        check_density(rho)
        rho[0, 1] += 2e-12
        with pytest.raises(ValueError, match="not Hermitian"):
            check_density(rho)

    @pytest.mark.parametrize("dim", [2, 4])
    def test_trace_off_by_2e_12_rejected(self, dim):
        rho = np.eye(dim, dtype=complex) / dim
        rho[0, 0] += 2e-12
        with pytest.raises(ValueError, match="has trace"):
            check_density(rho)

    @pytest.mark.parametrize("dim", [2, 4])
    @pytest.mark.parametrize("low, ok", [(-2e-10, False), (-5e-11, True)])
    def test_smallest_eigenvalue_floor(self, dim, low, ok):
        rng = np.random.default_rng(7 * dim)
        for _ in range(20):
            head = list(_SPECTRUM_HEAD[dim])
            head[-1] -= low
            rho = _with_spectrum(rng, [*head, low])
            if ok:
                check_density(rho)
            else:
                with pytest.raises(ValueError, match="negative eigenvalue"):
                    check_density(rho)


class TestEigHermitian:
    def test_identity(self):
        w, _ = eig_hermitian(ID2)
        assert np.allclose(w, [1, 1], atol=1e-14)

    def test_pauli_z(self):
        w, _ = eig_hermitian(PAULI_Z)
        assert np.allclose(w, [1, -1], atol=1e-14)

    def test_diagonal_sorted_descending(self):
        w, _ = eig_hermitian(np.diag([0.3, 0.7, 0.0, 0.0]).astype(complex))
        assert np.allclose(w, [0.7, 0.3, 0.0, 0.0], atol=1e-14)

    @pytest.mark.parametrize("dim", [2, 4])
    def test_reconstruction_and_numpy_agreement(self, dim):
        rng = np.random.default_rng(dim)
        for _ in range(50):
            a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            h = a + a.conj().T
            w, v = eig_hermitian(h)
            assert np.abs(h - (v * w) @ v.conj().T).max() < 1e-9
            assert np.abs(v.conj().T @ v - np.eye(dim)).max() < 1e-12
            assert np.allclose(w, np.sort(np.linalg.eigvalsh(h))[::-1], atol=1e-10)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            eig_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_4x4_cached_result_is_lapacks_and_copied_out(self):
        # each distinct 4x4 matrix is decomposed once; a later call returns
        # the same bits as LAPACK, even after the caller mutated its arrays
        rng = np.random.default_rng(31)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = a + a.conj().T
        w_ref, v_ref = np.linalg.eigh(0.5 * (h + h.conj().T))
        expected = (w_ref[::-1].tobytes(), v_ref[:, ::-1].tobytes())
        w, v = eig_hermitian(h)
        assert (w.tobytes(), v.tobytes()) == expected
        w[:] = 0.0
        v[:] = 0.0
        w, v = eig_hermitian(h)
        assert (w.tobytes(), v.tobytes()) == expected
        assert w.flags.writeable and v.flags.writeable

    def test_2x2_matches_stable_argsort_reference_bitwise(self):
        rng = np.random.default_rng(17)
        cases = [ID2, 0.5 * ID2,
                 np.array([[0.3, 1e-17], [1e-17, 0.7]], dtype=complex),
                 np.array([[0.7, 2e-16j], [-2e-16j, 0.3]], dtype=complex)]
        for _ in range(200):
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            cases.append(a + a.conj().T)
        for h in cases:
            w, v = qmath._eig_core(h)
            w_ref, v_ref = _eig_2x2_reference(h)
            assert w.tobytes() == w_ref.tobytes() and v.tobytes() == v_ref.tobytes()


def _eig_2x2_reference(a):
    """One Jacobi rotation, then the diagonal sorted by a stable descending argsort."""
    v = np.eye(2, dtype=complex)
    b = abs(a[0, 1])
    if b > 1e-15 * max(1.0, float(np.abs(a).max())):
        phase = a[0, 1] / b
        th = 0.5 * np.arctan2(2 * b, (a[1, 1] - a[0, 0]).real)
        c, s = np.cos(th), np.sin(th)
        v = np.array([[c, s * phase], [-s * np.conj(phase), c]])
        a = v.conj().T @ a @ v
    w = np.real(np.diag(a))
    order = np.argsort(-w, kind="stable")
    return w[order].copy(), v[:, order].copy()


# derandomized so tier-1 runs the same examples every time
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=150)
_UNIT = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


def _complex_matrix(draw, dim):
    re, im = (np.array(draw(st.lists(_UNIT, min_size=dim * dim, max_size=dim * dim)))
              .reshape(dim, dim) for _ in range(2))
    return re + 1j * im


@st.composite
def _hermitian(draw, dim):
    """Random Hermitian matrices, and U diag(w) U^dagger with repeated eigenvalues."""
    if draw(st.booleans()):
        a = _complex_matrix(draw, dim)
        return a + a.conj().T
    u, _ = np.linalg.qr(_complex_matrix(draw, dim))
    w = np.array(draw(st.lists(st.sampled_from([-1.0, 0.0, 0.25, 0.5]),
                               min_size=dim, max_size=dim)))
    return (u * w) @ u.conj().T


class TestEigHermitianProperties:
    @PROPERTY
    @given(st.sampled_from([2, 4]).flatmap(_hermitian))
    @example(np.eye(4, dtype=complex) / 4)
    @example(BELL)
    @example(ID2 / 2)
    def test_descending_orthonormal_reconstructs(self, h):
        w, v = eig_hermitian(h)
        assert np.all(np.diff(w) <= 0)
        assert np.abs(v.conj().T @ v - np.eye(len(w))).max() < 1e-12
        assert np.abs(h - (v * w) @ v.conj().T).max() < 1e-9

    @PROPERTY
    @given(_UNIT, _UNIT, _UNIT, _UNIT)
    def test_2x2_closed_form_eigenvalues(self, a00, a11, re01, im01):
        a01 = complex(re01, im01)
        h = np.array([[a00, a01], [a01.conjugate(), a11]], dtype=complex)
        w, _ = eig_hermitian(h)
        half_gap = np.sqrt(((a00 - a11) / 2) ** 2 + abs(a01) ** 2)
        mid = (a00 + a11) / 2
        assert np.abs(w - [mid + half_gap, mid - half_gap]).max() < 1e-12

    @PROPERTY
    @given(_UNIT, _UNIT, _UNIT, _UNIT)
    def test_2x2_pure_top_column_is_the_ket(self, re0, im0, re1, im1):
        ket = np.array([complex(re0, im0), complex(re1, im1)])
        norm = np.linalg.norm(ket)
        assume(norm > 1e-3)
        ket /= norm
        _, v = eig_hermitian(projector(ket))
        phase = np.vdot(v[:, 0], ket)
        assert abs(abs(phase) - 1.0) < 1e-12
        assert np.abs(v[:, 0] * phase - ket).max() < 1e-12


class TestFidelity:
    def test_identical_pure(self):
        assert fidelity(RHO_PLUS, RHO_PLUS) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        assert fidelity(RHO_0, RHO_1) == pytest.approx(0.0, abs=1e-12)

    def test_dephased_plus_closed_form(self):
        # off-diagonals scale by sqrt(1-r); overlap with |+> is (1+sqrt(1-r))/2
        damped = np.array([[0.5, 0.5 * np.sqrt(0.5)], [0.5 * np.sqrt(0.5), 0.5]],
                          dtype=complex)
        expected = np.sqrt((1 + np.sqrt(0.5)) / 2)
        assert fidelity(RHO_PLUS, damped) == pytest.approx(expected, abs=1e-9)
        assert expected == pytest.approx(0.923880, abs=1e-6)

    def test_symmetric_on_mixed_pairs(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            a, b = random_density(rng, 2), random_density(rng, 2)
            assert abs(fidelity(a, b) - fidelity(b, a)) < 1e-9

    def test_shortcut_matches_general_formula(self):
        from decoguard.qmath import _fidelity_general
        rng = np.random.default_rng(4)
        for _ in range(100):
            pure, mixed = random_pure(rng), random_density(rng, 2)
            assert abs(fidelity(pure, mixed) - _fidelity_general(pure, mixed)) < 1e-9

    def test_input_root_cached_read_only_and_rejections_not_cached(self):
        rng = np.random.default_rng(6)
        for dim in (2, 4):
            rho = random_density(rng, dim)
            root = qmath._input_root(rho.tobytes(), dim)
            assert root is qmath._input_root(rho.tobytes(), dim)
            assert root.tobytes() == qmath._sqrtm_psd(rho).tobytes()
            assert not root.flags.writeable
        bad = np.diag([1.5, -0.5]).astype(complex)
        for _ in range(2):
            with pytest.raises(ValueError, match="square root input"):
                qmath._fidelity_general(bad, ID2 / 2)

    def test_oracle_agreement_mixed(self):
        rng = np.random.default_rng(5)
        for dim in (2, 4):
            for _ in range(25):
                a, b = random_density(rng, dim), random_density(rng, dim)
                assert abs(fidelity(a, b) - fidelity_oracle(a, b)) < 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fidelity(RHO_0, BELL)


class TestConcurrence:
    def test_bell_state(self):
        assert concurrence(BELL) == pytest.approx(1.0, abs=1e-9)

    def test_product_state(self):
        assert concurrence(np.kron(RHO_0, RHO_0)) == pytest.approx(0.0, abs=1e-9)

    def test_werner_half(self):
        werner = 0.5 * BELL + 0.5 * np.eye(4) / 4
        assert concurrence(werner) == pytest.approx(0.25, abs=1e-9)
        assert concurrence_oracle(werner) == pytest.approx(0.25, abs=1e-9)

    def test_oracle_agreement_random(self):
        rng = np.random.default_rng(6)
        for _ in range(40):
            rho = random_density(rng, 4)
            assert concurrence(rho) == pytest.approx(concurrence_oracle(rho), abs=1e-9)

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            rho = random_density(rng, 4)
            u1, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
            u2, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
            u = np.kron(u1, u2)
            rotated = u @ rho @ u.conj().T
            assert concurrence(rotated) == pytest.approx(concurrence(rho), abs=1e-9)

    def test_single_qubit_rejected(self):
        with pytest.raises(ValueError):
            concurrence(RHO_0)


class TestTensor:
    def test_identity(self):
        assert np.allclose(tensor(ID2, ID2), np.eye(4), atol=1e-15)

    def test_basis_order(self):
        assert np.allclose(tensor(projector(KET_0), projector(KET_1)),
                           np.diag([0, 1, 0, 0]), atol=1e-15)

    def test_spin_flip_involution(self):
        sysy = tensor(PAULI_Y, PAULI_Y)
        assert np.allclose(sysy @ sysy, np.eye(4), atol=1e-15)

    def test_wrong_dims_rejected(self):
        with pytest.raises(ValueError):
            tensor(np.eye(4), ID2)

    def test_matches_np_kron_bitwise(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            a, b = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(2))
            assert np.array_equal(tensor(a, b), np.kron(a, b))
