import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from decoguard import qmath
from decoguard.channels import _apply_kraus
from decoguard.measurements import PartialMeasurement
from decoguard.qmath import (
    ID2,
    KET_0,
    KET_1,
    KET_MINUS,
    KET_PLUS,
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


def square_root_route(rho, sigma):
    """The qubit fidelity route that the closed form replaced, copied here:
    sqrt(rho) from its Jacobi eigendecomposition, then the spectrum of
    sqrt(rho) sigma sqrt(rho); the fidelity and that spectrum unclipped."""
    def clipped(w):
        w = w.clip(0.0, None)
        w[w < 1e-14 * max(1.0, float(w.max()))] = 0.0
        return w
    w, v = eig_hermitian(rho)
    root = (v * np.sqrt(clipped(w))) @ v.conj().T
    inner, _ = eig_hermitian(root @ sigma @ root)
    return min(1.0, float(np.sum(np.sqrt(clipped(inner))))), inner


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
        rho = state_from_angles(InitialState(alpha=HALF, phi=0.0))
        assert np.allclose(rho, RHO_0, atol=1e-12)

    def test_alpha_half_pi_minus_is_excited(self):
        rho = state_from_angles(InitialState(alpha=HALF, phi=np.pi))   # the pair's other member
        assert np.allclose(rho, RHO_1, atol=1e-12)

    def test_other_pair_member_is_phi_plus_pi(self):
        # the state at (phi + pi) mod 2 pi is cos(alpha/2)|+> - e^{i phi} sin(alpha/2)|->
        rng = np.random.default_rng(12)
        for _ in range(200):
            alpha, phi = rng.uniform(0, HALF), rng.uniform(0, 2 * np.pi)
            ket = InitialState(alpha=alpha, phi=(phi + np.pi) % (2 * np.pi)).ket()
            expected = (np.cos(alpha / 2) * KET_PLUS
                        - np.exp(1j * phi) * np.sin(alpha / 2) * KET_MINUS)
            assert np.abs(ket - expected).max() <= 1e-15

    def test_always_pure(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            alpha, phi = rng.uniform(0, HALF), rng.uniform(0, 2 * np.pi)
            if rng.choice([-1, 1]) == -1:   # the nonorthogonal pair's other member
                phi = (phi + np.pi) % (2 * np.pi)
            s = InitialState(alpha=alpha, phi=phi)
            rho = state_from_angles(s)
            check_density(rho)
            assert abs(purity(rho) - 1) < 1e-12

    @pytest.mark.parametrize("kwargs", [
        {"alpha": -0.1}, {"alpha": 2.0}, {"alpha": 0.3, "phi": -0.5},
        {"alpha": 0.3, "phi": 7.0},
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

    @pytest.mark.parametrize("bloch", ((np.nan, 0, 0), (0, 0, np.nan)))
    def test_nan_rejected(self, bloch):
        with pytest.raises(ValueError, match="unit ball"):
            bloch_to_density(bloch)

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

    def test_4x4_result_is_lapacks_and_writeable(self):
        # a 4x4 result has LAPACK's bits, and a later call returns them again
        # after the caller mutated its arrays
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


# a valid qubit state, and 2x2 inputs with one defect each (exact entries)
_STATE = np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]])
_OFF_HERMITIAN = _STATE + np.array([[0, 2e-12], [0, 0]])
_TRACE_1_1 = np.diag([0.6, 0.5]).astype(complex)
_NEGATIVE = np.array([[0.5, 0.5 + 1e-9], [0.5 + 1e-9, 0.5]])   # eigenvalues 1 + 1e-9, -1e-9


def _two_qubit(m):
    """A 4x4 with m's entries and trace, and its eigenvalues with two zeros added."""
    out = np.zeros((4, 4), dtype=complex)
    out[::2, ::2] = m
    return out


def _raised(fn, *args) -> str:
    with pytest.raises(ValueError) as info:
        fn(*args)
    return str(info.value)


class TestScalarChecks:
    """A 2x2 matrix is checked in scalar arithmetic and a 4x4 with numpy: every
    check site raises the same message, in the same check order, for both
    (the messages are the ones the numpy checks gave for these 2x2 inputs)."""

    _SITES = {"check_density": (check_density, "rho"), "eig_hermitian": (eig_hermitian, "m"),
              "PartialMeasurement": (lambda m: PartialMeasurement(op=m, role="x"), "op")}

    @pytest.mark.parametrize("site", sorted(_SITES))
    @pytest.mark.parametrize("entry", [(0, 0), (0, 1), (1, 0), (1, 1)])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
    def test_non_finite_entry(self, site, entry, bad):
        check, name = self._SITES[site]
        m = _OFF_HERMITIAN + _TRACE_1_1   # the non-finite test comes first
        m[entry] = bad
        for x in (m, _two_qubit(m)):
            assert _raised(check, x) == f"{name} has non-finite entries"

    @pytest.mark.parametrize("rho, message", [
        (_OFF_HERMITIAN, "rho is not Hermitian within 1e-12"),
        (_OFF_HERMITIAN + _TRACE_1_1, "rho is not Hermitian within 1e-12"),
        (_TRACE_1_1, "rho has trace (1.1+0j), expected 1"),
        (_TRACE_1_1.conj(), "rho has trace (1.1+0j), expected 1"),   # -0 imaginary parts
        (_NEGATIVE + _TRACE_1_1, "rho has trace (2.1+0j), expected 1"),
        (_NEGATIVE, "rho has negative eigenvalue -9.999999717180685e-10"),
    ], ids=("hermitian", "hermitian-before-trace", "trace", "trace-conj", "trace-before-eigenvalue",
            "eigenvalue"))
    def test_density_defect(self, rho, message):
        assert _raised(check_density, rho) == message
        assert _raised(check_density, _two_qubit(rho)) == message
        assert _raised(fidelity, rho, _STATE) == message.replace("rho", "rho_in", 1)

    def test_eig_hermitian_tolerance(self):
        for dev, ok in ((2e-12, True), (2e-10, False)):
            m = _STATE + np.array([[0, dev], [0, 0]])
            for x in (m, _two_qubit(m)):
                if ok:
                    eig_hermitian(x)
                else:
                    assert _raised(eig_hermitian, x) == "eig_hermitian requires a Hermitian matrix"

    @pytest.mark.parametrize("d, message", [
        ((1.1, 0.5), "partial measurement operator exceeds identity: 1.2100000000000002"),
        ((0.9 + 0.6j, 0.5), "partial measurement operator exceeds identity: 1.17")])
    def test_operator_exceeding_identity(self, d, message):
        for op in (np.diag(d), np.diag([*d, 1, 1])):
            assert _raised(PartialMeasurement, op.astype(complex), "x") == message

    def test_spectrum_below_floor(self):
        w = np.array([0.5, 0.5 + 1e-9, 0.0, -1e-9])
        assert (_raised(qmath._clip_spectrum, w, "fidelity inner matrix")
                == "fidelity inner matrix has eigenvalue -1e-09 below -1e-10")
        # a mixed qubit's closed form bounds the sum of that spectrum, the overlap
        mixed, bad = np.diag([0.75, 0.25]).astype(complex), np.diag([-1.0, 2.0]).astype(complex)
        assert _raised(qmath._fidelity, mixed, bad) == "negative overlap -0.25 beyond tolerance"

    @pytest.mark.parametrize("gain, message", [
        (1 + 1e-11, "trace drift 5.999867269679271e-12 exceeds 1e-12"), (1 + 1e-13, None)])
    def test_trace_drift(self, gain, message):
        # one 2x2 state takes the scalar path, the same state as a stack of one the numpy path
        stack = np.stack([np.diag([1, gain]), np.zeros((2, 2))]).astype(complex)
        if message:
            assert _raised(_apply_kraus, _STATE, stack) == message
            assert _raised(_apply_kraus, _STATE, stack[None]) == message
        else:
            out = _apply_kraus(_STATE, stack)
            assert out.tobytes() == _apply_kraus(_STATE, stack[None])[0].tobytes()
            assert np.trace(out).real == pytest.approx(1.0, abs=1e-15)


_TOLERANCE_MARGIN = 0.05   # property inputs stay this relative distance from each tolerance


@st.composite
def _near_state(draw):
    """2x2 matrices on both sides of check_density's three tolerances: a rotated
    diag(tr - low, low) with an off-Hermitian part added to the (0, 1) entry."""
    tiny = st.floats(0.0, 3e-12)
    low = draw(st.one_of(st.floats(-3e-10, 3e-10), st.floats(0.0, 0.5)))
    tr = 1.0 + draw(st.sampled_from([-1.0, 0.0, 1.0])) * draw(tiny)
    th, ph, dev_phase = (draw(st.floats(0.0, 2 * np.pi)) for _ in range(3))
    u = np.array([[np.cos(th), -np.sin(th) * np.exp(1j * ph)],
                  [np.sin(th) * np.exp(-1j * ph), np.cos(th)]])
    m = (u * np.array([tr - low, low])) @ u.conj().T
    m[0, 1] += draw(tiny) * np.exp(1j * dev_phase)
    return m


def _numpy_verdict(m):
    """The first check_density test m fails, by the numpy forms of the three tests."""
    if np.abs(m - m.conj().T).max() > qmath.HERMITICITY_ATOL:
        return "not Hermitian"
    if abs(np.trace(m) - 1.0) > qmath.TRACE_ATOL:
        return "has trace"
    if np.linalg.eigvalsh(0.5 * (m + m.conj().T)).min() < qmath.EIGENVALUE_FLOOR:
        return "negative eigenvalue"
    return None


class TestScalarCheckProperties:
    @PROPERTY
    @given(_near_state())
    def test_predicates_match_numpy(self, m):
        herm, tr = np.abs(m - m.conj().T).max(), np.trace(m)
        low = np.linalg.eigvalsh(0.5 * (m + m.conj().T)).min()
        for value, tol in ((herm, qmath.HERMITICITY_ATOL), (abs(tr - 1.0), qmath.TRACE_ATOL),
                           (low, qmath.EIGENVALUE_FLOOR)):
            assume(abs(value - tol) > _TOLERANCE_MARGIN * abs(tol))
        _, e = qmath._entries(m)
        assert e[0][0] + e[1][1] == tr
        want = _numpy_verdict(m)
        if want is None:
            check_density(m)
        else:
            with pytest.raises(ValueError, match=want):
                check_density(m)

    @PROPERTY
    @given(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(0.0, 2 * np.pi))
    def test_diagonal_complement(self, x0, x1, phase):
        # a real diagonal takes the scalar path: the bits of 1 - |d|^2 in numpy,
        # and of the numpy path that its 4x4 lift takes; with a phase, a 2x2
        # takes the numpy path, whose op^t op has the bits of Re(conj(d) d)
        real = np.array([x0, x1], dtype=complex)
        want = np.diag(np.sqrt(np.clip(1 - abs(real) ** 2, 0, None))).astype(complex)
        got = PartialMeasurement(op=np.diag(real), role="x").complement
        assert got.tobytes() == want.tobytes()
        lifted = PartialMeasurement(op=np.diag([*real, 1, 1]), role="x").complement
        assert lifted[:2, :2].tobytes() == want.tobytes()
        d = real * np.exp(1j * phase)
        assume(np.all((d.conj() * d).real <= 1.0))
        want = np.diag(np.sqrt(np.clip(1 - (d.conj() * d).real, 0, None))).astype(complex)
        assert PartialMeasurement(op=np.diag(d), role="x").complement.tobytes() == want.tobytes()


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
        rng = np.random.default_rng(4)
        for _ in range(100):
            pure, mixed = random_pure(rng), random_density(rng, 2)
            assert abs(fidelity(pure, mixed) - square_root_route(pure, mixed)[0]) < 1e-9

    def test_pure_input_keeps_the_overlap_bits(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            pure, other = random_pure(rng), random_density(rng, 2)
            for sigma in (other, random_pure(rng), pure):
                overlap = float(np.real(np.trace(pure @ sigma)))
                assert fidelity(pure, sigma) == min(1.0, np.sqrt(max(overlap, 0.0)))

    def test_oracle_agreement_mixed(self):
        rng = np.random.default_rng(5)
        for dim in (2, 4):
            for _ in range(25):
                a, b = random_density(rng, dim), random_density(rng, dim)
                assert abs(fidelity(a, b) - fidelity_oracle(a, b)) < 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fidelity(RHO_0, BELL)


def _qubit(radius):
    """Qubit states of Bloch radius drawn from radius, in any direction."""
    return st.builds(lambda r, th, ph: bloch_to_density(
        (r * np.sin(th) * np.cos(ph), r * np.sin(th) * np.sin(ph), r * np.cos(th))),
        radius, st.floats(0.0, np.pi), st.floats(0.0, 2 * np.pi))


# inputs: any mixed radius, and radii whose purity (1 + r^2) / 2 lies within
# 1e-12 of PURITY_PURE_THRESHOLD, on either side of it
_INPUT_RADIUS = st.one_of(st.floats(0.0, 1.0, exclude_max=True), st.floats(-1e-12, 1e-12).map(
    lambda d: math.sqrt(2 * (qmath.PURITY_PURE_THRESHOLD + d) - 1)))
# outputs: any radius, and near-rank-deficient ones (smallest eigenvalue (1 - r) / 2 down to 5e-17)
_OUTPUT_RADIUS = st.one_of(st.floats(0.0, 1.0), st.floats(-16.0, -4.0).map(lambda k: 1 - 10 ** k))


class TestQubitClosedForm:
    # The tolerance against the square-root route. Both routes find the
    # eigenvalues hi >= lo of M = sqrt(rho) sigma sqrt(rho) within an absolute
    # D = 16 eps: the closed form from a few sums of products of entries
    # bounded by 1, the old route from two backward-stable Jacobi solves (the
    # square root turns an error eps in rho's small eigenvalue mu into
    # eps / (2 sqrt(mu)), but M carries it times sqrt(mu), so it stays O(eps));
    # 20,000 pairs drawn like these showed at most 7.5 eps. F = sqrt(hi) +
    # sqrt(lo), and sqrt amplifies near zero: moving x by D moves sqrt(x) by at
    # most sqrt(x + D) - sqrt(max(x - D, 0)), which is D / (2 sqrt(x)) for
    # x >> D but sqrt(D) = 6e-8 at x = 0. Where lo lies within D of the zeroing
    # floor 1e-14 max(1, hi), one route may zero it and the other keep it,
    # which moves F by up to sqrt(lo + D).
    D = 16 * np.finfo(float).eps

    @classmethod
    def tolerance(cls, hi: float, lo: float) -> float:
        def spread(x):
            return math.sqrt(max(x, 0.0) + cls.D) - math.sqrt(max(x - cls.D, 0.0))
        if abs(lo - 1e-14 * max(1.0, hi)) <= cls.D:
            return spread(hi) + math.sqrt(max(lo, 0.0) + cls.D)
        return spread(hi) + spread(lo)

    @PROPERTY
    @given(_qubit(_INPUT_RADIUS), _qubit(_OUTPUT_RADIUS))
    def test_matches_the_square_root_route(self, rho, sigma):
        got = fidelity(rho, sigma)
        if purity(rho) >= qmath.PURITY_PURE_THRESHOLD:   # the shortcut, its bits kept
            overlap = float(np.real(np.trace(rho @ sigma)))
            assert got == min(1.0, np.sqrt(max(overlap, 0.0)))
        else:
            want, (hi, lo) = square_root_route(rho, sigma)
            assert abs(got - want) <= self.tolerance(hi, lo)

    @pytest.mark.parametrize("x, kept", [(1e-14, False), (1e-13, True)])
    def test_small_eigenvalue_zeroed_below_the_floor(self, x, kept):
        # commuting states: hi = 0.75 (1 - x) and lo = 0.25 x, zeroed below 1e-14
        rho, sigma = np.diag([0.75, 0.25]), np.diag([1 - x, x])
        want = math.sqrt(0.75 * (1 - x)) + kept * math.sqrt(0.25 * x)
        assert fidelity(rho.astype(complex), sigma.astype(complex)) == pytest.approx(want, abs=1e-15)

    def test_capped_at_one(self):
        rng = np.random.default_rng(9)
        got = [fidelity(rho, rho) for rho in (random_density(rng, 2) for _ in range(200))]
        assert max(got) == 1.0 and min(got) > 1 - 1e-15


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
        with pytest.raises(ValueError,
                           match=r"^concurrence is defined for two-qubit states \(dim 4\)$"):
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
