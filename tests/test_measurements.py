from dataclasses import is_dataclass

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from decoguard import measurements
from decoguard.channels import KrausChannel, ad_kraus, lift_local, make_channel, pd_kraus
from decoguard.measurements import (
    Branch,
    BranchEnsemble,
    MeasurementPair,
    PartialMeasurement,
    flips,
    measure,
    partial_measure,
    post_wm_ops,
    povm_axis,
    povm_generalized,
    pre_wm_pair,
    qmr_map,
    rotation,
    wm_map,
)
from decoguard.qmath import (
    ID2,
    KET_0,
    KET_PLUS,
    _kron,
    density_to_bloch,
    eig_hermitian,
    projector,
    state_from_angles,
    InitialState,
)
from test_optimize import _logging
from test_qmath import PROPERTY

THETA_GRID = np.linspace(0, np.pi / 2, 31)
BETA_GRID = np.linspace(0, 2 * np.pi, 8, endpoint=False)
RHO_PLUS = projector(KET_PLUS)
RHO_0 = projector(KET_0)
RHO_1 = np.diag([0.0, 1.0]).astype(complex)


def completeness_error(pair):
    total = sum(m.conj().T @ m for m in pair.ops)
    return np.abs(total - np.eye(2)).max()


class TestPovmAxis:
    @pytest.mark.parametrize("axis", ["x", "y", "z"])
    def test_completeness_full_grid(self, axis):
        for theta in THETA_GRID:
            assert completeness_error(povm_axis(axis, theta)) < 1e-12

    @pytest.mark.parametrize("axis", ["x", "y", "z"])
    def test_zero_strength_is_identity_pair(self, axis):
        pair = povm_axis(axis, np.pi / 2)
        for op in pair.ops:
            assert np.abs(op - np.eye(2) / np.sqrt(2)).max() < 1e-12

    def test_projective_z(self):
        pair = povm_axis("z", 0.0)
        assert np.allclose(pair.ops[0], RHO_0, atol=1e-15)
        assert np.allclose(pair.ops[1], RHO_1, atol=1e-15)

    def test_projective_z_on_plus(self):
        ens = measure(RHO_PLUS, povm_axis("z", 0.0))
        weights = [b.weight for b in ens.branches]
        assert weights == pytest.approx([0.5, 0.5], abs=1e-12)
        assert np.allclose(ens.branches[0].state / 0.5, RHO_0, atol=1e-12)
        assert np.allclose(ens.branches[1].state / 0.5, RHO_1, atol=1e-12)

    def test_theta_out_of_range(self):
        with pytest.raises(ValueError):
            povm_axis("z", 2.0)
        with pytest.raises(ValueError):
            povm_axis("w", 0.3)


class TestPovmGeneralized:
    def test_completeness_grid(self):
        for theta in THETA_GRID:
            for beta in BETA_GRID:
                assert completeness_error(povm_generalized(theta, beta)) < 1e-12

    def test_beta_zero_reduces_to_z_pair(self):
        for theta in THETA_GRID[::6]:
            gen = povm_generalized(theta, 0.0)
            axis = povm_axis("z", theta)
            for a, b in zip(gen.ops, axis.ops):
                assert np.abs(a - b).max() < 1e-12

    def test_zero_strength_effects(self):
        pair = povm_generalized(np.pi / 2, 1.3)
        for op in pair.ops:
            assert np.abs(op.conj().T @ op - np.eye(2) / 2).max() < 1e-12


class TestPartialOps:
    def test_wm_limits(self):
        assert np.allclose(wm_map(0.0).op, np.eye(2), atol=1e-15)
        assert np.allclose(wm_map(1.0).op, RHO_0, atol=1e-15)

    def test_wm_qmr_proportional_iff_equal_strength(self):
        prod_eq = qmr_map(0.4).op @ wm_map(0.4).op
        assert abs(prod_eq[0, 0] - prod_eq[1, 1]) < 1e-12
        prod_ne = qmr_map(0.7).op @ wm_map(0.4).op
        assert abs(prod_ne[0, 0] - prod_ne[1, 1]) > 1e-3

    def test_strength_range(self):
        for bad in (-0.1, 1.2):
            with pytest.raises(ValueError):
                wm_map(bad)
            with pytest.raises(ValueError):
                qmr_map(bad)


class TestPartialMeasurementBoundaries:
    @pytest.mark.parametrize("dim", [2, 4])
    def test_scaled_identity_rejected(self, dim):
        with pytest.raises(ValueError, match="exceeds identity"):
            PartialMeasurement(op=(1 + 1e-9) * np.eye(dim, dtype=complex), role="test")

    @pytest.mark.parametrize("dim", [2, 4])
    def test_non_diagonal_norm_above_one_rejected(self, dim):
        rng = np.random.default_rng(60 + dim)
        for _ in range(10):
            a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            op = a * ((1 + 1e-9) / np.linalg.norm(a, 2))
            with pytest.raises(ValueError, match="exceeds identity"):
                PartialMeasurement(op=op, role="test")

    @pytest.mark.parametrize("op, match", [
        (np.diag([1.0, 0.5, 0.2]), "dimension 2 or 4"),
        (np.diag([1.0, np.nan]), "non-finite"),
    ])
    def test_malformed_diagonal_rejected(self, op, match):
        # the closed-form complement keeps the eigensolve path's input checks
        with pytest.raises(ValueError, match=match):
            PartialMeasurement(op=op.astype(complex), role="test")

    @pytest.mark.parametrize("op, match", [
        ([[1, 0, 0], [0, 1, 0]], "op must be square"),
        ([[1, 0], [0, np.inf]], "op has non-finite"),
    ])
    def test_op_checked_like_any_matrix_input(self, op, match):
        with pytest.raises(ValueError, match=match):
            PartialMeasurement(op=op, role="test")

    def test_list_op_is_coerced(self):
        pm = PartialMeasurement(op=[[1, 0], [0, 0.5]], role="test")
        assert pm.op.tobytes() == np.diag([1, 0.5]).astype(complex).tobytes()
        assert pm.complement.tobytes() == np.diag([0, np.sqrt(0.75)]).astype(complex).tobytes()

    @pytest.mark.parametrize("dim", [2, 4])
    def test_identity_and_projector_accepted(self, dim):
        rng = np.random.default_rng(70 + dim)
        PartialMeasurement(op=np.eye(dim, dtype=complex), role="test")
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        PartialMeasurement(op=projector(v / np.linalg.norm(v)), role="test")


def _eigensolved_complement(op):
    """sqrt(I - op^t op) from one eigendecomposition: the general path."""
    w, v = eig_hermitian(np.eye(len(op), dtype=complex) - op.conj().T @ op)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


def _lifts(op):
    """A 2x2 operator and its _kron lifts onto either qubit of a pair."""
    return op, _kron(op, ID2), _kron(ID2, op)


_STRENGTH = st.floats(0.0, 1.0, allow_nan=False)


class TestClosedFormComplement:
    @PROPERTY
    @given(_STRENGTH, _STRENGTH, st.floats(0.0, 2 * np.pi, allow_nan=False))
    @example(0.0, 1.0, 0.0)
    @example(1.0, 1.0, 0.0)
    @example(0.3, 0.3, 1.0)
    def test_diagonal_equals_eigensolve_bitwise(self, p0, p1, phase):
        op = np.diag([np.sqrt(1 - p0), np.exp(1j * phase) * np.sqrt(1 - p1)])
        for lifted in _lifts(op):
            pm = PartialMeasurement(op=lifted, role="test")
            assert pm.complement.tobytes() == _eigensolved_complement(lifted).tobytes()

    def test_scheme_operators_skip_the_eigensolve(self, monkeypatch):
        # the schemes build only these 2x2s; run_ent_wmqmr lifts their op and complement
        solves = []
        monkeypatch.setattr(measurements, "eig_hermitian",
                            _logging(solves, measurements.eig_hermitian))
        built = (wm_map(0.4), qmr_map(0.7), *post_wm_ops(0.2, 0.9), wm_map(1.0), qmr_map(0.0))
        assert all(pm.op.shape == (2, 2) for pm in built)
        assert solves == []

    @pytest.mark.parametrize("dim", [2, 4])
    def test_non_diagonal_operator_takes_the_eigensolve(self, dim, monkeypatch):
        rng = np.random.default_rng(80 + dim)
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        op = a * (0.8 / np.linalg.norm(a, 2))
        solves = []
        monkeypatch.setattr(measurements, "eig_hermitian",
                            _logging(solves, measurements.eig_hermitian))
        pm = PartialMeasurement(op=op, role="test")
        assert len(solves) == 1
        assert pm.complement.tobytes() == _eigensolved_complement(op).tobytes()

    def test_operator_above_identity_same_error_on_both_paths(self):
        op = np.diag([1 + 1e-9, 0.6]).astype(complex)
        for lifted in _lifts(op):
            w, _ = eig_hermitian(np.eye(len(lifted), dtype=complex)
                                 - lifted.conj().T @ lifted)
            message = f"partial measurement operator exceeds identity: {1 - w[-1]}"
            with pytest.raises(ValueError) as err:
                PartialMeasurement(op=lifted, role="test")
            assert str(err.value) == message


class TestPreWmPair:
    def test_projective_limit(self):
        pair = pre_wm_pair(1.0)
        assert np.allclose(pair.ops[0], RHO_0, atol=1e-15)
        assert np.allclose(pair.ops[1], RHO_1, atol=1e-15)

    def test_half_is_zero_strength(self):
        pair = pre_wm_pair(0.5)
        for op in pair.ops:
            assert np.abs(op - np.eye(2) / np.sqrt(2)).max() < 1e-12

    def test_matches_z_pair_under_strength_map(self):
        for theta in THETA_GRID:
            p = np.cos(theta / 2) ** 2
            pair = pre_wm_pair(p)
            zpair = povm_axis("z", theta)
            for a, b in zip(pair.ops, zpair.ops):
                assert np.abs(a - b).max() < 1e-12

    def test_weights_on_excited(self):
        ens = measure(RHO_1, pre_wm_pair(0.8))
        assert [b.weight for b in ens.branches] == pytest.approx([0.2, 0.8], abs=1e-12)


class TestFlips:
    def test_population_swap(self):
        _, f2 = flips()
        assert np.allclose(f2 @ RHO_1 @ f2.conj().T, RHO_0, atol=1e-15)

    def test_involution(self):
        _, f2 = flips()
        assert np.allclose(f2 @ f2, np.eye(2), atol=1e-15)

    def test_general_swap(self):
        rho = state_from_angles(InitialState(alpha=0.9, phi=1.1))
        _, f2 = flips()
        out = f2 @ rho @ f2.conj().T
        assert out[0, 0] == pytest.approx(rho[1, 1], abs=1e-14)
        assert out[0, 1] == pytest.approx(rho[1, 0], abs=1e-14)


class TestPostWmOps:
    def test_zero_strength_identity(self):
        n1, w1 = post_wm_ops(0.0, 0.0)
        assert np.allclose(n1.op, np.eye(2), atol=1e-15)
        assert np.allclose(w1.op, np.eye(2), atol=1e-15)

    @pytest.mark.parametrize("p", [0.6, 0.8, 0.95])
    def test_matched_strength_inverts_pre_measurement(self, p):
        matched = (2 * p - 1) / p
        n1, w1 = post_wm_ops(matched, matched)
        m1, m2 = pre_wm_pair(p).ops
        prod_n = n1.op @ m1
        prod_w = w1.op @ m2
        assert abs(prod_n[0, 0] - prod_n[1, 1]) < 1e-12
        assert abs(prod_w[0, 0] - prod_w[1, 1]) < 1e-12
        # away from the matched value the product is not proportional to I
        off_n = post_wm_ops(matched / 2, matched / 2)[0].op @ m1
        assert abs(off_n[0, 0] - off_n[1, 1]) > 1e-3


class TestRotations:
    def test_zero_angle_identity(self):
        for axis in "xyz":
            assert np.abs(rotation(axis, 0.0) - np.eye(2)).max() < 1e-15

    def test_unitarity_full_grid(self):
        for axis in "xyz":
            for eta in THETA_GRID:
                for sign in (+1, -1):
                    m = rotation(axis, sign * eta)
                    assert np.abs(m.conj().T @ m - np.eye(2)).max() < 1e-12

    @pytest.mark.parametrize("axis", "xyz")
    def test_signed_angle_matches_closed_form(self, axis):
        # R(angle) = exp(-i angle sigma / 2), written out, at both signs of each grid angle
        for eta in (*THETA_GRID, np.pi / 2 + 1e-15):
            for sign in (+1, -1):
                angle = sign * eta
                c, s = np.cos(angle / 2), np.sin(angle / 2)
                expected = np.array({
                    "x": [[c, -1j * s], [-1j * s, c]], "y": [[c, -s], [s, c]],
                    "z": [[np.exp(1j * angle / 2), 0], [0, np.exp(-1j * angle / 2)]],
                }[axis], dtype=complex)
                assert rotation(axis, angle).tobytes() == expected.tobytes()

    def test_ry_half_pi_maps_ground_to_plus(self):
        out = rotation("y", np.pi / 2) @ KET_0
        assert np.abs(out - KET_PLUS).max() < 1e-12

    def test_rz_preserves_z_component(self):
        rho = state_from_angles(InitialState(alpha=0.7, phi=0.9))
        for sign in (+1, -1):
            m = rotation("z", sign * 0.8)
            out = m @ rho @ m.conj().T
            assert density_to_bloch(out).z == pytest.approx(density_to_bloch(rho).z,
                                                            abs=1e-12)

    def test_range_checks(self):
        with pytest.raises(ValueError):
            rotation("y", 2.0)
        with pytest.raises(ValueError):
            rotation("q", 0.3)
        with pytest.raises(TypeError):   # the sign belongs to the angle
            rotation("y", 0.3, -1)

    @pytest.mark.parametrize("angle", (-2.0, np.nextafter(np.pi / 2 + 1e-15, 2.0),
                                       -np.nextafter(np.pi / 2 + 1e-15, 2.0), np.nan))
    def test_angle_beyond_half_pi_rejected(self, angle):
        with pytest.raises(ValueError, match=r"angle must be in \[-pi/2, pi/2\]"):
            rotation("y", angle)

    def test_returns_a_new_complex_array(self):
        m = rotation("x", -0.3)
        assert (m.shape, m.dtype, m.flags.writeable) == ((2, 2), complex, True)
        assert m is not rotation("x", -0.3)


class TestMeasureAndBranches:
    def test_zero_strength_branches(self):
        rho = state_from_angles(InitialState(alpha=0.4, phi=0.2))
        ens = measure(rho, povm_axis("x", np.pi / 2))
        for b in ens.branches:
            assert np.abs(b.state - rho / 2).max() < 1e-12

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            rho = state_from_angles(InitialState(alpha=rng.uniform(0, np.pi / 2),
                                                 phi=rng.uniform(0, 2 * np.pi)))
            axis = rng.choice(["x", "y", "z"])
            ens = measure(rho, povm_axis(axis, rng.uniform(0, np.pi / 2)))
            assert ens.total_weight == pytest.approx(1.0, abs=1e-12)
            assert all(b.weight >= -1e-15 for b in ens.branches)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            measure(np.eye(4, dtype=complex) / 4, povm_axis("z", 0.3))

    @PROPERTY
    @given(st.lists(st.one_of(st.floats(-2.0, 2.0), st.sampled_from([0.0, -0.0])),
                    min_size=8, max_size=8))
    @example([-0.0, 0.0, 0.5, 0.0, 0.5, 0.0, -0.0, -0.0])
    @example([1.0, -0.0, 0.0, 0.0, 0.0, 0.0, -1.0, 0.0])
    def test_weight_has_the_bits_of_the_trace(self, parts):
        # a 2x2's weight is summed from its diagonal entries in scalar
        # arithmetic: np.trace's real part bit for bit, a zero's sign included,
        # in either memory order
        m = np.array([complex(x, y) for x, y in zip(parts[::2], parts[1::2])]).reshape(2, 2)
        for state in (m, m.T):
            weight = Branch("b", state).weight
            assert type(weight) is float
            assert np.float64(weight).tobytes() == np.float64(np.trace(state).real).tobytes()

    def test_overfull_ensemble_rejected(self):
        with pytest.raises(ValueError):
            BranchEnsemble(branches=(Branch("a", RHO_0), Branch("b", RHO_0)))

    def test_incomplete_pair_rejected(self):
        with pytest.raises(ValueError):
            MeasurementPair(labels=("a", "b"), ops=(RHO_0, RHO_0))

    def test_nan_pair_rejected(self):
        # a NaN completeness error compares False against the tolerance either way
        nan = np.array([[np.nan, 0], [0, 1]], dtype=complex)
        with pytest.raises(ValueError, match="completeness"):
            MeasurementPair(labels=("a", "b"), ops=(nan, RHO_1))


def _numpy_completeness_error(ops) -> float:
    """measurements._completeness_error as numpy computes it for any shape."""
    total = sum(a.conj().T @ a for a in ops)
    return np.abs(total - np.eye(total.shape[0])).max()


def _random_kraus(rng, k: int, scale: float = 1.0) -> tuple[np.ndarray, ...]:
    """k random 2x2 operators with sum A^t A = scale^2 I: G_i S^(-1/2), S = sum G^t G."""
    g = rng.normal(size=(k, 2, 2)) + 1j * rng.normal(size=(k, 2, 2))
    w, v = np.linalg.eigh(sum(x.conj().T @ x for x in g))
    inv_root = (v / np.sqrt(w)) @ v.conj().T
    return tuple(scale * x @ inv_root for x in g)


class TestCompletenessError:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_scalar_2x2_matches_numpy(self, k):
        # Each entry of sum A^t A sums 2k products conj(x) y. Whatever order and fusion
        # numpy's matmul uses, both sums are within gamma_(2k+2) * sum |x||y| of the exact
        # value (gamma_n = n u / (1 - n u), u = eps / 2, the complex product costing two
        # roundings), and sum |x||y| <= max_m (sum A^t A)_mm by Cauchy-Schwarz. The "- 1"
        # and the modulus add at most one rounding each of a value <= scale^2. So the two
        # errors differ by at most 2 (2k + 4) u max(1, scale^2) < (2k + 5) eps max(1, scale^2).
        rng = np.random.default_rng(30 + k)
        for scale in (1.0, 1 + 1e-13, 0.9, 1.7):
            tol = (2 * k + 5) * np.finfo(float).eps * max(1.0, scale * scale)
            for _ in range(50):
                ops = _random_kraus(rng, k, scale)
                err = measurements._completeness_error(ops)
                assert abs(err - _numpy_completeness_error(ops)) <= tol
                assert abs(err - abs(scale * scale - 1)) < 1e-10   # the set's built defect

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan),
                                     complex(0, np.inf)])
    @pytest.mark.parametrize("site", [(0, 0), (0, 1), (1, 0), (1, 1)],
                             ids=("a00", "a01", "a10", "a11"))
    def test_non_finite_entry_fails_both_checks(self, bad, site):
        op = np.diag([1.0, 0.0]).astype(complex)
        op[site] = bad
        err = measurements._completeness_error((op, RHO_1))
        # a NaN entry gives NaN, as numpy's max does; an inf one NaN or inf; all fail
        assert np.isnan(err) if np.isnan(bad) else np.isnan(err) or err == np.inf
        with pytest.raises(ValueError, match=r"^measurement pair violates completeness by "
                                             r"(nan|inf)$"):
            MeasurementPair(labels=("a", "b"), ops=(op, RHO_1))
        with pytest.raises(ValueError, match=r"^Kraus completeness violated by (nan|inf)$"):
            KrausChannel(ops=(op, RHO_1))

    def test_only_2x2_sets_skip_numpy(self, monkeypatch):
        daggered = []
        monkeypatch.setattr(measurements, "dagger", _logging(daggered, measurements.dagger))
        ad = ad_kraus(0.3)
        assert daggered == []
        lifted = lift_local(ad, 2)   # a lifted 4x4 channel takes the numpy path
        assert len(daggered) == 2
        assert (measurements._completeness_error(lifted.ops)
                == _numpy_completeness_error(lifted.ops))
        with pytest.raises(ValueError, match="could not be broadcast"):
            KrausChannel(ops=(*ad.ops, *lifted.ops))   # mixed shapes: numpy's error


class TestPartialMeasure:
    def test_zero_strength_accepts_everything(self):
        rho = state_from_angles(InitialState(alpha=0.6, phi=0.0))
        ens = partial_measure(rho, wm_map(0.0))
        assert ens.success_prob == pytest.approx(1.0, abs=1e-12)

    def test_half_strength_on_excited(self):
        ens = partial_measure(RHO_1, wm_map(0.5))
        assert ens.success_prob == pytest.approx(0.5, abs=1e-12)
        assert np.allclose(ens.branches[0].state / 0.5, RHO_1, atol=1e-12)

    def test_full_strength_discards_excited(self):
        ens = partial_measure(RHO_1, wm_map(1.0))
        assert ens.success_prob == pytest.approx(0.0, abs=1e-12)

    def test_accepted_weight_equals_born_rule(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            rho = state_from_angles(InitialState(alpha=rng.uniform(0, np.pi / 2),
                                                 phi=rng.uniform(0, 2 * np.pi)))
            pm = wm_map(rng.uniform(0, 1))
            ens = partial_measure(rho, pm)
            born = float(np.real(np.trace(pm.op @ rho @ pm.op.conj().T)))
            assert ens.success_prob == pytest.approx(born, abs=1e-12)
            assert 0.0 <= ens.success_prob <= 1.0 + 1e-12
            assert ens.total_weight == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("dim", [2, 4])
    def test_non_diagonal_operator_complement(self, dim):
        # every library operator is diagonal; a random one gives the
        # complement sqrt(I - op^t op) non-trivial eigenvectors
        rng = np.random.default_rng(40 + dim)
        for scale in (1.0, 0.9, 0.6, 0.3):
            a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            op = a * (scale / np.linalg.norm(a, 2))
            pm = PartialMeasurement(op=op, role="test")
            # Tr(op E_ij op^t) + Tr(comp E_ij comp^t) = (op^t op + comp^t comp)[j, i]
            total = np.zeros((dim, dim), dtype=complex)
            for i in range(dim):
                for j in range(dim):
                    unit = np.zeros((dim, dim), dtype=complex)
                    unit[i, j] = 1.0
                    ens = partial_measure(unit, pm)
                    total[j, i] = sum(np.trace(b.state) for b in ens.branches)
            assert np.abs(total - np.eye(dim)).max() < 1e-12
            g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            rho = g @ g.conj().T
            rho /= np.trace(rho).real
            ens = partial_measure(rho, pm)
            accept, discard = (b.weight for b in ens.branches)
            assert abs(accept + discard - 1.0) < 1e-12

    @pytest.mark.parametrize("dim", [2, 4])
    def test_discard_state_matches_complement_formula_bitwise(self, dim):
        rng = np.random.default_rng(50 + dim)
        for scale in (1.0, 0.9, 0.5, 0.1):
            a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            op = a * (scale / np.linalg.norm(a, 2))
            g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            rho = g @ g.conj().T
            rho /= np.trace(rho).real
            w, v = eig_hermitian(np.eye(dim, dtype=complex) - op.conj().T @ op)
            comp = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
            lost = comp @ rho @ comp.conj().T
            ens = partial_measure(rho, PartialMeasurement(op=op, role="test"))
            assert ens.branches[1].state.tobytes() == lost.tobytes()


def _arrays(obj) -> list:
    """Every array a factory result holds, in field order."""
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, tuple):
        return [a for x in obj for a in _arrays(x)]
    return [a for x in vars(obj).values() for a in _arrays(x)] if is_dataclass(obj) else []


def _bits(obj) -> list[bytes]:
    return [a.tobytes() for a in _arrays(obj)]


def _numpy_partial(diagonal) -> list[np.ndarray]:
    """A real diagonal partial measurement's op and complement, built in numpy."""
    d = np.array(diagonal)
    return [np.diag(d).astype(complex),
            np.diag(np.sqrt(np.clip(1 - d * d, 0.0, None))).astype(complex)]


# the stage-operator factories, each beside a copy of the numpy construction
# (np.sqrt into np.diag, then astype(complex)) they used to run
_NUMPY_BUILDS = {
    pre_wm_pair: lambda p: [np.diag([np.sqrt(p), np.sqrt(1 - p)]).astype(complex),
                            np.diag([np.sqrt(1 - p), np.sqrt(p)]).astype(complex)],
    post_wm_ops: lambda p_u, p_v: (_numpy_partial([np.sqrt(1 - p_u), 1.0])
                                   + _numpy_partial([1.0, np.sqrt(1 - p_v)])),
    wm_map: lambda p1: _numpy_partial([1.0, np.sqrt(1 - p1)]),
    qmr_map: lambda p2: _numpy_partial([np.sqrt(1 - p2), 1.0]),
    pd_kraus: lambda r: [a0 := np.diag([1, np.sqrt(1 - r)]).astype(complex),
                         a1 := np.diag([0, np.sqrt(r)]).astype(complex), np.array((a0, a1))],
    ad_kraus: lambda r: [a0 := np.diag([1, np.sqrt(1 - r)]).astype(complex),
                         a1 := np.array([[0, np.sqrt(r)], [0, 0]], dtype=complex),
                         np.array((a0, a1))],
}

_FACTORY_ARG = st.just(-0.0) | st.floats(0.0, 1.0)


@st.composite
def _factory_calls(draw):
    """A stage-operator factory and in-range arguments, all float or all np.float64."""
    cast = draw(st.sampled_from([float, np.float64]))
    factory = draw(st.sampled_from(list(_NUMPY_BUILDS)))
    n = 2 if factory is post_wm_ops else 1
    return factory, tuple(cast(draw(_FACTORY_ARG)) for _ in range(n))


# every factory the pipelines build stage operators with, and the class constructor
_FACTORIES = {
    "pre_wm_pair": lambda: pre_wm_pair(0.3), "post_wm_ops": lambda: post_wm_ops(0.3, 0.6),
    "ad_kraus": lambda: ad_kraus(0.3), "make_channel": lambda: make_channel("ad", 0.3),
    "pd_kraus": lambda: pd_kraus(0.3), "wm_map": lambda: wm_map(0.3),
    "qmr_map": lambda: qmr_map(0.3), "rotation": lambda: rotation("y", 0.3),
    "PartialMeasurement": lambda: PartialMeasurement(op=np.diag([1, 0.5]), role="t"),
}


class TestFactoryBuilds:
    @PROPERTY
    @given(_factory_calls())
    @example((pre_wm_pair, (-0.0,)))
    @example((post_wm_ops, (np.float64(-0.0), np.float64(1.0))))
    @example((ad_kraus, (-0.0,)))
    @example((pd_kraus, (np.float64(-0.0),)))
    def test_bits_equal_the_numpy_construction(self, call):
        factory, args = call
        built = factory(*args)
        # the arrays held, the stored sqrt(-0.0) = -0.0 included; a channel keeps r as given
        assert _bits(built) == [a.tobytes() for a in _NUMPY_BUILDS[factory](*args)]
        if factory in (ad_kraus, pd_kraus):
            assert type(built.r) is type(args[0])

    @pytest.mark.parametrize("build", _FACTORIES.values(), ids=_FACTORIES)
    def test_every_call_builds_a_new_writeable_object(self, build):
        first, second = build(), build()
        assert first is not second
        arrays, others = _arrays(first), _arrays(second)
        assert arrays and all(a.flags.writeable for a in arrays + others)
        assert not any(np.shares_memory(a, b) for a in arrays for b in others)
        arrays[0][0, 0] = 2.0
        assert _bits(second) == _bits(build())
