from dataclasses import is_dataclass

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from decoguard import measurements
from decoguard.channels import ad_kraus
from decoguard.measurements import (
    Branch,
    BranchEnsemble,
    MeasurementPair,
    PartialMeasurement,
    Rotation,
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
            PartialMeasurement(op=(1 + 1e-9) * np.eye(dim, dtype=complex),
                               strength=0.0, role="test")

    @pytest.mark.parametrize("dim", [2, 4])
    def test_non_diagonal_norm_above_one_rejected(self, dim):
        rng = np.random.default_rng(60 + dim)
        for _ in range(10):
            a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            op = a * ((1 + 1e-9) / np.linalg.norm(a, 2))
            with pytest.raises(ValueError, match="exceeds identity"):
                PartialMeasurement(op=op, strength=1.0, role="test")

    @pytest.mark.parametrize("op, match", [
        (np.diag([1.0, 0.5, 0.2]), "dimension 2 or 4"),
        (np.diag([1.0, np.nan]), "non-finite"),
    ])
    def test_malformed_diagonal_rejected(self, op, match):
        # the closed-form complement keeps the eigensolve path's input checks
        with pytest.raises(ValueError, match=match):
            PartialMeasurement(op=op.astype(complex), strength=0.0, role="test")

    @pytest.mark.parametrize("op, match", [
        ([[1, 0, 0], [0, 1, 0]], "op must be square"),
        ([[1, 0], [0, np.inf]], "op has non-finite"),
    ])
    def test_op_checked_like_any_matrix_input(self, op, match):
        with pytest.raises(ValueError, match=match):
            PartialMeasurement(op=op, strength=0.0, role="test")

    def test_list_op_is_coerced(self):
        pm = PartialMeasurement(op=[[1, 0], [0, 0.5]], strength=0.75, role="test")
        assert pm.op.tobytes() == np.diag([1, 0.5]).astype(complex).tobytes()
        assert pm.complement.tobytes() == np.diag([0, np.sqrt(0.75)]).astype(complex).tobytes()

    @pytest.mark.parametrize("dim", [2, 4])
    def test_identity_and_projector_accepted(self, dim):
        rng = np.random.default_rng(70 + dim)
        PartialMeasurement(op=np.eye(dim, dtype=complex), strength=0.0, role="test")
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        PartialMeasurement(op=projector(v / np.linalg.norm(v)), strength=1.0, role="test")


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
            pm = PartialMeasurement(op=lifted, strength=p0, role="test")
            assert pm.complement.tobytes() == _eigensolved_complement(lifted).tobytes()

    def test_scheme_operators_skip_the_eigensolve(self, monkeypatch):
        solves = []
        monkeypatch.setattr(measurements, "eig_hermitian",
                            _logging(solves, measurements.eig_hermitian))
        for pm in (wm_map(0.4), qmr_map(0.7), *post_wm_ops(0.2, 0.9)):
            for op in _lifts(pm.op):
                PartialMeasurement(op=op, strength=pm.strength, role=pm.role)
        assert solves == []

    @pytest.mark.parametrize("dim", [2, 4])
    def test_non_diagonal_operator_takes_the_eigensolve(self, dim, monkeypatch):
        rng = np.random.default_rng(80 + dim)
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        op = a * (0.8 / np.linalg.norm(a, 2))
        solves = []
        monkeypatch.setattr(measurements, "eig_hermitian",
                            _logging(solves, measurements.eig_hermitian))
        pm = PartialMeasurement(op=op, strength=0.8, role="test")
        assert len(solves) == 1
        assert pm.complement.tobytes() == _eigensolved_complement(op).tobytes()

    def test_operator_above_identity_same_error_on_both_paths(self):
        op = np.diag([1 + 1e-9, 0.6]).astype(complex)
        for lifted in _lifts(op):
            w, _ = eig_hermitian(np.eye(len(lifted), dtype=complex)
                                 - lifted.conj().T @ lifted)
            message = f"partial measurement operator exceeds identity: {1 - w[-1]}"
            with pytest.raises(ValueError) as err:
                PartialMeasurement(op=lifted, strength=0.0, role="test")
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
            assert np.abs(rotation(axis, 0.0).matrix - np.eye(2)).max() < 1e-15

    def test_unitarity_full_grid(self):
        for axis in "xyz":
            for eta in THETA_GRID:
                for sign in (+1, -1):
                    m = rotation(axis, eta, sign).matrix
                    assert np.abs(m.conj().T @ m - np.eye(2)).max() < 1e-12

    def test_ry_half_pi_maps_ground_to_plus(self):
        out = rotation("y", np.pi / 2, +1).matrix @ KET_0
        assert np.abs(out - KET_PLUS).max() < 1e-12

    def test_rz_preserves_z_component(self):
        rho = state_from_angles(InitialState(alpha=0.7, phi=0.9))
        for sign in (+1, -1):
            m = rotation("z", 0.8, sign).matrix
            out = m @ rho @ m.conj().T
            assert density_to_bloch(out).z == pytest.approx(density_to_bloch(rho).z,
                                                            abs=1e-12)

    def test_range_checks(self):
        with pytest.raises(ValueError):
            rotation("y", 2.0)
        with pytest.raises(ValueError):
            rotation("q", 0.3)


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

    def test_overfull_ensemble_rejected(self):
        with pytest.raises(ValueError):
            BranchEnsemble(branches=(Branch("a", RHO_0), Branch("b", RHO_0)))

    def test_incomplete_pair_rejected(self):
        with pytest.raises(ValueError):
            MeasurementPair(labels=("a", "b"), ops=(RHO_0, RHO_0), axis="z", theta=0.0)


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
            pm = PartialMeasurement(op=op, strength=scale, role="test")
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
            ens = partial_measure(rho, PartialMeasurement(op=op, strength=scale, role="test"))
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


_FACTORY_ARG = st.just(-0.0) | st.floats(0.0, 1.0)


@st.composite
def _factory_calls(draw):
    """A memoized factory and in-range arguments, all float or all np.float64."""
    cast = draw(st.sampled_from([float, np.float64]))
    x, y = cast(draw(_FACTORY_ARG)), cast(draw(_FACTORY_ARG))
    return draw(st.sampled_from([(pre_wm_pair, (x,)), (post_wm_ops, (x, y)), (ad_kraus, (x,))]))


class TestMemoizedFactories:
    @PROPERTY
    @given(_factory_calls())
    def test_cached_bits_equal_a_fresh_build(self, call):
        factory, args = call
        fresh = _bits(factory.__wrapped__(*args))
        for _ in range(2):   # a build or a hit, then a hit
            assert _bits(factory(*args)) == fresh

    def test_key_keeps_the_sign_of_zero_and_the_type(self):
        for factory in (pre_wm_pair, ad_kraus):
            plus, minus = factory(0.0), factory(-0.0)
            assert _bits(plus) != _bits(minus)
            assert _bits(minus) == _bits(factory.__wrapped__(-0.0))
        assert _bits(post_wm_ops(0.5, -0.0)) == _bits(post_wm_ops.__wrapped__(0.5, -0.0))
        assert type(ad_kraus(np.float64(0.3)).r) is np.float64
        assert type(ad_kraus(0.3).r) is float

    def test_repeated_call_shares_one_object(self):
        assert ad_kraus(0.3) is ad_kraus(0.3)
        assert post_wm_ops(0.2, 0.4) is post_wm_ops(0.2, 0.4)

    @pytest.mark.parametrize("call", [
        lambda: pre_wm_pair(0.3), lambda: post_wm_ops(0.3, 0.6), lambda: ad_kraus(0.3),
    ], ids=("pre_wm_pair", "post_wm_ops", "ad_kraus"))
    def test_cached_arrays_reject_writes(self, call):
        arrays = _arrays(call())
        assert len(arrays) >= 1
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[0, 0] = 2.0

    def test_directly_built_objects_stay_writeable(self):
        op = np.diag([1, 0.5]).astype(complex)
        for obj in (Rotation("y", 0.3), PartialMeasurement(op=op, strength=0.75, role="t"),
                    rotation("y", 0.3), wm_map(0.3), qmr_map(0.3)):   # uncached factories
            assert all(a.flags.writeable for a in _arrays(obj))

    def test_zero_dim_array_argument_builds_uncached(self):
        for factory, args in ((pre_wm_pair, (np.array(0.3),)), (ad_kraus, (np.array(0.3),)),
                              (post_wm_ops, (0.5, np.array(0.3)))):
            built = factory(*args)
            assert _bits(built) == _bits(factory.__wrapped__(*args))
            assert all(a.flags.writeable for a in _arrays(built))
