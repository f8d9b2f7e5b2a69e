import numpy as np
import pytest

from decoguard import channels
from decoguard.channels import (
    KrausChannel,
    _pauli,
    _ptm,
    ad_kraus,
    ad_rate_to_r,
    ad_unravel,
    apply_channel,
    flip_to_kraus_r,
    identity_channel,
    lift_local,
    make_channel,
    pd_flip,
    pd_kraus,
    pd_lambda_to_r,
)
from decoguard.qmath import (
    check_density,
    concurrence,
    density_to_bloch,
    projector,
    state_from_angles,
    InitialState,
)

RHO_PLUS = 0.5 * np.ones((2, 2), dtype=complex)
RHO_0 = np.diag([1.0, 0.0]).astype(complex)
RHO_1 = np.diag([0.0, 1.0]).astype(complex)
BELL = projector(np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2))

R_GRID = np.linspace(0.0, 1.0, 101)


def random_state(rng):
    return state_from_angles(InitialState(alpha=rng.uniform(0, np.pi / 2),
                                          phi=rng.uniform(0, 2 * np.pi)))


class TestPdFlip:
    def test_quarter_flip_on_plus(self):
        out = pd_flip(RHO_PLUS, 0.25)
        assert np.allclose(out, [[0.5, 0.25], [0.25, 0.5]], atol=1e-15)

    def test_zero_is_identity(self):
        rho = random_state(np.random.default_rng(0))
        assert np.allclose(pd_flip(rho, 0.0), rho, atol=1e-15)

    def test_ground_state_fixed_at_half(self):
        assert np.allclose(pd_flip(RHO_0, 0.5), RHO_0, atol=1e-15)

    def test_range_restricted_to_half(self):
        with pytest.raises(ValueError):
            pd_flip(RHO_PLUS, 0.6)

    def test_offdiagonal_scaling(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            rho = random_state(rng)
            r = rng.uniform(0, 0.5)
            out = pd_flip(rho, r)
            assert out[0, 1] == pytest.approx(rho[0, 1] * (1 - 2 * r), abs=1e-14)
            assert out[0, 0] == pytest.approx(rho[0, 0], abs=1e-14)


class TestParameterizations:
    def test_lambda_conversion(self):
        assert pd_lambda_to_r(0.0) == pytest.approx(0.0)
        assert pd_lambda_to_r(np.pi) == pytest.approx(1.0)
        assert pd_lambda_to_r(np.pi / 2) == pytest.approx(0.5)

    def test_rate_conversion(self):
        assert ad_rate_to_r(1.0, 0.0) == pytest.approx(0.0)
        assert ad_rate_to_r(5.0, 100.0) == pytest.approx(1.0, abs=1e-12)
        assert ad_rate_to_r(1.0, np.log(2) / 2) == pytest.approx(0.5, abs=1e-12)
        with pytest.raises(ValueError):
            ad_rate_to_r(-1.0, 1.0)

    def test_flip_to_kraus_equivalence(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            rho = random_state(rng)
            r1 = rng.uniform(0, 0.5)
            flipped = pd_flip(rho, r1)
            krausd = apply_channel(rho, pd_kraus(flip_to_kraus_r(r1)))
            assert np.abs(flipped - krausd).max() < 1e-12


class TestKrausConstruction:
    @pytest.mark.parametrize("maker", [pd_kraus, ad_kraus])
    def test_completeness_on_grid(self, maker):
        for r in R_GRID:
            ch = maker(r)
            total = sum(a.conj().T @ a for a in ch.ops)
            assert np.abs(total - np.eye(2)).max() < 1e-12

    @pytest.mark.parametrize("maker", [pd_kraus, ad_kraus])
    def test_range_rejected(self, maker):
        for bad in (-0.1, 1.1):
            with pytest.raises(ValueError):
                maker(bad)

    def test_incomplete_ops_rejected(self):
        with pytest.raises(ValueError):
            KrausChannel(ops=(np.diag([1.0, 0.5]).astype(complex),))

    def test_nan_ops_rejected(self):
        # a NaN completeness error compares False against the tolerance either way
        with pytest.raises(ValueError, match="completeness"):
            KrausChannel(ops=(np.array([[np.nan, 0], [0, 1]], dtype=complex),))

    def test_make_channel(self):
        assert make_channel("pd", 0.2).kind == "pd"
        assert make_channel("ad", 0.2).kind == "ad"
        assert make_channel("identity", 0.0).kind == "identity"
        with pytest.raises(ValueError):
            make_channel("bitflip", 0.2)

    @pytest.mark.parametrize("maker", [pd_kraus, ad_kraus])
    def test_transfer_built_once_on_first_use(self, maker):
        # fresh channels: ad_kraus hands out shared ones that other tests may have used
        row = [KrausChannel(ops=maker(r).ops) for r in R_GRID[::10]]
        assert all("transfer" not in vars(ch) for ch in row)  # not paid at construction
        stacked = np.stack([ch.transfer for ch in row])
        assert all(ch.transfer is ch.transfer and not ch.transfer.flags.writeable for ch in row)
        # the bits of one transfer build over a stack of the row's channels
        assert stacked.tobytes() == _ptm(np.stack([ch.stack for ch in row])).sum(axis=1).tobytes()
        rng = np.random.default_rng(7)
        for ch in row:
            rho = random_state(rng)
            assert np.allclose(_pauli(apply_channel(rho, ch)), ch.transfer @ _pauli(rho),
                               atol=1e-14)


class TestPdKraus:
    def test_zero_is_identity(self):
        rho = random_state(np.random.default_rng(3))
        assert np.allclose(apply_channel(rho, pd_kraus(0.0)), rho, atol=1e-15)

    def test_dephasing_shape(self):
        # populations unchanged, coherences scaled by sqrt(1-r)
        rng = np.random.default_rng(4)
        for _ in range(20):
            rho = random_state(rng)
            r = rng.uniform(0, 1)
            out = apply_channel(rho, pd_kraus(r))
            assert out[0, 0] == pytest.approx(rho[0, 0], abs=1e-14)
            assert out[1, 1] == pytest.approx(rho[1, 1], abs=1e-14)
            assert out[0, 1] == pytest.approx(rho[0, 1] * np.sqrt(1 - r), abs=1e-14)

    def test_three_quarters_on_plus(self):
        out = apply_channel(RHO_PLUS, pd_kraus(0.75))
        assert np.allclose(out, [[0.5, 0.25], [0.25, 0.5]], atol=1e-15)

    def test_bloch_action(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            rho = random_state(rng)
            r = rng.uniform(0, 1)
            before = density_to_bloch(rho)
            after = density_to_bloch(apply_channel(rho, pd_kraus(r)))
            assert after.z == pytest.approx(before.z, abs=1e-12)
            assert after.x == pytest.approx(before.x * np.sqrt(1 - r), abs=1e-12)
            assert after.y == pytest.approx(before.y * np.sqrt(1 - r), abs=1e-12)


class TestAdKraus:
    def test_excited_populations(self):
        out = apply_channel(RHO_1, ad_kraus(0.3))
        assert np.allclose(out, np.diag([0.3, 0.7]), atol=1e-15)

    def test_ground_fixed_point(self):
        for r in R_GRID:
            assert np.allclose(apply_channel(RHO_0, ad_kraus(r)), RHO_0, atol=1e-14)

    def test_full_decay(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            out = apply_channel(random_state(rng), ad_kraus(1.0))
            assert np.allclose(out, RHO_0, atol=1e-12)


class TestApplyChannel:
    def test_identity_channel(self):
        rho = random_state(np.random.default_rng(7))
        assert np.allclose(apply_channel(rho, identity_channel()), rho, atol=1e-15)

    def test_half_decay_on_mixed(self):
        out = apply_channel(np.eye(2, dtype=complex) / 2, ad_kraus(0.5))
        assert np.allclose(out, np.diag([0.75, 0.25]), atol=1e-15)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            apply_channel(BELL, ad_kraus(0.5))

    def test_output_is_valid_density(self):
        rng = np.random.default_rng(8)
        for maker in (pd_kraus, ad_kraus):
            for _ in range(10):
                out = apply_channel(random_state(rng), maker(rng.uniform(0, 1)))
                check_density(out)


def _per_operator(rho, ch):
    """The per-operator sum, written out: sum_i A_i rho A_i^dagger from Python
    sum's zero start, renormalized when the trace drifts; and whether it did."""
    out = sum(a @ rho @ a.conj().T for a in ch.ops)
    tr_in, tr_out = float(np.real(np.trace(rho))), float(np.real(np.trace(out)))
    drift = abs(tr_out - tr_in)
    if tr_out > 0 and drift > 0:
        out = out * (tr_in / tr_out)
    return out, tr_out > 0 and drift > 0


def _random_density(rng, dim):
    """A random state of dim, pure about a third of the time."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    if rng.uniform() < 0.3:
        g[:, 1:] = 0
    m = g @ g.conj().T
    return m / np.trace(m).real


def _row_channels(r):
    """Channels of one Kraus shape each: 2x2 ad, pd and identity, and their 4x4 lifts."""
    return ((ad_kraus(r), pd_kraus(r), identity_channel(), lift_local(ad_kraus(r), 1),
             lift_local(pd_kraus(r), 2), identity_channel(4)))


class TestApplyChannelBits:
    """apply_channel and the stacked form the optimizer rows call give the
    bits of the per-operator sum, signed zeros included."""

    def test_equals_per_operator_sum(self):
        rng, renormalized = np.random.default_rng(40), 0
        for _ in range(150):
            for ch in _row_channels(rng.uniform(0, 1)):
                rho = _random_density(rng, ch.dim)
                want, drifted = _per_operator(rho, ch)
                assert apply_channel(rho, ch).tobytes() == want.tobytes()
                renormalized += drifted
        assert renormalized > 0

    def test_stacked_equals_per_channel(self):
        rng, mixed_rows = np.random.default_rng(41), 0
        for _ in range(40):
            rs = rng.uniform(0, 1, size=5)
            for kind in range(6):
                chs = [_row_channels(r)[kind] for r in rs]
                rho = _random_density(rng, chs[0].dim)
                got = channels._apply_kraus(rho, np.stack([ch.stack for ch in chs]))
                assert got.shape == (len(chs), *rho.shape)
                drifted = set()
                for out, ch in zip(got, chs):
                    assert out.tobytes() == apply_channel(rho, ch).tobytes()
                    drifted.add(_per_operator(rho, ch)[1])
                mixed_rows += drifted == {False, True}
        # rows in which some channels are renormalized and some are not
        assert mixed_rows > 0


class TestAdUnravel:
    def test_weights_and_states(self):
        rho = np.diag([0.2, 0.8]).astype(complex)
        ens = ad_unravel(rho, 0.5)
        no_jump, jump = ens.branches
        assert jump.weight == pytest.approx(0.4, abs=1e-14)
        assert np.allclose(jump.state / jump.weight, RHO_0, atol=1e-14)
        assert np.allclose(no_jump.state, np.diag([0.2, 0.4]), atol=1e-14)

    def test_ground_never_jumps(self):
        ens = ad_unravel(RHO_0, 0.7)
        assert ens.branches[1].weight == pytest.approx(0.0, abs=1e-14)

    def test_branches_sum_to_channel(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            rho = random_state(rng)
            r = rng.uniform(0, 1)
            ens = ad_unravel(rho, r)
            total = sum(b.state for b in ens.branches)
            assert np.abs(total - apply_channel(rho, ad_kraus(r))).max() < 1e-12
            assert ens.total_weight == pytest.approx(1.0, abs=1e-12)


class TestLiftLocal:
    def test_identity_lifts_to_identity(self):
        ch = lift_local(identity_channel(), 1)
        assert np.allclose(apply_channel(BELL, ch), BELL, atol=1e-14)

    def test_ground_product_fixed(self):
        rho00 = np.kron(RHO_0, RHO_0)
        out = apply_channel(rho00, lift_local(ad_kraus(0.6), 1))
        assert np.allclose(out, rho00, atol=1e-14)

    def test_full_decay_kills_entanglement(self):
        out = apply_channel(BELL, lift_local(ad_kraus(1.0), 1))
        assert concurrence(out) == pytest.approx(0.0, abs=1e-12)

    def test_both_qubits_same_marginal_effect(self):
        out1 = apply_channel(BELL, lift_local(ad_kraus(0.4), 1))
        out2 = apply_channel(BELL, lift_local(ad_kraus(0.4), 2))
        assert concurrence(out1) == pytest.approx(concurrence(out2), abs=1e-12)

    def test_bad_qubit_index(self):
        with pytest.raises(ValueError):
            lift_local(ad_kraus(0.4), 3)

    @pytest.mark.parametrize("qubit", [1, 2])
    def test_matches_np_kron_bitwise(self, qubit):
        rng = np.random.default_rng(30 + qubit)
        eye = np.eye(2, dtype=complex)
        for _ in range(20):
            # a random complex two-operator channel: the halves of a 4x2 isometry
            q, _ = np.linalg.qr(rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2)))
            ch = KrausChannel(ops=(q[:2].copy(), q[2:].copy()))
            for a, lifted in zip(ch.ops, lift_local(ch, qubit).ops):
                assert np.array_equal(lifted, np.kron(a, eye) if qubit == 1 else np.kron(eye, a))
