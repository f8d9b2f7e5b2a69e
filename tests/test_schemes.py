import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decoguard import qmath
from decoguard.channels import ad_kraus, identity_channel, make_channel, pd_kraus
from decoguard.measurements import PartialMeasurement, qmr_map, wm_map
from decoguard.qmath import ID2, InitialState, bloch_to_density, projector, state_from_angles
from decoguard.schemes import (
    AD_ONLY_KINDS,
    SchemeSpec,
    matched_post_wm_strength,
    matched_qmr_strength,
    pair_average_fidelity,
    run_composite,
    run_ent_wmqmr,
    run_qfbc,
    run_qffc_ps,
    run_qffc_rot,
    run_scheme,
    run_wmppf,
    run_wmqmr,
)
from test_optimize import _logging

RHO_0 = np.diag([1.0, 0.0]).astype(complex)
RHO_1 = np.diag([0.0, 1.0]).astype(complex)
BELL = projector(np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2))


def random_pure(rng):
    return state_from_angles(InitialState(alpha=rng.uniform(0, np.pi / 2),
                                          phi=rng.uniform(0, 2 * np.pi)))


class TestWmqmr:
    def test_all_identities(self):
        res = run_wmqmr(RHO_1, r=0.0, p1=0.0, p2=0.0)
        assert res.fidelity == pytest.approx(1.0, abs=1e-12)
        assert res.success_prob == pytest.approx(1.0, abs=1e-12)

    def test_no_jump_reversal_condition(self):
        rng = np.random.default_rng(21)
        pairs = [(0.2, 0.3), (0.5, 0.5), (0.8, 0.2), (0.3, 0.9), (0.9, 0.7)]
        for p1, r in pairs:
            p2 = matched_qmr_strength(p1, r)
            for _ in range(50):
                rho = random_pure(rng)
                res = run_wmqmr(rho, r=r, p1=p1, p2=p2, no_jump_only=True)
                assert abs(res.fidelity - 1.0) < 1e-9

    def test_matched_strength_is_default(self):
        rho = random_pure(np.random.default_rng(22))
        explicit = run_wmqmr(rho, r=0.4, p1=0.6, p2=matched_qmr_strength(0.6, 0.4))
        default = run_wmqmr(rho, r=0.4, p1=0.6)
        assert default.fidelity == pytest.approx(explicit.fidelity, abs=1e-15)

    def test_excited_state_bookkeeping(self):
        res = run_wmqmr(RHO_1, r=0.0, p1=0.5, p2=0.5)
        assert res.success_prob == pytest.approx(0.5, abs=1e-12)
        assert res.fidelity == pytest.approx(1.0, abs=1e-12)

    def test_success_never_increases_with_strength(self):
        rho = state_from_angles(InitialState(alpha=0.8, phi=0.4))
        r = 0.5
        succ = [run_wmqmr(rho, r=r, p1=p1).success_prob
                for p1 in np.linspace(0, 0.95, 12)]
        assert all(a >= b - 1e-12 for a, b in zip(succ, succ[1:]))

    def test_branch_accounting(self):
        res = run_wmqmr(random_pure(np.random.default_rng(23)), r=0.3, p1=0.4)
        assert res.branches.total_weight == pytest.approx(1.0, abs=1e-12)
        assert res.branches.success_prob == pytest.approx(res.success_prob, abs=1e-14)


class TestQfbc:
    def test_do_nothing_limit_returns_damped_state(self):
        rho = state_from_angles(InitialState(alpha=0.7, phi=1.0))
        noise = ad_kraus(0.35)
        res = run_qfbc(rho, noise, theta=np.pi / 2, eta=0.0)
        from decoguard.channels import apply_channel
        assert np.abs(res.output_state - apply_channel(rho, noise)).max() < 1e-12

    def test_identity_noise_do_nothing_is_perfect(self):
        rho = state_from_angles(InitialState(alpha=0.3, phi=0.2))
        res = run_qfbc(rho, identity_channel(), theta=np.pi / 2, eta=0.0)
        assert res.fidelity == pytest.approx(1.0, abs=1e-12)
        assert res.success_prob == 1.0

    def test_trace_preserving_across_grid(self):
        rng = np.random.default_rng(24)
        grid = np.linspace(0, np.pi / 2, 7)
        rho = random_pure(rng)
        noise = pd_kraus(0.6)
        for ma in "xyz":
            for ra in "xyz":
                for theta in grid[::2]:
                    for eta in grid[::3]:
                        res = run_qfbc(rho, noise, theta=theta, eta=eta,
                                       meas_axis=ma, rot_axis=ra)
                        assert np.trace(res.output_state).real == pytest.approx(
                            1.0, abs=1e-12)

    def test_independent_angles_extend_tied_form(self):
        rho = state_from_angles(InitialState(alpha=0.5, phi=0.9))
        noise = ad_kraus(0.4)
        tied = run_qfbc(rho, noise, theta=0.4, eta=0.3, sign_binding=-1)
        via_pair = run_qfbc(rho, noise, theta=0.4, etas=(-0.3, +0.3))
        assert np.abs(tied.output_state - via_pair.output_state).max() < 1e-15

    def test_generalized_measurement_accepted(self):
        rho = state_from_angles(InitialState(alpha=0.5, phi=0.9))
        res = run_qfbc(rho, pd_kraus(0.3), theta=0.4, eta=0.2, beta=0.7)
        assert 0.0 <= res.fidelity <= 1.0

    def test_missing_eta_rejected(self):
        with pytest.raises(ValueError):
            run_qfbc(RHO_0, ad_kraus(0.1), theta=0.4)


class TestQffcPs:
    def test_no_measurement_no_noise(self):
        rho = state_from_angles(InitialState(alpha=0.6, phi=0.5))
        res = run_qffc_ps(rho, r=0.0, p=0.5, p_u=0.0, p_v=0.0)
        assert res.fidelity == pytest.approx(1.0, abs=1e-12)
        assert res.success_prob == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("p", [0.5, 0.7, 0.9])
    def test_matched_reversal_at_zero_noise(self, p):
        rng = np.random.default_rng(25)
        matched = matched_post_wm_strength(p)
        for _ in range(10):
            rho = random_pure(rng)
            res = run_qffc_ps(rho, r=0.0, p=p, p_u=matched, p_v=matched)
            assert abs(res.fidelity - 1.0) < 1e-9

    def test_ground_state_immune(self):
        for r in (0.2, 0.7, 1.0):
            res = run_qffc_ps(RHO_0, r=r, p=1.0, p_u=0.0, p_v=0.0)
            assert res.fidelity == pytest.approx(1.0, abs=1e-12)
            assert res.success_prob == pytest.approx(1.0, abs=1e-12)

    def test_branch_accounting(self):
        res = run_qffc_ps(random_pure(np.random.default_rng(26)), r=0.4, p=0.8)
        assert res.branches.total_weight == pytest.approx(1.0, abs=1e-12)
        assert 0.0 <= res.success_prob <= 1.0


class TestQffcRot:
    def test_no_controls_no_noise(self):
        rho = state_from_angles(InitialState(alpha=0.8, phi=0.3))
        res = run_qffc_rot(rho, identity_channel(), p=0.5, eta=0.0)
        assert res.fidelity == pytest.approx(1.0, abs=1e-12)

    def test_trace_one_for_random_inputs(self):
        rng = np.random.default_rng(27)
        for _ in range(20):
            res = run_qffc_rot(random_pure(rng), ad_kraus(rng.uniform(0, 1)),
                               p=rng.uniform(0, 1), eta=rng.uniform(0, np.pi / 2),
                               signs=(rng.choice([-1, 1]), rng.choice([-1, 1])))
            assert np.trace(res.output_state).real == pytest.approx(1.0, abs=1e-12)
            assert res.success_prob == 1.0

    def test_ground_state_immune(self):
        for r in (0.1, 0.5, 0.9):
            res = run_qffc_rot(RHO_0, ad_kraus(r), p=1.0, eta=0.0)
            assert res.fidelity == pytest.approx(1.0, abs=1e-12)

    def test_works_on_dephasing(self):
        res = run_qffc_rot(state_from_angles(InitialState(alpha=0.4, phi=0.6)),
                           pd_kraus(0.5), p=0.8, eta=0.3)
        assert 0.0 < res.fidelity <= 1.0


class TestWmppf:
    def test_equals_rotationless_feedforward(self):
        rng = np.random.default_rng(28)
        for _ in range(10):
            rho = random_pure(rng)
            noise = ad_kraus(rng.uniform(0, 1))
            p = rng.uniform(0, 1)
            a = run_wmppf(rho, noise, p)
            b = run_qffc_rot(rho, noise, p, eta=0.0)
            assert np.abs(a.output_state - b.output_state).max() < 1e-15

    def test_success_exactly_one_on_grid(self):
        rho = state_from_angles(InitialState(alpha=1.0, phi=0.25))
        for maker in (ad_kraus, pd_kraus):
            for p in np.linspace(0, 1, 11):
                for r in np.linspace(0, 1, 11):
                    res = run_wmppf(rho, maker(r), p)
                    assert res.success_prob == 1.0  # exact, not approximate


class TestComposite:
    def test_zero_rotation_reduces_to_feedforward(self):
        rho = state_from_angles(InitialState(alpha=0.7, phi=0.8))
        a = run_composite(rho, r=0.4, p=0.8, eta=0.0)
        b = run_qffc_ps(rho, r=0.4, p=0.8)
        assert a.fidelity == pytest.approx(b.fidelity, abs=1e-14)
        assert a.success_prob == pytest.approx(b.success_prob, abs=1e-14)

    def test_weak_branch_no_loss(self):
        rho = state_from_angles(InitialState(alpha=0.7, phi=0.8))
        res = run_composite(rho, r=0.3, p=0.5, eta=0.4, p_u=0.0, p_v=0.0)
        assert res.success_prob == pytest.approx(1.0, abs=1e-12)

    def test_matched_reversal_at_zero_noise(self):
        rho = state_from_angles(InitialState(alpha=0.9, phi=1.2))
        matched = matched_post_wm_strength(0.7)
        res = run_composite(rho, r=0.0, p=0.7, eta=0.0, p_u=matched, p_v=matched)
        assert abs(res.fidelity - 1.0) < 1e-9

    def test_success_never_rounds_past_one(self):
        # the accepted weights sum to 1.0000000000000002 here; the mixture
        # is still normalized by that sum
        res = run_composite(RHO_0, r=0.0, p=0.5, eta=0.0, p_u=0.0, p_v=0.0)
        assert res.branches.success_prob > 1.0
        assert res.success_prob == 1.0
        assert np.array_equal(res.output_state, RHO_0) and res.fidelity == 1.0


class TestEntWmqmr:
    def test_trivial_protection(self):
        res = run_ent_wmqmr(BELL, r1=0.0, r2=0.0, p1=0.0, p2=0.0)
        assert res.concurrence == pytest.approx(1.0, abs=1e-9)
        assert res.success_prob == pytest.approx(1.0, abs=1e-12)

    def test_full_decay_separates(self):
        res = run_ent_wmqmr(BELL, r1=1.0, r2=1.0, p1=0.0, p2=0.0)
        assert res.concurrence == pytest.approx(0.0, abs=1e-9)

    def test_protection_raises_concurrence(self):
        unprotected = run_ent_wmqmr(BELL, r1=0.6, r2=0.6, p1=0.0, p2=0.0)
        protected = run_ent_wmqmr(BELL, r1=0.6, r2=0.6, p1=0.8)
        assert protected.concurrence > unprotected.concurrence
        assert protected.success_prob < 1.0

    def test_both_sides(self):
        res = run_ent_wmqmr(BELL, r1=0.5, r2=0.5, p1=0.6, side="both")
        assert 0.0 <= res.success_prob <= 1.0
        assert res.branches.total_weight == pytest.approx(1.0, abs=1e-12)

    def test_requires_two_qubits(self):
        with pytest.raises(ValueError):
            run_ent_wmqmr(RHO_0, r1=0.1, r2=0.1, p1=0.1)


_MIXED = bloch_to_density((0.3, -0.2, 0.4))
_G = np.random.default_rng(5).normal(size=(2, 4, 4))
_FULL_RANK_PAIR = (_G[0] + 1j * _G[1]) @ (_G[0] + 1j * _G[1]).conj().T
_FULL_RANK_PAIR /= np.trace(_FULL_RANK_PAIR).real


class TestEigensolveCounts:
    # eigensolves that run (LAPACK eigh, the 2x2 Jacobi branch of _eig_core)
    # only where their eigenvectors produce output: a 2x2 state is checked in
    # closed form, the schemes' partial measurements are diagonal, each
    # distinct 4x4 matrix is decomposed once, and a fidelity input's square
    # root is built once; both caches are cleared so the first call is cold
    @pytest.mark.parametrize("call, eigs", [
        (lambda x: run_wmqmr(_MIXED, r=0.3, p1=x), 2),
        (lambda x: run_qffc_ps(_MIXED, r=0.3, p=x), 2),
        (lambda x: run_composite(_MIXED, r=0.3, p=0.7, eta=x), 2),
        (lambda x: run_ent_wmqmr(_FULL_RANK_PAIR, r1=0.3, r2=0.5, p1=x, side="both"), 4),
    ], ids=("wmqmr", "qffc_ps", "composite", "ent_wmqmr"))
    def test_mixed_input_call(self, call, eigs, monkeypatch):
        entries, lapack, fidelities = [], [], []
        qmath._eigh4.cache_clear()
        qmath._input_root.cache_clear()
        monkeypatch.setattr(np.linalg, "eigh", _logging(lapack, np.linalg.eigh))
        monkeypatch.setattr(qmath, "_eig_core", _logging(entries, qmath._eig_core))
        monkeypatch.setattr(qmath, "_fidelity_general",
                            _logging(fidelities, qmath._fidelity_general))
        solves = []
        # a cold call, then a warm one on the same input with another parameter:
        # the input's decomposition (its square root, or its 4x4 check) is reused
        for x in (0.6, 0.7):
            call(x)
            solves.append(len(lapack) + sum(len(a) == 2 for a, in entries))
            lapack.clear()
            entries.clear()
        assert (solves, len(fidelities)) == ([eigs, eigs - 1], 2)

    def test_two_sided_ent_wmqmr_lifts_each_stage_from_its_diagonal(self, monkeypatch):
        # the 4x4 measurements are built straight from wm_map's and qmr_map's
        # diagonal, with the same bits and with no 2x2 PartialMeasurement
        p2 = matched_qmr_strength(0.4, 0.3)
        wm, qmr = wm_map(0.4).op, qmr_map(p2).op
        expected = [qmath._kron(wm, ID2), qmath._kron(ID2, wm),
                    qmath._kron(qmr, ID2), qmath._kron(ID2, qmr)]
        ops = []
        post_init = PartialMeasurement.__post_init__
        monkeypatch.setattr(PartialMeasurement, "__post_init__",
                            lambda pm: (ops.append(pm.op), post_init(pm))[1])
        run_ent_wmqmr(_FULL_RANK_PAIR, r1=0.3, r2=0.5, p1=0.4, side="both")
        assert [op.tobytes() for op in ops] == [op.tobytes() for op in expected]


class TestDispatcherAndPairs:
    def test_every_scheme_perfect_at_zero_noise_zero_strength(self):
        rho = state_from_angles(InitialState(alpha=0.55, phi=0.85))
        ident = identity_channel()
        cases = [
            run_wmqmr(rho, r=0.0, p1=0.0, p2=0.0),
            run_qfbc(rho, ident, theta=np.pi / 2, eta=0.0),
            run_qffc_ps(rho, r=0.0, p=0.5, p_u=0.0, p_v=0.0),
            run_qffc_rot(rho, ident, p=0.5, eta=0.0),
            run_wmppf(rho, ident, p=0.5),
            run_composite(rho, r=0.0, p=0.5, eta=0.0, p_u=0.0, p_v=0.0),
        ]
        for res in cases:
            assert res.fidelity == pytest.approx(1.0, abs=1e-12)

    def test_dispatcher_matches_direct_call(self):
        rho = state_from_angles(InitialState(alpha=0.35, phi=0.15))
        spec = SchemeSpec(kind="qffc_rot", noise=ad_kraus(0.3),
                          params={"p": 0.7, "eta": 0.2})
        assert run_scheme(rho, spec).fidelity == pytest.approx(
            run_qffc_rot(rho, ad_kraus(0.3), p=0.7, eta=0.2).fidelity, abs=1e-15)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            run_scheme(RHO_0, SchemeSpec(kind="teleport", noise=None, params={}))

    def test_pair_average_degenerate_at_alpha_zero(self):
        # at alpha = 0 both pair members are the same state
        spec = SchemeSpec(kind="wmppf", noise=ad_kraus(0.4), params={"p": 0.8})
        avg = pair_average_fidelity(spec, alpha=0.0, phi=0.3)
        rho = state_from_angles(InitialState(alpha=0.0, phi=0.3))
        assert avg == pytest.approx(run_scheme(rho, spec).fidelity, abs=1e-14)

    def test_pair_average_is_mean_of_members(self):
        spec = SchemeSpec(kind="wmppf", noise=ad_kraus(0.4), params={"p": 0.8})
        fids = []
        for sign in (+1, -1):
            rho = state_from_angles(InitialState(alpha=0.6, phi=0.7, pair_sign=sign))
            fids.append(run_scheme(rho, spec).fidelity)
        assert pair_average_fidelity(spec, alpha=0.6, phi=0.7) == pytest.approx(
            np.mean(fids), abs=1e-14)


class TestSchemeSpec:
    def test_params_are_read_only(self):
        spec = SchemeSpec(kind="wmppf", noise=ad_kraus(0.4), params={"p": 0.8})
        with pytest.raises(TypeError):
            spec.params["p"] = 0.5

    def test_params_are_a_copy(self):
        params = {"p": 0.8}
        spec = SchemeSpec(kind="wmppf", noise=ad_kraus(0.4), params=params)
        params["p"] = 0.5
        params["eta"] = 0.1
        assert dict(spec.params) == {"p": 0.8}


class TestRunScheme:
    def test_missing_parameter_is_value_error(self):
        spec = SchemeSpec(kind="qffc_rot", noise=ad_kraus(0.3), params={"eta": 0.2})
        with pytest.raises(ValueError, match="missing required parameter 'p'"):
            run_scheme(RHO_0, spec)

    def test_unused_keys_ignored(self):
        rho = state_from_angles(InitialState(alpha=0.35, phi=0.15))
        spec = SchemeSpec(kind="wmqmr", noise=None,
                          params={"r": 0.5, "p1": 0.8, "theta": 0.3, "theta_pre": 1.0})
        assert run_scheme(rho, spec).fidelity == run_wmqmr(rho, r=0.5, p1=0.8).fidelity

    @pytest.mark.parametrize("kind,params", [
        ("wmqmr", {"r": 0.5, "p1": 0.8}),
        ("qffc_ps", {"r": 0.5, "p": 0.8}),
        ("composite", {"r": 0.5, "p": 0.8, "eta": 0.1}),
    ])
    @pytest.mark.parametrize("noise", [pd_kraus(0.5), identity_channel()])
    def test_amplitude_damping_only_kinds_reject_other_noise(self, kind, params, noise):
        spec = SchemeSpec(kind=kind, noise=noise, params=params)
        with pytest.raises(ValueError, match=f"{kind} needs an amplitude-damping"):
            run_scheme(RHO_0, spec)

    def test_params_r_must_match_the_channel(self):
        spec = SchemeSpec(kind="wmqmr", noise=ad_kraus(0.9), params={"r": 0.1, "p1": 0.5})
        with pytest.raises(ValueError, match="differs from the channel"):
            run_scheme(RHO_0, spec)
        rho = state_from_angles(InitialState(alpha=0.35, phi=0.15))
        spec = SchemeSpec(kind="wmqmr", noise=ad_kraus(0.1), params={"r": 0.1, "p1": 0.5})
        assert run_scheme(rho, spec).fidelity == run_wmqmr(rho, r=0.1, p1=0.5).fidelity

    @pytest.mark.parametrize("kind,params", [
        ("qfbc", {"theta": 0.3, "eta": 0.2}),
        ("qffc_rot", {"p": 0.8, "eta": 0.2}),
        ("wmppf", {"p": 0.8}),
    ])
    def test_noise_kinds_need_a_channel(self, kind, params):
        with pytest.raises(ValueError, match=f"{kind} needs a noise channel"):
            run_scheme(RHO_0, SchemeSpec(kind=kind, noise=None, params=params))

    def test_runner_looked_up_at_call_time(self, monkeypatch):
        # a rebound run_* (for example a tracing wrapper) must see the call
        from decoguard import schemes
        calls = []

        def spy(rho_in, noise, p):
            calls.append(p)
            return run_wmppf(rho_in, noise, p)

        monkeypatch.setattr(schemes, "run_wmppf", spy)
        run_scheme(RHO_0, SchemeSpec(kind="wmppf", noise=ad_kraus(0.4), params={"p": 0.8}))
        assert calls == [0.8]


def _bloch_state(polar, azimuth, radius):
    return bloch_to_density(radius * np.array([np.sin(polar) * np.cos(azimuth),
                                               np.sin(polar) * np.sin(azimuth),
                                               np.cos(polar)]))


# pure (radius 1) and mixed states anywhere in the Bloch ball
_STATES = st.builds(_bloch_state, st.floats(0.0, np.pi), st.floats(0.0, 2 * np.pi),
                    st.one_of(st.just(1.0), st.floats(0.0, 1.0)))
_PROB = st.floats(0.0, 1.0)
_ANGLE = st.floats(0.0, np.pi / 2)
_SIGNS = st.sampled_from(((+1, +1), (+1, -1), (-1, +1), (-1, -1)))
# random run_* keyword arguments of each single-qubit scheme kind
_PARAMS = {
    "qfbc": st.fixed_dictionaries({
        "theta": _ANGLE, "etas": st.tuples(st.floats(-np.pi / 2, np.pi / 2),
                                           st.floats(-np.pi / 2, np.pi / 2)),
        "meas_axis": st.sampled_from("xyz"), "rot_axis": st.sampled_from("xyz")}),
    "qffc_rot": st.fixed_dictionaries({"p": _PROB, "eta": _ANGLE, "signs": _SIGNS}),
    "wmppf": st.fixed_dictionaries({"p": _PROB}),
    "wmqmr": st.fixed_dictionaries({"p1": _PROB, "p2": _PROB, "no_jump_only": st.booleans()}),
    "qffc_ps": st.fixed_dictionaries({"p": _PROB, "p_u": _PROB, "p_v": _PROB}),
    "composite": st.fixed_dictionaries({"p": _PROB, "eta": _ANGLE, "signs": _SIGNS,
                                        "p_u": _PROB, "p_v": _PROB}),
}


class TestSchemeInvariantProperties:
    """Physical invariants of every single-qubit scheme on random pure and
    mixed states, channels and parameters."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(st.data(), _STATES, st.sampled_from(("ad", "pd", "identity")), _PROB)
    @pytest.mark.parametrize("kind", sorted(_PARAMS))
    def test_branch_weights_success_and_fidelity(self, kind, data, rho, channel, r):
        params = data.draw(_PARAMS[kind])
        if kind in AD_ONLY_KINDS:
            channel, params["r"] = "ad", r
        res = run_scheme(rho, SchemeSpec(kind=kind, noise=make_channel(channel, r),
                                         params=params))
        # every branch, discards included, accounts for the input's weight
        assert abs(res.branches.total_weight - 1.0) <= 1e-12
        assert 0.0 <= res.success_prob <= 1.0
        assert 0.0 <= res.fidelity <= 1.0
        if kind not in AD_ONLY_KINDS:
            # deterministic: a trace-preserving map with a PSD output
            assert res.success_prob == 1.0
            assert abs(np.trace(res.output_state).real - 1.0) <= 1e-12
            assert np.linalg.eigvalsh(res.output_state).min() >= -1e-12
